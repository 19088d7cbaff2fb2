"""A fixed reference workload that measures how fast the host runs right now.

The host this benchmark runs on is shared, and its speed drifts by up to
a factor of two over minutes. The yardstick does the same kind of work as
one op, in miniature and with no package code: parse a JSON document,
rank its entries, fill capacities from preference lists and serialize the
result. It runs between ops, so its median time in a run says how fast
the host was while the ops ran. It never changes with the package, so a
change to the package moves the ops' time and not the yardstick's.
"""

from __future__ import annotations

import json
import time

# Times "at reference speed" are scaled to a host on which one yardstick
# run takes this long (on a 2-vCPU x86-64 VM with Python 3.11 it takes
# 0.8 to 1.6 ms, depending on the other work on the host).
NOMINAL_S = 0.001

_DOC = json.dumps({"entries": [
    {"id": i, "score": (i * 37) % 101,
     "prefs": [(i * 7 + k * 3) % 13 for k in range(4)]}
    for i in range(120)]})


def _allocate() -> str:
    doc = json.loads(_DOC)
    ranked = sorted(doc["entries"], key=lambda e: (-e["score"], e["id"]))
    seats: dict[int, list[int]] = {}
    for entry in ranked:
        for c in entry["prefs"]:
            taken = seats.setdefault(c, [])
            if len(taken) < 8:
                taken.append(entry["id"])
                break
    return json.dumps(seats, sort_keys=True)


def measure() -> float:
    """Seconds one yardstick run takes now."""
    started = time.perf_counter()
    for _ in range(4):
        _allocate()
    return time.perf_counter() - started
