"""Pinned workload ladders and the package import shared by the benchmark.

A ladder is a list of rungs; each rung sends one seeded market through
one pipeline. The markets of round r of a workload run under seed s are
generated from the GenConfig pinned in workloads.json with a market
seed derived from (workload, s, market name, r), so the same workload
seed always yields the same files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = BENCH_DIR / "workloads.json"


class LadderError(Exception):
    """The checkout or the ladder specification is unusable."""


def load_package():
    """Import stableadmit from the checkout's own src/ tree, never from an
    installed copy, and return the package module."""
    src = ROOT / "src"
    if not (src / "stableadmit" / "__init__.py").is_file():
        raise LadderError(f"no stableadmit package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("stableadmit")
    if Path(package.__file__).resolve().parent != src / "stableadmit":
        raise LadderError(f"stableadmit imported from {package.__file__}, "
                          f"not from {src}")
    return package


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def workload_spec(name: str) -> dict:
    spec = load_spec()
    if name not in spec["workloads"]:
        raise LadderError(f"unknown workload {name!r}; "
                          f"choose from {sorted(spec['workloads'])}")
    return spec["workloads"][name]


def market_seed(workload: str, seed: int, market: str, rnd: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{market}/{rnd}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def gen_config(package, fields: dict, seed: int):
    """Build a GenConfig; every field except the seed must be pinned."""
    pinned = {f.name for f in dataclasses.fields(package.GenConfig)} - {"seed"}
    if set(fields) != pinned:
        raise LadderError(f"market must pin exactly {sorted(pinned)}, "
                          f"got {sorted(fields)}")
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}
    return package.GenConfig(seed=seed, **values)
