"""Benchmark set-up: generate and serialize one workload's market pool.

    python3 bench/setup_markets.py WORKLOAD SEED OUTDIR

Starts from a fresh interpreter, imports the package from the checkout,
writes every market of every pool round to OUTDIR and prints one JSON
line with the import, generation and serialization times.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()

import ladder  # noqa: E402  (timed from here, so the package import counts)


def main(argv: list[str]) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    package = ladder.load_package()
    imported = time.perf_counter()
    spec = ladder.workload_spec(workload)
    gen_s = ser_s = 0.0
    count = 0
    outdir.mkdir(parents=True, exist_ok=True)
    for rnd in range(spec["pool_rounds"]):
        for market, fields in spec["markets"].items():
            cfg = ladder.gen_config(
                package, fields, ladder.market_seed(workload, seed, market, rnd))
            t0 = time.perf_counter()
            inst = package.generate(cfg)
            t1 = time.perf_counter()
            text = package.serialize_instance(inst)
            t2 = time.perf_counter()
            (outdir / f"{market}-{rnd:03d}.json").write_text(text, encoding="utf-8")
            gen_s += t1 - t0
            ser_s += t2 - t1
            count += 1
    print(json.dumps({"import_s": imported - started, "gen_s": gen_s,
                      "serialize_s": ser_s, "markets": count}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
