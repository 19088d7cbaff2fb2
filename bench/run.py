"""Seeded benchmark of the stableadmit package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --check-determinism

Workloads (pinned in bench/workloads.json, one sentence each on why):
exact_mid runs ``stableadmit solve`` over every model family and mode,
scale_certify runs parse, build, the proposal algorithms, fixing and the
oracle audit on large markets without any search, and enumerate_small
runs ``stableadmit enumerate`` on small markets.

Set-up generates the workload's market pool in a fresh interpreter that
imports the package from this checkout's src/ tree; it runs several
times and setup_s is the median. One op sends one market through its
rung's pipeline; a round is one op per rung. The pool's rounds run in
passes until --seconds have passed, and the first pass always completes.
This is a closed loop with one client: a single process, no extra
threads, one workload at a time. Every op of the first pass is followed
by untimed correctness gates, and every later pass must print the same
outputs; a failed gate names the market and the check and exits 1
without a result.

--trace 0 reports the end-to-end metrics. The host is shared and its
speed drifts by up to a factor of two over minutes, so the op metrics
are scaled to reference speed: a fixed yardstick (yardstick.py) runs
between ops, and each op metric is its wall-clock value times the
yardstick's nominal time over its median time in the run. The
wall-clock values are printed too. setup_s and peak_rss_mb are not
scaled.

--trace 1 runs a fixed set of rounds twice, untraced and then traced,
reports the per-layer metrics of the traced pass, prints the per-layer
table, the tracing overhead and a fingerprint of every op's output, and
checks that both passes printed the same outputs. --check-determinism
runs a reduced traced copy twice in fresh interpreters with different
hash seeds and compares their fingerprints and counts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ladder
import yardstick

SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of bench/workloads.json, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-rounds", type=int, default=None,
                   help="override the pinned number of traced rounds")
    p.add_argument("--check-determinism", action="store_true")
    return p.parse_args(argv)


def _git_commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a clone."""
    git = ladder.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(spec: dict, args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "package_digest": _tree_digest(ladder.ROOT / "src" / "stableadmit",
                                       "*.py"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "held_out_seed": ladder.load_spec()["held_out_seed"],
        "node_caps": {r["name"]: r["node_cap"] for r in spec["rungs"]},
    }


def _tree_digest(directory: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob(pattern)):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _setup(args, repeats: int, workdir: Path) -> tuple[Path, float, float]:
    """Generate the pool `repeats` times in fresh interpreters; return the
    market directory, the median wall time and the median generator time."""
    walls, gens, digests = [], [], set()
    for rep in range(repeats):
        outdir = workdir / f"setup{rep}"
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ladder.BENCH_DIR / "setup_markets.py"),
             args.workload, str(args.seed), str(outdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise ladder.LadderError(f"set-up failed: {proc.stderr.strip()}")
        gens.append(json.loads(proc.stdout.splitlines()[-1])["gen_s"])
        digests.add(_tree_digest(outdir))
        if rep:
            shutil.rmtree(outdir)
    if len(digests) != 1:
        raise ladder.LadderError("set-up is not deterministic: repeated "
                                 "generation wrote different markets")
    return workdir / "setup0", statistics.median(walls), statistics.median(gens)


def _fingerprint(ops, outcomes, counts: dict) -> str:
    h = hashlib.sha256()
    for op, outcome in zip(ops, outcomes):
        h.update(json.dumps([op.rung["name"], op.path.name, outcome.report],
                            sort_keys=True).encode())
    h.update(json.dumps(counts, sort_keys=True).encode())
    return h.hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _measure(args, spec, markets, workdir) -> tuple[dict, int, int, list[str]]:
    """Run the workload's pool of ops in passes until --seconds have passed
    (the first pass always completes). Every run of an op is one latency
    sample. The first pass applies the gates; every later pass must print
    the same reports. The yardstick runs after every 20 ms of op time;
    the op metrics are wall-clock figures scaled by the yardstick's
    nominal time over its median time in this run."""
    import pipelines

    runner = pipelines.Runner(workdir)
    pool = [op for ops in itertools.islice(pipelines.rounds(spec, markets),
                                           spec["pool_rounds"])
            for op in ops]
    digests, latencies, completed, yard = [], [], [], []
    since_yard = 0.0
    loop_start = time.perf_counter()
    for n, (i, op) in enumerate(itertools.cycle(enumerate(pool))):
        first_pass = n < len(pool)
        if not first_pass and time.perf_counter() - loop_start >= args.seconds:
            break
        elapsed, outcome = runner.run(op, gated=first_pass)
        # A digest, not the report, so the heap the program runs in does
        # not grow with the pool.
        digest = hashlib.sha256(json.dumps(outcome.report, sort_keys=True)
                                .encode()).digest()
        if first_pass:
            digests.append(digest)
        elif digest != digests[i]:
            raise pipelines.GateError(
                f"market {op.path.name}, rung {op.rung['name']}: pass "
                f"{n // len(pool) + 1} printed another output than pass 1")
        latencies.append(elapsed)
        completed.append(outcome.completed)
        since_yard += elapsed
        if since_yard >= 0.02:
            since_yard = 0.0
            yard.append(yardstick.measure())
    attempted = len(latencies)
    failed = attempted - sum(completed)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    rate = _round_rate(len(spec["rungs"]), latencies, completed)
    yard_s = statistics.median(yard)
    scale = yardstick.NOMINAL_S / yard_s
    metrics = {
        "op_p50_s_at_ref": _metric(p50 * scale, "s"),
        "op_p90_s_at_ref": _metric(p90 * scale, "s"),
        "markets_per_s_at_ref": _metric(rate / scale, "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"{attempted} ops in {attempted / len(pool):.2f} passes over a pool "
             f"of {spec['pool_rounds']} rounds of {len(spec['rungs'])} rungs; "
             f"failed {failed} (failed_ratio {failed / attempted:.4f}); "
             + _gate_coverage(runner),
             f"wall clock: op_p50_s {p50:.6g}, op_p90_s {p90:.6g}, "
             f"markets_per_s {rate:.6g}; yardstick median {yard_s * 1e3:.4f} ms "
             f"over {len(yard)} runs (nominal {yardstick.NOMINAL_S * 1e3:g} ms), "
             f"so the host ran at {scale:.3f} of reference speed"]
    return metrics, attempted, failed, lines


def _round_rate(width: int, latencies: list, completed: list) -> float:
    """Median over rounds of ops completed per second of op time; a round
    is one market through every rung, so one hard market moves only its
    own round. A round cut short by the end of the run is left out."""
    return statistics.median(
        sum(completed[k:k + width]) / sum(latencies[k:k + width])
        for k in range(0, len(latencies) - width + 1, width))


def _gate_coverage(runner) -> str:
    gates = runner.cli_gates
    if not gates.listing_checked and not gates.listing_skipped:
        return "all gates passed"
    return (f"all gates passed; enumerate_stable compared on "
            f"{gates.listing_checked} ops, skipped by its size guard on "
            f"{gates.listing_skipped}")


def _trace(args, spec, markets, workdir) -> tuple[dict, int, int, list[str]]:
    import layers
    import pipelines
    import tracing

    n_rounds = args.trace_rounds or spec["trace_rounds"]
    ops = [op for ops in itertools.islice(pipelines.rounds(spec, markets), n_rounds)
           for op in ops]
    # Each op runs untraced and then traced, so both passes see the same
    # warm-up; each pass has its own runner for the gates' round pairing.
    runner, traced_runner = pipelines.Runner(workdir), pipelines.Runner(workdir)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for op in ops:
        untraced.append(runner.run(op))
        with tracer.patched(layers.patch_table(tracer)):
            traced.append(traced_runner.run(op, tracer))
    for op, (_, a), (_, b) in zip(ops, untraced, traced):
        if a.report != b.report:
            raise pipelines.GateError(f"market {op.path.name}, rung "
                                      f"{op.rung['name']}: traced and untraced "
                                      "runs printed different outputs")
    base_s = sum(e for e, _ in untraced)
    traced_s = sum(e for e, _ in traced)
    tracer.counts["cli.report_bytes"] = sum(o.report_bytes for _, o in traced)
    metrics = layers.layer_metrics(tracer, args.gen_s)
    metrics["trace.overhead_s"] = (traced_s - base_s, "s")
    metrics["trace.ops"] = (len(ops), "count")
    counts = {k: metrics[k][0] for k in ("solver.nodes", "builders.rows",
                                         "builders.nnz", "solver.projections")}
    fingerprint = _fingerprint(ops, [o for _, o in traced], counts)
    lines = [f"per-layer split over {len(ops)} traced ops ({n_rounds} rounds), "
             f"op time {traced_s:.4f} s",
             *layers.table(tracer, metrics, traced_s),
             f"tracing overhead: traced {traced_s:.4f} s - untraced "
             f"{base_s:.4f} s = {traced_s - base_s:+.4f} s "
             f"({(traced_s - base_s) / base_s:+.1%})",
             f"fingerprint: {fingerprint} "
             + " ".join(f"{k}={v:g}" for k, v in counts.items())]
    failed = sum(not o.completed for _, o in traced)
    return ({k: _metric(v, unit) for k, (v, unit) in metrics.items()},
            len(ops), failed, lines)


def _check_determinism(args) -> int:
    """Run a reduced traced copy twice in fresh interpreters and compare."""
    prints = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--trace", "1", "--trace-rounds", str(args.trace_rounds or 1)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        line = next(l for l in proc.stdout.splitlines()
                    if l.startswith("fingerprint: "))
        print(f"PYTHONHASHSEED={hash_seed} {line}")
        prints.append(line)
    if prints[0] != prints[1]:
        print("error: fingerprints or counts differ between identical runs",
              file=sys.stderr)
        return 1
    print(f"determinism: {args.workload} seed {args.seed} identical")
    return 0


def _run_all(argv: list[str]) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    k = argv.index("--workload")
    for name in ladder.load_spec()["workloads"]:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             *argv[:k], "--workload", name, *argv[k + 2:]],
            timeout=CHILD_TIMEOUT_S * 2).returncode
        if code:
            return code
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # runs the clean-up in main's finally


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _terminate)
    args = _parse_args(argv)
    try:
        ladder.load_package()
        if args.workload == "all":
            return _run_all(argv)
        spec = ladder.workload_spec(args.workload)
    except ladder.LadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check_determinism:
        return _check_determinism(args)
    import pipelines

    work_root = ladder.ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        markets, setup_s, args.gen_s = _setup(
            args, ladder.load_spec()["setup_repeats"], workdir)
        if args.trace:
            metrics, attempted, failed, lines = _trace(args, spec, markets, workdir)
        else:
            metrics, attempted, failed, lines = _measure(args, spec, markets, workdir)
            metrics["setup_s"] = _metric(setup_s, "s")
    except (ladder.LadderError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except pipelines.GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    print("environment: " + json.dumps(_environment(spec, args)))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
