"""What one op of each workload does, and the untimed gates after it.

An op sends one market through its rung's pipeline. CLI rungs call
``stableadmit.cli.main(argv)`` in process with standard output captured;
scale rungs call the exported library functions. The functions are
imported into this module's namespace so the tracer can wrap them here,
as attributes of their calling module.

After the first run of every op the gates re-derive what its output must
be from the instance and the package's combinatorial algorithms; a
mismatch raises GateError naming the market and the check, and is never
measured.
"""

from __future__ import annotations

import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from stableadmit import (Solution, SizeGuardError, build_lower, build_paired,
                         build_scorelimits, check, da, enumerate_stable,
                         fix_iterate, gs_scorelimits, instance_digest,
                         lower_quota_heuristic, parse_instance,
                         serialize_solution)
from stableadmit.cli import main


class GateError(Exception):
    """An op's output failed a correctness check."""


@dataclass
class Op:
    index: int
    rnd: int           # absolute round of the run; pairs ops within a round
    rung: dict
    path: Path         # the market file


def rounds(spec: dict, markets: Path):
    """Endless rounds of ops, one per rung, cycling through the market pool."""
    index = itertools.count()
    for rnd in itertools.count():
        pool_round = rnd % spec["pool_rounds"]
        yield [Op(next(index), rnd, rung,
                  markets / f"{rung['market']}-{pool_round:03d}.json")
               for rung in spec["rungs"]]


@dataclass
class Outcome:
    completed: bool    # False when a node cap cut the op short
    report: dict       # op output without timings, for the fingerprint
    report_bytes: int  # bytes the CLI printed


def call_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _report(text: str) -> dict:
    """A CLI report without the fields that differ between identical runs:
    the timing block and the echoed command line with its file paths."""
    doc = json.loads(text)
    doc.pop("timing", None)
    doc.pop("command", None)
    return doc


def _fail(op: Op, gate: str, detail: str) -> GateError:
    return GateError(f"market {op.path.name}, rung {op.rung['name']}: "
                     f"gate {gate} failed: {detail}")


# --- CLI rungs (exact_mid, enumerate_small) ---------------------------------

def cli_argv(op: Op) -> list[str]:
    argv = op.rung["argv"]
    return [argv[0], str(op.path), *argv[1:], "--node-cap", str(op.rung["node_cap"])]


def run_cli(op: Op):
    return call_main(cli_argv(op))


class CliGates:
    """Classifies CLI results and checks them; keeps the per-round state
    that pairs the plain and preprocessed lower-quota runs."""

    def __init__(self) -> None:
        self.lower_seen: dict[tuple[int, str], tuple[str, str]] = {}
        self.listing_checked = 0
        self.listing_skipped = 0

    def __call__(self, op: Op, result, gated: bool = True) -> Outcome:
        code, out, err = result
        if code == 3 or (code not in (0, 2) and not out):
            raise _fail(op, "exit", f"exit code {code}: {err.strip()}")
        doc = _report(out)
        if op.rung["argv"][0] == "enumerate":
            completed = code == 0 and not doc["truncated"]
        else:
            status = doc["status"]
            if code == 1 and status != "limit_reached":
                raise _fail(op, "exit", f"exit code 1: {err.strip()}")
            completed = status in ("optimal", "infeasible") or (
                status == "feasible" and not doc["objective_values"])
        if completed and gated:
            for gate in op.rung["gates"]:
                getattr(self, "_" + gate)(op, doc)
        return Outcome(completed, doc, len(out.encode()))

    def _stable(self, op: Op, doc: dict) -> None:
        if doc["status"] != "infeasible" and doc["verdict"] != "stable":
            raise _fail(op, "stable", f"verdict {doc['verdict']!r}")

    def _unverified(self, op: Op, doc: dict) -> None:
        # Mixes under drop-with-lex-objective have no oracle variant; the CLI
        # prints "unverified" after its quota bookkeeping audit passed.
        if doc["status"] != "infeasible" and doc["verdict"] != "unverified":
            raise _fail(op, "unverified", f"verdict {doc['verdict']!r}")

    def _da_rank_sum(self, op: Op, doc: dict) -> None:
        inst = parse_instance(op.path.read_text(encoding="utf-8"))
        matching = da(inst, "applicant")
        ranks = [matching.rank_of(inst, i) for i in range(inst.n)]
        expected = sum(r for r in ranks if r is not None)
        if doc["status"] != "optimal" or doc["objective_values"] != [expected]:
            raise _fail(op, "da_rank_sum",
                        f"{doc['status']} {doc['objective_values']} but the "
                        f"applicant-side DA rank sum is {expected}")

    def _gs_cutoffs(self, op: Op, doc: dict) -> None:
        inst = parse_instance(op.path.read_text(encoding="utf-8"))
        expected = gs_scorelimits(inst, "applicant")[1].by_ids(inst)
        if doc["status"] != "optimal" or doc["score_limits"] != expected:
            raise _fail(op, "gs_cutoffs",
                        f"cutoffs {doc['score_limits']} but gs_scorelimits "
                        f"gives {expected}")

    def _lower_agree(self, op: Op, doc: dict) -> None:
        key = (op.rnd, op.rung["market"])
        feasible = "no" if doc["status"] == "infeasible" else "yes"
        other = self.lower_seen.pop(key, None)
        if other is None:
            self.lower_seen[key] = (op.rung["name"], feasible)
        elif other[1] != feasible:
            raise _fail(op, "lower_agree",
                        f"feasible={feasible} but rung {other[0]} on the same "
                        f"market gave feasible={other[1]}")

    def _oracle_listing(self, op: Op, doc: dict) -> None:
        inst = parse_instance(op.path.read_text(encoding="utf-8"))
        model = op.rung["argv"][op.rung["argv"].index("--model") + 1]
        variant = {"scorelimits": "scorelimits_H", "lower": "lower",
                   "common": "common"}[model]
        try:
            oracle = enumerate_stable(inst, variant)
        except SizeGuardError:
            self.listing_skipped += 1
            return
        if variant == "scorelimits_H":
            want = {json.dumps(s.score_limits, sort_keys=True)
                    for s in oracle.solutions}
            got = {json.dumps({inst.college_index(c): t
                               for c, t in s["score_limits"].items()},
                              sort_keys=True)
                   for s in doc["solutions"]}
        else:
            want = {json.dumps(s.matching_by_ids(inst), sort_keys=True)
                    for s in oracle.solutions}
            got = {json.dumps(s["matching"], sort_keys=True)
                   for s in doc["solutions"]}
        if want != got:
            raise _fail(op, "oracle_listing",
                        f"enumerate lists {len(got)} distinct outcomes, "
                        f"enumerate_stable lists {len(want)}; "
                        f"{len(got ^ want)} differ")
        self.listing_checked += 1


# --- scale rungs (scale_certify) --------------------------------------------

def _parse_and_digest(path: Path):
    inst = parse_instance(path.read_text(encoding="utf-8"))
    return inst, instance_digest(inst)


def model_size(model) -> dict:
    return {"vars": len(model.variables), "rows": len(model.constraints),
            "nnz": sum(len(c.coeffs) for c in model.constraints)}


def strict_certify(op: Op, scratch: Path) -> dict:
    validate = call_main(["validate", str(op.path)])
    inst, digest = _parse_and_digest(op.path)
    model = build_scorelimits(inst, "strict")
    da_app, da_col = da(inst, "applicant"), da(inst, "college")
    gs_match, gs_limits = gs_scorelimits(inst, "applicant")
    app_sol = da_app.to_solution(inst)
    audits = {
        "da_applicant": check(inst, app_sol, "classical"),
        "da_college": check(inst, da_col.to_solution(inst), "classical"),
        "gs_applicant": check(inst, gs_match.to_solution(
            inst, score_limits=gs_limits.limits), "scorelimits_H"),
    }
    sol_path = scratch / "solution.json"
    sol_path.write_text(serialize_solution(inst, app_sol), encoding="utf-8")
    checked = call_main(["check", "--variant", "classical", str(op.path),
                         str(sol_path)])
    return {"inst": inst, "digest": digest, "validate": validate,
            "model": model, "da": (da_app, da_col),
            "gs_limits": {"applicant": gs_limits},
            "audits": audits, "check": checked}


def strict_build(op: Op, scratch: Path) -> dict:
    inst, digest = _parse_and_digest(op.path)
    model = build_scorelimits(inst, "strict")
    da_app, da_col = da(inst, "applicant"), da(inst, "college")
    audits = {"da_applicant": check(inst, da_app.to_solution(inst), "classical")}
    return {"inst": inst, "digest": digest, "model": model,
            "da": (da_app, da_col), "audits": audits}


def lower_fix(op: Op, scratch: Path) -> dict:
    inst, digest = _parse_and_digest(op.path)
    model = build_lower(inst)
    fixing = fix_iterate(inst)
    matching, closed, events = lower_quota_heuristic(inst)
    heuristic = check(inst, Solution(
        matching=dict(matching.assignment),
        open_colleges={j: j not in closed for j in range(inst.m)}), "lower")
    return {"inst": inst, "digest": digest, "model": model, "fixing": fixing,
            "closed": closed, "heuristic": heuristic}


def paired_build(op: Op, scratch: Path) -> dict:
    validate = call_main(["validate", str(op.path)])
    inst, digest = _parse_and_digest(op.path)
    model = build_paired(inst)
    return {"inst": inst, "digest": digest, "validate": validate, "model": model}


def gs_college(op: Op, scratch: Path) -> dict:
    inst, digest = _parse_and_digest(op.path)
    da_app, da_col = da(inst, "applicant"), da(inst, "college")
    audits = {}
    limits = {}
    for side in ("applicant", "college"):
        match, lim = gs_scorelimits(inst, side)
        limits[side] = lim
        audits[f"gs_{side}"] = check(inst, match.to_solution(
            inst, score_limits=lim.limits), "scorelimits_H")
    return {"inst": inst, "digest": digest, "da": (da_app, da_col),
            "audits": audits, "gs_limits": limits}


SCALE_PIPELINES = {"strict_certify": strict_certify, "strict_build": strict_build,
                   "lower_fix": lower_fix, "paired_build": paired_build,
                   "gs_college": gs_college}


def scale_gates(op: Op, res: dict) -> Outcome:
    inst = res["inst"]
    report: dict = {"digest": res["digest"]}
    printed = 0
    if "validate" in res:
        code, out, err = res["validate"]
        if code != 0:
            raise _fail(op, "validate", f"exit code {code}: {err.strip()}")
        report["validate"] = _report(out)
        printed += len(out.encode())
    if "model" in res:
        report["model"] = model_size(res["model"])
    for name, audit in res.get("audits", {}).items():
        if audit.verdict != "stable":
            raise _fail(op, "stable", f"{name} verdict {audit.verdict!r}")
        report[name] = audit.verdict
    if "da" in res:
        da_app, da_col = res["da"]
        if da_app.intake(inst) != da_col.intake(inst):
            raise _fail(op, "da_intakes", "applicant-side and college-side "
                        "DA intakes differ")
        report["intake"] = da_app.intake(inst)
    if "gs_limits" in res:
        report["gs_limits"] = {side: limits.by_ids(inst)
                               for side, limits in res["gs_limits"].items()}
    if "check" in res:
        code, out, err = res["check"]
        doc = _report(out) if code == 0 else {}
        if doc.get("verdict") != "stable":
            raise _fail(op, "stable", f"stableadmit check exit {code}, "
                        f"verdict {doc.get('verdict')!r}")
        report["check"] = doc
        printed += len(out.encode())
    if "fixing" in res:
        fixing = res["fixing"]
        if fixing.must_open & fixing.must_close:
            raise _fail(op, "fixing", "a college is fixed both open and closed")
        report["fixing"] = fixing.to_report(inst)
        report["heuristic_closed"] = sorted(res["closed"])
        report["heuristic_verdict"] = res["heuristic"].verdict
    return Outcome(True, report, printed)


class Runner:
    """Runs ops, times them, and applies the gates; one per pass, since the
    CLI gates pair the lower-quota rungs of a round."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.cli_gates = CliGates()

    def run(self, op: Op, tracer=None, gated: bool = True) -> tuple[float, Outcome]:
        """Time one op and classify its output; `gated` False skips the CLI
        gates, which re-derive outputs (the scale gates build the report)."""
        if "argv" in op.rung:
            fn, gate = partial(run_cli, op), partial(self.cli_gates, gated=gated)
        else:
            pipeline = SCALE_PIPELINES[op.rung["pipeline"]]
            fn, gate = partial(pipeline, op, self.scratch), scale_gates
        started = time.perf_counter()
        result = tracer.run_op(op.index, fn) if tracer else fn()
        elapsed = time.perf_counter() - started
        return elapsed, gate(op, result)
