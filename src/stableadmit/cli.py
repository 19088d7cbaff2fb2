"""Command-line front end.

Subcommands: validate, generate, solve, check, compare, enumerate.
Reports are JSON documents with a fixed key order printed on standard
output; diagnostics go to standard error. Exit codes: 0 for a stable or
feasible outcome (check always exits 0 once it produces a verdict),
1 for usage or validation errors, a search cap hit before any outcome
was found, or a standard output closed before the report was written
(quietly), 2 for proven infeasibility, and 3 when the solver and the
stability oracle disagree about a result.

`main` builds its argument parser on first use and reuses it for every
later call in the process. It looks the subcommand up in one table of
_cmd_* functions, each taking (args, argv). _read reads every file;
_head opens every report but validate's, which puts its status between
command and instance_digest. Each builder names its model with the
variant label that solve and enumerate print; _build picks the builder
and the audit plan. Library calls (parse_instance, the builders, solve,
check, ...) are looked up on this module at call time, so a wrapper set
here sees each call.

Every successful solve is re-audited through the stability oracle; the
verdict printed in a report always comes from the oracle, never from
the solver alone. Model mixes without an oracle variant get only the
oracle's feasibility pass and the verdict "unverified". check passes a
score-limit solution file without a matching section to the oracle as
it is; the oracle reads the matching off the limits. Report sections and
enumerate's projection follow solution.SECTIONS; a limits-only outcome
has an empty matching in solve's report and none in enumerate's list.
The builder records what closes each model (LinearModel.closure), and
enumerate and --preprocess read it there. enumerate ignores objectives,
so it refuses the models that only their objective closes, as
--preprocess does. Where the rows close the cutoffs too, enumerate
projects on every outcome section. Elsewhere it projects on the
matching and open flags, and finishes each matching with its least
cutoffs in the same search; --cap counts those matchings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

# induced_matching stays imported because the traced benchmark patches it here
from .algorithms import AlgorithmError, induced_matching, lower_quota_heuristic
from .builders import (COMBINED_FEATURES, add_named_objective, build_classical,
                       build_combined, build_common, build_lower, build_paired,
                       build_paired_via_common, build_scorelimits,
                       decode_solution, extract_solution)
from .instance import (Instance, InstanceError, instance_digest,
                       parse_instance, serialize_instance)
from .generator import ConfigError, GenConfig, generate
from .linmodel import LinearModel, ModelError
from .oracle import ShapeError, SizeGuardError, check, quota_breaches
from .preprocess import apply_fixings, fix_iterate
from .solution import (DOCUMENT_KEYS, LIMIT_ROLES, OUTCOME_ROLES, Solution,
                       solution_from_document, solution_to_document)
from .solver import SolveResult, SolverError, enumerate_feasible, solve
# solve_lex stays a name here because the traced benchmark patches it
from .solver import solve as solve_lex

MODELS = ("classical", "scorelimits", "lower", "common", "paired", "combined")
OBJECTIVES = ("applicant-optimal", "applicant-pessimal",
              "min-score-limits", "lex-matched-then-limits")
CHECK_VARIANTS = {
    "classical": "classical",
    "weak-ties": "weak_ties",
    "scorelimits": "scorelimits_H",
    "lower": "lower",
    "common": "common",
    "paired": "paired",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="stableadmit",
                     description="Exact solvers for college admission "
                                 "problems with score limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("instance")

    p = sub.add_parser("generate", help="emit a random instance")
    p.add_argument("--n", type=int, required=True, help="applicants")
    p.add_argument("--m", type=int, required=True, help="colleges")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--list-min", type=int, default=1)
    p.add_argument("--list-max", type=int, default=3)
    p.add_argument("--max-score", type=int, default=10)
    p.add_argument("--tie-density", type=float, default=0.0)
    p.add_argument("--upper-min", type=int, default=1)
    p.add_argument("--upper-max", type=int, default=3)
    p.add_argument("--lower-min", type=int, default=0)
    p.add_argument("--lower-max", type=int, default=0)
    p.add_argument("--topology", choices=("none", "nested", "random"),
                   default="none")
    p.add_argument("--set-count", type=int, default=2)
    p.add_argument("--pair-prob", type=float, default=0.0)
    p.add_argument("--out", help="write to a file instead of stdout")

    for name in ("solve", "enumerate"):
        p = sub.add_parser(name, help=f"{name} a model over an instance")
        p.add_argument("instance")
        p.add_argument("--model", choices=MODELS, default="classical")
        p.add_argument("--mode", default=None,
                       help="classical: strict|ties; scorelimits: "
                            "strict|ties-min|ties-full; paired: "
                            "explicit|via-common; combined: comma-joined "
                            "features from ties,lower,common")
        p.add_argument("--node-cap", type=int, default=None)
        p.add_argument("--time-cap", type=float, default=None)
        p.add_argument("--group-policy",
                       choices=("enforce", "drop-with-lex-objective"),
                       default=None, help="combined models only")
        if name == "solve":
            p.add_argument("--objective", choices=OBJECTIVES, default=None)
            p.add_argument("--preprocess", action="store_true",
                           help="fix must-open/must-close colleges first")
        else:
            p.add_argument("--cap", type=int, default=None,
                           help="stop after this many solutions")

    p = sub.add_parser("check", help="audit a solution file against the oracle")
    p.add_argument("--variant", choices=sorted(CHECK_VARIANTS), required=True)
    p.add_argument("instance")
    p.add_argument("solution")

    p = sub.add_parser("compare",
                       help="closing heuristic vs the exact lower-quota model")
    p.add_argument("instance")
    p.add_argument("--node-cap", type=int, default=None)
    p.add_argument("--time-cap", type=float, default=None)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _build(inst: Instance, model_name: str, mode: str | None,
           group_policy: str | None) -> tuple[LinearModel, str]:
    """Returns (model, audit plan); model.name is the variant label."""
    if group_policy is not None and model_name != "combined":
        raise UsageError("--group-policy applies to --model combined only")
    if model_name == "classical":
        mode = mode or "strict"
        if mode not in ("strict", "ties"):
            raise UsageError(f"classical has no mode {mode!r}")
        ties = mode == "ties"
        return build_classical(inst, ties=ties), "weak_ties" if ties else "classical"
    if model_name == "scorelimits":
        mode = mode or "strict"
        if mode not in ("strict", "ties-min", "ties-full"):
            raise UsageError(f"scorelimits has no mode {mode!r}")
        return (build_scorelimits(inst, mode=mode.replace("-", "_")),
                "classical" if mode == "strict" else "scorelimits_H")
    if model_name in ("lower", "common"):
        if mode:
            raise UsageError(f"model {model_name} takes no --mode")
        build = build_lower if model_name == "lower" else build_common
        return build(inst), model_name
    if model_name == "paired":
        if (mode or "explicit") not in ("explicit", "via-common"):
            raise UsageError(f"paired has no mode {mode!r}")
        build = build_paired_via_common if mode == "via-common" else build_paired
        return build(inst), "paired"
    flags = {f: False for f in COMBINED_FEATURES}
    for token in mode.split(",") if mode else ():
        token = token.strip()
        if token not in COMBINED_FEATURES:
            raise UsageError(f"unknown combined feature {token!r}")
        flags[token] = True
    policy = (group_policy or "enforce").replace("-", "_")
    model = build_combined(inst, **flags, group_stability=policy)
    active = [f for f in COMBINED_FEATURES if flags[f]]
    if not active:
        return model, "classical"
    if len(active) == 1 and policy == "enforce":
        return model, {"ties": "scorelimits_H", "lower": "lower",
                       "common": "common"}[active[0]]
    return model, "unverified"


def _apply_objective(inst: Instance, model: LinearModel, model_name: str,
                     objective: str) -> None:
    if model_name == "combined":
        raise UsageError("combined objectives are fixed by the policy; "
                         "--objective is not accepted")
    if model.objectives:
        raise UsageError("scorelimits ties-min carries its own objective")
    if objective.startswith("applicant-") and model_name != "classical":
        raise UsageError(f"{objective} applies to --model classical only")
    if objective == "min-score-limits" and not any(
            v.role in LIMIT_ROLES for v in model.variables.values()):
        raise UsageError("min-score-limits needs a score-limit model")
    if objective == "lex-matched-then-limits" and model_name == "classical":
        raise UsageError("lex-matched-then-limits does not apply to classical")
    add_named_objective(inst, model, objective.replace("-", "_"))


def _emit(doc: dict) -> None:
    # flushed here, so that a closed stdout fails inside main
    print(json.dumps(doc, indent=2), flush=True)


def _outcome(inst: Instance, sol: Solution | None,
             sections: tuple[str, ...]) -> dict:
    """The named sections of the solution's document, {} where it has
    none; all None without a solution."""
    doc = solution_to_document(inst, sol) if sol else {}
    return {key: doc.get(key, {}) if sol else None for key in sections}


def _head(argv: list[str], inst: Instance) -> dict:
    """The keys every instance report opens with but validate's."""
    return {"command": "stableadmit " + " ".join(argv),
            "instance_digest": instance_digest(inst)}


def _cmd_validate(args, argv: list[str]) -> int:
    inst = parse_instance(_read(args.instance))
    _emit({
        "command": "stableadmit " + " ".join(argv),
        "status": "valid",
        "instance_digest": instance_digest(inst),
        "applicants": inst.n,
        "colleges": inst.m,
        "applications": len(inst.applications),
        "features": {
            "ties": inst.has_ties,
            "lower_quotas": inst.has_lower_quotas,
            "groups": bool(inst.lower_quota_groups),
            "common_quota_sets": bool(inst.common_quota_sets),
            "paired_applications": inst.has_pairs,
        },
    })
    return 0


def _cmd_generate(args, _argv: list[str]) -> int:
    cfg = GenConfig(n=args.n, m=args.m, seed=args.seed,
                    list_range=(args.list_min, args.list_max),
                    max_score=args.max_score, tie_density=args.tie_density,
                    upper_range=(args.upper_min, args.upper_max),
                    lower_range=(args.lower_min, args.lower_max),
                    topology=args.topology, set_count=args.set_count,
                    pair_prob=args.pair_prob)
    text = serialize_instance(generate(cfg))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text, end="", flush=True)
    return 0


def _solve_audited(inst: Instance, model: LinearModel, plan: str, args
                   ) -> tuple[SolveResult, Solution | None, str | None, list, int]:
    """Solve under the caps in args, extract and audit by plan: returns
    (result, solution, verdict, violations, exit code) and prints the
    error line of exit 1 (cap hit first) and exit 3 (audit failed)."""
    res = solve(model, node_cap=args.node_cap, time_cap=args.time_cap)
    if res.assignment is None:
        if res.status == "infeasible":
            return res, None, None, [], 2
        print("error: search hit its cap before finding a solution",
              file=sys.stderr)
        return res, None, None, [], 1
    sol = extract_solution(model, res.assignment)
    if plan == "unverified":
        verdict, violations = "unverified", quota_breaches(inst, sol)
    else:
        report = check(inst, sol, plan)
        verdict, violations = report.verdict, report.violations
    if not violations:
        return res, sol, verdict, violations, 0
    detail = "; ".join(v.detail for v in violations)
    print(f"error: solver result fails the oracle audit: {detail}",
          file=sys.stderr)
    return res, sol, verdict, violations, 3


def _cmd_solve(args, argv: list[str]) -> int:
    inst = parse_instance(_read(args.instance))
    model, plan = _build(inst, args.model, args.mode, args.group_policy)
    if args.objective:
        _apply_objective(inst, model, args.model, args.objective)
    preprocess_report = None
    if args.preprocess:
        if not model.vars_by_role("open"):
            raise UsageError("--preprocess needs a model with open flags "
                             "(lower quotas)")
        if model.closure == "objective":
            raise UsageError("--preprocess is only sound under the enforce policy")
        fixing = fix_iterate(inst)
        apply_fixings(model, fixing)
        preprocess_report = fixing.to_report(inst)
    res, sol, verdict, violations, code = _solve_audited(inst, model, plan, args)
    _emit({
        **_head(argv, inst),
        "variant": model.name,
        "status": res.status,
        **_outcome(inst, sol, DOCUMENT_KEYS),
        "objective_values": res.objective_values,
        "verdict": verdict,
        "violations": [v.to_report() for v in violations],
        "preprocess": preprocess_report,
        "timing": {"seconds": round(res.elapsed, 6)},
        "solver": {"status": res.status, "nodes": res.nodes},
    })
    return code


def _cmd_enumerate(args, argv: list[str]) -> int:
    inst = parse_instance(_read(args.instance))
    model, _plan = _build(inst, args.model, args.mode, args.group_policy)
    if model.closure == "objective":
        raise UsageError(f"enumerate cannot list {model.name}: its outcomes "
                         "are closed by an objective, which enumerate ignores")
    # where the rows close the cutoffs each cutoff vector is an outcome;
    # elsewhere each matching is listed once, with its least cutoffs
    least = () if model.closure == "cutoffs" else LIMIT_ROLES
    variables = model.variables.values()
    projection = [v.name for v in variables
                  if v.role in OUTCOME_ROLES and v.role not in least]
    started = time.monotonic()
    res = enumerate_feasible(model, projection, cap=args.cap,
                             node_cap=args.node_cap, time_cap=args.time_cap,
                             minimize=[v.name for v in variables
                                       if v.role in least])
    elapsed = time.monotonic() - started
    _emit({
        **_head(argv, inst),
        "variant": model.name,
        "count": len(res.projections),
        "truncated": res.truncated,
        "solutions": [solution_to_document(inst, decode_solution(model, p))
                      for p in res.projections],
        "timing": {"seconds": round(elapsed, 6)},
        "solver": {"nodes": res.nodes},
    })
    return 0


def _cmd_check(args, argv: list[str]) -> int:
    inst = parse_instance(_read(args.instance))
    variant = CHECK_VARIANTS[args.variant]
    try:
        doc = json.loads(_read(args.solution))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"{args.solution}: invalid JSON: {exc}") from None
    report = check(inst, solution_from_document(inst, doc), variant)
    _emit({
        **_head(argv, inst),
        "variant": variant,
        **report.to_report(),
    })
    return 0


def _cmd_compare(args, argv: list[str]) -> int:
    inst = parse_instance(_read(args.instance))
    matching, closed, events = lower_quota_heuristic(inst)
    heur_sol = matching.to_solution(
        inst, open_colleges={j: j not in closed for j in range(inst.m)})
    heur_report = check(inst, heur_sol, "lower")
    model, plan = _build(inst, "lower", None, None)
    res, sol, verdict, _violations, exit_code = _solve_audited(
        inst, model, plan, args)
    ip = {"status": res.status, **_outcome(inst, sol, ("matching", "open")),
          "verdict": verdict}
    _emit({
        **_head(argv, inst),
        "heuristic": {
            "matching": heur_sol.matching_by_ids(inst),
            "closed": sorted(inst.colleges[j].id for j in closed),
            "events": [e.to_report(inst) for e in events],
            "verdict": heur_report.verdict,
        },
        "ip": ip,
        "timing": {"seconds": round(res.elapsed, 6)},
        "solver": {"status": res.status, "nodes": res.nodes},
    })
    return exit_code


_COMMANDS = {"validate": _cmd_validate, "generate": _cmd_generate,
             "solve": _cmd_solve, "enumerate": _cmd_enumerate,
             "check": _cmd_check, "compare": _cmd_compare}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in ("cap", "node_cap", "time_cap"):
            value = getattr(args, flag, None)
            name = "--" + flag.replace("_", "-")
            if value is not None and value < 0:
                raise UsageError(f"{name} must not be negative")
            if value != value:  # only NaN differs from itself
                raise UsageError(f"{name} must be a number")
        return _COMMANDS[args.command](args, argv)
    except (UsageError, InstanceError, ConfigError, ModelError,
            AlgorithmError, ShapeError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: internal solver inconsistency: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout's reader left; devnull takes the interpreter's last flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
