"""Which package functions the traced run wraps, and the per-layer metrics
computed from the spans and counts they record.

Span names are ``<layer>.<part>``; the metric ``<layer>.<part>_s`` is the
summed self time of those spans. Counts are read from returned objects:
LinearModel sizes from the builders, SolveResult.nodes and
EnumerateResult from the solver, FixingResult from preprocess and
StabilityReport from the oracle.
"""

from __future__ import annotations

import stableadmit.algorithms
import stableadmit.builders
import stableadmit.cli
import stableadmit.preprocess
import stableadmit.solver

import pipelines

LAYERS = ("instance", "generator", "linmodel", "solver", "builders",
          "algorithms", "oracle", "preprocess", "solution", "cli", "bench")

BUILDERS = ("build_classical", "build_scorelimits", "build_lower",
            "build_common", "build_paired", "build_paired_via_common",
            "build_combined")


def _model_size(counts, model, args, kwargs) -> None:
    for key, value in pipelines.model_size(model).items():
        counts["builders." + key] += value


def _solve(counts, res, args, kwargs) -> None:
    counts["solver.nodes"] += res.nodes
    model = args[0]
    if res.status == "limit_reached" or (
            res.status == "feasible" and model.objectives):
        counts["solver.capped"] += 1


def _enumerate(counts, res, args, kwargs) -> None:
    counts["solver.nodes"] += res.nodes
    counts["solver.enumerate_nodes"] += res.nodes
    counts["solver.projections"] += len(res.projections)
    if res.truncated:
        counts["solver.capped"] += 1


def _fixing(counts, fixing, args, kwargs) -> None:
    counts["preprocess.fixed"] += len(fixing.must_open) + len(fixing.must_close)
    counts["preprocess.colleges"] += args[0].m


def _audit(counts, report, args, kwargs) -> None:
    counts["oracle.audits"] += 1
    counts["oracle.violations"] += len(report.violations)


def _verify(counts, violated, args, kwargs) -> None:
    counts["linmodel.verify_calls"] += 1


def _da_call(counts, matching, args, kwargs) -> None:
    counts["preprocess.da_calls"] += 1


def _gs_name(args, kwargs) -> str:
    side = args[1] if len(args) > 1 else kwargs.get("side", "applicant")
    return f"algorithms.gs_{side}"


def patch_table(tracer):
    """(module, attribute, wrapper factory) for every traced call site."""
    def span(name, count=None):
        return lambda fn: tracer.span(name, fn, count)

    cli = stableadmit.cli
    table = [
        (pipelines, "main", span("cli.self")),
        (pipelines, "parse_instance", span("instance.parse")),
        (pipelines, "instance_digest", span("instance.digest")),
        (pipelines, "da", span("algorithms.da")),
        (pipelines, "gs_scorelimits", span(_gs_name)),
        (pipelines, "lower_quota_heuristic", span("algorithms.heuristic")),
        (pipelines, "fix_iterate", span("preprocess.fix", _fixing)),
        (pipelines, "check", span("oracle.audit", _audit)),
        (cli, "parse_instance", span("instance.parse")),
        (cli, "instance_digest", span("instance.digest")),
        (cli, "solve", span("solver.search", _solve)),
        (cli, "solve_lex", span("solver.search", _solve)),
        (cli, "enumerate_feasible", span("solver.search", _enumerate)),
        (cli, "extract_solution", span("builders.extract")),
        (cli, "check", span("oracle.audit", _audit)),
        (cli, "fix_iterate", span("preprocess.fix", _fixing)),
        (cli, "apply_fixings", span("preprocess.fix")),
        (cli, "solution_from_document", span("solution.parse")),
        (cli, "lower_quota_heuristic", span("algorithms.heuristic")),
        (cli, "induced_matching",
         lambda fn: tracer.counter("algorithms.induced_calls", fn)),
        (stableadmit.preprocess, "da", span("algorithms.da", _da_call)),
        (stableadmit.solver, "assignment_satisfies",
         span("linmodel.verify", _verify)),
        (stableadmit.builders, "assignment_satisfies",
         span("linmodel.verify", _verify)),
        (stableadmit.algorithms, "induced_matching",
         lambda fn: tracer.counter("algorithms.induced_calls", fn)),
    ]
    for name in BUILDERS:
        table.append((cli, name, span("builders.build", _model_size)))
        if hasattr(pipelines, name):
            table.append((pipelines, name, span("builders.build", _model_size)))
    return table


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, gen_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit). The generator runs only
    at set-up, so its time comes from there."""
    self_s = tracer.self_times()
    c = tracer.counts

    def secs(span):
        return self_s.get(span, 0.0), "s"

    def count(key):
        return c[key], "count"

    return {
        "instance.parse_s": secs("instance.parse"),
        "instance.digest_s": secs("instance.digest"),
        "generator.gen_s": (gen_s, "s"),
        "linmodel.verify_s": secs("linmodel.verify"),
        "linmodel.verify_calls": count("linmodel.verify_calls"),
        "solver.search_s": secs("solver.search"),
        "solver.nodes": count("solver.nodes"),
        "solver.nodes_per_s": (_ratio(c["solver.nodes"],
                                      self_s.get("solver.search", 0.0)), "1/s"),
        "solver.capped": count("solver.capped"),
        "solver.projections": count("solver.projections"),
        "solver.nodes_per_projection": (_ratio(c["solver.enumerate_nodes"],
                                               c["solver.projections"]), "ratio"),
        "builders.build_s": secs("builders.build"),
        "builders.extract_s": secs("builders.extract"),
        "builders.rows": count("builders.rows"),
        "builders.nnz": count("builders.nnz"),
        "builders.vars": count("builders.vars"),
        "algorithms.da_s": secs("algorithms.da"),
        "algorithms.gs_applicant_s": secs("algorithms.gs_applicant"),
        "algorithms.gs_college_s": secs("algorithms.gs_college"),
        "algorithms.heuristic_s": secs("algorithms.heuristic"),
        "algorithms.induced_calls": count("algorithms.induced_calls"),
        "oracle.audit_s": secs("oracle.audit"),
        "oracle.audits": count("oracle.audits"),
        "oracle.violations": count("oracle.violations"),
        "preprocess.fix_s": secs("preprocess.fix"),
        "preprocess.da_calls": count("preprocess.da_calls"),
        "preprocess.fixed_ratio": (_ratio(c["preprocess.fixed"],
                                          c["preprocess.colleges"]), "ratio"),
        "solution.parse_s": secs("solution.parse"),
        "cli.self_s": secs("cli.self"),
        "cli.report_bytes": (c["cli.report_bytes"], "B"),
    }


def table(tracer, metrics: dict, op_seconds: float) -> list[str]:
    """One line per layer: self time, share of op time, and counts."""
    self_s = tracer.self_times()
    lines = [f"{'layer':<11} {'self_s':>10} {'share':>7}  counts"]
    for layer in LAYERS:
        if layer == "generator":
            seconds, share = metrics["generator.gen_s"][0], "set-up"
        else:
            seconds = sum(v for k, v in self_s.items()
                          if k.split(".")[0] == layer)
            share = f"{_ratio(seconds, op_seconds):.1%}"
        counts = ", ".join(f"{k.split('.', 1)[1]}={v:g}"
                           for k, (v, unit) in metrics.items()
                           if k.startswith(layer + ".") and unit != "s")
        lines.append(f"{layer:<11} {seconds:10.4f} {share:>7}  {counts}")
    return lines
