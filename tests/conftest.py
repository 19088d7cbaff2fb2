"""Shared fixture loading and cross-checking helpers.

Fixture instances live as JSON files under tests/fixtures. The searched
regression fixtures were pinned by exhaustive oracle scans:

  I5       lower quotas, stable set empty
  I6       non-nested common quotas, stable set empty
  I7       paired applications, stable set empty
  I8       closing heuristic output unstable while stable outcomes exist
  ROUNDS2  college fixing needs a second round (opened set grows)
"""

from __future__ import annotations

import itertools
from functools import partial
from pathlib import Path

from stableadmit import (Instance, LowerGroup, build_classical,
                         build_combined, build_common, build_lower,
                         build_paired, build_paired_via_common,
                         build_scorelimits, parse_instance)
from stableadmit.builders import add_named_objective

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def load(name: str) -> Instance:
    return parse_instance(fixture_text(name))


def grouped_i4b() -> Instance:
    """I4B with its only college inside a declared lower-quota group."""
    base = load("I4B")
    grouped = Instance(
        max_score=base.max_score,
        applicants=base.applicants,
        colleges=base.colleges,
        applications=base.applications,
        lower_quota_groups=(LowerGroup("g1", (0,), 2),),
    )
    grouped.validate()
    return grouped


def matchings_of(solutions) -> set[tuple]:
    """Canonical hashable form of each oracle solution's matching."""
    out = set()
    for sol in solutions:
        out.add(tuple(sorted(sol.matching.items())))
    return out


def x_projection(model, projections) -> set[tuple]:
    """Matchings encoded by assignment variables of solver projections."""
    assign = model.vars_by_role("assign")
    out = set()
    for proj in projections:
        matching = {}
        for var in assign:
            i, target = var.key
            matching.setdefault(i, None)
            if proj[var.name] == 1:
                matching[i] = target
        out.add(tuple(sorted(matching.items())))
    return out


def t_projection(model, projections) -> set[tuple]:
    """Score-limit vectors of solver projections, in college order."""
    limits = sorted(model.vars_by_role("limit"), key=lambda v: v.key)
    return {tuple(proj[v.name] for v in limits) for proj in projections}


def classical_with(objective: str):
    """build_classical plus a named objective, added the way the CLI's
    --objective adds it."""
    def build(inst: Instance):
        model = build_classical(inst)
        add_named_objective(inst, model, objective)
        return model
    return build


# Every builder and mode, keyed by a label. test_builders.py pins the
# formulation each one emits on every fixture (builder_pins.json) and the
# search that solves it (search_pins.json); pins.py lists every pin file,
# the test function that computes it and the command that recaptures it.
# No test rewrites a pin file.
BUILDS = {
    "classical": build_classical,
    "classical:ties": partial(build_classical, ties=True),
    "classical:applicant_optimal": classical_with("applicant_optimal"),
    "classical:applicant_pessimal": classical_with("applicant_pessimal"),
    **{f"scorelimits:{mode}": partial(build_scorelimits, mode=mode)
       for mode in ("strict", "ties_min", "ties_full")},
    "lower": build_lower,
    "common": build_common,
    "paired": build_paired,
    "paired_via_common": build_paired_via_common,
    **{f"combined[{','.join(feats) or 'none'};{policy}]":
       partial(build_combined, group_stability=policy,
               **dict.fromkeys(feats, True))
       for r in range(4)
       for feats in itertools.combinations(("ties", "lower", "common"), r)
       for policy in ("enforce", "drop_with_lex_objective")},
}
