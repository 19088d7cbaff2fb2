"""Stability checking and exhaustive enumeration across all variants."""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import grouped_i4b, load, matchings_of
from stableadmit import (College, GenConfig, Instance, LowerGroup, ShapeError,
                         SizeGuardError, Solution, check, da, empty_matching,
                         enumerate_stable, generate, gs_scorelimits,
                         lower_quota_heuristic)


def msol(inst, **assign) -> Solution:
    matching = empty_matching(inst)
    for aid, cid in assign.items():
        i = inst.applicant_index(aid)
        matching[i] = None if cid is None else inst.college_index(cid)
    return Solution(matching=matching)


def test_classical_verdicts_on_i2():
    inst = load("I2")
    good = check(inst, msol(inst, a1="c1"), "classical")
    assert good.verdict == "stable"
    assert good.violations == []
    bad = check(inst, msol(inst, a2="c1"), "classical")
    assert bad.verdict == "unstable"
    assert [v.kind for v in bad.violations] == ["blocking_pair"]
    assert bad.violations[0].subject == {"applicant": "a1", "college": "c1"}


def test_quota_breach_is_infeasible():
    inst = load("I2")
    sol = msol(inst, a1="c1", a2="c1")
    report = check(inst, sol, "classical")
    assert report.verdict == "infeasible"
    assert any(v.kind == "quota_breach" for v in report.violations)


def test_free_seat_blocking():
    inst = load("I1")
    report = check(inst, msol(inst, a1=None), "classical")
    assert report.verdict == "unstable"
    assert "free seat" in report.violations[0].detail


def test_weak_ties_accepts_either_tied_winner():
    inst = load("I3")
    for winner in ("a1", "a2"):
        assert check(inst, msol(inst, **{winner: "c1"}), "weak_ties").verdict \
            == "stable"
    assert check(inst, msol(inst), "weak_ties").verdict == "unstable"


def test_classical_refuses_ties():
    with pytest.raises(ShapeError, match="strict"):
        check(load("I3"), msol(load("I3")), "classical")


def test_strict_instances_agree_between_classical_and_weak():
    for seed in range(40):
        inst = generate(GenConfig(n=4, m=2, seed=seed, max_score=6))
        a = matchings_of(enumerate_stable(inst, "classical").solutions)
        b = matchings_of(enumerate_stable(inst, "weak_ties").solutions)
        assert a == b, seed


def test_scorelimits_feasibility_shapes():
    inst = load("I2")
    with pytest.raises(ShapeError, match="missing score limit"):
        check(inst, Solution(matching={}), "scorelimits_H")
    with pytest.raises(ShapeError, match="not the one the score limits"):
        check(inst, Solution(matching={0: None, 1: None}, score_limits={0: 0}),
              "scorelimits_H")


def test_scorelimits_verdicts():
    inst = load("I2")
    ok = check(inst, Solution(matching={}, score_limits={0: 4}), "scorelimits_H")
    assert ok.verdict == "stable"
    high = check(inst, Solution(matching={}, score_limits={0: 7}), "scorelimits_H")
    assert high.verdict == "unstable"
    assert high.violations[0].kind == "reducible_score_limit"
    inst3 = load("I3")
    seven = check(inst3, Solution(matching={}, score_limits={0: 7}),
                  "scorelimits_H")
    assert seven.verdict == "unstable"
    assert seven.violations[0].kind == "unfilled_positive_limit"
    # a positive cutoff at an unfilled college is its own violation kind
    wide = Instance(
        max_score=5,
        applicants=("a1",),
        colleges=(College("c1", 2),),
        applications=load("I1").applications,
    )
    wide.validate()
    report = check(wide, Solution(matching={}, score_limits={0: 5}),
                   "scorelimits_H")
    assert report.verdict == "unstable"
    assert report.violations[0].kind == "unfilled_positive_limit"


def test_scorelimits_enumeration_frozen_sets():
    assert _limit_vectors("I3") == {(6,)}
    assert _limit_vectors("I2") == {(4,)}
    assert _limit_vectors("TWO") == {(7, 6)}


def _limit_vectors(name):
    inst = load(name)
    res = enumerate_stable(inst, "scorelimits_H")
    assert not res.truncated
    return {tuple(sol.score_limits[j] for j in range(inst.m))
            for sol in res.solutions}


def test_lower_verdicts():
    inst = load("I4")
    closed = Solution(matching={0: None}, open_colleges={0: False})
    assert check(inst, closed, "lower").verdict == "stable"
    open_short = Solution(matching={0: 0}, open_colleges={0: True})
    report = check(inst, open_short, "lower")
    assert report.verdict == "infeasible"  # intake 1 under lower quota 2
    inst_b = load("I4B")
    both = Solution(matching={0: 0, 1: 0}, open_colleges={0: True})
    assert check(inst_b, both, "lower").verdict == "stable"
    closed_b = Solution(matching={0: None, 1: None}, open_colleges={0: False})
    report = check(inst_b, closed_b, "lower")
    assert report.verdict == "unstable"
    assert report.violations[0].kind == "blocking_group"


def test_lower_flags_derived_when_absent():
    inst = load("I4B")
    assert check(inst, Solution(matching={0: 0, 1: 0}), "lower").verdict \
        == "stable"


def test_lower_fixture_i5_has_no_stable_outcome():
    res = enumerate_stable(load("I5"), "lower")
    assert res.solutions == []
    assert not res.truncated


def test_lower_grouped_needs_explicit_flags():
    base = load("I4B")
    grouped = Instance(
        max_score=base.max_score,
        applicants=base.applicants,
        colleges=base.colleges,
        applications=base.applications,
        lower_quota_groups=(LowerGroup("g1", (0,), 2),),
    )
    grouped.validate()
    with pytest.raises(ShapeError, match="explicit open flags"):
        check(grouped, Solution(matching={0: 0, 1: 0}), "lower")
    sol = Solution(matching={0: 0, 1: 0}, open_colleges={0: True})
    assert check(grouped, sol, "lower").verdict == "stable"


def test_common_verdicts_on_nested_fixture():
    inst = load("NEST")
    # joint quota 1 over {c1, c2}: only the better applicant at c1 survives
    assert check(inst, msol(inst, a1="c1"), "common").verdict == "stable"
    over = check(inst, msol(inst, a1="c1", a2="c2"), "common")
    assert over.verdict == "infeasible"
    assert any(v.kind == "common_quota_breach" for v in over.violations)
    weak = check(inst, msol(inst, a2="c1"), "common")
    assert weak.verdict == "unstable"


def test_common_enumeration_matches_fixture_expectations():
    nest = enumerate_stable(load("NEST"), "common")
    assert matchings_of(nest.solutions) == {((0, 0), (1, None))}
    empty = enumerate_stable(load("I6"), "common")
    assert empty.solutions == []
    sgl = enumerate_stable(load("SGL"), "common")
    assert matchings_of(sgl.solutions) == {((0, 0), (1, None))}


def test_paired_verdicts():
    inst = load("PAIR0")
    pair = (inst.college_index("c1"), inst.college_index("c2"))
    assert check(inst, Solution(matching={0: pair}), "paired").verdict == "stable"
    report = check(inst, Solution(matching={0: None}), "paired")
    assert report.verdict == "unstable"
    assert report.violations[0].kind == "paired_block"
    inst1 = load("PAIR1")
    good = Solution(matching={0: None, 1: inst1.college_index("c1")})
    assert check(inst1, good, "paired").verdict == "stable"


def test_paired_enumeration_frozen_sets():
    res = enumerate_stable(load("PAIR1"), "paired")
    assert matchings_of(res.solutions) == {((0, None), (1, 0))}
    res = enumerate_stable(load("I7"), "paired")
    assert res.solutions == []
    assert not res.truncated


def test_enumerated_solutions_recheck_stable():
    cases = [("I2", "classical"), ("I3", "weak_ties"), ("TWO", "classical"),
             ("I4B", "lower"), ("NEST", "common"), ("PAIRMIX", "paired")]
    for name, variant in cases:
        inst = load(name)
        for sol in enumerate_stable(inst, variant).solutions:
            assert check(inst, sol, variant).verdict == "stable", (name, variant)


def test_nested_instances_always_have_a_stable_outcome():
    for seed in range(60):
        inst = generate(GenConfig(n=4, m=3, seed=seed, max_score=6,
                                  topology="nested", set_count=2))
        res = enumerate_stable(inst, "common")
        assert res.solutions, seed


def test_variant_shape_mismatches():
    with pytest.raises(ShapeError, match="unknown variant"):
        check(load("I1"), msol(load("I1")), "grand")
    with pytest.raises(ShapeError, match="simple applications"):
        check(load("PAIR0"), Solution(matching={0: None}), "classical")
    with pytest.raises(ShapeError, match="outside their list"):
        check(load("I2"), Solution(matching={0: 1}), "classical")


def test_enumeration_guards():
    big = generate(GenConfig(n=9, m=3, seed=1, list_range=(2, 3), max_score=9))
    assert len(big.applications) > 16
    with pytest.raises(SizeGuardError, match="guard"):
        enumerate_stable(big, "classical")
    wide = generate(GenConfig(n=3, m=4, seed=2, list_range=(1, 2),
                              max_score=40))
    with pytest.raises(SizeGuardError, match="guard"):
        enumerate_stable(wide, "scorelimits_H")


def test_enumeration_cap_truncates():
    res = enumerate_stable(load("I3"), "weak_ties", cap=1)
    assert res.truncated
    assert len(res.solutions) == 1


@pytest.mark.parametrize("make,variant", [
    pytest.param(lambda: load("OPP"), "scorelimits_H", id="scorelimits_H"),
    pytest.param(grouped_i4b, "lower", id="lower-grouped"),
])
def test_enumeration_cap_keeps_the_first_solutions(make, variant):
    inst = make()
    full = enumerate_stable(inst, variant)
    assert not full.truncated and len(full.solutions) >= 2
    for k in range(len(full.solutions)):
        res = enumerate_stable(inst, variant, cap=k)
        assert res.truncated
        assert res.solutions == full.solutions[:k]
    assert not enumerate_stable(inst, variant, cap=len(full.solutions)).truncated


# Report pins: seeded markets under every matching-based variant, each
# checked against DA/GS outcomes and perturbed copies of them, so that
# unstable and infeasible reports with violation details are covered.
PIN_MARKETS = {
    "classical": dict(n=10, m=3, list_range=(1, 3), max_score=20,
                      upper_range=(1, 4)),
    "weak_ties": dict(n=10, m=3, list_range=(1, 3), max_score=6,
                      tie_density=0.5, upper_range=(1, 4)),
    "lower": dict(n=10, m=3, list_range=(1, 3), max_score=20,
                  upper_range=(1, 4), lower_range=(0, 3)),
    "common": dict(n=10, m=4, list_range=(1, 3), max_score=20,
                   upper_range=(1, 4), topology="random", set_count=2),
    "paired": dict(n=10, m=3, list_range=(1, 3), max_score=20,
                   upper_range=(1, 4), pair_prob=0.3),
}
PIN_SEEDS = range(12)


def _greedy(inst, order):
    """First application on each list that still fits every college and
    quota-set capacity."""
    matching = empty_matching(inst)
    intake = [0] * inst.m

    def fits(j):
        return intake[j] < inst.colleges[j].upper and all(
            sum(intake[k] for k in qs.members) < qs.upper
            for qs in inst.common_quota_sets if j in qs.members)

    for i in order:
        for app in inst.by_applicant[i]:
            if all(fits(j) for j in app.colleges()):
                for j in app.colleges():
                    intake[j] += 1
                matching[i] = app.target
                break
    return matching


def _base_solutions(variant, inst):
    if variant == "classical":
        return {side: da(inst, side).to_solution(inst)
                for side in ("applicant", "college")}
    if variant == "weak_ties":
        return {side: gs_scorelimits(inst, side)[0].to_solution(inst)
                for side in ("applicant", "college")}
    if variant == "lower":
        matching, closed, _ = lower_quota_heuristic(inst)
        flags = {j: j not in closed for j in range(inst.m)}
        return {"heuristic": matching.to_solution(inst, open_colleges=flags),
                "da": da(inst).to_solution(inst)}
    if variant == "common":
        plain = replace(inst, common_quota_sets=())
        return {"da": da(plain).to_solution(inst),
                "greedy": Solution(matching=_greedy(inst, range(inst.n)))}
    return {"greedy": Solution(matching=_greedy(inst, range(inst.n))),
            "greedy_reversed":
                Solution(matching=_greedy(inst, reversed(range(inst.n))))}


def _perturbations(inst, sol, rng):
    """A dropped admission, a seat swapped for another entry on the same
    list, an over-quota college and a shuffled matching order."""
    def with_matching(matching):
        return replace(sol, matching=matching)

    out = {"as_is": sol}
    matched = [i for i, t in sol.matching.items() if t is not None]
    if matched:
        dropped = dict(sol.matching)
        dropped[rng.choice(matched)] = None
        out["drop"] = with_matching(dropped)
    movable = [i for i in range(inst.n) if len(inst.by_applicant[i]) > 1]
    if movable:
        i = rng.choice(movable)
        swapped = dict(sol.matching)
        swapped[i] = rng.choice([a.target for a in inst.by_applicant[i]
                                 if a.target != sol.matching[i]])
        out["swap"] = with_matching(swapped)
    j = rng.randrange(inst.m)
    overfilled = dict(sol.matching)
    for app in inst.seats_at[j]:
        overfilled[app.applicant] = app.target
    out["overfill"] = with_matching(overfilled)
    keys = list(sol.matching)
    rng.shuffle(keys)
    out["shuffle"] = with_matching({i: sol.matching[i] for i in keys})
    return out


def report_digests() -> dict[str, str]:
    """sha256 of every pinned triple's report JSON, by triple label."""
    digests = {}
    for variant, params in PIN_MARKETS.items():
        for seed in PIN_SEEDS:
            inst = generate(GenConfig(seed=seed, **params))
            rng = random.Random(seed)
            for base, sol in _base_solutions(variant, inst).items():
                for how, trial in _perturbations(inst, sol, rng).items():
                    report = check(inst, trial, variant).to_report()
                    body = json.dumps(report, sort_keys=True)
                    digests[f"{variant} seed={seed} {base} {how}"] = \
                        hashlib.sha256(body.encode()).hexdigest()
    return digests


def test_oracle_reports_are_pinned():
    """Every report matches the digest captured once, before the oracle
    built its per-college admitted lists in one pass over the matching,
    with

      PYTHONPATH=src:tests python -c "import json, test_oracle as t; \\
        print(json.dumps(t.report_digests(), indent=1, sort_keys=True))" \\
        > tests/oracle_pins.json

    Violation details name the first admit in matching order, so a
    reordered admitted list changes some digests."""
    pins = json.loads((Path(__file__).parent / "oracle_pins.json")
                      .read_text(encoding="utf-8"))
    assert report_digests() == pins
