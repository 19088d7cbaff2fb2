"""Deferred acceptance, cutoff procedures, and the closing heuristic."""

import dataclasses

import pytest

import stableadmit.algorithms
from conftest import load, matchings_of
from stableadmit import (AlgorithmError, GenConfig, ScoreLimits, Solution,
                         build_scorelimits, check, da, enumerate_feasible,
                         enumerate_stable, from_document, generate,
                         gs_scorelimits, induced_matching,
                         lower_quota_heuristic)


def rank_sum(inst, matching) -> int:
    return sum(matching.rank_of(inst, i) or 0
               for i in range(inst.n) if matching.assignment.get(i) is not None)


def test_da_unique_stable_matching_both_sides():
    inst = load("I1")
    for side in ("applicant", "college"):
        assert da(inst, side).assignment == {0: 0}
    inst = load("I2")
    for side in ("applicant", "college"):
        m = da(inst, side)
        assert m.assignment == {0: 0, 1: None}
        assert check(inst, m.to_solution(inst), "classical").verdict == "stable"


def test_da_opposed_instance_hits_both_extremes():
    inst = load("OPP")
    stable = enumerate_stable(inst, "classical")
    assert len(stable.solutions) == 2
    applicant = da(inst, "applicant")
    college = da(inst, "college")
    assert applicant.assignment == {0: 0, 1: 1}
    assert college.assignment == {0: 1, 1: 0}
    enumerated = matchings_of(stable.solutions)
    assert tuple(sorted(applicant.assignment.items())) in enumerated
    assert tuple(sorted(college.assignment.items())) in enumerated
    assert rank_sum(inst, applicant) < rank_sum(inst, college)


def test_da_preconditions():
    with pytest.raises(AlgorithmError, match="tied"):
        da(load("I3"))
    with pytest.raises(AlgorithmError, match="paired"):
        da(load("PAIR1"))
    with pytest.raises(AlgorithmError, match="quota sets"):
        da(load("NEST"))
    with pytest.raises(AlgorithmError, match="unknown side"):
        da(load("I2"), side="middle")


def test_da_exclude_removes_colleges():
    inst = load("TWO")
    m = da(inst, exclude=frozenset({0}))
    assert m.assignment[0] == 1 or m.assignment[1] == 1
    assert all(t != 0 for t in m.assignment.values() if t is not None)


def test_da_exclude_equals_removing_the_applications():
    for seed in range(150):
        inst = generate(GenConfig(n=6, m=4, seed=seed, list_range=(1, 4),
                                  max_score=8))
        excluded = frozenset(j for j in range(inst.m) if (seed >> j) & 1)
        removed = dataclasses.replace(inst, applications=tuple(
            app for app in inst.applications if app.target not in excluded))
        for side in ("applicant", "college"):
            assert (da(inst, side, exclude=excluded)
                    == da(removed, side)), (seed, side)


def test_induced_matching_follows_cutoffs():
    inst = load("I2")
    assert induced_matching(inst, [4]).assignment == {0: 0, 1: None}
    assert induced_matching(inst, [0]).assignment == {0: 0, 1: 0}
    assert induced_matching(inst, [8]).assignment == {0: None, 1: None}


def test_gs_scorelimits_frozen_values():
    inst = load("I1")
    _, limits = gs_scorelimits(inst, "applicant")
    assert limits.limits == {0: 0}
    inst = load("I2")
    matching, limits = gs_scorelimits(inst, "applicant")
    assert limits.limits == {0: 4}
    assert matching.assignment == da(inst, "applicant").assignment
    inst = load("I3")
    matching, limits = gs_scorelimits(inst, "applicant")
    assert limits.limits == {0: 6}
    assert matching.assignment == {0: None, 1: None}


def test_algorithm_answers_are_solutions_with_id_views():
    inst = load("OPP")
    matching, limits = gs_scorelimits(inst, "college")
    assert limits.by_ids(inst) == {"c1": 2, "c2": 2}
    assert list(ScoreLimits({1: 3, 0: 5}).by_ids(inst).items()) \
        == [("c1", 5), ("c2", 3)]
    assert isinstance(matching, Solution)
    assert matching.assignment is matching.matching == {0: 1, 1: 0}
    assert matching.intake(inst) == [1, 1]
    assert [matching.rank_of(inst, i) for i in range(inst.n)] == [2, 2]
    sol = matching.to_solution(inst, score_limits=limits.limits)
    assert type(sol) is Solution and sol.matching is not matching.matching
    assert check(inst, sol, "scorelimits_H").verdict == "stable"


def test_gs_scorelimits_outputs_are_h_stable():
    for name in ("I1", "I2", "I3", "TWO", "OPP"):
        inst = load(name)
        for side in ("applicant", "college"):
            matching, limits = gs_scorelimits(inst, side)
            sol = Solution(matching=dict(matching.assignment),
                           score_limits=dict(limits.limits))
            assert check(inst, sol, "scorelimits_H").verdict == "stable", \
                (name, side)


def _strict_model_limits(inst) -> list[tuple[int, ...]]:
    """Every cutoff vector the strict scorelimits model admits, in college
    order."""
    model = build_scorelimits(inst, "strict")
    limits = sorted(model.vars_by_role("limit"), key=lambda v: v.key)
    res = enumerate_feasible(model, [v.name for v in limits])
    assert not res.truncated
    return [tuple(p[v.name] for v in limits) for p in res.projections]


def test_gs_scorelimits_sides_bound_the_stable_vectors():
    """The applicant side gives the pointwise minimum of the H-stable cutoff
    vectors and the college side their pointwise maximum, on 120 markets
    with ties on odd seeds. On the tie-free ones, the strict model's own
    cutoffs share that minimum, but their maximum may exceed the college
    side, so [applicant, college] does not bound the strict model's t."""
    checked_multi = strict_above = 0
    for seed in range(120):
        cfg = GenConfig(n=5, m=3, seed=seed, list_range=(2, 3), max_score=5,
                        upper_range=(1, 2), tie_density=0.5 if seed % 2 else 0.0)
        inst = generate(cfg)
        stable = enumerate_stable(inst, "scorelimits_H")
        vectors = [tuple(sol.score_limits[j] for j in range(inst.m))
                   for sol in stable.solutions]
        assert vectors, seed  # the cutoff space always holds a stable vector
        lo = tuple(min(v[j] for v in vectors) for j in range(inst.m))
        hi = tuple(max(v[j] for v in vectors) for j in range(inst.m))
        _, applicant = gs_scorelimits(inst, "applicant")
        _, college = gs_scorelimits(inst, "college")
        got_lo = tuple(applicant.limits[j] for j in range(inst.m))
        got_hi = tuple(college.limits[j] for j in range(inst.m))
        assert got_lo == lo, seed       # pointwise minimum, simultaneously
        assert got_hi == hi, seed       # pointwise maximum, simultaneously
        assert all(a <= b for a, b in zip(got_lo, got_hi))
        if len(set(vectors)) > 1:
            checked_multi += 1
        if inst.has_ties:
            continue
        strict = _strict_model_limits(inst)
        assert tuple(min(v[j] for v in strict) for j in range(inst.m)) == got_lo, seed
        strict_hi = tuple(max(v[j] for v in strict) for j in range(inst.m))
        assert all(a >= b for a, b in zip(strict_hi, got_hi)), seed
        strict_above += strict_hi != got_hi
    assert checked_multi >= 10  # the sweep must exercise non-unique cases
    assert strict_above >= 1


def test_gs_scorelimits_matching_is_induced_by_its_cutoffs():
    for seed in range(300):
        inst = generate(GenConfig(n=8, m=3, seed=seed, list_range=(1, 3),
                                  max_score=9, upper_range=(1, 3),
                                  tie_density=0.5 if seed % 2 else 0.0))
        for side in ("applicant", "college"):
            matching, limits = gs_scorelimits(inst, side)
            vector = [limits.limits[j] for j in range(inst.m)]
            assert matching == induced_matching(inst, vector), (seed, side)


def test_gs_college_side_requeues_colleges_an_applicant_passes():
    # when an applicant moves up, every college it ranks between its old
    # and its new seat loses a taker and must try to lower its cutoff again
    inst = generate(GenConfig(n=6, m=7, seed=21, list_range=(1, 4),
                              max_score=14, upper_range=(1, 2)))
    _, limits = gs_scorelimits(inst, "college")
    assert limits.limits == {j: 0 for j in range(inst.m)}


def test_gs_scorelimits_needs_no_induced_matching_sweeps(monkeypatch):
    calls = []
    induced = stableadmit.algorithms.induced_matching
    monkeypatch.setattr(stableadmit.algorithms, "induced_matching",
                        lambda *args: calls.append(1) or induced(*args))
    for tie_density in (0.0, 0.5):
        inst = generate(GenConfig(n=12, m=3, seed=1, max_score=1000,
                                  tie_density=tie_density))
        for side in ("applicant", "college"):
            calls.clear()
            gs_scorelimits(inst, side)
            assert len(calls) <= 1, (tie_density, side)


def test_gs_scorelimits_preconditions():
    with pytest.raises(AlgorithmError, match="paired"):
        gs_scorelimits(load("PAIR0"))
    with pytest.raises(AlgorithmError, match="quota sets"):
        gs_scorelimits(load("SGL"))
    with pytest.raises(AlgorithmError, match="unknown side"):
        gs_scorelimits(load("I2"), side="both")


def test_heuristic_closes_the_only_college():
    inst = load("I4")
    matching, closed, trace = lower_quota_heuristic(inst)
    assert closed == {0}
    assert matching.assignment == {0: None}
    assert len(trace) == 1
    report = trace[0].to_report(inst)
    assert report["closed"] == "c1"
    assert report["admitted"] == 1
    assert report["lower"] == 2


def test_heuristic_no_trigger_equals_da():
    inst = load("I4B")
    matching, closed, trace = lower_quota_heuristic(inst)
    assert closed == set()
    assert trace == []
    assert matching.assignment == da(inst).assignment


def test_heuristic_unstable_on_pinned_fixture():
    inst = load("I8")
    matching, closed, _trace = lower_quota_heuristic(inst)
    sol = Solution(matching=dict(matching.assignment),
                   open_colleges={j: j not in closed for j in range(inst.m)})
    assert check(inst, sol, "lower").verdict == "unstable"
    stable = enumerate_stable(inst, "lower")
    assert stable.solutions  # a stable outcome exists, the heuristic missed it


def lone_applicants_market(*colleges):
    """Strict market of (upper, lower, applicants) colleges, each applicant
    listing only their own college, so every applicant is admitted."""
    doc = {"max_score": 9, "colleges": [], "applicants": []}
    for j, (upper, lower, count) in enumerate(colleges):
        doc["colleges"].append({"id": f"c{j}", "upper": upper, "lower": lower})
        for k in range(count):
            doc["applicants"].append({"id": f"a{j}_{k}", "list": [
                {"rank": 1, "college": f"c{j}", "score": k + 1}]})
    return from_document(doc)


@pytest.mark.parametrize("colleges,order", [
    pytest.param(((4, 4, 2), (2, 2, 1)), [1, 0], id="ratio-tie-fewer-admitted"),
    pytest.param(((2, 2, 1), (2, 2, 1)), [0, 1], id="full-tie-lower-index"),
    pytest.param(((2, 2, 1), (5, 5, 2)), [1, 0], id="smaller-ratio"),
])
def test_heuristic_closing_order(colleges, order):
    """Smallest admitted/lower first, then fewest admitted, then index."""
    inst = lone_applicants_market(*colleges)
    _matching, closed, trace = lower_quota_heuristic(inst)
    assert [e.college for e in trace] == order
    assert [(e.admitted, e.lower) for e in trace] == [
        (colleges[j][2], colleges[j][1]) for j in order]
    assert closed == set(order)


def test_heuristic_open_colleges_meet_lower_quotas():
    for seed in range(60):
        inst = generate(GenConfig(n=5, m=3, seed=seed, lower_range=(0, 2),
                                  max_score=6))
        matching, closed, _ = lower_quota_heuristic(inst)
        intake = matching.intake(inst)
        for j, c in enumerate(inst.colleges):
            if j in closed:
                assert intake[j] == 0
            else:
                assert c.lower <= intake[j] <= c.upper


def test_heuristic_closure_cutoffs_are_the_lowest_admitted_scores():
    """Each closure reports, per college still open, the lowest score it
    admits in the matching that triggered the closure (0 when empty)."""
    closures = 0
    for seed in range(200):
        inst = generate(GenConfig(n=3 + seed % 10, m=2 + seed % 4, seed=seed,
                                  list_range=(1, 3), max_score=20,
                                  upper_range=(1, 3), lower_range=(1, 3)))
        _, closed, trace = lower_quota_heuristic(inst)
        shut: set[int] = set()
        for event in trace:
            matching = da(inst, exclude=frozenset(shut))
            expected = {}
            for j in range(inst.m):
                if j in shut or j == event.college:
                    continue
                scores = [inst.score_of(i, j)
                          for i, t in matching.assignment.items() if t == j]
                expected[j] = min(scores) if scores else 0
            assert event.cutoffs == expected, (seed, event.college)
            shut.add(event.college)
        assert shut == closed
        closures += len(trace)
    assert closures > 100


def test_heuristic_preconditions():
    with pytest.raises(AlgorithmError, match="tied"):
        lower_quota_heuristic(load("I3"))
    with pytest.raises(AlgorithmError, match="paired"):
        lower_quota_heuristic(load("PAIR0"))


def test_applicant_da_weakly_dominates_college_da():
    for seed in range(150):
        inst = generate(GenConfig(n=5, m=3, seed=seed, max_score=8))
        a = da(inst, "applicant")
        c = da(inst, "college")
        for i in range(inst.n):
            ra = a.rank_of(inst, i)
            rc = c.rank_of(inst, i)
            if rc is None:
                continue  # college side left i out; applicant side is free
            assert ra is not None and ra <= rc, (seed, i)
