"""Acceptance gates: nine end-to-end equivalence and soundness checks.

Each test covers one numbered criterion and finishes by printing a
single pass line for it; run with `pytest -v` for per-criterion
outcomes. Generated markets are seed-rotated and filtered so the
exhaustive checker's size guards always admit them.
"""

import math
import random
import time

from conftest import load, matchings_of, x_projection
from stableadmit import (GenConfig, Solution, build_classical, build_common,
                         build_lower, build_paired, build_paired_via_common,
                         build_scorelimits, check, da, enumerate_feasible,
                         enumerate_stable, extract_solution, fix_iterate,
                         generate, gs_scorelimits, instance_digest,
                         lower_quota_heuristic, solve)
from test_solver import naive_points, random_model

CHECKER_APPLICATION_CAP = 16
PER_INSTANCE_BUDGET = 1.0  # seconds, criterion 1


def seeded_instances(count, make_config, accept=lambda inst: True):
    """First `count` generated markets the exhaustive checker can handle."""
    out = []
    step = 0
    while len(out) < count:
        inst = generate(make_config(step))
        step += 1
        if len(inst.applications) > CHECKER_APPLICATION_CAP:
            continue
        if accept(inst):
            out.append(inst)
    return out


def model_matchings(model):
    names = [v.name for v in model.vars_by_role("assign")]
    res = enumerate_feasible(model, names)
    assert not res.truncated
    return x_projection(model, res.projections)


def limit_vectors_of_model(model, m):
    limits = sorted(model.vars_by_role("limit"), key=lambda v: v.key)
    assert len(limits) == m
    res = enumerate_feasible(model, [v.name for v in limits])
    assert not res.truncated
    return {tuple(p[v.name] for v in limits) for p in res.projections}


def oracle_limit_vectors(inst):
    return {tuple(sol.score_limits[j] for j in range(inst.m))
            for sol in enumerate_stable(inst, "scorelimits_H").solutions}


def rank_sum(inst, assignment):
    total = 0
    for i, target in assignment.items():
        if target is None:
            continue
        total += next(app.rank for app in inst.by_applicant[i]
                      if app.target == target)
    return total


def test_criterion_1_strict_cutoff_model_equals_classical_stable_set():
    def config(s):
        n = 2 + s % 5
        # tie-free generation needs max_score + 1 >= n, ceiling 5 here
        return GenConfig(n=n, m=1 + s % 3, seed=1000 + s,
                         list_range=(1, 2 + s % 2),
                         max_score=max(n - 1, 2 + s % 4))

    instances = seeded_instances(300, config)
    worst = 0.0
    for inst in instances:
        started = time.perf_counter()
        got = model_matchings(build_scorelimits(inst, mode="strict"))
        want = matchings_of(enumerate_stable(inst, "classical").solutions)
        elapsed = time.perf_counter() - started
        assert got == want, instance_digest(inst)
        assert elapsed < PER_INSTANCE_BUDGET, instance_digest(inst)
        worst = max(worst, elapsed)
    print(f"\ncriterion 1: PASS  300 strict markets, cutoff-model matchings "
          f"= stable matchings, worst instance {worst:.3f}s")


def test_criterion_2_min_cutoff_optimum_matches_gs_and_pointwise_min():
    instances = seeded_instances(300, lambda s: GenConfig(
        n=2 + s % 4, m=1 + s % 3, seed=2000 + s, list_range=(1, 2),
        max_score=2 + s % 4, tie_density=0.7),
        accept=lambda inst: inst.has_ties)
    for inst in instances:
        model = build_scorelimits(inst, mode="ties_min")
        res = solve(model)
        assert res.status == "optimal", instance_digest(inst)
        sol = extract_solution(model, res.assignment)
        ip_vec = tuple(sol.score_limits[j] for j in range(inst.m))
        _, gs = gs_scorelimits(inst, side="applicant")
        gs_vec = tuple(gs.limits[j] for j in range(inst.m))
        vectors = oracle_limit_vectors(inst)
        assert vectors, instance_digest(inst)
        low = tuple(min(v[j] for v in vectors) for j in range(inst.m))
        assert ip_vec == gs_vec == low, instance_digest(inst)
    print("\ncriterion 2: PASS  300 tied markets, minimized cutoffs = "
          "proposal algorithm = pointwise minimum")


def test_criterion_3_full_cutoff_model_enumerates_every_stable_vector():
    instances = seeded_instances(200, lambda s: GenConfig(
        n=2 + s % 4, m=1 + s % 3, seed=3000 + s, list_range=(1, 2),
        max_score=1 + s % 3, tie_density=0.5))
    for inst in instances:
        got = limit_vectors_of_model(
            build_scorelimits(inst, mode="ties_full"), inst.m)
        assert got == oracle_limit_vectors(inst), instance_digest(inst)
    print("\ncriterion 3: PASS  200 markets, full cutoff model = exhaustive "
          "stable cutoff sets")


def test_criterion_4_lower_quota_model_equals_stable_set():
    def config(s):
        n = 2 + s % 5
        # odd steps force every lower quota positive, which makes a few
        # markets carry an empty stable set
        if s % 2:
            return GenConfig(n=n, m=2 + s % 2, seed=4000 + s,
                             list_range=(1, 3),
                             max_score=max(n - 1, 2 + s % 4),
                             lower_range=(1, 3), upper_range=(1, 4))
        return GenConfig(n=n, m=1 + s % 3, seed=4000 + s, list_range=(1, 2),
                         max_score=max(n - 1, 2 + s % 4), lower_range=(0, 2))

    instances = seeded_instances(300, config,
                                 accept=lambda inst: inst.has_lower_quotas)
    feasible = 0
    for inst in instances:
        got = model_matchings(build_lower(inst))
        want = matchings_of(enumerate_stable(inst, "lower").solutions)
        assert bool(got) == bool(want), instance_digest(inst)
        assert got == want, instance_digest(inst)
        feasible += bool(got)
    assert 0 < feasible < 300  # both directions of the equivalence appear

    assert solve(build_lower(load("I5"))).status == "infeasible"
    assert enumerate_stable(load("I5"), "lower").solutions == []

    i8 = load("I8")
    matching, closed, _ = lower_quota_heuristic(i8)
    heuristic = Solution(matching=dict(matching.assignment),
                         open_colleges={j: j not in closed
                                        for j in range(i8.m)})
    assert check(i8, heuristic, "lower").verdict == "unstable"
    res = solve(build_lower(i8))
    assert res.status == "feasible"
    model = build_lower(i8)
    sol = extract_solution(model, solve(model).assignment)
    assert check(i8, sol, "lower").verdict == "stable"
    print(f"\ncriterion 4: PASS  300 lower-quota markets ({feasible} "
          f"feasible), model = stable set; I5 and I8 pinned")


def test_criterion_5_common_quota_model_equals_stable_set():
    instances = seeded_instances(300, lambda s: GenConfig(
        n=2 + s % 4, m=2 + s % 2, seed=5000 + s, list_range=(1, 2),
        max_score=2 + s % 4, topology="nested" if s % 2 else "random",
        set_count=2),
        accept=lambda inst: bool(inst.common_quota_sets))
    for inst in instances:
        got = model_matchings(build_common(inst))
        want = matchings_of(enumerate_stable(inst, "common").solutions)
        assert got == want, instance_digest(inst)

    nested = seeded_instances(200, lambda s: GenConfig(
        n=2 + s % 4, m=2 + s % 2, seed=5500 + s, list_range=(1, 2),
        max_score=2 + s % 4, topology="nested", set_count=2),
        accept=lambda inst: bool(inst.common_quota_sets))
    for inst in nested:
        assert solve(build_common(inst)).status != "infeasible", instance_digest(inst)

    assert solve(build_common(load("I6"))).status == "infeasible"
    print("\ncriterion 5: PASS  300 common-quota markets match the stable "
          "set; 200 nested markets all feasible; I6 infeasible")


def test_criterion_6_paired_model_and_reduction_equal_stable_set():
    def config(s):
        n = 2 + s % 3
        return GenConfig(n=n, m=2 + s % 2, seed=6000 + s, list_range=(1, 2),
                         max_score=max(n - 1, 2 + s % 4), pair_prob=0.6)

    instances = seeded_instances(200, config,
                                 accept=lambda inst: inst.has_pairs)
    for inst in instances:
        explicit = model_matchings(build_paired(inst))
        reduced = model_matchings(build_paired_via_common(inst))
        want = matchings_of(enumerate_stable(inst, "paired").solutions)
        assert explicit == reduced == want, instance_digest(inst)
    assert solve(build_paired(load("I7"))).status == "infeasible"
    print("\ncriterion 6: PASS  200 paired markets, explicit model = "
          "set-quota reduction = stable set")


def test_criterion_7_proposal_extremes_and_intake_invariance():
    def config(s):
        n = 2 + s % 5
        return GenConfig(n=n, m=1 + s % 3, seed=7000 + s,
                         list_range=(1, 2 + s % 2),
                         max_score=max(n - 1, 3 + s % 3))

    instances = seeded_instances(500, config)
    for inst in instances:
        matchings = model_matchings(build_classical(inst))
        assert matchings, instance_digest(inst)
        sums = [rank_sum(inst, dict(matching)) for matching in matchings]
        applicant_side = da(inst, side="applicant")
        college_side = da(inst, side="college")
        assert min(sums) == rank_sum(inst, applicant_side.assignment)
        assert max(sums) == rank_sum(inst, college_side.assignment)
        matched_sets = {frozenset(i for i, t in matching if t is not None)
                        for matching in matchings}
        assert len(matched_sets) == 1, instance_digest(inst)
        intakes = set()
        for matching in matchings:
            tally = [0] * inst.m
            for _i, target in matching:
                if target is not None:
                    tally[target] += 1
            intakes.add(tuple(tally))
        assert len(intakes) == 1, instance_digest(inst)
    print("\ncriterion 7: PASS  500 markets, proposal sides bracket the "
          "rank sums and intakes are matching-independent")


def test_criterion_8_fixing_soundness_and_removal_monotonicity():
    def config(s):
        n = 2 + s % 5
        return GenConfig(n=n, m=1 + s % 3, seed=8000 + s, list_range=(1, 2),
                         max_score=max(n - 1, 2 + s % 4), lower_range=(0, 2))

    markets = seeded_instances(200, config,
                               accept=lambda inst: inst.has_lower_quotas)
    for inst in markets:
        fixing = fix_iterate(inst)
        for sol in enumerate_stable(inst, "lower").solutions:
            intake = sol.intake(inst)
            flags = sol.open_colleges or {
                j: not (intake[j] == 0 and inst.colleges[j].lower > 0)
                for j in range(inst.m)}
            assert all(flags[j] for j in fixing.must_open), instance_digest(inst)
            assert not any(flags[j] for j in fixing.must_close), instance_digest(inst)

    trials = 0
    step = 0
    while trials < 500:
        n = 2 + step % 5
        inst = generate(GenConfig(n=n, m=2 + step % 2, seed=8800 + step,
                                  list_range=(1, 2),
                                  max_score=max(n - 1, 3 + step % 3)))
        removed = step % inst.m
        step += 1
        base = da(inst, side="applicant")
        smaller = da(inst, side="applicant", exclude=frozenset({removed}))
        base_intake = base.intake(inst)
        small_intake = smaller.intake(inst)
        for j in range(inst.m):
            if j != removed:
                assert small_intake[j] >= base_intake[j], instance_digest(inst)
        for i in range(inst.n):
            before = base.rank_of(inst, i)
            after = smaller.rank_of(inst, i)
            worst = math.inf
            assert (after if after is not None else worst) \
                >= (before if before is not None else worst), instance_digest(inst)
        trials += 1
    print("\ncriterion 8: PASS  fixing rules kept every stable outcome on "
          "200 markets; 500 college-removal trials stayed monotone")


def test_criterion_9_solver_agrees_with_naive_full_search():
    rng = random.Random(424242)
    for _trial in range(100):
        model, names, domains = random_model(rng, max_bits=18)
        assert sum(len(d).bit_length() for d in domains) <= 24
        points = naive_points(model, names, domains)
        res = solve(model)
        assert (res.status == "infeasible") == (not points)
        full = enumerate_feasible(model, names)
        assert not full.truncated
        got = {tuple(p[nm] for nm in sorted(names)) for p in full.projections}
        want = {tuple(p[nm] for nm in sorted(names)) for p in points}
        assert got == want
        if not points:
            continue
        sense = rng.choice(("min", "max"))
        coeffs = {nm: rng.randint(-3, 3) for nm in names}
        model.add_objective(sense, coeffs)
        res = solve(model)
        values = [sum(c * p[nm] for nm, c in coeffs.items()) for p in points]
        best = min(values) if sense == "min" else max(values)
        assert res.status == "optimal"
        assert res.objective_values == [best]
    print("\ncriterion 9: PASS  100 random models agree with full-domain "
          "search, optima included")
