"""Branch-and-bound behavior on hand models plus randomized exactness."""

import itertools
import random
import sys
import tracemalloc

import pytest

from conftest import BUILDS, load, t_projection
from stableadmit import (GenConfig, LinearModel, ModelError,
                         assignment_satisfies, build_scorelimits,
                         enumerate_feasible, generate, solve)
from stableadmit.solver import _Engine


def binary_infeasible() -> LinearModel:
    model = LinearModel(name="impossible")
    model.add_var("x", 0, 1)
    model.add_constraint("force", "", {"x": 1}, ">=", 2)
    return model


def test_trivial_infeasible():
    res = solve(binary_infeasible())
    assert res.status == "infeasible"
    assert res.assignment is None
    assert res.objective_values == []


def test_feasibility_only_run():
    model = LinearModel()
    model.add_var("x", 0, 3)
    model.add_constraint("floor", "", {"x": 1}, ">=", 2)
    res = solve(model)
    assert res.status == "feasible"
    assert res.assignment["x"] in (2, 3)
    assert assignment_satisfies(model, res.assignment) == []


def test_optimum_with_objective():
    model = LinearModel()
    model.add_var("x", 0, 5)
    model.add_var("y", 0, 5)
    model.add_constraint("sum", "", {"x": 1, "y": 1}, ">=", 4)
    model.add_objective("min", {"x": 2, "y": 3})
    res = solve(model)
    assert res.status == "optimal"
    assert res.objective_values == [8]          # x=4, y=0
    assert res.assignment == {"x": 4, "y": 0}


def test_ties_min_optimum_matches_oracle_value():
    res = solve(build_scorelimits(load("I3"), mode="ties_min"))
    assert res.status == "optimal"
    assert res.objective_values == [6]
    assert res.assignment["t_0"] == 6


def test_lower_fixture_is_infeasible():
    from stableadmit import build_lower
    res = solve(build_lower(load("I5")))
    assert res.status == "infeasible"


def test_node_cap_reports_limit():
    res = solve(binary_infeasible(), node_cap=0)
    assert res.status == "limit_reached"
    assert res.nodes >= 1


def test_determinism_of_statistics():
    model = build_scorelimits(load("TWO"), mode="strict")
    first = solve(model)
    second = solve(model)
    assert first.nodes == second.nodes
    assert first.row_visits == second.row_visits > 0
    assert first.assignment == second.assignment
    assert first.status == second.status
    limits = [v.name for v in model.vars_by_role("limit")]
    listed = [enumerate_feasible(model, limits) for _ in range(2)]
    assert listed[0].row_visits == listed[1].row_visits > 0


def test_enumerate_projection_validation():
    model = binary_infeasible()
    # an empty projection asks only whether the model is feasible
    assert enumerate_feasible(model, []).projections == []
    feasible = LinearModel()
    feasible.add_var("x", 0, 1)
    assert enumerate_feasible(feasible, []).projections == [{}]
    with pytest.raises(ModelError, match="twice"):
        enumerate_feasible(model, ["x", "x"])
    with pytest.raises(ModelError, match="unknown projection"):
        enumerate_feasible(model, ["zz"])


def test_enumerate_infeasible_is_empty():
    res = enumerate_feasible(binary_infeasible(), ["x"])
    assert res.projections == []
    assert not res.truncated


def test_enumerate_strict_limits_on_i2():
    model = build_scorelimits(load("I2"), mode="strict")
    res = enumerate_feasible(model, [v.name for v in model.vars_by_role("limit")])
    assert t_projection(model, res.projections) == {(4,), (5,), (6,), (7,)}


def test_enumerate_ties_full_limits_on_i3():
    model = build_scorelimits(load("I3"), mode="ties_full")
    res = enumerate_feasible(model, [v.name for v in model.vars_by_role("limit")])
    assert t_projection(model, res.projections) == {(6,)}


def test_enumerate_cap_truncates():
    model = build_scorelimits(load("I2"), mode="strict")
    res = enumerate_feasible(model, [v.name for v in model.vars_by_role("limit")],
                             cap=2)
    assert res.truncated
    assert len(res.projections) == 2


def test_dive_deeper_than_the_recursion_limit():
    k = int(1.5 * sys.getrecursionlimit())
    model = LinearModel()
    for i in range(k):
        model.add_var(f"x{i}", 0, 1)
    model.add_constraint("slack", "", {f"x{i}": 1 for i in range(k)}, "<=", k)
    res = solve(model)
    assert res.status == "feasible"
    assert res.nodes == k + 1
    res = enumerate_feasible(model, ["x0", "x1"])
    assert not res.truncated
    assert len(res.projections) == 4


def test_wide_domain_values_are_made_lazily():
    # one choice point over a million values holds one pending copy
    model = LinearModel()
    model.add_var("y", 0, 10**6)
    model.add_var("x", 0, 1)
    model.add_objective("max", {"y": 1})
    tracemalloc.start()
    try:
        res = solve(model, node_cap=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "feasible" and res.nodes == 51
    assert res.assignment == {"y": 47, "x": 0}
    assert peak < 2**20


def test_cap_inside_a_completion_ends_the_listing():
    model = LinearModel()
    model.add_var("x", 0, 2)
    model.add_var("y", 0, 1)
    model.add_var("z", 0, 1)
    # nodes: root, x=0, its completion root, y=0, z=0, x=1, its completion
    # root; the eighth, y=0 below x=1, passes the cap
    res = enumerate_feasible(model, ["x"], node_cap=7)
    assert res.truncated
    assert res.projections == [{"x": 0}]
    assert res.nodes == 8


def least_completion_model() -> LinearModel:
    # y >= x + 1, and y >= 3 unless w = 1; w, the narrowest domain, is
    # branched first at 0, so each first completion of x has y = 3
    model = LinearModel()
    model.add_var("x", 0, 2)
    model.add_var("y", 0, 5)
    model.add_var("w", 0, 1)
    model.add_constraint("above_x", "", {"y": 1, "x": -1}, ">=", 1)
    model.add_constraint("unless_w", "", {"y": 1, "w": 2}, ">=", 3)
    return model


def test_enumerate_completes_each_projection_at_its_least():
    model = least_completion_model()
    res = enumerate_feasible(model, ["x"], minimize=["y"])
    assert not res.truncated
    assert res.projections == [{"x": 0, "y": 1}, {"x": 1, "y": 2},
                               {"x": 2, "y": 3}]
    assert [p["x"] for p in enumerate_feasible(model, ["x"]).projections] == [
        0, 1, 2]
    with pytest.raises(ModelError, match="twice"):
        enumerate_feasible(model, ["x"], minimize=["x"])
    with pytest.raises(ModelError, match="unknown projection"):
        enumerate_feasible(model, ["x"], minimize=["zz"])


def test_a_capped_completion_is_not_listed():
    """Every cap below the full node count truncates the listing, and
    each entry it keeps is an entry of the full listing, although some
    caps stop a completion at its first leaf, y = 3."""
    model = least_completion_model()
    full = enumerate_feasible(model, ["x"], minimize=["y"])
    for node_cap in range(full.nodes):
        res = enumerate_feasible(model, ["x"], node_cap=node_cap,
                                 minimize=["y"])
        assert res.truncated, node_cap
        assert all(p in full.projections for p in res.projections), node_cap
    assert enumerate_feasible(model, ["x"], node_cap=full.nodes,
                              minimize=["y"]) == full


def test_enumerate_order_is_sorted_by_name_then_value():
    model = LinearModel()
    model.add_var("b", 0, 1)
    model.add_var("a", 0, 1)
    res = enumerate_feasible(model, ["b", "a"])
    combos = [(p["a"], p["b"]) for p in res.projections]
    assert combos == [(0, 0), (0, 1), (1, 0), (1, 1)]


def random_model(rng: random.Random, max_bits: int = 12):
    """Random small model plus its exact domain grid."""
    model = LinearModel()
    domains = []
    bits = 0
    for k in range(rng.randint(1, 5)):
        lo = rng.randint(-2, 2)
        width = rng.randint(1, 4)
        size = width + 1
        if bits + size.bit_length() > max_bits:
            break
        bits += size.bit_length()
        model.add_var(f"v{k}", lo, lo + width)
        domains.append(range(lo, lo + width + 1))
    names = list(model.variables)
    for r in range(rng.randint(0, 5)):
        coeffs = {nm: rng.randint(-3, 3) for nm in names}
        model.add_constraint(f"r{r}", "", coeffs,
                             rng.choice(("<=", ">=", "==")), rng.randint(-5, 8))
    return model, names, domains


def naive_points(model, names, domains):
    out = []
    for combo in itertools.product(*domains):
        point = dict(zip(names, combo))
        if not assignment_satisfies(model, point):
            out.append(point)
    return out


def test_randomized_exactness_against_naive_search():
    rng = random.Random(2024)
    for _trial in range(60):
        model, names, domains = random_model(rng)
        points = naive_points(model, names, domains)
        res = solve(model)
        assert (res.status == "infeasible") == (not points)
        if points:
            assert res.assignment in points
        sense = rng.choice(("min", "max"))
        coeffs = {nm: rng.randint(-3, 3) for nm in names}
        model.objectives.clear()
        model.add_objective(sense, coeffs)
        res = solve(model)
        if not points:
            assert res.status == "infeasible"
            continue
        values = [sum(c * p[nm] for nm, c in coeffs.items()) for p in points]
        want = min(values) if sense == "min" else max(values)
        assert res.status == "optimal"
        assert res.objective_values == [want]
        proj = names[: rng.randint(1, len(names))]
        model.objectives.clear()
        got = enumerate_feasible(model, proj)
        expect = sorted({tuple(p[nm] for nm in sorted(proj)) for p in points})
        assert [tuple(p[nm] for nm in sorted(proj)) for p in got.projections] \
            == expect


def test_cached_activities_match_a_rescan(monkeypatch):
    """Around every propagation the cached row activities equal a
    from-scratch recompute over the node's bounds: after a branch (on
    entry) and after the bounds moved (on return, fixpoint or not)."""
    outcomes = []
    propagate = _Engine.propagate

    def checked(self, lo, hi, act, seed):
        assert act == self.activities(lo, hi)
        ok = propagate(self, lo, hi, act, seed)
        assert act == self.activities(lo, hi)
        assert not any(self.queued)
        outcomes.append(ok)
        return ok

    monkeypatch.setattr(_Engine, "propagate", checked)
    rng = random.Random(99)
    for _trial in range(80):
        model, names, _ = random_model(rng)
        model.add_constraint("empty", "", {}, "<=", rng.randint(-1, 1))
        solve(model)
        model.add_objective(rng.choice(("min", "max")),
                            {nm: rng.randint(-3, 3) for nm in names})
        solve(model)
        enumerate_feasible(model, names[:1])
    configs = [dict(), dict(tie_density=0.5), dict(lower_range=(1, 2)),
               dict(topology="nested"), dict(pair_prob=0.3)]
    for seed in range(4):
        for extra in configs:
            inst = generate(GenConfig(n=5, m=3, seed=seed, max_score=8,
                                      list_range=(1, 3), **extra))
            for build in BUILDS.values():
                try:
                    model = build(inst)
                except ModelError:
                    continue
                solve(model, node_cap=300)
                assign = [v.name for v in model.vars_by_role("assign")]
                enumerate_feasible(model, assign, node_cap=300)
    assert True in outcomes and False in outcomes
