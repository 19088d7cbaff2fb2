"""Seeded instance generation: determinism, validity, knob coverage."""

import pytest

from stableadmit import (ConfigError, GenConfig, generate, is_nested,
                         serialize_instance)


def test_degenerate_no_applicants():
    inst = generate(GenConfig(n=0, m=1, seed=1))
    assert inst.n == 0
    assert inst.applications == ()


def test_same_seed_same_bytes():
    cfg = GenConfig(n=5, m=3, seed=42, lower_range=(0, 2),
                    topology="nested", pair_prob=0.2, tie_density=0.3)
    assert serialize_instance(generate(cfg)) == serialize_instance(generate(cfg))


def test_different_seeds_differ():
    base = dict(n=5, m=3, seed=0)
    a = serialize_instance(generate(GenConfig(**base)))
    b = serialize_instance(generate(GenConfig(**{**base, "seed": 1})))
    assert a != b


def test_tie_free_scores_are_distinct_per_college():
    inst = generate(GenConfig(n=6, m=3, seed=7, max_score=10, tie_density=0.0))
    for j in range(inst.m):
        scores = [inst.score_of(i, j) for i in inst.applicants_at[j]]
        assert len(scores) == len(set(scores))


def test_tie_density_eventually_produces_ties():
    assert any(generate(GenConfig(n=6, m=2, seed=s, tie_density=0.9)).has_ties
               for s in range(10))


def test_pair_prob_eventually_produces_pairs():
    assert any(generate(GenConfig(n=4, m=3, seed=s, pair_prob=0.8)).has_pairs
               for s in range(10))


def test_lower_range_produces_lower_quotas():
    assert any(generate(GenConfig(n=4, m=3, seed=s,
                                  lower_range=(1, 2))).has_lower_quotas
               for s in range(5))


def test_nested_topology_is_nested():
    for seed in range(30):
        inst = generate(GenConfig(n=4, m=4, seed=seed, topology="nested",
                                  set_count=3))
        assert is_nested(inst)


def test_bounds_respected():
    cfg = GenConfig(n=5, m=3, seed=3, list_range=(1, 2), max_score=6,
                    upper_range=(2, 4), lower_range=(0, 1))
    inst = generate(cfg)
    assert inst.n == 5 and inst.m == 3
    for c in inst.colleges:
        assert 2 <= c.upper <= 4
        assert 0 <= c.lower <= min(1, c.upper)
    for i in range(inst.n):
        assert 1 <= len(inst.by_applicant[i]) <= 2
    for app in inst.applications:
        for j in app.colleges():
            assert 0 <= app.score_at(j) <= 6


def test_fuzz_validation_over_many_seeds():
    for seed in range(1000):
        knobs = seed % 4
        cfg = GenConfig(
            n=3 + seed % 4, m=2 + seed % 3, seed=seed,
            tie_density=0.4 if knobs == 1 else 0.0,
            lower_range=(0, 2) if knobs == 2 else (0, 0),
            topology="nested" if knobs == 3 else "none",
            pair_prob=0.3 if knobs == 0 else 0.0)
        generate(cfg).validate()


@pytest.mark.parametrize("kwargs, match", [
    (dict(n=-1, m=1, seed=0), "n and m"),
    (dict(n=1, m=1, seed=0, max_score=-2), "max_score"),
    (dict(n=1, m=1, seed=0, list_range=(3, 1)), "list_range"),
    (dict(n=1, m=1, seed=0, upper_range=(0, 2)), "upper_range"),
    (dict(n=1, m=1, seed=0, tie_density=1.5), "tie_density"),
    (dict(n=1, m=1, seed=0, topology="mesh"), "topology"),
    (dict(n=1, m=1, seed=0, topology="nested"), "at least 2"),
    (dict(n=1, m=1, seed=0, pair_prob=0.5), "at least 2"),
    (dict(n=8, m=1, seed=0, max_score=5), "distinct values"),
    (dict(n=1, m=2, seed=0, pair_prob=1.5), "pair_prob must lie"),
    (dict(n=1, m=2, seed=0, topology="nested", set_count=0), "set_count"),
])
def test_config_errors(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        generate(GenConfig(**kwargs))
