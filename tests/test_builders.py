"""Model builders: frozen row counts, feasible sets vs the checker."""

import hashlib
import json
from functools import partial

import pytest

import pins
from conftest import (BUILDS, FIXTURE_DIR, classical_with, grouped_i4b, load,
                      matchings_of, t_projection, x_projection)
from stableadmit import (GenConfig, ModelError, ShapeError, SizeGuardError,
                         build_classical, build_combined, build_common,
                         build_lower, build_paired,
                         build_paired_via_common, build_scorelimits, check,
                         enumerate_feasible, enumerate_stable,
                         extract_solution, generate, parse_instance,
                         serialize_solution, solution_from_document,
                         solution_to_document, solve)
from stableadmit.builders import add_named_objective
from stableadmit.oracle import quota_breaches
from stableadmit.solution import OUTCOME_ROLES


def assign_names(model):
    return [v.name for v in model.vars_by_role("assign")]


def enum(model, extra=()):
    names = assign_names(model) + list(extra)
    res = enumerate_feasible(model, names)
    assert not res.truncated
    return res.projections


def enum_x(model):
    return x_projection(model, enum(model))


def enum_t(model):
    limits = [v.name for v in model.vars_by_role("limit")]
    res = enumerate_feasible(model, limits)
    assert not res.truncated
    return t_projection(model, res.projections)


def oracle_x(inst, variant):
    return matchings_of(enumerate_stable(inst, variant).solutions)


def rows(model):
    return [(c.tag, c.subject, c.coeffs, c.sense, c.rhs)
            for c in model.constraints]


def test_classical_row_counts():
    # one choice row per applicant, one quota row per college,
    # one stability row per application
    assert len(build_classical(load("I1")).constraints) == 1 + 1 + 1
    assert len(build_classical(load("I2")).constraints) == 2 + 1 + 2


def test_classical_feasible_sets_match_oracle():
    for name in ("I1", "I2", "TWO", "OPP"):
        inst = load(name)
        assert enum_x(build_classical(inst)) == oracle_x(inst, "classical"), name
    assert enum_x(build_classical(load("I1"))) == {((0, 0),)}
    assert enum_x(build_classical(load("I2"))) == {((0, 0), (1, None))}


def test_classical_ties_mode_is_weak_stability():
    inst = load("I3")
    got = enum_x(build_classical(inst, ties=True))
    assert got == oracle_x(inst, "weak_ties")
    assert len(got) == 2


@pytest.mark.parametrize("builder,fixture,kwargs", [
    (build_classical, "I3", {}),
    (build_scorelimits, "I3", {"mode": "strict"}),
    (build_classical, "PAIR0", {}),
    (build_lower, "I3", {}),
    (build_common, "I4", {}),
    (build_paired, "NEST", {}),
])
def test_builders_refuse_mismatched_features(builder, fixture, kwargs):
    with pytest.raises(ModelError):
        builder(load(fixture), **kwargs)


def test_scorelimits_strict_row_count():
    inst = load("I1")
    model = build_scorelimits(inst, mode="strict")
    n, m, e = inst.n, inst.m, len(inst.applications)
    assert len(model.constraints) == n + m + 2 * e + 2 * m


def test_scorelimits_strict_cutoff_ranges():
    assert enum_t(build_scorelimits(load("I1"), mode="strict")) \
        == {(t,) for t in range(6)}
    assert enum_t(build_scorelimits(load("I2"), mode="strict")) \
        == {(4,), (5,), (6,), (7,)}


def test_scorelimits_strict_projects_to_classical_matchings():
    for name in ("I2", "TWO", "OPP"):
        inst = load(name)
        strict = enum_x(build_scorelimits(inst, mode="strict"))
        assert strict == enum_x(build_classical(inst)), name


def test_ties_min_optimum_and_solution():
    inst = load("I3")
    model = build_scorelimits(inst, mode="ties_min")
    res = solve(model)
    assert res.status == "optimal"
    assert res.objective_values == [6]
    sol = extract_solution(model, res.assignment)
    assert sol.score_limits == {0: 6}
    assert sol.matching == {0: None, 1: None}
    assert check(inst, sol, "scorelimits_H").verdict == "stable"


def test_ties_min_keeps_the_matchable_applicant():
    inst = load("I2")
    model = build_scorelimits(inst, mode="ties_min")
    sol = extract_solution(model, solve(model).assignment)
    assert sol.matching == {0: 0, 1: None}
    assert sol.score_limits == {0: 4}


@pytest.mark.parametrize("name", ["I2", "I3", "TWO"])
def test_ties_full_enumerates_exactly_the_checker_set(name):
    inst = load(name)
    got = enum_t(build_scorelimits(inst, mode="ties_full"))
    want = {tuple(s.score_limits[j] for j in range(inst.m))
            for s in enumerate_stable(inst, "scorelimits_H").solutions}
    assert got == want


def open_sets(model):
    opens = [v.name for v in model.vars_by_role("open")]
    out = set()
    for proj in enum(model, extra=opens):
        matching = dict(next(iter(x_projection(model, [proj]))))
        out.add((tuple(sorted(matching.items())),
                 tuple(proj[name] for name in opens)))
    return out


def oracle_open_sets(inst):
    out = set()
    for sol in enumerate_stable(inst, "lower").solutions:
        intake = sol.intake(inst)
        opens = sol.open_colleges or {
            j: not (intake[j] == 0 and inst.colleges[j].lower > 0)
            for j in range(inst.m)}
        out.add((tuple(sorted(sol.matching.items())),
                 tuple(int(opens[j]) for j in range(inst.m))))
    return out


def test_lower_feasible_sets_match_oracle():
    assert open_sets(build_lower(load("I4"))) == {(((0, None),), (0,))}
    assert open_sets(build_lower(load("I4B"))) \
        == {(((0, 0), (1, 0)), (1,))}
    for name in ("I4", "I4B", "I8"):
        inst = load(name)
        assert open_sets(build_lower(inst)) == oracle_open_sets(inst), name


def test_lower_without_quotas_degenerates_to_classical():
    inst = load("TWO")
    got = {m for m, _ in open_sets(build_lower(inst))}
    assert got == oracle_x(inst, "classical")


def test_lower_infeasible_when_stable_set_empty():
    assert solve(build_lower(load("I5"))).status == "infeasible"


def test_lower_group_flag_must_match_the_instance():
    plain = build_lower(load("I4B"))
    assert plain.name == "lower" and not plain.vars_by_role("group_open")
    model = build_lower(grouped_i4b())
    assert model.name == "lower+groups" and model.vars_by_role("group_open")


def test_common_feasible_sets_match_oracle():
    for name in ("NEST", "SGL"):
        inst = load(name)
        assert enum_x(build_common(inst)) == oracle_x(inst, "common"), name
    assert solve(build_common(load("I6"))).status == "infeasible"


def test_singleton_quota_set_mirrors_plain_cutoffs():
    # SGL wraps one college in a one-member quota set; the feasible
    # matchings equal those of the identical set-free instance I2
    assert enum_x(build_common(load("SGL"))) \
        == enum_x(build_scorelimits(load("I2"), mode="strict"))


def test_paired_feasible_sets_match_oracle():
    pair0 = load("PAIR0")
    model = build_paired(pair0)
    opens = [v.name for v in model.vars_by_role("limit")]
    projs = enum(model, extra=opens)
    assert (((0, (0, 1)),), (0, 0)) in {
        (next(iter(x_projection(model, [p]))), tuple(p[n] for n in opens))
        for p in projs}
    assert enum_x(model) == oracle_x(pair0, "paired")

    pair1 = load("PAIR1")
    model1 = build_paired(pair1)
    assert enum_x(model1) == oracle_x(pair1, "paired") == {((0, None), (1, 0))}
    t1s = enum_t(model1)
    assert t1s and all(t[0] >= 4 and t[1] == 0 for t in t1s)


def outcomes(model):
    """What `stableadmit enumerate` lists: every value the outcome
    variables take over the feasible set, in the solver's order."""
    names = [v.name for v in model.variables.values() if v.role in OUTCOME_ROLES]
    res = enumerate_feasible(model, names)
    assert not res.truncated
    return res.projections


def min_score_limits(build, inst):
    model = build(inst)
    add_named_objective(inst, model, "min_score_limits")
    res = solve(model, node_cap=20_000)
    return res.status, res.objective_values


@pytest.mark.parametrize("name", ["PAIR0", "PAIR1", "PAIRMIX"])
def test_paired_reduction_agrees_with_explicit_model(name):
    inst = load(name)
    explicit, reduced = build_paired(inst), build_paired_via_common(inst)
    assert enum_x(explicit) == enum_x(reduced) == oracle_x(inst, "paired")
    assert outcomes(reduced) == outcomes(explicit)


def test_paired_infeasible_when_stable_set_empty():
    assert solve(build_paired(load("I7"))).status == "infeasible"
    assert solve(build_paired_via_common(load("I7"))).status == "infeasible"


# Small paired markets: on three seeds of the first an applicant's pair
# and another of its applications take seats at one college, so both sit
# in that college's pool.
VIA_COMMON_MARKETS = (
    dict(n=6, m=3, list_range=(1, 3), max_score=12, upper_range=(1, 2),
         pair_prob=0.35),
    dict(n=8, m=4, list_range=(1, 3), max_score=16, upper_range=(1, 3),
         pair_prob=0.25),
)


@pytest.mark.parametrize("seed", [97, 255, 275])
def test_via_common_escapes_are_per_application_beside_a_pair(seed):
    """One escape shared by such applications tied a pair's escape
    budget to the other application's and proved these markets
    infeasible, although each has exactly one stable outcome."""
    inst = generate(GenConfig(seed=seed, **VIA_COMMON_MARKETS[0]))
    model = build_paired_via_common(inst)
    res = solve(model)
    assert res.status == "feasible"
    sol = extract_solution(model, res.assignment)
    assert check(inst, sol, "paired").verdict == "stable"
    stable = oracle_x(inst, "paired")
    assert len(stable) == 1
    assert enum_x(model) == enum_x(build_paired(inst)) == stable


ESCAPE_MARKETS = {
    **{name: partial(load, name) for name in ("PAIR0", "PAIR1", "PAIRMIX", "NEST")},
    # colleges 0, 6 and 9 are in no quota set
    "nested 0": lambda: generate(GenConfig(seed=0, **GEN_PIN_MARKETS["nested"])),
}


@pytest.mark.parametrize("name", sorted(ESCAPE_MARKETS))
def test_only_applications_in_several_pools_have_escapes(name):
    """An application alone in its pool must fail that pool's cutoff
    and has no escape; a pair has one signed escape in build_paired and
    one per pool in the reduction; every budget row spans two escapes."""
    inst = ESCAPE_MARKETS[name]()
    cid = [c.id for c in inst.colleges]
    pairs = [app for app in inst.applications if app.is_paired]
    models = {}
    for build in (build_paired, build_paired_via_common, build_common):
        try:
            models[build] = build(inst)
        except ModelError:
            continue
        budgets = [c for c in models[build].constraints
                   if c.tag == "common_escape_budget"]
        assert all(len(c.coeffs) >= 2 for c in budgets), build
    escapes = {build: [v.key for v in model.vars_by_role("escape")]
               for build, model in models.items()}
    if build_paired in models:
        assert sorted((i, rank) for i, _pool, rank in escapes[build_paired]) \
            == [(app.applicant, app.rank) for app in pairs]
    if build_paired_via_common in models:
        assert sorted(escapes[build_paired_via_common]) == sorted(
            (app.applicant, cid[j], app.rank)
            for app in pairs for j in app.target)
    if build_common in models:
        in_sets = {j for qs in inst.common_quota_sets for j in qs.members}
        names = {v.name for v in models[build_common].vars_by_role("escape")}
        for c in models[build_common].constraints:
            if c.tag == "score_stable_applicant":
                college = cid.index(c.subject.split(",")[1])
                has_escape = any(v in names for v, _c in c.coeffs)
                assert has_escape == (college in in_sets), c.subject


def test_via_common_status_agrees_with_explicit_on_generated_markets():
    """300 seeds of each market with pairs: the reduction is feasible
    exactly where the explicit model is, and its outcome is stable. On
    the first market it also lists the explicit model's outcomes and
    reaches its least score-limit total."""
    for cfg in VIA_COMMON_MARKETS:
        for seed in range(300):
            inst = generate(GenConfig(seed=seed, **cfg))
            if not inst.has_pairs:
                continue
            explicit = build_paired(inst)
            want = solve(explicit).status
            model = build_paired_via_common(inst)
            res = solve(model)
            assert res.status == want, (cfg, seed)
            if res.assignment is not None:
                sol = extract_solution(model, res.assignment)
                assert check(inst, sol, "paired").verdict == "stable", seed
            if cfg is VIA_COMMON_MARKETS[0]:
                assert min_score_limits(build_paired_via_common, inst) \
                    == min_score_limits(build_paired, inst), seed
                assert outcomes(model) == outcomes(explicit), seed


def test_combined_without_features_equals_classical():
    inst = load("I2")
    assert rows(build_combined(inst)) == rows(build_classical(inst))


def test_combined_single_feature_rows_match_dedicated_builders():
    assert rows(build_combined(load("I3"), ties=True)) \
        == rows(build_scorelimits(load("I3"), mode="ties_min"))
    combined = build_combined(load("I4B"), lower=True)
    dedicated = build_lower(load("I4B"))
    assert [(c.tag, c.subject) for c in combined.constraints] \
        == [(c.tag, c.subject) for c in dedicated.constraints]


def test_combined_ties_and_lower():
    res = solve(build_combined(load("I3"), ties=True, lower=True))
    assert res.status == "optimal" and res.objective_values == [6]
    model = build_combined(load("I4"), ties=True, lower=True)
    res = solve(model)
    assert res.status == "optimal" and res.objective_values == [0]
    sol = extract_solution(model, res.assignment)
    assert sol.open_colleges == {0: False}
    assert sol.matching == {0: None}


def test_combined_drop_policy_uses_lexicographic_objectives():
    res = solve(build_combined(
        load("I4"), lower=True, group_stability="drop_with_lex_objective"))
    assert res.status == "optimal" and res.objective_values == [0, 0]
    res = solve(build_combined(
        load("I4B"), lower=True, group_stability="drop_with_lex_objective"))
    assert res.status == "optimal" and res.objective_values == [2, 0]


@pytest.mark.parametrize("make, match", [
    (lambda inst: build_scorelimits(inst, mode="frob"), "unknown mode"),
    (lambda inst: build_combined(inst, group_stability="frob"),
     "unknown policy"),
    (lambda inst: add_named_objective(inst, build_scorelimits(inst), "frob"),
     "unknown objective"),
])
def test_builders_refuse_unknown_names(make, match):
    with pytest.raises(ModelError, match=match):
        make(load("I2"))


def test_combined_refuses_incoherent_policy():
    with pytest.raises(ModelError, match="incoherent"):
        build_combined(load("NEST"), lower=True, common=True)


def test_extract_solution_rejects_violating_assignments():
    model = build_classical(load("I2"))
    assignment = {v.name: 0 for v in model.variables.values()}
    assignment["x_0_0"] = 1
    assignment["x_1_0"] = 1
    with pytest.raises(ModelError,
                       match=r"constraint violated: college_feasible\(c1\)"):
        extract_solution(model, assignment)


def test_rank_objectives_bracket_the_stable_set():
    res = solve(classical_with("applicant_optimal")(load("I2")))
    assert res.status == "optimal" and res.objective_values == [1]

    inst = load("TWO")
    best = solve(classical_with("applicant_optimal")(inst))
    worst = solve(classical_with("applicant_pessimal")(inst))
    totals = []
    for matching in oracle_x(inst, "classical"):
        total = 0
        for i, target in matching:
            if target is None:
                continue
            total += next(app.rank for app in inst.by_applicant[i]
                          if app.target == target)
        totals.append(total)
    assert best.objective_values[0] == min(totals)
    assert worst.objective_values[0] == max(totals)


PIN_INSTANCES = {
    **{path.stem: partial(load, path.stem)
       for path in sorted(FIXTURE_DIR.glob("*.json"))},
    "I4B+group": grouped_i4b,
}

PINS = pins.load("builder_pins.json")


def model_digest(model):
    """sha256 over variables, rows and objectives; the model name is left
    out so that presets may keep their own names."""
    body = repr((list(model.variables.values()), model.constraints,
                 model.objectives))
    return hashlib.sha256(body.encode()).hexdigest()


def model_pin(model):
    return {"tags": model.tag_counts(), "sha256": model_digest(model)}


def fixture_models(labels=tuple(BUILDS)):
    """(key, model) for every pin instance each of the labels' builders
    accepts, keyed "name label"."""
    for label in labels:
        for name, make in PIN_INSTANCES.items():
            try:
                model = BUILDS[label](make())
            except ModelError:
                continue
            yield f"{name} {label}", model


def formulation_pins(labels=tuple(BUILDS)):
    """builder_pins.json: the model_pin of every fixture model."""
    return {key: model_pin(model) for key, model in fixture_models(labels)}


def search_pins(labels=tuple(BUILDS)):
    """search_pins.json: [status, nodes, objective values] of solve on
    every fixture model."""
    out = {}
    for key, model in fixture_models(labels):
        res = solve(model)
        out[key] = [res.status, res.nodes, res.objective_values]
    return out


def of_label(table, label):
    return {key: v for key, v in table.items() if key.split(" ", 1)[1] == label}


@pytest.mark.parametrize("label", sorted(BUILDS))
def test_builder_formulations_are_pinned(label):
    """A pin instance the label's builder refuses has no entry."""
    assert formulation_pins([label]) == of_label(PINS, label)


@pytest.mark.parametrize("label", sorted(BUILDS))
def test_no_two_rows_share_a_name(label):
    """A violated row is reported by its tag and subject, so no two rows
    of a model may share both; a pair's two cutoff rows name their
    colleges."""
    for key, model in fixture_models([label]):
        names = [(c.tag, c.subject) for c in model.constraints]
        assert len(set(names)) == len(names), key


SEARCH_PINS = pins.load("search_pins.json")


@pytest.mark.parametrize("label", sorted(BUILDS))
def test_builder_searches_are_pinned(label):
    """solve's status, node count and objective values on every accepted
    pair of test_builder_formulations_are_pinned, captured before the
    search core kept its row activities cached; the propagation fixpoint
    does not depend on how it is reached, so the search must not move."""
    assert search_pins([label]) == of_label(SEARCH_PINS, label)


def audit_plan(label):
    """The oracle variant `stableadmit solve` audits a label's outcome
    under, or "unverified" where the CLI checks quotas alone."""
    if label.startswith("combined["):
        feats, policy = label[len("combined["):-1].split(";")
        active = [] if feats == "none" else feats.split(",")
        if not active:
            return "classical"
        if len(active) == 1 and policy == "enforce":
            return {"ties": "scorelimits_H", "lower": "lower",
                    "common": "common"}[active[0]]
        return "unverified"
    return {"classical": "classical", "classical:ties": "weak_ties",
            "classical:applicant_optimal": "classical",
            "classical:applicant_pessimal": "classical",
            "scorelimits:strict": "classical",
            "scorelimits:ties_min": "scorelimits_H",
            "scorelimits:ties_full": "scorelimits_H",
            "lower": "lower", "common": "common", "paired": "paired",
            "paired_via_common": "paired"}[label]


def audit(inst, sol, plan):
    """What the audit under plan makes of sol: its verdict and violation
    reports, or the error it raises."""
    try:
        if plan == "unverified":
            return [v.to_report() for v in quota_breaches(inst, sol)]
        report = check(inst, sol, plan)
        return report.verdict, [v.to_report() for v in report.violations]
    except (ShapeError, SizeGuardError) as exc:
        return type(exc).__name__, str(exc)


# Every applicant lists no college, so decoded matchings are empty.
EMPTY_LISTS = json.dumps({
    "max_score": 3,
    "colleges": [{"id": "c1", "upper": 1}, {"id": "c2", "upper": 2}],
    "applicants": [{"id": "a1", "list": []}, {"id": "a2", "list": []}]})


@pytest.mark.parametrize("label", sorted(BUILDS))
def test_decoded_outcomes_survive_their_solution_file(label):
    """Every accepted pair of test_builder_formulations_are_pinned, plus a
    market whose applicants list nothing: the solved outcome written,
    read back and written again gives the same document, and the audit
    under the label's plan gives the same verdict on both."""
    build, plan = BUILDS[label], audit_plan(label)
    markets = [(name, make) for name, make in PIN_INSTANCES.items()
               if f"{name} {label}" in PINS]
    markets.append(("EMPTY_LISTS", partial(parse_instance, EMPTY_LISTS)))
    for name, make in markets:
        inst = make()
        try:
            model = build(inst)
        except ModelError:
            assert name == "EMPTY_LISTS", name
            continue
        res = solve(model)
        if res.assignment is None:
            continue
        sol = extract_solution(model, res.assignment)
        text = serialize_solution(inst, sol)
        back = solution_from_document(inst, json.loads(text))
        assert serialize_solution(inst, back) == text, name
        assert solution_to_document(inst, back) == json.loads(text), name
        assert audit(inst, back, plan) == audit(inst, sol, plan), name


# Formulation pins on generated markets shaped like the benchmark rungs,
# so row emission is also pinned where colleges hold many applicants.
GEN_PIN_MARKETS = {
    "strict": dict(n=200, m=15, list_range=(1, 4), max_score=400,
                   upper_range=(1, 20)),
    "ties": dict(n=50, m=10, list_range=(1, 4), max_score=100,
                 tie_density=0.3, upper_range=(1, 5)),
    "lower_tight": dict(n=200, m=20, list_range=(1, 4), max_score=400,
                        upper_range=(10, 30), lower_range=(10, 30)),
    "paired": dict(n=200, m=15, list_range=(1, 4), max_score=400,
                   upper_range=(1, 20), pair_prob=0.2),
    "nested": dict(n=100, m=10, list_range=(1, 4), max_score=200,
                   upper_range=(1, 10), topology="nested", set_count=3),
}
GEN_PIN_SEEDS = range(5)


def generated_digests(markets=tuple(GEN_PIN_MARKETS)):
    """generated_builder_pins.json: model_digest of every BUILDS label on
    the given generated pin markets, keyed "market seed label"; None where
    the builder refuses it."""
    out = {}
    for market in markets:
        for seed in GEN_PIN_SEEDS:
            inst = generate(GenConfig(seed=seed, **GEN_PIN_MARKETS[market]))
            for label in sorted(BUILDS):
                try:
                    digest = model_digest(BUILDS[label](inst))
                except ModelError:
                    digest = None
                out[f"{market} {seed} {label}"] = digest
    return out


GEN_PINS = pins.load("generated_builder_pins.json")


@pytest.mark.parametrize("market", sorted(GEN_PIN_MARKETS))
def test_builder_formulations_on_generated_markets_are_pinned(market):
    want = {key: digest for key, digest in GEN_PINS.items()
            if key.split()[0] == market}
    assert generated_digests([market]) == want
