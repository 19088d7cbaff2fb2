"""Instance parsing, validation, nesting, and serialization round-trips."""

import copy
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import fixture_text, load
from stableadmit import (Application, College, GenConfig, Instance, InvariantError,
                         QuotaSet, SchemaError, from_document, generate,
                         instance_digest, is_nested, parse_instance,
                         serialize_instance, to_document)


def test_minimal_document_parses():
    inst = load("I1")
    assert inst.n == 1
    assert inst.m == 1
    assert len(inst.applications) == 1
    assert inst.max_score == 5
    assert inst.colleges[0].upper == 1
    assert inst.applications[0].rank == 1
    assert inst.applications[0].score == 5


def test_duplicate_rank_rejected():
    doc = json.loads(fixture_text("I1"))
    doc["applicants"][0]["list"].append({"rank": 1, "college": "c1", "score": 2})
    with pytest.raises(InvariantError, match="duplicate rank"):
        from_document(doc)


def test_unequal_scores_inside_quota_set_rejected():
    doc = json.loads(fixture_text("NEST"))
    doc["applicants"][0]["list"][1]["score"] = 4
    with pytest.raises(InvariantError, match="unequal scores inside the set"):
        from_document(doc)


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.pop("max_score"), "max_score"),
    (lambda d: d.update(max_score="five"), "max_score"),
    (lambda d: d.update(unexpected=1), "unexpected"),
    (lambda d: d["applicants"][0]["list"][0].update(college="nowhere"), "nowhere"),
])
def test_schema_violations(mutate, match):
    doc = json.loads(fixture_text("I2"))
    mutate(doc)
    with pytest.raises(SchemaError, match=match):
        from_document(doc)


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d["colleges"][0].update(upper=0), "upper quota"),
    (lambda d: d["colleges"][0].update(lower=3), "lower quota"),
    (lambda d: d["applicants"][0]["list"][0].update(score=9), "outside"),
    (lambda d: d["applicants"][0]["list"][0].update(rank=0), "ranks start at 1"),
])
def test_invariant_violations(mutate, match):
    doc = json.loads(fixture_text("I4"))
    mutate(doc)
    with pytest.raises(InvariantError, match=match):
        from_document(doc)


def test_paired_application_needs_distinct_colleges():
    doc = json.loads(fixture_text("PAIR0"))
    doc["applicants"][0]["list"][0]["pair"] = ["c1", "c1"]
    with pytest.raises(InvariantError, match="one college twice"):
        from_document(doc)


def test_inconsistent_scores_at_one_college_rejected():
    doc = json.loads(fixture_text("PAIRMIX"))
    doc["applicants"][0]["list"][1]["score"] = 5  # pair says 4 at c1
    with pytest.raises(InvariantError, match="inconsistent scores"):
        from_document(doc)


def test_feature_predicates():
    assert load("I3").has_ties
    assert not load("I2").has_ties
    assert load("PAIR1").has_pairs
    assert load("I4").has_lower_quotas
    assert not load("TWO").has_lower_quotas


def test_is_nested_vacuous_without_sets():
    assert is_nested(load("I2"))


def test_is_nested_rejects_crossing_pair():
    assert not is_nested(load("I6"))


def test_is_nested_accepts_chain():
    base = load("NEST")
    chained = Instance(
        max_score=base.max_score,
        applicants=base.applicants,
        colleges=base.colleges + (College("c3", 1),),
        applications=base.applications,
        common_quota_sets=(
            QuotaSet("p1", (0,), 1),
            QuotaSet("p2", (0, 1), 2),
            QuotaSet("p3", (0, 1, 2), 2),
        ),
    )
    chained.validate()
    assert is_nested(chained)
    assert is_nested(load("NEST"))
    assert is_nested(load("SGL"))


def test_is_nested_counts_singletons_against_quota_sets():
    # {c1, c2} crosses neither singleton, so nesting holds; a set crossing
    # a singleton cannot exist (singletons are minimal), so the implicit
    # singleton rule only matters through explicit single-member sets.
    inst = load("NEST")
    assert is_nested(inst)


def test_round_trip_fixture_files():
    for name in ("I1", "I2", "I3", "I4", "I4B", "TWO", "OPP", "PAIR0",
                 "PAIR1", "PAIRMIX", "NEST", "SGL", "I5", "I6", "I7", "I8",
                 "ROUNDS2"):
        inst = load(name)
        again = parse_instance(serialize_instance(inst))
        assert again == inst, name
        assert instance_digest(again) == instance_digest(inst)


def test_round_trip_generated_instances():
    for seed in range(40):
        inst = generate(GenConfig(n=4, m=3, seed=seed, lower_range=(0, 2),
                                  topology="nested", pair_prob=0.0))
        assert parse_instance(serialize_instance(inst)) == inst


def test_digest_is_content_addressed():
    a, b = load("I2"), load("I2")
    assert instance_digest(a) == instance_digest(b)
    assert len(instance_digest(a)) == 64
    assert instance_digest(a) != instance_digest(load("I3"))


def test_to_document_key_shapes():
    doc = to_document(load("NEST"))
    assert set(doc) <= {"max_score", "colleges", "applicants",
                        "common_quotas", "lower_groups"}
    assert doc["common_quotas"][0]["members"] == ["c1", "c2"]


# Schema-message pins: one schema-valid document holding every object kind,
# and for each kind a missing key, a wrong type, a bool passed as an int
# and an unknown key (plus the list-element checks of pair entries and
# member lists).
SCHEMA_BASE = {
    "max_score": 9,
    "colleges": [{"id": "c1", "upper": 2, "lower": 1},
                 {"id": "c2", "upper": 1}],
    "applicants": [
        {"id": "a1", "list": [{"rank": 1, "college": "c1", "score": 5},
                              {"rank": 2, "college": "c2", "score": 5}]},
        {"id": "a2", "list": [{"rank": 1, "pair": ["c1", "c2"],
                               "scores": [3, 3]}]},
    ],
    "common_quotas": [{"id": "p1", "members": ["c1", "c2"], "upper": 2}],
    "lower_groups": [{"id": "g1", "members": ["c1", "c2"], "lower": 1}],
}


def _college(d):
    return d["colleges"][1]


def _applicant(d):
    return d["applicants"][1]


def _simple(d):
    return d["applicants"][0]["list"][1]


def _pair(d):
    return d["applicants"][1]["list"][0]


def _quota_set(d):
    return d["common_quotas"][0]


def _group(d):
    return d["lower_groups"][0]


SCHEMA_CASES = {
    "top missing": lambda d: d.pop("max_score"),
    "top wrong type": lambda d: d.update(colleges={}),
    "top bool as int": lambda d: d.update(max_score=True),
    "top unknown key": lambda d: d.update(extra=1),
    "college missing": lambda d: _college(d).pop("upper"),
    "college wrong type": lambda d: _college(d).update(id=7),
    "college bool as int": lambda d: _college(d).update(lower=True),
    "college unknown key": lambda d: _college(d).update(seats=2),
    "college not an object": lambda d: d["colleges"].append("c3"),
    "college duplicate id": lambda d: _college(d).update(id="c1"),
    "applicant missing": lambda d: _applicant(d).pop("list"),
    "applicant wrong type": lambda d: _applicant(d).update(list="c1"),
    "applicant bool as int": lambda d: _applicant(d).update(id=False),
    "applicant unknown key": lambda d: _applicant(d).update(name="x"),
    "applicant not an object": lambda d: d["applicants"].append(["a3"]),
    "simple missing": lambda d: _simple(d).pop("score"),
    "simple wrong type": lambda d: _simple(d).update(college=3),
    "simple bool as int": lambda d: _simple(d).update(score=True),
    "simple bool rank": lambda d: _simple(d).update(rank=False),
    "simple unknown key": lambda d: _simple(d).update(note="x"),
    "simple unknown college": lambda d: _simple(d).update(college="c9"),
    "simple not an object": lambda d: d["applicants"][0]["list"].append(2),
    "simple college and pair": lambda d: _simple(d).update(pair=["c1", "c2"]),
    "simple neither college nor pair": lambda d: _simple(d).pop("college"),
    "pair missing": lambda d: _pair(d).pop("scores"),
    "pair wrong type": lambda d: _pair(d).update(pair="c1"),
    "pair wrong type pair[1]": lambda d: _pair(d)["pair"].__setitem__(1, 2),
    "pair bool as int scores[0]":
        lambda d: _pair(d)["scores"].__setitem__(0, True),
    "pair unknown key": lambda d: _pair(d).update(score=3),
    "pair unknown college pair[1]":
        lambda d: _pair(d)["pair"].__setitem__(1, "c9"),
    "pair three colleges": lambda d: _pair(d)["pair"].append("c1"),
    "pair one score": lambda d: _pair(d)["scores"].pop(),
    "quota set missing": lambda d: _quota_set(d).pop("upper"),
    "quota set wrong type": lambda d: _quota_set(d).update(members="c1"),
    "quota set bool as int": lambda d: _quota_set(d).update(upper=True),
    "quota set unknown key": lambda d: _quota_set(d).update(lower=1),
    "quota set member type":
        lambda d: _quota_set(d)["members"].__setitem__(0, 5),
    "group missing": lambda d: _group(d).pop("lower"),
    "group wrong type": lambda d: _group(d).update(id=3),
    "group bool as int": lambda d: _group(d).update(lower=False),
    "group unknown key": lambda d: _group(d).update(upper=2),
    "group unknown member":
        lambda d: _group(d)["members"].__setitem__(1, "c9"),
}


def schema_messages() -> dict[str, list[str]]:
    """[SchemaError.path, str(SchemaError)] for every schema case."""
    out = {}
    for case, mutate in SCHEMA_CASES.items():
        doc = copy.deepcopy(SCHEMA_BASE)
        mutate(doc)
        try:
            from_document(doc)
        except SchemaError as exc:
            out[case] = [exc.path, str(exc)]
    return out


def test_schema_base_document_parses():
    inst = from_document(copy.deepcopy(SCHEMA_BASE))
    assert inst.has_pairs
    assert inst.common_quota_sets and inst.lower_quota_groups


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_schema_messages_are_pinned(case):
    """The exact path and message of each error, captured once, before the
    parser formatted paths only for failing checks, with

      PYTHONPATH=src:tests python -c "import json, test_instance as t; \\
        print(json.dumps(t.schema_messages(), indent=1, sort_keys=True))" \\
        > tests/schema_pins.json
    """
    pins = json.loads((Path(__file__).parent / "schema_pins.json")
                      .read_text(encoding="utf-8"))
    doc = copy.deepcopy(SCHEMA_BASE)
    SCHEMA_CASES[case](doc)
    with pytest.raises(SchemaError) as info:
        from_document(doc)
    assert [info.value.path, str(info.value)] == pins[case]


def test_application_value_semantics():
    simple = Application(0, 1, 2, 5)
    paired = Application(1, 2, (0, 2), (3, 4))
    assert repr(simple) == \
        "Application(applicant=0, rank=1, target=2, score=5)"
    assert repr(paired) == \
        "Application(applicant=1, rank=2, target=(0, 2), score=(3, 4))"
    assert simple == Application(0, 1, 2, 5)
    assert simple != Application(0, 1, 2, 4)
    assert hash(simple) == hash((0, 1, 2, 5))
    assert hash(paired) == hash((1, 2, (0, 2), (3, 4)))
    assert not simple.is_paired and paired.is_paired
    moved = replace(simple, target=(2, 0), score=(5, 6))
    assert moved.is_paired is True
    assert moved.colleges() == (2, 0) and moved.score_at(0) == 6
    assert replace(paired, target=0, score=3).is_paired is False


def test_generated_and_parsed_applications_are_equal():
    for seed in range(10):
        inst = generate(GenConfig(n=12, m=4, seed=seed, list_range=(1, 4),
                                  max_score=30, pair_prob=0.3))
        parsed = parse_instance(serialize_instance(inst))
        assert parsed.applications == inst.applications
        assert [a.is_paired for a in parsed.applications] \
            == [a.is_paired for a in inst.applications]


def test_shuffled_ranks_parse_to_rank_order():
    # from_document used to end with a stable sort of all applications by
    # (applicant, rank); ordering each applicant's entries must agree
    for seed in range(30):
        inst = generate(GenConfig(n=12, m=4, seed=seed, list_range=(1, 4),
                                  max_score=30, pair_prob=0.3))
        doc = to_document(inst)
        shuffled = copy.deepcopy(doc)
        rng = random.Random(seed)
        for entry in shuffled["applicants"]:
            rng.shuffle(entry["list"])
        in_doc_order = [(ai, e["rank"]) for ai, entry in
                        enumerate(shuffled["applicants"]) for e in entry["list"]]
        parsed = from_document(shuffled)
        assert parsed.applications == from_document(doc).applications \
            == inst.applications
        assert [(a.applicant, a.rank) for a in parsed.applications] \
            == sorted(in_doc_order)


def ties_by_scan(inst):
    """has_ties as first defined: one score_of call per (college, applicant)."""
    for j in range(inst.m):
        seen = set()
        for i in inst.applicants_at[j]:
            s = inst.score_of(i, j)
            if s in seen:
                return True
            seen.add(s)
    return False


def test_has_ties_matches_the_per_college_scan():
    seen = set()
    for seed in range(120):
        for tie_density in (0.0, 0.3):
            inst = generate(GenConfig(n=10, m=3, seed=seed, list_range=(1, 3),
                                      max_score=12, tie_density=tie_density,
                                      pair_prob=0.2))
            assert inst.has_ties == ties_by_scan(inst), (seed, tie_density)
            seen.add(inst.has_ties)
    assert seen == {True, False}
