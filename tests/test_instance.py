"""Instance parsing, validation, nesting, and serialization round-trips."""

import contextlib
import copy
import hashlib
import io
import json
import random
import time
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

import pins
from conftest import fixture_text, load
from stableadmit import (Application, College, GenConfig, Instance, InstanceError,
                         InvariantError, LowerGroup, QuotaSet, SchemaError,
                         from_document, generate, instance_digest, is_nested,
                         parse_instance, serialize_instance, to_document)
from stableadmit.cli import CHECK_VARIANTS, main
from stableadmit.solution import solution_from_document


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
    (lambda d: d["applicants"][0]["list"].append(
        {"rank": 2, "college": "c1", "score": 5}), "duplicate application to c1"),
])
def test_invariant_violations(mutate, match):
    doc = json.loads(fixture_text("I4"))
    mutate(doc)
    with pytest.raises(InvariantError, match=match):
        from_document(doc)


@pytest.mark.parametrize("change, match", [
    (lambda i: replace(i, colleges=i.colleges + i.colleges[:1]),
     "college ids must be distinct"),
    (lambda i: replace(i, applications=(Application(0, 1, 5, 1),)),
     "unknown college index 5"),
    (lambda i: replace(i, applications=(Application(7, 1, 0, 1),)),
     "unknown applicant index 7"),
    (lambda i: replace(i, common_quota_sets=(QuotaSet("p1", (), 1),)),
     "p1: members must be non-empty"),
    (lambda i: replace(i, common_quota_sets=(QuotaSet("p1", (0, 9), 1),)),
     "p1: unknown college index 9"),
])
def test_invariants_of_a_constructed_instance(change, match):
    """Rules that a document cannot break, since it names colleges,
    applicants and members by id."""
    with pytest.raises(InvariantError, match=match):
        change(load("I2")).validate()


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


SCHEMA_PINS = pins.load("schema_pins.json")


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_schema_messages_are_pinned(case):
    """The exact path and message of each error, captured once, before the
    parser formatted paths only for failing checks."""
    doc = copy.deepcopy(SCHEMA_BASE)
    SCHEMA_CASES[case](doc)
    with pytest.raises(SchemaError) as info:
        from_document(doc)
    assert [info.value.path, str(info.value)] == SCHEMA_PINS[case]


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
    with pytest.raises(FrozenInstanceError):
        simple.rank = 3
    copied = copy.deepcopy(paired)
    assert copied == paired and copied.is_paired


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
        rebuilt = replace(parsed)  # a fresh instance groups and sorts again
        assert parsed.by_applicant == rebuilt.by_applicant


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


# Digest pins: instance_digest of every fixture and of generated markets
# shaped like the benchmark's market configs, at two seeds each.
DIGEST_FIXTURES = ("I1", "I2", "I3", "I4", "I4B", "TWO", "OPP", "PAIR0",
                   "PAIR1", "PAIRMIX", "NEST", "SGL", "I5", "I6", "I7", "I8",
                   "ROUNDS2")
DIGEST_PIN_MARKETS = {
    "exact_mid classical": dict(n=40, m=10, list_range=(1, 4), max_score=80,
                                upper_range=(1, 4)),
    "exact_mid strict": dict(n=60, m=10, list_range=(1, 4), max_score=120,
                             upper_range=(1, 6)),
    "exact_mid ties": dict(n=50, m=10, list_range=(1, 4), max_score=100,
                           tie_density=0.3, upper_range=(1, 5)),
    "exact_mid lower": dict(n=50, m=10, list_range=(1, 4), max_score=100,
                            upper_range=(1, 10), lower_range=(1, 10)),
    "exact_mid nested": dict(n=22, m=8, list_range=(1, 4), max_score=44,
                             upper_range=(1, 3), topology="nested",
                             set_count=3),
    "exact_mid paired": dict(n=60, m=10, list_range=(1, 4), max_score=120,
                             upper_range=(1, 6), pair_prob=0.2),
    "exact_mid paired_small": dict(n=16, m=8, list_range=(1, 4),
                                   max_score=32, upper_range=(1, 2),
                                   pair_prob=0.2),
    "exact_mid combined": dict(n=14, m=7, list_range=(1, 4), max_score=28,
                               upper_range=(1, 2), lower_range=(1, 2)),
    "scale_certify strict": dict(n=200, m=15, list_range=(1, 4),
                                 max_score=400, upper_range=(1, 20)),
    "scale_certify strict_large": dict(n=400, m=40, list_range=(1, 4),
                                       max_score=800, upper_range=(1, 10)),
    "scale_certify lower_tight": dict(n=200, m=20, list_range=(1, 4),
                                      max_score=400, upper_range=(10, 30),
                                      lower_range=(10, 30)),
    "scale_certify paired": dict(n=200, m=15, list_range=(1, 4),
                                 max_score=400, upper_range=(1, 20),
                                 pair_prob=0.2),
    "scale_certify gs_small": dict(n=80, m=8, list_range=(1, 4),
                                   max_score=160, upper_range=(1, 10)),
    "enumerate_small ties": dict(n=8, m=3, list_range=(1, 2), max_score=6,
                                 tie_density=0.4, upper_range=(1, 3)),
    "enumerate_small lower": dict(n=8, m=3, list_range=(1, 2), max_score=16,
                                  upper_range=(1, 3), lower_range=(1, 3)),
    "enumerate_small nested": dict(n=6, m=2, list_range=(1, 2), max_score=5,
                                   upper_range=(1, 2), topology="nested",
                                   set_count=1),
    # generator corners the benchmark's configs miss
    "edge random sets": dict(n=30, m=8, list_range=(1, 4), max_score=60,
                             upper_range=(1, 4), topology="random",
                             set_count=3),
    "edge ties pairs lower": dict(n=40, m=8, list_range=(1, 5), max_score=20,
                                  tie_density=0.4, upper_range=(1, 6),
                                  lower_range=(1, 3), pair_prob=0.3),
    "edge no applicants": dict(n=0, m=5),
    "edge no colleges": dict(n=5, m=0),
    "edge empty lists": dict(n=10, m=4, list_range=(0, 0)),
    "edge all pairs": dict(n=60, m=3, list_range=(1, 3), max_score=120,
                           pair_prob=1.0),
}
DIGEST_PIN_SEEDS = (1, 7919)


def digest_pins() -> dict[str, str]:
    out = {f"digest {name}": instance_digest(load(name))
           for name in DIGEST_FIXTURES}
    for market, cfg in DIGEST_PIN_MARKETS.items():
        for seed in DIGEST_PIN_SEEDS:
            out[f"digest {market} {seed}"] = instance_digest(
                generate(GenConfig(seed=seed, **cfg)))
    return out


# Invariant-message pins: documents that break several instance rules at
# once, so the pinned message also fixes which rule validate reports first.
def _entries(d, ai):
    return d["applicants"][ai]["list"]


INVARIANT_CASES = {
    "negative max_score and duplicate applicant":
        lambda d: (d.update(max_score=-1), _applicant(d).update(id="a1")),
    "duplicate applicant and score out of range":
        lambda d: (_applicant(d).update(id="a1"), _simple(d).update(score=99)),
    "upper 0 on c2 and lower above upper on c1":
        lambda d: (_college(d).update(upper=0), d["colleges"][0].update(lower=3)),
    "college upper 0 and bad lower group":
        lambda d: (_college(d).update(upper=0), _group(d).update(lower=0)),
    "duplicate rank and score out of range":
        lambda d: _simple(d).update(rank=1, score=99),
    "score out of range before a duplicate rank":
        lambda d: (_entries(d, 0)[0].update(score=99),
                   _entries(d, 0)[1].update(rank=1)),
    "rank 0 and duplicate application":
        lambda d: _simple(d).update(rank=0, college="c1"),
    "pair on one college with its second score out of range":
        lambda d: _pair(d).update(pair=["c1", "c1"], scores=[3, 99]),
    "duplicate pair with a score out of range":
        lambda d: _entries(d, 1).append(
            {"rank": 2, "pair": ["c2", "c1"], "scores": [3, 10]}),
    "inconsistent score at the second college of a pair":
        lambda d: _entries(d, 0).append(
            {"rank": 3, "pair": ["c2", "c1"], "scores": [5, 6]}),
    "inconsistent score before a duplicate pair":
        lambda d: (_entries(d, 0).append(
            {"rank": 3, "pair": ["c2", "c1"], "scores": [4, 6]}),
            _entries(d, 1).append(
            {"rank": 2, "pair": ["c2", "c1"], "scores": [3, 3]})),
    "inconsistent simple score before a duplicate rank":
        lambda d: _entries(d, 1).extend([
            {"rank": 2, "college": "c1", "score": 4},
            {"rank": 2, "college": "c2", "score": 3}]),
    "inconsistent score and unequal scores inside a set":
        lambda d: (_simple(d).update(score=6), _entries(d, 1).append(
            {"rank": 2, "college": "c1", "score": 4})),
    "unequal scores for two applicants inside a set":
        lambda d: (_simple(d).update(score=6),
                   _pair(d).update(scores=[3, 4]),
                   _quota_set(d).update(members=["c2", "c1"])),
    "unequal scores for a later applicant at an earlier member":
        lambda d: (d["colleges"].append({"id": "c3", "upper": 1}),
                   _entries(d, 0).append({"rank": 3, "college": "c3", "score": 7}),
                   _pair(d).update(scores=[3, 4]),
                   _quota_set(d)["members"].append("c3")),
    "unequal scores in a set before a duplicate set id":
        lambda d: (_pair(d).update(scores=[3, 4]), d["common_quotas"].append(
            {"id": "p1", "members": ["c1"], "upper": 1})),
    "quota set upper negative and empty set later":
        lambda d: (_quota_set(d).update(upper=-1), d["common_quotas"].append(
            {"id": "p2", "members": [], "upper": 1})),
    "lower group 0 and duplicate group id":
        lambda d: (_group(d).update(lower=0), d["lower_groups"].append(
            {"id": "g1", "members": ["c1"], "lower": 1})),
}


def invariant_messages() -> dict[str, str]:
    out = {}
    for case, mutate in INVARIANT_CASES.items():
        doc = copy.deepcopy(SCHEMA_BASE)
        mutate(doc)
        try:
            from_document(doc)
        except InvariantError as exc:
            out[f"invariant {case}"] = str(exc)
    return out


def instance_pins() -> dict[str, str]:
    """instance_pins.json: the digest and invariant pins, one flat table."""
    return {**digest_pins(), **invariant_messages()}


INSTANCE_PINS = pins.load("instance_pins.json")


def test_digests_are_pinned():
    """instance_digest on fixtures and generated markets, captured before
    the digest payload was written directly."""
    assert digest_pins() == {key: value for key, value in INSTANCE_PINS.items()
                             if key.startswith("digest ")}


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
def test_first_invariant_error_is_pinned(case):
    """The first InvariantError of a document breaking several rules,
    captured with the digests before validate checked everything in one
    pass."""
    doc = copy.deepcopy(SCHEMA_BASE)
    INVARIANT_CASES[case](doc)
    with pytest.raises(InvariantError) as info:
        from_document(doc)
    assert str(info.value) == INSTANCE_PINS[f"invariant {case}"]


_ids = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\\x00\x1f\x7f \U0001F600')),
               max_size=6)


@st.composite
def _instances(draw) -> Instance:
    """Structurally shaped instances, not necessarily valid: digesting
    needs only ids, member tuples and int fields."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1, 4))
    college = st.integers(0, m - 1)
    num = st.integers(-10**20, 10**20)
    applications = []
    for i in range(n):
        ranks = draw(st.lists(st.integers(1, 9), unique=True, max_size=4))
        for rank in ranks:
            if draw(st.booleans()):
                applications.append(Application(
                    i, rank, (draw(college), draw(college)), (draw(num), draw(num))))
            else:
                applications.append(Application(i, rank, draw(college), draw(num)))
    members = st.lists(college, max_size=3).map(tuple)
    return Instance(
        max_score=draw(num),
        applicants=tuple(draw(st.lists(_ids, min_size=n, max_size=n))),
        colleges=tuple(College(draw(_ids), draw(num), draw(num))
                       for _ in range(m)),
        applications=tuple(applications),
        common_quota_sets=tuple(draw(st.lists(st.builds(
            QuotaSet, _ids, members, num), max_size=3))),
        lower_quota_groups=tuple(draw(st.lists(st.builds(
            LowerGroup, _ids, members, num), max_size=3))),
    )


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_digest_is_sha256_of_the_sorted_compact_document(inst):
    payload = json.dumps(to_document(inst), separators=(",", ":"),
                         sort_keys=True)
    assert instance_digest(inst) == hashlib.sha256(payload.encode()).hexdigest()


def indented_dumps(inst) -> str:
    """The file form as first defined, through the indented json.dumps."""
    return json.dumps(to_document(inst), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_serialize_instance_is_the_indented_document(inst):
    assert serialize_instance(inst) == indented_dumps(inst)


def pinned_instances() -> list[Instance]:
    """Every digest-pinned fixture and generated market."""
    return [load(name) for name in DIGEST_FIXTURES] + [
        generate(GenConfig(seed=seed, **cfg))
        for cfg in DIGEST_PIN_MARKETS.values() for seed in DIGEST_PIN_SEEDS]


def test_serialize_instance_is_the_indented_document_on_pinned_markets():
    for inst in pinned_instances():
        text = serialize_instance(inst)
        assert text == indented_dumps(inst)
        assert parse_instance(text) == inst


def score_table_by_scan(inst):
    """score_table and has_ties as first defined, over all applications."""
    table = {}
    for app in inst.applications:
        for j in app.colleges():
            table[(app.applicant, j)] = app.score_at(j)
    return table, len({(j, s) for (_i, j), s in table.items()}) < len(table)


def test_score_table_and_ties_match_the_scan():
    for inst in pinned_instances():
        table, ties = score_table_by_scan(inst)
        assert list(inst.score_table.items()) == list(table.items())
        assert inst.has_ties == ties


def test_single_college_sets_parse_in_linear_time():
    """8,000 applicants, one application each over 10 colleges, and 800
    single-college quota sets: the equal-score check of a set must not
    scan every applicant once per set."""
    n, m, sets = 8000, 10, 800
    doc = {
        "max_score": n,
        "colleges": [{"id": f"c{j}", "upper": n} for j in range(m)],
        "applicants": [{"id": f"a{i}", "list": [
            {"rank": 1, "college": f"c{i % m}", "score": i}]} for i in range(n)],
        "common_quotas": [{"id": f"p{k}", "members": [f"c{k % m}"], "upper": 1}
                          for k in range(sets)],
    }
    text = json.dumps(doc)
    start = time.perf_counter()
    inst = parse_instance(text)
    assert time.perf_counter() - start < 1.0
    assert len(inst.common_quota_sets) == sets


def test_overlapping_sets_parse_in_linear_time():
    """8,000 applicants, each with equal scores at c0 and c1, and 800 sets
    {c0, c1, c_k}: only applicants holding two different scores can break
    a set, so the equal-score check must not scan every applicant once
    per set."""
    n, sets = 8000, 800
    m = sets + 2
    doc = {
        "max_score": n,
        "colleges": [{"id": f"c{j}", "upper": n} for j in range(m)],
        "applicants": [{"id": f"a{i}", "list": [
            {"rank": 1, "college": "c0", "score": i},
            {"rank": 2, "college": "c1", "score": i}]} for i in range(n)],
        "common_quotas": [{"id": f"p{k}", "members": ["c0", "c1", f"c{k + 2}"],
                           "upper": 1} for k in range(sets)],
    }
    text = json.dumps(doc)
    start = time.perf_counter()
    inst = parse_instance(text)
    assert time.perf_counter() - start < 0.6
    assert len(inst.common_quota_sets) == sets


@pytest.mark.parametrize("bad", [True, 2.5])
@pytest.mark.parametrize("field", ["max_score", "college upper",
                                   "college lower", "rank", "score",
                                   "pair score", "quota set upper",
                                   "group lower"])
def test_non_int_numbers_are_rejected(field, bad):
    base = from_document(copy.deepcopy(SCHEMA_BASE))
    apps = list(base.applications)
    if field == "max_score":
        inst = replace(base, max_score=bad)
    elif field.startswith("college"):
        key = field.split()[1]
        inst = replace(base, colleges=(replace(base.colleges[0], **{key: bad}),)
                       + base.colleges[1:])
    elif field == "rank":
        apps[1] = replace(apps[1], rank=bad)
        inst = replace(base, applications=tuple(apps))
    elif field == "score":
        apps[1] = replace(apps[1], score=bad)
        inst = replace(base, applications=tuple(apps))
    elif field == "pair score":
        apps[2] = replace(apps[2], score=(3, bad))
        inst = replace(base, applications=tuple(apps))
    elif field == "quota set upper":
        inst = replace(base, common_quota_sets=(
            replace(base.common_quota_sets[0], upper=bad),))
    else:
        inst = replace(base, lower_quota_groups=(
            replace(base.lower_quota_groups[0], lower=bad),))
    with pytest.raises(InvariantError, match="int"):
        inst.validate()


# Hostile documents: a valid instance or solution document with up to
# three nodes replaced by an out-of-schema value or deleted.
HOSTILE_VALUES = (None, True, False, 0, -1, 0.5, float("nan"), float("inf"),
                  "", "c1", "a1", [], [1], ["c1", "c2"], {}, {"id": "c1"},
                  10**30)
DELETE = "<delete>"
SOLUTION_BASE = {
    "matching": {"a1": "c1", "a2": ["c1", "c2"]},
    "score_limits": {"c1": 3, "c2": 0},
    "set_limits": {"p1": 2},
    "open": {"c1": True, "c2": False},
    "open_groups": {"g1": True},
}


def _node_paths(node, at=()):
    yield at
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, at + (key,))


@st.composite
def _hostile(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_node_paths(doc))))
        value = draw(st.sampled_from(HOSTILE_VALUES + (DELETE,)))
        if not path:
            doc = doc if value == DELETE else copy.deepcopy(value)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def _run_cli(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _assert_names_its_path(exc: InstanceError) -> None:
    if isinstance(exc, SchemaError):
        assert exc.path and str(exc).startswith(f"{exc.path}: ")


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile")
    (d / "base.json").write_text(json.dumps(SCHEMA_BASE), encoding="utf-8")
    return d


@settings(max_examples=300, deadline=None)
@given(doc=_hostile(SCHEMA_BASE))
def test_hostile_instance_documents_fail_as_instance_errors(hostile_dir, doc):
    """from_document either builds an instance or raises an InstanceError,
    and `validate` on the same file exits 1 with that error's message."""
    try:
        from_document(doc)
        error = None
    except InstanceError as exc:
        _assert_names_its_path(exc)
        error = exc
    path = hostile_dir / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _run_cli("validate", str(path))
    if error is None:
        assert code == 0 and err == ""
    else:
        assert code == 1 and err == f"error: {error}\n"


@settings(max_examples=300, deadline=None)
@given(doc=_hostile(SOLUTION_BASE))
def test_hostile_solution_documents_fail_as_schema_errors(hostile_dir, doc):
    """solution_from_document either builds a solution or raises a
    SchemaError naming its path, and `check` exits 0 or 1 on the file."""
    inst = from_document(copy.deepcopy(SCHEMA_BASE))
    try:
        solution_from_document(inst, doc)
        error = None
    except SchemaError as exc:
        _assert_names_its_path(exc)
        error = exc
    path = hostile_dir / "solution.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for variant in CHECK_VARIANTS:
        code, err = _run_cli("check", "--variant", variant,
                             str(hostile_dir / "base.json"), str(path))
        if error is None:
            assert code in (0, 1)
        else:
            assert code == 1 and err == f"error: {error}\n"
