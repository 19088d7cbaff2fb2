"""Command line surface: reports, exit codes, argument gating."""

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import pins
from conftest import FIXTURE_DIR, fixture_path, fixture_text, grouped_i4b
from stableadmit import (GenConfig, ModelError, Solution, SolverError,
                         build_lower, build_paired_via_common, check,
                         decode_solution, enumerate_feasible, enumerate_stable,
                         extract_solution, generate, gs_scorelimits,
                         parse_instance, serialize_instance,
                         serialize_solution, solution_from_document, solve)
from stableadmit.builders import add_named_objective
from stableadmit.cli import CHECK_VARIANTS, _build, main
from stableadmit.solution import OUTCOME_ROLES

SOLVE_KEYS = ["command", "instance_digest", "variant", "status", "matching",
              "score_limits", "set_limits", "open", "open_groups",
              "objective_values", "verdict", "violations", "preprocess",
              "timing", "solver"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_reports_features(capsys):
    code, doc, _ = run(capsys, "validate", str(fixture_path("PAIR1")))
    assert code == 0
    assert doc["status"] == "valid"
    assert doc["applicants"] == 2 and doc["colleges"] == 2
    assert doc["features"]["paired_applications"] is True
    assert doc["features"]["ties"] is False


def test_validate_rejects_broken_files(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"max_score": 5}', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read" in err
    # a file that is not UTF-8, as an instance and as a solution
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    for argv in (("validate", str(utf16)),
                 ("solve", str(utf16)),
                 ("check", "--variant", "classical", str(fixture_path("I1")),
                  str(utf16))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out is None, argv
        assert err.startswith(f"error: cannot read {utf16}: "), argv
        assert "Traceback" not in err, argv


def test_generate_is_deterministic(capsys, tmp_path):
    args = ("generate", "--n", "4", "--m", "2", "--seed", "7",
            "--tie-density", "0.3")
    code = main(list(args))
    first = capsys.readouterr().out
    assert code == 0
    main(list(args))
    assert capsys.readouterr().out == first

    out = tmp_path / "inst.json"
    code = main(list(args) + ["--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_text(encoding="utf-8") == first
    code, doc, _ = run(capsys, "validate", str(out))
    assert code == 0 and doc["status"] == "valid"


def test_generate_rejects_bad_config(capsys):
    code, _, err = run(capsys, "generate", "--n", "2", "--m", "1",
                       "--list-min", "0")
    assert code == 1
    assert "error:" in err


def test_solve_ties_min_report(capsys):
    code, doc, _ = run(capsys, "solve", str(fixture_path("I3")),
                       "--model", "scorelimits", "--mode", "ties-min")
    assert code == 0
    assert list(doc) == SOLVE_KEYS
    assert doc["variant"] == "scorelimits:ties_min"
    assert doc["status"] == "optimal"
    assert doc["matching"] == {"a1": None, "a2": None}
    assert doc["score_limits"] == {"c1": 6}
    assert doc["objective_values"] == [6]
    assert doc["verdict"] == "stable"
    assert doc["violations"] == []
    assert doc["preprocess"] is None
    assert set(doc["solver"]) == {"status", "nodes"}


def test_solve_infeasible_lower_market_exits_2(capsys):
    code, doc, _ = run(capsys, "solve", str(fixture_path("I5")),
                       "--model", "lower")
    assert code == 2
    assert doc["status"] == "infeasible"
    assert doc["matching"] is None
    assert doc["verdict"] is None


def test_solve_node_cap_zero_exits_1(capsys):
    code, doc, err = run(capsys, "solve", str(fixture_path("I2")),
                         "--node-cap", "0")
    assert code == 1
    assert doc["status"] == "limit_reached"
    assert "hit its cap" in err


def test_capped_lex_solve_keeps_the_first_stage_optimum(capsys, tmp_path):
    # stage 1 (matched) is proved at 3 within the cap; stage 2 is cut short
    market = generate(GenConfig(n=5, m=3, seed=2, list_range=(1, 3),
                                max_score=7, upper_range=(1, 3),
                                lower_range=(1, 2)))
    path = tmp_path / "market.json"
    path.write_text(serialize_instance(market), encoding="utf-8")
    code, doc, _ = run(capsys, "solve", str(path), "--model", "combined",
                       "--mode", "lower", "--group-policy",
                       "drop-with-lex-objective", "--node-cap", "50")
    assert code == 0
    assert doc["status"] == "feasible"
    assert doc["objective_values"] == [3]
    assert doc["matching"] is not None
    assert doc["verdict"] == "unverified"


def test_empty_lex_stage_ends_at_its_first_leaf(capsys):
    # the lower model has no cutoff variables, so stage 2 (total_limits)
    # is a constant and needs no search beyond one leaf
    code, doc, _ = run(capsys, "solve", str(fixture_path("I8")),
                       "--model", "lower", "--objective",
                       "lex-matched-then-limits")
    assert code == 0
    assert doc["status"] == "optimal"
    assert doc["matching"] == {"a1": "c1", "a2": None, "a3": "c2", "a4": "c2"}
    assert doc["objective_values"] == [3, 0]
    assert doc["solver"]["nodes"] == 5


def test_solve_paired_reduction(capsys, tmp_path):
    """The reduction reports its pool cutoffs as score limits, and its
    outcome passes `check` when read back from its own file."""
    code, doc, _ = run(capsys, "solve", str(fixture_path("PAIR1")),
                       "--model", "paired", "--mode", "via-common")
    assert code == 0
    assert doc["variant"] == "paired:via-common"
    assert doc["matching"] == {"a1": None, "a2": "c1"}
    assert (doc["score_limits"], doc["set_limits"]) == ({"c1": 4, "c2": 0}, {})
    assert doc["verdict"] == "stable"
    inst = parse_instance(fixture_text("PAIR1"))
    model = build_paired_via_common(inst)
    sol = extract_solution(model, solve(model).assignment)
    path = tmp_path / "sol.json"
    path.write_text(serialize_solution(inst, sol), encoding="utf-8")
    code, doc, err = run(capsys, "check", "--variant", "paired",
                         str(fixture_path("PAIR1")), str(path))
    assert (code, err, doc["verdict"]) == (0, "", "stable")


def test_solve_paired_explicit(capsys):
    code, doc, _ = run(capsys, "solve", str(fixture_path("PAIRMIX")),
                       "--model", "paired")
    assert code == 0
    assert doc["variant"] == "paired"
    assert doc["matching"] == {"a1": "c1", "a2": "c2"}
    assert doc["score_limits"] == {"c1": 0, "c2": 5}
    assert doc["verdict"] == "stable"


# Each accepted --model, --mode and --group-policy, a fixture it accepts
# and the variant label its reports print.
LABELS = [
    ("I2", "classical", None, None, "classical"),
    ("I2", "classical", "strict", None, "classical"),
    ("I2", "classical", "ties", None, "classical+ties"),
    ("I2", "scorelimits", None, None, "scorelimits:strict"),
    ("I2", "scorelimits", "strict", None, "scorelimits:strict"),
    ("I3", "scorelimits", "ties-min", None, "scorelimits:ties_min"),
    ("I3", "scorelimits", "ties-full", None, "scorelimits:ties_full"),
    ("I4B", "lower", None, None, "lower"),
    ("I4B+group", "lower", None, None, "lower+groups"),
    ("NEST", "common", None, None, "common"),
    ("PAIR1", "paired", None, None, "paired"),
    ("PAIR1", "paired", "explicit", None, "paired"),
    ("PAIR1", "paired", "via-common", None, "paired:via-common"),
    *[("I2", "combined", feats or None, policy,
       f"combined[{feats or 'none'};{(policy or 'enforce').replace('-', '_')}]")
      for feats in ("", "ties", "lower", "common", "ties,lower", "ties,common",
                    "lower,common", "ties,lower,common")
      for policy in (None, "drop-with-lex-objective")],
]


# The combined labels whose ties or lower quotas only the objective closes.
ENUMERATE_REFUSED = {
    "combined[ties,common;enforce]",
    *(f"combined[{feats};drop_with_lex_objective]"
      for feats in ("ties", "lower", "ties,lower", "ties,common",
                    "lower,common", "ties,lower,common")),
}


@pytest.mark.parametrize("fixture,model,mode,policy,label", LABELS,
                         ids=[f"{row[4]}-{row[0]}-{row[2]}" for row in LABELS])
def test_reports_print_the_builders_label(capsys, tmp_path, fixture, model,
                                          mode, policy, label):
    """solve and enumerate print the variant label, and it is the name of
    the model the command built; lower and common quotas together under
    the enforce policy are refused before any label is printed, and
    enumerate refuses, naming the label, the mixes that only their
    objective closes."""
    if fixture == "I4B+group":
        path = tmp_path / "I4B+group.json"
        path.write_text(serialize_instance(grouped_i4b()), encoding="utf-8")
    else:
        path = fixture_path(fixture)
    argv = [str(path), "--model", model, *(["--mode", mode] if mode else []),
            *(["--group-policy", policy] if policy else [])]
    if "lower,common" in label and "enforce" in label:
        for command in ("solve", "enumerate"):
            code, doc, err = run(capsys, command, *argv)
            assert (code, doc) == (1, None) and "incoherent policy" in err
        return
    inst = parse_instance(path.read_text(encoding="utf-8"))
    assert _build(inst, model, mode, policy)[0].name == label
    code, doc, _ = run(capsys, "solve", *argv)
    assert code == 0 and doc["variant"] == label
    code, doc, err = run(capsys, "enumerate", *argv)
    if label in ENUMERATE_REFUSED:
        assert (code, doc) == (1, None) and label in err
    else:
        assert code == 0 and doc["variant"] == label


def test_lower_commands_call_the_builder_at_call_time(capsys, monkeypatch):
    """The CLI looks build_lower up on its module each time, so a wrapper
    set there sees every lower-quota build of solve, enumerate and
    compare."""
    calls = []

    def counting(inst):
        calls.append(inst.n)
        return build_lower(inst)

    monkeypatch.setattr("stableadmit.cli.build_lower", counting)
    path = str(fixture_path("I8"))
    for argv in (["solve", path, "--model", "lower"],
                 ["enumerate", path, "--model", "lower"],
                 ["compare", path]):
        before = len(calls)
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == before + 1, argv[0]


def test_solve_combined_single_feature_gets_full_audit(capsys):
    code, doc, _ = run(capsys, "solve", str(fixture_path("I4B")),
                       "--model", "combined", "--mode", "lower")
    assert code == 0
    assert doc["variant"] == "combined[lower;enforce]"
    assert doc["verdict"] == "stable"
    assert doc["open"] == {"c1": True}


def test_solve_combined_multi_feature_is_marked_unverified(capsys):
    code, doc, _ = run(capsys, "solve", str(fixture_path("I4B")),
                       "--model", "combined", "--mode", "ties,lower")
    assert code == 0
    assert doc["verdict"] == "unverified"


def test_solve_preprocess_report(capsys):
    code, doc, _ = run(capsys, "solve", str(fixture_path("I8")),
                       "--model", "lower", "--preprocess")
    assert code == 0
    assert doc["preprocess"] == {
        "iterations": 2,
        "must_open": ["c1", "c2"],
        "must_close": ["c3"],
        "rounds": [
            {"open": ["c2"], "close": ["c3"]},
            {"open": ["c1", "c2"], "close": ["c3"]},
        ],
    }
    assert doc["verdict"] == "stable"


# Usage errors and a phrase of each message; a fixture name stands for
# its file.
USAGE_ERRORS = [
    (("solve", "I2", "--model", "classical", "--mode", "ties-min"),
     "classical has no mode"),
    (("solve", "I2", "--model", "lower", "--mode", "strict"),
     "takes no --mode"),
    (("solve", "I2", "--model", "scorelimits", "--objective",
      "applicant-optimal"), "classical only"),
    (("solve", "I2", "--model", "combined", "--objective",
      "min-score-limits"), "fixed by the policy"),
    (("solve", "I3", "--model", "scorelimits", "--mode", "ties-min",
      "--objective", "min-score-limits"), "carries its own objective"),
    (("solve", "I2", "--model", "classical", "--objective",
      "lex-matched-then-limits"), "does not apply to classical"),
    (("solve", "I2", "--model", "classical", "--group-policy", "enforce"),
     "--model combined only"),
    (("solve", "I2", "--model", "classical", "--preprocess"),
     "--preprocess"),
    (("solve", "I4B", "--model", "combined", "--mode", "lower",
      "--group-policy", "drop-with-lex-objective", "--preprocess"),
     "enforce policy"),
    (("solve", "I2", "--model", "combined", "--mode", "ties,frobnicate"),
     "unknown combined feature"),
    (("solve", "I2", "--node-cap", "-3"), "--node-cap must not be negative"),
    (("solve", "I2", "--time-cap", "-0.5"), "--time-cap must not be negative"),
    (("enumerate", "I2", "--cap", "-1"), "--cap must not be negative"),
    (("enumerate", "I2", "--node-cap", "-3"),
     "--node-cap must not be negative"),
    (("enumerate", "I2", "--time-cap", "-1"),
     "--time-cap must not be negative"),
    (("compare", "I2", "--node-cap", "-1"), "--node-cap must not be negative"),
    (("generate", "--n", "2", "--m", "1", "--seed", "1", "--out",
      str(fixture_path("I2") / "out.json")), "cannot write"),
    (("solve", "I2", "--time-cap", "nan"), "--time-cap must be a number"),
    (("enumerate", "I2", "--time-cap", "nan"), "--time-cap must be a number"),
    (("compare", "I2", "--time-cap", "nan"), "--time-cap must be a number"),
    (("solve", "I2", "--model", "scorelimits", "--mode", "frob"),
     "scorelimits has no mode"),
    (("solve", "I2", "--model", "common", "--mode", "nested"),
     "model common takes no --mode"),
    (("solve", "I2", "--model", "paired", "--mode", "frob"),
     "paired has no mode"),
    (("solve", "I8", "--model", "lower", "--objective", "min-score-limits"),
     "min-score-limits needs a score-limit model"),
]


@pytest.mark.parametrize("argv,needle", USAGE_ERRORS)
def test_usage_errors_exit_1(capsys, argv, needle):
    argv = [str(fixture_path(a)) if a in ("I2", "I3", "I4B", "I8") else a
            for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert needle in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error:" in err


def test_enumerate_strict_cutoffs(capsys):
    # c1 admits a1 at any limit from 4 to 7; the listing names the matching
    # once, with its least limit
    code, doc, _ = run(capsys, "enumerate", str(fixture_path("I2")),
                       "--model", "scorelimits", "--mode", "strict")
    assert code == 0
    assert doc["count"] == 1
    assert doc["truncated"] is False
    assert doc["solutions"] == [{"matching": {"a1": "c1", "a2": None},
                                 "score_limits": {"c1": 4}}]


# Three applicants and three one-seat colleges whose preferences form a
# Latin square: three stable matchings, one per cyclic shift.
LATIN = {
    "max_score": 3,
    "colleges": [{"id": c, "upper": 1} for c in ("c1", "c2", "c3")],
    "applicants": [
        {"id": "a1", "list": [{"rank": 1, "college": "c1", "score": 1},
                              {"rank": 2, "college": "c2", "score": 2},
                              {"rank": 3, "college": "c3", "score": 3}]},
        {"id": "a2", "list": [{"rank": 1, "college": "c2", "score": 1},
                              {"rank": 2, "college": "c3", "score": 2},
                              {"rank": 3, "college": "c1", "score": 3}]},
        {"id": "a3", "list": [{"rank": 1, "college": "c3", "score": 1},
                              {"rank": 2, "college": "c1", "score": 2},
                              {"rank": 3, "college": "c2", "score": 3}]},
    ],
}


def test_enumerate_cap_truncates(capsys, tmp_path):
    path = write_json(tmp_path, "latin.json", LATIN)
    argv = ("enumerate", path, "--model", "scorelimits", "--mode", "strict")
    code, doc, _ = run(capsys, *argv)
    assert (code, doc["count"], doc["truncated"]) == (0, 3, False)
    assert len({json.dumps(sol["matching"], sort_keys=True)
                for sol in doc["solutions"]}) == 3
    code, doc, _ = run(capsys, *argv, "--cap", "2")
    assert code == 0
    assert doc["count"] == 2 and doc["truncated"] is True


def test_enumerate_refuses_a_mix_only_its_objective_closes(capsys):
    """On NEST, combined ties,common used to list 183 entries over three
    matchings, two of them unstable under the common variant; common
    alone lists its one stable matching."""
    path = str(fixture_path("NEST"))
    code, doc, err = run(capsys, "enumerate", path, "--model", "combined",
                         "--mode", "ties,common")
    assert (code, doc) == (1, None)
    assert err == ("error: enumerate cannot list combined[ties,common;enforce]:"
                   " its outcomes are closed by an objective, which enumerate"
                   " ignores\n")
    code, doc, _ = run(capsys, "enumerate", path, "--model", "common")
    assert code == 0 and len({json.dumps(sol["matching"], sort_keys=True)
                              for sol in doc["solutions"]}) == 1


def test_strict_listing_equals_the_ties_full_listing(capsys, tmp_path):
    """On strict markets the ties-full model closes each matching's
    cutoffs at their least, so its listing is the strict listing:
    matchings and cutoffs."""
    path = tmp_path / "market.json"
    entries = 0
    for seed in range(300):
        inst = generate(GenConfig(n=8, m=4, seed=seed, list_range=(1, 3),
                                  max_score=10, upper_range=(1, 2)))
        assert not inst.has_ties
        path.write_text(serialize_instance(inst), encoding="utf-8")
        listings = []
        for mode in ("strict", "ties-full"):
            code, doc, _ = run(capsys, "enumerate", str(path),
                               "--model", "scorelimits", "--mode", mode)
            assert (code, doc["truncated"]) == (0, False)
            listings.append(sorted(json.dumps(sol, sort_keys=True)
                                   for sol in doc["solutions"]))
        assert listings[0] == listings[1], seed
        entries += len(listings[0])
    assert entries >= 300


# The labels whose matchings admit many cutoff vectors, each with its
# (model, mode, policy), the features of the tiny markets it lists and
# the check variants that judge its outcomes; the first is the oracle
# plan of the label.
LEAST_CUTOFF_LABELS = {
    "scorelimits:strict": (("scorelimits", "strict", None), {},
                           ("classical", "scorelimits")),
    "common": (("common", None, None),
               dict(topology="nested", set_count=2), ("common",)),
    "paired": (("paired", "explicit", None), dict(pair_prob=0.3),
               ("paired",)),
    "paired:via-common": (("paired", "via-common", None),
                          dict(pair_prob=0.3), ("paired",)),
    "combined[common;enforce]": (("combined", "common", None),
                                 dict(topology="nested", set_count=2),
                                 ("common",)),
    "combined[common;drop_with_lex_objective]": (
        ("combined", "common", "drop-with-lex-objective"),
        dict(topology="nested", set_count=2), ("common",)),
}


def least_cutoff_listings(capsys, tmp_path, label):
    """(instance, market path, enumerate report) on 30 tiny markets of the
    label, at most 16 applications each."""
    (model, mode, policy), features, _ = LEAST_CUTOFF_LABELS[label]
    argv = ["--model", model, *(["--mode", mode] if mode else []),
            *(["--group-policy", policy] if policy else [])]
    for seed in range(30):
        inst = generate(GenConfig(**{
            "n": 5, "m": 3, "seed": seed, "list_range": (1, 3),
            "max_score": 6, "upper_range": (1, 2), **features}))
        assert len(inst.applications) <= 16
        path = tmp_path / f"tiny{seed}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        code, doc, err = run(capsys, "enumerate", str(path), *argv)
        assert (code, err, doc["variant"], doc["truncated"]) == (
            0, "", label, False), seed
        yield inst, str(path), doc


@pytest.mark.parametrize("label", sorted(LEAST_CUTOFF_LABELS))
def test_listing_names_each_matching_once(capsys, tmp_path, label):
    """enumerate lists each stable matching of the label's oracle plan
    once, and every outcome, read back from its own file through check,
    is stable under each variant that judges the label."""
    variants = LEAST_CUTOFF_LABELS[label][2]
    entries = 0
    for inst, path, doc in least_cutoff_listings(capsys, tmp_path, label):
        matchings = [json.dumps(sol["matching"], sort_keys=True)
                     for sol in doc["solutions"]]
        assert doc["count"] == len(matchings) == len(set(matchings)), path
        oracle = enumerate_stable(inst, CHECK_VARIANTS[variants[0]])
        assert set(matchings) == {json.dumps(s.matching_by_ids(inst),
                                             sort_keys=True)
                                  for s in oracle.solutions}, path
        for sol in doc["solutions"]:
            outcome = write_json(tmp_path, "outcome.json", sol)
            for variant in variants:
                code, report, _ = run(capsys, "check", "--variant", variant,
                                      path, outcome)
                assert (code, report["verdict"]) == (0, "stable"), (
                    path, variant, sol)
        entries += len(matchings)
    assert entries >= 30


@pytest.mark.parametrize("label", sorted(LEAST_CUTOFF_LABELS))
def test_listed_cutoffs_are_the_least_for_their_matching(capsys, tmp_path,
                                                         label):
    """Each listed cutoff total is solve's min-score-limits optimum over
    the label's model with the listed matching fixed."""
    model_name, mode, policy = LEAST_CUTOFF_LABELS[label][0]
    for inst, _path, doc in least_cutoff_listings(capsys, tmp_path, label):
        for listed in doc["solutions"]:
            sol = solution_from_document(inst, listed)
            model, _ = _build(inst, model_name, mode, policy)
            model.objectives.clear()
            for var in model.vars_by_role("assign"):
                i, target = var.key
                value = int(sol.matching.get(i) == target)
                model.variables[var.name] = var._replace(lo=value, hi=value)
            add_named_objective(inst, model, "min_score_limits")
            res = solve(model)
            total = sum(sol.score_limits.values()) + sum(
                sol.set_limits.values())
            assert (res.status, res.objective_values) == (
                "optimal", [total]), (label, listed)


def test_a_cap_inside_a_completion_lists_no_unfinished_outcome(capsys,
                                                               tmp_path):
    """A node cap that stops the least-cutoff completion of a matching
    marks the listing truncated and drops that matching: every entry a
    capped listing prints is an entry of the full listing. On this
    market some caps stop a completion at cutoffs above the least."""
    inst = generate(GenConfig(n=5, m=3, seed=2, list_range=(1, 3),
                              max_score=6, upper_range=(1, 2), pair_prob=0.3))
    path = tmp_path / "market.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    argv = ("enumerate", str(path), "--model", "paired")
    code, full, _ = run(capsys, *argv)
    assert (code, full["truncated"]) == (0, False)
    nodes = full["solver"]["nodes"]
    for cap in range(nodes):
        code, doc, _ = run(capsys, *argv, "--node-cap", str(cap))
        assert (code, doc["truncated"]) == (0, True), cap
        assert all(sol in full["solutions"] for sol in doc["solutions"]), cap
    code, doc, _ = run(capsys, *argv, "--node-cap", str(nodes))
    assert _unstamped(doc) == _unstamped(full)


# Tiny markets of four kinds: plain, tied, with lower quotas and nested.
AUDIT_MARKETS = {
    "plain": {},
    "tied": dict(tie_density=0.5, max_score=3),
    "lower": dict(lower_range=(0, 2)),
    "nested": dict(topology="nested", set_count=2),
}
# Each combined mode enumerate keeps, and the oracle variant that judges
# its outcomes; ties,lower has no variant on tied markets.
AUDIT_MODES = {
    (None, None): "classical",
    ("ties", None): "scorelimits_H",
    ("lower", None): "lower",
    ("common", None): "common",
    ("ties,lower", None): "lower",
    (None, "drop-with-lex-objective"): "classical",
    ("common", "drop-with-lex-objective"): "common",
}


def test_enumerate_lists_only_stable_outcomes_of_the_combined_modes_it_keeps():
    """Every outcome enumerate lists, projected and decoded as it does,
    gets "stable" from the variant that judges the market."""
    audited = 0
    for kind, features in AUDIT_MARKETS.items():
        for seed in range(40):
            inst = generate(GenConfig(
                **{"n": 5, "m": 3, "seed": seed, "list_range": (1, 3),
                   "max_score": 6, "upper_range": (1, 2), **features}))
            for (mode, policy), variant in AUDIT_MODES.items():
                if mode == "ties,lower" and inst.has_ties:
                    continue
                try:
                    model, _ = _build(inst, "combined", mode, policy)
                except ModelError:
                    continue
                projection = [v.name for v in model.variables.values()
                              if v.role in OUTCOME_ROLES]
                res = enumerate_feasible(model, projection)
                assert not res.truncated
                for values in res.projections:
                    sol = decode_solution(model, values)
                    assert check(inst, sol, variant).verdict == "stable", \
                        (kind, seed, model.name)
                audited += len(res.projections)
    assert audited > 5000


@pytest.mark.parametrize("n,m", [(0, 2), (3, 0)])
@pytest.mark.parametrize("model", ["classical", "scorelimits", "lower",
                                   "common", "paired"])
def test_enumerate_a_market_without_applications(capsys, tmp_path, n, m,
                                                 model):
    """A model with no outcome variable lists its one outcome, as the
    oracle does, and solve finds it feasible."""
    path = str(tmp_path / "empty.json")
    assert run(capsys, "generate", "--n", str(n), "--m", str(m), "--seed",
               "1", "--out", path)[0] == 0
    inst = parse_instance(Path(path).read_text(encoding="utf-8"))
    plan = _build(inst, model, None, None)[1]
    assert len(enumerate_stable(inst, plan).solutions) == 1
    code, doc, err = run(capsys, "enumerate", path, "--model", model)
    assert (code, err, doc["count"], doc["truncated"]) == (0, "", 1, False)
    code, doc, _ = run(capsys, "solve", path, "--model", model)
    assert (code, doc["status"], doc["verdict"]) == (0, "feasible", "stable")


def test_check_flags_a_blocking_pair(capsys, tmp_path):
    sol = write_json(tmp_path, "sol.json",
                     {"matching": {"a1": None, "a2": "c1"}})
    code, doc, _ = run(capsys, "check", "--variant", "classical",
                       str(fixture_path("I2")), sol)
    assert code == 0
    assert doc["verdict"] == "unstable"
    assert doc["violations"][0]["kind"] == "blocking_pair"
    assert doc["violations"][0]["subject"] == {"applicant": "a1",
                                               "college": "c1"}


def test_check_derives_matching_from_limits(capsys, tmp_path):
    sol = write_json(tmp_path, "limits.json", {"score_limits": {"c1": 4}})
    code, doc, _ = run(capsys, "check", "--variant", "scorelimits",
                       str(fixture_path("I2")), sol)
    assert code == 0
    assert doc["verdict"] == "stable"

    partial = write_json(tmp_path, "partial.json",
                         {"score_limits": {"c1": 4}})
    code, _, err = run(capsys, "check", "--variant", "scorelimits",
                       str(fixture_path("TWO")), partial)
    assert code == 1
    assert err == "error: missing score limit for college c2\n"


def test_limits_only_solution_round_trips_through_its_file(capsys, tmp_path):
    """A solution holding score limits and no matching is written without
    a matching section, so the file reads back as the same solution and
    both the library and `check --variant scorelimits` find it stable."""
    inst = generate(GenConfig(n=6, m=2, seed=3, list_range=(1, 2),
                              max_score=9, upper_range=(1, 2)))
    _matching, limits = gs_scorelimits(inst, "applicant")
    sol = Solution(matching={}, score_limits=limits.limits)
    assert check(inst, sol, "scorelimits_H").verdict == "stable"
    text = serialize_solution(inst, sol)
    assert "matching" not in json.loads(text)
    back = solution_from_document(inst, json.loads(text))
    assert back == sol
    assert check(inst, back, "scorelimits_H").verdict == "stable"
    market = tmp_path / "market.json"
    market.write_text(serialize_instance(inst), encoding="utf-8")
    limits_file = tmp_path / "limits.json"
    limits_file.write_text(text, encoding="utf-8")
    code, doc, err = run(capsys, "check", "--variant", "scorelimits",
                         str(market), str(limits_file))
    assert (code, err, doc["verdict"]) == (0, "", "stable")


def test_limits_only_outcome_lists_no_matching(capsys, tmp_path):
    # the only applicant lists no college, so the outcome is its cutoff
    market = write_json(tmp_path, "market.json", {
        "max_score": 3, "colleges": [{"id": "c1", "upper": 1}],
        "applicants": [{"id": "a1", "list": []}]})
    code, doc, _ = run(capsys, "solve", market, "--model", "scorelimits")
    assert code == 0 and doc["verdict"] == "stable"
    assert (doc["matching"], doc["score_limits"]) == ({}, {"c1": 0})
    code, doc, _ = run(capsys, "enumerate", market, "--model", "scorelimits",
                       "--mode", "ties-full")
    assert code == 0
    assert doc["solutions"] == [{"score_limits": {"c1": 0}}]


def test_check_limits_only_on_paired_market_is_refused(capsys, tmp_path):
    limits = write_json(tmp_path, "limits.json",
                        {"score_limits": {"c1": 1, "c2": 1}})
    code, doc, err = run(capsys, "check", "--variant", "scorelimits",
                         str(fixture_path("PAIR1")), limits)
    assert code == 1
    assert doc is None
    assert err == "error: score-limit variant needs simple applications\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("limit,kind", [
    (5, "reducible_score_limit"),
    (8, "unfilled_positive_limit"),
])
def test_check_limits_only_file_that_can_drop_a_limit(capsys, tmp_path, limit,
                                                      kind):
    sol = write_json(tmp_path, "limits.json", {"score_limits": {"c1": limit}})
    code, doc, _ = run(capsys, "check", "--variant", "scorelimits",
                       str(fixture_path("I2")), sol)
    assert code == 0
    assert doc["verdict"] == "unstable"
    assert [v["kind"] for v in doc["violations"]] == [kind]


@pytest.mark.parametrize("section", [None, {}])
def test_check_null_or_empty_matching_means_unmatched(capsys, tmp_path,
                                                      section):
    # the limit admits a1, so an all-unmatched claim is refused
    sol = write_json(tmp_path, "sol.json",
                     {"matching": section, "score_limits": {"c1": 4}})
    code, doc, err = run(capsys, "check", "--variant", "scorelimits",
                         str(fixture_path("I2")), sol)
    assert code == 1 and doc is None
    assert err == ("error: matching is not the one the score limits "
                   "admit\n")
    # a limit above every score admits nobody, which the claim matches
    sol = write_json(tmp_path, "sol.json",
                     {"matching": section, "score_limits": {"c1": 8}})
    code, doc, _ = run(capsys, "check", "--variant", "scorelimits",
                       str(fixture_path("I2")), sol)
    assert code == 0
    assert [v["kind"] for v in doc["violations"]] == [
        "unfilled_positive_limit"]


@pytest.mark.parametrize("kind", ["instance", "solution"])
def test_deeply_nested_json_is_invalid_json(capsys, tmp_path, kind):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    if kind == "instance":
        argv, where = ("validate", str(deep)), "$"
    else:
        argv = ("check", "--variant", "classical", str(fixture_path("I2")),
                str(deep))
        where = str(deep)
    code, doc, err = run(capsys, *argv)
    assert code == 1 and doc is None
    assert err.startswith(f"error: {where}: invalid JSON")
    assert "Traceback" not in err


def test_check_rejects_malformed_solution_files(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope", encoding="utf-8")
    code, _, err = run(capsys, "check", "--variant", "classical",
                       str(fixture_path("I2")), str(garbled))
    assert code == 1
    assert "error:" in err


def test_check_refuses_an_unknown_solution_section(capsys, tmp_path):
    sol = write_json(tmp_path, "sol.json",
                     {"matching": {"a1": None, "a2": None}, "bogus": {}})
    code, doc, err = run(capsys, "check", "--variant", "classical",
                         str(fixture_path("I2")), sol)
    assert (code, doc) == (1, None)
    assert err == "error: $.bogus: unknown solution section\n"


# One document per rule of Instance.validate on quota sets and lower
# groups that the document reader leaves to it; each breaks that rule only.
_TWO_COLLEGES = {
    "max_score": 5,
    "colleges": [{"id": "c1", "upper": 1}, {"id": "c2", "upper": 1}],
    "applicants": [{"id": "a1", "list": [
        {"rank": 1, "college": "c1", "score": 3}]}],
}


@pytest.mark.parametrize("extra,message", [
    pytest.param({"common_quotas": [
        {"id": "s1", "members": ["c1", "c2"], "upper": 1},
        {"id": "s1", "members": ["c1", "c2"], "upper": 1}]},
        "duplicate quota set id s1", id="quota-set-id"),
    pytest.param({"lower_groups": [
        {"id": "g1", "members": ["c1"], "lower": 1},
        {"id": "g1", "members": ["c2"], "lower": 1}]},
        "duplicate lower group id g1", id="group-id"),
    pytest.param({"common_quotas": [
        {"id": "s1", "members": ["c1", "c1"], "upper": 1}]},
        "quota set s1: duplicate member", id="quota-set-member"),
    pytest.param({"lower_groups": [
        {"id": "g1", "members": ["c1", "c1"], "lower": 1}]},
        "lower group g1: duplicate member", id="group-member"),
])
def test_validate_names_the_duplicate(capsys, tmp_path, extra, message):
    path = write_json(tmp_path, "inst.json", {**_TWO_COLLEGES, **extra})
    code, doc, err = run(capsys, "validate", path)
    assert (code, doc) == (1, None)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fixture,doc,message", [
    pytest.param("I2", {"matching": {"a1": "zz"}},
                 "$.matching.a1: unknown college 'zz'", id="matching"),
    pytest.param("PAIR1", {"matching": {"a1": ["zz", "c2"]}},
                 "$.matching.a1[0]: unknown college 'zz'", id="pair-first"),
    pytest.param("PAIR1", {"matching": {"a1": ["c1", "zz"]}},
                 "$.matching.a1[1]: unknown college 'zz'", id="pair-second"),
    pytest.param("PAIR1", {"matching": {"a1": ["c1", ["c2"]]}},
                 "$.matching.a1[1]: unknown college ['c2']",
                 id="pair-unhashable"),
    pytest.param("I2", {"score_limits": {"zz": 4}},
                 "$.score_limits.zz: unknown college 'zz'", id="score_limits"),
    pytest.param("I2", {"open": {"zz": True}},
                 "$.open.zz: unknown college 'zz'", id="open"),
])
def test_check_names_the_path_of_an_unknown_college(capsys, tmp_path,
                                                     fixture, doc, message):
    sol = write_json(tmp_path, "sol.json", doc)
    code, _, err = run(capsys, "check", "--variant", "classical",
                       str(fixture_path(fixture)), sol)
    assert code == 1
    assert err == f"error: {message}\n"


def test_compare_exposes_unstable_heuristic(capsys):
    code, doc, _ = run(capsys, "compare", str(fixture_path("I8")))
    assert code == 0
    assert doc["heuristic"]["verdict"] == "unstable"
    # the heuristic also closes c1, which every stable outcome opens
    assert doc["heuristic"]["closed"] == ["c1", "c3"]
    assert doc["ip"]["status"] == "feasible"
    assert doc["ip"]["verdict"] == "stable"
    assert doc["ip"]["open"] == {"c1": True, "c2": True, "c3": False}


def test_compare_cap_hit_first_says_so(capsys):
    code, doc, err = run(capsys, "compare", str(fixture_path("I8")),
                         "--node-cap", "0")
    assert code == 1
    assert doc["ip"]["status"] == "limit_reached"
    assert doc["ip"]["matching"] is None
    assert err == "error: search hit its cap before finding a solution\n"


def test_compare_reports_empty_stable_set(capsys):
    code, doc, _ = run(capsys, "compare", str(fixture_path("I5")))
    assert code == 2
    assert doc["ip"]["status"] == "infeasible"
    assert doc["ip"]["matching"] is None


def test_compare_refuses_a_grouped_market(capsys, tmp_path):
    path = tmp_path / "I4B+group.json"
    path.write_text(serialize_instance(grouped_i4b()), encoding="utf-8")
    code, doc, err = run(capsys, "compare", str(path))
    assert (code, doc) == (1, None)
    assert err == ("error: lower_quota_heuristic: lower-quota groups "
                   "present\n")


def test_solver_inconsistency_exits_3(capsys, monkeypatch):
    def inconsistent(model, **caps):
        raise SolverError("leaf breaks row r1")

    monkeypatch.setattr("stableadmit.cli.solve", inconsistent)
    code, doc, err = run(capsys, "solve", str(fixture_path("I2")))
    assert (code, doc) == (3, None)
    assert err == "error: internal solver inconsistency: leaf breaks row r1\n"


@pytest.mark.parametrize("launcher", [
    pytest.param([sys.executable, "-m", "stableadmit.cli"], id="module"),
    pytest.param(["stableadmit"], id="script", marks=pytest.mark.skipif(
        shutil.which("stableadmit") is None,
        reason="console script not on PATH")),
])
def test_console_script_round_trip(launcher):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [*launcher, "solve", str(fixture_path("I3")),
         "--model", "scorelimits", "--mode", "ties-min"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["score_limits"] == {"c1": 6}
    assert fixture_text("I3")  # fixture unchanged by the run


def _unstamped(doc):
    """A report without the fields that echo the argv and time the run."""
    return {k: v for k, v in doc.items() if k not in ("command", "timing")}


def _main_outcome(capsys, argv):
    """Exit code (or SystemExit), stdout without timing, and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    try:
        doc = json.loads(captured.out)
    except json.JSONDecodeError:
        out = captured.out
    else:
        out = {k: v for k, v in doc.items() if k != "timing"}
    return code, out, captured.err


def test_main_calls_share_no_state(capsys, tmp_path):
    # main reuses one parser per process, so no call may leave anything
    # behind that changes a later call: run the list forward, then reversed
    i1, i2, i4b, i8 = (str(fixture_path(n)) for n in ("I1", "I2", "I4B", "I8"))
    sol = write_json(tmp_path, "sol.json",
                     {"matching": {"a1": None, "a2": "c1"}})
    argvs = [
        ("solve", i8, "--model", "lower", "--preprocess"),
        ("solve", i8, "--model", "lower"),
        ("solve", i2, "--no-such-flag"),
        ("enumerate", i2, "--model", "scorelimits", "--mode", "strict",
         "--cap", "1"),
        ("enumerate", i2, "--model", "scorelimits", "--mode", "strict"),
        ("enumerate", i2, "--cap", "-1"),
        ("solve", i1, "--objective", "applicant-optimal"),
        ("solve", i1),
        ("frobnicate",),
        ("solve", i4b, "--model", "combined", "--mode", "lower",
         "--group-policy", "drop-with-lex-objective"),
        ("solve", i4b, "--model", "combined", "--mode", "lower"),
        ("validate", i8),
        ("check", "--variant", "classical", i2, sol),
        ("compare", i8),
        ("generate", "--n", "3", "--m", "2", "--seed", "1"),
        ("--help",),
        ("solve", "--help"),
    ]
    forward = [_main_outcome(capsys, argv) for argv in argvs]
    backward = [_main_outcome(capsys, argv) for argv in reversed(argvs)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [
        0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0,
        "SystemExit(0)", "SystemExit(0)"]
    assert forward[0][1]["preprocess"] is not None
    assert forward[1][1]["preprocess"] is None
    assert (forward[3][1]["count"], forward[4][1]["count"]) == (1, 1)
    assert forward[-2][1].startswith("usage: stableadmit [-h]")
    assert forward[-1][1].startswith("usage: stableadmit solve [-h]")


# Generated markets for the cap test, one kind per command: strict scores,
# tied scores, and either with lower quotas.
_STRICT = dict(n=8, m=3, list_range=(1, 3), max_score=20, upper_range=(1, 3))
_TIED = dict(_STRICT, max_score=4, tie_density=0.5)
_LOWER = dict(_STRICT, lower_range=(0, 2))
_TIED_LOWER = dict(_TIED, lower_range=(0, 2))
_CAP_CASES = [
    (("--model", "classical", "--objective", "applicant-optimal"), _STRICT),
    (("--model", "classical", "--objective", "applicant-pessimal"), _STRICT),
    (("--model", "scorelimits", "--mode", "ties-min"), _TIED),
    (("--model", "scorelimits", "--objective", "min-score-limits"), _STRICT),
    (("--model", "lower", "--objective", "lex-matched-then-limits"), _LOWER),
    (("--model", "combined", "--mode", "lower",
      "--group-policy", "drop-with-lex-objective"), _LOWER),
    (("--model", "combined", "--mode", "ties,lower",
      "--group-policy", "drop-with-lex-objective"), _TIED_LOWER),
]


@pytest.mark.parametrize("command, market", _CAP_CASES,
                         ids=[" ".join(command[1::2]) for command, _ in _CAP_CASES])
def test_optimal_reports_do_not_depend_on_caps(capsys, tmp_path, command, market):
    """An optimal report is the same under a node cap of its own node
    count, a generous time cap and both, and a node cap one below its count
    stops it short of optimal: on the fixtures and on 12 seeded markets of
    the kind the command applies to."""
    def proves(path) -> bool:
        argv = ("solve", str(path), *command)
        code, doc, _ = run(capsys, *argv)
        if doc is None or doc["status"] != "optimal":
            return False
        nodes = doc["solver"]["nodes"]
        for caps in (("--node-cap", str(nodes)), ("--time-cap", "1000"),
                     ("--node-cap", str(nodes), "--time-cap", "1000")):
            capped_code, capped, _ = run(capsys, *argv, *caps)
            assert capped_code == code, (path.stem, caps)
            assert _unstamped(capped) == _unstamped(doc), (path.stem, caps)
        _, short, _ = run(capsys, *argv, "--node-cap", str(nodes - 1))
        assert short["status"] != "optimal", path.stem
        return True

    assert sum(map(proves, sorted(FIXTURE_DIR.glob("*.json")))) >= 4
    generated = 0
    for seed in range(12):
        inst = generate(GenConfig(seed=seed, **market))
        assert inst.has_ties == ("tie_density" in market), seed
        assert inst.has_lower_quotas == ("lower_range" in market), seed
        path = tmp_path / f"gen{seed}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        generated += proves(path)
    assert generated >= 10


def test_unverified_audit_failure_lists_the_breach(capsys, monkeypatch):
    # a broken extraction over-fills c2 (two seats) with every applicant
    # that lists it; the quota audit must exit 3 and report the breach
    import stableadmit.cli as cli
    inst = cli.parse_instance(fixture_text("I8"))
    c2 = inst.college_index("c2")
    real = cli.extract_solution

    def overfilled(model, assignment):
        sol = real(model, assignment)
        matching = dict(sol.matching)
        for app in inst.seats_at[c2]:
            matching[app.applicant] = c2
        return replace(sol, matching=matching,
                       open_colleges={**sol.open_colleges, c2: True})

    monkeypatch.setattr(cli, "extract_solution", overfilled)
    code, doc, err = run(capsys, "solve", str(fixture_path("I8")),
                         "--model", "combined", "--mode", "lower",
                         "--group-policy", "drop-with-lex-objective")
    assert code == 3
    assert doc["verdict"] == "unverified"
    # moving a1 and a3 off c1 also leaves that open college short
    assert doc["violations"] == [
        {"kind": "quota_breach", "subject": {"college": "c1"},
         "detail": "open college admits 0, lower quota 1"},
        {"kind": "quota_breach", "subject": {"college": "c2"},
         "detail": "4 admitted with 2 seats"}]
    assert err == ("error: solver result fails the oracle audit: open college "
                   "admits 0, lower quota 1; 4 admitted with 2 seats\n")


def deep_nested_market(tmp_path) -> str:
    # a near-straight dive of more than a thousand levels
    market = generate(GenConfig(n=200, m=10, seed=1, list_range=(1, 3),
                                max_score=400, upper_range=(1000, 1000),
                                topology="nested", set_count=3))
    path = tmp_path / "deep.json"
    path.write_text(serialize_instance(market), encoding="utf-8")
    return str(path)


def test_deep_nested_common_solve_finishes(capsys, tmp_path):
    code, doc, _ = run(capsys, "solve", deep_nested_market(tmp_path),
                       "--model", "common")
    assert code == 0
    assert doc["verdict"] == "stable"


def test_deep_nested_common_enumerate_finishes(capsys, tmp_path):
    code, doc, _ = run(capsys, "enumerate", deep_nested_market(tmp_path),
                       "--model", "common", "--cap", "1")
    assert code == 0
    assert doc["count"] == 1


# Report pins: the exit code, stdout and stderr of a fixed argv set, run
# from the repository root with relative fixture paths so the echoed
# command is stable. Captured with tests/pins.py.
REPO_ROOT = Path(__file__).resolve().parents[1]
CLI_PINS = pins.load("cli_pins.json")

# The argv of each row of LABELS: every --model and --mode of the README
# table, and every combined mix under both group policies.
MODEL_ARGVS = list(dict.fromkeys(
    ("--model", model, *(("--mode", mode) if mode else ()),
     *(("--group-policy", policy) if policy else ()))
    for _, model, mode, policy, _ in LABELS))


def cli_pin_argvs() -> list[tuple[str, ...]]:
    fixtures = sorted(p.relative_to(REPO_ROOT).as_posix()
                      for p in FIXTURE_DIR.glob("*.json"))
    relative = str(FIXTURE_DIR.relative_to(REPO_ROOT))
    argvs = []
    for path in fixtures:
        argvs += [("validate", path), ("compare", path)]
        for model in MODEL_ARGVS:
            argvs += [("solve", path, *model),
                      ("enumerate", path, *model, "--cap", "100")]
    for argv, _ in USAGE_ERRORS:
        argvs.append(tuple(
            f"{relative}/{a}.json" if a in ("I2", "I3", "I4B", "I8")
            else a.replace(str(FIXTURE_DIR), relative) for a in argv))
    return argvs


def cli_pin_digest(argv) -> str:
    """sha256 of the exit code, stdout with timing.seconds set to 0, and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = re.sub(r'("seconds": )[^,}\n]+', r"\g<1>0", out.getvalue())
    blob = json.dumps([code, text, err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cli_pin_digests() -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return {" ".join(argv): cli_pin_digest(argv)
                for argv in cli_pin_argvs()}
    finally:
        os.chdir(cwd)


def test_cli_reports_match_their_pins():
    got = cli_pin_digests()
    assert sorted(got) == sorted(CLI_PINS)
    assert [k for k in got if got[k] != CLI_PINS[k]] == []
