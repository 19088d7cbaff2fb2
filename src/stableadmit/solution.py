"""Solution container shared by the IP extraction path, the combinatorial
algorithms and the stability oracle, and its id-based file form: a
matching, then the sections of SECTIONS, the one table that the writer,
the reader, model decoding and the command line loop over. The file of a
limits-only solution (empty matching, score limits present) has no
matching; the score-limit check reads it off the limits."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .instance import Instance, SchemaError, Target


@dataclass
class Solution:
    """One admission outcome.

    matching maps every applicant index to a college index, an ordered pair
    of college indices, or None. score_limits / set_limits hold cutoff
    values per college index / quota-set id where the producing model used
    them. open_colleges marks open (True) and closed (False) colleges for
    lower-quota variants.
    """

    matching: dict[int, Target | None]
    score_limits: dict[int, int] = field(default_factory=dict)
    set_limits: dict[str, int] = field(default_factory=dict)
    open_colleges: dict[int, bool] = field(default_factory=dict)
    open_groups: dict[str, bool] = field(default_factory=dict)

    def intake(self, inst: Instance) -> list[int]:
        """Seats taken per college; a paired match takes one seat at each."""
        counts = [0] * inst.m
        for target in self.matching.values():
            if target is None:
                continue
            if isinstance(target, tuple):
                for j in target:
                    counts[j] += 1
            else:
                counts[target] += 1
        return counts

    def matching_by_ids(self, inst: Instance) -> dict[str, object]:
        out: dict[str, object] = {}
        for i, aid in enumerate(inst.applicants):
            target = self.matching.get(i)
            if target is None:
                out[aid] = None
            elif isinstance(target, tuple):
                out[aid] = [inst.colleges[target[0]].id, inst.colleges[target[1]].id]
            else:
                out[aid] = inst.colleges[target].id
        return out


class Section(NamedTuple):
    key: str      # document key
    field: str    # Solution field
    role: str     # model variable role carrying its values
    keys: str     # college (index, written as its id) | quota set | group (ids)
    value: type   # int | bool


SECTIONS = (
    Section("score_limits", "score_limits", "limit", "college", int),
    Section("set_limits", "set_limits", "set_limit", "quota set", int),
    Section("open", "open_colleges", "open", "college", bool),
    Section("open_groups", "open_groups", "group_open", "group", bool),
)
DOCUMENT_KEYS = ("matching", *(s.key for s in SECTIONS))
OUTCOME_ROLES = ("assign", *(s.role for s in SECTIONS))
LIMIT_ROLES = tuple(s.role for s in SECTIONS if s.value is int)
_RECORDS = {"quota set": "common_quota_sets", "group": "lower_quota_groups"}


def empty_matching(inst: Instance) -> dict[int, Target | None]:
    return {i: None for i in range(inst.n)}


def by_college_ids(inst: Instance, values: dict[int, object]) -> dict[str, object]:
    """A college-indexed dict keyed by college ids, in college order."""
    return {inst.colleges[j].id: v for j, v in sorted(values.items())}


def solution_to_document(inst: Instance, sol: Solution) -> dict:
    """Id-based JSON document for a solution: no matching for a
    limits-only solution, other sections only when populated."""
    doc: dict[str, object] = {}
    if sol.matching or not sol.score_limits:
        doc["matching"] = sol.matching_by_ids(inst)
    for s in SECTIONS:
        values = getattr(sol, s.field)
        if values:
            doc[s.key] = (by_college_ids(inst, values) if s.keys == "college"
                          else dict(sorted(values.items())))
    return doc


def serialize_solution(inst: Instance, sol: Solution) -> str:
    return json.dumps(solution_to_document(inst, sol), indent=2) + "\n"


def solution_from_document(inst: Instance, doc: object) -> Solution:
    """Parse an id-based solution document against an instance.

    Without a matching section the matching stays empty, which the
    score-limit check reads off the limits; a null or empty section
    leaves every applicant unmatched. Every id must exist in the
    instance and every named target must be on the applicant's list."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "solution document must be an object")
    for key in doc:
        if key not in DOCUMENT_KEYS:
            raise SchemaError(f"$.{key}", "unknown solution section")
    matching = empty_matching(inst) if "matching" in doc else {}
    for aid, value in _section(doc, "matching").items():
        try:
            i = inst.applicant_index(aid)
        except KeyError:
            raise SchemaError(f"$.matching.{aid}", "unknown applicant") from None
        if value is None:
            matching[i] = None
            continue
        if isinstance(value, list):
            if len(value) != 2:
                raise SchemaError(f"$.matching.{aid}",
                                  "paired target must list two colleges")
            target: Target = tuple(_college(inst, f"$.matching.{aid}[{k}]", c)
                                   for k, c in enumerate(value))
        else:
            target = _college(inst, f"$.matching.{aid}", value)
        if not any(app.target == target for app in inst.by_applicant[i]):
            raise SchemaError(f"$.matching.{aid}",
                              "target is not on the applicant's list")
        matching[i] = target
    sections: dict[str, dict] = {}
    for s in SECTIONS:
        out = sections[s.field] = {}
        known = None if s.keys == "college" else {
            r.id for r in getattr(inst, _RECORDS[s.keys])}
        for key, value in _section(doc, s.key).items():
            path = f"$.{s.key}.{key}"
            if known is None:
                key = _college(inst, path, key)
            elif key not in known:
                raise SchemaError(path, f"unknown {s.keys}")
            out[key] = _typed(path, s.value, value)
    return Solution(matching=matching, **sections)


def _section(doc: dict, key: str) -> dict:
    raw = doc.get(key)
    if raw is not None and not isinstance(raw, dict):
        raise SchemaError(f"$.{key}", "must be an object")
    return raw or {}


def _college(inst: Instance, path: str, cid: object) -> int:
    try:
        return inst.college_index(cid)
    except (KeyError, TypeError):
        raise SchemaError(path, f"unknown college {cid!r}") from None


def _typed(path: str, kind: type, value: object) -> object:
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, int):
        raise SchemaError(path, "must be true or false" if kind is bool
                          else "must be an integer")
    return value
