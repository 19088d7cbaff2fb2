"""Solution container shared by the IP extraction path, the combinatorial
algorithms and the stability oracle."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def empty_matching(inst: Instance) -> dict[int, Target | None]:
    return {i: None for i in range(inst.n)}


def solution_to_document(inst: Instance, sol: Solution) -> dict:
    """Id-based JSON document for a solution; sections beyond the
    matching appear only when populated."""
    doc: dict[str, object] = {"matching": sol.matching_by_ids(inst)}
    if sol.score_limits:
        doc["score_limits"] = {inst.colleges[j].id: v
                               for j, v in sorted(sol.score_limits.items())}
    if sol.set_limits:
        doc["set_limits"] = dict(sorted(sol.set_limits.items()))
    if sol.open_colleges:
        doc["open"] = {inst.colleges[j].id: v
                       for j, v in sorted(sol.open_colleges.items())}
    if sol.open_groups:
        doc["open_groups"] = dict(sorted(sol.open_groups.items()))
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
    known = {"matching", "score_limits", "set_limits", "open", "open_groups"}
    for key in doc:
        if key not in known:
            raise SchemaError(f"$.{key}", "unknown solution section")
    matching = empty_matching(inst) if "matching" in doc else {}
    raw = doc.get("matching")
    if raw is not None:
        if not isinstance(raw, dict):
            raise SchemaError("$.matching", "must be an object")
        for aid, value in raw.items():
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
                target: Target = (
                    _college(inst, f"$.matching.{aid}[0]", value[0]),
                    _college(inst, f"$.matching.{aid}[1]", value[1]))
            else:
                target = _college(inst, f"$.matching.{aid}", value)
            if not any(app.target == target for app in inst.by_applicant[i]):
                raise SchemaError(f"$.matching.{aid}",
                                  "target is not on the applicant's list")
            matching[i] = target
    score_limits: dict[int, int] = {}
    for cid, value in _section(doc, "score_limits").items():
        j = _college(inst, f"$.score_limits.{cid}", cid)
        score_limits[j] = _int(f"$.score_limits.{cid}", value)
    set_limits: dict[str, int] = {}
    known_sets = {qs.id for qs in inst.common_quota_sets}
    for sid, value in _section(doc, "set_limits").items():
        if sid not in known_sets:
            raise SchemaError(f"$.set_limits.{sid}", "unknown quota set")
        set_limits[sid] = _int(f"$.set_limits.{sid}", value)
    open_colleges: dict[int, bool] = {}
    for cid, value in _section(doc, "open").items():
        j = _college(inst, f"$.open.{cid}", cid)
        if not isinstance(value, bool):
            raise SchemaError(f"$.open.{cid}", "must be true or false")
        open_colleges[j] = value
    open_groups: dict[str, bool] = {}
    known_groups = {g.id for g in inst.lower_quota_groups}
    for gid, value in _section(doc, "open_groups").items():
        if gid not in known_groups:
            raise SchemaError(f"$.open_groups.{gid}", "unknown group")
        if not isinstance(value, bool):
            raise SchemaError(f"$.open_groups.{gid}", "must be true or false")
        open_groups[gid] = value
    return Solution(matching=matching, score_limits=score_limits,
                    set_limits=set_limits, open_colleges=open_colleges,
                    open_groups=open_groups)


def _section(doc: dict, key: str) -> dict:
    raw = doc.get(key)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SchemaError(f"$.{key}", "must be an object")
    return raw


def _college(inst: Instance, path: str, cid: object) -> int:
    try:
        return inst.college_index(cid)
    except (KeyError, TypeError):
        raise SchemaError(path, f"unknown college {cid!r}") from None


def _int(path: str, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, "must be an integer")
    return value
