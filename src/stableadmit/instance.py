"""Problem data model for college admission markets.

An instance holds applicants, colleges with upper (and optional lower)
quotas, rank-ordered applications carrying integer entrance scores,
common upper-quota sets over groups of colleges, and lower-quota groups.
Applications are either simple (one college) or paired (two colleges,
admitted at both or neither).

Instances are immutable once constructed and safe to share between
concurrent consumers. Identifiers are strings in the file format and
integer indices internally.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Union

Target = Union[int, tuple[int, int]]


class InstanceError(ValueError):
    """Invalid instance data."""


class SchemaError(InstanceError):
    """Structurally malformed document; the message names the offending path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class InvariantError(InstanceError):
    """Well-formed document that violates an instance rule."""


@dataclass(frozen=True)
class College:
    id: str
    upper: int      # seats available, >= 1
    lower: int = 0  # minimum intake when open; 0 means the college never closes


@dataclass(frozen=True)
class Application:
    applicant: int                      # applicant index
    rank: int                           # position in the applicant's list, 1 is best
    target: Target                      # college index, or ordered pair of indices
    score: Union[int, tuple[int, int]]  # score at the target, pairwise for pairs
    # derived from target once, outside init, comparison, hash and repr
    is_paired: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_paired", isinstance(self.target, tuple))

    def colleges(self) -> tuple[int, ...]:
        return self.target if self.is_paired else (self.target,)

    def score_at(self, college: int) -> int:
        if not self.is_paired:
            return self.score
        return self.score[self.target.index(college)]


@dataclass(frozen=True)
class QuotaSet:
    id: str
    members: tuple[int, ...]  # college indices
    upper: int                # common number of seats across the members


@dataclass(frozen=True)
class LowerGroup:
    id: str
    members: tuple[int, ...]  # college indices, open or closed together
    lower: int                # joint minimum intake when the group is open


@dataclass(frozen=True)
class Instance:
    max_score: int
    applicants: tuple[str, ...]
    colleges: tuple[College, ...]
    applications: tuple[Application, ...]
    common_quota_sets: tuple[QuotaSet, ...] = ()
    lower_quota_groups: tuple[LowerGroup, ...] = ()

    @property
    def n(self) -> int:
        return len(self.applicants)

    @property
    def m(self) -> int:
        return len(self.colleges)

    @cached_property
    def by_applicant(self) -> tuple[tuple[Application, ...], ...]:
        """Each applicant's applications sorted by rank, best first."""
        lists: list[list[Application]] = [[] for _ in self.applicants]
        for app in self.applications:
            lists[app.applicant].append(app)
        for lst in lists:
            lst.sort(key=lambda a: a.rank)
        return tuple(tuple(lst) for lst in lists)

    @cached_property
    def score_table(self) -> dict[tuple[int, int], int]:
        """(applicant, college) -> score, aggregated over all applications."""
        table: dict[tuple[int, int], int] = {}
        for app in self.applications:
            for j in app.colleges():
                table[(app.applicant, j)] = app.score_at(j)
        return table

    @cached_property
    def seats_at(self) -> tuple[tuple[Application, ...], ...]:
        """College index -> the applications taking a seat there, simple
        and paired, in application order."""
        lists: list[list[Application]] = [[] for _ in self.colleges]
        for app in self.applications:
            for j in app.colleges():
                lists[j].append(app)
        return tuple(tuple(lst) for lst in lists)

    @cached_property
    def applicants_at(self) -> tuple[tuple[int, ...], ...]:
        """College index -> applicant indices with any application there."""
        return tuple(tuple(dict.fromkeys(app.applicant for app in apps))
                     for apps in self.seats_at)

    def score_of(self, applicant: int, college: int) -> int:
        return self.score_table[(applicant, college)]

    @cached_property
    def has_ties(self) -> bool:
        """True if two applicants share a score at some college."""
        table = self.score_table
        return len({(j, s) for (_i, j), s in table.items()}) < len(table)

    @cached_property
    def has_pairs(self) -> bool:
        return any(app.is_paired for app in self.applications)

    @property
    def has_lower_quotas(self) -> bool:
        return any(c.lower > 0 for c in self.colleges) or bool(self.lower_quota_groups)

    def college_index(self, cid: str) -> int:
        return self._college_ids[cid]

    @cached_property
    def _college_ids(self) -> dict[str, int]:
        return {c.id: j for j, c in enumerate(self.colleges)}

    @cached_property
    def _applicant_ids(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.applicants)}

    def applicant_index(self, aid: str) -> int:
        return self._applicant_ids[aid]

    def validate(self) -> None:
        """Raise InvariantError on any broken instance rule."""
        if self.max_score < 0:
            raise InvariantError("max_score must be >= 0")
        if len({c.id for c in self.colleges}) != self.m:
            raise InvariantError("college ids must be distinct")
        if len(set(self.applicants)) != self.n:
            raise InvariantError("applicant ids must be distinct")
        for c in self.colleges:
            if c.upper < 1:
                raise InvariantError(f"college {c.id}: upper quota must be >= 1")
            if not 0 <= c.lower <= c.upper:
                raise InvariantError(
                    f"college {c.id}: lower quota must satisfy 0 <= lower <= upper")
        ranks: list[set[int]] = [set() for _ in self.applicants]
        simple_targets: list[set[int]] = [set() for _ in self.applicants]
        pair_targets: list[set[frozenset[int]]] = [set() for _ in self.applicants]
        for app in self.applications:
            if not 0 <= app.applicant < self.n:
                raise InvariantError(f"application references unknown applicant index {app.applicant}")
            aid = self.applicants[app.applicant]
            if app.rank < 1:
                raise InvariantError(f"applicant {aid}: ranks start at 1")
            if app.rank in ranks[app.applicant]:
                raise InvariantError(f"applicant {aid}: duplicate rank {app.rank}")
            ranks[app.applicant].add(app.rank)
            for j in app.colleges():
                if not 0 <= j < self.m:
                    raise InvariantError(f"applicant {aid}: unknown college index {j}")
                s = app.score_at(j)
                if not 0 <= s <= self.max_score:
                    raise InvariantError(
                        f"applicant {aid}: score {s} outside [0, {self.max_score}]")
            if app.is_paired:
                j, k = app.target
                if j == k:
                    raise InvariantError(f"applicant {aid}: paired application targets one college twice")
                key = frozenset((j, k))
                if key in pair_targets[app.applicant]:
                    raise InvariantError(f"applicant {aid}: duplicate paired application")
                pair_targets[app.applicant].add(key)
            else:
                if app.target in simple_targets[app.applicant]:
                    raise InvariantError(
                        f"applicant {aid}: duplicate application to {self.colleges[app.target].id}")
                simple_targets[app.applicant].add(app.target)
        # one score per (applicant, college) across all that applicant's entries
        seen_scores: dict[tuple[int, int], int] = {}
        for app in self.applications:
            for j in app.colleges():
                key = (app.applicant, j)
                s = app.score_at(j)
                if seen_scores.setdefault(key, s) != s:
                    raise InvariantError(
                        f"applicant {self.applicants[app.applicant]}: inconsistent scores "
                        f"at college {self.colleges[j].id}")
        set_ids = set()
        for qs in self.common_quota_sets:
            if qs.id in set_ids:
                raise InvariantError(f"duplicate quota set id {qs.id}")
            set_ids.add(qs.id)
            if not qs.members:
                raise InvariantError(f"quota set {qs.id}: members must be non-empty")
            if len(set(qs.members)) != len(qs.members):
                raise InvariantError(f"quota set {qs.id}: duplicate member")
            if qs.upper < 0:
                raise InvariantError(f"quota set {qs.id}: upper quota must be >= 0")
            for j in qs.members:
                if not 0 <= j < self.m:
                    raise InvariantError(f"quota set {qs.id}: unknown college index {j}")
            members = set(qs.members)
            for i in range(self.n):
                scores = {self.score_table[(i, j)]
                          for j in members if (i, j) in self.score_table}
                if len(scores) > 1:
                    raise InvariantError(
                        f"quota set {qs.id}: applicant {self.applicants[i]} has unequal "
                        f"scores inside the set")
        group_ids = set()
        for g in self.lower_quota_groups:
            if g.id in group_ids:
                raise InvariantError(f"duplicate lower group id {g.id}")
            group_ids.add(g.id)
            if not g.members:
                raise InvariantError(f"lower group {g.id}: members must be non-empty")
            if len(set(g.members)) != len(g.members):
                raise InvariantError(f"lower group {g.id}: duplicate member")
            if g.lower < 1:
                raise InvariantError(f"lower group {g.id}: lower quota must be >= 1")
            for j in g.members:
                if not 0 <= j < self.m:
                    raise InvariantError(f"lower group {g.id}: unknown college index {j}")


def is_nested(inst: Instance) -> bool:
    """True if the quota-set system is laminar: any two sets are disjoint or
    ordered by inclusion. Implicit singletons {c_j} never break laminarity,
    so only the declared sets need checking.
    """
    sets = [frozenset(qs.members) for qs in inst.common_quota_sets]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            p, q = sets[a], sets[b]
            if p & q and not (p <= q or q <= p):
                return False
    return True


def _expect(cond: bool, path: str, message: str) -> None:
    """Raise SchemaError at path unless cond holds.

    The loops over applicants and list entries test a field cheaply first
    and call this or _get only when the test fails, so that a path is
    formatted only for the error it reports."""
    if not cond:
        raise SchemaError(path, message)


def _get(obj: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in obj:
        if required:
            _expect(False, f"{path}.{key}", "missing required key")
        return default
    val = obj[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        _expect(False, f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _entry_path(ai: int, ei: int) -> str:
    return f"applicants[{ai}].list[{ei}]"


def from_document(doc: dict) -> Instance:
    """Build and validate an Instance from a parsed JSON document."""
    _expect(isinstance(doc, dict), "$", "expected a JSON object")
    allowed = {"max_score", "colleges", "applicants", "common_quotas", "lower_groups"}
    for key in doc:
        _expect(key in allowed, f"$.{key}", "unknown key")
    max_score = _get(doc, "max_score", "$", int)
    raw_colleges = _get(doc, "colleges", "$", list)
    colleges = []
    ids: dict[str, int] = {}
    for idx, entry in enumerate(raw_colleges):
        path = f"colleges[{idx}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        cid = _get(entry, "id", path, str)
        upper = _get(entry, "upper", path, int)
        lower = _get(entry, "lower", path, int, required=False, default=0)
        for key in entry:
            _expect(key in {"id", "upper", "lower"}, f"{path}.{key}", "unknown key")
        _expect(cid not in ids, f"{path}.id", f"duplicate college id {cid!r}")
        ids[cid] = idx
        colleges.append(College(id=cid, upper=upper, lower=lower))
    raw_applicants = _get(doc, "applicants", "$", list)
    applicants = []
    applications = []
    for ai, entry in enumerate(raw_applicants):
        if not isinstance(entry, dict):
            _expect(False, f"applicants[{ai}]", "expected an object")
        aid = entry.get("id")
        if type(aid) is not str:
            aid = _get(entry, "id", f"applicants[{ai}]", str)
        for key in entry:
            if key not in {"id", "list"}:
                _expect(False, f"applicants[{ai}].{key}", "unknown key")
        applicants.append(aid)
        raw_list = entry.get("list")
        if type(raw_list) is not list:
            raw_list = _get(entry, "list", f"applicants[{ai}]", list)
        # this applicant's entries, sorted by rank below if listed out of order
        own: list[Application] = []
        shuffled = False
        last_rank = float("-inf")
        for ei, raw in enumerate(raw_list):
            if not isinstance(raw, dict):
                _expect(False, _entry_path(ai, ei), "expected an object")
            rank = raw.get("rank")
            if type(rank) is not int:
                rank = _get(raw, "rank", _entry_path(ai, ei), int)
            if rank < last_rank:
                shuffled = True
            last_rank = rank
            has_college = "college" in raw
            if has_college == ("pair" in raw):
                _expect(False, _entry_path(ai, ei),
                        "exactly one of 'college' or 'pair' is required")
            if has_college:
                for key in raw:
                    if key not in {"rank", "college", "score"}:
                        _expect(False, f"{_entry_path(ai, ei)}.{key}", "unknown key")
                cid = raw["college"]
                if type(cid) is not str:
                    cid = _get(raw, "college", _entry_path(ai, ei), str)
                j = ids.get(cid)
                if j is None:
                    _expect(False, f"{_entry_path(ai, ei)}.college",
                            f"unknown college id {cid!r}")
                score = raw.get("score")
                if type(score) is not int:
                    score = _get(raw, "score", _entry_path(ai, ei), int)
                own.append(Application(ai, rank, j, score))
            else:
                for key in raw:
                    if key not in {"rank", "pair", "scores"}:
                        _expect(False, f"{_entry_path(ai, ei)}.{key}", "unknown key")
                pair = raw["pair"]
                if type(pair) is not list:
                    pair = _get(raw, "pair", _entry_path(ai, ei), list)
                if len(pair) != 2:
                    _expect(False, f"{_entry_path(ai, ei)}.pair", "expected two college ids")
                for pi, cid in enumerate(pair):
                    if type(cid) is not str:
                        _expect(isinstance(cid, str), f"{_entry_path(ai, ei)}.pair[{pi}]",
                                "expected str")
                    if cid not in ids:
                        _expect(False, f"{_entry_path(ai, ei)}.pair[{pi}]",
                                f"unknown college id {cid!r}")
                scores = raw.get("scores")
                if type(scores) is not list:
                    scores = _get(raw, "scores", _entry_path(ai, ei), list)
                if len(scores) != 2:
                    _expect(False, f"{_entry_path(ai, ei)}.scores", "expected two scores")
                for si, s in enumerate(scores):
                    if type(s) is not int:
                        _expect(isinstance(s, int) and not isinstance(s, bool),
                                f"{_entry_path(ai, ei)}.scores[{si}]", "expected int")
                own.append(Application(
                    ai, rank, (ids[pair[0]], ids[pair[1]]), (scores[0], scores[1])))
        if shuffled:
            own.sort(key=attrgetter("rank"))
        applications.extend(own)
    raw_sets = _get(doc, "common_quotas", "$", list, required=False, default=[])
    quota_sets = []
    for si, entry in enumerate(raw_sets):
        path = f"common_quotas[{si}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        for key in entry:
            _expect(key in {"id", "members", "upper"}, f"{path}.{key}", "unknown key")
        sid = _get(entry, "id", path, str)
        members = _get(entry, "members", path, list)
        for mi, cid in enumerate(members):
            _expect(isinstance(cid, str), f"{path}.members[{mi}]", "expected str")
            _expect(cid in ids, f"{path}.members[{mi}]", f"unknown college id {cid!r}")
        upper = _get(entry, "upper", path, int)
        quota_sets.append(QuotaSet(sid, tuple(ids[c] for c in members), upper))
    raw_groups = _get(doc, "lower_groups", "$", list, required=False, default=[])
    groups = []
    for gi, entry in enumerate(raw_groups):
        path = f"lower_groups[{gi}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        for key in entry:
            _expect(key in {"id", "members", "lower"}, f"{path}.{key}", "unknown key")
        gid = _get(entry, "id", path, str)
        members = _get(entry, "members", path, list)
        for mi, cid in enumerate(members):
            _expect(isinstance(cid, str), f"{path}.members[{mi}]", "expected str")
            _expect(cid in ids, f"{path}.members[{mi}]", f"unknown college id {cid!r}")
        lower = _get(entry, "lower", path, int)
        groups.append(LowerGroup(gid, tuple(ids[c] for c in members), lower))
    inst = Instance(
        max_score=max_score,
        applicants=tuple(applicants),
        colleges=tuple(colleges),
        applications=tuple(applications),
        common_quota_sets=tuple(quota_sets),
        lower_quota_groups=tuple(groups),
    )
    inst.validate()
    return inst


def parse_instance(text: str) -> Instance:
    """Parse an instance document from JSON text; validates all rules."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return from_document(doc)


def to_document(inst: Instance) -> dict:
    """Canonical document form, inverse of from_document."""
    doc: dict = {
        "max_score": inst.max_score,
        "colleges": [
            {"id": c.id, "upper": c.upper, "lower": c.lower} for c in inst.colleges
        ],
        "applicants": [],
    }
    for i, aid in enumerate(inst.applicants):
        entries = []
        for app in inst.by_applicant[i]:
            if app.is_paired:
                j, k = app.target
                entries.append({
                    "rank": app.rank,
                    "pair": [inst.colleges[j].id, inst.colleges[k].id],
                    "scores": [app.score[0], app.score[1]],
                })
            else:
                entries.append({
                    "rank": app.rank,
                    "college": inst.colleges[app.target].id,
                    "score": app.score,
                })
        doc["applicants"].append({"id": aid, "list": entries})
    doc["common_quotas"] = [
        {"id": qs.id, "members": [inst.colleges[j].id for j in qs.members],
         "upper": qs.upper}
        for qs in inst.common_quota_sets
    ]
    doc["lower_groups"] = [
        {"id": g.id, "members": [inst.colleges[j].id for j in g.members],
         "lower": g.lower}
        for g in inst.lower_quota_groups
    ]
    return doc


def serialize_instance(inst: Instance) -> str:
    return json.dumps(to_document(inst), indent=2) + "\n"


def instance_digest(inst: Instance) -> str:
    """Stable content hash used in reports."""
    payload = json.dumps(to_document(inst), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
