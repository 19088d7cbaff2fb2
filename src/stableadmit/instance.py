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
from itertools import chain
from json.encoder import encode_basestring_ascii
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


@dataclass(frozen=True, init=False, slots=True)
class Application:
    applicant: int                      # applicant index
    rank: int                           # position in the applicant's list, 1 is best
    target: Target                      # college index, or ordered pair of indices
    score: Union[int, tuple[int, int]]  # score at the target, pairwise for pairs
    # derived from target once, outside init, comparison, hash and repr
    is_paired: bool = field(init=False, repr=False, compare=False)

    def __init__(self, applicant: int, rank: int, target: Target,
                 score: Union[int, tuple[int, int]]) -> None:
        # bypasses the frozen __setattr__ with one lookup per record and no
        # __post_init__ call; slots keep each record small
        fill = object.__setattr__
        fill(self, "applicant", applicant)
        fill(self, "rank", rank)
        fill(self, "target", target)
        fill(self, "score", score)
        fill(self, "is_paired", isinstance(target, tuple))

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
        """Each applicant's applications sorted by rank, best first;
        assemble installs the lists from_document and generate build."""
        lists: list[list[Application]] = [[] for _ in self.applicants]
        for app in self.applications:
            lists[app.applicant].append(app)
        for lst in lists:
            lst.sort(key=attrgetter("rank"))
        return tuple(tuple(lst) for lst in lists)

    @cached_property
    def score_table(self) -> dict[tuple[int, int], int]:
        """(applicant, college) -> score, aggregated over all applications;
        validate installs the same table as it checks the scores."""
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
        """Raise InvariantError on any broken instance rule.

        Every number must be a plain int. The checks run in one pass over
        the applications; the first inconsistent score is reported only
        once no per-application rule fails, and the (applicant, college)
        score map built on the way becomes score_table."""
        n, m, max_score = self.n, self.m, self.max_score
        applicants, colleges = self.applicants, self.colleges
        if type(max_score) is not int:
            raise InvariantError(f"max_score {max_score!r} is not an int")
        if max_score < 0:
            raise InvariantError("max_score must be >= 0")
        if len({c.id for c in colleges}) != m:
            raise InvariantError("college ids must be distinct")
        if len(set(applicants)) != n:
            raise InvariantError("applicant ids must be distinct")
        for c in colleges:
            if type(c.upper) is not int or type(c.lower) is not int:
                raise InvariantError(f"college {c.id}: quotas must be ints")
            if c.upper < 1:
                raise InvariantError(f"college {c.id}: upper quota must be >= 1")
            if not 0 <= c.lower <= c.upper:
                raise InvariantError(
                    f"college {c.id}: lower quota must satisfy 0 <= lower <= upper")

        def check_score(aid: str, j: int, s) -> None:
            # simple applications test all three cheaply first and call this
            # only when one fails
            if not 0 <= j < m:
                raise InvariantError(f"applicant {aid}: unknown college index {j}")
            if type(s) is not int:
                raise InvariantError(f"applicant {aid}: score {s!r} is not an int")
            if not 0 <= s <= max_score:
                raise InvariantError(
                    f"applicant {aid}: score {s} outside [0, {max_score}]")

        ranks: list[set[int]] = [set() for _ in range(n)]
        simple_targets: list[set[int]] = [set() for _ in range(n)]
        pair_targets: list[set[frozenset[int]]] = [set() for _ in range(n)]
        # one score per (applicant, college) across all that applicant's entries
        table: dict[tuple[int, int], int] = {}
        inconsistent = None
        for app in self.applications:
            i, rank, target = app.applicant, app.rank, app.target
            if not 0 <= i < n:
                raise InvariantError(f"application references unknown applicant index {i}")
            aid = applicants[i]
            if type(rank) is not int:
                raise InvariantError(f"applicant {aid}: rank {rank!r} is not an int")
            if rank < 1:
                raise InvariantError(f"applicant {aid}: ranks start at 1")
            if rank in ranks[i]:
                raise InvariantError(f"applicant {aid}: duplicate rank {rank}")
            ranks[i].add(rank)
            if app.is_paired:
                (j, k), (s, t) = target, app.score
                check_score(aid, j, s)
                if j == k:
                    raise InvariantError(
                        f"applicant {aid}: paired application targets one college twice")
                check_score(aid, k, t)
                key = frozenset(target)
                if key in pair_targets[i]:
                    raise InvariantError(f"applicant {aid}: duplicate paired application")
                pair_targets[i].add(key)
                if table.setdefault((i, j), s) != s and inconsistent is None:
                    inconsistent = (i, j)
                if table.setdefault((i, k), t) != t and inconsistent is None:
                    inconsistent = (i, k)
            else:
                s = app.score
                if not (0 <= target < m and type(s) is int and 0 <= s <= max_score):
                    check_score(aid, target, s)
                if target in simple_targets[i]:
                    raise InvariantError(
                        f"applicant {aid}: duplicate application to {colleges[target].id}")
                simple_targets[i].add(target)
                if table.setdefault((i, target), s) != s and inconsistent is None:
                    inconsistent = (i, target)
        if inconsistent is not None:
            i, j = inconsistent
            raise InvariantError(
                f"applicant {applicants[i]}: inconsistent scores at college {colleges[j].id}")
        # only an applicant holding two different scores can break a set,
        # so the set scan below visits those applicants alone
        scores_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        if self.common_quota_sets:
            first_score: dict[int, int] = {}
            mixed = {i for (i, _j), s in table.items()
                     if first_score.setdefault(i, s) != s}
            for (i, j), s in table.items():
                if i in mixed:
                    scores_at[j].append((i, s))
        for qs in _checked_sets(self.common_quota_sets, "quota set", "upper", 0, m):
            # scans the mixed-score applicants with a score inside the set,
            # not all n of them; one college holds one score per applicant,
            # so a single-member set needs no scan
            if len(qs.members) > 1:
                first: dict[int, int] = {}
                unequal = [i for j in qs.members for i, s in scores_at[j]
                           if first.setdefault(i, s) != s]
                if unequal:
                    raise InvariantError(
                        f"quota set {qs.id}: applicant {applicants[min(unequal)]} has "
                        f"unequal scores inside the set")
        list(_checked_sets(self.lower_quota_groups, "lower group", "lower", 1, m))
        self.__dict__["score_table"] = table


def _checked_sets(sets, label: str, bound: str, least: int, m: int):
    """Yield each quota set or lower group, in declaration order, once its
    id, members and bound (the upper or lower field, at least least) pass."""
    ids = set()
    for s in sets:
        if s.id in ids:
            raise InvariantError(f"duplicate {label} id {s.id}")
        ids.add(s.id)
        if not s.members:
            raise InvariantError(f"{label} {s.id}: members must be non-empty")
        if len(set(s.members)) != len(s.members):
            raise InvariantError(f"{label} {s.id}: duplicate member")
        value = getattr(s, bound)
        if type(value) is not int:
            raise InvariantError(f"{label} {s.id}: {bound} quota must be an int")
        if value < least:
            raise InvariantError(f"{label} {s.id}: {bound} quota must be >= {least}")
        for j in s.members:
            if not 0 <= j < m:
                raise InvariantError(f"{label} {s.id}: unknown college index {j}")
        yield s


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
    by_applicant = []  # each applicant's own entries in rank order
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
        by_applicant.append(tuple(own))
    quota_sets = _read_sets(doc, ids, "common_quotas", "upper", QuotaSet)
    groups = _read_sets(doc, ids, "lower_groups", "lower", LowerGroup)
    return assemble(max_score, applicants, colleges, by_applicant, quota_sets, groups)


def _read_sets(doc: dict, ids: dict[str, int], key: str, bound: str, make) -> list:
    """The quota sets (key common_quotas, bound upper) or lower groups
    (lower_groups, lower) of a document, members as college indices."""
    out = []
    for si, entry in enumerate(_get(doc, key, "$", list, required=False, default=[])):
        path = f"{key}[{si}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        for k in entry:
            _expect(k in {"id", "members", bound}, f"{path}.{k}", "unknown key")
        sid = _get(entry, "id", path, str)
        members = _get(entry, "members", path, list)
        for mi, cid in enumerate(members):
            _expect(isinstance(cid, str), f"{path}.members[{mi}]", "expected str")
            _expect(cid in ids, f"{path}.members[{mi}]", f"unknown college id {cid!r}")
        out.append(make(sid, tuple(ids[c] for c in members), _get(entry, bound, path, int)))
    return out


def assemble(max_score: int, applicants, colleges, lists, quota_sets=(),
             groups=()) -> Instance:
    """The validated Instance over each applicant's applications in rank
    order; those lists become by_applicant, which the cached property
    would otherwise regroup and re-sort."""
    inst = Instance(
        max_score=max_score,
        applicants=tuple(applicants),
        colleges=tuple(colleges),
        applications=tuple(chain.from_iterable(lists)),
        common_quota_sets=tuple(quota_sets),
        lower_quota_groups=tuple(groups),
    )
    inst.__dict__["by_applicant"] = tuple(lists)
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


def _indented(items: list[str], depth: int) -> str:
    """A JSON list, as json.dumps(indent=2) writes it at depth, of items
    already written for depth + 2."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 2)
    return f"[{inner}{(',' + inner).join(items)}\n{' ' * depth}]"


def serialize_instance(inst: Instance) -> str:
    """The file form: json.dumps(to_document(inst), indent=2) and a newline,
    written directly in one pass (an indented json.dumps runs the
    pure-Python encoder), ids escaped as json.dumps escapes them and ints
    as digits."""
    esc = encode_basestring_ascii
    cids = [esc(c.id) for c in inst.colleges]
    # n<d> breaks the line and indents to depth d: the fields of a college,
    # applicant, quota set or group sit at 6, a list entry's at 10 and the
    # items of a pair at 12
    n4, n6, n8, n10, n12 = ("\n" + " " * d for d in (4, 6, 8, 10, 12))

    def entry(app: Application) -> str:
        if app.is_paired:
            (j, k), (s, t) = app.target, app.score
            return (f'{{{n10}"rank": {app.rank},'
                    f'{n10}"pair": [{n12}{cids[j]},{n12}{cids[k]}{n10}],'
                    f'{n10}"scores": [{n12}{s},{n12}{t}{n10}]{n8}}}')
        return (f'{{{n10}"rank": {app.rank},{n10}"college": {cids[app.target]},'
                f'{n10}"score": {app.score}{n8}}}')

    def sets(items, bound: str) -> str:
        # quota sets and lower groups differ only in the bound's name
        return _indented([
            f'{{{n6}"id": {esc(s.id)},{n6}"members": '
            f'{_indented([cids[j] for j in s.members], 6)},'
            f'{n6}"{bound}": {getattr(s, bound)}{n4}}}' for s in items], 2)

    colleges = _indented([
        f'{{{n6}"id": {cid},{n6}"upper": {c.upper},{n6}"lower": {c.lower}{n4}}}'
        for cid, c in zip(cids, inst.colleges)], 2)
    applicants = _indented([
        f'{{{n6}"id": {esc(aid)},'
        f'{n6}"list": {_indented(list(map(entry, apps)), 6)}{n4}}}'
        for aid, apps in zip(inst.applicants, inst.by_applicant)], 2)
    quota_sets = sets(inst.common_quota_sets, "upper")
    groups = sets(inst.lower_quota_groups, "lower")
    return (f'{{\n  "max_score": {inst.max_score},\n  "colleges": {colleges},'
            f'\n  "applicants": {applicants},\n  "common_quotas": {quota_sets},'
            f'\n  "lower_groups": {groups}\n}}\n')


def instance_digest(inst: Instance) -> str:
    """Stable content hash used in reports: sha256 of the compact, key-sorted
    JSON of to_document(inst), written directly in one pass (keys in sorted
    order, strings escaped as json.dumps escapes them, ints as digits)."""
    esc = encode_basestring_ascii
    cids = [esc(c.id) for c in inst.colleges]

    def entry(app: Application) -> str:
        if app.is_paired:
            (j, k), (s, t) = app.target, app.score
            return f'{{"pair":[{cids[j]},{cids[k]}],"rank":{app.rank},"scores":[{s},{t}]}}'
        return f'{{"college":{cids[app.target]},"rank":{app.rank},"score":{app.score}}}'

    def members(js: tuple[int, ...]) -> str:
        return ",".join([cids[j] for j in js])

    applicants = ",".join([
        f'{{"id":{esc(aid)},"list":[{",".join(map(entry, apps))}]}}'
        for aid, apps in zip(inst.applicants, inst.by_applicant)])
    colleges = ",".join([
        f'{{"id":{cid},"lower":{c.lower},"upper":{c.upper}}}'
        for cid, c in zip(cids, inst.colleges)])
    quota_sets = ",".join([
        f'{{"id":{esc(qs.id)},"members":[{members(qs.members)}],"upper":{qs.upper}}}'
        for qs in inst.common_quota_sets])
    groups = ",".join([
        f'{{"id":{esc(g.id)},"lower":{g.lower},"members":[{members(g.members)}]}}'
        for g in inst.lower_quota_groups])
    payload = (f'{{"applicants":[{applicants}],"colleges":[{colleges}],'
               f'"common_quotas":[{quota_sets}],"lower_groups":[{groups}],'
               f'"max_score":{inst.max_score}}}')
    return hashlib.sha256(payload.encode()).hexdigest()
