"""Combinatorial matching algorithms over cutoff scores.

Two procedures do the proposing: _rising raises cutoffs from 0 (the
applicant side) and _falling lowers them from above every score (the
college side). Each serves both deferred acceptance on strict instances
(da) and the generalized score-limit algorithm on instances with ties
(gs_scorelimits), returning the least and the greatest stable cutoff
vector respectively. The college-closing heuristic for lower quotas
reruns the rising procedure."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import inf

from .instance import Application, Instance
from .solution import Solution, by_college_ids


class AlgorithmError(ValueError):
    """Instance outside the algorithm's supported fragment."""


class Matching(Solution):
    """A Solution over simple applications, as the algorithms return it;
    assignment, rank_of and to_solution stay for the benchmark to read."""

    @property
    def assignment(self) -> dict[int, int | None]:
        return self.matching

    def rank_of(self, inst: Instance, applicant: int) -> int | None:
        j = self.matching.get(applicant)
        if j is None:
            return None
        for app in inst.by_applicant[applicant]:
            if app.target == j:
                return app.rank
        raise ValueError("assignment target missing from the applicant's list")

    def to_solution(self, inst: Instance, **kwargs) -> Solution:
        return Solution(matching=dict(self.matching), **kwargs)


@dataclass
class ScoreLimits:
    limits: dict[int, int]  # college index -> cutoff in [0, max_score + 1]

    def by_ids(self, inst: Instance) -> dict[str, int]:
        return by_college_ids(inst, self.limits)


@dataclass
class ClosureEvent:
    college: int
    admitted: int
    lower: int
    cutoffs: dict[int, int] = field(default_factory=dict)  # min admitted score per open college

    def to_report(self, inst: Instance) -> dict:
        return {
            "closed": inst.colleges[self.college].id,
            "admitted": self.admitted,
            "lower": self.lower,
            "cutoffs": by_college_ids(inst, self.cutoffs),
        }


def _require_simple_strict(inst: Instance, who: str) -> None:
    if inst.has_pairs:
        raise AlgorithmError(f"{who}: paired applications present")
    if inst.common_quota_sets:
        raise AlgorithmError(f"{who}: common quota sets present")


def da(inst: Instance, side: str = "applicant", exclude: frozenset[int] = frozenset()) -> Matching:
    """Deferred acceptance on a strict instance: the rising (applicant
    side) or falling (college side) cutoff procedure. Lower quotas are
    ignored; colleges in exclude are treated as removed."""
    _require_simple_strict(inst, "da")
    if inst.has_ties:
        raise AlgorithmError("da: scores are tied at some college")
    if side not in _PROCEDURES:
        raise AlgorithmError(f"da: unknown side {side!r}")
    assignment, _ = _PROCEDURES[side](inst, exclude)
    return Matching(assignment)


def _rising(inst: Instance, exclude: frozenset[int]) -> tuple[dict[int, int | None], list[int]]:
    """Applicant-proposing cutoffs: all start at 0, and an over-quota
    college raises its cutoff past its lowest tie groups until the rest
    fit; the rejected applicants propose further down their lists."""
    cutoffs = [0] * inst.m
    pointer = [0] * inst.n
    held: list[list[tuple[int, int]]] = [[] for _ in range(inst.m)]  # min-heaps of (score, applicant)
    queue = deque(range(inst.n))
    while queue:
        i = queue.popleft()
        apps = inst.by_applicant[i]
        while pointer[i] < len(apps):
            app = apps[pointer[i]]
            if app.target not in exclude and app.score >= cutoffs[app.target]:
                break
            pointer[i] += 1
        else:
            continue
        j = app.target
        heap = held[j]
        heappush(heap, (app.score, i))
        while len(heap) > inst.colleges[j].upper:
            lowest = heap[0][0]
            cutoffs[j] = lowest + 1
            while heap and heap[0][0] == lowest:
                _, k = heappop(heap)
                pointer[k] += 1
                queue.append(k)
    assignment: dict[int, int | None] = {i: None for i in range(inst.n)}
    for j, heap in enumerate(held):
        for _, i in heap:
            assignment[i] = j
    return assignment, cutoffs


def _falling(inst: Instance, exclude: frozenset[int]) -> tuple[dict[int, int | None], list[int]]:
    """College-proposing cutoffs: all start above every score, and each
    college lowers its cutoff one tie group at a time while the
    applicants in that group who prefer it still fit its quota. A
    college blocked at a group ends with its cutoff one above it."""
    groups: list[list[list[Application]]] = []  # per college, best score first
    for apps in inst.seats_at:
        by_score: dict[int, list[Application]] = {}
        for app in apps:
            by_score.setdefault(app.score, []).append(app)
        groups.append([by_score[s] for s in sorted(by_score, reverse=True)])
    held: list[Application | None] = [None] * inst.n
    rank = [inf] * inst.n  # rank of the held application
    intake = [0] * inst.m
    passed = [0] * inst.m  # tie groups each college has admitted or passed
    queue = deque(j for j in range(inst.m) if j not in exclude)
    queued = [j not in exclude for j in range(inst.m)]
    while queue:
        j = queue.popleft()
        queued[j] = False
        while passed[j] < len(groups[j]):
            takers = [app for app in groups[j][passed[j]] if app.rank < rank[app.applicant]]
            if intake[j] + len(takers) > inst.colleges[j].upper:
                break
            passed[j] += 1
            intake[j] += len(takers)
            for app in takers:
                i = app.applicant
                if held[i] is not None:
                    intake[held[i].target] -= 1
                # i leaves its old seat and stops counting as a taker at
                # every college it ranks between the new and the old one
                for other in inst.by_applicant[i]:
                    k = other.target
                    if app.rank < other.rank <= rank[i] and k not in exclude and not queued[k]:
                        queued[k] = True
                        queue.append(k)
                held[i], rank[i] = app, app.rank
    assignment: dict[int, int | None] = {
        i: None if app is None else app.target for i, app in enumerate(held)}
    cutoffs = [groups[j][passed[j]][0].score + 1 if passed[j] < len(groups[j]) else 0
               for j in range(inst.m)]
    return assignment, cutoffs


_PROCEDURES = {"applicant": _rising, "college": _falling}


def induced_matching(inst: Instance, limits: list[int]) -> Matching:
    """Everyone goes to the best-ranked college whose cutoff they achieve."""
    assignment: dict[int, int | None] = {i: None for i in range(inst.n)}
    for i in range(inst.n):
        for app in inst.by_applicant[i]:
            if app.score >= limits[app.target]:
                assignment[i] = app.target
                break
    return Matching(assignment)


def gs_scorelimits(inst: Instance, side: str = "applicant") -> tuple[Matching, ScoreLimits]:
    """Generalized deferred acceptance over cutoff scores; ties allowed.

    The applicant side runs the rising procedure and returns the least
    stable cutoff vector, the college side runs the falling procedure and
    returns the greatest; each matching is the one its cutoffs induce.
    """
    _require_simple_strict(inst, "gs_scorelimits")
    if side not in _PROCEDURES:
        raise AlgorithmError(f"gs_scorelimits: unknown side {side!r}")
    assignment, limits = _PROCEDURES[side](inst, frozenset())
    return Matching(assignment), ScoreLimits(limits=dict(enumerate(limits)))


def lower_quota_heuristic(inst: Instance) -> tuple[Matching, set[int], list[ClosureEvent]]:
    """Close under-quota colleges one at a time, smallest admitted/lower
    ratio first, rerunning deferred acceptance after each closure. Fast but
    not guaranteed stable; may close colleges a stable solution keeps open.
    """
    _require_simple_strict(inst, "lower_quota_heuristic")
    if inst.has_ties:
        raise AlgorithmError("lower_quota_heuristic: scores are tied at some college")
    if inst.lower_quota_groups:
        raise AlgorithmError("lower_quota_heuristic: lower-quota groups present")
    closed: set[int] = set()
    trace: list[ClosureEvent] = []
    while True:
        matching = Matching(_rising(inst, frozenset(closed))[0])
        intake = matching.intake(inst)
        violators = [j for j in range(inst.m)
                     if j not in closed and inst.colleges[j].lower > intake[j]]
        if not violators:
            return matching, closed, trace
        # smallest admitted/lower ratio, then fewest admitted, then lowest index
        choice = min(violators, key=lambda j: (
            Fraction(intake[j], inst.colleges[j].lower), intake[j], j))
        lowest = [inf] * inst.m
        for i, j in matching.matching.items():
            if j is not None:
                lowest[j] = min(lowest[j], inst.score_of(i, j))
        cutoffs = {j: 0 if lowest[j] == inf else lowest[j]
                   for j in range(inst.m) if j not in closed and j != choice}
        trace.append(ClosureEvent(college=choice, admitted=intake[choice],
                                  lower=inst.colleges[choice].lower, cutoffs=cutoffs))
        closed.add(choice)
