"""Fixing colleges open or closed before solving lower-quota models.

Two sound reductions shrink the search space. A college whose intake in
the quota-free stable matching already reaches its lower quota can never
close: the students filling it would form a blocking group. A college
that stays under its lower quota even when every other unfixed college
is closed can never open: no stable outcome funnels it more students
than that. Alternating the two tests grows both fixed sets until
neither changes.

Intakes are read off a single applicant-proposing deferred-acceptance
run, which is valid because stable intakes are matching-independent.
The per-candidate runs inside must_close are independent of each other;
they are executed in college order so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algorithms import AlgorithmError, da
from .instance import Instance
from .linmodel import LinearModel, ModelError


@dataclass(frozen=True)
class FixingResult:
    """Outcome of the alternating open/close fixing procedure."""
    must_open: frozenset[int]
    must_close: frozenset[int]
    iterations: int
    trace: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def to_report(self, inst: Instance) -> dict:
        def ids(js: frozenset[int]) -> list[str]:
            return sorted(inst.colleges[j].id for j in js)
        return {
            "iterations": self.iterations,
            "must_open": ids(self.must_open),
            "must_close": ids(self.must_close),
            "rounds": [{"open": ids(x), "close": ids(y)} for x, y in self.trace],
        }


def _no_groups(name: str, inst: Instance) -> None:
    if inst.lower_quota_groups:
        raise AlgorithmError(f"{name}: lower-quota groups present; "
                             "per-college fixing rules do not apply")


def must_open(inst: Instance, closed: frozenset[int] = frozenset()) -> frozenset[int]:
    """Colleges certain to be open in every stable outcome of the market
    without the closed ones: their quota-free stable intake already
    reaches their lower quota."""
    _no_groups("must_open", inst)
    intake = da(inst, side="applicant", exclude=closed).intake(inst)
    return frozenset(j for j, c in enumerate(inst.colleges)
                     if j not in closed and intake[j] >= c.lower)


def must_close(inst: Instance, open_fixed: frozenset[int] = frozenset()) -> frozenset[int]:
    """Colleges certain to be closed: even with every unfixed college
    other than the candidate closed, the candidate stays under its lower
    quota, and reopening colleges only lowers its intake further."""
    _no_groups("must_close", inst)
    out = set()
    for j in range(inst.m):
        if j in open_fixed:
            continue
        exclude = frozenset(k for k in range(inst.m)
                            if k != j and k not in open_fixed)
        intake = da(inst, side="applicant", exclude=exclude).intake(inst)
        if intake[j] < inst.colleges[j].lower:
            out.add(j)
    return frozenset(out)


def fix_iterate(inst: Instance) -> FixingResult:
    """Alternate the open and close tests to a joint fixpoint.

    Each round first recomputes the open set on the market without the
    colleges already fixed closed, then retests the remaining candidates
    against the enlarged open set. Both sets grow monotonically, so the
    procedure stops as soon as a round adds nothing."""
    _no_groups("fix_iterate", inst)
    opened = must_open(inst)
    closed = must_close(inst, opened)
    rounds = [(opened, closed)]
    while closed:
        opened_next = opened | must_open(inst, closed)
        if opened_next == opened:
            break
        closed_next = closed | must_close(inst, opened_next)
        rounds.append((opened_next, closed_next))
        grew = closed_next != closed
        opened, closed = opened_next, closed_next
        if not grew:
            break
    return FixingResult(must_open=opened, must_close=closed,
                        iterations=len(rounds), trace=tuple(rounds))


def apply_fixings(model: LinearModel, fixing: FixingResult) -> LinearModel:
    """Pin the open flags of fixed colleges in a lower-quota model.

    Must-open colleges get their open variable forced to 1, must-close
    ones to 0. The model is modified in place and returned."""
    if fixing.must_open & fixing.must_close:
        raise ModelError("fixing declares a college both open and closed")
    by_key = {v.key: v for v in model.vars_by_role("open")}
    for j in sorted(fixing.must_open | fixing.must_close):
        var = by_key.get(j)
        if var is None:
            raise ModelError(f"model has no open variable for college index {j}")
        if j in fixing.must_open:
            model.variables[var.name] = var._replace(lo=1)
        else:
            model.variables[var.name] = var._replace(hi=0)
    return model
