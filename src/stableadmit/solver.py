"""Exact search over bounded integer models.

One depth-first driver, _search, with integer bound propagation at every
node. Branching is most-constrained-first (smallest domain, then
declaration order) with values tried in ascending order, so node counts
and reported solutions are a pure function of the model. Callers pick
the mode through callbacks: a leaf callback runs where no candidate
variable is left unfixed and may end the search, and an optional prune
callback cuts nodes after propagation. solve handles zero or more
objectives on one engine: without one its leaf ends the search at the
first feasible point; otherwise each objective in turn is minimised
(a max objective through its negation) by an incumbent leaf and a
bound prune, and its optimum is frozen as two rows before the next
stage, so the node and time caps span all stages. enumerate_feasible
branches over the projection variables only, and its leaf runs the
same driver again to find one completion. Every accepted leaf is
re-verified against the original constraints, independently of the
propagation rows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .linmodel import LinearModel, ModelError, assignment_satisfies


class SolverError(RuntimeError):
    """Search and model checking disagree; indicates an internal bug."""


class _Stop(Exception):
    """Node or time cap reached."""


@dataclass
class SolveResult:
    status: str                           # optimal | feasible | infeasible | limit_reached
    assignment: dict[str, int] | None
    objective_values: list[int] = field(default_factory=list)
    nodes: int = 0
    elapsed: float = 0.0


@dataclass
class EnumerateResult:
    projections: list[dict[str, int]]
    truncated: bool = False
    nodes: int = 0


class _Engine:
    def __init__(self, model: LinearModel,
                 node_cap: int | None, time_cap: float | None):
        self.model = model
        self.names = list(model.variables)
        index = {n: k for k, n in enumerate(self.names)}
        self.index = index
        self.root_lo = [model.variables[n].lo for n in self.names]
        self.root_hi = [model.variables[n].hi for n in self.names]
        self.rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
        self.touch: list[list[int]] = [[] for _ in self.names]
        for con in model.constraints:
            terms = tuple((index[v], c) for v, c in con.coeffs if c != 0)
            if con.sense in ("<=", "=="):
                self.add_row(terms, con.rhs)
            if con.sense in (">=", "=="):
                self.add_row(tuple((v, -c) for v, c in terms), -con.rhs)
        self.node_cap = node_cap
        self.deadline = None if time_cap is None else time.monotonic() + time_cap
        self.nodes = 0

    def add_row(self, terms: tuple[tuple[int, int], ...], rhs: int) -> None:
        """Append the row sum(c * var[v] for v, c in terms) <= rhs."""
        for v, _ in terms:
            self.touch[v].append(len(self.rows))
        self.rows.append((terms, rhs))

    def tick(self) -> None:
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise _Stop
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop

    def propagate(self, lo: list[int], hi: list[int], seed) -> bool:
        """Tighten bounds to a fixpoint; False when a row is unsatisfiable.

        seed: row indices that may have lost their fixpoint (all rows at the
        root; after a branch, the rows touching the branched variable).
        """
        rows, touch = self.rows, self.touch
        queued = [False] * len(rows)
        pending = deque()
        for r in seed:
            if not queued[r]:
                queued[r] = True
                pending.append(r)
        while pending:
            r = pending.popleft()
            queued[r] = False
            terms, rhs = rows[r]
            minact = 0
            for v, c in terms:
                minact += c * (lo[v] if c > 0 else hi[v])
            slack = rhs - minact
            if slack < 0:
                return False
            for v, c in terms:
                width = hi[v] - lo[v]
                if width == 0:
                    continue
                if c > 0:
                    if c * width > slack:
                        hi[v] = lo[v] + slack // c
                        for r2 in touch[v]:
                            if not queued[r2]:
                                queued[r2] = True
                                pending.append(r2)
                elif -c * width > slack:
                    lo[v] = hi[v] - slack // (-c)
                    for r2 in touch[v]:
                        if not queued[r2]:
                            queued[r2] = True
                            pending.append(r2)
        return True

    def pick(self, lo: list[int], hi: list[int],
             candidates: Sequence[int] | None = None) -> int | None:
        """Unfixed variable with the smallest domain, earliest declared wins."""
        best_v = None
        best_w = None
        for v in (candidates if candidates is not None else range(len(lo))):
            w = hi[v] - lo[v]
            if w > 0 and (best_w is None or w < best_w):
                best_v, best_w = v, w
                if w == 1:
                    break
        return best_v

    def leaf_assignment(self, lo: list[int]) -> dict[str, int]:
        assignment = dict(zip(self.names, lo))
        violated = assignment_satisfies(self.model, assignment)
        if violated:
            raise SolverError(
                f"search produced a leaf violating {violated[:3]}")
        return assignment


def _search(eng: _Engine, lo: list[int], hi: list[int], seed,
            leaf: Callable[[list[int], list[int]], bool],
            prune: Callable[[list[int], list[int]], bool] | None = None,
            candidates: Sequence[int] | None = None) -> bool:
    """Depth-first search below one node; True ends the whole search.

    seed: rows to propagate at this node. prune(lo, hi) True cuts the
    node after propagation. leaf(lo, hi) runs where no candidate
    variable (default: any variable) is left unfixed, and its return
    value is passed up.
    """
    eng.tick()
    if not eng.propagate(lo, hi, seed):
        return False
    if prune is not None and prune(lo, hi):
        return False
    v = eng.pick(lo, hi, candidates)
    if v is None:
        return leaf(lo, hi)
    for value in range(lo[v], hi[v] + 1):
        lo2, hi2 = lo.copy(), hi.copy()
        lo2[v] = hi2[v] = value
        if _search(eng, lo2, hi2, eng.touch[v], leaf, prune, candidates):
            return True
    return False


def _root(eng: _Engine, leaf, prune=None, candidates=None) -> bool:
    """Search from the model's own bounds; False when a cap cut it short."""
    try:
        _search(eng, eng.root_lo.copy(), eng.root_hi.copy(),
                range(len(eng.rows)), leaf, prune, candidates)
    except _Stop:
        return False
    return True


def _minimize(eng: _Engine, terms: tuple[tuple[int, int], ...]
              ) -> tuple[bool, dict[str, int] | None, int | None]:
    """Least value of sum(c * var[v]) over the engine's rows, as
    (complete, best assignment, its value)."""
    best: dict[str, int] | None = None
    best_val: int | None = None

    def incumbent(lo, hi) -> bool:
        nonlocal best, best_val
        assignment = eng.leaf_assignment(lo)
        value = sum(c * lo[v] for v, c in terms)
        if best_val is None or value < best_val:
            best, best_val = assignment, value
        return not terms  # a constant objective is optimal at any leaf

    def prune(lo, hi) -> bool:
        return best_val is not None and sum(
            c * (lo[v] if c > 0 else hi[v]) for v, c in terms) >= best_val

    complete = _root(eng, incumbent, prune)
    return complete, best, best_val


def solve(model: LinearModel, node_cap: int | None = None,
          time_cap: float | None = None) -> SolveResult:
    """Optimize the model's objectives lexicographically, or find any
    feasible point when it has none; the caps bound all stages together.

    Status: optimal when every stage completed; feasible for a completed
    run without objectives, or a capped run that holds an incumbent or
    an earlier stage's optimum; infeasible for a completed empty search;
    limit_reached when capped with nothing in hand.
    """
    started = time.monotonic()
    eng = _Engine(model, node_cap, time_cap)
    best: dict[str, int] | None = None
    values: list[int] = []
    if not model.objectives:

        def first(lo, hi) -> bool:
            nonlocal best
            best = eng.leaf_assignment(lo)
            return True

        complete = _root(eng, first)
    for obj in model.objectives:
        sign = 1 if obj.sense == "min" else -1
        terms = tuple((eng.index[v], sign * c) for v, c in obj.coeffs if c != 0)
        complete, assignment, value = _minimize(eng, terms)
        if assignment is None:
            break
        best = assignment
        values.append(sign * value)
        if not complete:
            break
        eng.add_row(terms, value)
        eng.add_row(tuple((v, -c) for v, c in terms), -value)
    if best is None:
        status = "infeasible" if complete else "limit_reached"
    else:
        status = "optimal" if complete and model.objectives else "feasible"
    return SolveResult(status, best, values, eng.nodes,
                       time.monotonic() - started)


def solve_lex(model: LinearModel, node_cap: int | None = None,
              time_cap: float | None = None) -> SolveResult:
    """solve for a model that must carry at least one objective."""
    if not model.objectives:
        raise ModelError("model has no objectives")
    return solve(model, node_cap, time_cap)


def enumerate_feasible(model: LinearModel, projection: Sequence[str],
                       cap: int | None = None, node_cap: int | None = None,
                       time_cap: float | None = None) -> EnumerateResult:
    """All values the projection variables take over the feasible set.

    Projection variables are branched first; each fully fixed projection is
    kept as soon as one feasible completion of the remaining variables
    exists, so witness multiplicity never inflates the listing. Objectives
    are ignored. Results are sorted by the projection values read in sorted
    variable-name order; truncated marks a listing cut short by any cap.
    """
    if not projection:
        raise ModelError("projection must name at least one variable")
    if len(set(projection)) != len(projection):
        raise ModelError("projection names a variable twice")
    for name in projection:
        if name not in model.variables:
            raise ModelError(f"unknown projection variable {name!r}")
    eng = _Engine(model, node_cap, time_cap)
    proj_idx = [eng.index[n] for n in projection]
    found: list[tuple[int, ...]] = []
    capped = False

    def verified(lo, hi) -> bool:
        eng.leaf_assignment(lo)
        return True

    def keep(lo, hi) -> bool:
        nonlocal capped
        if not _search(eng, lo, hi, (), verified):
            return False
        if cap is not None and len(found) >= cap:
            capped = True
            return True
        found.append(tuple(lo[v] for v in proj_idx))
        return False

    truncated = not _root(eng, keep, candidates=proj_idx) or capped
    name_order = sorted(range(len(projection)), key=lambda k: projection[k])
    found.sort(key=lambda tup: tuple(tup[k] for k in name_order))
    projections = [dict(zip(projection, tup)) for tup in found]
    return EnumerateResult(projections, truncated, eng.nodes)
