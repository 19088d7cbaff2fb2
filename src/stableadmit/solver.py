"""Exact search over bounded integer models.

One depth-first driver, _search, with integer bound propagation at every
node. Branching is most-constrained-first (smallest domain, then
declaration order) with values tried in ascending order, so node counts
and reported solutions are a pure function of the model. Callers pick
the mode through callbacks: a leaf callback runs where no candidate
variable is left unfixed and may end the search, and an optional prune
callback cuts nodes after propagation. solve passes an incumbent leaf
(plus an objective-bound prune when the model has an objective);
enumerate_feasible branches over the projection variables only, and its
leaf runs the same driver again to find one completion. Every accepted
leaf is re-verified against the original constraints, independently of
the propagation rows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .linmodel import Constraint, LinearModel, ModelError, assignment_satisfies


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
        rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
        for con in model.constraints:
            terms = tuple((index[v], c) for v, c in con.coeffs if c != 0)
            if con.sense in ("<=", "=="):
                rows.append((terms, con.rhs))
            if con.sense in (">=", "=="):
                rows.append((tuple((v, -c) for v, c in terms), -con.rhs))
        self.rows = rows
        touch: list[list[int]] = [[] for _ in self.names]
        for r, (terms, _) in enumerate(rows):
            for v, _ in terms:
                touch[v].append(r)
        self.touch = touch
        self.node_cap = node_cap
        self.deadline = None if time_cap is None else time.monotonic() + time_cap
        self.nodes = 0

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


def _objective_bound(obj_terms, sense: str, lo: list[int], hi: list[int]) -> int:
    if sense == "min":
        return sum(c * (lo[v] if c > 0 else hi[v]) for v, c in obj_terms)
    return sum(c * (hi[v] if c > 0 else lo[v]) for v, c in obj_terms)


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


def solve(model: LinearModel, node_cap: int | None = None,
          time_cap: float | None = None) -> SolveResult:
    """Optimize the model's single objective, or find any feasible point.

    Status: optimal when the search completed with an objective; feasible
    for a completed feasibility-only run or a capped run that still holds an
    incumbent; infeasible for a completed empty search; limit_reached when
    capped with nothing in hand.
    """
    if len(model.objectives) > 1:
        raise ModelError("model has several objectives; use solve_lex")
    started = time.monotonic()
    eng = _Engine(model, node_cap, time_cap)
    obj = model.objectives[0] if model.objectives else None
    best: dict[str, int] | None = None
    best_val: int | None = None

    def incumbent(lo, hi) -> bool:
        nonlocal best, best_val
        assignment = eng.leaf_assignment(lo)
        if obj is None:
            best = assignment
            return True
        value = model.evaluate(obj, assignment)
        if (best_val is None or (obj.sense == "min" and value < best_val)
                or (obj.sense == "max" and value > best_val)):
            best, best_val = assignment, value
        return False

    prune = None
    if obj is not None:
        obj_terms = tuple((eng.index[v], c) for v, c in obj.coeffs if c != 0)

        def prune(lo, hi) -> bool:
            if best_val is None:
                return False
            bound = _objective_bound(obj_terms, obj.sense, lo, hi)
            return bound >= best_val if obj.sense == "min" else bound <= best_val

    complete = _root(eng, incumbent, prune)
    elapsed = time.monotonic() - started
    if best is not None:
        values = [best_val] if obj else []
        status = ("optimal" if complete and obj else "feasible")
        return SolveResult(status, best, values, eng.nodes, elapsed)
    status = "infeasible" if complete else "limit_reached"
    return SolveResult(status, None, [], eng.nodes, elapsed)


def solve_lex(model: LinearModel, node_cap: int | None = None,
              time_cap: float | None = None) -> SolveResult:
    """Optimize the model's objectives lexicographically.

    Each optimum is frozen as an equality before the next stage runs; the
    caps bound the whole run, not each stage.
    """
    if not model.objectives:
        raise ModelError("model has no objectives")
    started = time.monotonic()
    values: list[int] = []
    fixes: list[Constraint] = []
    total_nodes = 0
    result = None
    for stage, obj in enumerate(model.objectives):
        stage_model = LinearModel(
            name=f"{model.name}.lex{stage}",
            variables=dict(model.variables),
            constraints=list(model.constraints) + fixes,
            objectives=[obj])
        remaining_nodes = None if node_cap is None else node_cap - total_nodes
        remaining_time = (None if time_cap is None
                          else time_cap - (time.monotonic() - started))
        if (remaining_nodes is not None and remaining_nodes <= 0) or (
                remaining_time is not None and remaining_time <= 0):
            status = "feasible" if result and result.assignment else "limit_reached"
            return SolveResult(status, result.assignment if result else None,
                               values, total_nodes, time.monotonic() - started)
        result = solve(stage_model, remaining_nodes, remaining_time)
        total_nodes += result.nodes
        if result.status != "optimal":
            return SolveResult(result.status, result.assignment,
                               values + result.objective_values,
                               total_nodes, time.monotonic() - started)
        value = result.objective_values[0]
        values.append(value)
        fixes.append(Constraint("lex_fix", obj.name or f"stage{stage}",
                                obj.coeffs, "==", value))
    return SolveResult("optimal", result.assignment, values,
                       total_nodes, time.monotonic() - started)


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
