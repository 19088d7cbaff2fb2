"""Exact search over bounded integer models.

One depth-first driver, _search, with integer bound propagation at every
node: a loop over a stack of open choice points, so no recursion limit
bounds the depth. A choice point makes its values lazily, each on a copy
of its node's arrays and the last on the arrays themselves. A passed node
or time cap sets the engine's capped flag. Each node carries, beside its
bounds lo and hi, the minimum activity of every row (act), updated by |c|
times the move whenever a bound that the row reads moves (incremental
bounds consistency after Harvey and Schimpf). A row is queued only when
its slack falls below its reach, the most any of its terms could need, so
a visited row reads its slack in O(1) and scans its terms once. The
fixpoint does not depend on the order rows are visited in.

Branching is most-constrained-first (smallest domain, then declaration
order) with values tried in ascending order, so node counts and reported
solutions are a pure function of the model. Callers pick the mode through
callbacks, which see a node's lo, hi and act: a leaf callback runs where
no candidate variable is left unfixed and may end the search, and an
optional prune callback cuts nodes after propagation. solve minimises each
objective in turn on one engine (a max objective through its negation; a
model without one gets a single constant stage, which ends at the first
feasible leaf) by an incumbent leaf and a bound prune, and freezes each
optimum as two rows before the next stage, so the node and time caps span
all stages. enumerate_feasible branches over the projection variables
only, and its leaf runs the same minimiser from the leaf's own bounds and
activities to find one completion, the least over the variables it is
asked to minimise. Every accepted leaf is re-verified against the
original constraints, independently of the propagation rows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .linmodel import LinearModel, ModelError, Objective, assignment_satisfies


class SolverError(RuntimeError):
    """Search and model checking disagree; indicates an internal bug."""


@dataclass
class SolveResult:
    status: str                           # optimal | feasible | infeasible | limit_reached
    assignment: dict[str, int] | None
    objective_values: list[int] = field(default_factory=list)
    nodes: int = 0
    elapsed: float = 0.0
    row_visits: int = 0                   # rows taken off the propagation queue


@dataclass
class EnumerateResult:
    projections: list[dict[str, int]]
    truncated: bool = False
    nodes: int = 0
    row_visits: int = 0


class _Engine:
    """Rows sum(c * var[v]) <= rhs over the model's variables, with the
    minimum activity of every row kept per node in a list act beside the
    node's bounds lo and hi."""

    def __init__(self, model: LinearModel,
                 node_cap: int | None, time_cap: float | None):
        self.model = model
        self.names = list(model.variables)
        index = {n: k for k, n in enumerate(self.names)}
        self.index = index
        self.root_lo = [model.variables[n].lo for n in self.names]
        self.root_hi = [model.variables[n].hi for n in self.names]
        # Row r reads lo[v] through its terms with c > 0 (pos[r], as (v, c))
        # and hi[v] through those with c < 0 (neg[r], as (v, -c)); lo_rows[v]
        # and hi_rows[v] list the rows that read each bound, as (r, |c|).
        self.pos: list[list[tuple[int, int]]] = []
        self.neg: list[list[tuple[int, int]]] = []
        self.rhs: list[int] = []
        self.reach: list[int] = []
        self.lo_rows: list[list[tuple[int, int]]] = [[] for _ in self.names]
        self.hi_rows: list[list[tuple[int, int]]] = [[] for _ in self.names]
        self.queued: list[bool] = []
        self.width = [h - l for l, h in zip(self.root_lo, self.root_hi)]
        for con in model.constraints:
            self.add_rows(con.coeffs, con.rhs, con.sense)
        self.node_cap = node_cap
        self.deadline = None if time_cap is None else time.monotonic() + time_cap
        self.nodes = 0
        self.row_visits = 0
        self.capped = False

    def add_rows(self, coeffs: Sequence[tuple[str, int]], rhs: int,
                 sense: str) -> None:
        """Append sum(c * var) over coeffs, compared to rhs by sense, as one
        or two <= rows, each with its reach: the largest |c| times a root
        domain width over its terms. A row whose slack is at least its
        reach tightens nothing."""
        pos, neg, reach = [], [], 0
        index, width = self.index, self.width
        for name, c in coeffs:
            v = index[name]
            if c > 0:
                pos.append((v, c))
            elif c < 0:
                c = -c
                neg.append((v, c))
            if c * width[v] > reach:
                reach = c * width[v]
        if sense != ">=":
            self._add_row(pos, neg, rhs, reach)
        if sense != "<=":
            self._add_row(neg, pos, -rhs, reach)

    def _add_row(self, pos: list[tuple[int, int]], neg: list[tuple[int, int]],
                 rhs: int, reach: int) -> None:
        r = len(self.rhs)
        for v, c in pos:
            self.lo_rows[v].append((r, c))
        for v, a in neg:
            self.hi_rows[v].append((r, a))
        self.pos.append(pos)
        self.neg.append(neg)
        self.rhs.append(rhs)
        self.reach.append(reach)
        self.queued.append(False)

    def activities(self, lo: list[int], hi: list[int]) -> list[int]:
        """Every row's minimum activity over the box [lo, hi]."""
        act = []
        for pos, neg in zip(self.pos, self.neg):
            total = 0
            for v, c in pos:
                total += c * lo[v]
            for v, a in neg:
                total -= a * hi[v]
            act.append(total)
        return act

    def root(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The model's own bounds, their activities, and the rows that may
        tighten them."""
        lo, hi = self.root_lo.copy(), self.root_hi.copy()
        act = self.activities(lo, hi)
        rhs, reach = self.rhs, self.reach
        return lo, hi, act, [r for r, a in enumerate(act) if rhs[r] - a < reach[r]]

    def fix(self, lo: list[int], hi: list[int], act: list[int],
            v: int, value: int) -> list[int]:
        """Fix var[v] to value; return the rows that may tighten after it."""
        rhs, reach = self.rhs, self.reach
        seed = []
        d = value - lo[v]
        if d:
            for r, c in self.lo_rows[v]:
                act[r] += c * d
                if rhs[r] - act[r] < reach[r]:
                    seed.append(r)
        d = hi[v] - value
        if d:
            for r, a in self.hi_rows[v]:
                act[r] += a * d
                if rhs[r] - act[r] < reach[r]:
                    seed.append(r)
        lo[v] = hi[v] = value
        return seed

    def tick(self) -> bool:
        """Count a node; False, with capped set, once a cap is passed."""
        self.nodes += 1
        if (self.node_cap is not None and self.nodes > self.node_cap) or (
                self.deadline is not None and time.monotonic() > self.deadline):
            self.capped = True
        return not self.capped

    def propagate(self, lo: list[int], hi: list[int], act: list[int],
                  seed) -> bool:
        """Tighten bounds to a fixpoint, keeping act in step; False when a
        row is unsatisfiable.

        seed: rows that may have lost their fixpoint. A moved bound
        updates the activities of the rows that read it, and queues those
        whose slack fell below their reach.
        """
        pos, neg, rhs, reach = self.pos, self.neg, self.rhs, self.reach
        lo_rows, hi_rows, queued = self.lo_rows, self.hi_rows, self.queued
        pending = deque()
        for r in seed:
            if not queued[r]:
                queued[r] = True
                pending.append(r)
        visits = 0
        while pending:
            r = pending.popleft()
            queued[r] = False
            visits += 1
            slack = rhs[r] - act[r]
            if slack < 0:
                for r2 in pending:
                    queued[r2] = False
                self.row_visits += visits
                return False
            for v, c in pos[r]:
                if c * (hi[v] - lo[v]) > slack:
                    new = lo[v] + slack // c
                    d = hi[v] - new
                    hi[v] = new
                    for r2, a in hi_rows[v]:
                        act[r2] += a * d
                        if not queued[r2] and rhs[r2] - act[r2] < reach[r2]:
                            queued[r2] = True
                            pending.append(r2)
            for v, a in neg[r]:
                if a * (hi[v] - lo[v]) > slack:
                    new = hi[v] - slack // a
                    d = new - lo[v]
                    lo[v] = new
                    for r2, c in lo_rows[v]:
                        act[r2] += c * d
                        if not queued[r2] and rhs[r2] - act[r2] < reach[r2]:
                            queued[r2] = True
                            pending.append(r2)
        self.row_visits += visits
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


Callback = Callable[[list[int], list[int], list[int]], bool]


def _search(eng: _Engine, lo: list[int], hi: list[int], act: list[int],
            seed, leaf: Callback, prune: Callback | None = None,
            candidates: Sequence[int] | None = None) -> bool:
    """Depth-first search below one node; True when a leaf ended it, False
    when the tree ran out or a cap cut it short (eng.capped).

    act: the rows' minimum activities over [lo, hi]; seed: rows to
    propagate at this node. prune(lo, hi, act) True cuts a node after
    propagation. leaf(lo, hi, act) runs where no candidate variable
    (default: any variable) is left unfixed, and True from it ends the
    search. An open choice point is [lo, hi, act, v, next value].
    """
    stack: list[list] = []
    while eng.tick():
        if eng.propagate(lo, hi, act, seed) and (
                prune is None or not prune(lo, hi, act)):
            v = eng.pick(lo, hi, candidates)
            if v is None:
                if leaf(lo, hi, act):
                    return True
            else:
                stack.append([lo, hi, act, v, lo[v]])
        if not stack:
            return False
        point = stack[-1]
        lo, hi, act, v, value = point
        if value < hi[v]:
            point[4] = value + 1
            lo, hi, act = lo.copy(), hi.copy(), act.copy()
        else:
            stack.pop()
        seed = eng.fix(lo, hi, act, v, value)
    return False


def _minimize(eng: _Engine, terms: tuple[tuple[int, int], ...],
              node: tuple | None = None
              ) -> tuple[dict[str, int] | None, int | None]:
    """Least value of sum(c * var[v]) over the engine's rows below node
    (lo, hi, act, seed), the root by default, as (best assignment, its
    value); proven least unless eng.capped."""
    best: dict[str, int] | None = None
    best_val: int | None = None

    def incumbent(lo, hi, act) -> bool:
        nonlocal best, best_val
        assignment = eng.leaf_assignment(lo)
        value = sum(c * lo[v] for v, c in terms)
        if best_val is None or value < best_val:
            best, best_val = assignment, value
        return not terms  # a constant objective is optimal at any leaf

    def prune(lo, hi, act) -> bool:
        return best_val is not None and sum(
            c * (lo[v] if c > 0 else hi[v]) for v, c in terms) >= best_val

    _search(eng, *(node or eng.root()), incumbent, prune if terms else None)
    return best, best_val


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
    # without objectives, one constant stage whose first leaf is optimal;
    # its value is not reported
    for obj in model.objectives or [Objective("min", ())]:
        sign = 1 if obj.sense == "min" else -1
        coeffs = [(v, sign * c) for v, c in obj.coeffs]
        terms = tuple((eng.index[v], c) for v, c in coeffs if c != 0)
        assignment, value = _minimize(eng, terms)
        if assignment is None:
            break
        best = assignment
        values.append(sign * value)
        if eng.capped:
            break
        eng.add_rows(coeffs, value, "==")
    complete = not eng.capped
    if best is None:
        status = "infeasible" if complete else "limit_reached"
    else:
        status = "optimal" if complete and model.objectives else "feasible"
    return SolveResult(status, best, values[:len(model.objectives)], eng.nodes,
                       time.monotonic() - started, eng.row_visits)


def enumerate_feasible(model: LinearModel, projection: Sequence[str],
                       cap: int | None = None, node_cap: int | None = None,
                       time_cap: float | None = None,
                       minimize: Sequence[str] = ()) -> EnumerateResult:
    """All values the projection variables take over the feasible set.

    Projection variables are branched first; each fully fixed projection is
    kept as soon as one feasible completion of the remaining variables
    exists, so witness multiplicity never inflates the listing. With
    minimize, that completion is one of least sum over the minimize
    variables, found by the same search below the projection's leaf, and
    each entry carries their values beside the projection's. Objectives
    are ignored. Results are sorted by the projection values read in sorted
    variable-name order; truncated marks a listing cut short by any cap,
    and an entry whose completion a cap cut short is not listed.
    An empty projection asks whether the model is feasible: it lists [{}]
    for a feasible model and [] for an infeasible one.
    """
    names = [*projection, *minimize]
    if len(set(names)) != len(names):
        raise ModelError("projection and minimize name a variable twice")
    for name in names:
        if name not in model.variables:
            raise ModelError(f"unknown projection variable {name!r}")
    eng = _Engine(model, node_cap, time_cap)
    proj_idx = [eng.index[n] for n in projection]
    terms = tuple((eng.index[n], 1) for n in minimize)
    found: list[dict[str, int]] = []

    def keep(lo, hi, act) -> bool:
        """True, which ends the listing, only when a cap cuts it short."""
        # the completion may reuse these lists, but a fixed variable never moves
        best, _ = _minimize(eng, terms, (lo, hi, act, ()))
        if eng.capped:
            return True
        if best is None:
            return False
        if cap is not None and len(found) >= cap:
            return True
        found.append({n: best[n] for n in names})
        return False

    truncated = (_search(eng, *eng.root(), keep, candidates=proj_idx)
                 or eng.capped)
    order = sorted(projection)
    found.sort(key=lambda entry: [entry[n] for n in order])
    return EnumerateResult(found, truncated, eng.nodes, eng.row_visits)
