"""Builders that turn admission instances into integer linear models.

Each builder emits one model family over binary assignment variables
x_{i}_{j} (applicant i admitted to college j) plus whatever auxiliary
variables its stability notion needs: cutoff limits t_{j}, filled
flags f_{j}, open flags o_{j}, and per-application witness or escape
variables. Constraint rows carry a family tag and the entities they
bind, so a violated row reads like college_feasible(c1).

build_combined adds the constraint families of tied scores, lower
quotas and shared upper quotas to one model; the ties modes of
build_scorelimits, build_lower and build_common are presets over it,
as the strict mode is over build_paired; presets keep their own
refusals. Every model is named with the variant label the command
line prints, such as scorelimits:ties_min or combined[ties;enforce],
and with what closes it (LinearModel.closure), which build_combined
decides and the presets inherit.

Every score-limit model (strict, tied, common, paired explicit and
via-common) runs on seat pools, each a plain record naming the colleges
whose seats it counts and its cutoff and filled-flag variables. Every
college has one pool of its own and each common quota set adds one.
One membership rule places every application, simple or paired: it
sits in each pool holding one of its colleges, at its score there. One
emitter, _emit_common_rows, writes the cutoff rows over the pools: an
admitted application meets the cutoffs of its pools, and a rejected
one holds a better seat or fails one of them, picked by escape
variables where it sits in several. The two paired modes differ only
in how a pair encodes its escapes.

Each build formats its assignment and cutoff names and its per-entry
row subjects once, in _Names, and each pool record its filled-flag
name. The flag names o_{j}, yflag_{j} and ogrp_{g} are formatted again
by each row that uses one. So the work of a build grows with the rows
and nonzeros it emits, each of which LinearModel checks.

Big-M constants stay at their defining sizes rather than being
tightened, keeping every row auditable against the stability
definition it encodes. All coefficients, bounds and right-hand sides
are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .instance import Application, Instance
from .linmodel import LinearModel, ModelError, assignment_satisfies
from .solution import LIMIT_ROLES, SECTIONS, Solution

SCORELIMIT_MODES = ("strict", "ties_min", "ties_full")
GROUP_POLICIES = ("enforce", "drop_with_lex_objective")
COMBINED_FEATURES = ("ties", "lower", "common")


def _refuse(builder: str, why: str) -> None:
    raise ModelError(f"{builder}: {why}")


def _require(builder: str, inst: Instance, *, pairs: bool = False,
             sets: bool = False, lower: bool = False, ties: bool = False) -> None:
    """Refuse instance features the builder cannot encode."""
    if not pairs and inst.has_pairs:
        _refuse(builder, "paired applications present")
    if not sets and inst.common_quota_sets:
        _refuse(builder, "common quota sets present")
    if not lower and inst.has_lower_quotas:
        _refuse(builder, "lower quotas present")
    if not ties and inst.has_ties:
        _refuse(builder, "tied scores present")


def _xname(app: Application) -> str:
    if app.is_paired:
        j, k = app.target
        return f"x_{app.applicant}_{j}_{k}"
    return f"x_{app.applicant}_{app.target}"


class _Entry(NamedTuple):
    """One application with the names its rows use."""
    app: Application
    x: str          # assignment variable
    subject: str    # row subject: applicant id, then target college id(s)
    pos: int        # position in the applicant's rank-ordered list


class _Names:
    """The names of one build, each formatted once.

    x_of[i] holds applicant i's assignment variables in rank order, so
    the applications ranked at least as well as an entry are
    x_of[i][:pos + 1]; entries follows inst.applications and at[j]
    follows inst.seats_at[j]."""

    def __init__(self, inst: Instance) -> None:
        cids = [c.id for c in inst.colleges]
        self.x_of: list[tuple[str, ...]] = []
        entry_of: dict[int, _Entry] = {}    # id(application) -> its entry
        for aid, apps in zip(inst.applicants, inst.by_applicant):
            names = tuple(_xname(app) for app in apps)
            self.x_of.append(names)
            for pos, app in enumerate(apps):
                if app.is_paired:
                    j, k = app.target
                    subject = f"{aid},{cids[j]}+{cids[k]}"
                else:
                    subject = f"{aid},{cids[app.target]}"
                entry_of[id(app)] = _Entry(app, names[pos], subject, pos)
        self.entries = [entry_of[id(app)] for app in inst.applications]
        self.at: list[list[_Entry]] = [[] for _ in cids]
        for entry in self.entries:
            for j in entry.app.colleges():
                self.at[j].append(entry)
        self.limit = [f"t_{j}" for j in range(inst.m)]

    def better(self, entry: _Entry) -> tuple[str, ...]:
        """Assignment variables of the entry's applicant ranked at least
        as well as the entry, itself included."""
        return self.x_of[entry.app.applicant][:entry.pos + 1]


def _add_assignment(model: LinearModel, nm: _Names) -> None:
    for e in nm.entries:
        model.add_var(e.x, 0, 1, role="assign",
                      key=(e.app.applicant, e.app.target))


def _add_applicant_feasible(model: LinearModel, inst: Instance, nm: _Names) -> None:
    for aid, names in zip(inst.applicants, nm.x_of):
        model.add_constraint("applicant_feasible", aid,
                             dict.fromkeys(names, 1), "<=", 1)


def _intake_coeffs(nm: _Names, j: int) -> dict[str, int]:
    """Seats taken at college j; a paired admission takes one of them."""
    return {e.x: 1 for e in nm.at[j]}


def _add_college_feasible(model: LinearModel, inst: Instance, nm: _Names) -> None:
    for j, c in enumerate(inst.colleges):
        model.add_constraint("college_feasible", c.id,
                             _intake_coeffs(nm, j), "<=", c.upper)


def _add_pairwise_stable(model: LinearModel, inst: Instance, nm: _Names,
                         ties: bool = False, *, open_relaxed: bool = False) -> None:
    # blocked unless matched at least as well, or the college is filled by
    # strictly better scores (ties variant: at-least-as-good scores); with
    # open flags in play the row is waived at closed colleges; both callers
    # refuse pairs, so nm.at[j] holds one simple application per applicant
    tag = ("lower_stable_open" if open_relaxed
           else "stable_ties" if ties else "stable")
    for e in nm.entries:
        j, score = e.app.target, e.app.score
        u = inst.colleges[j].upper
        coeffs = dict.fromkeys(nm.better(e), u)
        for h in nm.at[j]:
            if h.app.score > score or (ties and h.app.score >= score):
                coeffs[h.x] = coeffs.get(h.x, 0) + 1
        rhs = u
        if open_relaxed:
            coeffs[f"o_{j}"] = -u
            rhs = 0
        model.add_constraint(tag, e.subject, coeffs, ">=", rhs)


def _add_witness_closure(model: LinearModel, inst: Instance, nm: _Names) -> None:
    """Replace the filled-flag closure for tied scores: any positive cutoff
    must be irreducible, witnessed by enough holders plus applicants who
    would move in if the cutoff dropped by one."""
    top = inst.max_score + 1
    for j in range(inst.m):
        model.add_var(f"yflag_{j}", 0, 1, role="positive", key=j)
    desire_of = [tuple(f"d_{i}_{app.target}" for app in apps)
                 for i, apps in enumerate(inst.by_applicant)]
    desire = [desire_of[e.app.applicant][e.pos] for e in nm.entries]
    for e, d in zip(nm.entries, desire):
        model.add_var(d, 0, 1, role="desire",
                      key=(e.app.applicant, e.app.target))
    for j, c in enumerate(inst.colleges):
        model.add_constraint("positive_limit_flag", c.id,
                             {nm.limit[j]: 1, f"yflag_{j}": -top}, "<=", 0)
    for e in nm.entries:
        # the applicant's desire flags ranked at or below this entry
        coeffs = dict.fromkeys(desire_of[e.app.applicant][e.pos:], 1)
        coeffs[e.x] = inst.m
        model.add_constraint("desire_rank_order", e.subject,
                             coeffs, "<=", inst.m)
    for e, d in zip(nm.entries, desire):
        model.add_constraint(
            "desire_score_margin", e.subject,
            {nm.limit[e.app.target]: 1, d: inst.max_score}, "<=",
            inst.max_score + e.app.score + 1)
    for j, c in enumerate(inst.colleges):
        coeffs = {}
        for e in nm.at[j]:
            coeffs[e.x] = 1
            coeffs[desire_of[e.app.applicant][e.pos]] = 1
        coeffs[f"yflag_{j}"] = -(c.upper + 1)
        model.add_constraint("limit_irreducible", c.id, coeffs, ">=", 0)


def _add_open_vars(model: LinearModel, inst: Instance) -> None:
    for j in range(inst.m):
        model.add_var(f"o_{j}", 0, 1, role="open", key=j)


def _add_lower_feasible(model: LinearModel, inst: Instance, nm: _Names) -> None:
    for j, c in enumerate(inst.colleges):
        coeffs = _intake_coeffs(nm, j)
        coeffs[f"o_{j}"] = -c.lower
        model.add_constraint("lower_feasible_lb", c.id, coeffs, ">=", 0)
    for j, c in enumerate(inst.colleges):
        coeffs = _intake_coeffs(nm, j)
        coeffs[f"o_{j}"] = -c.upper
        model.add_constraint("lower_feasible_ub", c.id, coeffs, "<=", 0)


def _add_group_rows(model: LinearModel, inst: Instance, nm: _Names) -> None:
    """Members of a group open or close together; an open group meets its
    joint lower quota."""
    for gi, g in enumerate(inst.lower_quota_groups):
        model.add_var(f"ogrp_{gi}", 0, 1, role="group_open", key=g.id)
    for gi, g in enumerate(inst.lower_quota_groups):
        coeffs = {f"o_{j}": 1 for j in g.members}
        coeffs[f"ogrp_{gi}"] = -len(g.members)
        model.add_constraint("group_open_link", g.id, coeffs, "==", 0)
    for gi, g in enumerate(inst.lower_quota_groups):
        coeffs: dict[str, int] = {}
        for j in g.members:
            coeffs.update(_intake_coeffs(nm, j))
        coeffs[f"ogrp_{gi}"] = -g.lower
        model.add_constraint("group_lower_feasible", g.id, coeffs, ">=", 0)


def _add_lower_stable_closed(model: LinearModel, inst: Instance,
                             nm: _Names) -> None:
    # a closed college must leave fewer unsatisfied applicants than its
    # lower quota; applicants admitted strictly better do not count
    for j, c in enumerate(inst.colleges):
        coeffs: dict[str, int] = {}
        for e in nm.at[j]:
            for name in nm.x_of[e.app.applicant][:e.pos]:
                coeffs[name] = coeffs.get(name, 0) - 1
        coeffs[f"o_{j}"] = -(inst.n - c.lower + 1)
        model.add_constraint("lower_stable_closed", c.id, coeffs, "<=",
                             c.lower - 1 - len(inst.applicants_at[j]))


def build_classical(inst: Instance, ties: bool = False) -> LinearModel:
    """Stable matchings over assignment variables alone.

    With ties=True the stability rows accept equal-score filling, which
    characterises weakly stable matchings. add_named_objective scores
    matched applicants by rank on top of it.
    """
    _require("build_classical", inst, ties=ties)
    model = LinearModel(name="classical+ties" if ties else "classical")
    nm = _Names(inst)
    _add_assignment(model, nm)
    _add_applicant_feasible(model, inst, nm)
    _add_college_feasible(model, inst, nm)
    _add_pairwise_stable(model, inst, nm, ties=ties)
    return model


def build_scorelimits(inst: Instance, mode: str = "strict") -> LinearModel:
    """Stable outcomes in cutoff coordinates.

    strict: filled-flag closure, sound only without tied scores; the
    feasible points are exactly the stable matchings paired with the
    cutoff vectors announcing them. ties_min: tied scores allowed,
    closure by minimising the cutoff total, the optimum is the
    applicant-optimal cutoff vector. ties_full: closure by witness
    constraints instead of an objective, so every feasible point is a
    stable cutoff vector and the whole set can be enumerated.
    """
    if mode not in SCORELIMIT_MODES:
        _refuse("build_scorelimits", f"unknown mode {mode!r}")
    _require("build_scorelimits", inst, ties=(mode != "strict"))
    if mode == "strict":
        model = build_paired(inst)
    else:
        model = build_combined(inst, ties=True)
        if mode == "ties_full":
            model.objectives.clear()
    model.name = f"scorelimits:{mode}"
    return model


def build_lower(inst: Instance) -> LinearModel:
    """Stable matchings where colleges may close instead of running
    under their lower quota.

    Plain form: closed colleges must not leave a blocking group of
    unsatisfied applicants the size of their lower quota. Group form,
    used when the instance declares lower-quota groups: colleges in a
    group open and close together against a joint lower quota, and the
    per-college blocking group row is dropped since it would pin every
    quota-free member open.
    """
    _require("build_lower", inst, lower=True)
    model = build_combined(inst, lower=True)
    model.name = "lower+groups" if inst.lower_quota_groups else "lower"
    return model


class _PoolKind(NamedTuple):
    """Variable roles and row tags of one kind of seat pool."""
    limit: str
    filled: str
    quota: str
    admitted: str       # an admitted application meets the cutoff
    rejected: str       # a rejected one fails it or holds a better seat
    open_rejected: str  # the same, waived at a closed college
    filled_flag: str
    unfilled_zero: str


_COLLEGE_POOL = _PoolKind("limit", "filled", "college_feasible",
                          "score_stable_college", "score_stable_applicant",
                          "open_score_stable_applicant", "filled_flag",
                          "unfilled_zero")
_SET_POOL = _PoolKind("set_limit", "set_filled", "common_feasible",
                      "common_score_college", "common_score_applicant",
                      "common_open_score_applicant", "common_filled_flag",
                      "common_unfilled_zero")


@dataclass(frozen=True)
class _SeatPool:
    """A seat pool with a cutoff: a college's own or a quota set's."""
    kind: _PoolKind           # _COLLEGE_POOL or _SET_POOL
    label: str                # constraint subject
    suffix: str               # escape-variable suffix
    limit: str                # cutoff variable name
    filled: str               # filled-flag variable name
    key: object
    upper: int
    members: tuple[int, ...]  # colleges whose seats the pool counts


def _emit_common_rows(model: LinearModel, inst: Instance, nm: _Names,
                      pools: list[_SeatPool], *, open_relaxed: bool = False,
                      with_flags: bool = True,
                      signed_pairs: bool = False) -> None:
    """The cutoff rows of every score-limit model.

    An application, simple or paired, sits in every pool holding one of
    its colleges, at its score there; a pair's two colleges never share
    a pool, so none sits in a pool twice. Each pool's intake is what
    sits in it, in application order. An admitted application meets the
    cutoff of every pool it sits in; a rejected one holds a better seat
    or fails the cutoff of one of them.

    An application alone in its pool has no escape. One in several
    pools has escape variables that let it ignore all but one: at a
    college in a quota set, one per pool shared by the applicant's
    other such applications, keyed (applicant, pool). A pair has one
    per pool keyed (applicant, pool, rank) under a budget row, so its
    budget is not tied to a simple application's; with signed_pairs it
    has one escape e instead, +top*e in its first college's row and
    -top*e with the right-hand side lowered by top in the second's.
    That is all the two paired modes differ in.

    Rows of a college's own pool carry score-limit tags, those of a
    quota set's pool common_* tags. A simple application's row at its
    college's own pool has the entry's subject; every other row names
    its pool, as entry@pool, so the two rows of a pair tell its
    colleges apart. With open flags in play the colleges' own pools
    carry no quota row; the lower-quota rows cap them instead.
    """
    top = inst.max_score + 1
    for pool in pools:
        model.add_var(pool.limit, 0, top, role=pool.kind.limit, key=pool.key)
    if with_flags:
        for pool in pools:
            model.add_var(pool.filled, 0, 1, role=pool.kind.filled, key=pool.key)
    holding: list[list[int]] = [[] for _ in range(inst.m)]
    for si, pool in enumerate(pools):
        for j in pool.members:
            holding[j].append(si)
    intake: list[list[str]] = [[] for _ in pools]
    cuts = []    # (entry, pool, subject, score there, escape, its coefficient)
    budgets = []  # (entry, its escapes) for one with several
    used: dict[tuple, str] = {}  # escape key -> variable name
    for e in nm.entries:
        app = e.app
        if not app.is_paired:
            held = holding[app.target]
            if len(held) == 1:  # alone in its college's own pool: no escape
                intake[held[0]].append(e.x)
                cuts.append((e, pools[held[0]], e.subject, app.score, None, 0))
                continue
            within = [(si, app.score) for si in held]
        else:
            within = [(si, score) for j, score in zip(app.target, app.score)
                      for si in holding[j]]
        sits = []  # (pool index, row subject, score there)
        for si, score in within:
            intake[si].append(e.x)
            pool = pools[si]
            own = pool.kind is _COLLEGE_POOL and not app.is_paired
            subject = e.subject if own else f"{e.subject}@{pool.label}"
            sits.append((si, subject, score))
        i, rank = app.applicant, app.rank
        if signed_pairs:
            (sj, subject_j, score_j), (sk, subject_k, score_k) = sits
            esc = used.setdefault((i, sj, rank),
                                  f"esc_{i}_{pools[sj].suffix}_{rank}")
            cuts += [(e, pools[sj], subject_j, score_j, esc, top),
                     (e, pools[sk], subject_k, score_k, esc, -top)]
            continue
        names = []
        for si, subject, score in sits:
            if app.is_paired:
                esc = used.setdefault((i, si, rank),
                                      f"esc_{i}_{pools[si].suffix}_{rank}")
            else:
                esc = used.setdefault((i, si), f"esc_{i}_{pools[si].suffix}")
            cuts.append((e, pools[si], subject, score, esc, top))
            names.append(esc)
        budgets.append((e, names))
    for (i, si, *rank), name in sorted(used.items()):
        model.add_var(name, 0, 1, role="escape", key=(i, pools[si].label, *rank))
    for pool, xs in zip(pools, intake):
        if not (open_relaxed and pool.kind is _COLLEGE_POOL):
            model.add_constraint(pool.kind.quota, pool.label,
                                 dict.fromkeys(xs, 1), "<=", pool.upper)
    for e, pool, subject, score, _esc, _c in cuts:
        model.add_constraint(pool.kind.admitted, subject,
                             {pool.limit: 1, e.x: top}, "<=", top + score)
    for e, pool, subject, score, esc, c in cuts:
        coeffs = {pool.limit: 1}
        for name in nm.better(e):
            coeffs[name] = top
        rhs = score + 1
        if esc:
            coeffs[esc] = c
            if c < 0:
                rhs -= top
        if open_relaxed:
            coeffs[f"o_{e.app.target}"] = -top
            rhs -= top
        model.add_constraint(pool.kind.open_rejected if open_relaxed
                             else pool.kind.rejected, subject, coeffs, ">=", rhs)
    for e, names in budgets:
        model.add_constraint("common_escape_budget", e.subject,
                             dict.fromkeys(names, 1), "<=", len(names) - 1)
    if with_flags:
        for pool, xs in zip(pools, intake):
            coeffs = dict.fromkeys(xs, 1)
            coeffs[pool.filled] = -pool.upper
            model.add_constraint(pool.kind.filled_flag, pool.label, coeffs, ">=", 0)
        for pool in pools:
            model.add_constraint(pool.kind.unfilled_zero, pool.label,
                                 {pool.limit: 1, pool.filled: -top}, "<=", 0)


def _seat_pools(inst: Instance, nm: _Names) -> list[_SeatPool]:
    """Each college's own pool over every application taking its seats,
    then one pool per common quota set."""
    return [
        _SeatPool(_COLLEGE_POOL, c.id, f"c{j}", nm.limit[j], f"f_{j}", j,
                  c.upper, (j,))
        for j, c in enumerate(inst.colleges)
    ] + [
        _SeatPool(_SET_POOL, qs.id, f"s{si}", f"tset_{si}", f"fset_{si}", qs.id,
                  qs.upper, qs.members)
        for si, qs in enumerate(inst.common_quota_sets)
    ]


def build_common(inst: Instance) -> LinearModel:
    """Stable matchings under shared upper quotas over sets of colleges.

    Every college keeps a pool of its own; each declared set adds a
    pool across its members with the joint quota. A rejection is
    justified by failing the cutoff of at least one pool containing the
    college.
    """
    _require("build_common", inst, sets=True)
    model = build_combined(inst, common=True)
    model.name = "common"
    return model


def build_paired(inst: Instance) -> LinearModel:
    """Stable outcomes when applications may target a pair of colleges,
    taking one seat at each or none at all.

    Every college has one seat pool, and a pair sits in the pools of
    both its colleges. Both colleges of an admitted pair must be met at
    their cutoffs; a rejected pair must fail at least one of its two
    cutoffs, chosen by one signed escape variable. This differs from
    build_paired_via_common only in how a pair encodes its escapes.
    """
    _require("build_paired", inst, pairs=True)
    model = LinearModel(name="paired")
    nm = _Names(inst)
    _add_assignment(model, nm)
    _add_applicant_feasible(model, inst, nm)
    _emit_common_rows(model, inst, nm, _seat_pools(inst, nm),
                      signed_pairs=True)
    return model


def build_paired_via_common(inst: Instance) -> LinearModel:
    """Paired applications recast as shared seat pools.

    A pair behaves like one artificial college sitting inside the pools
    of both real colleges. Each college keeps one pool over everything
    that takes its seats, capped and flagged at its own quota, and its
    cutoff is the college's score limit. A rejected pair has an escape
    per pool under a budget row; that is the only difference from
    build_paired, so the feasible assignments and score limits project
    onto the same outcomes.
    """
    _require("build_paired_via_common", inst, pairs=True)
    model = LinearModel(name="paired:via-common")
    nm = _Names(inst)
    _add_assignment(model, nm)
    _add_applicant_feasible(model, inst, nm)
    _emit_common_rows(model, inst, nm, _seat_pools(inst, nm))
    return model


def build_combined(inst: Instance, *, ties: bool = False, lower: bool = False,
                   common: bool = False,
                   group_stability: str = "enforce") -> LinearModel:
    """One model covering any coherent mix of tied scores, lower quotas
    and shared upper quotas.

    The feature flags select the constraint families; every feature the
    instance exhibits must be enabled. group_stability picks the
    closure policy: enforce keeps blocking-group rows and witness
    closure as hard constraints, drop_with_lex_objective removes the
    blocking-group rows and instead maximises the number of admitted
    applicants, then minimises the cutoff total. Lower plus shared
    quotas cannot both be enforced, so that mix requires the lex
    policy. The model's closure records the outcome: "cutoffs" where
    witness rows close tied cutoffs, "objective" where ties or lower
    quotas lack those rows or their blocking-group rows.
    """
    if group_stability not in GROUP_POLICIES:
        _refuse("build_combined", f"unknown policy {group_stability!r}")
    if inst.has_pairs:
        _refuse("build_combined", "paired applications present; use build_paired")
    if inst.has_ties and not ties:
        _refuse("build_combined", "tied scores present; enable ties")
    if inst.has_lower_quotas and not lower:
        _refuse("build_combined", "lower quotas present; enable lower")
    if inst.common_quota_sets and not common:
        _refuse("build_combined", "common quota sets present; enable common")
    if lower and common and group_stability == "enforce":
        _refuse("build_combined", "incoherent policy: lower and common quotas "
                "together require drop_with_lex_objective")
    features = ",".join(compress(COMBINED_FEATURES, (ties, lower, common)))
    model = LinearModel(name=f"combined[{features or 'none'};{group_stability}]")
    nm = _Names(inst)
    _add_assignment(model, nm)
    if lower:
        _add_open_vars(model, inst)
    _add_applicant_feasible(model, inst, nm)
    if lower:
        _add_lower_feasible(model, inst, nm)
        if inst.lower_quota_groups:
            _add_group_rows(model, inst, nm)
    if common or ties:
        _emit_common_rows(model, inst, nm, _seat_pools(inst, nm),
                          open_relaxed=lower, with_flags=not ties)
    else:
        if not lower:
            _add_college_feasible(model, inst, nm)
        _add_pairwise_stable(model, inst, nm, open_relaxed=lower)
    if ties and not common and group_stability == "enforce":
        _add_witness_closure(model, inst, nm)
        model.closure = "cutoffs"
    elif ties or lower and group_stability == "drop_with_lex_objective":
        model.closure = "objective"  # no witness or blocking-group rows
    if lower and group_stability == "enforce" and not inst.lower_quota_groups:
        _add_lower_stable_closed(model, inst, nm)
    if group_stability == "drop_with_lex_objective":
        add_named_objective(inst, model, "lex_matched_then_limits")
    elif ties:
        add_named_objective(inst, model, "min_score_limits")
    return model


def add_named_objective(inst: Instance, model: LinearModel, name: str) -> None:
    """Append a named objective: applicant_optimal / applicant_pessimal
    minimise / maximise the total rank of admissions, min_score_limits
    minimises the cutoff total, and lex_matched_then_limits maximises
    the number admitted before minimising the cutoff total."""
    if name in ("applicant_optimal", "applicant_pessimal"):
        sense = "min" if name == "applicant_optimal" else "max"
        model.add_objective(sense, rank_objective(inst, model), name="total_rank")
        return
    if name not in ("min_score_limits", "lex_matched_then_limits"):
        _refuse("add_named_objective", f"unknown objective {name!r}")
    if name == "lex_matched_then_limits":
        model.add_objective("max", {v.name: 1 for v in model.vars_by_role("assign")},
                            name="matched")
    model.add_objective("min", {v.name: 1 for v in model.variables.values()
                                if v.role in LIMIT_ROLES},
                        name="total_limits")


def rank_objective(inst: Instance, model: LinearModel) -> dict[str, int]:
    """Objective coefficients scoring each admission by its rank."""
    rank = {(app.applicant, app.target): app.rank for app in inst.applications}
    return {v.name: rank[v.key] for v in model.vars_by_role("assign")}


def decode_solution(model: LinearModel, values: dict[str, int]) -> Solution:
    """Read a Solution off whichever model variables values holds, via
    their roles and the section table; the values are not checked
    against the rows."""
    matching: dict[int, object] = {}
    found = {s.role: (s.value, {}) for s in SECTIONS}
    for var in model.variables.values():
        if var.name not in values:
            continue
        value = values[var.name]
        if var.role == "assign":
            i, target = var.key
            matching.setdefault(i, None)
            if value == 1:
                matching[i] = target
        elif var.role in found:
            cast, out = found[var.role]
            out[var.key] = cast(value)
    return Solution(matching=matching,
                    **{s.field: found[s.role][1] for s in SECTIONS})


def extract_solution(model: LinearModel, assignment: dict[str, int]) -> Solution:
    """Read a satisfying assignment back into a Solution via variable
    roles. Raises ModelError naming the first broken row otherwise."""
    violated = assignment_satisfies(model, assignment)
    if violated:
        raise ModelError(f"constraint violated: {violated[0]}")
    return decode_solution(model, assignment)
