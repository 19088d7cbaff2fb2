"""Definition-level stability checking and exhaustive enumeration.

Every check here works directly from the instance data, never through the
integer-programming models or the matching algorithms, so it can serve as
an independent referee for both.

Variants:
  classical      strict scores, blocking pair = free seat or weaker admit
  weak_ties      ties allowed, blocking needs a strictly weaker admit
  scorelimits_H  cutoff vectors: feasible and no cutoff can drop by one;
                 an empty matching is read off the cutoffs
  lower          open/closed colleges, blocking groups at closed ones
  common         quota sets: a rejection needs one full set of better admits
  paired         two-college applications, both-or-neither semantics

The five matching variants share one feasibility pass and one blocking
rule. The pass checks upper quotas, then (with open flags) closed colleges
that admit and open ones short of their lower quota, lower groups, and
quota sets. For the rule, a pool is a college or a quota set, and it is
full when its intake reaches its upper quota. guard[j] is the highest
lowest-admit score over the full pools containing college j (-inf when
none is full). An application the applicant prefers to their match is
refused justly iff guard[j] + slack > score, with slack 1 under weak_ties
and 0 otherwise; a paired application needs that at either college.
scorelimits_H shares the feasibility pass and keeps its own cutoff check:
a positive t_j is reducible iff intake_j plus the applicants that t_j - 1
would draw to j fits the upper quota. Those newcomers score t_j - 1 at j
and rank j above their induced match or are unmatched, so one pass over
the lists counts them for every college at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import inf

from .instance import Application, College, Instance
from .solution import Solution, empty_matching

VARIANTS = ("classical", "weak_ties", "scorelimits_H", "lower", "common", "paired")

MATCHING_GUARD = 16          # max applications for matching enumeration
LIMIT_GUARD = 1_000_000      # max cutoff vectors for score-limit enumeration
FLAG_GUARD = 4096            # max open/closed flag combinations


class ShapeError(ValueError):
    """Solution or instance does not fit the requested variant."""


class SizeGuardError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass
class Violation:
    kind: str                 # quota_breach | blocking_pair | blocking_group |
                              # reducible_score_limit | unfilled_positive_limit |
                              # common_quota_breach | paired_block
    subject: dict[str, object]
    detail: str

    def to_report(self) -> dict:
        return {"kind": self.kind, "subject": self.subject, "detail": self.detail}


@dataclass
class StabilityReport:
    verdict: str              # stable | unstable | infeasible
    violations: list[Violation] = field(default_factory=list)

    def to_report(self) -> dict:
        return {"verdict": self.verdict,
                "violations": [v.to_report() for v in self.violations]}


@dataclass
class EnumerationResult:
    solutions: list[Solution]
    truncated: bool = False


# Shape refusals per variant: each entry names an instance feature the
# variant refuses and the message, checked in this order.
_REFUSALS = {
    "classical": (("has_pairs", "classical variants need simple applications only"),
                  ("common_quota_sets", "classical variants exclude quota sets"),
                  ("has_ties", "classical variant needs strict scores")),
    "weak_ties": (("has_pairs", "classical variants need simple applications only"),
                  ("common_quota_sets", "classical variants exclude quota sets")),
    "scorelimits_H": (("has_pairs", "score-limit variant needs simple applications"),
                      ("common_quota_sets", "score-limit variant excludes quota sets")),
    "lower": (("has_pairs", "lower-quota variant needs simple applications"),
              ("common_quota_sets", "lower-quota variant excludes quota sets"),
              ("has_ties", "lower-quota variant needs strict scores")),
    "common": (("has_pairs", "common-quota variant needs simple applications"),
               ("has_ties", "common-quota variant needs strict scores"),
               ("has_lower_quotas", "common-quota variant excludes lower quotas")),
    "paired": (("common_quota_sets", "paired variant excludes quota sets"),
               ("has_ties", "paired variant needs strict scores"),
               ("has_lower_quotas", "paired variant excludes lower quotas")),
}

# blocking_pair details per matching variant: (no full pool holds the
# college, a full pool holds a weaker admit); None means the first text
# serves both
_BLOCK_DETAILS = {
    "classical": ("college has a free seat", "seat held by {} with score {}"),
    "weak_ties": ("college has a free seat", "seat held by {} with score {}"),
    "lower": ("open college has a free seat", "seat held by {} with a lower score"),
    "common": ("no quota set containing the college is full of better admits", None),
    "paired": ("college is not full of better admits", None),
}


def check(inst: Instance, sol: Solution, variant: str) -> StabilityReport:
    """Verdict is stable iff the variant's definition holds; feasibility
    violations yield infeasible, blocking-only violations yield unstable."""
    if variant not in _REFUSALS:
        raise ShapeError(f"unknown variant {variant!r}")
    for feature, message in _REFUSALS[variant]:
        _require(not getattr(inst, feature), message)
    if variant == "scorelimits_H":
        return _check_scorelimits(inst, sol)
    return _check_matching(inst, sol, variant)


def quota_breaches(inst: Instance, sol: Solution) -> list[Violation]:
    """The feasibility pass alone, for outcomes no variant audits: upper
    quotas and quota sets always, lower quotas and groups under the
    solution's open flags when it carries them."""
    flags = ({j: sol.open_colleges.get(j, True) for j in range(inst.m)}
             if sol.open_colleges else None)
    grouped = flags is not None and bool(inst.lower_quota_groups)
    return _feasibility(inst, sol.intake(inst), flags, grouped)


def _verdict(violations: list[Violation]) -> StabilityReport:
    if not violations:
        return StabilityReport("stable")
    feasibility = {"quota_breach", "common_quota_breach"}
    if any(v.kind in feasibility for v in violations):
        return StabilityReport("infeasible", violations)
    return StabilityReport("unstable", violations)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


def _validate_matching(inst: Instance, sol: Solution, allow_pairs: bool) -> None:
    for i, target in sol.matching.items():
        if target is None:
            continue
        _require(0 <= i < inst.n, f"matching references unknown applicant index {i}")
        if isinstance(target, tuple) and not allow_pairs:
            raise ShapeError("paired assignment under a simple-application variant")
        if not any(app.target == target for app in inst.by_applicant[i]):
            raise ShapeError(
                f"applicant {inst.applicants[i]} matched outside their list")


def _matched_rank(inst: Instance, sol: Solution, i: int) -> int | None:
    target = sol.matching.get(i)
    if target is None:
        return None
    for app in inst.by_applicant[i]:
        if app.target == target:
            return app.rank
    return None


def _admitted(inst: Instance, sol: Solution) -> list[list[int]]:
    """Per college, the applicants holding a seat there in matching order,
    from one pass over the matching; a paired admission counts at both."""
    out: list[list[int]] = [[] for _ in range(inst.m)]
    for i, target in sol.matching.items():
        if target is None:
            continue
        if isinstance(target, tuple):
            for j in target:
                out[j].append(i)
        else:
            out[target].append(i)
    return out


def _guard(inst: Instance, intake: list[int], admitted: list[list[int]]) -> list[float]:
    """Per college j, the highest lowest-admit score over the full pools
    containing j (the college itself and every quota set holding it);
    -inf when none is full, inf when a full pool admits nobody."""
    lowest = [min((inst.score_of(h, j) for h in hs), default=inf)
              for j, hs in enumerate(admitted)]
    guard = [lowest[j] if intake[j] >= c.upper else -inf
             for j, c in enumerate(inst.colleges)]
    for qs in inst.common_quota_sets:
        if sum(intake[k] for k in qs.members) >= qs.upper:
            floor = min(lowest[k] for k in qs.members)
            for k in qs.members:
                guard[k] = max(guard[k], floor)
    return guard


def _feasibility(inst: Instance, intake: list[int], flags: dict[int, bool] | None,
                 grouped: bool) -> list[Violation]:
    """Upper quotas; with open flags, closed colleges that admit and open
    ones short of their lower quota (after every upper quota when grouped),
    then lower groups; then quota sets."""
    out = []

    def breach(college: College, detail: str) -> None:
        out.append(Violation("quota_breach", {"college": college.id}, detail))

    for j, c in enumerate(inst.colleges):
        if flags is not None and not flags[j]:
            if intake[j] > 0:
                breach(c, f"closed college admits {intake[j]} applicants")
            continue
        if intake[j] > c.upper:
            breach(c, f"{intake[j]} admitted with {c.upper} seats")
        if flags is not None and not grouped and intake[j] < c.lower:
            breach(c, f"open college admits {intake[j]}, lower quota {c.lower}")
    if grouped:
        for j, c in enumerate(inst.colleges):
            if flags[j] and intake[j] < c.lower:
                breach(c, f"open college admits {intake[j]}, lower quota {c.lower}")
        for g in inst.lower_quota_groups:
            states = {flags[j] for j in g.members}
            if len(states) > 1:
                out.append(Violation("quota_breach", {"group": g.id},
                                     "members must open or close together"))
                continue
            total = sum(intake[j] for j in g.members)
            if states == {True} and total < g.lower:
                out.append(Violation(
                    "quota_breach", {"group": g.id},
                    f"open group admits {total}, lower quota {g.lower}"))
    for qs in inst.common_quota_sets:
        total = sum(intake[j] for j in qs.members)
        if total > qs.upper:
            out.append(Violation(
                "common_quota_breach", {"set": qs.id},
                f"{total} admitted across the set with {qs.upper} joint seats"))
    return out


def _check_matching(inst: Instance, sol: Solution, variant: str) -> StabilityReport:
    """One path for every matching variant: the feasibility pass, then each
    application the applicant prefers to their match is refused justly iff
    guard[j] + slack > score at one of its colleges."""
    _validate_matching(inst, sol, allow_pairs=variant == "paired")
    lower = variant == "lower"
    grouped = lower and bool(inst.lower_quota_groups)
    if grouped:
        _require(bool(sol.open_colleges), "group instances need explicit open flags")
    flags = _derive_open_flags(inst, sol) if lower else None
    intake = sol.intake(inst)
    violations = _feasibility(inst, intake, flags, grouped)
    if violations and variant in ("common", "paired"):
        return _verdict(violations)
    admitted = _admitted(inst, sol)
    guard = _guard(inst, intake, admitted)
    slack = 1 if variant == "weak_ties" else 0
    free, weaker = _BLOCK_DETAILS[variant]
    for app in inst.applications:
        i = app.applicant
        if app.is_paired:
            j, k = app.target
            if guard[j] + slack > app.score_at(j) or guard[k] + slack > app.score_at(k):
                continue
            rank = _matched_rank(inst, sol, i)
            if rank is not None and rank <= app.rank:
                continue
            violations.append(Violation(
                "paired_block",
                {"applicant": inst.applicants[i],
                 "pair": [inst.colleges[j].id, inst.colleges[k].id]},
                "neither college is full of better admits"))
            continue
        j, s = app.target, app.score
        if guard[j] + slack > s or (flags is not None and not flags[j]):
            continue
        rank = _matched_rank(inst, sol, i)
        if rank is not None and rank <= app.rank:
            continue
        detail = free
        if weaker is not None and guard[j] > -inf:
            h = next(h for h in admitted[j] if h != i and inst.score_of(h, j) < s)
            detail = weaker.format(inst.applicants[h], inst.score_of(h, j))
        violations.append(Violation(
            "blocking_pair",
            {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
            detail))
    # blocking groups at closed colleges; dropped when groups are declared,
    # mirroring the group builder which has no closed-college stability rule
    if lower and not grouped:
        for j, c in enumerate(inst.colleges):
            if flags[j]:
                continue
            unsatisfied = 0
            for i in inst.applicants_at[j]:
                rank_here = min(a.rank for a in inst.by_applicant[i] if a.target == j)
                rank = _matched_rank(inst, sol, i)
                if rank is None or rank >= rank_here:
                    unsatisfied += 1
            if unsatisfied >= c.lower:
                violations.append(Violation(
                    "blocking_group", {"college": c.id},
                    f"{unsatisfied} applicants would fill the closed college "
                    f"(lower quota {c.lower})"))
    return _verdict(violations)


def _induced(inst: Instance, limits: list[int]) -> dict[int, int | None]:
    assignment: dict[int, int | None] = {i: None for i in range(inst.n)}
    for i in range(inst.n):
        for app in inst.by_applicant[i]:
            if app.score >= limits[app.target]:
                assignment[i] = app.target
                break
    return assignment


def _check_scorelimits(inst: Instance, sol: Solution) -> StabilityReport:
    top = inst.max_score + 1
    limits = []
    for j, c in enumerate(inst.colleges):
        _require(j in sol.score_limits, f"missing score limit for college {c.id}")
        t = sol.score_limits[j]
        _require(0 <= t <= top, f"score limit for {c.id} outside [0, {top}]")
        limits.append(t)
    induced = Solution(matching=_induced(inst, limits))
    if sol.matching:
        claimed = {i: sol.matching.get(i) for i in range(inst.n)}
        if claimed != induced.matching:
            raise ShapeError("matching is not the one the score limits admit")
    intake = induced.intake(inst)
    violations = _feasibility(inst, intake, None, False)
    if violations:
        return _verdict(violations)
    # the applicants t_j - 1 would draw to j: the entries above the match
    newcomers = [0] * inst.m
    for i, apps in enumerate(inst.by_applicant):
        for app in apps:
            if app.target == induced.matching[i]:
                break
            if app.score == limits[app.target] - 1:
                newcomers[app.target] += 1
    for j, c in enumerate(inst.colleges):
        if limits[j] == 0:
            continue
        if intake[j] + newcomers[j] <= c.upper:
            kind = ("unfilled_positive_limit" if intake[j] < c.upper
                    else "reducible_score_limit")
            violations.append(Violation(
                kind, {"college": c.id},
                f"limit {limits[j]} can drop to {limits[j] - 1} without breaking the quota"))
    return _verdict(violations)


def _derive_open_flags(inst: Instance, sol: Solution) -> dict[int, bool]:
    if sol.open_colleges:
        flags = dict(sol.open_colleges)
        for j in range(inst.m):
            _require(j in flags, f"missing open flag for college {inst.colleges[j].id}")
        return flags
    intake = sol.intake(inst)
    return {j: intake[j] > 0 or inst.colleges[j].lower == 0 for j in range(inst.m)}


def _enumerate_assignments(inst: Instance, allow_pairs: bool):
    """All feasible assignments in canonical order, pruned by upper quotas."""
    choices: list[list[Application | None]] = []
    for i in range(inst.n):
        opts: list[Application | None] = [None]
        opts.extend(inst.by_applicant[i])
        choices.append(opts)
    intake = [0] * inst.m
    assignment: dict[int, object] = {}

    def rec(i: int):
        if i == inst.n:
            yield dict(assignment)
            return
        for opt in choices[i]:
            if opt is None:
                assignment[i] = None
                yield from rec(i + 1)
                continue
            if opt.is_paired and not allow_pairs:
                continue
            cols = opt.colleges()
            if any(intake[j] + 1 > inst.colleges[j].upper for j in cols):
                continue
            for j in cols:
                intake[j] += 1
            assignment[i] = opt.target
            yield from rec(i + 1)
            for j in cols:
                intake[j] -= 1
        assignment.pop(i, None)

    yield from rec(0)


def enumerate_stable(inst: Instance, variant: str, cap: int | None = None) -> EnumerationResult:
    """Exhaustively list stable solutions of small instances."""
    if variant not in VARIANTS:
        raise ShapeError(f"unknown variant {variant!r}")
    if len(inst.applications) > MATCHING_GUARD:
        raise SizeGuardError(
            f"{len(inst.applications)} applications exceed the enumeration guard "
            f"({MATCHING_GUARD})")
    solutions: list[Solution] = []
    for sol in _candidates(inst, variant):
        if check(inst, sol, variant).verdict == "stable":
            if cap is not None and len(solutions) == cap:
                return EnumerationResult(solutions, truncated=True)
            solutions.append(sol)
    return EnumerationResult(solutions)


def _candidates(inst: Instance, variant: str):
    """Every solution the variant's listing tests, in canonical order:
    cutoff vectors with the matchings they induce for scorelimits_H,
    each feasible assignment under every open-flag vector for grouped
    lower quotas, and each feasible assignment otherwise."""
    if variant == "scorelimits_H":
        top = inst.max_score + 1
        if (top + 1) ** inst.m > LIMIT_GUARD:
            raise SizeGuardError("score-limit space exceeds the enumeration guard")
        for combo in product(range(top + 1), repeat=inst.m):
            yield Solution(matching=_induced(inst, list(combo)),
                           score_limits=dict(enumerate(combo)))
        return
    grouped = variant == "lower" and bool(inst.lower_quota_groups)
    if grouped and 2 ** inst.m > FLAG_GUARD:
        raise SizeGuardError("open-flag space exceeds the enumeration guard")
    flag_vectors = list(product((False, True), repeat=inst.m)) if grouped else [()]
    for assignment in _enumerate_assignments(inst, variant == "paired"):
        for flags in flag_vectors:
            matching = empty_matching(inst)
            matching.update(assignment)
            yield Solution(matching=matching, open_colleges=dict(enumerate(flags)))
