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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import inf

from .instance import Application, Instance
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


def check(inst: Instance, sol: Solution, variant: str) -> StabilityReport:
    """Verdict is stable iff the variant's definition holds; feasibility
    violations yield infeasible, blocking-only violations yield unstable."""
    if variant == "classical":
        return _check_pairwise(inst, sol, weak=False)
    if variant == "weak_ties":
        return _check_pairwise(inst, sol, weak=True)
    if variant == "scorelimits_H":
        return _check_scorelimits(inst, sol)
    if variant == "lower":
        return _check_lower(inst, sol)
    if variant == "common":
        return _check_common(inst, sol)
    if variant == "paired":
        return _check_paired(inst, sol)
    raise ShapeError(f"unknown variant {variant!r}")


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


def _lowest(inst: Instance, admitted: list[list[int]]) -> list[float]:
    """Per college, the lowest score among its admits; inf when it has none.
    A college holds a weaker admit than score s iff its lowest is below s,
    so only then does a blocking check scan its list for the first one."""
    return [min((inst.score_of(h, j) for h in hs), default=inf)
            for j, hs in enumerate(admitted)]


def _quota_violations(inst: Instance, sol: Solution) -> list[Violation]:
    out = []
    intake = sol.intake(inst)
    for j, c in enumerate(inst.colleges):
        if intake[j] > c.upper:
            out.append(Violation("quota_breach", {"college": c.id},
                                 f"{intake[j]} admitted with {c.upper} seats"))
    return out


def _check_pairwise(inst: Instance, sol: Solution, weak: bool) -> StabilityReport:
    _require(not inst.has_pairs, "classical variants need simple applications only")
    _require(not inst.common_quota_sets, "classical variants exclude quota sets")
    if not weak:
        _require(not inst.has_ties, "classical variant needs strict scores")
    _validate_matching(inst, sol, allow_pairs=False)
    violations = _quota_violations(inst, sol)
    intake = sol.intake(inst)
    admitted = _admitted(inst, sol)
    lowest = _lowest(inst, admitted)
    for app in inst.applications:
        i, j = app.applicant, app.target
        rank = _matched_rank(inst, sol, i)
        if rank is not None and rank <= app.rank:
            continue
        if intake[j] < inst.colleges[j].upper:
            violations.append(Violation(
                "blocking_pair",
                {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
                "college has a free seat"))
            continue
        s = app.score
        if lowest[j] >= s:
            continue
        for h in admitted[j]:
            sh = inst.score_of(h, j)
            if h != i and sh < s:
                violations.append(Violation(
                    "blocking_pair",
                    {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
                    f"seat held by {inst.applicants[h]} with score {sh}"))
                break
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
    _require(not inst.has_pairs, "score-limit variant needs simple applications")
    _require(not inst.common_quota_sets, "score-limit variant excludes quota sets")
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
    violations = _quota_violations(inst, induced)
    if violations:
        return _verdict(violations)
    intake = induced.intake(inst)
    for j, c in enumerate(inst.colleges):
        if limits[j] == 0:
            continue
        trial = limits.copy()
        trial[j] -= 1
        if list(_induced(inst, trial).values()).count(j) <= c.upper:
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


def _check_lower(inst: Instance, sol: Solution) -> StabilityReport:
    _require(not inst.has_pairs, "lower-quota variant needs simple applications")
    _require(not inst.common_quota_sets, "lower-quota variant excludes quota sets")
    _require(not inst.has_ties, "lower-quota variant needs strict scores")
    _validate_matching(inst, sol, allow_pairs=False)
    grouped = bool(inst.lower_quota_groups)
    if grouped:
        _require(bool(sol.open_colleges),
                 "group instances need explicit open flags")
    flags = _derive_open_flags(inst, sol)
    violations = []
    intake = sol.intake(inst)
    for j, c in enumerate(inst.colleges):
        if not flags[j]:
            if intake[j] > 0:
                violations.append(Violation(
                    "quota_breach", {"college": c.id},
                    f"closed college admits {intake[j]} applicants"))
        else:
            if intake[j] > c.upper:
                violations.append(Violation(
                    "quota_breach", {"college": c.id},
                    f"{intake[j]} admitted with {c.upper} seats"))
            if not grouped and intake[j] < c.lower:
                violations.append(Violation(
                    "quota_breach", {"college": c.id},
                    f"open college admits {intake[j]}, lower quota {c.lower}"))
    if grouped:
        for j, c in enumerate(inst.colleges):
            if flags[j] and intake[j] < c.lower:
                violations.append(Violation(
                    "quota_breach", {"college": c.id},
                    f"open college admits {intake[j]}, lower quota {c.lower}"))
        for g in inst.lower_quota_groups:
            states = {flags[j] for j in g.members}
            if len(states) > 1:
                violations.append(Violation(
                    "quota_breach", {"group": g.id},
                    "members must open or close together"))
                continue
            if states == {True}:
                total = sum(intake[j] for j in g.members)
                if total < g.lower:
                    violations.append(Violation(
                        "quota_breach", {"group": g.id},
                        f"open group admits {total}, lower quota {g.lower}"))
    # pairwise stability at open colleges
    admitted = _admitted(inst, sol)
    lowest = _lowest(inst, admitted)
    for app in inst.applications:
        i, j = app.applicant, app.target
        if not flags[j]:
            continue
        rank = _matched_rank(inst, sol, i)
        if rank is not None and rank <= app.rank:
            continue
        if intake[j] < inst.colleges[j].upper:
            violations.append(Violation(
                "blocking_pair",
                {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
                "open college has a free seat"))
            continue
        if lowest[j] >= app.score:
            continue
        for h in admitted[j]:
            if h != i and inst.score_of(h, j) < app.score:
                violations.append(Violation(
                    "blocking_pair",
                    {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
                    f"seat held by {inst.applicants[h]} with a lower score"))
                break
    # blocking groups at closed colleges; dropped when groups are declared,
    # mirroring the group builder which has no closed-college stability rule
    if not grouped:
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


def _containing_sets(inst: Instance, j: int) -> list[tuple[str, tuple[int, ...], int]]:
    """Quota sets containing college j, the implicit singleton first."""
    sets = [(inst.colleges[j].id, (j,), inst.colleges[j].upper)]
    for qs in inst.common_quota_sets:
        if j in qs.members:
            sets.append((qs.id, qs.members, qs.upper))
    return sets


def _check_common(inst: Instance, sol: Solution) -> StabilityReport:
    _require(not inst.has_pairs, "common-quota variant needs simple applications")
    _require(not inst.has_ties, "common-quota variant needs strict scores")
    _require(not any(c.lower for c in inst.colleges) and not inst.lower_quota_groups,
             "common-quota variant excludes lower quotas")
    _validate_matching(inst, sol, allow_pairs=False)
    violations = _quota_violations(inst, sol)
    intake = sol.intake(inst)
    for qs in inst.common_quota_sets:
        total = sum(intake[j] for j in qs.members)
        if total > qs.upper:
            violations.append(Violation(
                "common_quota_breach", {"set": qs.id},
                f"{total} admitted across the set with {qs.upper} joint seats"))
    if violations:
        return _verdict(violations)
    lowest = _lowest(inst, _admitted(inst, sol))
    for app in inst.applications:
        i, j = app.applicant, app.target
        rank = _matched_rank(inst, sol, i)
        if rank is not None and rank <= app.rank:
            continue
        justified = False
        for sid, members, upper in _containing_sets(inst, j):
            if sum(intake[k] for k in members) == upper and \
                    min(lowest[k] for k in members) > app.score:
                justified = True
                break
        if not justified:
            violations.append(Violation(
                "blocking_pair",
                {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
                "no quota set containing the college is full of better admits"))
    return _verdict(violations)


def _college_full_of_better(inst: Instance, admitted: list[list[int]],
                            lowest: list[float], j: int, score: int) -> bool:
    return len(admitted[j]) >= inst.colleges[j].upper and lowest[j] > score


def _check_paired(inst: Instance, sol: Solution) -> StabilityReport:
    _require(not inst.common_quota_sets, "paired variant excludes quota sets")
    _require(not inst.has_ties, "paired variant needs strict scores")
    _require(not any(c.lower for c in inst.colleges) and not inst.lower_quota_groups,
             "paired variant excludes lower quotas")
    _validate_matching(inst, sol, allow_pairs=True)
    violations = _quota_violations(inst, sol)
    if violations:
        return _verdict(violations)
    admitted = _admitted(inst, sol)
    lowest = _lowest(inst, admitted)
    for app in inst.applications:
        i = app.applicant
        rank = _matched_rank(inst, sol, i)
        if rank is not None and rank <= app.rank:
            continue
        if app.is_paired:
            j, k = app.target
            if not (_college_full_of_better(inst, admitted, lowest, j, app.score_at(j))
                    or _college_full_of_better(inst, admitted, lowest, k,
                                               app.score_at(k))):
                violations.append(Violation(
                    "paired_block",
                    {"applicant": inst.applicants[i],
                     "pair": [inst.colleges[j].id, inst.colleges[k].id]},
                    "neither college is full of better admits"))
        else:
            j = app.target
            if not _college_full_of_better(inst, admitted, lowest, j, app.score):
                violations.append(Violation(
                    "blocking_pair",
                    {"applicant": inst.applicants[i], "college": inst.colleges[j].id},
                    "college is not full of better admits"))
    return _verdict(violations)


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
