"""Integer linear models with named, role-tagged variables.

A model is a bag of bounded integer variables, linear constraints, and an
ordered list of objectives (more than one means lexicographic intent).
Constraints carry a tag (the rule family) plus a subject (which applicant,
college, set, or group the row is about), so a violated row can be reported
as e.g. college_feasible(c1).

Variables, constraints and objectives are NamedTuple records, cheap to
create in the numbers a builder emits. Every row and objective is checked
as it is added: each term must name a known variable with an integer
coefficient, in one pass over the terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class ModelError(ValueError):
    """Malformed model, variable, or assignment."""


class Variable(NamedTuple):
    name: str
    lo: int
    hi: int
    role: str = "aux"     # assign | limit | set_limit | filled | set_filled |
                          # open | group_open | positive | desire | escape | aux
    key: object = None    # role-specific payload, e.g. (applicant, college)


class Constraint(NamedTuple):
    tag: str
    subject: str
    coeffs: tuple[tuple[str, int], ...]
    sense: str            # "<=" | ">=" | "=="
    rhs: int

    @property
    def name(self) -> str:
        return f"{self.tag}({self.subject})" if self.subject else self.tag


class Objective(NamedTuple):
    sense: str            # "min" | "max"
    coeffs: tuple[tuple[str, int], ...]
    name: str = ""


@dataclass
class LinearModel:
    name: str = "model"
    variables: dict[str, Variable] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    objectives: list[Objective] = field(default_factory=list)

    def add_var(self, name: str, lo: int, hi: int,
                role: str = "aux", key: object = None) -> str:
        if not (isinstance(name, str) and name.isascii()
                and name.isidentifier()):
            raise ModelError(f"bad variable name {name!r}")
        if name in self.variables:
            raise ModelError(f"duplicate variable {name!r}")
        if not (isinstance(lo, int) and isinstance(hi, int)) or lo > hi:
            raise ModelError(f"bad bounds [{lo}, {hi}] for {name!r}")
        self.variables[name] = Variable(name, lo, hi, role, key)
        return name

    def _check_coeffs(self, coeffs) -> tuple[tuple[str, int], ...]:
        items = tuple(coeffs.items()) if isinstance(coeffs, dict) else tuple(coeffs)
        variables = self.variables
        for var, coef in items:
            if var not in variables:
                raise ModelError(f"unknown variable {var!r}")
            if type(coef) is not int and not isinstance(coef, int):
                raise ModelError(f"non-integer coefficient for {var!r}")
        return items

    def add_constraint(self, tag: str, subject: str, coeffs,
                       sense: str, rhs: int) -> Constraint:
        if sense not in ("<=", ">=", "=="):
            raise ModelError(f"bad sense {sense!r}")
        if not isinstance(rhs, int):
            raise ModelError("right-hand side must be an integer")
        con = Constraint(tag, subject, self._check_coeffs(coeffs), sense, rhs)
        self.constraints.append(con)
        return con

    def add_objective(self, sense: str, coeffs, name: str = "") -> Objective:
        if sense not in ("min", "max"):
            raise ModelError(f"bad objective sense {sense!r}")
        obj = Objective(sense, self._check_coeffs(coeffs), name)
        self.objectives.append(obj)
        return obj

    def vars_by_role(self, role: str) -> list[Variable]:
        return [v for v in self.variables.values() if v.role == role]

    def tag_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for con in self.constraints:
            counts[con.tag] = counts.get(con.tag, 0) + 1
        return counts


def _activity(coeffs, assignment: dict[str, int]) -> int:
    try:
        return sum(coef * assignment[var] for var, coef in coeffs)
    except KeyError as exc:
        raise ModelError(f"assignment is missing variable {exc.args[0]!r}") from exc


def assignment_satisfies(model: LinearModel, assignment: dict[str, int]) -> list[str]:
    """Names of violated bounds and constraints; empty means satisfied."""
    violated = []
    for var in model.variables.values():
        value = assignment.get(var.name)
        if value is None:
            raise ModelError(f"assignment is missing variable {var.name!r}")
        if not isinstance(value, int) or not var.lo <= value <= var.hi:
            violated.append(f"bounds({var.name})")
    for con in model.constraints:
        lhs = _activity(con.coeffs, assignment)
        ok = (lhs <= con.rhs if con.sense == "<="
              else lhs >= con.rhs if con.sense == ">="
              else lhs == con.rhs)
        if not ok:
            violated.append(con.name)
    return violated
