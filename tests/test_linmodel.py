"""Model container rules and the independent assignment checker."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from stableadmit import LinearModel, ModelError, assignment_satisfies


def small_model() -> LinearModel:
    model = LinearModel(name="toy")
    model.add_var("x", 0, 1, role="assign", key=(0, 0))
    model.add_var("t", 0, 6, role="limit", key=0)
    model.add_constraint("cap", "c1", {"x": 1}, "<=", 1)
    model.add_constraint("link", "a1,c1", {"t": 1, "x": 6}, "<=", 11)
    return model


def test_variable_rules():
    model = LinearModel()
    model.add_var("x_1", 0, 1)
    with pytest.raises(ModelError, match="duplicate"):
        model.add_var("x_1", 0, 1)
    with pytest.raises(ModelError, match="bad variable name"):
        model.add_var("2bad", 0, 1)
    with pytest.raises(ModelError, match="bad bounds"):
        model.add_var("y", 2, 1)


@pytest.mark.parametrize("name", ["x_1\n", "", "2bad", "a-b", "a b", "x\u00e9", 7])
def test_bad_variable_names_are_refused(name):
    # a trailing newline once passed the name pattern through its $ anchor
    with pytest.raises(ModelError, match=re.escape(f"bad variable name {name!r}")):
        LinearModel().add_var(name, 0, 1)


def test_model_error_messages():
    model = small_model()
    cases = [
        (lambda: model.add_var("y", 0, 1.5), "bad bounds [0, 1.5] for 'y'"),
        (lambda: model.add_var("y", 2, 1), "bad bounds [2, 1] for 'y'"),
        (lambda: model.add_var("x", 0, 1), "duplicate variable 'x'"),
        (lambda: model.add_constraint("cap", "c1", {"zz": 1}, "<=", 1),
         "unknown variable 'zz'"),
        (lambda: model.add_constraint("cap", "c1", [("x", 1), ("t", 0.5)], "<=", 1),
         "non-integer coefficient for 't'"),
        (lambda: model.add_constraint("cap", "c1", {"x": 1}, "=", 1),
         "bad sense '='"),
        (lambda: model.add_constraint("cap", "c1", {"x": 1}, "<=", 1.0),
         "right-hand side must be an integer"),
        (lambda: model.add_objective("up", {"t": 1}), "bad objective sense 'up'"),
        (lambda: model.add_objective("min", {"t": 1, "zz": 1}),
         "unknown variable 'zz'"),
        (lambda: model.add_objective("min", {"t": "1"}),
         "non-integer coefficient for 't'"),
    ]
    for call, message in cases:
        with pytest.raises(ModelError) as info:
            call()
        assert str(info.value) == message
    assert len(model.constraints) == 2 and not model.objectives


def test_integer_subclass_coefficients_are_accepted():
    class Count(int):
        pass

    model = small_model()
    con = model.add_constraint("cap", "c1", {"x": True, "t": Count(2)}, "<=", 1)
    assert con.coeffs == (("x", True), ("t", 2))
    obj = model.add_objective("max", [("x", Count(3))])
    assert obj.coeffs == (("x", 3),) and obj.name == ""


def test_records_are_named_tuples():
    model = small_model()
    var = model.variables["t"]
    assert repr(var) == "Variable(name='t', lo=0, hi=6, role='limit', key=0)"
    assert var._replace(hi=0) == ("t", 0, 0, "limit", 0)
    assert repr(model.constraints[0]) == \
        "Constraint(tag='cap', subject='c1', coeffs=(('x', 1),), sense='<=', rhs=1)"
    assert model.constraints[1].name == "link(a1,c1)"


def test_constraint_rules():
    model = small_model()
    with pytest.raises(ModelError, match="unknown variable"):
        model.add_constraint("cap", "c9", {"zz": 1}, "<=", 1)
    with pytest.raises(ModelError, match="bad sense"):
        model.add_constraint("cap", "c1", {"x": 1}, "<", 1)
    with pytest.raises(ModelError, match="integer"):
        model.add_constraint("cap", "c1", {"x": 1.5}, "<=", 1)
    con = model.add_constraint("cap", "", {"x": 1}, "<=", 1)
    assert con.name == "cap"
    assert model.constraints[0].name == "cap(c1)"


def test_objective_rules():
    model = small_model()
    with pytest.raises(ModelError, match="bad objective sense"):
        model.add_objective("down", {"t": 1})
    model.add_objective("min", {"t": 1}, name="total_limits")
    assert model.objectives[0].name == "total_limits"


def test_roles_and_tag_counts():
    model = small_model()
    assert [v.name for v in model.vars_by_role("assign")] == ["x"]
    assert model.tag_counts() == {"cap": 1, "link": 1}


def test_assignment_satisfies_reports_names():
    model = small_model()
    assert assignment_satisfies(model, {"x": 1, "t": 5}) == []
    assert assignment_satisfies(model, {"x": 1, "t": 6}) == ["link(a1,c1)"]
    assert assignment_satisfies(model, {"x": 2, "t": 0}) == [
        "bounds(x)", "cap(c1)", "link(a1,c1)"]
    with pytest.raises(ModelError, match="missing variable"):
        assignment_satisfies(model, {"x": 1})


@settings(max_examples=120, derandomize=True)
@given(st.data())
def test_assignment_satisfies_matches_direct_arithmetic(data):
    nvars = data.draw(st.integers(1, 4))
    model = LinearModel()
    names = []
    for k in range(nvars):
        lo = data.draw(st.integers(-3, 3))
        hi = lo + data.draw(st.integers(0, 4))
        names.append(model.add_var(f"v{k}", lo, hi))
    rows = []
    for r in range(data.draw(st.integers(0, 4))):
        coeffs = {nm: data.draw(st.integers(-3, 3)) for nm in names}
        sense = data.draw(st.sampled_from(("<=", ">=", "==")))
        rhs = data.draw(st.integers(-6, 6))
        model.add_constraint(f"r{r}", "", coeffs, sense, rhs)
        rows.append((coeffs, sense, rhs))
    point = {nm: data.draw(st.integers(-5, 5)) for nm in names}
    reported = set(assignment_satisfies(model, point))
    expected = set()
    for nm in names:
        var = model.variables[nm]
        if not var.lo <= point[nm] <= var.hi:
            expected.add(f"bounds({nm})")
    for r, (coeffs, sense, rhs) in enumerate(rows):
        lhs = sum(c * point[nm] for nm, c in coeffs.items())
        ok = lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs
        if not ok:
            expected.add(f"r{r}")
    assert reported == expected
