import pytest
from hypothesis import given, strategies as st

from smsflow.fuzzy import (
    LinguisticVariable,
    MembershipDefinitionError,
    MembershipFunction,
    canonical_label,
)

from conftest import triangle


def test_triangle_peak():
    var = LinguisticVariable("v", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    assert var.fuzzify(0.5)["mid"] == 1.0


def test_triangle_interpolation_midpoint():
    var = LinguisticVariable("v", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    assert var.fuzzify(0.25)["mid"] == pytest.approx(0.5)


def test_below_universe_clamps_to_leftmost_degree():
    mf = MembershipFunction(((0.2, 0.7), (0.8, 0.1)))
    var = LinguisticVariable("v", (0.0, 1.0), {"l": mf})
    assert var.fuzzify(-42.0)["l"] == 0.7
    assert var.fuzzify(99.0)["l"] == 0.1


def test_evaluate_outside_span_returns_endpoint_degrees():
    mf = MembershipFunction(((2.0, 0.3), (4.0, 0.9)))
    assert mf.evaluate(0.0) == 0.3
    assert mf.evaluate(10.0) == 0.9


def test_vertices_must_strictly_increase():
    with pytest.raises(MembershipDefinitionError):
        MembershipFunction(((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(MembershipDefinitionError):
        MembershipFunction(((1.0, 0.0), (0.5, 1.0)))


def test_degrees_must_be_in_unit_interval():
    with pytest.raises(MembershipDefinitionError):
        MembershipFunction(((0.0, -0.1), (1.0, 0.5)))
    with pytest.raises(MembershipDefinitionError):
        MembershipFunction(((0.0, 0.1), (1.0, 1.5)))


def test_variable_needs_a_label_inside_universe():
    with pytest.raises(MembershipDefinitionError):
        LinguisticVariable("v", (0.0, 1.0), {})
    with pytest.raises(MembershipDefinitionError):
        LinguisticVariable("v", (0.0, 1.0), {"l": triangle(0.0, 0.5, 2.0)})


def test_intermediate_is_an_alias_of_medium():
    assert canonical_label("intermediate") == "medium"
    var = LinguisticVariable("v", (0.0, 1.0), {"intermediate": triangle(0.0, 0.5, 1.0)})
    assert "medium" in var.labels and "intermediate" not in var.labels


def test_non_finite_crisp_rejected():
    var = LinguisticVariable("v", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    with pytest.raises(ValueError):
        var.fuzzify(float("nan"))


@given(
    xs=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=6, unique=True
    ),
    degrees=st.lists(st.floats(min_value=0, max_value=1), min_size=6, max_size=6),
    crisp=st.floats(min_value=-200, max_value=200, allow_nan=False),
)
def test_evaluation_always_within_unit_interval(xs, degrees, crisp):
    vertices = tuple((x, d) for x, d in zip(sorted(xs), degrees))
    mf = MembershipFunction(vertices)
    assert 0.0 <= mf.evaluate(crisp) <= 1.0
