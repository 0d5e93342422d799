"""Exactness and invariants of the interior triangle and edge rules."""

from math import factorial

import numpy as np
import pytest

from axistokes.quadrature import (
    DEFAULT_ASSEMBLY_DEGREE,
    DEFAULT_NORM_DEGREE,
    edge_rule,
    triangle_rule,
)


def monomial_integral(a: int, b: int) -> float:
    """Integral of x**a y**b over the reference triangle x, y >= 0, x + y <= 1."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [0, 2, 5, 7, 10, 14])
def test_triangle_rule_integrates_monomials_exactly(degree):
    # Requests up to 5 share the 7-point rule, checked to 5 at degree 5.
    rule = triangle_rule(degree)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = 0.5 * float(np.sum(rule.weights * x**a * y**b))
            exact = monomial_integral(a, b)
            assert approx == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("degree", [5, 10, 16])
def test_triangle_nodes_strictly_interior(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.points > 0.0)
    assert np.all(rule.points < 1.0)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(rule.weights > 0.0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_rules_are_shared_objects():
    assert triangle_rule(10) is triangle_rule(10)
    assert edge_rule(7) is edge_rule(7)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        triangle_rule(-1)


@pytest.mark.parametrize("degree", [1, 5, 9])
def test_edge_rule_integrates_interval_monomials(degree):
    # Odd requests: the exactness 2n - 1 of n points equals the request.
    rule = edge_rule(degree)
    for p in range(degree + 1):
        approx = float(np.sum(rule.weights * rule.points**p))
        assert approx == pytest.approx(1.0 / (p + 1), rel=1e-13)


def test_default_degrees_ordered():
    assert 0 < DEFAULT_ASSEMBLY_DEGREE <= DEFAULT_NORM_DEGREE
