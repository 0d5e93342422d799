"""Polynomial mode functions: batched evaluation against the per-term sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes.fields import Poly2, evaluate_polys


def _per_term(poly, r, z):
    """Reference: the per-term loop that evaluated one Poly2 before batching."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.zeros(np.broadcast(r, z).shape, dtype=complex)
    for (a, b), c in poly.coeffs.items():
        term = np.ones_like(out, dtype=float)
        if a:
            term = term * r**a
        if b:
            term = term * z**b
        out += c * term
    return out


def _largest_term(poly, r, z):
    terms = [abs(c) * np.abs(r**a * z**b) for (a, b), c in poly.coeffs.items()]
    return np.max(terms, axis=0) if terms else np.zeros_like(r)


_coefficients = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
_polys = st.dictionaries(
    st.tuples(st.integers(-2, 5), st.integers(0, 4)), _coefficients, max_size=8
).map(Poly2)
_points = st.lists(
    st.tuples(
        st.floats(1e-3, 10.0, allow_subnormal=False),
        st.floats(-10.0, 10.0, allow_subnormal=False),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=40, deadline=None)
@given(polys=st.lists(_polys, min_size=1, max_size=6), points=_points)
def test_batched_evaluation_matches_per_term_loop(polys, points):
    r, z = np.array(points).T
    batch = evaluate_polys(polys, r, z)
    assert batch.shape == (len(polys), len(r))
    for row, poly in zip(batch, polys):
        bound = 1e-13 * _largest_term(poly, r, z)
        assert np.all(np.abs(row - _per_term(poly, r, z)) <= bound)
        assert np.all(np.abs(poly(r, z) - row) <= bound)


def test_missing_monomial_never_enters_a_value():
    # r**-1 is infinite at r = 0; z batched with it has no such term and
    # must stay finite and exact there, without a 0 * inf or a warning
    # (warnings are errors in this suite).
    r = np.array([0.0, 2.0])
    z = np.array([3.0, 3.0])
    out = evaluate_polys([Poly2.monomial(-1, 0), Poly2.monomial(0, 1, 2.5)], r, z)
    assert out[1].tolist() == [7.5, 7.5]
    assert not np.isfinite(out[0, 0]) and out[0, 1] == 0.5


def test_single_polynomial_keeps_the_broadcast_shape():
    poly = Poly2({(2, 1): 1j, (0, 0): 2.0})
    assert np.shape(poly(0.5, 2.0)) == ()
    assert poly(0.5, 2.0) == 2.0 + 0.5j
    assert poly(np.array([[0.5], [1.0]]), np.array([1.0, 2.0, 3.0])).shape == (2, 3)
    assert Poly2.zero()(np.ones(4), 0.0).tolist() == [0j] * 4


