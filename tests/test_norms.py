"""Weighted integrals and mode norms against hand-computed values.

Every frozen number below comes from the closed form
integral of r**a z**b r**w over the unit square = 1/((a + w + 1) (b + 1)),
evaluated by hand for the polynomial fields used.
"""

import dataclasses

import numpy as np
import pytest

from axistokes.fem import FemScalarField, FemSpace
from axistokes.fields import Poly2, VectorModeFn
from axistokes.meshing import DomainSpec, generate_structured, mesh_from_spec, refine
from axistokes.norms import (
    FieldDifference,
    NormReport,
    integrate_weighted,
    norm_report_csv,
    scalar_mode_norm,
    vector_mode_norm,
)

from fem_reference import mode_divergence_product, mode_energy_product

R = Poly2({(1, 0): 1.0})
Z = Poly2({(0, 1): 1.0})
ONE = Poly2({(0, 0): 1.0})


@pytest.fixture(scope="module")
def square():
    return generate_structured((1.0, 1.0), 0.25)


@pytest.mark.parametrize(
    "f, w, exact",
    [
        (ONE, 1, 0.5),
        (R, 1, 1.0 / 3.0),
        (R * Z * Z, 1, 1.0 / 9.0),
        (R * R, -1, 0.5),
        (Z, 0, 0.5),
    ],
)
def test_integrate_weighted_monomials(square, f, w, exact):
    value = integrate_weighted(square, f, w)
    assert value.imag == 0.0
    assert value.real == pytest.approx(exact, rel=1e-13)


def test_scalar_mode_norm_of_rz(square):
    # q = r z: |q|^2 r integrates to 1/12, the gradient term to 5/12,
    # and |q|^2 / r to 1/6.
    q = R * Z
    rep0 = scalar_mode_norm(square, q, 0)
    assert rep0.l2_1_sq == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert rep0.h1_1_semi_sq == pytest.approx(5.0 / 12.0, rel=1e-13)
    assert rep0.l2_m1_sq == pytest.approx(1.0 / 6.0, rel=1e-13)
    # The axisymmetric scalar norm omits the 1/r term entirely.
    assert rep0.h1k_sq == pytest.approx(0.5, rel=1e-13)

    rep2 = scalar_mode_norm(square, q, 2)
    assert rep2.h1k_sq == pytest.approx(0.5 + 4.0 / 6.0, rel=1e-13)
    assert rep2.h1k_star_sq == rep2.h1k_sq


def test_vector_mode_norm_coupling_terms(square):
    # v = (r, -i r, 0) makes v_r + i v_theta = 2r and v_r - i v_theta = 0,
    # isolating the (k+1)^2 branch of the coupling.
    v = VectorModeFn(2, (R, -1j * R, ONE * 0.0))
    rep = vector_mode_norm(square, v)
    assert rep.k == 2
    assert rep.l2_1_sq == pytest.approx(0.5, rel=1e-13)
    assert rep.h1_1_semi_sq == pytest.approx(1.0, rel=1e-13)
    assert rep.l2_m1_sq == pytest.approx(1.0, rel=1e-13)
    # Coupling: (1/2)(k+1)^2 * 4 * (1/2) = 9 at k = 2.
    assert rep.h1k_semi_sq == pytest.approx(10.0, rel=1e-13)
    assert rep.h1k_sq == pytest.approx(10.5, rel=1e-13)
    # Companion norm: semis + k^2 (1/r masses) + L2.
    assert rep.h1k_star_sq == pytest.approx(5.5, rel=1e-13)


def test_vector_norm_requires_wavenumber_for_bare_triples(square):
    with pytest.raises(ValueError, match="pass k"):
        vector_mode_norm(square, (R, R, R))


def test_callables_have_values_but_no_gradients(square):
    # A callable is a mode function for its values only: integrals sample
    # it, and a norm, which needs its gradient, raises before sampling it.
    calls = []

    def rz(r, z):
        calls.append((r, z))
        return r * z

    assert integrate_weighted(square, rz) == pytest.approx(1 / 6, rel=1e-13)
    calls.clear()
    for measure in (
        lambda: scalar_mode_norm(square, rz, 0),
        lambda: vector_mode_norm(square, VectorModeFn(1, (rz, R, R))),
    ):
        with pytest.raises(TypeError, match="no derivatives"):
            measure()
    assert calls == []


def test_component_breakdown_sums_to_totals(square):
    v = VectorModeFn(1, (R * Z, 1j * R * R, Z * Z * R))
    rep = vector_mode_norm(square, v)
    comp_total = sum(c.l2_1_sq for c in rep.components.values())
    assert comp_total == pytest.approx(rep.l2_1_sq, rel=1e-14)
    semi_total = sum(c.h1_1_semi_sq for c in rep.components.values())
    assert semi_total == pytest.approx(rep.h1_1_semi_sq, rel=1e-14)


def test_energy_product_matches_seminorm(square):
    # The sesquilinear form evaluated on (u, u) must reproduce the squared
    # mode seminorm computed by the sum-of-squares regrouping.
    rng = np.random.default_rng(3)
    for k in (0, 1, 3):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u = VectorModeFn(
            k,
            (
                coeffs[0] * R * Z + coeffs[1] * R * R,
                coeffs[2] * R * Z + coeffs[3] * R,
                coeffs[4] * R * Z * Z + coeffs[5] * R,
            ),
        )
        quad = mode_energy_product(square, k, u, u)
        rep = vector_mode_norm(square, u)
        assert quad.imag == pytest.approx(0.0, abs=1e-12 * abs(quad.real))
        assert quad.real == pytest.approx(rep.h1k_semi_sq, rel=1e-12)


def test_energy_product_hermitian(square):
    u = VectorModeFn(2, (R * Z, 1j * R, R * R))
    v = VectorModeFn(2, ((1 + 2j) * R, Z * R, -1j * R * Z))
    uv = mode_energy_product(square, 2, u, v)
    vu = mode_energy_product(square, 2, v, u)
    assert uv == pytest.approx(np.conj(vu), rel=1e-13)


@pytest.mark.parametrize(
    "k, v, q, exact",
    [
        # div_0 (r, 0, 0) = 2, paired with q = 1 under weight r.
        (0, (R, ONE * 0.0, ONE * 0.0), ONE, -1.0),
        (0, (R, ONE * 0.0, ONE * 0.0), Z, -0.5),
        # div_1 (0, i r, 0) = i * 1 * (i r) / r = -1.
        (1, (ONE * 0.0, 1j * R, ONE * 0.0), ONE, 0.5),
    ],
)
def test_divergence_pairing_closed_forms(square, k, v, q, exact):
    value = mode_divergence_product(square, k, VectorModeFn(k, v), q)
    assert value == pytest.approx(exact, rel=1e-13)


def test_field_difference_vanishes_on_equal_fields(square):
    diff = FieldDifference(R * Z, R * Z)
    rep = scalar_mode_norm(square, diff, 1)
    assert rep.h1k_sq == pytest.approx(0.0, abs=1e-28)
    shifted = FieldDifference(R * Z + ONE, R * Z)
    rep1 = scalar_mode_norm(square, shifted, 0)
    assert rep1.l2_1_sq == pytest.approx(0.5, rel=1e-13)


def test_norm_report_csv_layout(square):
    reps = [scalar_mode_norm(square, R * Z, k) for k in (0, 1)]
    text = norm_report_csv(reps)
    lines = text.strip().splitlines()
    assert lines[0] == NormReport.CSV_HEADER
    assert len(lines) == 3
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_axis_violation_grows_under_refinement():
    # A nonzero angular component on the axis is not in the 1/r-weighted
    # space at k = 2; refinement keeps driving the quadrature value up,
    # while an admissible field reproduces to round-off.
    mesh = generate_structured((1.0, 1.0), 0.25)
    fine_mesh = refine(mesh)
    bad = VectorModeFn(2, (ONE * 0.0, ONE, ONE * 0.0))
    coarse = vector_mode_norm(mesh, bad).h1k_sq
    fine = vector_mode_norm(fine_mesh, bad).h1k_sq
    assert fine > 1.05 * coarse
    good = VectorModeFn(2, (R, R, R))
    coarse = vector_mode_norm(mesh, good).h1k_sq
    fine = vector_mode_norm(fine_mesh, good).h1k_sq
    assert fine == pytest.approx(coarse, rel=1e-10)


def test_refinement_converges_for_smooth_fields():
    # Same field, finer mesh: the quadrature is exact for polynomials, so
    # the values agree to round-off.
    coarse = generate_structured((1.0, 1.0), 0.5)
    fine = refine(coarse)
    v = VectorModeFn(3, (R * R, 1j * R * Z, R * Z))
    a = vector_mode_norm(coarse, v).h1k_sq
    b = vector_mode_norm(fine, v).h1k_sq
    assert a == pytest.approx(b, rel=1e-12)


# Finite element fields: element quadratic forms against sampling.

L_SHAPE = ((0.0, 0.5), (1.0, 0.5), (1.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0))
ZERO = Poly2.zero()


@pytest.fixture(scope="module")
def fem_spaces():
    return {
        "structured": FemSpace(generate_structured((1.0, 1.0), 0.25)),
        "L-shape": FemSpace(mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=0.5))),
    }


def _random_field(rng, space, kind):
    n = space.n_vel if kind == "p2" else space.n_p
    return FemScalarField(space, rng.standard_normal(n) + 1j * rng.standard_normal(n), kind)


def _sampled(fields):
    # FieldDifference(f, 0) has the samples of f and no element matrices,
    # so the norm engine takes the sampling path for it.
    return tuple(FieldDifference(f, ZERO) for f in fields)


def _report_values(rep):
    """Every reported sum of a NormReport, per-component sums included."""
    values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    del values["k"]
    components = values.pop("components")
    for name, comp in components.items():
        for f in dataclasses.fields(comp):
            values[f"{name}.{f.name}"] = getattr(comp, f.name)
    return values


def _assert_reports_agree(fast, sampled, rtol=1e-13):
    assert fast.k == sampled.k
    a, b = _report_values(fast), _report_values(sampled)
    assert a.keys() == b.keys()
    for name in a:
        assert abs(a[name] - b[name]) <= rtol * abs(b[name]), (name, a[name], b[name])


@pytest.mark.parametrize("mesh_name", ["structured", "L-shape"])
@pytest.mark.parametrize("k", [0, 1, -1, 2, 5])
def test_fem_field_norms_match_sampling(fem_spaces, mesh_name, k):
    space = fem_spaces[mesh_name]
    mesh = space.mesh
    rng = np.random.default_rng(abs(k) * 10 + (k < 0) + len(mesh_name))
    for kind in ("p2", "p1"):
        triple = tuple(_random_field(rng, space, kind) for _ in range(3))
        _assert_reports_agree(
            vector_mode_norm(mesh, triple, k=k), vector_mode_norm(mesh, _sampled(triple), k=k)
        )
        q = _random_field(rng, space, kind)
        _assert_reports_agree(
            scalar_mode_norm(mesh, q, k), scalar_mode_norm(mesh, _sampled([q])[0], k)
        )


def test_zero_fem_field_has_zero_norms(fem_spaces):
    space = fem_spaces["L-shape"]
    triple = tuple(FemScalarField(space, np.zeros(space.n_vel)) for _ in range(3))
    pressure = FemScalarField(space, np.zeros(space.n_p), kind="p1")
    for rep in (
        vector_mode_norm(space.mesh, triple, k=3),
        scalar_mode_norm(space.mesh, pressure, 3),
    ):
        assert all(value == 0.0 for value in _report_values(rep).values())


def test_fem_field_norms_are_nonnegative(fem_spaces):
    # Constant fields have a zero gradient, so their seminorm sums are pure
    # round-off; a sum that rounds below zero is reported as 0.0.
    space = fem_spaces["structured"]
    rng = np.random.default_rng(5)
    fields = [
        FemScalarField(space, np.full(space.n_vel, 1.0 - 2.0j)),
        FemScalarField(space, np.full(space.n_p, 3.0 + 0.5j), kind="p1"),
        _random_field(rng, space, "p2"),
    ]
    for k in (0, 1, -2):
        reports = [scalar_mode_norm(space.mesh, f, k) for f in fields]
        reports.append(vector_mode_norm(space.mesh, (fields[0], fields[2], fields[0]), k=k))
        for rep in reports:
            assert all(value >= 0.0 for value in _report_values(rep).values())


def test_fem_field_norm_refuses_another_mesh(fem_spaces):
    space = fem_spaces["structured"]
    other = fem_spaces["L-shape"].mesh
    triple = tuple(FemScalarField(space, np.ones(space.n_vel)) for _ in range(3))
    with pytest.raises(ValueError, match="does not live on"):
        vector_mode_norm(other, triple, k=1)
    with pytest.raises(ValueError, match="does not live on"):
        scalar_mode_norm(other, FemScalarField(space, np.ones(space.n_p), kind="p1"), 1)


def test_mixed_triple_is_sampled(fem_spaces, monkeypatch):
    space = fem_spaces["structured"]
    rng = np.random.default_rng(11)
    u_r, u_t = _random_field(rng, space, "p2"), _random_field(rng, space, "p2")
    calls = []
    sample_on = FemScalarField.sample_on
    monkeypatch.setattr(
        FemScalarField,
        "sample_on",
        lambda self, *args: calls.append(self) or sample_on(self, *args),
    )
    mixed = vector_mode_norm(space.mesh, (u_r, u_t, R * Z), k=2)
    assert calls == [u_r, u_t]
    reference = vector_mode_norm(space.mesh, (*_sampled([u_r, u_t]), R * Z), k=2)
    _assert_reports_agree(mixed, reference, rtol=0.0)


def test_fem_gradient_form_keeps_smooth_fields_accurate():
    # A quadratic with a large constant part, interpolated exactly by P2 at
    # h = 1/32: the weighted gradient form must not lose digits to the
    # constant, which its element matrices annihilate.  The r-weighted
    # seminorm of 10 + r z + i (5 - r**2) on the unit square is 17/12.
    mesh = generate_structured((1.0, 1.0), 1.0 / 32.0)
    space = FemSpace(mesh)
    r, z = space.dof_coords.T
    q = FemScalarField(space, 10.0 + r * z + 1j * (5.0 - r * r))
    rep = scalar_mode_norm(mesh, q, 2)
    assert rep.h1_1_semi_sq == pytest.approx(17.0 / 12.0, rel=1e-13)
    _assert_reports_agree(rep, scalar_mode_norm(mesh, _sampled([q])[0], 2))
