"""Manufactured cases, convergence and truncation studies, isometry checks."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes import fourier, norms, verification
from axistokes.cli import L_SHAPE
from axistokes.fields import (
    Poly2,
    evaluate_poly_matrix,
    evaluate_polys,
    poly_matrix,
)
from axistokes.fourier import angular_grid, reconstruct, rotate_to_cartesian
from axistokes.meshing import DomainSpec, generate_structured, mesh_from_spec
from axistokes.norms import (
    sampled_divergence_product,
    sampled_energy_product,
    sampled_vector_sums,
    sums_report,
    vector_mode_norm,
)
from axistokes.quadrature import DEFAULT_NORM_DEGREE, quadrature_geometry, triangle_rule
from axistokes.verification import (
    CheckResult,
    ConvergenceStudy,
    DecayFamily,
    ManufacturedCase,
    builtin_cases,
    convergence_study,
    isometry_suite,
    stability_study,
    truncation_study,
)
from axistokes.verification import (
    _family_integrals,
    _field_defects,
    _mode_sampler,
    _oracle_block,
    _oracle_integrals,
    _random_mode_field,
    _random_scalar,
    _sample_block,
    strong_divergence,
    strong_force,
)

from fem_reference import mode_divergence_product, mode_energy_product

R = Poly2.monomial(1, 0)
Z = Poly2.monomial(0, 1)
ZERO = Poly2.zero()
ONE = Poly2.monomial(0, 0)


@pytest.fixture(scope="module")
def cases():
    return builtin_cases()


def test_builtin_forces_are_strong_forces(cases):
    for case in cases.values():
        for mine, theirs in zip(strong_force(case.k, case.u, case.p), case.f):
            assert mine.coeffs == theirs.coeffs


def test_builtin_cases_divergence_and_axis_traces(cases):
    for name, case in cases.items():
        assert case.name == name
        declared = case.g_div if case.g_div is not None else ZERO
        assert (strong_divergence(case.k, case.u) - declared).max_abs_coeff() <= 1e-12
        ur, ut, uz = case.u
        z = np.linspace(0.1, 0.9, 5)
        if case.k == 0:
            assert np.abs(ur(0.0 * z, z)).max() == 0.0
            assert np.abs(ut(0.0 * z, z)).max() == 0.0
        elif abs(case.k) == 1:
            tie = ur(0.0 * z, z) + 1j * case.k * ut(0.0 * z, z)
            assert np.abs(tie).max() <= 1e-14
            assert np.abs(uz(0.0 * z, z)).max() == 0.0
        else:
            for comp in (ur, ut, uz):
                assert np.abs(comp(0.0 * z, z)).max() == 0.0


def test_from_fields_rejects_wrong_divergence():
    with pytest.raises(ValueError, match="divergence"):
        ManufacturedCase.from_fields("bad", 0, (R, ZERO, ZERO), Z)


def test_pressure_offset(cases):
    mesh = generate_structured((1.0, 1.0), 0.25)
    case0 = cases["k0_exact"]
    # p = z - 1/2 has zero r-weighted mean on the unit square.
    assert case0.pressure_offset(mesh) == pytest.approx(0.0, abs=1e-14)
    shifted = ManufacturedCase.from_fields(
        "shifted", 0, case0.u, case0.p + 2.0 * Poly2.monomial(0, 0)
    )
    assert shifted.pressure_offset(mesh) == pytest.approx(2.0, rel=1e-12)
    assert cases["k2_exact"].pressure_offset(mesh) == 0.0


def test_convergence_table_rates_and_csv():
    study = ConvergenceStudy(
        hs=[0.25, 0.125, 0.0625],
        err_u=[4e-2, 1e-2, 2.5e-3],
        err_p=[8e-2, 2e-2, 5e-3],
    )
    assert study.rate_u == pytest.approx(2.0)
    assert study.rate_p == pytest.approx(2.0)
    lines = study.csv().strip().splitlines()
    assert lines[0] == "h, err_u, rate_u, err_p, rate_p"
    assert len(lines) == 4
    first = [tok.strip() for tok in lines[1].split(",")]
    assert first[2] == "" and first[4] == ""


def test_convergence_study_quick_run(cases):
    study = convergence_study(cases["k0_convergence"], hs=(0.25, 0.125))
    assert study.err_u[1] < study.err_u[0]
    assert study.err_p[1] < study.err_p[0]
    assert study.rate_u > 1.5
    assert len(study.csv().strip().splitlines()) == 3


def test_truncation_study_analytic_unit_decay():
    study = truncation_study(DecayFamily(1.0))
    assert study.ns == [2, 4, 8, 16, 32]
    assert all(b > a for a, b in zip(study.tails[1:], study.tails[:-1]))
    # Halving slopes head toward -(s + 1/2); one Richardson step nearly
    # reaches it, and tail * N^s never rises much above its first value.
    assert study.slopes()[-1] == pytest.approx(-1.4045, abs=5e-4)
    assert study.one_sided_ratio == pytest.approx(1.0269, abs=5e-4)
    assert study.extrapolated_slope == pytest.approx(-1.4898, abs=5e-4)
    lines = study.csv().strip().splitlines()
    assert lines[0] == "N, tail, bound_ratio"
    assert len(lines) == 6


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_truncation_tails_match_a_direct_sum(s):
    # The closed form against the sum over N < |k| <= 10**6 of the squared
    # velocity and pressure norms of mode k, each (1 + |k|)**-(s+1); what
    # lies beyond 10**6 is below 1e-9 of the tail even at s = 0.5.
    family = DecayFamily(s)
    ns = (2, 4, 8, 16, 32)
    squares = 2.0 * (1.0 + np.arange(1, 10**6 + 1)) ** (-2.0 * (s + 1.0))
    direct = [np.sqrt(2.0 * squares[n:].sum()) for n in ns]
    np.testing.assert_allclose(truncation_study(family, ns).tails, direct, rtol=1e-8, atol=0)


def test_check_result_line():
    check = CheckResult("sample", True, 1.25e-12, 1e-8)
    assert check.line() == "CHECK sample PASS 1.250000e-12 1.000000e-08"
    check = CheckResult("sample", False, 2.0, 1e-8)
    assert check.line().split()[2] == "FAIL"


def test_isometry_suite_smoke():
    mesh = generate_structured((1.0, 1.0), 0.5)
    checks = isometry_suite(mesh)
    names = {c.name for c in checks}
    assert names == {
        "l2_isometry",
        "h1_semi_isometry",
        "h1_full_isometry",
        "energy_form_consistency",
        "divergence_form_consistency",
        "polarization",
        "equivalence_bounds",
        "equivalence_trend",
        "conjugation",
    }
    failed = [c.name for c in checks if not c.passed]
    assert failed == []


@pytest.mark.parametrize(
    "k, components, want",
    [
        # Rigid rotation (0, r, 0) = (-y, x, 0) on the revolved unit square:
        # ||u||^2 = int r^3 dr = 1/4, |grad u|^2 = 2 over a volume of pi
        # (times 1/(2 pi) from the normalization), divergence-free.
        (0, (ZERO, R, ZERO), (0.25, 1.0, 1.0, 0.0)),
        # Translation (1, i, 0) exp(i theta) = (1, i, 0), constant.
        (1, (ONE, 1j * ONE, ZERO), (1.0, 0.0, 0.0, 0.0)),
    ],
    ids=["rotation", "translation"],
)
def test_oracle_closed_forms(k, components, want):
    mesh = generate_structured((1.0, 1.0), 0.25)
    R_, Z_, W = quadrature_geometry(mesh, triangle_rule(DEFAULT_NORM_DEGREE))
    table, q_vals = _mode_sampler([components], [ONE])(R_, Z_)
    got = _oracle_integrals(R_, W, angular_grid(16), [k], table, table, q_vals)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14


def _whole_mesh_oracle(mesh, rule, thetas, ks, modes_u, modes_v, modes_q):
    """The 3D integrals as the isometry suite formed them over the whole mesh.

    Each mode is sampled on its own, the mode sums span every triangle at
    once and are rotated by ``rotate_to_cartesian``.
    """
    R, Z, W = quadrature_geometry(mesh, rule)

    def cartesian(modes):
        samples = []
        for k, comps in zip(ks, modes):
            polys = [*comps, *(c.d_r() for c in comps), *(c.d_z() for c in comps)]
            samples.append((k, evaluate_polys(polys, R, Z)))

        def mode_sum(part):
            return reconstruct({k: part(k, t) for k, t in samples}, thetas)

        val = mode_sum(lambda k, t: t[0:3])
        d_th = mode_sum(lambda k, t: (1j * k) * t[0:3])
        d_th[0] -= val[1]
        d_th[1] += val[0]
        val = rotate_to_cartesian(val, thetas)
        d_th = rotate_to_cartesian(d_th, thetas)
        d_r = rotate_to_cartesian(mode_sum(lambda k, t: t[3:6]), thetas)
        d_z = rotate_to_cartesian(mode_sum(lambda k, t: t[6:9]), thetas)
        cos, sin = np.cos(thetas), np.sin(thetas)
        R3 = R[..., None]
        d_x = tuple(cos * dr - (sin / R3) * dt for dr, dt in zip(d_r, d_th))
        d_y = tuple(sin * dr + (cos / R3) * dt for dr, dt in zip(d_r, d_th))
        return val, d_x, d_y, d_z

    uval, ux, uy, uz = cartesian(modes_u)
    _, vx, vy, vz = cartesian(modes_v)
    w3 = W[..., None] * R[..., None] * (2.0 * np.pi / len(thetas))
    l2 = sum(np.sum(w3 * np.abs(c) ** 2) for c in uval)
    semi = sum(
        np.sum(w3 * (np.abs(dx) ** 2 + np.abs(dy) ** 2 + np.abs(dz) ** 2))
        for dx, dy, dz in zip(ux, uy, uz)
    )
    energy = sum(
        np.sum(w3 * (udx * np.conj(vdx) + udy * np.conj(vdy) + udz * np.conj(vdz)))
        for udx, udy, udz, vdx, vdy, vdz in zip(ux, uy, uz, vx, vy, vz)
    )
    qval = reconstruct({k: q(R, Z) for k, q in zip(ks, modes_q)}, thetas)
    div = -np.sum(w3 * (ux[0] + uy[1] + uz[2]) * np.conj(qval))
    return l2, semi, energy, div


@pytest.mark.parametrize(
    "mesh",
    [
        generate_structured((1.0, 1.0), 0.25),
        mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=0.5)),
    ],
    ids=["unit-square", "L-shape"],
)
def test_blocked_oracle_matches_whole_mesh_integrals(mesh):
    rule = triangle_rule(DEFAULT_NORM_DEGREE)
    k_max = 5
    thetas = angular_grid(4 * k_max + 8)
    R, Z, W = quadrature_geometry(mesh, rule)
    block = _oracle_block(R.shape[1], len(thetas))
    # Several blocks, the last one partial.
    assert mesh.triangles.shape[0] > 2 * block
    assert mesh.triangles.shape[0] % block != 0
    rng = np.random.default_rng(11)
    ks, modes_u, modes_v, modes_q = _random_family(rng, k_max)
    table, q_vals = _mode_sampler([*modes_u, *modes_v], modes_q)(R, Z)
    n = len(modes_u)
    blocked = _oracle_integrals(R, W, thetas, ks, table[:n], table[n:], q_vals)
    whole = _whole_mesh_oracle(mesh, rule, thetas, ks, modes_u, modes_v, modes_q)
    for got, want in zip(blocked, whole):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_array_cores_reproduce_the_mode_norm_functions(k):
    mesh = generate_structured((1.0, 1.0), 0.5)
    rule = triangle_rule(DEFAULT_NORM_DEGREE)
    R, Z, W = quadrature_geometry(mesh, rule)
    rng = np.random.default_rng(3)
    u, v = (_random_mode_field(rng, min_r_power=1) for _ in range(2))
    q = _random_scalar(rng)
    table, (q_val,) = _mode_sampler([u, v], [q])(R, Z)
    su, sv = np.split(table[0], 3), np.split(table[1], 3)

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    got, want = sums_report(k, *sampled_vector_sums(*su, R, W)), vector_mode_norm(mesh, u, k)
    assert got.k == want.k == k
    for name in ("l2_1_sq", "l2_m1_sq", "h1_1_semi_sq", "h1k_sq", "h1k_semi_sq", "h1k_star_sq"):
        close(getattr(got, name), getattr(want, name))
    # Per component: the sums of the oracle's samples and of the samples
    # vector_mode_norm takes.
    got_sums = sampled_vector_sums(*su, R, W)
    want_sums = sampled_vector_sums(*norms._sample_vector(u, mesh, (R, Z, W)), R, W)
    for got_part, want_part in zip(got_sums, want_sums):
        assert got_part.shape == want_part.shape
        for g, w in zip(got_part.ravel(), want_part.ravel()):
            close(g, w)
    close(sampled_energy_product(k, su, sv, R, W), mode_energy_product(mesh, k, u, v))
    close(
        sampled_divergence_product(k, su, q_val, R, W),
        mode_divergence_product(mesh, k, u, q),
    )


def _small_family_defects(seed):
    """``_field_defects`` of one random family with k_max = 2 on a coarse square."""
    mesh = generate_structured((1.0, 1.0), 0.5)
    k_max = 2
    family = _random_family(np.random.default_rng(seed), k_max)
    return _field_defects(mesh, angular_grid(4 * k_max + 8), *family)


def test_field_defects_build_the_quadrature_geometry_once(monkeypatch):
    calls = []

    def counted(mesh, rule):
        calls.append(mesh)
        return quadrature_geometry(mesh, rule)

    monkeypatch.setattr(verification, "quadrature_geometry", counted)
    monkeypatch.setattr(norms, "quadrature_geometry", counted)
    defects = _small_family_defects(5)
    assert len(calls) == 1
    assert max(defects) <= 1e-8


def test_field_defects_take_no_angular_mode_sum_or_rotation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the 3D oracle works on mode coefficients")

    for module in (fourier, verification):
        for name in ("reconstruct", "rotate_to_cartesian"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert max(_small_family_defects(7)) <= 1e-8


def _random_family(rng, k_max):
    """(ks, modes_u, modes_v, modes_q) of one isometry-suite family, |k| <= k_max."""
    ks = list(range(-k_max, k_max + 1))
    modes_u = [_random_mode_field(rng) for _ in ks]
    modes_v = [_random_mode_field(rng) for _ in ks]
    modes_q = [_random_scalar(rng) for _ in ks]
    return ks, modes_u, modes_v, modes_q


def _whole_mesh_sums(mesh, thetas, ks, modes_u, modes_v, modes_q):
    """The 3D integrals and mode sums of a family from one whole-mesh table.

    This is how ``_field_defects`` formed them before its blocked pass: the
    3D oracle reads the table of every mode over the whole mesh, and each
    mode's sums come from the per-mode array cores.
    """
    R, Z, W = quadrature_geometry(mesh, triangle_rule(DEFAULT_NORM_DEGREE))
    table, q_vals = _mode_sampler([*modes_u, *modes_v], modes_q)(R, Z)
    table_u, table_v = table[: len(ks)], table[len(ks) :]
    oracle = _oracle_integrals(R, W, thetas, ks, table_u, table_v, q_vals)
    su, sv = ([np.split(t, 3) for t in tab] for tab in (table_u, table_v))
    reports = [sums_report(k, *sampled_vector_sums(*u, R, W)) for k, u in zip(ks, su)]
    sums = (
        sum(rep.l2_1_sq for rep in reports),
        sum(rep.h1k_semi_sq for rep in reports),
        sum(rep.h1k_sq for rep in reports),
        sum(sampled_energy_product(k, u, v, R, W) for k, u, v in zip(ks, su, sv)),
        sum(
            sampled_divergence_product(k, u, q, R, W)
            for k, u, q in zip(ks, su, q_vals)
        ),
    )
    return oracle, sums


@pytest.mark.parametrize(
    "mesh",
    [
        generate_structured((1.0, 1.0), 0.25),
        mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=0.5)),
    ],
    ids=["unit-square", "L-shape"],
)
def test_blocked_pass_matches_the_whole_mesh_sums(mesh):
    # The meshes of ``axistokes verify``.  Measured worst relative
    # differences: 5.5e-16 on the unit square, 1.6e-15 on the L-shape.
    k_max = 5
    thetas = angular_grid(4 * k_max + 8)
    R, _, _ = quadrature_geometry(mesh, triangle_rule(DEFAULT_NORM_DEGREE))
    block = _sample_block(R.shape[1], len(thetas))
    # Several blocks, the last one partial.
    assert mesh.triangles.shape[0] > block
    assert mesh.triangles.shape[0] % block != 0
    family = _random_family(np.random.default_rng(12), k_max)
    blocked = _family_integrals(mesh, thetas, *family)
    whole = _whole_mesh_sums(mesh, thetas, *family)
    for got, want in zip(itertools.chain(*blocked), itertools.chain(*whole)):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_mode_axis_cores_reproduce_the_per_mode_cores():
    mesh = generate_structured((1.0, 1.0), 0.5)
    R, Z, W = quadrature_geometry(mesh, triangle_rule(DEFAULT_NORM_DEGREE))
    ks, modes_u, modes_v, modes_q = _random_family(np.random.default_rng(4), 3)
    table, q_vals = _mode_sampler([*modes_u, *modes_v], modes_q)(R, Z)
    rows = (slice(0, 3), slice(3, 6), slice(6, 9))
    su = tuple(table[: len(ks), r] for r in rows)
    sv = tuple(table[len(ks) :, r] for r in rows)
    comp, coupling = sampled_vector_sums(*su, R, W)
    energy = sampled_energy_product(ks, su, sv, R, W)
    div = sampled_divergence_product(ks, su, q_vals, R, W)
    assert comp.shape == (len(ks), 3, 3) and coupling.shape == (len(ks), 2)

    def close(got, want):
        assert np.asarray(got) == pytest.approx(np.asarray(want), rel=1e-13, abs=0.0)

    for i, k in enumerate(ks):
        u, v = tuple(x[i] for x in su), tuple(x[i] for x in sv)
        one_comp, one_coupling = sampled_vector_sums(*u, R, W)
        close(comp[i], one_comp)
        close(coupling[i], one_coupling)
        got, want = sums_report(k, comp[i], coupling[i]), sums_report(k, one_comp, one_coupling)
        close(got.h1k_sq, want.h1k_sq)
        close(got.h1k_star_sq, want.h1k_star_sq)
        close(energy[i], sampled_energy_product(k, u, v, R, W))
        close(div[i], sampled_divergence_product(k, u, q_vals[i], R, W))


def test_field_defects_memory_does_not_grow_with_the_mesh():
    # A table of the whole mesh's samples peaked at 34 and 123 MiB on these
    # two meshes; blocks of triangles keep the peak under 7 MiB on both.
    k_max = 5
    thetas = angular_grid(4 * k_max + 8)
    family = _random_family(np.random.default_rng(13), k_max)
    for h in (0.5, 0.25):
        mesh = mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=h))
        tracemalloc.start()
        try:
            defects = _field_defects(mesh, thetas, *family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(defects) <= 1e-8
        assert peak <= 16 * 2**20, f"target_h = {h}: peak {peak / 2**20:.1f} MiB"


_block_polys = st.lists(
    st.dictionaries(
        st.tuples(st.integers(-2, 4), st.integers(0, 3)),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        max_size=6,
    ).map(Poly2),
    min_size=1,
    max_size=8,
)
_block_points = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        st.floats(-10.0, 10.0),
    ),
    min_size=2,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(polys=_block_polys, points=_block_points, data=st.data())
def test_block_evaluation_equals_the_whole_evaluation(polys, points, data):
    # Bit for bit, non-finite values at r = 0 included.  A block has two
    # points or more, as the blocked pass's blocks do: a single point goes
    # through NumPy's matrix-vector product, which may round differently.
    r, z = np.array(points).T
    lo = data.draw(st.integers(0, len(r) - 2))
    hi = data.draw(st.integers(lo + 2, len(r)))
    whole = evaluate_polys(polys, r, z)
    out = np.empty((len(polys), hi - lo), dtype=complex)
    block = evaluate_poly_matrix(poly_matrix(polys), r[lo:hi], z[lo:hi], out=out)
    assert np.shares_memory(block, out)
    assert block.tobytes() == whole[:, lo:hi].tobytes()


def test_stability_study_small_wavenumbers():
    study = stability_study(ks=range(0, 6), h=0.25)
    assert len(study.ratios) == 6
    assert all(r > 0.0 for r in study.ratios)
    assert study.max_ratio <= 2.0 * study.reference
    assert study.uniform(2.0)
