"""Direct and Schur-complement solvers checked on exactly representable flows."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes.fem import COMP_T, FemSpace, assemble, assemble_rhs
from axistokes.fields import Poly2, as_mode_function
from axistokes.meshing import generate_structured
from axistokes.solver import (
    SolverBreakdown,
    SolverConfig,
    estimate_inf_sup,
    solve_mode,
    _direct_bordered,
)
from axistokes.verification import ManufacturedCase, builtin_cases

Z = Poly2({(0, 1): 1.0})
RZ = Poly2({(1, 1): 1.0})


@pytest.fixture(scope="module")
def space():
    return FemSpace(generate_structured((1.0, 1.0), 0.25))


@pytest.fixture(scope="module")
def cases():
    return builtin_cases()


@pytest.fixture(scope="module")
def square8_systems():
    space8 = FemSpace(generate_structured((1.0, 1.0), 0.125))
    return {k: assemble(space8, k) for k in range(-5, 6)}


def _exact_errors(space, case, sol):
    """Max nodal deviation of a discrete solution from the exact fields."""
    coords = space.dof_coords
    err_u = 0.0
    scale = 1.0
    for c, comp in enumerate(case.u.components):
        fn = as_mode_function(comp)
        vals = np.broadcast_to(
            np.asarray(fn.value(coords[:, 0], coords[:, 1]), dtype=complex),
            (space.n_vel,),
        )
        err_u = max(err_u, float(np.abs(sol.u[c] - vals).max()))
        scale = max(scale, float(np.abs(vals).max()))
    verts = space.mesh.vertices
    offset = case.pressure_offset(space.mesh)
    p_fn = as_mode_function(case.p)
    p_vals = np.broadcast_to(
        np.asarray(p_fn.value(verts[:, 0], verts[:, 1]), dtype=complex),
        (space.n_p,),
    ) - offset
    err_p = float(np.abs(sol.p - p_vals).max())
    scale = max(scale, float(np.abs(p_vals).max()))
    return err_u / scale, err_p / scale


def test_zero_data_gives_zero_solution(space):
    for method in ("direct", "uzawa"):
        system = assemble(space, 2)
        sol = solve_mode(system, config=SolverConfig(method=method))
        assert np.abs(sol.u).max() == 0.0
        assert np.abs(sol.p).max() <= 1e-14


@pytest.mark.parametrize("name", ["k0_exact", "k1_exact", "k2_exact"])
def test_quadratic_flows_reproduced_exactly(space, cases, name):
    case = cases[name]
    system = assemble(space, case.k, g=case.u)
    sol = solve_mode(system, f=case.f, g_div=case.g_div)
    err_u, err_p = _exact_errors(space, case, sol)
    assert err_u <= 1e-9
    assert err_p <= 1e-9
    assert sol.report.res_u <= 1e-9
    assert sol.report.res_p <= 1e-9


def test_axisymmetric_fast_path_matches_generic_path(space, cases):
    case = cases["k0_convergence"]
    sol_fast = solve_mode(
        assemble(space, 0, g=case.u), f=case.f, config=SolverConfig()
    )
    assert sol_fast.report.fast_path
    sol_slow = solve_mode(
        assemble(space, 0, g=case.u),
        f=case.f,
        config=SolverConfig(k0_real_fast_path=False),
    )
    assert not sol_slow.report.fast_path
    assert np.abs(sol_fast.u - sol_slow.u).max() <= 1e-9
    assert np.abs(sol_fast.p - sol_slow.p).max() <= 1e-9
    assert abs(sol_slow.report.mean_multiplier) <= 1e-8


def test_complex_axisymmetric_data_skips_fast_path(space, cases):
    case = cases["k0_convergence"]
    f = tuple(1j * c for c in case.f.components)
    sol = solve_mode(assemble(space, 0), f=f)
    assert not sol.report.fast_path
    # A purely imaginary force gives i times the real-force solution.
    ref = solve_mode(assemble(space, 0), f=case.f)
    assert np.abs(sol.u - 1j * ref.u).max() <= 1e-10


def test_direct_and_uzawa_agree(space, cases):
    case = cases["k1_convergence"]
    direct = solve_mode(
        assemble(space, 1, g=case.u), f=case.f, config=SolverConfig(method="direct")
    )
    uzawa = solve_mode(
        assemble(space, 1, g=case.u),
        f=case.f,
        config=SolverConfig(method="uzawa", tol=1e-12),
    )
    assert uzawa.report.converged
    assert uzawa.report.iterations > 0
    scale = np.abs(direct.u).max()
    assert np.abs(direct.u - uzawa.u).max() <= 1e-8 * scale
    assert np.abs(direct.p - uzawa.p).max() <= 1e-8 * scale


def test_divergence_data_path(space):
    # u = (rz, i rz, 0) at k = 1 has mode divergence z: quadratic velocity
    # and linear pressure, so the pair is reproduced exactly.
    case = ManufacturedCase.from_fields(
        "swirl_with_source", 1, (RZ, 1j * RZ, 0.0 * RZ), Z, g_div=Z
    )
    system = assemble(space, 1, g=case.u)
    sol = solve_mode(system, f=case.f, g_div=case.g_div)
    err_u, err_p = _exact_errors(space, case, sol)
    assert err_u <= 1e-9
    assert err_p <= 1e-9


def test_energy_identity_homogeneous_walls(space, cases):
    # With zero wall data and no divergence data, u* A u = Re u* F.
    case = cases["k2_divfree"]
    system = assemble(space, 2)
    sol = solve_mode(system, f=case.f)
    # C has one entry of modulus one per column and row at k = 2, so it is
    # orthonormal and C* takes the free unknowns back from the full vector.
    u_free = system.constraints.C.conj().T @ sol.u.ravel()
    F_hat, _ = system.rhs(case.f)
    pairing = complex(np.vdot(u_free, F_hat))
    energy_sq = system.energy_norm(u_free) ** 2
    assert pairing.real == pytest.approx(energy_sq, rel=1e-10)
    assert abs(pairing.imag) <= 1e-10 * energy_sq


def test_dual_norm_paths_agree(space, cases):
    case = cases["k2_divfree"]
    system = assemble(space, 2)
    F = assemble_rhs(space, case.f, system.rule)
    F_hat = system.constraints.C.conj().T @ F
    from_data = system.dual_norm(case.f)
    from_vector = system.dual_norm(F_hat)
    assert from_data == pytest.approx(from_vector, rel=1e-12)
    w = system.a_solve(F_hat)
    assert from_vector == pytest.approx(system.energy_norm(w), rel=1e-10)


def test_uzawa_stopping_short_warns(space, cases):
    case = cases["k1_convergence"]
    system = assemble(space, 1, g=case.u)
    with pytest.warns(UserWarning, match="without reaching the tolerance"):
        sol = solve_mode(
            system, f=case.f, config=SolverConfig(method="uzawa", max_iter=2)
        )
    assert not sol.report.converged
    assert sol.report.iterations == 2


def test_residual_history_and_csv(space, cases):
    case = cases["k1_convergence"]
    sol = solve_mode(
        assemble(space, 1, g=case.u),
        f=case.f,
        config=SolverConfig(method="uzawa", tol=1e-11),
    )
    report = sol.report
    assert len(report.residuals) == report.iterations
    text = report.residual_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "iter, res_u, res_p"
    last = lines[-1].split(",")
    assert int(last[0]) == report.iterations
    assert float(last[2]) <= float(lines[1].split(",")[2])

    direct = solve_mode(assemble(space, 1, g=case.u), f=case.f)
    lines = direct.report.residual_csv().strip().splitlines()
    assert len(lines) == 2


def test_solver_config_validation():
    with pytest.raises(ValueError, match="method"):
        SolverConfig(method="multigrid")
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=0.0)
    assert SolverConfig(method="uzawa_cg").method == "uzawa"
    assert SolverConfig().pressure_mass_precond


@pytest.mark.parametrize("k,name", [(0, "k0_convergence"), (1, "k1_convergence")])
def test_unpreconditioned_uzawa_agrees_with_direct(space, cases, k, name):
    case = cases[name]
    direct = solve_mode(assemble(space, k, g=case.u), f=case.f)
    plain = solve_mode(
        assemble(space, k, g=case.u),
        f=case.f,
        config=SolverConfig(
            method="uzawa_cg",
            tol=1e-12,
            max_iter=2000,
            pressure_mass_precond=False,
        ),
    )
    assert plain.report.converged
    scale = np.abs(direct.u).max()
    assert np.abs(direct.u - plain.u).max() <= 1e-8 * scale
    assert np.abs(direct.p - plain.p).max() <= 1e-8 * scale


def test_singular_system_breaks_down():
    A = sp.csr_matrix((3, 3), dtype=complex)
    B = sp.csr_matrix((2, 3), dtype=complex)
    with pytest.raises(SolverBreakdown, match="factorization|non-finite"):
        _direct_bordered(A, B, np.ones(3, dtype=complex), np.zeros(2, dtype=complex))


@pytest.mark.parametrize("k", [0, 1, 5])
def test_inf_sup_estimate_in_plausible_range(space, k):
    est = estimate_inf_sup(assemble(space, k))
    assert est.method == "dense"
    assert est.k == k
    assert est.n_p == space.n_p
    assert est.beta == pytest.approx(np.sqrt(est.lambda_min))
    assert 0.15 < est.beta < 1.0


def _rel_err(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("k", range(-5, 6))
def test_real_velocity_factor_matches_complex_solve(square8_systems, k):
    # a_solve factors the exactly real A_hat in real arithmetic; it must
    # agree with a complex solve of A_hat, and a real b gives a real x.
    system = square8_systems[k]
    A = system.A_hat.tocsc()
    rng = np.random.default_rng(100 + k)
    n = system.n_free
    b1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    real_b = rng.standard_normal(n)
    for b in (b1, block, real_b):
        x = system.a_solve(b)
        assert x.shape == b.shape and x.dtype == b.dtype
        ref = spla.spsolve(A, b.astype(complex))
        assert _rel_err(x, ref.reshape(b.shape)) <= 1e-12


def _flip_w(system):
    """Diagonal of S, which flips the sign of the free angular unknowns w."""
    cons = system.constraints
    angular = cons.free_rows // system.space.n_vel == COMP_T
    return np.where(angular & (system.k != 0), -1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-5, 5), seed=st.integers(0, 2**32 - 1))
def test_velocity_solve_mirrors_under_conjugation(square8_systems, k, seed):
    # A(-k) = conj(A(k)) and u_theta = i w give A_hat(-k) = S A_hat(k) S,
    # so solving mode -k with S b gives S times the mode k solution.
    pos, neg = square8_systems[k], square8_systems[-k]
    S = _flip_w(pos)
    np.testing.assert_array_equal(_flip_w(neg), S)
    mirrored = sp.diags(S) @ pos.A_hat @ sp.diags(S)
    assert abs(neg.A_hat - mirrored).max() == 0.0
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(pos.n_free) + 1j * rng.standard_normal(pos.n_free)
    x_pos = pos.a_solve(b)
    x_neg = neg.a_solve(S * b)
    assert _rel_err(x_neg, S * x_pos) <= 1e-12


@pytest.fixture(scope="module")
def space8():
    return FemSpace(generate_structured((1.0, 1.0), 0.125))


def _reference_mode_solve(system, f):
    """Complex spsolve of the bordered system built from the full blocks."""
    cons = system.constraints
    C, fix = cons.C, cons.fix
    A, B = system.A_full, system.B_full
    A_hat = C.conj().T @ A @ C
    B_hat = B @ C
    F_hat = C.conj().T @ (assemble_rhs(system.space, f, system.rule) - A @ fix)
    G_hat = -(B @ fix)
    blocks = [[A_hat, B_hat.conj().T], [B_hat, None]]
    rhs = [F_hat, G_hat]
    if system.k == 0:
        m = sp.csr_matrix(system.m_vec.reshape(-1, 1).astype(complex))
        blocks = [[A_hat, B_hat.conj().T, None], [B_hat, None, m], [None, m.T, None]]
        rhs.append([0.0])
    sol = spla.spsolve(sp.bmat(blocks, format="csc"), np.concatenate(rhs))
    u = (C @ sol[: system.n_free] + fix).reshape(3, -1)
    return u, sol[system.n_free : system.n_free + system.n_p]


@pytest.mark.parametrize("method", ["direct", "uzawa"])
@pytest.mark.parametrize("k", range(-5, 6))
def test_mode_solve_matches_complex_reference(space8, k, method):
    # Complex force for k != 0, real data at k = 0 (so the real path runs
    # there), and flux-free wall data that vanishes on the axis.
    c = 1.0 if k == 0 else 1.0 - 0.5j
    g = (0.0 * RZ, Poly2({(1, 0): c, (1, 1): c}), 0.0 * RZ)
    if k == 0:
        f = (RZ, Z + 1.0 * RZ, Poly2({(1, 0): 2.0}))
    else:
        f = ((1 + 1j) * RZ, (0.5 - 1j) * Z, Poly2({(1, 0): 1j}))
    system = assemble(space8, k, g=g)
    config = SolverConfig(method=method, tol=1e-13)
    sol = solve_mode(system, f=f, config=config)
    assert sol.report.fast_path == (k == 0)
    u_ref, p_ref = _reference_mode_solve(system, f)
    bound = 1e-12 if method == "direct" else 1e-11
    assert _rel_err(sol.u, u_ref) <= bound
    assert _rel_err(sol.p, p_ref) <= bound
