"""Direct and Schur-complement solvers checked on exactly representable flows."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes import solver
from axistokes.cli import L_SHAPE
from axistokes.expressions import ExpressionField
from axistokes.fem import FemSpace, assemble, assemble_rhs
from axistokes.fields import Poly2
from axistokes.fourier import FourierStack, ModeVectors, angular_grid, reconstruct_stack
from axistokes.meshing import DomainSpec, generate_structured, mesh_from_spec
from axistokes.solver import (
    SolverBreakdown,
    SolverConfig,
    estimate_inf_sup,
    solve_mode,
    _check_lu_memory,
    _direct_bordered,
)
from axistokes.verification import ManufacturedCase, builtin_cases
from fem_reference import constraint_matrix, mode_matrices, velocity_matrix

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
    for c, comp in enumerate(case.u):
        vals = np.broadcast_to(comp(coords[:, 0], coords[:, 1]), (space.n_vel,))
        err_u = max(err_u, float(np.abs(sol.u[c] - vals).max()))
        scale = max(scale, float(np.abs(vals).max()))
    verts = space.mesh.vertices
    offset = case.pressure_offset(space.mesh)
    p_vals = np.broadcast_to(case.p(verts[:, 0], verts[:, 1]), (space.n_p,)) - offset
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


def test_plain_callables_are_force_and_wall_data(space, cases):
    # k1_exact is the rigid translation u = (2, 2i, 0), p = r, driven by
    # f = (1, i, 0): plain functions of (r, z) in place of its polynomials,
    # constants among them, give the same solution.
    case = cases["k1_exact"]
    f = (lambda r, z: 1.0, lambda r, z: 1j, lambda r, z: 0.0 * r)
    g = (lambda r, z: 2.0 + 0.0 * z, lambda r, z: 2j, lambda r, z: 0.0)
    sol = solve_mode(assemble(space, 1, g=g), f=f, g_div=lambda r, z: 0.0)
    ref = solve_mode(assemble(space, 1, g=case.u), f=case.f)
    assert np.abs(sol.u - ref.u).max() <= 1e-14
    assert np.abs(sol.p - ref.p).max() <= 1e-14
    err_u, err_p = _exact_errors(space, case, sol)
    assert err_u <= 1e-9 and err_p <= 1e-9


@pytest.mark.parametrize("name", ["k0_exact", "k1_exact", "k2_exact"])
def test_real_data_takes_one_real_column(cases, monkeypatch, name):
    # With u_theta = i w these cases have real reduced data at every mode,
    # so each back-solve of either method, on the bordered LU, the L_j or
    # Mp, gets one real column; at k = 0 the solution is then exactly real.
    case = cases[name]
    seen = []
    splu = spla.splu
    monkeypatch.setattr(
        spla, "splu", lambda *a, **kw: _CountingFactor(splu(*a, **kw), seen)
    )
    for method in ("direct", "uzawa"):
        # A new space, so that its factors are made through the spy.
        space = FemSpace(generate_structured((1.0, 1.0), 0.25))
        sol = solve_mode(
            assemble(space, case.k, g=case.u),
            f=case.f,
            g_div=case.g_div,
            config=SolverConfig(method=method, tol=1e-13),
        )
        assert sol.report.res_u <= 1e-9 and sol.report.res_p <= 1e-9
        if case.k == 0:
            assert not np.any(sol.u.imag) and not np.any(sol.p.imag)
    assert seen and all(b.dtype == np.float64 and b.ndim == 1 for b in seen)


def test_imaginary_axisymmetric_force_gives_i_times_the_solution(space, cases):
    case = cases["k0_convergence"]
    f = tuple(1j * c for c in case.f)
    sol = solve_mode(assemble(space, 0), f=f)
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


def test_direct_and_uzawa_agree_on_axisymmetric_data_with_net_flux(space):
    # Divergence data g = 1 carries net flux at k = 0.  Both methods balance
    # it along the weighted-mean vector m, so they solve one problem.
    f = (RZ, 0.0 * RZ, Z)
    one = Poly2({(0, 0): 1.0})
    sols = {}
    for method in ("direct", "uzawa"):
        config = SolverConfig(method=method, tol=1e-12)
        with pytest.warns(UserWarning, match="net volume flux"):
            sols[method] = solve_mode(assemble(space, 0), f=f, g_div=one, config=config)
    direct, uzawa = sols["direct"], sols["uzawa"]
    assert uzawa.report.converged
    assert np.abs(uzawa.u - direct.u).max() <= 1e-10 * np.abs(direct.u).max()
    assert np.abs(uzawa.p - direct.p).max() <= 1e-10 * np.abs(direct.p).max()


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


def _cartesian_flow_walls():
    """Wall velocity modes of u = (xz + y^2, yz, -z^2) with |k| != 2.

    u_r = rz + r^2 sin^2(t) cos(t), u_t = -r^2 sin^3(t) and u_z = -z^2,
    expanded in exp(i k t) / sqrt(2 pi).
    """
    s, zero = np.sqrt(2.0 * np.pi), Poly2.zero()
    r2 = Poly2({(2, 0): s / 8})
    walls = {0: (s * RZ, zero, Poly2({(0, 2): -s}))}
    for sign in (1, -1):
        walls[sign] = (r2, 3j * sign * r2, zero)
        walls[3 * sign] = (-r2, -1j * sign * r2, zero)
    return walls


@pytest.mark.parametrize("method", ["direct", "uzawa"])
def test_cartesian_stokes_flow_end_to_end(method):
    # u = (xz + y^2, yz, -z^2) and p = x solve -lap u + grad p = (-1, 0, 2)
    # with div u = 0.  Each cylindrical mode of u is a polynomial of degree
    # <= 2 in (r, z), with |k| <= 3, so P2-P1 reproduces every mode, and the
    # revolved stack must equal the exact 3D field at the nodes.  This
    # covers the expression sampling, u_theta = i w, the |k| = 1 axis tie,
    # the |k| = 3 axis pin, and the reconstruction and its rotation.
    space = FemSpace(generate_structured((1.0, 1.0), 0.125))
    ks = range(-3, 4)
    forces = ExpressionField("-cos(theta)", "sin(theta)", "2").modes(ks)
    walls = _cartesian_flow_walls()
    # Uzawa stops on the relative pressure residual; at 1e-13 its pressure
    # error is down to round-off too.
    config = SolverConfig(method=method, tol=1e-13)
    modes = {}
    for k in ks:
        sol = solve_mode(assemble(space, k, g=walls.get(k)), f=forces[k], config=config)
        modes[k] = ModeVectors(sol.u, sol.p)
    stack = FourierStack(n_max=3, real_data=False, mesh_id=space.mesh.mesh_id, modes=modes)
    thetas = angular_grid(16)
    u, p = reconstruct_stack(stack, thetas, frame="cartesian")
    r, z = space.dof_coords[:, :1], space.dof_coords[:, 1:]
    x, y = r * np.cos(thetas), r * np.sin(thetas)
    u_exact = np.stack([x * z + y**2, y * z, np.broadcast_to(-(z**2), x.shape)])
    assert np.abs(u - u_exact).max() <= 1e-9
    assert np.abs(p - x[: space.n_p]).max() <= 1e-9


def test_energy_identity_homogeneous_walls(space, cases):
    # With zero wall data and no divergence data, u* A u = Re u* F.
    case = cases["k2_divfree"]
    system = assemble(space, 2)
    sol = solve_mode(system, f=case.f)
    # The columns of C (u+, u-, u_z at k = 2) are orthonormal, so C* takes
    # the free unknowns back from the full vector.
    u_free = system.constraints.restrict(sol.u.ravel())
    F_hat, _ = system.rhs(case.f)
    pairing = complex(np.vdot(u_free, F_hat))
    energy_sq = np.vdot(u_free, system.apply_energy(system.constraints.extend(u_free))).real
    assert pairing.real == pytest.approx(energy_sq, rel=1e-10)
    assert abs(pairing.imag) <= 1e-10 * energy_sq


def test_dual_norm_paths_agree(space, cases):
    case = cases["k2_divfree"]
    system = assemble(space, 2)
    F = assemble_rhs(space, case.f)
    F_hat = system.constraints.restrict(F)
    from_data = system.dual_norm(case.f)
    w = system.a_solve(F_hat)
    energy = np.sqrt(np.vdot(w, system.apply_energy(system.constraints.extend(w))).real)
    assert from_data == pytest.approx(energy, rel=1e-10)


@pytest.mark.parametrize("method", ["direct", "uzawa"])
@pytest.mark.parametrize("k", [0, 1, -1, 3])
def test_no_mode_forms_the_constraint_map(monkeypatch, space, k, method):
    # The constraint map is applied, never formed: assembly and solve
    # build no Kronecker product and no identity matrix.
    def forbidden(*args, **kwargs):
        raise AssertionError("a sparse Kronecker product or identity was formed")

    monkeypatch.setattr(sp, "kron", forbidden)
    monkeypatch.setattr(sp, "identity", forbidden)
    system = assemble(space, k, g=(0.0 * RZ, RZ, 0.0 * RZ))
    sol = solve_mode(system, f=(RZ, Z, RZ), config=SolverConfig(method=method))
    assert sol.report.converged and np.all(np.isfinite(sol.u))


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
    assert lines[0] == "iter, res_p"
    last = lines[-1].split(",")
    assert int(last[0]) == report.iterations
    assert float(last[1]) <= float(lines[1].split(",")[1])


def test_solver_config_validation():
    with pytest.raises(ValueError, match="method"):
        SolverConfig(method="multigrid")
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(method="uzawa", max_iter=max_iter)
    assert SolverConfig(method="uzawa_cg").method == "uzawa"


COMPLEX_FORCE = ((1 + 1j) * RZ, (0.5 - 1j) * Z, Poly2({(1, 0): 1j}))


def _spy_splu(monkeypatch):
    """Record the dtype of every matrix the bordered solve factors."""
    factored = []
    splu = spla.splu

    def spy(mat, *args, **kwargs):
        factored.append(mat.dtype)
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr("axistokes.solver.spla.splu", spy)
    return factored


@pytest.mark.parametrize("k", [0, 1, -1, 5])
def test_direct_solve_factors_one_real_matrix(space, monkeypatch, k):
    factored = _spy_splu(monkeypatch)
    sol = solve_mode(assemble(space, k), f=COMPLEX_FORCE, config=SolverConfig("direct"))
    assert np.any(sol.u.imag) and np.any(sol.u.real)
    assert factored == [np.dtype(np.float64)]


def test_memory_guard_refuses_before_factoring(space, monkeypatch):
    factored = _spy_splu(monkeypatch)
    monkeypatch.setattr("axistokes.solver._physical_memory", lambda: 2**10)
    with pytest.raises(SolverBreakdown, match="physical memory; use method = uzawa"):
        solve_mode(assemble(space, 1), f=COMPLEX_FORCE)
    assert factored == []
    # On 7 GB the h = 1/64 bordered systems (52,740 unknowns at k = 0) may be
    # factored; h = 1/128, with about four times as many, is refused.
    monkeypatch.setattr("axistokes.solver._physical_memory", lambda: 7 * 2**30)
    _check_lu_memory(52740)
    with pytest.raises(SolverBreakdown, match=r"needs about [\d,]+ MB, more than half"):
        _check_lu_memory(4 * 52740)


def test_memory_guard_refuses_h128_on_16_gib(monkeypatch):
    # The k = 0 fill grows 9.8 times per halving of h, so at h = 1/128
    # (16 times the 13,059 unknowns of h = 1/32) the LU does not fit in half
    # of 16 GiB; h = 1/64 still does.
    monkeypatch.setattr("axistokes.solver._physical_memory", lambda: 16 * 2**30)
    _check_lu_memory(52740)
    with pytest.raises(SolverBreakdown, match=r"needs about [\d,]+ MB, more than half"):
        _check_lu_memory(16 * 13059)


def test_singular_system_breaks_down():
    A = sp.csr_matrix((3, 3), dtype=complex)
    B = sp.csr_matrix((2, 3), dtype=complex)
    with pytest.raises(SolverBreakdown, match="factorization|non-finite"):
        _direct_bordered(A, B, np.ones(3, dtype=complex), np.zeros(2, dtype=complex))


@pytest.mark.parametrize("k", [0, 1, 5])
def test_inf_sup_estimate_in_plausible_range(space, k):
    beta = estimate_inf_sup(assemble(space, k))
    assert type(beta) is float
    assert 0.15 < beta < 1.0


def _qr_projected_inf_sup(system):
    """The complex dense estimate on a QR basis of the mean-free pressures."""
    Bh = system.B_hat.conj().T.tocsc()
    S = system.B_hat @ system.a_solve(Bh.toarray())
    S = 0.5 * (S + S.conj().T)
    Mp = system.space.operators().Mp.toarray()
    if system.k == 0:
        eye = np.eye(system.n_p)
        q, _ = np.linalg.qr(np.hstack([system.m_vec.reshape(-1, 1), eye]))
        Z = q[:, 1:]
        S, Mp = Z.conj().T @ S @ Z, Z.T @ Mp @ Z
    return float(scipy.linalg.eigh(S, Mp, eigvals_only=True, subset_by_index=[0, 0])[0])


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_inf_sup_matches_qr_projected_estimate(h, k):
    # At k = 0 the second eigenvalue of the whole pencil (S, Mp) equals the
    # smallest one on the mean-free pressures.
    system = assemble(FemSpace(generate_structured((1.0, 1.0), h)), k)
    beta = estimate_inf_sup(system)
    assert beta**2 == pytest.approx(_qr_projected_inf_sup(system), rel=1e-12)


def _rel_err(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("k", range(-5, 6))
def test_real_velocity_factor_matches_complex_solve(square8_systems, k):
    # a_solve applies the real factors of the scalar blocks L_j; it must
    # agree with a complex solve of C* A C, and a real b gives a real x.
    system = square8_systems[k]
    C = constraint_matrix(system.constraints)
    A = mode_matrices(system.space, k)[0]
    A = (C.conj().T @ A @ C).tocsc()
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


def _swap_pm(system):
    """Index of S, which moves u+ and u- of mode k to their places at -k."""
    plus, minus, axial = system.constraints.blocks
    if system.k == 0:
        return np.arange(system.n_free)
    return np.r_[minus, plus, axial]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-5, 5), seed=st.integers(0, 2**32 - 1))
def test_velocity_solve_mirrors_under_conjugation(square8_systems, k, seed):
    # A(-k) = conj(A(k)) and u_theta = i w swap u+ and u-: their scalar
    # indices |k - 1| and |k + 1| trade places, so A_hat(-k) = S A_hat(k) S*
    # and solving mode -k with S b gives S times the mode k solution.
    pos, neg = square8_systems[k], square8_systems[-k]
    S = _swap_pm(pos)
    np.testing.assert_array_equal(_swap_pm(neg)[S], np.arange(pos.n_free))
    assert abs(velocity_matrix(neg) - velocity_matrix(pos)[S][:, S]).max() == 0.0
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(pos.n_free) + 1j * rng.standard_normal(pos.n_free)
    x_pos = pos.a_solve(b)
    x_neg = neg.a_solve(b[S])
    assert _rel_err(x_neg, x_pos[S]) <= 1e-12


class _CountingFactor:
    """Stand-in for a factor that records the right side of each solve."""

    def __init__(self, factor, rhs=None):
        self.factor = factor
        self.rhs = [] if rhs is None else rhs

    def solve(self, b):
        self.rhs.append(b.copy())
        return self.factor.solve(b)


def test_zero_slices_skip_their_factor(monkeypatch):
    # At k = 0 u_r and u_theta share L_1.  B_hat has no angular column
    # there, so swirl-free data never reaches the angular slice: each
    # a_solve of the Uzawa iteration solves L_1 once, for u_r alone.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    system = assemble(space, 0)
    counting = _CountingFactor(space.velocity_factor(1))
    shared = space.velocity_factor
    monkeypatch.setattr(
        space, "velocity_factor", lambda j: counting if j == 1 else shared(j)
    )
    angular = system.constraints.blocks[1]
    assert abs(system.B_hat[:, angular]).max() == 0.0
    b = np.zeros(system.n_free)
    b[system.constraints.blocks[2]] = 1.0
    assert not np.any(system.a_solve(b)[: angular.stop])
    assert counting.rhs == []
    f = (RZ, 0.0 * RZ, Poly2({(1, 0): 2.0}))
    sol = solve_mode(system, f=f, config=SolverConfig(method="uzawa", tol=1e-12))
    assert sol.report.converged
    assert len(counting.rhs) == sol.report.iterations + 1
    assert all(np.any(rhs) for rhs in counting.rhs)


@pytest.fixture(scope="module")
def l_shape_spaces():
    return {
        h: FemSpace(mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=h)))
        for h in (0.5, 0.25)
    }


@pytest.mark.parametrize("h", [0.5, 0.25])
@pytest.mark.parametrize("k", [-5, 0, 1, 2, 5, 12])
def test_inf_sup_on_l_shape_matches_qr_projected_estimate(l_shape_spaces, h, k):
    # The L-shaped meridian of ``axistokes verify``: a re-entrant corner and
    # unstructured triangles, off the square's symmetric grid.
    system = assemble(l_shape_spaces[h], k)
    beta = estimate_inf_sup(system)
    assert beta**2 == pytest.approx(_qr_projected_inf_sup(system), rel=1e-12)


def test_inf_sup_iteration_short_of_its_tolerance_breaks_down(space, monkeypatch):
    core = solver._uzawa_core

    def stopped(*args):
        u, p, its, _, history, alphas, betas = core(*args)
        return u, p, its, False, history, alphas, betas

    monkeypatch.setattr(solver, "_uzawa_core", stopped)
    with pytest.raises(SolverBreakdown, match="inf-sup iteration for mode 1 stopped"):
        estimate_inf_sup(assemble(space, 1))


@pytest.fixture(scope="module")
def space8():
    return FemSpace(generate_structured((1.0, 1.0), 0.125))


def _reference_mode_solve(system, f):
    """Complex spsolve of the bordered system built from the full blocks."""
    cons = system.constraints
    C, fix = constraint_matrix(cons), cons.fix
    A, B = mode_matrices(system.space, system.k)
    A_hat = C.conj().T @ A @ C
    B_hat = B @ C
    F_hat = C.conj().T @ (assemble_rhs(system.space, f) - A @ fix)
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
    # Complex force for k != 0, real data at k = 0 (so one real column runs
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
    u_ref, p_ref = _reference_mode_solve(system, f)
    bound = 1e-12 if method == "direct" else 1e-11
    assert _rel_err(sol.u, u_ref) <= bound
    assert _rel_err(sol.p, p_ref) <= bound


def _random_poly(rng, degree=2):
    return Poly2(
        {
            (a, b): complex(*rng.standard_normal(2))
            for a in range(degree + 1)
            for b in range(degree + 1 - a)
        }
    )


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(-6, 6),
    method=st.sampled_from(["direct", "uzawa"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_mode_solves_match_complex_reference(space8, k, method, seed):
    # Random complex force, and random complex swirl on the wall that
    # vanishes on the axis and carries no flux.  The reference's C* A C
    # and the block diagonal of the L_j differ by rounding, about 3e-16 of
    # their size; the saddle system lifts that to about 1e-12 in the
    # pressure, so the bound sits above the guard's.
    rng = np.random.default_rng(seed)
    f = tuple(_random_poly(rng) for _ in range(3))
    g = (0.0 * RZ, Poly2({(1, 0): 1.0}) * _random_poly(rng, 1), 0.0 * RZ)
    system = assemble(space8, k, g=g)
    sol = solve_mode(system, f=f, config=SolverConfig(method=method, tol=1e-13))
    u_ref, p_ref = _reference_mode_solve(system, f)
    assert _rel_err(sol.u, u_ref) <= 1e-10
    assert _rel_err(sol.p, p_ref) <= 1e-10
