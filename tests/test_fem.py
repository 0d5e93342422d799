"""Taylor-Hood assembly: operators, constraints, right sides, and fields."""

import sys
import threading

import numpy as np
import pytest

from axistokes import fem
from axistokes.fem import (
    COMP_R,
    COMP_T,
    COMP_Z,
    FemScalarField,
    FemSpace,
    ModeSolution,
    assemble,
    assemble_divergence_rhs,
    assemble_rhs,
    boundary_flux,
    mode_constraints,
    mode_matrices,
)
from axistokes.fields import Poly2
from axistokes.meshing import generate_structured
from axistokes.norms import mode_energy_product
from axistokes.quadrature import triangle_rule

ONE = Poly2({(0, 0): 1.0})
R = Poly2({(1, 0): 1.0})
Z = Poly2({(0, 1): 1.0})
ZERO = 0.0 * ONE


@pytest.fixture(scope="module")
def space():
    return FemSpace(generate_structured((1.0, 1.0), 0.5))


def test_space_counts(space):
    # 3 x 3 vertex grid, 8 triangles, 16 distinct edges.
    assert space.n_p == 9
    assert space.n_vel == 9 + 16
    assert len(space.corner_dofs) == 2
    # Axis side contributes two edges: three vertices plus two midpoints.
    assert len(space.axis_dofs) == 5
    assert len(space.axis_dofs - space.wall_dofs) == 3


@pytest.mark.parametrize("k,axis_fixed", [(0, 2), (1, 2), (-1, 2), (2, 3), (5, 3)])
def test_constraint_counts(space, k, axis_fixed):
    cons = mode_constraints(space, k)
    n_wall = len(space.wall_dofs)
    n_axis_only = len(space.axis_dofs - space.wall_dofs)
    assert cons.n_free == 3 * space.n_vel - 3 * n_wall - axis_fixed * n_axis_only


@pytest.mark.parametrize("k", [1, -1])
def test_unit_wavenumber_axis_tie(space, k):
    # The u+- component with j = 0 is free on the axis and the other is
    # pinned, which leaves u_r = -i k u_theta on the axis rows.
    cons = mode_constraints(space, k)
    assert sorted(cons.j[:2]) == [0, 2]
    C = cons.C.toarray()
    n = space.n_vel
    for d in sorted(space.axis_dofs - space.wall_dofs):
        assert np.count_nonzero(C[COMP_T * n + d]) == 1
        np.testing.assert_array_equal(C[COMP_R * n + d], -1j * k * C[COMP_T * n + d])
        assert not np.any(C[COMP_Z * n + d])


def test_wall_values_enter_fix(space):
    # The angular data z is nonzero at the (0, 1) corner, which mode 2
    # reports; the warning is incidental to what this test checks.
    with pytest.warns(UserWarning, match="axis conditions"):
        cons = mode_constraints(space, 2, g=(R, Z, R + Z))
    n = space.n_vel
    for d in sorted(space.wall_dofs):
        r, z = space.dof_coords[d]
        assert cons.fix[COMP_R * n + d] == pytest.approx(r)
        assert cons.fix[COMP_T * n + d] == pytest.approx(z)
        assert cons.fix[COMP_Z * n + d] == pytest.approx(r + z)
    # Free part untouched.
    full = cons.C @ np.zeros(cons.n_free) + cons.fix
    for d in sorted(space.axis_dofs - space.wall_dofs):
        assert full[COMP_R * n + d] == 0.0


def test_corner_data_violating_axis_conditions_warns(space):
    with pytest.warns(UserWarning, match="axis conditions"):
        mode_constraints(space, 0, g=(ONE, ZERO, ZERO))


def test_axial_block_is_plain_stiffness_for_axisymmetric(space):
    A, _ = mode_matrices(space, 0)
    n = space.n_vel
    K = space.operators().K
    diff = A[2 * n :, 2 * n :] - K.astype(complex)
    assert diff.nnz == 0 or abs(diff).max() == 0.0
    # And the radial/angular coupling blocks are absent.
    coupling = A[:n, n : 2 * n]
    assert coupling.nnz == 0 or abs(coupling).max() == 0.0


def test_mode_matrix_conjugation(space):
    A_pos, B_pos = mode_matrices(space, 3)
    A_neg, B_neg = mode_matrices(space, -3)
    assert np.abs((A_neg - A_pos.conj()).toarray()).max() == 0.0
    assert np.abs((B_neg - B_pos.conj()).toarray()).max() == 0.0


@pytest.mark.parametrize("k", [0, 1, -1, 2])
def test_reduced_velocity_block_hermitian_definite(space, k):
    # With u_theta = i w on the free angular unknowns the reduced blocks
    # are exactly real.
    system = assemble(space, k)
    assert np.abs(system.A_hat.imag).max() == 0.0
    assert np.abs(system.B_hat.imag).max() == 0.0
    H = system.A_hat.toarray()
    scale = np.abs(H).max()
    assert np.abs(H - H.conj().T).max() <= 1e-14 * scale
    # The block diagonal of the L_j is C* A C: the u+- split decouples it.
    C = system.constraints.C
    A = mode_matrices(space, k)[0]
    assert np.abs((C.conj().T @ A @ C).toarray() - H).max() <= 1e-14 * scale
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() > 0.0


@pytest.mark.parametrize("k", [0, 1, 3])
def test_energy_matrix_matches_quadrature_product(space, k):
    # u* A u agrees with the sesquilinear energy form evaluated by the
    # norm engine on the same quadrature rule.
    rng = np.random.default_rng(17)
    rule = triangle_rule(5)
    A, _ = mode_matrices(space, k, rule)
    n = space.n_vel
    u = rng.standard_normal(3 * n) + 1j * rng.standard_normal(3 * n)
    quad = complex(np.vdot(u, A @ u))
    fields = tuple(
        FemScalarField(space, u[c * n : (c + 1) * n]) for c in range(3)
    )
    ref = mode_energy_product(space.mesh, k, fields, fields, rule)
    assert quad == pytest.approx(ref, rel=1e-12)


def test_rhs_partition_of_unity(space):
    # The quadratic basis sums to one, so the component load of a unit
    # force integrates the weight: sum F_c = int r = 1/2.
    n = space.n_vel
    for c, f in enumerate([(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]):
        F = assemble_rhs(space, f)
        block = F[c * n : (c + 1) * n]
        assert np.sum(block) == pytest.approx(0.5, rel=1e-13)
        others = np.delete(F.reshape(3, n), c, axis=0)
        assert np.abs(others).max() == 0.0
    assert np.abs(assemble_rhs(space, None)).max() == 0.0


def test_divergence_rhs_sums_to_weighted_mean(space):
    G = assemble_divergence_rhs(space, ONE)
    assert np.sum(G) == pytest.approx(-0.5, rel=1e-13)
    assert np.abs(assemble_divergence_rhs(space, None)).max() == 0.0


def test_axisymmetric_wall_data_with_net_flux_warns(space):
    system = assemble(space, 0, g=(R, ZERO, ZERO))
    with pytest.warns(UserWarning, match="net volume flux"):
        system.rhs()


def test_boundary_flux_closed_forms():
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    n = space.n_vel
    coords = space.dof_coords

    # u = (r, 0, 0): the weighted divergence is 2, so the flux is 2 int r = 1.
    u = np.zeros((3, n), dtype=complex)
    u[COMP_R] = coords[:, 0]
    assert boundary_flux(space, u) == pytest.approx(1.0, rel=1e-12)

    # Constant axial flow passes straight through: zero net flux.
    u = np.zeros((3, n), dtype=complex)
    u[COMP_Z] = 1.0
    assert boundary_flux(space, u) == pytest.approx(0.0, abs=1e-13)

    # Divergence-free quadratic field (rz, *, -z^2).
    u = np.zeros((3, n), dtype=complex)
    u[COMP_R] = coords[:, 0] * coords[:, 1]
    u[COMP_Z] = -coords[:, 1] ** 2
    assert boundary_flux(space, u) == pytest.approx(0.0, abs=1e-12)


def test_scalar_field_point_evaluation(space):
    coords = space.dof_coords
    q = lambda r, z: 1.0 + 2.0 * r - z + r**2 - 3.0 * r * z + 0.5 * z**2
    field = FemScalarField(space, q(coords[:, 0], coords[:, 1]).astype(complex))
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    np.testing.assert_allclose(field(pts), q(pts[:, 0], pts[:, 1]), rtol=1e-12)

    verts = space.mesh.vertices
    lin = lambda r, z: 2.0 - r + 3.0 * z
    p1 = FemScalarField(space, lin(verts[:, 0], verts[:, 1]).astype(complex), kind="p1")
    np.testing.assert_allclose(p1(pts), lin(pts[:, 0], pts[:, 1]), rtol=1e-12)


def test_scalar_field_validation(space):
    with pytest.raises(ValueError, match="kind"):
        FemScalarField(space, np.zeros(space.n_vel), kind="p3")
    with pytest.raises(ValueError, match="coefficients"):
        FemScalarField(space, np.zeros(space.n_vel - 1))
    other = FemSpace(generate_structured((1.0, 1.0), 0.25))
    field = FemScalarField(space, np.zeros(space.n_vel))
    with pytest.raises(ValueError, match="does not live"):
        field.sample_on(other.mesh, triangle_rule(2))


def test_mode_solution_evaluation(space):
    rng = np.random.default_rng(8)
    u = rng.standard_normal((3, space.n_vel)) + 1j * rng.standard_normal((3, space.n_vel))
    p = rng.standard_normal(space.n_p)
    sol = ModeSolution(k=1, space=space, u=u, p=p)
    pts = rng.uniform(0.1, 0.9, size=(5, 2))
    uvals, pvals = sol.evaluate(pts)
    assert uvals.shape == (3, 5)
    for c, field in enumerate(sol.velocity_fields()):
        np.testing.assert_allclose(uvals[c], field(pts), rtol=1e-14)
    np.testing.assert_allclose(pvals, sol.pressure_field()(pts), rtol=1e-14)


def test_space_caches_build_once_under_threads():
    # More threads than cores and a short switch interval: a cache filled
    # without the lock would hand different threads different objects.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    barrier = threading.Barrier(6)
    got = []

    def worker():
        barrier.wait(timeout=10)
        tab = space.tabulation(triangle_rule(5))
        got.append(
            (
                tab,
                space.operators(),
                space.norm_matrices(triangle_rule(10)),
                space.pressure_mass_factor(),
                space.velocity_factor(2),
            )
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6
    for entry in got[1:]:
        assert all(a is b for a, b in zip(entry, got[0]))


def test_velocity_factors_shared_in_order_of_wavenumber(monkeypatch):
    # Mode k solves with L_j for j = |k - 1|, |k + 1|, |k|.  In order of
    # |k|, modes 0 .. 4 need L_0 .. L_5, and the space factors each once.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    factored = []
    spd_factor = fem.spd_factor
    monkeypatch.setattr(fem, "spd_factor", lambda A: factored.append(A) or spd_factor(A))
    systems = [assemble(space, k) for k in range(5)]
    for system in systems:
        x = system.a_solve(np.ones(system.n_free))
        assert np.abs(system.A_hat @ x - 1.0).max() <= 1e-12
    assert len(factored) == 6
    # A system holds the factors it used after the space forgets them.
    space.release_velocity_factors()
    systems[2].a_solve(np.ones(systems[2].n_free))
    assert len(factored) == 6


def test_velocity_factor_evicted_before_its_replacement_is_built(monkeypatch):
    # The space holds at most three factors; the least recently used one is
    # dropped before a new one is factored, not after, so a fourth is
    # never alive next to them.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    held = []
    spd_factor = fem.spd_factor

    def recording_factor(A):
        held.append(len(space._velocity_factors))
        return spd_factor(A)

    monkeypatch.setattr(fem, "spd_factor", recording_factor)
    for j in (0, 1, 2, 3, 1, 4, 0):
        space.velocity_factor(j)
    assert held == [0, 1, 2, 2, 2, 2]
    assert [key[0] for key in space._velocity_factors] == [1, 4, 0]
