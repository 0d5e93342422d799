"""Taylor-Hood assembly: operators, constraints, right sides, and fields."""

import gc
import sys
import weakref

import numpy as np
import pytest

from axistokes import fem
from axistokes.fem import (
    COMP_R,
    COMP_T,
    COMP_Z,
    FemScalarField,
    FemSpace,
    assemble,
    assemble_divergence_rhs,
    assemble_rhs,
    boundary_flux,
    mode_constraints,
)
from axistokes.fields import Poly2
from axistokes.meshing import generate_structured, triangulate_polygon
from axistokes.norms import sampled_energy_product
from axistokes.quadrature import (
    DEFAULT_NORM_DEGREE,
    edge_rule,
    quadrature_geometry,
    triangle_rule,
)
from axistokes.solver import SolverConfig, solve_mode

from fem_reference import (
    constraint_matrix,
    divergence_matrix,
    mode_matrices,
    reference_operators,
    reference_samples,
    velocity_matrix,
)

ONE = Poly2({(0, 0): 1.0})
R = Poly2({(1, 0): 1.0})
Z = Poly2({(0, 1): 1.0})
ZERO = 0.0 * ONE

MESHES = pytest.mark.parametrize(
    "mesh",
    [
        generate_structured((1.0, 1.0), 0.125),
        triangulate_polygon(((0.5, 0.0), (1.5, 0.0), (1.5, 1.0), (0.5, 1.0)), target_h=0.2),
        triangulate_polygon(
            ((0.0, 0.5), (1.0, 0.5), (1.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0)),
            target_h=0.3,
        ),
    ],
    ids=["square", "offset", "L-shape"],
)


@pytest.fixture(scope="module")
def space():
    return FemSpace(generate_structured((1.0, 1.0), 0.5))


def test_space_counts(space):
    # 3 x 3 vertex grid, 8 triangles, 16 distinct edges.
    assert space.n_p == 9
    assert space.n_vel == 9 + 16
    assert len(space.mesh.corner_nodes) == 2
    assert set(space.mesh.corner_nodes.tolist()) == space.wall_dofs & space.axis_dofs
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
    C = np.column_stack([cons.extend(e) for e in np.eye(cons.n_free)])
    n = space.n_vel
    for d in sorted(space.axis_dofs - space.wall_dofs):
        assert np.count_nonzero(C[COMP_T * n + d]) == 1
        np.testing.assert_array_equal(C[COMP_R * n + d], -1j * k * C[COMP_T * n + d])
        assert not np.any(C[COMP_Z * n + d])


@pytest.mark.parametrize("k", [0, 1, -1, 2, 5])
def test_constraint_map_matches_reference(space, k):
    # extend and restrict apply C and C* without forming C (measured
    # defect 0 against the reference matrix), B_hat, built block by block
    # along the directions, has the entries and the nnz of B C, and rhs
    # folds the wall values into G through B's column blocks as B @ fix.
    system = assemble(space, k, g=(R, R * Z, R))
    cons = system.constraints
    C = constraint_matrix(cons)
    B = divergence_matrix(space.operators(), k)
    rng = np.random.default_rng(60 + k)
    free = rng.standard_normal(cons.n_free) + 1j * rng.standard_normal(cons.n_free)
    full = rng.standard_normal(C.shape[0]) + 1j * rng.standard_normal(C.shape[0])
    for mine, ref in ((cons.extend(free), C @ free), (cons.restrict(full), C.conj().T @ full)):
        assert mine.shape == ref.shape
        assert np.abs(mine - ref).max() <= 1e-15 * np.abs(ref).max()
    product = (B @ C).tocsr()
    assert system.B_hat.nnz == product.nnz
    assert (system.B_hat != product).nnz == 0
    g_div = ONE + R * Z
    G_hat = system.rhs(None, g_div)[1]
    ref = assemble_divergence_rhs(space, g_div) - B @ cons.fix
    assert np.any(cons.fix)
    assert np.abs(G_hat - ref).max() <= 1e-14 * np.abs(ref).max()


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
    full = cons.extend(np.zeros(cons.n_free)) + cons.fix
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
    # are exactly real: the L_j are real, and so is B_hat.
    system = assemble(space, k)
    assert np.abs(system.B_hat.imag).max() == 0.0
    H = velocity_matrix(system).toarray()
    scale = np.abs(H).max()
    assert np.abs(H - H.conj().T).max() <= 1e-14 * scale
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() > 0.0


@pytest.mark.parametrize("k", [0, 1, -1, 2, 5])
def test_velocity_product_is_reduced_energy_matrix(space, k):
    # The block diagonal of the L_j is C* A C: the u+- split decouples it.
    # apply_energy(C u) is that product without forming A, column by
    # column and on a complex vector.
    system = assemble(space, k)
    C = constraint_matrix(system.constraints)
    ref = (C.conj().T @ mode_matrices(space, k)[0] @ C).toarray()
    scale = np.abs(ref).max()
    assert np.abs(velocity_matrix(system).toarray() - ref).max() <= 1e-14 * scale
    columns = np.column_stack(
        [system.apply_energy(C[:, i].toarray().ravel()) for i in range(system.n_free)]
    )
    assert np.abs(columns - ref).max() <= 1e-14 * scale
    rng = np.random.default_rng(40 + k)
    u = rng.standard_normal(system.n_free) + 1j * rng.standard_normal(system.n_free)
    product = ref @ u
    Cu = system.constraints.extend(u)
    assert np.abs(system.apply_energy(Cu) - product).max() <= 1e-14 * np.abs(product).max()


@pytest.mark.parametrize("k", [0, 1, 3])
def test_energy_matrix_matches_quadrature_product(space, k):
    # u* A u agrees with the sesquilinear energy form of the norm engine's
    # array core on samples at the assembly rule.
    rng = np.random.default_rng(17)
    rule = triangle_rule(5)
    A, _ = mode_matrices(space, k)
    n = space.n_vel
    u = rng.standard_normal(3 * n) + 1j * rng.standard_normal(3 * n)
    quad = complex(np.vdot(u, A @ u))
    fields = tuple(
        FemScalarField(space, u[c * n : (c + 1) * n]) for c in range(3)
    )
    samples = tuple(zip(*(reference_samples(f, rule) for f in fields)))
    R, _, W = quadrature_geometry(space.mesh, rule)
    ref = sampled_energy_product(k, samples, samples, R, W)
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
    # A real flux prints as a real number, and the warning names the
    # caller of solve_mode.
    system = assemble(space, 0, g=(R, ZERO, ZERO))
    with pytest.warns(UserWarning, match=r"net volume flux -?\d\.\d{3}e[+-]\d+;") as record:
        solve_mode(system)
    assert record[0].filename == __file__


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


def _loop_boundary_flux(space, u, rule_degree=7):
    """Reference for boundary_flux: one boundary edge at a time."""
    mesh = space.mesh
    edge_ids = {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}
    seen = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key in seen:
                seen.pop(key)
            else:
                seen[key] = (int(a), int(b))
    erule = edge_rule(rule_degree)
    t = erule.points
    shape = np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1)
    total = 0.0 + 0.0j
    for a, b in seen.values():
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        dvec = pb - pa
        length = float(np.hypot(dvec[0], dvec[1]))
        normal = np.array([dvec[1], -dvec[0]]) / length
        mid = mesh.n_vertices + edge_ids[(min(a, b), max(a, b))]
        ur = shape @ u[COMP_R, [a, b, mid]]
        uz = shape @ u[COMP_Z, [a, b, mid]]
        rline = (1 - t) * pa[0] + t * pb[0]
        total += length * np.sum(erule.weights * (ur * normal[0] + uz * normal[1]) * rline)
    return complex(total)


@MESHES
def test_boundary_flux_matches_edge_loop(mesh):
    space = FemSpace(mesh)
    rng = np.random.default_rng(11)
    for _ in range(3):
        u = rng.standard_normal((3, space.n_vel)) + 1j * rng.standard_normal((3, space.n_vel))
        ref = _loop_boundary_flux(space, u)
        assert abs(boundary_flux(space, u) - ref) <= 1e-13 * max(1.0, abs(ref))


@MESHES
def test_operators_match_gradient_table_reference(mesh):
    # The operators are scattered from weighted products on the reference
    # coordinates; the reference pushes every basis gradient forward to
    # every quadrature point and integrates the physical forms directly.
    space = FemSpace(mesh)
    ops, ref = space.operators(), reference_operators(space, triangle_rule(5))
    for name in ("K", "Mm1", "D0", "Br", "Bz", "Mp"):
        got, want = getattr(ops, name), getattr(ref, name)
        scale = abs(want).max()
        assert abs(got - want).max() <= 1e-14 * scale, name
    assert np.abs(ops.m - ref.m).max() <= 1e-14 * np.abs(ref.m).max()


@MESHES
def test_sampling_matches_gradient_table_reference(mesh):
    space = FemSpace(mesh)
    rule = triangle_rule(DEFAULT_NORM_DEGREE)
    rng = np.random.default_rng(23)
    for kind, n in (("p2", space.n_vel), ("p1", space.n_p)):
        field = FemScalarField(
            space, rng.standard_normal(n) + 1j * rng.standard_normal(n), kind=kind
        )
        for got, want in zip(field.sample_on(mesh), reference_samples(field, rule)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), kind


def test_scalar_field_point_evaluation(space):
    # P2 reproduces a quadratic and P1 a linear function at every quadrature
    # point of the norm rule, on every triangle.
    rule = triangle_rule(DEFAULT_NORM_DEGREE)
    R, Z, _ = quadrature_geometry(space.mesh, rule)
    coords = space.dof_coords
    q = lambda r, z: 1.0 + 2.0 * r - z + r**2 - 3.0 * r * z + 0.5 * z**2
    field = FemScalarField(space, q(coords[:, 0], coords[:, 1]).astype(complex))
    val, _, _ = field.sample_on(space.mesh, need_grad=False)
    np.testing.assert_allclose(val, q(R, Z), rtol=1e-12)

    verts = space.mesh.vertices
    lin = lambda r, z: 2.0 - r + 3.0 * z
    p1 = FemScalarField(space, lin(verts[:, 0], verts[:, 1]).astype(complex), kind="p1")
    val, _, _ = p1.sample_on(space.mesh, need_grad=False)
    np.testing.assert_allclose(val, lin(R, Z), rtol=1e-12)


def test_scalar_field_validation(space):
    with pytest.raises(ValueError, match="kind"):
        FemScalarField(space, np.zeros(space.n_vel), kind="p3")
    with pytest.raises(ValueError, match="coefficients"):
        FemScalarField(space, np.zeros(space.n_vel - 1))
    other = FemSpace(generate_structured((1.0, 1.0), 0.25))
    field = FemScalarField(space, np.zeros(space.n_vel))
    with pytest.raises(ValueError, match="does not live"):
        field.sample_on(other.mesh)


def test_space_caches_build_once():
    # Every cache entry is built on first use; a second call returns the
    # same object instead of building it again.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))

    def entries():
        return (
            space.operators(),
            space.norm_matrices("p2"),
            space.norm_matrices("p1"),
            space.pressure_mass_factor(),
            space.velocity_factor(2),
        )

    first = entries()
    assert all(a is b for a, b in zip(entries(), first))


@pytest.fixture
def factor_refs(monkeypatch):
    """Weak references to every sparse LU made during the test.

    SuperLU objects take no weak reference, so each one is wrapped.
    """
    refs = []
    splu = fem.spla.splu

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def wrapped(*args, **kwargs):
        lu = Factor(splu(*args, **kwargs))
        refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(fem.spla, "splu", wrapped)
    return refs


def test_velocity_factors_shared_in_order_of_wavenumber(
    monkeypatch, factor_refs
):
    # Mode k solves with L_j for j = |k - 1|, |k + 1|, |k|.  In order of
    # |k|, modes 0 .. 4 need L_0 .. L_5, and the space factors each once.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    factored = []
    spd_factor = fem.spd_factor
    monkeypatch.setattr(fem, "spd_factor", lambda A: factored.append(A) or spd_factor(A))
    systems = [assemble(space, k) for k in range(5)]
    for system in systems:
        x = system.a_solve(np.ones(system.n_free))
        Ax = system.apply_energy(system.constraints.extend(x))
        assert np.abs(Ax - 1.0).max() <= 1e-12
    assert len(factored) == 6
    # The space is the only owner of the factors: releasing them frees
    # every one while the systems live, and a further solve factors anew.
    space.release_velocity_factors()
    gc.collect()
    assert len(factor_refs) == 6 and all(ref() is None for ref in factor_refs)
    systems[2].a_solve(np.ones(systems[2].n_free))
    assert len(factored) == 9


def test_velocity_operator_has_one_owner(monkeypatch):
    # Each L_j is formed once per factor, and only by velocity_factor:
    # assembly, right sides, the Uzawa iteration and its true residuals
    # reach the velocity block through the space's operators and factors.
    # In order of |k|, modes 0 .. 4 need L_0 .. L_5.
    space = FemSpace(generate_structured((1.0, 1.0), 0.25))
    callers = []
    velocity_block = space.velocity_block

    def counting(j):
        callers.append(sys._getframe(1).f_code.co_name)
        return velocity_block(j)

    monkeypatch.setattr(space, "velocity_block", counting)
    f = (R, R * Z, ONE)
    for k in range(5):
        sol = solve_mode(assemble(space, k), f=f, config=SolverConfig(method="uzawa"))
        assert sol.report.converged
    assert callers == ["velocity_factor"] * 6


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
    assert list(space._velocity_factors) == [1, 4, 0]
