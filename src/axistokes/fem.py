"""Taylor-Hood discretization of the per-mode Stokes problems.

Velocity components live in the quadratic Lagrange space on the meridian
triangulation, pressure in the linear one.  For wavenumber k the discrete
saddle problem reads

    A u + B* p = F,    B u = G,

where A is the Hermitian energy matrix of the mode (r-weighted stiffness
plus 1/r-weighted mass coupling the radial and angular components) and B
collects the mode divergence against pressure test functions.

Within a mode the velocity decouples once more (Bernardi, Dauge & Maday,
1999): with u_t = i w and u+- = (u_r +- w)/sqrt(2) for k != 0, the energy
is a sum of scalar forms L_j = K + j**2 Mm1, with j = |k - 1|, |k + 1|, |k|
on u+, u-, u_z (for k = 0 the unknowns stay u_r, u_t, u_z with
j = 1, 1, 0).  One rule gives every essential condition: a component is
pinned on the wall, and on the axis iff j != 0; at |k| = 1 this leaves the
tie u_r = -i k u_t.  A map C with orthonormal columns takes the free
unknowns to the full component-major vector; it is applied from each
component's direction and free nodes and never formed.  The reduced
velocity block C* A C is the block diagonal of the restricted L_j that
all modes of a space share, and B_hat = B C, whose column block c is B
along the direction of component c, is exactly real.  B is not formed
either: its column blocks (Br, -i k D0, Bz), taken from the space's
operators, build B_hat and carry the wall values into the continuity
right side.  Every 1/r**2 contribution that survives involves only basis
functions that vanish on the axis, keeping the interior quadrature
consistent.

Wall values win at corners where the wall meets the axis; data that
violates the axis conditions of the current mode there triggers a warning
instead of silently moving the problem.
"""

import collections
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshing import GAMMA, MeridianMesh
from .quadrature import (
    DEFAULT_ASSEMBLY_DEGREE,
    DEFAULT_NORM_DEGREE,
    QuadratureRule,
    edge_rule,
    quadrature_geometry,
    triangle_rule,
)

__all__ = [
    "FemSpace",
    "FemScalarField",
    "ModeSolution",
    "SaddleSystem",
    "assemble",
    "boundary_flux",
]

COMP_R, COMP_Z = 0, 2

# Velocity factors a space keeps: the three scalar indices of one mode.
_VELOCITY_FACTORS_KEPT = 3

# The one rule every operator and right side is integrated with, and the
# one rule every norm is taken at.
_ASSEMBLY_RULE = triangle_rule(DEFAULT_ASSEMBLY_DEGREE)
_NORM_RULE = triangle_rule(DEFAULT_NORM_DEGREE)

# Warning threshold of corner wall data along a direction the axis pins.
_CORNER_TOL = 1e-10

# Degree of the Gauss rule of the boundary flux on each edge.
_FLUX_RULE_DEGREE = 7


def _p2_values(lam: np.ndarray) -> np.ndarray:
    """Quadratic basis at barycentric points, local order v0 v1 v2 m12 m20 m01."""
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l1 * l2,
            4 * l2 * l0,
            4 * l0 * l1,
        ],
        axis=1,
    )


def _p2_dvalues(lam: np.ndarray) -> np.ndarray:
    """Derivatives of the quadratic basis wrt the barycentric coordinates."""
    n = lam.shape[0]
    out = np.zeros((n, 6, 3))
    out[:, 0, 0] = 4 * lam[:, 0] - 1
    out[:, 1, 1] = 4 * lam[:, 1] - 1
    out[:, 2, 2] = 4 * lam[:, 2] - 1
    out[:, 3, 1] = 4 * lam[:, 2]
    out[:, 3, 2] = 4 * lam[:, 1]
    out[:, 4, 2] = 4 * lam[:, 0]
    out[:, 4, 0] = 4 * lam[:, 2]
    out[:, 5, 0] = 4 * lam[:, 1]
    out[:, 5, 1] = 4 * lam[:, 0]
    return out


class FemSpace:
    """Quadratic velocity / linear pressure pair on one meridian mesh.

    Velocity degrees of freedom are the mesh vertices followed by the edge
    midpoints in the order of ``mesh.edges``; pressure degrees of freedom
    are the vertices, so pressure index m refers to the same node as
    velocity index m.

    Operators and the pressure mass factor are built on first use at the
    assembly rule, norm matrices at the norm rule; factors of the scalar
    velocity blocks L_j are kept for the last three j (``velocity_factor``),
    and the space is their only owner.
    A space and its caches serve one thread.
    """

    def __init__(self, mesh: MeridianMesh):
        self.mesh = mesh
        nv = mesh.n_vertices
        tris = mesh.triangles
        edges = mesh.edges
        self.dof_map = np.hstack([tris, nv + mesh.triangle_edges])
        self.n_p = nv
        self.n_vel = nv + len(edges)
        mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        self.dof_coords = np.vstack([mesh.vertices, mids])

        wall, axis = set(), set()
        edge_mids = (nv + mesh.boundary_edge_ids).tolist()
        for (a, b), m, tag in zip(mesh.boundary_edges.tolist(), edge_mids, mesh.boundary_tags):
            (wall if tag == GAMMA else axis).update((a, b, m))
        self.wall_dofs = frozenset(wall)
        self.axis_dofs = frozenset(axis)
        free = np.ones((2, self.n_vel), dtype=bool)
        free[:, np.fromiter(wall, np.int64, len(wall))] = False
        free[1, np.fromiter(axis, np.int64, len(axis))] = False
        self._free_nodes = tuple(np.flatnonzero(row) for row in free)

        # Per-triangle geometry for gradient pushforward.
        verts = mesh.vertices[tris]
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        grad = np.empty((mesh.n_triangles, 3, 2))
        grad[:, 1, 0] = e2[:, 1] / det
        grad[:, 1, 1] = -e2[:, 0] / det
        grad[:, 2, 0] = -e1[:, 1] / det
        grad[:, 2, 1] = e1[:, 0] / det
        grad[:, 0] = -grad[:, 1] - grad[:, 2]
        self.grad_lambda = grad
        self._operators = None
        self._mp_factor = None
        self._norm_matrices = None
        self._velocity_factors = collections.OrderedDict()

    def free_nodes(self, j: int) -> np.ndarray:
        """Velocity nodes where a component with scalar index j is unknown.

        Wall nodes are pinned for every j, axis nodes for j != 0.
        """
        return self._free_nodes[j != 0]

    def norm_matrices(self, kind: str) -> "NormMatrices":
        """Element matrices of the weighted mode norms, P2 or P1.

        For a field with element coefficients loc_t, the r-weighted L2 sum
        of its samples at the norm rule is sum_t conj(loc_t) mass_r[t]
        loc_t, and likewise for the other two; see ``NormMatrices``.
        Both kinds are built together on first use.
        """
        if self._norm_matrices is None:
            mats = _element_matrices(self, _NORM_RULE)
            self._norm_matrices = {"p2": mats["p2"], "p1": mats["p1"]}
        return self._norm_matrices[kind]

    def operators(self) -> "ModeOperators":
        """Global operators at the assembly rule, scattered from its element matrices."""
        if self._operators is None:
            self._operators = _build_operators(self)
        return self._operators

    def velocity_block(self, j: int) -> sp.csr_matrix:
        """L_j = K + j**2 Mm1 restricted to ``free_nodes(j)``, real.

        A mode's reduced velocity block is the block diagonal of three of these.
        """
        ops, idx = self.operators(), self.free_nodes(j)
        return (ops.K + (j * j) * ops.Mm1)[idx][:, idx].tocsr()

    def velocity_factor(self, j: int):
        """Real factor of ``velocity_block(j)``, shared by the modes using it.

        The space keeps the factors of the last three j asked for, for one
        thread, and no system holds one: ``SaddleSystem.a_solve`` asks for
        its factors on every call.  Mode k != 0 uses j = |k| - 1, |k|,
        |k| + 1 (mode 0 uses 0 and 1), so modes solved in order of (|k|, k)
        factor each L_j once, and a many-mode run does not hold all its
        factors at the same time.
        The least recently used factor is dropped before its replacement is
        factored, so at most three are alive while one is being built.
        """
        factors = self._velocity_factors
        if j not in factors:
            if len(factors) == _VELOCITY_FACTORS_KEPT:
                factors.popitem(last=False)
            factors[j] = spd_factor(self.velocity_block(j))
        factors.move_to_end(j)
        return factors[j]

    def release_velocity_factors(self) -> None:
        """Forget the kept velocity factors, which frees every one of them."""
        self._velocity_factors.clear()

    def pressure_mass_factor(self):
        """Real factor of the r-weighted pressure mass matrix Mp.

        Mp does not depend on the wavenumber, so every mode shares it.
        """
        if self._mp_factor is None:
            self._mp_factor = spd_factor(self.operators().Mp)
        return self._mp_factor


@dataclass(frozen=True)
class NormMatrices:
    """Real symmetric element matrices of one basis at one quadrature rule.

    Each is (nt, n, n) with n = 6 for P2 and 3 for P1: ``mass_r`` and
    ``mass_inv_r`` are the element mass matrices weighted by r and 1/r,
    ``stiff_r`` the r-weighted gradient form.  They carry the rule's
    weights, so a quadratic form in them equals the rule's sum of the
    squared samples.  Assembly and the norms share them: the operators K,
    Mm1 and Mp are the P2 ``stiff_r``, P2 ``mass_inv_r`` and P1 ``mass_r``
    at the assembly rule (see ``_element_matrices``).
    """

    mass_r: np.ndarray
    mass_inv_r: np.ndarray
    stiff_r: np.ndarray


def _weighted_products(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_q weights[t, q] a[q, ...] b[q, ...] as one GEMM: (nt,) + a.shape[1:] + b.shape[1:]."""
    nq = weights.shape[1]
    outer = (a.reshape(nq, -1, 1) * b.reshape(nq, 1, -1)).reshape(nq, -1)
    return (weights @ outer).reshape(weights.shape[:1] + a.shape[1:] + b.shape[1:])


def _element_matrices(space: FemSpace, rule: QuadratureRule) -> dict:
    """Every element matrix of ``space`` at ``rule``.

    Returns {"p2": NormMatrices, "p1": NormMatrices, "D0", "Br", "Bz"},
    the last three the (nt, 3, 6) pressure-velocity blocks of
    ``ModeOperators``.  All are weighted products over the rule on the
    reference coordinates (lambda_1, lambda_2): with lambda_0 = 1 -
    lambda_1 - lambda_2, grad N_a is sum_i dN[a, i] grad lambda_i over
    i = 1, 2, so a product with P2 derivatives contracts with each
    triangle's grad lambda_i, or with its metric grad lambda_i . grad
    lambda_j for two of them, and no table of physical gradients at the
    rule points is formed.  A P1 gradient is constant on each triangle.
    """
    lam = rule.points
    N = _p2_values(lam)
    dN3 = _p2_dvalues(lam)
    dN = dN3[:, :, 1:] - dN3[:, :, :1]
    R, _, W = quadrature_geometry(space.mesh, rule)
    WR, W_R = W * R, W / R
    gl = space.grad_lambda
    metric = gl @ gl.transpose(0, 2, 1)
    stiff = np.einsum(
        "taibj,tij->tab", _weighted_products(WR, dN, dN), metric[:, 1:, 1:], optimize=True
    )
    # The radial divergence part pairs psi_m with N_b + r d_r N_b, the axial
    # one with r d_z N_b.
    D0 = _weighted_products(W, lam, N)
    lam_dN = _weighted_products(WR, lam, dN)
    return {
        "p2": NormMatrices(
            mass_r=_weighted_products(WR, N, N),
            mass_inv_r=_weighted_products(W_R, N, N),
            stiff_r=stiff,
        ),
        "p1": NormMatrices(
            mass_r=_weighted_products(WR, lam, lam),
            mass_inv_r=_weighted_products(W_R, lam, lam),
            stiff_r=WR.sum(axis=1)[:, None, None] * metric,
        ),
        "D0": D0,
        "Br": -(D0 + np.einsum("tmbi,ti->tmb", lam_dN, gl[:, 1:, 0])),
        "Bz": -np.einsum("tmbi,ti->tmb", lam_dN, gl[:, 1:, 1]),
    }


@dataclass(frozen=True)
class ModeOperators:
    """Wavenumber-independent ingredients of the per-mode matrices.

    K: r-weighted stiffness.  Mm1: velocity mass with weight 1/r.
    D0: unweighted pressure-velocity mass.  Br, Bz: divergence parts for
    the radial and axial components.  Mp: r-weighted pressure mass, and
    m = Mp @ 1 represents the weighted mean functional.
    """

    K: sp.csr_matrix
    Mm1: sp.csr_matrix
    D0: sp.csr_matrix
    Br: sp.csr_matrix
    Bz: sp.csr_matrix
    Mp: sp.csr_matrix
    m: np.ndarray


def _scatter(nrows, ncols, rows, cols, data) -> sp.csr_matrix:
    mat = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(nrows, ncols)
    )
    return mat.tocsr()


def _build_operators(space: FemSpace) -> ModeOperators:
    mats = _element_matrices(space, _ASSEMBLY_RULE)
    dm = space.dof_map
    tris = space.mesh.triangles
    nvel, np_ = space.n_vel, space.n_p
    rows66 = np.repeat(dm[:, :, None], 6, axis=2)
    cols66 = np.repeat(dm[:, None, :], 6, axis=1)
    K = _scatter(nvel, nvel, rows66, cols66, mats["p2"].stiff_r)
    Mm1 = _scatter(nvel, nvel, rows66, cols66, mats["p2"].mass_inv_r)
    rows36 = np.repeat(tris[:, :, None], 6, axis=2)
    cols36 = np.repeat(dm[:, None, :], 3, axis=1)
    Br = _scatter(np_, nvel, rows36, cols36, mats["Br"])
    Bz = _scatter(np_, nvel, rows36, cols36, mats["Bz"])
    D0 = _scatter(np_, nvel, rows36, cols36, mats["D0"])
    rows33 = np.repeat(tris[:, :, None], 3, axis=2)
    cols33 = np.repeat(tris[:, None, :], 3, axis=1)
    Mp = _scatter(np_, np_, rows33, cols33, mats["p1"].mass_r)
    m = np.asarray(Mp @ np.ones(np_))
    return ModeOperators(K=K, Mm1=Mm1, D0=D0, Br=Br, Bz=Bz, Mp=Mp, m=m)


def _divergence_blocks(ops: ModeOperators, k: int, nodes=None) -> tuple:
    """The column blocks (Br, -i k D0, Bz) of mode k's divergence block B.

    They act on u_r, u_theta and u_z; the angular block is empty at k = 0.
    With ``nodes``, each block keeps only those velocity columns.
    """
    Br, D0, Bz = ops.Br, ops.D0, ops.Bz
    if nodes is not None:
        Br, D0, Bz = (P[:, nodes] for P in (Br, D0, Bz))
    Bt = (-1j * k) * D0 if k != 0 else sp.csr_matrix(D0.shape, dtype=complex)
    return Br, Bt, Bz


@dataclass
class ModeConstraints:
    """Essential conditions of one mode as a linear change of unknowns.

    The free vector holds three components one after another, in the
    slices ``blocks``; component c has scalar index ``j[c]`` and is unknown
    on the velocity nodes ``nodes[c]`` along the unit (r, theta, z)
    direction ``dirs[:, c]``.  They are u+, u- and u_z for k != 0, so u+-
    runs along (1, +-i)/sqrt(2), and u_r, u_theta and u_z for k = 0.  This
    is the map C from the free vector to the full component-major velocity
    vector, with orthonormal columns; ``extend`` applies C and ``restrict``
    C*, and C is never formed.  ``fix`` carries the pinned values, so
    u_full = C u_free + fix.
    """

    fix: np.ndarray
    j: tuple
    dirs: np.ndarray
    nodes: tuple
    blocks: tuple

    @property
    def n_free(self) -> int:
        return self.blocks[-1].stop

    def extend(self, free: np.ndarray) -> np.ndarray:
        """C free: the full component-major vector, zero at pinned entries."""
        full = np.zeros((3, self.fix.size // 3), dtype=complex)
        for d, idx, block in zip(self.dirs.T, self.nodes, self.blocks):
            full[:, idx] += d[:, None] * free[block]
        return full.ravel()

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """C* full: the free components of a full component-major vector."""
        along = self.dirs.conj().T @ full.reshape(3, -1)
        return np.concatenate([w[idx] for w, idx in zip(along, self.nodes)])


def _mode_basis(k: int):
    """Scalar index j and (r, theta, z) direction of each component of mode k.

    Directions are unnormalized, with entries of modulus one, so that data
    projected on them keeps the units of u_r and u_theta.
    """
    if k == 0:
        return (1, 1, 0), np.eye(3)
    return (abs(k - 1), abs(k + 1), abs(k)), np.array(
        [[1, 1, 0], [1j, -1j, 0], [0, 0, 1]]
    )


def mode_constraints(space: FemSpace, k: int, g=None) -> ModeConstraints:
    """Dirichlet and axis conditions for wavenumber k.

    ``g`` is the wall velocity data (a vector mode function or any triple
    of mode functions); omitted means homogeneous.  Wall values are
    interpolated at wall degrees of freedom.  At wall/axis corners the wall
    data wins; a warning reports data whose component along any direction
    with j != 0 exceeds ``_CORNER_TOL``.
    """
    n = space.n_vel
    js, dirs = _mode_basis(k)
    fix = np.zeros(3 * n, dtype=complex)
    if g is not None and space.wall_dofs:
        wall = np.fromiter(space.wall_dofs, np.int64, len(space.wall_dofs))
        coords = space.dof_coords[wall]
        for c, comp in enumerate(g):
            vals = np.asarray(comp(coords[:, 0], coords[:, 1]), dtype=complex)
            fix[c * n + wall] = np.broadcast_to(vals, wall.shape)

        corners = space.mesh.corner_nodes
        pinned = dirs[:, [c for c in range(3) if js[c]]]
        bad = np.abs(pinned.conj().T @ fix.reshape(3, n)[:, corners]).max(axis=0)
        for d, b in zip(corners, bad):
            if b > _CORNER_TOL:
                r0, z0 = space.dof_coords[d]
                warnings.warn(
                    f"wall data at corner node ({r0:.3g}, {z0:.3g}) violates the "
                    f"axis conditions of mode {k} by {b:.3e}; wall values kept",
                    stacklevel=2,
                )

    nodes = tuple(space.free_nodes(j) for j in js)
    ends = np.cumsum([idx.size for idx in nodes]).tolist()
    blocks = tuple(slice(e - idx.size, e) for idx, e in zip(nodes, ends))
    dirs = dirs / np.linalg.norm(dirs, axis=0)
    return ModeConstraints(fix=fix, j=js, dirs=dirs, nodes=nodes, blocks=blocks)


def assemble_rhs(space: FemSpace, f=None) -> np.ndarray:
    """Load vector of the momentum equations, component-major, length 3n."""
    n = space.n_vel
    F = np.zeros(3 * n, dtype=complex)
    if f is None:
        return F
    N = _p2_values(_ASSEMBLY_RULE.points)
    R, Z, W = quadrature_geometry(space.mesh, _ASSEMBLY_RULE)
    for c, comp in enumerate(f):
        vals = np.broadcast_to(np.asarray(comp(R, Z), dtype=complex), R.shape)
        loc = np.einsum("tq,qb->tb", W * R * vals, N)
        np.add.at(F[c * n : (c + 1) * n], space.dof_map.ravel(), loc.ravel())
    return F


def assemble_divergence_rhs(space: FemSpace, g_div):
    """Continuity right side G_m = -(g_div, psi_m) weighted by r."""
    G = np.zeros(space.n_p, dtype=complex)
    if g_div is None:
        return G
    R, Z, W = quadrature_geometry(space.mesh, _ASSEMBLY_RULE)
    vals = np.broadcast_to(np.asarray(g_div(R, Z), dtype=complex), R.shape)
    loc = -np.einsum("tq,qm->tm", W * R * vals, _ASSEMBLY_RULE.points)
    np.add.at(G, space.mesh.triangles.ravel(), loc.ravel())
    return G


def spd_factor(A: sp.spmatrix):
    """Sparse LU of a real symmetric positive definite matrix.

    Minimum degree on the structure of A^T + A fits a symmetric matrix and
    roughly halves the fill of the default COLAMD column ordering.
    """
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")


def _real_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Apply a real factor to a real or complex vector or block of columns.

    A complex right side takes one real solve on its real and imaginary
    parts side by side, or a real solve when its imaginary part is zero;
    the result keeps the dtype of the right side.
    """
    if not np.any(rhs.imag):
        return factor.solve(rhs.real).astype(rhs.dtype, copy=False)
    cols = rhs.reshape(rhs.shape[0], -1)
    m = cols.shape[1]
    x = factor.solve(np.hstack([cols.real, cols.imag]))
    return (x[:, :m] + 1j * x[:, m:]).reshape(rhs.shape)


class DataError(ValueError):
    """Mode data that no solve can use, such as non-finite values."""


@dataclass
class SaddleSystem:
    """One mode's constrained saddle problem, ready for right sides.

    Holds the ``space``, the wavenumber ``k``, the ``constraints`` and
    ``B_hat`` = B C, whose column block c is B along ``dirs[:, c]`` at the
    free nodes of component c.  Neither B nor C is formed (see
    ``ModeConstraints``).  ``B_hat`` is exactly real but kept in complex
    dtype, since products of a real sparse matrix with complex vectors copy
    it each time.  ``rhs`` folds data and pinned values into the free
    unknowns: the pinned values enter the continuity side through B's
    column blocks, block c acting on component c of ``fix``, as they enter
    the momentum side through ``apply_energy`` without forming A.  The
    reduced velocity block C* A C is the block diagonal of the space's L_j,
    so it is symmetric positive definite, and no system stores it:
    ``apply_energy`` applies C* A, and ``a_solve`` the inverse on the
    factors the space shares.  ``B_hat`` has full rank except for the
    axisymmetric constant pressure, represented by ``m_vec``; ``mp_solve``
    applies the inverse of the space's pressure mass matrix.
    """

    space: FemSpace
    k: int
    constraints: ModeConstraints
    B_hat: sp.csr_matrix

    @property
    def n_free(self) -> int:
        return self.constraints.n_free

    @property
    def n_p(self) -> int:
        return self.B_hat.shape[0]

    @property
    def m_vec(self) -> np.ndarray:
        return self.space.operators().m

    def rhs(self, f=None, g_div=None):
        """Reduced right sides (F_hat, G_hat) for body force and divergence data.

        Data that is not finite raises DataError.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            F = assemble_rhs(self.space, f)
            G = assemble_divergence_rhs(self.space, g_div)
            fix = self.constraints.fix
            F_hat = self.constraints.restrict(F) - self.apply_energy(fix)
            blocks = _divergence_blocks(self.space.operators(), self.k)
            G_hat = G - sum(P @ w for P, w in zip(blocks, fix.reshape(3, -1)))
        if not (np.all(np.isfinite(F_hat)) and np.all(np.isfinite(G_hat))):
            raise DataError(
                f"mode {self.k}: the body force, divergence or wall data is "
                "not finite on the mesh"
            )
        return F_hat, G_hat

    def apply_energy(self, full: np.ndarray) -> np.ndarray:
        """C* A full for a full component-major velocity vector, without forming A.

        The unit direction of each free component is an eigenvector of the
        3 x 3 symbol of A, with eigen-operator L_j = K + j**2 Mm1 (see the
        module docstring), so component c is L_j applied to ``full`` along
        that direction, kept at its free nodes; ``extend(u)`` gives C* A C u.
        """
        cons, ops = self.constraints, self.space.operators()
        along = cons.dirs.conj().T @ full.reshape(3, -1)
        return np.concatenate(
            [
                (ops.K @ w + (j * j) * (ops.Mm1 @ w))[nodes]
                for j, nodes, w in zip(cons.j, cons.nodes, along)
            ]
        )

    def recover(self, u_free: np.ndarray) -> np.ndarray:
        """Full component-major velocity vector from free unknowns."""
        full = self.constraints.extend(u_free) + self.constraints.fix
        return full.reshape(3, self.space.n_vel)

    def a_solve(self, rhs: np.ndarray) -> np.ndarray:
        """(C* A C)^-1 rhs for a vector or a block of columns.

        Each component's slice is solved on the real factor of its L_j,
        asked of the space on each call (``FemSpace.velocity_factor``); an
        all-zero slice stays zero without a solve.  The result keeps the
        dtype of the right side.
        """
        out = np.zeros_like(rhs)
        for j, block in zip(self.constraints.j, self.constraints.blocks):
            if np.any(rhs[block]):
                out[block] = _real_solve(self.space.velocity_factor(j), rhs[block])
        return out

    def mp_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Mp^-1 rhs on the real factor of Mp that all modes of the space share."""
        return _real_solve(self.space.pressure_mass_factor(), rhs)

    def dual_norm(self, f) -> float:
        """Norm of body force data ``f`` in the dual of the constrained space."""
        F_hat = self.constraints.restrict(assemble_rhs(self.space, f))
        w = self.a_solve(F_hat)
        return float(np.sqrt(max(np.vdot(F_hat, w).real, 0.0)))


def assemble(space: FemSpace, k: int, g=None) -> SaddleSystem:
    """Build the constrained saddle system of mode k with wall data g."""
    ops = space.operators()
    cons = mode_constraints(space, k, g)
    # Column block c of B_hat is B along the unit direction dirs[:, c] at
    # the free nodes of component c.  Those nodes depend only on whether
    # j[c] is zero (``FemSpace.free_nodes``), so B's blocks are sliced once
    # per set.  Entries that cancel exactly are dropped, as a sparse product
    # drops them.
    node_sets = {j != 0: idx for j, idx in zip(cons.j, cons.nodes)}
    blocks = {key: _divergence_blocks(ops, k, idx) for key, idx in node_sets.items()}
    B_hat = sp.hstack(
        [
            sum(di * P for di, P in zip(d, blocks[j != 0]) if di != 0)
            for d, j in zip(cons.dirs.T, cons.j)
        ],
        format="csr",
    )
    B_hat.eliminate_zeros()
    return SaddleSystem(space=space, k=k, constraints=cons, B_hat=B_hat)


class FemScalarField:
    """One scalar coefficient field over a FemSpace, P2 or P1.

    ``sample_on`` gives its values and gradients at the points of the norm
    rule.  The norm engine measures fields of one space through
    ``FemSpace.norm_matrices`` and samples them
    (``norms.sample_component``) only inside differences and mixed triples.
    """

    def __init__(self, space: FemSpace, dofs: np.ndarray, kind: str = "p2"):
        if kind not in ("p2", "p1"):
            raise ValueError("kind must be 'p2' or 'p1'")
        expected = space.n_vel if kind == "p2" else space.n_p
        dofs = np.asarray(dofs, dtype=complex)
        if dofs.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients, got {dofs.shape}")
        self.space = space
        self.dofs = dofs
        self.kind = kind

    def sample_on(self, mesh: MeridianMesh, need_grad=True):
        if mesh.mesh_id != self.space.mesh.mesh_id:
            raise ValueError("field sampled on a mesh it does not live on")
        lam, gl = _NORM_RULE.points, self.space.grad_lambda
        if self.kind == "p2":
            loc = self.dofs[self.space.dof_map]
            val = np.einsum("qb,tb->tq", _p2_values(lam), loc)
            if not need_grad:
                return val, None, None
            # Derivatives along the barycentric coordinates, pushed forward
            # with each triangle's grad lambda_i.
            grad = np.einsum("qbi,tb->tqi", _p2_dvalues(lam), loc) @ gl
            return val, grad[:, :, 0], grad[:, :, 1]
        loc = self.dofs[self.space.mesh.triangles]
        val = np.einsum("qb,tb->tq", lam, loc)
        if not need_grad:
            return val, None, None
        dr = np.einsum("tb,tb->t", gl[:, :, 0], loc)
        dz = np.einsum("tb,tb->t", gl[:, :, 1], loc)
        nq = lam.shape[0]
        return val, np.repeat(dr[:, None], nq, 1), np.repeat(dz[:, None], nq, 1)


@dataclass
class ModeSolution:
    """Velocity and pressure coefficients of one solved mode."""

    space: FemSpace
    u: np.ndarray
    p: np.ndarray
    report: object = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=complex).reshape(3, self.space.n_vel)
        self.p = np.asarray(self.p, dtype=complex).reshape(self.space.n_p)

    def velocity_fields(self):
        return tuple(FemScalarField(self.space, self.u[c]) for c in range(3))

    def pressure_field(self) -> FemScalarField:
        return FemScalarField(self.space, self.p, kind="p1")


def boundary_flux(space: FemSpace, u) -> complex:
    """Net outward volume flux of the meridian velocity through the boundary.

    Integrates (u_r n_r + u_z n_z) r along every boundary edge with the
    outward normal derived from the adjacent triangle's orientation.  Axis
    edges contribute nothing because of the r weight.
    """
    u = np.asarray(u, dtype=complex).reshape(3, space.n_vel)
    mesh = space.mesh
    # Edges used once lie on the boundary.  Side s of a (counterclockwise)
    # triangle runs from its vertex s + 1 to s + 2.
    counts = np.bincount(mesh.triangle_edges.ravel())
    t, s = np.nonzero(counts[mesh.triangle_edges] == 1)
    a, b = mesh.triangles[t, (s + 1) % 3], mesh.triangles[t, (s + 2) % 3]
    nodes = np.stack([a, b, mesh.n_vertices + mesh.triangle_edges[t, s]], axis=1)
    # length * outward normal = (dz, -dr) along a -> b.
    d = mesh.vertices[b] - mesh.vertices[a]
    un = u[COMP_R][nodes] * d[:, 1:] - u[COMP_Z][nodes] * d[:, :1]
    erule = edge_rule(_FLUX_RULE_DEGREE)
    x = erule.points
    shape = np.stack([(1 - x) * (1 - 2 * x), x * (2 * x - 1), 4 * x * (1 - x)])
    rline = np.outer(mesh.vertices[a, 0], 1 - x) + np.outer(mesh.vertices[b, 0], x)
    return complex(np.sum((un @ shape) * rline * erule.weights))
