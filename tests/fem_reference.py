"""Reference Taylor-Hood operators from a table of physical gradients.

The package builds its element matrices from weighted products on the
reference coordinates (``fem._element_matrices``).  This module keeps the
direct formulation they are tested against: basis gradients pushed forward
to every quadrature point of every triangle, (nt, nq, 6, 2), and each
element matrix as one einsum over that table.

It also forms the matrices the package only applies.  ``mode_matrices``
gives the full, unconstrained saddle blocks of one mode, A and the
divergence block B of ``divergence_matrix``; ``velocity_matrix`` the
reduced velocity block that no system stores; and ``constraint_matrix``
the constraint map C (``ModeConstraints.extend`` and ``restrict`` apply
it).  The package builds ``B_hat``'s column block c as B along
``dirs[:, c]``, and folds the wall values into the continuity right side
through B's column blocks, so B C and B @ fix from these matrices are
their references.

``mode_energy_product`` and ``mode_divergence_product`` are the sampled
sesquilinear forms of a mode, the references of the array cores
``norms.sampled_energy_product`` and ``sampled_divergence_product`` that
``isometry_suite`` runs on.
"""

import numpy as np
import scipy.sparse as sp

from axistokes.fem import (
    _NORM_RULE,
    ModeOperators,
    _divergence_blocks,
    _p2_dvalues,
    _p2_values,
)
from axistokes.norms import (
    _sample_vector,
    sample_component,
    sampled_divergence_product,
    sampled_energy_product,
)
from axistokes.quadrature import quadrature_geometry


def gradient_table(space, rule):
    """(N, grads, R, Z, W): P2 values (nq, 6), physical gradients (nt, nq, 6, 2),
    coordinates and weights (nt, nq)."""
    lam = rule.points
    grads = np.einsum("qbi,tid->tqbd", _p2_dvalues(lam), space.grad_lambda)
    return (_p2_values(lam), grads, *quadrature_geometry(space.mesh, rule))


def _scatter(nrows, ncols, rows, cols, data):
    mat = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(nrows, ncols))
    return mat.tocsr()


def reference_operators(space, rule) -> ModeOperators:
    N, grads, R, Z, W = gradient_table(space, rule)
    P1 = rule.points
    WR = W * R
    K_loc = np.einsum("tq,tqad,tqbd->tab", WR, grads, grads, optimize=True)
    Mm1_loc = np.einsum("tq,qa,qb->tab", W / R, N, N, optimize=True)
    div_r = N[None, :, :] + R[:, :, None] * grads[:, :, :, 0]
    Br_loc = -np.einsum("tq,qm,tqb->tmb", W, P1, div_r, optimize=True)
    Bz_loc = -np.einsum("tq,qm,tqb->tmb", WR, P1, grads[:, :, :, 1], optimize=True)
    D0_loc = np.einsum("tq,qm,qb->tmb", W, P1, N, optimize=True)
    Mp_loc = np.einsum("tq,qm,qn->tmn", WR, P1, P1, optimize=True)

    dm = space.dof_map
    tris = space.mesh.triangles
    nvel, np_ = space.n_vel, space.n_p
    rows66 = np.repeat(dm[:, :, None], 6, axis=2)
    cols66 = np.repeat(dm[:, None, :], 6, axis=1)
    rows36 = np.repeat(tris[:, :, None], 6, axis=2)
    cols36 = np.repeat(dm[:, None, :], 3, axis=1)
    rows33 = np.repeat(tris[:, :, None], 3, axis=2)
    cols33 = np.repeat(tris[:, None, :], 3, axis=1)
    Mp = _scatter(np_, np_, rows33, cols33, Mp_loc)
    return ModeOperators(
        K=_scatter(nvel, nvel, rows66, cols66, K_loc),
        Mm1=_scatter(nvel, nvel, rows66, cols66, Mm1_loc),
        D0=_scatter(np_, nvel, rows36, cols36, D0_loc),
        Br=_scatter(np_, nvel, rows36, cols36, Br_loc),
        Bz=_scatter(np_, nvel, rows36, cols36, Bz_loc),
        Mp=Mp,
        m=np.asarray(Mp @ np.ones(np_)),
    )


def reference_samples(field, rule):
    """(value, d/dr, d/dz) of a FemScalarField at ``rule`` from the gradient table."""
    space = field.space
    N, grads, R, Z, W = gradient_table(space, rule)
    if field.kind == "p2":
        loc = field.dofs[space.dof_map]
        return (
            np.einsum("qb,tb->tq", N, loc),
            np.einsum("tqb,tb->tq", grads[:, :, :, 0], loc),
            np.einsum("tqb,tb->tq", grads[:, :, :, 1], loc),
        )
    loc = field.dofs[space.mesh.triangles]
    gl = space.grad_lambda
    nq = rule.points.shape[0]
    dr = np.einsum("tb,tb->t", gl[:, :, 0], loc)
    dz = np.einsum("tb,tb->t", gl[:, :, 1], loc)
    return (
        np.einsum("qb,tb->tq", rule.points, loc),
        np.repeat(dr[:, None], nq, 1),
        np.repeat(dz[:, None], nq, 1),
    )


def divergence_matrix(ops: ModeOperators, k: int) -> sp.csr_matrix:
    """Full divergence block B (np x 3n) of mode k."""
    Br, Bt, Bz = _divergence_blocks(ops, k)
    return sp.bmat([[Br.astype(complex), Bt, Bz.astype(complex)]], format="csr")


def mode_matrices(space, k: int):
    """Full (unconstrained) saddle blocks A (3n x 3n) and B (np x 3n) of mode k."""
    ops = space.operators()
    K, Mm1 = ops.K, ops.Mm1
    A_rr = (K + (1 + k * k) * Mm1).astype(complex)
    A_zz = (K + (k * k) * Mm1).astype(complex)
    A_rt = (2j * k) * Mm1 if k else None
    A_tr = (-2j * k) * Mm1 if k else None
    A = sp.bmat(
        [[A_rr, A_rt, None], [A_tr, A_rr, None], [None, None, A_zz]], format="csr"
    )
    return A, divergence_matrix(ops, k)


def velocity_matrix(system):
    """Reduced velocity block of a mode: the block diagonal of the space's L_j."""
    space = system.space
    return sp.block_diag([space.velocity_block(j) for j in system.constraints.j], format="csr")


def constraint_matrix(cons):
    """The constraint map C (3n x n_free) of ``ModeConstraints`` as a sparse matrix.

    Column block c is the unit direction ``dirs[:, c]`` times the columns
    of the identity at the free nodes of component c.
    """
    eye = sp.identity(cons.fix.size // 3, dtype=complex, format="csc")
    return sp.hstack(
        [sp.kron(cons.dirs[:, [c]], eye[:, nodes]) for c, nodes in enumerate(cons.nodes)],
        format="csr",
    )


def mode_energy_product(mesh, k: int, u, v) -> complex:
    """Sesquilinear energy form of mode k between two vector coefficients.

    This is the inner product whose quadratic form is the squared mode
    seminorm: gradients weighted by r plus the 1/r**2 mass terms with the
    radial/angular coupling.  Conjugation falls on ``v``.
    """
    geometry = quadrature_geometry(mesh, _NORM_RULE)
    R, _, W = geometry
    su, sv = (_sample_vector(x, mesh, geometry) for x in (u, v))
    return complex(sampled_energy_product(k, su, sv, R, W))


def mode_divergence_product(mesh, k: int, v, q) -> complex:
    """Mixed form: minus the r-weighted integral of (div_k v) times conj(q)."""
    geometry = quadrature_geometry(mesh, _NORM_RULE)
    R, _, W = geometry
    sv = _sample_vector(v, mesh, geometry)
    qval, _, _ = sample_component(q, mesh, False, geometry)
    return complex(sampled_divergence_product(k, sv, qval, R, W))
