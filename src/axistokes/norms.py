"""Weighted integrals and per-mode Sobolev norms on meridian meshes.

The Fourier reduction of a 3D axisymmetric problem measures each mode in
radially weighted norms: L2 spaces with weight r or 1/r, the r-weighted H1
seminorm, and the mode-dependent combinations tying the radial and angular
components together through 1/r**2 terms.  Everything here evaluates on
interior quadrature rules so the weights stay finite on elements touching
the axis.

The squared mode norm of a vector coefficient v = (v_r, v_t, v_z) at
wavenumber k is accumulated from the pointwise regrouping

    (1 + k^2)(|v_r|^2 + |v_t|^2) - 4 k Im(v_t conj(v_r))
        = 0.5 (k+1)^2 |v_r + i v_t|^2 + 0.5 (k-1)^2 |v_r - i v_t|^2,

a sum of squares that is real and nonnegative by construction and reduces
to the special one-mode and axisymmetric forms without case splits.

Every norm is taken at one rule, the degree-10 ``triangle_rule`` (the
norm rule), and a field is measured in one of two ways that give the same
sums there.  Finite element fields of one space, such as the solved
modes, are measured as sums of element quadratic forms over the space's
norm-rule matrices (``FemSpace.norm_matrices``), built once per space,
with no samples formed.  Assembly and norms share one engine for these
matrices: at the assembly rule, the same r-weighted stiffness, 1/r mass
and r-weighted pressure mass are the operators K, Mm1 and Mp of every
mode's saddle system.  Every other field (closed forms,
``FieldDifference`` error fields, mixed triples) is sampled at the norm
rule's points, and that path stays the reference the quadratic forms are
tested against.  The sampled sums are array cores
(``sampled_vector_sums``, ``sampled_energy_product``,
``sampled_divergence_product``) that a caller holding samples calls
directly.  They take a leading mode axis, so one call covers many modes,
and each is a sum over the points, so a caller may add them up block by
block of triangles.  Both routes of a vector norm supply the same sums,
and ``sums_report`` turns them into a ``NormReport``.
"""

import io
from dataclasses import dataclass

import numpy as np

from .fem import _NORM_RULE, FemScalarField
from .fields import Poly2, VectorModeFn, evaluate_polys
from .meshing import MeridianMesh
from .quadrature import quadrature_geometry

__all__ = [
    "FieldDifference",
    "NormReport",
    "integrate_weighted",
    "scalar_mode_norm",
    "vector_mode_norm",
    "norm_report_csv",
]


@dataclass(frozen=True, eq=False)
class FieldDifference:
    """Pointwise difference a - b of two fields, measured like any field.

    Lets error norms reuse the norm engine: the difference of a finite
    element field and a closed-form one is sampled as the difference of
    their samples.
    """

    a: object
    b: object


def sample_component(comp, mesh: MeridianMesh, need_grad=True, geometry=None):
    """Evaluate one field component at all points of the norm rule.

    Accepts a ``FieldDifference`` (the difference of its parts' samples),
    any object with a ``sample_on(mesh, need_grad)`` method (finite
    element fields) or a mode function, called at the quadrature
    coordinates; a ``Poly2`` takes one ``evaluate_polys`` call for its
    value and both derivatives.  Other mode functions have values only,
    and asking for their gradients raises TypeError.  ``geometry`` is
    ``quadrature_geometry`` of the mesh at the norm rule when the caller
    has it already.  Returns (val, d_r, d_z) arrays of shape (nt, nq);
    the gradients are None when not requested.
    """
    if isinstance(comp, FieldDifference):
        a = sample_component(comp.a, mesh, need_grad, geometry)
        b = sample_component(comp.b, mesh, need_grad, geometry)
        return tuple(None if x is None else x - y for x, y in zip(a, b))
    if hasattr(comp, "sample_on"):
        return comp.sample_on(mesh, need_grad)
    if need_grad and not isinstance(comp, Poly2):
        raise TypeError(f"{comp!r} has no derivatives to sample")
    R, Z, _ = geometry or quadrature_geometry(mesh, _NORM_RULE)
    if need_grad:
        val, dr, dz = evaluate_polys([comp, comp.d_r(), comp.d_z()], R, Z)
        return val, dr, dz
    return np.asarray(comp(R, Z), dtype=complex), None, None


def integrate_weighted(mesh, f, weight_exponent: int = 1):
    """Integral of f(r, z) * r**weight_exponent over the meshed domain, at the norm rule."""
    geometry = quadrature_geometry(mesh, _NORM_RULE)
    val, _, _ = sample_component(f, mesh, False, geometry)
    R, _, W = geometry
    total = np.sum(W * val * R**weight_exponent)
    return complex(total)


@dataclass(frozen=True)
class NormReport:
    """Squared mode norms of a scalar or vector coefficient at wavenumber k.

    The l2_1, l2_m1 and h1_1_semi sums of a vector report are totals over
    its cylindrical components.  ``h1k_sq`` is the full mode norm,
    ``h1k_semi_sq`` drops the plain L2 part, and ``h1k_star_sq`` is the
    simpler comparison norm (mode-independent grouping, equivalent for
    \\|k\\| >= 2 with constants 1/2 and 3/2).  These are the columns of
    ``norm_report_csv``.
    """

    k: int
    l2_1_sq: float
    l2_m1_sq: float
    h1_1_semi_sq: float
    h1k_sq: float
    h1k_semi_sq: float
    h1k_star_sq: float

    @property
    def l2_1(self) -> float:
        return float(np.sqrt(self.l2_1_sq))

    @property
    def h1k(self) -> float:
        return float(np.sqrt(self.h1k_sq))

    @property
    def h1k_star(self) -> float:
        return float(np.sqrt(self.h1k_star_sq))

    CSV_HEADER = "k, l2_1_sq, l2_m1_sq, h1_1_semi_sq, h1k_sq, h1k_semi_sq, h1k_star_sq"

    def csv_row(self) -> str:
        return (
            f"{self.k}, {self.l2_1_sq!r}, {self.l2_m1_sq!r}, {self.h1_1_semi_sq!r}, "
            f"{self.h1k_sq!r}, {self.h1k_semi_sq!r}, {self.h1k_star_sq!r}"
        )


def norm_report_csv(reports) -> str:
    out = io.StringIO()
    out.write(NormReport.CSV_HEADER + "\n")
    for rep in reports:
        out.write(rep.csv_row() + "\n")
    return out.getvalue()


def _point_sums(W, integrand):
    """Weighted sums of samples over the points, the last two axes (nt, nq)."""
    return np.sum(W * integrand, axis=(-2, -1))


def _abs_sq(x):
    return x.real**2 + x.imag**2


def _component_sums(val, dr, dz, R, W) -> np.ndarray:
    """The squared weighted norms of one component's samples, on any leading axes.

    Returns shape (..., 3): the l2_1, l2_m1 and h1_1_semi sums.
    """
    asq = _abs_sq(val)
    gsq = dr.real**2 + dr.imag**2 + dz.real**2 + dz.imag**2
    sums = (_point_sums(W, asq * R), _point_sums(W, asq / R), _point_sums(W, gsq * R))
    return np.stack(sums, axis=-1)


def _components(x):
    """The three cylindrical components of samples of shape (..., 3, nt, nq)."""
    return np.moveaxis(np.asarray(x), -3, 0)


def _in_one_fem_space(mesh, comps) -> bool:
    """Whether ``comps`` are finite element fields of one space and kind.

    Raises when they are but do not live on ``mesh``.
    """
    first = comps[0]
    if not all(
        isinstance(c, FemScalarField) and c.space is first.space and c.kind == first.kind
        for c in comps
    ):
        return False
    if first.space.mesh.mesh_id != mesh.mesh_id:
        raise ValueError("field measured on a mesh it does not live on")
    return True


def _quadratic_forms(M: np.ndarray, locs: np.ndarray) -> list:
    """sum_t conj(loc_t) M_t loc_t for each column of ``locs`` (nt, n, m).

    M_t is real symmetric, so each form is the real form of the real part
    plus that of the imaginary part.  The forms are nonnegative; a sum
    that rounds below zero is reported as 0.0, as sampling would give.
    """
    x = np.concatenate([locs.real, locs.imag], axis=2)
    sums = np.einsum("tam,tam->m", x, M @ x)
    m = locs.shape[2]
    return np.maximum(sums[:m] + sums[m:], 0.0).tolist()


def _fem_norm_sums(fields, couple: bool = False):
    """The sums of ``sampled_vector_sums`` for finite element fields.

    Returns (rows, coupling): rows[c] holds the l2_1, l2_m1 and h1_1_semi
    sums of fields[c] as element quadratic forms, and with ``couple``
    coupling holds the 1/r sums of fields[0] +- i fields[1] (else it is
    empty).  They equal the sums of sampling each field at the norm rule
    up to round-off.
    """
    space, kind = fields[0].space, fields[0].kind
    mats = space.norm_matrices(kind)
    cells = space.dof_map if kind == "p2" else space.mesh.triangles
    locs = np.stack([f.dofs[cells] for f in fields], axis=2)
    l2_1 = _quadratic_forms(mats.mass_r, locs)
    # The gradient form annihilates constants.  Taking each element's
    # coefficients relative to its first one keeps the form from summing
    # O(1) products of values down to O(h**2) gradient terms.
    semi = _quadratic_forms(mats.stiff_r, locs - locs[:, :1])
    if couple:
        r, t = locs[:, :, 0], locs[:, :, 1]
        locs = np.concatenate([locs, np.stack([r + 1j * t, r - 1j * t], axis=2)], axis=2)
    l2_m1 = _quadratic_forms(mats.mass_inv_r, locs)
    n = len(fields)
    return list(zip(l2_1, l2_m1[:n], semi)), l2_m1[n:]


def scalar_mode_norm(mesh, q, k: int) -> NormReport:
    """Mode norm of a scalar coefficient: L2(r) + H1 seminorm + k^2 L2(1/r).

    The 1/r term is omitted entirely for k = 0 instead of being multiplied
    by zero, so axisymmetric scalars need not lie in the 1/r-weighted space.
    A finite element field is measured by element quadratic forms, any
    other field by sampling.
    """
    if _in_one_fem_space(mesh, (q,)):
        ((l2_1, l2_m1, semi),), _ = _fem_norm_sums((q,))
    else:
        geometry = quadrature_geometry(mesh, _NORM_RULE)
        R, _, W = geometry
        sums = _component_sums(*sample_component(q, mesh, True, geometry), R, W)
        l2_1, l2_m1, semi = sums.tolist()
    h1k = l2_1 + semi + (k * k * l2_m1 if k != 0 else 0.0)
    return NormReport(
        k=k,
        l2_1_sq=l2_1,
        l2_m1_sq=l2_m1,
        h1_1_semi_sq=semi,
        h1k_sq=h1k,
        h1k_semi_sq=h1k - l2_1,
        h1k_star_sq=h1k,
    )


def sampled_vector_sums(val, dr, dz, R, W):
    """The sums behind the mode norms of vector coefficients, from samples.

    ``val``, ``dr`` and ``dz`` hold the values and r, z derivatives of the
    components (r, theta, z), shape (..., 3, nt, nq) with any leading mode
    axes, at the quadrature points with coordinates R and weights W of
    ``quadrature_geometry``.  Returns (comp, coupling): comp[..., c, :] the
    l2_1, l2_m1 and h1_1_semi sums of component c, coupling[..., :] the 1/r
    sums of v_r + i v_t and v_r - i v_t.  Each is a sum over the points, so
    the sums of disjoint blocks of points add up to those of their union.
    """
    val, dr, dz = (np.asarray(x) for x in (val, dr, dz))
    vr, vt, _ = _components(val)
    plus, minus = vr + 1j * vt, vr - 1j * vt
    coupling = (_point_sums(W, _abs_sq(plus) / R), _point_sums(W, _abs_sq(minus) / R))
    return _component_sums(val, dr, dz, R, W), np.stack(coupling, axis=-1)


def sums_report(k: int, comp, coupling) -> NormReport:
    """NormReport of one vector mode from its ``sampled_vector_sums``.

    ``comp`` holds the l2_1, l2_m1 and h1_1_semi sums of the components
    (r, theta, z), ``coupling`` the 1/r sums of v_r + i v_t and
    v_r - i v_t.  The totals are summed in the order r, theta, z.
    """
    rows = np.asarray(comp).tolist()
    l2_1_tot, l2_m1_tot, semi_tot = (sum(col) for col in zip(*rows))
    p_plus, p_minus = np.asarray(coupling).tolist()
    z_m1 = rows[2][1]
    mixed = 0.5 * (k + 1) ** 2 * p_plus + 0.5 * (k - 1) ** 2 * p_minus + k * k * z_m1
    h1k_semi = semi_tot + mixed
    h1k = h1k_semi + l2_1_tot
    star_semi = semi_tot + k * k * l2_m1_tot
    return NormReport(
        k=k,
        l2_1_sq=l2_1_tot,
        l2_m1_sq=l2_m1_tot,
        h1_1_semi_sq=semi_tot,
        h1k_sq=h1k,
        h1k_semi_sq=h1k_semi,
        h1k_star_sq=star_semi + l2_1_tot,
    )


def vector_mode_norm(mesh, v, k: int = None) -> NormReport:
    """Mode norm of a vector coefficient at its wavenumber.

    ``v`` is a VectorModeFn or any triple of component fields (then ``k``
    must be passed).  All quadratic terms are accumulated from squares and
    the sum-of-squares regrouping of the radial/angular coupling, so the
    result is real and nonnegative by construction.  Three finite element
    fields of one space are measured by element quadratic forms, any
    other triple by sampling; both supply the same sums.
    """
    if k is None:
        if not isinstance(v, VectorModeFn):
            raise ValueError("pass k when the vector is a bare component triple")
        k = v.k
    comps = tuple(v)
    if len(comps) != 3:
        raise ValueError("vector mode needs three components (r, theta, z)")
    if _in_one_fem_space(mesh, comps):
        return sums_report(k, *_fem_norm_sums(comps, couple=True))
    geometry = quadrature_geometry(mesh, _NORM_RULE)
    R, _, W = geometry
    return sums_report(k, *sampled_vector_sums(*_sample_vector(comps, mesh, geometry), R, W))


def sampled_energy_product(k, u, v, R, W):
    """Sesquilinear energy form of mode k between samples ``u``, ``v``.

    This is the inner product whose quadratic form is the squared mode
    seminorm: gradients weighted by r plus the 1/r**2 mass terms with the
    radial/angular coupling, with conjugation on ``v``.  ``u`` and ``v``
    are each (val, dr, dz), each sample array of shape (..., 3, nt, nq) as
    in ``sampled_vector_sums``; a leading mode axis takes ``k`` as an
    array of wavenumbers and gives one product per mode.
    """
    (uval, udr, udz), (vval, vdr, vdz) = (tuple(np.asarray(x) for x in s) for s in (u, v))
    grad = (udr * np.conj(vdr) + udz * np.conj(vdz)).sum(axis=-3)
    ur, ut, uz = _components(uval)
    vr, vt, vz = _components(vval)
    k = np.asarray(k)[..., None, None]
    mass = (
        (1 + k * k) * (ur * np.conj(vr) + ut * np.conj(vt))
        + k * k * uz * np.conj(vz)
        + 2j * k * (ut * np.conj(vr) - ur * np.conj(vt))
    )
    return _point_sums(W, grad * R + mass / R)


def sampled_divergence_product(k, v, qval, R, W):
    """Mixed form of mode k: minus the r-weighted sum of (div_k v) conj(q).

    ``v`` is (val, dr, dz), each of shape (..., 3, nt, nq), and ``qval``
    the values of q, of shape (..., nt, nq); a leading mode axis takes
    ``k`` as an array, as in ``sampled_energy_product``.
    """
    (vr, vt, _), (vr_r, _, _), (_, _, vz_z) = (_components(x) for x in v)
    k = np.asarray(k)[..., None, None]
    div = vr_r + vr / R + 1j * k * vt / R + vz_z
    return -_point_sums(W, div * np.conj(qval) * R)


def _sample_vector(v, mesh, geometry):
    """(val, dr, dz) of a vector field, each a tuple over its three components."""
    comps = tuple(v)
    if len(comps) != 3:
        raise ValueError("vector field needs three components")
    return tuple(zip(*(sample_component(c, mesh, True, geometry) for c in comps)))
