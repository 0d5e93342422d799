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

A field is measured in one of two ways that give the same sums at the
same rule (the degree-10 ``triangle_rule`` by default).  Finite element
fields of one space, such as the solved modes, are measured as sums of
element quadratic forms over the space's cached norm-rule matrices
(``FemSpace.norm_matrices``), with no samples formed.  Every other field
(closed forms, ``FieldDifference`` error fields, stored samples, mixed
triples) is sampled at the rule points, and that path stays the
reference the quadratic forms are tested against.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .fem import FemScalarField
from .fields import Poly2, VectorModeFn, as_mode_function, evaluate_polys
from .meshing import MeridianMesh
from .quadrature import (
    DEFAULT_NORM_DEGREE,
    QuadratureRule,
    quadrature_geometry,
    triangle_rule,
)

__all__ = [
    "FieldDifference",
    "NormReport",
    "integrate_weighted",
    "scalar_mode_norm",
    "vector_mode_norm",
    "mode_energy_product",
    "mode_divergence_product",
    "norm_report_csv",
    "quadrature_geometry",
    "sample_component",
]


class FieldDifference:
    """Pointwise difference of two samplable fields, itself samplable.

    Lets error norms reuse the norm engine: the difference of a finite
    element field and a closed-form one is just another field.
    """

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def sample_on(self, mesh, rule, need_grad=True, geometry=None):
        va, dra, dza = sample_component(self.a, mesh, rule, need_grad, geometry)
        vb, drb, dzb = sample_component(self.b, mesh, rule, need_grad, geometry)
        if not need_grad:
            return va - vb, None, None
        return va - vb, dra - drb, dza - dzb

_COMPONENTS = ("r", "theta", "z")


def sample_component(
    comp, mesh: MeridianMesh, rule: QuadratureRule, need_grad=True, geometry=None
):
    """Evaluate one field component at all quadrature points.

    Accepts any object with a ``sample_on(mesh, rule, need_grad)`` method
    (finite element fields) or a mode function / callable evaluated at the
    quadrature coordinates; a ``Poly2`` takes one ``evaluate_polys`` call
    for its value and both derivatives.  ``geometry`` is
    ``quadrature_geometry(mesh, rule)`` when the caller has it already.
    Returns (val, d_r, d_z) arrays of shape (nt, nq); the gradients are
    None when not requested.
    """
    if isinstance(comp, FieldDifference):
        return comp.sample_on(mesh, rule, need_grad, geometry)
    if hasattr(comp, "sample_on"):
        return comp.sample_on(mesh, rule, need_grad)
    R, Z, _ = geometry or quadrature_geometry(mesh, rule)
    if isinstance(comp, Poly2):
        if not need_grad:
            return comp(R, Z), None, None
        val, dr, dz = evaluate_polys([comp, comp.d_r(), comp.d_z()], R, Z)
        return val, dr, dz
    fn = as_mode_function(comp)
    val = np.asarray(fn.value(R, Z), dtype=complex)
    if not need_grad:
        return val, None, None
    dr = np.asarray(fn.grad_r(R, Z), dtype=complex)
    dz = np.asarray(fn.grad_z(R, Z), dtype=complex)
    return val, dr, dz


def integrate_weighted(mesh, f, weight_exponent: int = 1, rule: QuadratureRule = None):
    """Integral of f(r, z) * r**weight_exponent over the meshed domain."""
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    geometry = quadrature_geometry(mesh, rule)
    val, _, _ = sample_component(f, mesh, rule, False, geometry)
    R, _, W = geometry
    total = np.sum(W * val * R**weight_exponent)
    return complex(total)


@dataclass(frozen=True)
class ComponentNorms:
    """Squared weighted norms of a single scalar component."""

    l2_1_sq: float
    l2_m1_sq: float
    h1_1_semi_sq: float


@dataclass(frozen=True)
class NormReport:
    """Squared mode norms of a scalar or vector coefficient at wavenumber k.

    Scalar reports fill the single component slot ``scalar``; vector
    reports carry one entry per cylindrical component.  ``h1k_sq`` is the
    full mode norm, ``h1k_semi_sq`` drops the plain L2 part, and
    ``h1k_star_sq`` is the simpler comparison norm (mode-independent
    grouping, equivalent for \\|k\\| >= 2 with constants 1/2 and 3/2).
    """

    k: int
    l2_1_sq: float
    l2_m1_sq: float
    h1_1_semi_sq: float
    h1k_sq: float
    h1k_semi_sq: float
    h1k_star_sq: float
    components: dict = field(default_factory=dict)

    @property
    def l2_1(self) -> float:
        return float(np.sqrt(self.l2_1_sq))

    @property
    def h1k(self) -> float:
        return float(np.sqrt(self.h1k_sq))

    @property
    def h1k_semi(self) -> float:
        return float(np.sqrt(self.h1k_semi_sq))

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


def _real_sum(W, integrand) -> float:
    return float(np.sum(W * integrand))


def _sampled_sums(val, dr, dz, R, W) -> ComponentNorms:
    asq = val.real**2 + val.imag**2
    gsq = dr.real**2 + dr.imag**2 + dz.real**2 + dz.imag**2
    return ComponentNorms(
        l2_1_sq=_real_sum(W, asq * R),
        l2_m1_sq=_real_sum(W, asq / R),
        h1_1_semi_sq=_real_sum(W, gsq * R),
    )


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


def _fem_norm_sums(fields, rule: QuadratureRule, couple: bool = False):
    """ComponentNorms of finite element fields as element quadratic forms.

    The sums equal those of sampling each field at ``rule`` up to
    round-off.  With ``couple`` the 1/r sums of fields[0] +- i fields[1]
    are returned as well (else an empty list).
    """
    space, kind = fields[0].space, fields[0].kind
    mats = space.norm_matrices(rule, kind)
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
    comps = [ComponentNorms(*sums) for sums in zip(l2_1, l2_m1[:n], semi)]
    return comps, l2_m1[n:]


def scalar_mode_norm(mesh, q, k: int, rule: QuadratureRule = None) -> NormReport:
    """Mode norm of a scalar coefficient: L2(r) + H1 seminorm + k^2 L2(1/r).

    The 1/r term is omitted entirely for k = 0 instead of being multiplied
    by zero, so axisymmetric scalars need not lie in the 1/r-weighted space.
    A finite element field is measured by element quadratic forms, any
    other field by sampling.
    """
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    if _in_one_fem_space(mesh, (q,)):
        (comp,), _ = _fem_norm_sums((q,), rule)
    else:
        geometry = quadrature_geometry(mesh, rule)
        R, _, W = geometry
        comp = _sampled_sums(*sample_component(q, mesh, rule, True, geometry), R, W)
    l2_1, l2_m1, semi = comp.l2_1_sq, comp.l2_m1_sq, comp.h1_1_semi_sq
    h1k = l2_1 + semi + (k * k * l2_m1 if k != 0 else 0.0)
    return NormReport(
        k=k,
        l2_1_sq=l2_1,
        l2_m1_sq=l2_m1,
        h1_1_semi_sq=semi,
        h1k_sq=h1k,
        h1k_semi_sq=h1k - l2_1,
        h1k_star_sq=h1k,
        components={"scalar": comp},
    )


def vector_mode_norm(mesh, v, rule: QuadratureRule = None, k: int = None) -> NormReport:
    """Mode norm of a vector coefficient at its wavenumber.

    ``v`` is a VectorModeFn or any triple of component fields (then ``k``
    must be passed).  All quadratic terms are accumulated from squares and
    the sum-of-squares regrouping of the radial/angular coupling, so the
    result is real and nonnegative by construction.  Three finite element
    fields of one space are measured by element quadratic forms, any
    other triple by sampling; both supply the same sums.
    """
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    if isinstance(v, VectorModeFn):
        comps = v.components
        k = v.k if k is None else k
    else:
        comps = tuple(v)
        if k is None:
            raise ValueError("pass k when the vector is a bare component triple")
    if len(comps) != 3:
        raise ValueError("vector mode needs three components (r, theta, z)")
    if _in_one_fem_space(mesh, comps):
        sums, (p_plus, p_minus) = _fem_norm_sums(comps, rule, couple=True)
        per_comp = dict(zip(_COMPONENTS, sums))
    else:
        geometry = quadrature_geometry(mesh, rule)
        R, _, W = geometry
        per_comp = {}
        vals = []
        for name, comp in zip(_COMPONENTS, comps):
            val, dr, dz = sample_component(comp, mesh, rule, True, geometry)
            per_comp[name] = _sampled_sums(val, dr, dz, R, W)
            vals.append(val)
        plus = vals[0] + 1j * vals[1]
        minus = vals[0] - 1j * vals[1]
        p_plus = _real_sum(W, (plus.real**2 + plus.imag**2) / R)
        p_minus = _real_sum(W, (minus.real**2 + minus.imag**2) / R)
    l2_1_tot = l2_m1_tot = semi_tot = 0.0
    for comp in per_comp.values():
        l2_1_tot += comp.l2_1_sq
        l2_m1_tot += comp.l2_m1_sq
        semi_tot += comp.h1_1_semi_sq
    z_m1 = per_comp["z"].l2_m1_sq
    coupling = 0.5 * (k + 1) ** 2 * p_plus + 0.5 * (k - 1) ** 2 * p_minus + k * k * z_m1
    h1k_semi = semi_tot + coupling
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
        components=per_comp,
    )


def mode_energy_product(mesh, k: int, u, v, rule: QuadratureRule = None) -> complex:
    """Sesquilinear energy form of mode k between two vector coefficients.

    This is the inner product whose quadratic form is the squared mode
    seminorm: gradients weighted by r plus the 1/r**2 mass terms with the
    radial/angular coupling.  Conjugation falls on ``v``.
    """
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    geometry = quadrature_geometry(mesh, rule)
    R, _, W = geometry
    uu = [sample_component(c, mesh, rule, True, geometry) for c in _vector_components(u)]
    vv = [sample_component(c, mesh, rule, True, geometry) for c in _vector_components(v)]
    grad = sum(
        (du[1] * np.conj(dv[1]) + du[2] * np.conj(dv[2])) for du, dv in zip(uu, vv)
    )
    ur, ut, uz = (s[0] for s in uu)
    vr, vt, vz = (s[0] for s in vv)
    mass = (
        (1 + k * k) * (ur * np.conj(vr) + ut * np.conj(vt))
        + k * k * uz * np.conj(vz)
        + 2j * k * (ut * np.conj(vr) - ur * np.conj(vt))
    )
    return complex(np.sum(W * (grad * R + mass / R)))


def mode_divergence_product(mesh, k: int, v, q, rule: QuadratureRule = None) -> complex:
    """Mixed form: minus the r-weighted integral of (div_k v) times conj(q)."""
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    geometry = quadrature_geometry(mesh, rule)
    R, _, W = geometry
    vr, vt, vz = [
        sample_component(c, mesh, rule, True, geometry) for c in _vector_components(v)
    ]
    qval, _, _ = sample_component(q, mesh, rule, False, geometry)
    div = vr[1] + vr[0] / R + 1j * k * vt[0] / R + vz[2]
    return complex(-np.sum(W * div * np.conj(qval) * R))


def _vector_components(v):
    if isinstance(v, VectorModeFn):
        return v.components
    comps = tuple(v)
    if len(comps) != 3:
        raise ValueError("vector field needs three components")
    return comps
