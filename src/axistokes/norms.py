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
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .fields import VectorModeFn, as_mode_function
from .meshing import MeridianMesh
from .quadrature import DEFAULT_NORM_DEGREE, QuadratureRule, triangle_rule

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

    def sample_on(self, mesh, rule, need_grad=True):
        va, dra, dza = sample_component(self.a, mesh, rule, need_grad)
        vb, drb, dzb = sample_component(self.b, mesh, rule, need_grad)
        if not need_grad:
            return va - vb, None, None
        return va - vb, dra - drb, dza - dzb

_COMPONENTS = ("r", "theta", "z")


def quadrature_geometry(mesh: MeridianMesh, rule: QuadratureRule):
    """Quadrature data on every triangle.

    Returns (R, Z, W): global coordinates and weights, each (nt, nq), with
    W already containing the triangle areas (but not the radial weight).
    """
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    R = np.einsum("qi,ti->tq", rule.points, verts[:, :, 0])
    Z = np.einsum("qi,ti->tq", rule.points, verts[:, :, 1])
    areas = mesh.triangle_areas()
    W = areas[:, None] * rule.weights[None, :]
    return R, Z, W


def sample_component(comp, mesh: MeridianMesh, rule: QuadratureRule, need_grad=True):
    """Evaluate one field component at all quadrature points.

    Accepts any object with a ``sample_on(mesh, rule, need_grad)`` method
    (finite element fields) or a mode function / callable evaluated at the
    quadrature coordinates.  Returns (val, d_r, d_z) arrays of shape
    (nt, nq); the gradients are None when not requested.
    """
    if hasattr(comp, "sample_on"):
        return comp.sample_on(mesh, rule, need_grad)
    fn = as_mode_function(comp)
    R, Z, _ = quadrature_geometry(mesh, rule)
    val = np.asarray(fn.value(R, Z), dtype=complex)
    if not need_grad:
        return val, None, None
    dr = np.asarray(fn.grad_r(R, Z), dtype=complex)
    dz = np.asarray(fn.grad_z(R, Z), dtype=complex)
    return val, dr, dz


def integrate_weighted(mesh, f, weight_exponent: int = 1, rule: QuadratureRule = None):
    """Integral of f(r, z) * r**weight_exponent over the meshed domain."""
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    val, _, _ = sample_component(f, mesh, rule, need_grad=False)
    R, _, W = quadrature_geometry(mesh, rule)
    total = np.sum(W * val * R**weight_exponent)
    return complex(total)


@dataclass(frozen=True)
class ComponentNorms:
    """Squared weighted norms of a single scalar component."""

    l2_1_sq: float
    l2_m1_sq: float
    h1_1_semi_sq: float

    @property
    def v1_1_sq(self) -> float:
        return self.l2_m1_sq + self.h1_1_semi_sq


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
    def v1_1_sq(self) -> float:
        return self.l2_m1_sq + self.h1_1_semi_sq

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


def scalar_mode_norm(mesh, q, k: int, rule: QuadratureRule = None) -> NormReport:
    """Mode norm of a scalar coefficient: L2(r) + H1 seminorm + k^2 L2(1/r).

    The 1/r term is omitted entirely for k = 0 instead of being multiplied
    by zero, so axisymmetric scalars need not lie in the 1/r-weighted space.
    """
    rule = rule or triangle_rule(DEFAULT_NORM_DEGREE)
    val, dr, dz = sample_component(q, mesh, rule)
    R, _, W = quadrature_geometry(mesh, rule)
    asq = (val.real**2 + val.imag**2)
    gsq = dr.real**2 + dr.imag**2 + dz.real**2 + dz.imag**2
    l2_1 = _real_sum(W, asq * R)
    semi = _real_sum(W, gsq * R)
    l2_m1 = _real_sum(W, asq / R)
    h1k = l2_1 + semi + (k * k * l2_m1 if k != 0 else 0.0)
    comp = ComponentNorms(l2_1, l2_m1, semi)
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
    result is real and nonnegative by construction.
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
    R, _, W = quadrature_geometry(mesh, rule)
    vals = []
    per_comp = {}
    l2_1_tot = l2_m1_tot = semi_tot = 0.0
    for name, comp in zip(_COMPONENTS, comps):
        val, dr, dz = sample_component(comp, mesh, rule)
        asq = val.real**2 + val.imag**2
        gsq = dr.real**2 + dr.imag**2 + dz.real**2 + dz.imag**2
        l2_1 = _real_sum(W, asq * R)
        semi = _real_sum(W, gsq * R)
        l2_m1 = _real_sum(W, asq / R)
        per_comp[name] = ComponentNorms(l2_1, l2_m1, semi)
        l2_1_tot += l2_1
        l2_m1_tot += l2_m1
        semi_tot += semi
        vals.append(val)
    v_r, v_t, v_z = vals
    plus = v_r + 1j * v_t
    minus = v_r - 1j * v_t
    p_plus = _real_sum(W, (plus.real**2 + plus.imag**2) / R)
    p_minus = _real_sum(W, (minus.real**2 + minus.imag**2) / R)
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
    uu = [sample_component(c, mesh, rule) for c in _vector_components(u)]
    vv = [sample_component(c, mesh, rule) for c in _vector_components(v)]
    R, _, W = quadrature_geometry(mesh, rule)
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
    vr, vt, vz = [sample_component(c, mesh, rule) for c in _vector_components(v)]
    qval, _, _ = sample_component(q, mesh, rule, need_grad=False)
    R, _, W = quadrature_geometry(mesh, rule)
    div = vr[1] + vr[0] / R + 1j * k * vt[0] / R + vz[2]
    return complex(-np.sum(W * div * np.conj(qval) * R))


def _vector_components(v):
    if isinstance(v, VectorModeFn):
        return v.components
    comps = tuple(v)
    if len(comps) != 3:
        raise ValueError("vector field needs three components")
    return comps
