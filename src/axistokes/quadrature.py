"""Interior quadrature rules on triangles and boundary edges.

All triangle rules keep every node strictly inside the element so that
integrands carrying 1/r or 1/r**2 factors are evaluated only at points
with positive radius, even on elements touching the symmetry axis.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureRule", "triangle_rule", "edge_rule"]

# Degree used when assembling stiffness/divergence matrices (exact for the
# polynomial integrands of the Taylor-Hood pair) and the stronger one every
# norm is taken at.
DEFAULT_ASSEMBLY_DEGREE = 5
DEFAULT_NORM_DEGREE = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes in barycentric coordinates with unit-sum weights.

    The rule approximates ``(1/|T|) * integral_T f`` by ``sum(w_i * f(x_i))``,
    i.e. integrating over a physical triangle multiplies by its area.

    Attributes
    ----------
    points : ndarray, shape (n, 3)
        Barycentric coordinates, all strictly positive.
    weights : ndarray, shape (n,)
        Positive weights summing to one.
    A rule is exact to the degree asked of ``triangle_rule``, which does
    not record it (the 7-point rule serves every request up to 5).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if wts.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of points")
        if np.any(pts <= 0.0):
            raise ValueError("quadrature points must be strictly interior")
        if np.any(wts <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to one")
        pts.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


@dataclass(frozen=True)
class EdgeRule:
    """Gauss rule on the unit interval for boundary line integrals."""

    points: np.ndarray
    weights: np.ndarray


def _seven_point_rule() -> QuadratureRule:
    """Classic degree-5 rule: centroid plus two symmetric interior orbits."""
    s15 = np.sqrt(15.0)
    a = (6.0 + s15) / 21.0
    b = (6.0 - s15) / 21.0
    wa = (155.0 + s15) / 1200.0
    wb = (155.0 - s15) / 1200.0
    points = [[1.0 / 3.0] * 3]
    weights = [9.0 / 40.0]
    for c, w in ((a, wa), (b, wb)):
        third = 1.0 - 2.0 * c
        points += [[third, c, c], [c, third, c], [c, c, third]]
        weights += [w, w, w]
    return QuadratureRule(np.array(points), np.array(weights))


def _collapsed_rule(degree: int) -> QuadratureRule:
    """Tensor Gauss rule on the collapsed square, exact to ``degree``.

    The square (u, v) in [0,1]^2 maps to the triangle by x = u,
    y = v (1 - u) with Jacobian (1 - u).  A total-degree-d polynomial pulls
    back to degree d + 1 in u and degree d in v, which fixes the Gauss
    orders below.  All nodes stay strictly interior and weights positive.
    """
    n_u = (degree + 3) // 2
    n_v = (degree + 2) // 2
    xu, wu = np.polynomial.legendre.leggauss(n_u)
    xv, wv = np.polynomial.legendre.leggauss(n_v)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    x = U
    y = V * (1.0 - U)
    w = WU * WV * (1.0 - U)
    lam = np.stack([1.0 - x - y, x, y], axis=-1).reshape(-1, 3)
    # Normalize so weights sum to one (reference triangle area is 1/2).
    weights = (w / 0.5).reshape(-1)
    return QuadratureRule(lam, weights)


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Interior rule exact for polynomials up to ``degree`` on a triangle.

    Cached so equal-degree requests share one rule object.  Assembly uses
    the rule of ``DEFAULT_ASSEMBLY_DEGREE`` alone, and every norm the rule
    of ``DEFAULT_NORM_DEGREE`` alone.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree <= 5:
        return _seven_point_rule()
    return _collapsed_rule(degree)


@lru_cache(maxsize=None)
def edge_rule(degree: int = 7) -> EdgeRule:
    """Gauss-Legendre rule on [0, 1], exact to ``degree`` rounded up to odd."""
    n = max(1, (degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    return EdgeRule(0.5 * (x + 1.0), 0.5 * w)


def quadrature_geometry(mesh, rule: QuadratureRule):
    """Quadrature data of ``rule`` on every triangle of a meridian mesh.

    Returns (R, Z, W): global coordinates and weights, each (nt, nq), with
    W already containing the triangle areas (but not the radial weight).
    """
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    R = np.einsum("qi,ti->tq", rule.points, verts[:, :, 0])
    Z = np.einsum("qi,ti->tq", rule.points, verts[:, :, 1])
    W = mesh.triangle_areas()[:, None] * rule.weights[None, :]
    return R, Z, W
