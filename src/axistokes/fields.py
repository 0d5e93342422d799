"""Closed-form Fourier coefficient functions on the meridian domain.

A "mode function" is a complex-valued function of (r, z): any callable
f(r, z) broadcasting over arrays.  Polynomials in r and z (with integer,
possibly negative, powers of r) cover every manufactured solution and
induced datum in the package while keeping differentiation exact, so they
get a small dedicated class; any other callable has values only.

Polynomials are evaluated in batches: ``evaluate_polys`` takes a list of
them at the same points as one product of their coefficient matrix with a
table of the monomials r**a * z**b, and a single ``Poly2`` call is the
batch of one.  The coefficient matrix (``poly_matrix``) can be formed once
and evaluated at many sets of points (``evaluate_poly_matrix``).
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Poly2", "VectorModeFn"]


class Poly2:
    """Polynomial sum(c[a, b] * r**a * z**b) with complex coefficients.

    Negative powers of r are permitted (they arise in induced momentum
    data near the axis); such terms are only ever evaluated at r > 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        for (a, b), c in (coeffs or {}).items():
            c = complex(c)
            if c != 0.0:
                cleaned[(int(a), int(b))] = cleaned.get((int(a), int(b)), 0.0) + c
        self.coeffs = {k: v for k, v in cleaned.items() if v != 0.0}

    @classmethod
    def monomial(cls, a: int, b: int, c=1.0) -> "Poly2":
        return cls({(a, b): c})

    @classmethod
    def zero(cls) -> "Poly2":
        return cls({})

    def __call__(self, r, z):
        return evaluate_polys([self], r, z)[0]

    def d_r(self) -> "Poly2":
        return Poly2({(a - 1, b): a * c for (a, b), c in self.coeffs.items() if a != 0})

    def d_z(self) -> "Poly2":
        return Poly2({(a, b - 1): b * c for (a, b), c in self.coeffs.items() if b != 0})

    def div_r(self, n: int = 1) -> "Poly2":
        """Divide by r**n exactly (shifts every r exponent)."""
        return Poly2({(a - n, b): c for (a, b), c in self.coeffs.items()})

    def laplace_axi(self) -> "Poly2":
        """Axisymmetric Laplacian (1/r) d_r(r d_r .) + d_z^2 applied exactly."""
        dr = self.d_r()
        return dr.d_r() + dr.div_r() + self.d_z().d_z()

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out = {}
            for (a1, b1), c1 in self.coeffs.items():
                for (a2, b2), c2 in other.coeffs.items():
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0.0) + c1 * c2
            return Poly2(out)
        return Poly2({k: complex(other) * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def conj(self) -> "Poly2":
        return Poly2({k: np.conj(c) for k, c in self.coeffs.items()})

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        if not self.coeffs:
            return "Poly2(0)"
        parts = [f"({c:g})*r^{a}*z^{b}" for (a, b), c in sorted(self.coeffs.items())]
        return "Poly2(" + " + ".join(parts) + ")"


def evaluate_polys(polys, r, z) -> np.ndarray:
    """Values of several polynomials at the same points, one row each.

    The result has shape (len(polys),) + broadcast(r, z).shape.  It is
    ``evaluate_poly_matrix`` of ``poly_matrix(polys)``; a caller that
    evaluates the same polynomials at many sets of points forms the matrix
    once and evaluates it for each set.
    """
    return evaluate_poly_matrix(poly_matrix(polys), r, z)


def poly_matrix(polys):
    """The coefficient step of ``evaluate_polys``: (monomials, coefficients).

    The monomials are the sorted union of the polynomials' (a, b) keys,
    and the coefficients the (n_polys x n_monomials) complex matrix of
    the polynomials over them.
    """
    keys = sorted({key for p in polys for key in p.coeffs})
    column = {key: i for i, key in enumerate(keys)}
    coeffs = np.zeros((len(polys), len(keys)), dtype=complex)
    for row, p in enumerate(polys):
        for key, c in p.coeffs.items():
            coeffs[row, column[key]] = c
    return keys, coeffs


def evaluate_poly_matrix(matrix, r, z, out=None) -> np.ndarray:
    """The evaluation step of ``evaluate_polys`` for a ``poly_matrix``.

    One product of the coefficient matrix with the real table of
    r**a * z**b over the monomials, each power of r and z formed once.
    Where a monomial is not finite (a negative power of r at r = 0), each
    polynomial sums only its own terms, so a monomial it lacks never
    enters its value as 0 * inf.  A point's values depend on that point
    alone, so evaluating blocks of the points gives the values of one
    whole evaluation; a block of one point takes NumPy's matrix-vector
    product instead, which may round differently.  ``out``, when given, is
    a C-contiguous complex (n_polys, n_points) array that receives the
    values; the result is then a view of it.
    """
    keys, coeffs = matrix
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast(r, z).shape
    r = np.broadcast_to(r, shape).ravel()
    z = np.broadcast_to(z, shape).ravel()
    table = np.empty((len(keys), r.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_pow = {a: r**a for a in {a for a, _ in keys}}
        z_pow = {b: z**b for b in {b for _, b in keys}}
        for i, (a, b) in enumerate(keys):
            np.multiply(r_pow[a], z_pow[b], out=table[i])
        # Where a monomial is not finite, each polynomial sums only its own
        # terms, and the product below sees zeros there instead.
        bad = ~np.isfinite(table).all(axis=0)
        own = coeffs[:, :, None] * table[:, bad]
        own = np.where(coeffs[:, :, None] != 0, own, 0).sum(axis=1)
        table[:, bad] = 0.0
    # The real and imaginary parts of the coefficients are the two columns
    # of one real product, so the table is never cast to complex and each
    # result row comes out as interleaved complex values.
    parts = np.stack([coeffs.real, coeffs.imag], axis=-1)
    if out is None:
        out = np.empty((len(coeffs), r.size), dtype=complex)
    np.matmul(table.T, parts, out=out.view(float).reshape(out.shape + (2,)))
    out[:, bad] = own
    return out.reshape((len(coeffs),) + shape)


def _as_poly(x) -> Poly2:
    if isinstance(x, Poly2):
        return x
    return Poly2({(0, 0): complex(x)})


@dataclass(frozen=True)
class VectorModeFn:
    """Cylindrical-component Fourier coefficient of a 3D vector field.

    Components are the radial, azimuthal and axial coefficient functions
    u_r^k, u_theta^k, u_z^k on the meridian domain, each a mode function;
    iterating over a vector mode yields them in that order.
    """

    k: int
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 3:
            raise ValueError("a vector mode has exactly three components")
        for c in comps:
            if not callable(c):
                raise TypeError(f"vector mode component {c!r} is not callable")
        object.__setattr__(self, "components", comps)

    def __iter__(self):
        return iter(self.components)

    def conj(self) -> "VectorModeFn":
        """Mode -k of a real field; the components must be ``Poly2``."""
        return VectorModeFn(-self.k, tuple(c.conj() for c in self.components))
