"""Manufactured solutions, convergence and truncation studies, 3D cross-checks.

Everything here closes a loop: manufactured cases turn exact polynomial
fields into body forces through the strong per-mode operator, convergence
studies measure discretization error against those fields, the isometry
suite compares weighted meridian quantities against honest 3D integrals
evaluated by tensor quadrature, and truncation studies compare mode-sum
tails against their analytic decay.

The polynomial calculus is exact: body forces and divergences are
computed coefficient-wise, including the negative radial powers the
operator introduces, so a manufactured case that claims to be
divergence-free is checked symbolically, not at sample points.
"""

from dataclasses import dataclass

import numpy as np

from .fields import Poly2, VectorModeFn, evaluate_poly_matrix, poly_matrix
from .fem import _NORM_RULE, FemSpace, assemble
from .fourier import angular_grid, fourier_coefficient, reconstruct
from .meshing import MeridianMesh, generate_structured
from .norms import (
    FieldDifference,
    integrate_weighted,
    sampled_divergence_product,
    sampled_energy_product,
    sampled_vector_sums,
    scalar_mode_norm,
    sums_report,
    vector_mode_norm,
)
from .quadrature import quadrature_geometry
from .solver import solve_mode

__all__ = [
    "CheckResult",
    "DecayFamily",
    "ManufacturedCase",
    "builtin_cases",
    "convergence_study",
    "isometry_suite",
    "stability_study",
    "strong_divergence",
    "strong_force",
    "truncation_study",
]

_R = Poly2.monomial(1, 0)
_Z = Poly2.monomial(0, 1)
_ONE = Poly2.monomial(0, 0)
_ZERO = Poly2.zero()

# The bounds of the isometry suite: the 3D integrals against the mode sums,
# the polarization identity, and the conjugation symmetry of real samples.
_TOL_ISO = 1e-8
_TOL_POLAR = 1e-12
_TOL_CONJ = 1e-10

# The isometry suite's random fields: _ISO_N_FIELDS families of the modes
# |k| <= _ISO_K_MAX drawn from seed _ISO_SEED, each component a polynomial
# of degree _RANDOM_DEGREE times a power of r.
_ISO_K_MAX = 5
_ISO_N_FIELDS = 10
_ISO_SEED = 0
_RANDOM_DEGREE = 2

# truncation_study doubles its analytic cutoff until the largest tail
# changes by less than this fraction.
_TAIL_REL_CHANGE = 0.001


def mode_gradient(k: int, p: Poly2):
    """Pressure gradient of mode k: (d_r p, i k p / r, d_z p)."""
    return (p.d_r(), (1j * k) * p.div_r(1), p.d_z())


def strong_divergence(k: int, u) -> Poly2:
    """div_k u as an exact polynomial (with possible 1/r powers)."""
    ur, ut, uz = u
    return ur.d_r() + ur.div_r(1) + (1j * k) * ut.div_r(1) + uz.d_z()


def strong_force(k: int, u, p: Poly2):
    """Body force of mode k produced by exact fields (u, p).

    Applies the strong operator coefficient-wise: vector Laplacian parts,
    the 1/r**2 mass coupling, and the mode pressure gradient.
    """
    ur, ut, uz = u
    gp = mode_gradient(k, p)
    kk = k * k
    f_r = -ur.laplace_axi() + ((1 + kk) * ur + (2j * k) * ut).div_r(2) + gp[0]
    f_t = -ut.laplace_axi() + ((1 + kk) * ut + (-2j * k) * ur).div_r(2) + gp[1]
    f_z = -uz.laplace_axi() + (kk * uz).div_r(2) + gp[2]
    return VectorModeFn(k, (f_r, f_t, f_z))


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact per-mode solution with its induced body force.

    ``g_div`` is the exact mode divergence (None means divergence-free,
    verified coefficient-wise at construction).
    """

    name: str
    k: int
    u: VectorModeFn
    p: Poly2
    f: VectorModeFn
    g_div: Poly2 = None

    @classmethod
    def from_fields(cls, name, k, u, p, g_div=None):
        if not isinstance(u, VectorModeFn):
            u = VectorModeFn(k, tuple(u))
        f = strong_force(k, u, p)
        div = strong_divergence(k, u)
        target = g_div if g_div is not None else _ZERO
        defect = (div - target).max_abs_coeff()
        if defect > 1e-12:
            raise ValueError(
                f"case {name}: declared divergence is off by {defect:.3e}"
            )
        return cls(name=name, k=k, u=u, p=p, f=f, g_div=g_div)

    def pressure_offset(self, mesh: MeridianMesh) -> float:
        """Weighted mean of the exact pressure over the meshed domain.

        The axisymmetric solve pins the weighted mean of the discrete
        pressure to zero, so comparisons subtract this constant; other
        modes determine the pressure completely and the offset is zero.
        """
        if self.k != 0:
            return 0.0
        num = integrate_weighted(mesh, self.p, 1).real
        den = integrate_weighted(mesh, _ONE, 1).real
        return num / den

    def errors(self, solution) -> tuple:
        """(velocity error, pressure error) of a solve of this case.

        The velocity error is in the full mode norm, the pressure error in
        the r-weighted L2 norm after subtracting ``pressure_offset``.
        """
        mesh = solution.space.mesh
        diffs = tuple(
            FieldDifference(field, exact)
            for field, exact in zip(solution.velocity_fields(), self.u.components)
        )
        err_u = vector_mode_norm(mesh, diffs, k=self.k).h1k
        p_exact = self.p - self.pressure_offset(mesh)
        diff_p = FieldDifference(solution.pressure_field(), p_exact)
        return err_u, scalar_mode_norm(mesh, diff_p, 0).l2_1


def builtin_cases() -> dict:
    """Named manufactured cases used by tests, studies, and the CLI."""
    cases = {}

    def add(case):
        cases[case.name] = case

    # Quadratic axisymmetric swirl flow, reproduced exactly.
    add(
        ManufacturedCase.from_fields(
            "k0_exact",
            0,
            (_R * _Z, _R, Poly2({(0, 2): -1.0})),
            Poly2({(0, 1): 1.0, (0, 0): -0.5}),
        )
    )
    # Rigid transverse translation, nonzero on the axis.
    add(
        ManufacturedCase.from_fields(
            "k1_exact",
            1,
            (2 * _ONE, 2j * _ONE, _ZERO),
            _R,
        )
    )
    # Quadratic mode-2 field, reproduced exactly.
    add(
        ManufacturedCase.from_fields(
            "k2_exact",
            2,
            (_R * _R, 1.5j * (_R * _R), _ZERO),
            _R,
        )
    )
    # Quartic axisymmetric flow from a stream function.
    add(
        ManufacturedCase.from_fields(
            "k0_convergence",
            0,
            (
                Poly2({(3, 1): -2.0}),
                _R * Poly2({(0, 3): 1.0}),
                Poly2({(2, 2): 4.0}),
            ),
            Poly2({(2, 1): 1.0, (0, 0): -0.25}),
        )
    )
    # Quartic mode-1 flow with compatible axis behavior.
    add(
        ManufacturedCase.from_fields(
            "k1_convergence",
            1,
            (
                Poly2({(2, 1): 1.0, (1, 3): 1.0}),
                Poly2({(2, 1): 1j, (1, 3): 2j, (2, 0): 1j}),
                Poly2({(1, 1): 1.0, (1, 2): -1.0}),
            ),
            Poly2({(2, 1): 1.0}),
        )
    )
    # Quartic mode-3 flow vanishing on the axis.
    add(
        ManufacturedCase.from_fields(
            "k3_convergence",
            3,
            (
                Poly2({(2, 2): 1.0}),
                Poly2({(2, 2): 1j, (3, 0): 1j / 3, (3, 1): -2j / 3}),
                Poly2({(2, 1): 1.0, (2, 2): -1.0}),
            ),
            Poly2({(1, 2): 1.0}),
        )
    )
    # Cubic divergence-free mode-2 pair.
    add(
        ManufacturedCase.from_fields(
            "k2_divfree",
            2,
            (Poly2({(3, 1): 1.0}), Poly2({(3, 1): 2j}), _ZERO),
            _ZERO,
        )
    )
    return cases


@dataclass
class ConvergenceStudy:
    """Error table of a manufactured case over a mesh family."""

    hs: list
    err_u: list
    err_p: list

    CSV_HEADER = "h, err_u, rate_u, err_p, rate_p"

    def rates(self, errs):
        out = [float("nan")]
        for i in range(1, len(errs)):
            out.append(float(np.log2(errs[i - 1] / errs[i])))
        return out

    @property
    def rate_u(self) -> float:
        return self.rates(self.err_u)[-1]

    @property
    def rate_p(self) -> float:
        return self.rates(self.err_p)[-1]

    def csv(self) -> str:
        ru, rp = self.rates(self.err_u), self.rates(self.err_p)
        lines = [self.CSV_HEADER]
        for i, h in enumerate(self.hs):
            ru_s = "" if np.isnan(ru[i]) else repr(ru[i])
            rp_s = "" if np.isnan(rp[i]) else repr(rp[i])
            lines.append(f"{h!r}, {self.err_u[i]!r}, {ru_s}, {self.err_p[i]!r}, {rp_s}")
        return "\n".join(lines) + "\n"


def convergence_study(
    case: ManufacturedCase, hs=(1 / 8, 1 / 16, 1 / 32)
) -> ConvergenceStudy:
    """Solve a manufactured case on unit-square meshes and tabulate errors.

    The errors are those of ``ManufacturedCase.errors``.
    """
    err_u, err_p = [], []
    for h in hs:
        mesh = generate_structured((1.0, 1.0), h)
        space = FemSpace(mesh)
        system = assemble(space, case.k, g=case.u)
        sol = solve_mode(system, f=case.f, g_div=case.g_div)
        eu, ep = case.errors(sol)
        err_u.append(eu)
        err_p.append(ep)
    return ConvergenceStudy(hs=list(hs), err_u=err_u, err_p=err_p)


@dataclass(frozen=True)
class DecayFamily:
    """Mode family whose norms decay like (1 + |k|)**-(s+1).

    Models a field with anisotropic smoothness index s: the squared tail
    beyond N then decays like N**-(2s+1), so tail(N) * N**s is bounded
    above, as the truncation estimate tail(N) <= C N**-s ||u||_s requires,
    and falls like N**-(1/2).  Because of the (1 + |k|) offset the tail
    behaves like (N + 3/2)**-(s + 1/2), so halving slopes approach
    -(s + 1/2) from above with an O(1/N) gap.
    """

    s: float

    def amplitude(self, k):
        """(1 + |k|)**-(s+1) of a wavenumber or an integer array of them."""
        return (1.0 + np.abs(k)) ** (-(self.s + 1.0))


@dataclass
class TruncationStudy:
    """Tail magnitudes of a decaying mode family at increasing truncations."""

    s: float
    ns: list
    tails: list
    k_max: int
    solved: bool = False

    CSV_HEADER = "N, tail, bound_ratio"

    @property
    def bound_ratios(self):
        return [t * n**self.s for n, t in zip(self.ns, self.tails)]

    def slopes(self):
        out = [float("nan")]
        for i in range(1, len(self.ns)):
            ratio = self.tails[i] / self.tails[i - 1]
            step = np.log2(self.ns[i] / self.ns[i - 1])
            out.append(float(np.log2(ratio) / step))
        return out

    @property
    def one_sided_ratio(self) -> float:
        """max_N tail(N) N^s over its value at the smallest N.

        The truncation estimate bounds tail(N) N^s from above only, so for
        data of regularity s this ratio stays near 1 while tail(N) N^s may
        fall.
        """
        ratios = self.bound_ratios
        return max(ratios) / ratios[0]

    @property
    def extrapolated_slope(self) -> float:
        """Decay rate 2 slope_last - slope_prev, nan below three orders.

        Halving slopes trail the limiting rate -(s + 1/2) by O(1/N); one
        Richardson step removes that term.
        """
        slopes = self.slopes()
        if len(slopes) < 3:
            return float("nan")
        return 2.0 * slopes[-1] - slopes[-2]

    def csv(self) -> str:
        lines = [self.CSV_HEADER]
        for n, t, b in zip(self.ns, self.tails, self.bound_ratios):
            lines.append(f"{n}, {t!r}, {b!r}")
        return "\n".join(lines) + "\n"


def _solved_norms(family: DecayFamily, k_max: int, h: float):
    """Per-mode norms realized by actual solves with decaying data."""
    mesh = generate_structured((1.0, 1.0), h)
    space = FemSpace(mesh)
    base = VectorModeFn(0, (_R * _Z, _R * _Z, _R))
    u_norms = np.empty(k_max + 1)
    p_norms = np.empty(k_max + 1)
    for k in range(k_max + 1):
        f = VectorModeFn(
            k, tuple(family.amplitude(k) * c for c in base.components)
        )
        system = assemble(space, k)
        sol = solve_mode(system, f=f)
        u_norms[k] = vector_mode_norm(
            mesh, sol.velocity_fields(), k=k
        ).h1k
        p_norms[k] = scalar_mode_norm(mesh, sol.pressure_field(), k).l2_1
    return u_norms, p_norms


def _tail_sq(sq, n: int) -> float:
    """Squared tail over |k| > n of the squared mode norms sq[k], k >= 0."""
    return 2.0 * np.sum(sq[n + 1 :])


def truncation_study(
    family: DecayFamily,
    ns=(2, 4, 8, 16, 32),
    *,
    with_solves: bool = False,
    h: float = 0.25,
) -> TruncationStudy:
    """Tails of the mode family beyond each truncation order.

    tail(N)**2 sums the squared velocity and pressure mode norms over
    |k| > N.  The cutoff starts at four times the largest N and doubles
    until the largest tail changes by less than ``_TAIL_REL_CHANGE``; solved
    norms use the fixed starting cutoff for tractability.
    """
    ns = sorted(ns)
    n_max = ns[-1]
    k_max = 4 * n_max
    if with_solves:
        u_norms, p_norms = _solved_norms(family, k_max, h)
        sq = u_norms**2 + p_norms**2
    else:
        def squares(cutoff):
            # The velocity and the pressure norm of mode k are both amplitude(k).
            return 2.0 * family.amplitude(np.arange(cutoff + 1)) ** 2

        sq = squares(k_max)
        tail_sq = _tail_sq(sq, n_max)
        while True:
            bigger = squares(2 * k_max)
            bigger_tail_sq = _tail_sq(bigger, n_max)
            if bigger_tail_sq - tail_sq <= _TAIL_REL_CHANGE * tail_sq:
                break
            k_max, sq, tail_sq = 2 * k_max, bigger, bigger_tail_sq
    tails = [float(np.sqrt(_tail_sq(sq, n))) for n in ns]
    return TruncationStudy(
        s=family.s, ns=list(ns), tails=tails, k_max=k_max, solved=with_solves
    )


@dataclass(frozen=True)
class CheckResult:
    """One named verification with its worst observed defect."""

    name: str
    passed: bool
    value: float
    tolerance: float

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {word} {self.value:.6e} {self.tolerance:.6e}"


def _random_scalar(rng, min_r_power=2) -> Poly2:
    coeffs = {}
    for a in range(_RANDOM_DEGREE + 1):
        for b in range(_RANDOM_DEGREE + 1 - a):
            coeffs[(a + min_r_power, b)] = (
                rng.standard_normal() + 1j * rng.standard_normal()
            )
    return Poly2(coeffs)


def _random_mode_field(rng, k, min_r_power=2) -> VectorModeFn:
    """Random polynomial mode shape with enough radial decay for 3D checks."""
    comps = tuple(_random_scalar(rng, min_r_power) for _ in range(3))
    return VectorModeFn(k, comps)


def _mode_sampler(modes, scalars):
    """Sampler of vector modes and scalar polynomials at quadrature points.

    The polynomials (for each mode its three cylindrical components, then
    their r and z derivatives; then the scalars) and their ``poly_matrix``
    are formed once.  The sampler maps coordinates R, Z of shape (nt, nq)
    to the table of the vector modes, shape (len(modes), 9, nt, nq), and
    the values of the scalars, shape (len(scalars), nt, nq), from one
    ``evaluate_poly_matrix``.  Every call writes into one buffer that the
    sampler keeps, so its arrays hold until the next call.  Blocks
    allocated afresh each time were handed back to the system and faulted
    in again: about 39,000 page faults per isometry suite on the two
    meshes of ``axistokes verify``; with the buffers, none after its first
    run in a process.
    """
    polys = []
    for mode in modes:
        comps = mode.components
        polys += [*comps, *(c.d_r() for c in comps), *(c.d_z() for c in comps)]
    polys += scalars
    matrix = poly_matrix(polys)
    n = 9 * len(modes)
    buffer = np.empty(0, dtype=complex)

    def sample(R, Z):
        nonlocal buffer
        size = len(polys) * R.size
        if buffer.size < size:
            buffer = np.empty(size, dtype=complex)
        out = buffer[:size].reshape(len(polys), R.size)
        table = evaluate_poly_matrix(matrix, R, Z, out=out)
        return table[:n].reshape((len(modes), 9) + R.shape), table[n:]

    return sample


# Points (triangles x quadrature points x angles) of one block of the 3D
# oracle: its (block, nq, n_theta) arrays then stay in cache, and its memory
# does not grow with the mesh.
_ORACLE_BLOCK_POINTS = 6_000


def _oracle_block(nq: int, n_theta: int) -> int:
    """Triangles per block of the 3D oracle."""
    return max(1, _ORACLE_BLOCK_POINTS // (nq * n_theta))


# Quadrature points of one block of the isometry suite's samples, which the
# 3D oracle and the mode sums read before the next block is sampled; a
# whole number of oracle blocks, so the oracle's blocks are those of one
# pass over the whole mesh.
_SAMPLE_BLOCK_POINTS = 1_000


def _sample_block(nq: int, n_theta: int) -> int:
    """Triangles per block of ``_family_integrals``' samples."""
    oracle = _oracle_block(nq, n_theta)
    return oracle * max(1, _SAMPLE_BLOCK_POINTS // (oracle * nq))


def _gradient_rows(t, ik, inv_r, out):
    """Write the nine cylindrical-frame gradient rows of a block into ``out``.

    ``t`` holds the (value, d_r, d_z) rows by component, modes on the last
    axis; the rows are d_r u, (i k u + J u) / r and d_z u, with
    J (u_r, u_t, u_z) = (-u_t, u_r, 0).
    """
    out[0:3] = t[3:6]
    np.multiply(t[0:3], ik, out=out[3:6])
    out[3] -= t[1]
    out[4] += t[0]
    out[3:6] *= inv_r
    out[6:9] = t[6:9]


def _oracle_integrals(R, W, thetas, ks, table_u, table_v, q_vals):
    """The 3D integrals of one field family over the revolved domain.

    ``table_u``, ``table_v`` are the ``_mode_sampler`` tables of the vector
    fields u and v with wavenumbers ``ks``, ``q_vals`` the values of the
    scalar q (one row per wavenumber), all on quadrature points with
    coordinates R and weights W.  Each field is summed into a genuine 3D
    field on the angles ``thetas`` and integrated by the tensor rule, one
    block of triangles at a time.  Returns (||u||^2, |u|_1^2,
    (grad u, grad v), -(div u, q)).

    The Cartesian gradient is Rot(theta) G Rot(theta)^T, with G the rows
    of ``_gradient_rows``; |u|^2, |grad u|^2, grad u : conj(grad v) and
    div u = tr G are invariant under it, so they are formed in the
    cylindrical frame.  Every factor free of theta, the square root of the
    tensor weight too, goes onto the mode coefficients, so one product with
    the phases gives a block's weighted samples and each integral is a vdot.
    """
    n_theta = len(thetas)
    block = _oracle_block(R.shape[1], n_theta)
    ik = 1j * np.asarray(ks)
    phases = np.exp(np.outer(ik, thetas)) / np.sqrt(2.0 * np.pi)
    scale = np.sqrt(W * R * (2.0 * np.pi / n_theta))[..., None]
    inv_r = 1.0 / R[..., None]
    l2 = semi = 0.0
    energy = div = 0j
    # Every block writes into the same two buffers, for the reason given
    # in ``_mode_sampler``.
    points = min(block, R.shape[0]) * R.shape[1]
    coef_buffer = np.empty(23 * points * len(ks), dtype=complex)
    samples_buffer = np.empty(23 * points * n_theta, dtype=complex)
    for lo in range(0, R.shape[0], block):
        rows = slice(lo, lo + block)
        tu, tv = (np.moveaxis(t[:, :, rows], 0, -1) for t in (table_u, table_v))
        # Rows: u (3), grad u (9), div u, q, grad v (9).
        coef = coef_buffer[: 23 * tu[0].size].reshape((23,) + tu.shape[1:])
        coef[0:3] = tu[0:3]
        _gradient_rows(tu, ik, inv_r[rows], coef[3:12])
        coef[12] = coef[3] + coef[7] + coef[11]  # the diagonal of grad u
        coef[13] = np.moveaxis(q_vals[:, rows], 0, -1)
        _gradient_rows(tv, ik, inv_r[rows], coef[14:23])
        coef *= scale[rows]
        coef = coef.reshape(-1, len(ks))
        samples = samples_buffer[: len(coef) * n_theta].reshape(-1, n_theta)
        np.matmul(coef, phases, out=samples)
        samples = samples.reshape(23, -1)
        l2 += np.vdot(samples[0:3], samples[0:3]).real
        semi += np.vdot(samples[3:12], samples[3:12]).real
        energy += np.vdot(samples[14:23], samples[3:12])
        div -= np.vdot(samples[13], samples[12])
    return float(l2), float(semi), complex(energy), complex(div)


def _relative_defect(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _by_derivative(table):
    """(val, dr, dz) of a ``_mode_sampler`` table, each (n_modes, 3, nt, nq)."""
    return table.reshape(table.shape[:1] + (3, 3) + table.shape[2:]).swapaxes(0, 1)


def _family_integrals(mesh, thetas, modes_u, modes_v, modes_q):
    """The 3D integrals of one random field family and their mode sums.

    ``modes_u``, ``modes_v`` (vector) and ``modes_q`` (scalar) hold one
    polynomial mode per wavenumber.  Returns the ``_oracle_integrals``
    (||u||^2, |u|_1^2, (grad u, grad v), -(div u, q)) and the mode sums of
    the L2 norm, H1 seminorm, full norm, energy form and divergence
    pairing.  The quadrature geometry is built once, and one pass over
    blocks of triangles samples all modes of a block at once; the 3D
    oracle and the norm engine's array cores read those samples, and the
    per-mode sums add up across blocks.  So the memory does not grow with
    the mesh.
    """
    R, Z, W = quadrature_geometry(mesh, _NORM_RULE)
    ks = [m.k for m in modes_u]
    n = len(ks)
    sample = _mode_sampler([*modes_u, *modes_v], modes_q)
    block = _sample_block(R.shape[1], len(thetas))
    # The oracle's four integrals, then per mode the component and coupling
    # sums, the energy form and the divergence pairing.
    totals = [0] * 8
    for lo in range(0, R.shape[0], block):
        rows = slice(lo, lo + block)
        Rb, Wb = R[rows], W[rows]
        table, q_vals = sample(Rb, Z[rows])
        su, sv = _by_derivative(table[:n]), _by_derivative(table[n:])
        parts = (
            *_oracle_integrals(Rb, Wb, thetas, ks, table[:n], table[n:], q_vals),
            *sampled_vector_sums(*su, Rb, Wb),
            sampled_energy_product(ks, su, sv, Rb, Wb),
            sampled_divergence_product(ks, su, q_vals, Rb, Wb),
        )
        totals = [t + p for t, p in zip(totals, parts)]
    *three, comp, coupling, energy, div = totals
    reports = [sums_report(k, c, p) for k, c, p in zip(ks, comp, coupling)]
    sums = (
        sum(rep.l2_1_sq for rep in reports),
        sum(rep.h1k_semi_sq for rep in reports),
        sum(rep.h1k_sq for rep in reports),
        sum(energy.tolist()),
        sum(div.tolist()),
    )
    return tuple(three), sums


def _field_defects(mesh, thetas, modes_u, modes_v, modes_q):
    """Relative defects between the mode sums and the 3D integrals of a family.

    They are those of the L2 norm, H1 seminorm, full norm, energy form and
    divergence pairing, from ``_family_integrals``.
    """
    (l2, semi, energy, div), sums = _family_integrals(
        mesh, thetas, modes_u, modes_v, modes_q
    )
    three = (l2, semi, l2 + semi, energy, div)
    return tuple(_relative_defect(a, b) for a, b in zip(three, sums))


def isometry_suite(mesh: MeridianMesh) -> list:
    """Cross-checks between meridian mode quantities and honest 3D integrals.

    Random polynomial mode families are reconstructed as genuine 3D fields
    on the revolved domain; norms, energy forms, and divergence pairings
    are integrated by a tensor rule (triangle rule times equispaced
    angles), which is exact for these trig-polynomial integrands.  Also
    covers the polarization identity, the equivalence bounds between the
    mode norm and its simpler companion, and conjugation symmetry of modes
    extracted from real samples.
    """
    rng = np.random.default_rng(_ISO_SEED)
    thetas = angular_grid(4 * _ISO_K_MAX + 8)

    worst = [0.0] * 5
    ks = list(range(-_ISO_K_MAX, _ISO_K_MAX + 1))
    for _ in range(_ISO_N_FIELDS):
        modes_u = [_random_mode_field(rng, k) for k in ks]
        modes_v = [_random_mode_field(rng, k) for k in ks]
        modes_q = [_random_scalar(rng) for _ in ks]
        defects = _field_defects(mesh, thetas, modes_u, modes_v, modes_q)
        worst = [max(w, d) for w, d in zip(worst, defects)]
    worst_l2, worst_semi, worst_full, worst_energy, worst_div = worst

    # Polarization identity, pointwise exact regrouping.
    worst_polar = 0.0
    for k in ks:
        v = _random_mode_field(rng, k, min_r_power=1)
        vr, vt, vz = v.components
        lhs = vector_mode_norm(mesh, v).h1k_sq
        plus = vr + Poly2({(0, 0): 1j}) * vt
        minus = vr + Poly2({(0, 0): -1j}) * vt
        rhs = (
            0.5 * scalar_mode_norm(mesh, plus, k + 1).h1k_sq
            + 0.5 * scalar_mode_norm(mesh, minus, k - 1).h1k_sq
            + scalar_mode_norm(mesh, vz, k).h1k_sq
        )
        worst_polar = max(worst_polar, _relative_defect(lhs, rhs))

    # Equivalence bounds for |k| >= 2 and the trend of the extremal family.
    worst_bounds = 0.0
    for k in (2, 3, 5, 10):
        for _ in range(4):
            v = _random_mode_field(rng, k, min_r_power=1)
            rep = vector_mode_norm(mesh, v)
            ratio = rep.h1k / rep.h1k_star
            worst_bounds = max(
                worst_bounds, max(0.5 - ratio, ratio - 1.5, 0.0)
            )
    # The extremal family v = c (1, -i, 0) with c = r: its coupling term is
    # carried entirely by the (k+1) branch, so the norm ratio decreases
    # toward one as the wavenumber grows.
    trend_ratios = []
    for k in (2, 3, 5, 10, 20):
        v = VectorModeFn(k, (_R, Poly2({(0, 0): -1j}) * _R, _ZERO))
        rep = vector_mode_norm(mesh, v)
        trend_ratios.append(rep.h1k / rep.h1k_star)
    trend_ok = all(
        later <= earlier + 1e-12
        for earlier, later in zip(trend_ratios, trend_ratios[1:])
    )
    trend_ok = trend_ok and all(ratio >= 1.0 - 1e-12 for ratio in trend_ratios)
    trend_ok = trend_ok and trend_ratios[-1] <= 1.1
    trend_defect = 0.0 if trend_ok else 1.0

    # Conjugation symmetry of modes extracted from a real 3D field.
    worst_conj = 0.0
    pts_r = np.linspace(0.15, 0.85, 4)
    pts_z = np.linspace(0.1, 0.9, 4)
    n_samp = 4 * _ISO_K_MAX + 8
    grid = angular_grid(n_samp)
    Rg, Zg = np.meshgrid(pts_r, pts_z, indexing="ij")
    for _ in range(3):
        modes = {}
        for k in range(0, _ISO_K_MAX + 1):
            m = _random_mode_field(rng, k)
            if k == 0:
                # The axisymmetric coefficient of a real field is real.
                m = VectorModeFn(
                    0,
                    tuple(
                        0.5 * (c + c.conj()) for c in m.components
                    ),
                )
            modes[k] = m
            if k > 0:
                modes[-k] = m.conj()
        total = reconstruct(
            {k: [c(Rg, Zg) for c in m] for k, m in modes.items()},
            grid,
        )
        if np.max(np.abs(total.imag)) > 1e-9:
            worst_conj = max(worst_conj, float(np.max(np.abs(total.imag))))
        real_samples = total.real
        for k in range(0, _ISO_K_MAX + 1):
            up = fourier_coefficient(real_samples, k)
            dn = fourier_coefficient(real_samples, -k)
            worst_conj = max(worst_conj, float(np.max(np.abs(dn - np.conj(up)))))

    return [
        CheckResult("l2_isometry", worst_l2 <= _TOL_ISO, worst_l2, _TOL_ISO),
        CheckResult("h1_semi_isometry", worst_semi <= _TOL_ISO, worst_semi, _TOL_ISO),
        CheckResult("h1_full_isometry", worst_full <= _TOL_ISO, worst_full, _TOL_ISO),
        CheckResult(
            "energy_form_consistency", worst_energy <= _TOL_ISO, worst_energy, _TOL_ISO
        ),
        CheckResult(
            "divergence_form_consistency", worst_div <= _TOL_ISO, worst_div, _TOL_ISO
        ),
        CheckResult("polarization", worst_polar <= _TOL_POLAR, worst_polar, _TOL_POLAR),
        CheckResult(
            "equivalence_bounds", worst_bounds == 0.0, worst_bounds, 0.0
        ),
        CheckResult("equivalence_trend", trend_ok, trend_defect, 0.0),
        CheckResult("conjugation", worst_conj <= _TOL_CONJ, worst_conj, _TOL_CONJ),
    ]


@dataclass
class StabilityStudy:
    """Solution-to-data ratios across wavenumbers for one fixed body force."""

    ks: list
    ratios: list

    @property
    def reference(self) -> float:
        return self.ratios[0]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    def uniform(self, factor: float = 2.0) -> bool:
        return all(r <= factor * self.reference for r in self.ratios)


def stability_study(ks=range(0, 21), h: float = 1 / 8) -> StabilityStudy:
    """Measure (velocity + pressure) / dual data norm across wavenumbers.

    One fixed polynomial body force drives every mode on the same
    unit-square mesh; stability of the family shows as ratios that stay
    comparable to the axisymmetric one instead of growing with k.
    """
    mesh = generate_structured((1.0, 1.0), h)
    space = FemSpace(mesh)
    f = VectorModeFn(0, (_R * _Z, _R * _Z, _R + _Z))
    ks = list(ks)
    ratios = []
    for k in ks:
        fk = VectorModeFn(k, f.components)
        system = assemble(space, k)
        sol = solve_mode(system, f=fk)
        dual = system.dual_norm(fk)
        u_norm = vector_mode_norm(mesh, sol.velocity_fields(), k=k).h1k
        p_norm = scalar_mode_norm(mesh, sol.pressure_field(), k).l2_1
        ratios.append((u_norm + p_norm) / dual)
    return StabilityStudy(ks=ks, ratios=ratios)
