"""Direct and iterative solvers for the per-mode saddle problems.

The direct path factors the bordered system, and refuses one whose LU
would not fit in memory; for the axisymmetric mode the border is the
weighted-mean row that pins the constant pressure (and its multiplier
absorbs incompatible data).  The iterative path is a conjugate gradient
iteration on the pressure Schur complement S = B A^-1 B*, preconditioned
by the r-weighted pressure mass matrix.  For the axisymmetric mode the
constant-pressure kernel is deflated: each residual loses its part along
the weighted-mean vector m = Mp 1, as the direct path's border does
(which subtracts a constant from the divergence data), and each
preconditioned step is kept mean-free.  So both paths balance net k = 0
flux the same way.

Both paths run on the reduced blocks, which are exactly real for every
mode (u_theta = i w, see ``fem.ModeConstraints``), so every factor is
real: complex data takes two real columns, and a right side with zero
imaginary part one real column, at every mode.  The velocity block is
the block diagonal of scalar operators L_j whose factors the modes of a
space share; only the direct path forms it, for its bordered LU.

``estimate_inf_sup`` measures the discrete stability constant as the
smallest generalized eigenvalue of the Schur complement against the
pressure mass matrix.  It runs the same conjugate gradient iteration on a
random continuity right side and takes the smallest eigenvalue of the
Lanczos tridiagonal matrix that the iteration's coefficients define.
"""

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import ModeSolution, SaddleSystem, _real_solve

__all__ = [
    "SolveReport",
    "SolverBreakdown",
    "SolverConfig",
    "estimate_inf_sup",
    "solve_mode",
]


# Net axisymmetric volume flux, relative to the wall data, that is warned of.
_COMPAT_TOL = 1e-10

# estimate_inf_sup's relative residual tolerance, and the seed of its random
# continuity right side.
_INF_SUP_TOL = 1e-16
_INF_SUP_SEED = 0


class SolverBreakdown(RuntimeError):
    """The iteration or factorization cannot continue on this system."""


@dataclass(frozen=True)
class SolverConfig:
    """How to solve one mode.

    method: 'direct' (sparse LU of the bordered system) or 'uzawa'
    (Schur-complement conjugate gradients; 'uzawa_cg' is accepted as a
    synonym).  Every mode takes the same path for either method.

    The iteration stops after max_iter steps, or once its continuity
    residual is at most tol times max(|r_0|, |G|), with r_0 the residual
    of the first velocity solve and G the continuity data.  The relative
    pressure error in the Mp norm is then about tol / beta**2 or less, with
    beta the inf-sup constant (beta**2 is 0.10-0.13 on the unit square):
    0.02-0.21 tol / beta**2 for random forces at h = 1/8 to 1/32, and up
    to 1.1 tol / beta**2 for the k = 1 mode of a polynomial flow.
    """

    method: str = "direct"
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if self.method == "uzawa_cg":
            object.__setattr__(self, "method", "uzawa")
        if self.method not in ("direct", "uzawa"):
            raise ValueError("method must be 'direct' or 'uzawa'")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    """What happened during one mode solve.

    ``iterations``, ``converged`` and ``residuals`` (the history of
    (iteration, res_p)) are the Uzawa iteration's; ``res_u`` and ``res_p``
    are the true residuals of the returned solution, and
    ``compatibility_flux`` the net flux of k = 0 data (None at k != 0).  A
    breakdown raises SolverBreakdown instead of returning a report.
    """

    method: str
    n_free: int
    iterations: int = 0
    converged: bool = True
    res_u: float = 0.0
    res_p: float = 0.0
    compatibility_flux: complex = None
    residuals: list = field(default_factory=list)

    RESIDUAL_HEADER = "iter, res_p"

    def residual_csv(self) -> str:
        """The residual history as CSV text under ``RESIDUAL_HEADER``."""
        lines = [self.RESIDUAL_HEADER]
        for it, rp in self.residuals:
            lines.append(f"{it}, {rp!r}")
        return "\n".join(lines) + "\n"


def _true_residuals(system, u_free, p, F_hat, G_hat):
    Au = system.apply_energy(system.constraints.extend(u_free))
    res_u = np.linalg.norm(F_hat - Au - system.B_hat.T @ p)
    res_p = np.linalg.norm(system.B_hat @ u_free - G_hat)
    return float(res_u), float(res_p)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_lu_memory(n: int) -> None:
    """Refuse a bordered LU of n unknowns that would need over half the memory.

    Its real LU (COLAMD) has about 4.5e6 L+U nonzeros at n = 13,059 (h = 1/32),
    9.8 times more per halving of h (4 times n): the k = 0 fill grew from
    4.17e6 to 4.08e7 between h = 1/32 and 1/64, the most of any mode.
    SuperLU's peak was 11-29 bytes per nonzero at h = 1/32 and 1/64, so 32
    are charged.
    """
    need = 32 * 4.5e6 * 9.8 ** (np.log(n / 13059) / np.log(4))
    have = _physical_memory()
    if need > 0.5 * have:
        raise SolverBreakdown(
            f"direct LU of the {n}-unknown bordered system needs about "
            f"{need / 2**20:,.0f} MB, more than half of the {have / 2**20:,.0f} MB "
            "of physical memory; use method = uzawa"
        )


def _direct_bordered(A, B, F, G, m=None):
    """LU solve of [[A, B^T], [B, 0]] with an optional mean row for pressure.

    Returns (u, p).  ``m`` is the weighted-mean functional; when given,
    the system is bordered once more so the pressure is mean-free and
    inconsistent continuity data lands in the multiplier.  The blocks
    are exactly real whatever their dtype, so one real LU is factored and
    complex data is solved as two real columns.
    """
    np_, nf = B.shape
    _check_lu_memory(nf + np_)
    A, B = A.real, B.real
    blocks, rhs = [[A, B.T], [B, None]], [F, G]
    if m is not None:
        mcol = sp.csr_matrix(m.reshape(-1, 1))
        blocks = [[A, B.T, None], [B, None, mcol], [None, mcol.T, None]]
        rhs.append([0.0])
    try:
        lu = spla.splu(sp.bmat(blocks, format="csc"))
    except RuntimeError as exc:
        raise SolverBreakdown(f"bordered factorization failed: {exc}") from exc
    sol = _real_solve(lu, np.concatenate(rhs))
    if not np.all(np.isfinite(sol)):
        raise SolverBreakdown("bordered solve produced non-finite values")
    return sol[:nf], sol[nf : nf + np_]


def _uzawa_core(system, F, G, config):
    """Schur-complement CG.

    Returns (u, p, iterations, converged, [(it, res_p)], alphas, betas):
    ``alphas`` holds the step lengths and ``betas`` the ratios rho_j /
    rho_(j-1) of successive preconditioned residual products, one fewer,
    which define the Lanczos matrix of (S, Mp) (see ``estimate_inf_sup``).
    ``system.a_solve`` applies the inverse velocity block and
    ``system.mp_solve`` the inverse pressure mass preconditioner.  At
    k = 0 the Schur complement has the constant pressure in its kernel, so
    residuals lose their part along m = Mp 1, as in the direct path's
    border, which leaves them orthogonal to the constants, and the
    preconditioned steps are kept mean-free under the functional m.
    """
    B = system.B_hat
    # B_hat is exactly real (complex dtype only), so its adjoint is B.T.
    Bh = B.T
    m = system.m_vec if system.k == 0 else None

    def deflate(x):
        if m is None:
            return x
        return x - m * (np.sum(x) / np.sum(m))

    def deflate_mean(x):
        if m is None:
            return x
        return x - np.full_like(x, np.vdot(m, x) / np.sum(m))

    u = system.a_solve(F)
    r = deflate(B @ u - G)
    p = np.zeros_like(r)
    ref = max(float(np.linalg.norm(r)), float(np.linalg.norm(G)), 1e-300)
    history, alphas, betas = [], [], []
    d = None
    rho_old = 0.0
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        z = deflate_mean(system.mp_solve(r))
        rho = np.vdot(r, z).real
        if rho <= 0.0:
            if float(np.linalg.norm(r)) <= config.tol * ref:
                converged = True
                break
            raise SolverBreakdown(
                f"pressure iteration lost positivity (rho = {rho:.3e})"
            )
        if d is None:
            d = z
        else:
            betas.append(rho / rho_old)
            d = z + betas[-1] * d
        w = system.a_solve(Bh @ d)
        Sd = B @ w
        dSd = np.vdot(d, Sd).real
        if dSd <= 0.0:
            raise SolverBreakdown(
                f"Schur complement not positive along search direction ({dSd:.3e})"
            )
        alpha = rho / dSd
        alphas.append(alpha)
        p = p + alpha * d
        u = u - alpha * w
        r = deflate(r - alpha * Sd)
        rho_old = rho
        iterations = it
        res_p = float(np.linalg.norm(r))
        history.append((it, res_p))
        if res_p <= config.tol * ref:
            converged = True
            break
    # Constants lie in the Schur null space, so the gauge can be fixed
    # after the fact; the preconditioned steps are mean-free up to round-off.
    p = deflate_mean(p)
    return u, p, iterations, converged, history, alphas, betas


def solve_mode(
    system: SaddleSystem, f=None, g_div=None, config: SolverConfig = None
) -> ModeSolution:
    """Solve one mode's saddle problem for body force f and divergence data.

    Wall data entered the system when it was assembled.  For the
    axisymmetric mode a net volume flux of the wall and divergence data
    makes the continuity block inconsistent; it is recorded in the report,
    warned of, and left in place.  Returns the mode solution with a
    SolveReport attached; raises SolverBreakdown when the algebra cannot
    proceed.
    """
    config = config or SolverConfig()
    F_hat, G_hat = system.rhs(f, g_div)
    k = system.k
    report = SolveReport(method=config.method, n_free=system.n_free)
    if k == 0:
        flux = report.compatibility_flux = complex(np.sum(G_hat))
        scale = max(1.0, float(np.abs(system.constraints.fix).max(initial=0.0)))
        if abs(flux) > _COMPAT_TOL * scale:
            shown = flux if flux.imag else flux.real
            warnings.warn(
                f"axisymmetric data carries net volume flux {shown:.3e}; "
                "the mean-free pressure solve will balance it",
                stacklevel=2,
            )

    if config.method == "direct":
        m = system.m_vec if k == 0 else None
        blocks = [system.space.velocity_block(j) for j in system.constraints.j]
        u_free, p = _direct_bordered(
            sp.block_diag(blocks, format="csr"), system.B_hat, F_hat, G_hat, m
        )
    else:
        u_free, p, its, conv, hist, _, _ = _uzawa_core(system, F_hat, G_hat, config)
        report.iterations, report.converged, report.residuals = its, conv, hist
        if not conv:
            warnings.warn(
                f"pressure iteration for mode {k} stopped after {its} steps "
                "without reaching the tolerance",
                stacklevel=2,
            )

    report.res_u, report.res_p = _true_residuals(system, u_free, p, F_hat, G_hat)
    u_full = system.recover(u_free)
    return ModeSolution(space=system.space, u=u_full, p=p, report=report)


def estimate_inf_sup(system: SaddleSystem) -> float:
    """The discrete inf-sup constant beta of one mode on one mesh.

    beta**2 is the smallest eigenvalue of the pressure Schur complement
    against the mass, the minimum of q^T S q / q^T Mp q over admissible
    pressures (mean-free ones for the axisymmetric mode), with S = B_hat
    (C* A C)^-1 B_hat^T.  The Schur-complement iteration of ``solve_mode``
    runs on a seeded random continuity right side with no force, to a
    tolerance far below the solver's; its step lengths alpha_j and ratios
    beta_j give the Lanczos tridiagonal matrix T of (S, Mp) on the Krylov
    space, with diagonal 1/alpha_j + beta_(j-1)/alpha_(j-1) and
    off-diagonal sqrt(beta_j)/alpha_j, and beta**2 is T's smallest
    eigenvalue.  At k = 0 the iteration already works on the mean-free
    pressures.  An iteration that stops short of its tolerance raises
    SolverBreakdown.
    """
    rng = np.random.default_rng(_INF_SUP_SEED)
    G = rng.standard_normal(system.n_p)
    F = np.zeros(system.n_free)
    config = SolverConfig(method="uzawa", tol=_INF_SUP_TOL)
    _, _, its, conv, _, alphas, betas = _uzawa_core(system, F, G, config)
    if not conv:
        raise SolverBreakdown(
            f"inf-sup iteration for mode {system.k} stopped after {its} steps "
            "without reaching its tolerance"
        )
    a, b = np.array(alphas), np.array(betas)
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    lam = scipy.linalg.eigvalsh_tridiagonal(
        diag, np.sqrt(b) / a[:-1], select="i", select_range=(0, 0)
    )
    return float(np.sqrt(lam[0]))
