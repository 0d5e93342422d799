"""Direct and iterative solvers for the per-mode saddle problems.

The direct path factors the bordered Hermitian system; for the
axisymmetric mode the border is the weighted-mean row that pins the
constant pressure (and its multiplier absorbs incompatible data).  The
iterative path is a conjugate gradient iteration on the pressure Schur
complement S = B A^-1 B*, preconditioned by the r-weighted pressure mass
matrix; for the axisymmetric mode the constant-pressure kernel is
deflated by keeping residuals Euclidean-orthogonal to the constant
vector, which makes every preconditioned iterate exactly mean-free.

Both paths run on the reduced blocks, which are exactly real for every
mode (u_theta = i w, see ``fem.ModeConstraints``), and the velocity block
is factored in real arithmetic.  Real axisymmetric data has a real
solution, so the fast path runs the same solve on the real parts of the
blocks and the data, a real LU or a real iteration.

``estimate_inf_sup`` measures the discrete stability constant as the
smallest generalized eigenvalue of the Schur complement against the
pressure mass matrix, densely for moderate pressure counts and by a
blocked iterative eigensolver beyond.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import ModeSolution, SaddleSystem

__all__ = [
    "InfSupEstimate",
    "SolveReport",
    "SolverBreakdown",
    "SolverConfig",
    "estimate_inf_sup",
    "solve_mode",
]


class SolverBreakdown(RuntimeError):
    """The iteration or factorization cannot continue on this system."""


@dataclass(frozen=True)
class SolverConfig:
    """How to solve one mode.

    method: 'direct' (sparse LU of the bordered system) or 'uzawa'
    (Schur-complement conjugate gradients; 'uzawa_cg' is accepted as a
    synonym).  tol is relative, and with max_iter controls the iteration;
    the residual history is kept when record_residuals is set.
    pressure_mass_precond applies the r-weighted pressure mass matrix as
    the preconditioner (recommended); k0_real_fast_path lets real
    axisymmetric data take the real-arithmetic route.
    """

    method: str = "direct"
    tol: float = 1e-10
    max_iter: int = 500
    pressure_mass_precond: bool = True
    k0_real_fast_path: bool = True
    record_residuals: bool = True

    def __post_init__(self):
        if self.method == "uzawa_cg":
            object.__setattr__(self, "method", "uzawa")
        if self.method not in ("direct", "uzawa"):
            raise ValueError("method must be 'direct' or 'uzawa'")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class SolveReport:
    """What happened during one mode solve."""

    k: int
    method: str
    n_free: int
    n_p: int
    iterations: int = 0
    converged: bool = True
    res_u: float = 0.0
    res_p: float = 0.0
    fast_path: bool = False
    mean_multiplier: float = 0.0
    compatibility_flux: complex = None
    breakdown: str = None
    residuals: list = field(default_factory=list)

    RESIDUAL_HEADER = "iter, res_u, res_p"

    def residual_csv(self) -> str:
        lines = [self.RESIDUAL_HEADER]
        history = self.residuals or [(self.iterations, self.res_u, self.res_p)]
        for it, ru, rp in history:
            lines.append(f"{it}, {ru!r}, {rp!r}")
        return "\n".join(lines) + "\n"


def _true_residuals(system, u_free, p, F_hat, G_hat):
    res_u = np.linalg.norm(F_hat - system.A_hat @ u_free - system.B_hat.conj().T @ p)
    res_p = np.linalg.norm(system.B_hat @ u_free - G_hat)
    return float(res_u), float(res_p)


def _direct_bordered(A, B, F, G, m=None):
    """LU solve of [[A, B*], [B, 0]] with an optional mean row for pressure.

    Returns (u, p, multiplier).  ``m`` is the weighted-mean functional; when
    given, the system is bordered once more so the pressure is mean-free
    and inconsistent continuity data lands in the multiplier.  The LU is
    real or complex as the blocks are.
    """
    nf = A.shape[0]
    np_ = B.shape[0]
    Bh = B.conj().T
    if m is None:
        mat = sp.bmat([[A, Bh], [B, None]], format="csc")
        rhs = np.concatenate([F, G])
    else:
        mcol = sp.csr_matrix(m.reshape(-1, 1).astype(A.dtype))
        mat = sp.bmat(
            [[A, Bh, None], [B, None, mcol], [None, mcol.conj().T, None]],
            format="csc",
        )
        rhs = np.concatenate([F, G, [0.0]])
    try:
        lu = spla.splu(mat)
    except RuntimeError as exc:
        raise SolverBreakdown(f"bordered factorization failed: {exc}") from exc
    sol = lu.solve(rhs.astype(mat.dtype))
    if not np.all(np.isfinite(sol)):
        raise SolverBreakdown("bordered solve produced non-finite values")
    u = sol[:nf]
    p = sol[nf : nf + np_]
    mult = float(sol[-1].real) if m is not None else 0.0
    return u, p, mult


def _uzawa_core(a_solve, A, B, F, G, mp_solve, m, e, config):
    """Schur-complement CG.  Returns (u, p, iterations, converged, history).

    ``a_solve`` applies the inverse velocity block; ``mp_solve`` applies
    the inverse pressure mass preconditioner (None runs plain CG);
    ``m``/``e`` are the mean functional and the constant vector for
    deflation (None when the Schur complement is definite on the whole
    pressure space).
    """
    Bh = B.conj().T

    def deflate(x):
        if e is None:
            return x
        return x - e * (np.vdot(e, x) / np.vdot(e, e))

    def deflate_mean(x):
        if m is None:
            return x
        return x - np.full_like(x, np.vdot(m, x) / np.sum(m))

    u = a_solve(F)
    r = deflate(B @ u - G)
    p = np.zeros_like(r)
    ref = max(float(np.linalg.norm(r)), float(np.linalg.norm(G)), 1e-300)
    history = []
    d = None
    rho_old = 0.0
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        if mp_solve is not None:
            z = deflate_mean(mp_solve(r))
        else:
            z = deflate(r)
        rho = np.vdot(r, z).real
        if rho <= 0.0:
            if float(np.linalg.norm(r)) <= config.tol * ref:
                converged = True
                break
            raise SolverBreakdown(
                f"pressure iteration lost positivity (rho = {rho:.3e})"
            )
        d = z if d is None else z + (rho / rho_old) * d
        w = a_solve(Bh @ d)
        Sd = B @ w
        dSd = np.vdot(d, Sd).real
        if dSd <= 0.0:
            raise SolverBreakdown(
                f"Schur complement not positive along search direction ({dSd:.3e})"
            )
        alpha = rho / dSd
        p = p + alpha * d
        u = u - alpha * w
        r = deflate(r - alpha * Sd)
        rho_old = rho
        iterations = it
        res_p = float(np.linalg.norm(r))
        res_u = float(np.linalg.norm(F - A @ u - Bh @ p))
        if config.record_residuals:
            history.append((it, res_u, res_p))
        if res_p <= config.tol * ref:
            converged = True
            break
    # Constants lie in the Schur null space, so the gauge can be fixed
    # after the fact; with the mass preconditioner this is a no-op.
    p = deflate_mean(p)
    return u, p, iterations, converged, history


def solve_mode(
    system: SaddleSystem, f=None, g_div=None, config: SolverConfig = None
) -> ModeSolution:
    """Solve one mode's saddle problem for body force f and divergence data.

    Wall data entered the system when it was assembled.  Returns the mode
    solution with a SolveReport attached; raises SolverBreakdown when the
    algebra cannot proceed.
    """
    config = config or SolverConfig()
    F_hat, G_hat = system.rhs(f, g_div)
    k = system.k
    report = SolveReport(
        k=k, method=config.method, n_free=system.n_free, n_p=system.n_p
    )
    if k == 0:
        report.compatibility_flux = complex(np.sum(G_hat))

    A, B, F, G = system.A_hat, system.B_hat, F_hat, G_hat
    if (
        k == 0
        and config.k0_real_fast_path
        and not np.any(F_hat.imag)
        and not np.any(G_hat.imag)
        and not np.any(system.constraints.fix.imag)
    ):
        report.fast_path = True
        A, B, F, G = A.real, B.real, F.real, G.real

    m = system.m_vec if k == 0 else None
    if config.method == "direct":
        u_free, p, report.mean_multiplier = _direct_bordered(A, B, F, G, m)
    else:
        e = np.ones(system.n_p) if k == 0 else None
        u_free, p, its, conv, hist = _uzawa_core(
            system.a_solve,
            A,
            B,
            F,
            G,
            system.mp_solve if config.pressure_mass_precond else None,
            m,
            e,
            config,
        )
        report.iterations, report.converged, report.residuals = its, conv, hist
        if not conv:
            warnings.warn(
                f"pressure iteration for mode {k} stopped after {its} steps "
                "without reaching the tolerance",
                stacklevel=2,
            )

    report.res_u, report.res_p = _true_residuals(system, u_free, p, F_hat, G_hat)
    u_full = system.recover(u_free)
    return ModeSolution(k=k, space=system.space, u=u_full, p=p, report=report)


@dataclass(frozen=True)
class InfSupEstimate:
    """Discrete inf-sup constant of one mode on one mesh."""

    k: int
    beta: float
    lambda_min: float
    n_p: int
    n_free: int
    method: str
    h_max: float


def estimate_inf_sup(
    system: SaddleSystem,
    *,
    dense_limit: int = 1500,
    tol: float = 1e-6,
    maxiter: int = 2000,
    seed: int = 0,
) -> InfSupEstimate:
    """Smallest eigenvalue of the pressure Schur complement against the mass.

    beta**2 is the minimum of q* S q / q* Mp q over admissible pressures
    (mean-free ones for the axisymmetric mode).  Moderate problems take
    the dense symmetric eigensolver; larger ones use LOBPCG on the
    implicitly applied Schur complement with the constant deflated.
    """
    np_ = system.n_p
    k = system.k
    if np_ <= dense_limit:
        S = _dense_schur(system)
        Mp = system.Mp.toarray()
        if k == 0:
            q, _ = np.linalg.qr(
                np.hstack([system.m_vec.reshape(-1, 1), np.eye(np_)]).astype(float),
            )
            Z = q[:, 1:np_]
            Sz = Z.conj().T @ S @ Z
            Mz = Z.T @ Mp @ Z
            vals = scipy.linalg.eigh(Sz, Mz, eigvals_only=True, subset_by_index=[0, 0])
        else:
            vals = scipy.linalg.eigh(S, Mp, eigvals_only=True, subset_by_index=[0, 0])
        lam = float(vals[0])
        method = "dense"
    else:
        lam = _lobpcg_schur(system, tol=tol, maxiter=maxiter, seed=seed)
        method = "lobpcg"
    lam = max(lam, 0.0)
    return InfSupEstimate(
        k=k,
        beta=float(np.sqrt(lam)),
        lambda_min=lam,
        n_p=np_,
        n_free=system.n_free,
        method=method,
        h_max=system.space.mesh.h_max,
    )


def _dense_schur(system, chunk: int = 128) -> np.ndarray:
    Bh = system.B_hat.conj().T.tocsc()
    np_ = system.n_p
    S = np.empty((np_, np_), dtype=complex)
    for start in range(0, np_, chunk):
        stop = min(start + chunk, np_)
        block = Bh[:, start:stop].toarray()
        X = system.a_solve(block)
        S[:, start:stop] = system.B_hat @ X
    S = 0.5 * (S + S.conj().T)
    return S


def _lobpcg_schur(system, *, tol, maxiter, seed) -> float:
    np_ = system.n_p
    Bh = system.B_hat.conj().T

    def apply_s(x):
        x = np.asarray(x)
        cols = [system.B_hat @ system.a_solve(Bh @ x[:, j]) for j in range(x.shape[1])]
        return np.stack(cols, axis=1)

    S_op = spla.LinearOperator((np_, np_), matvec=lambda v: apply_s(v.reshape(-1, 1))[:, 0], matmat=apply_s, dtype=complex)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((np_, 3)) + 0j
    Y = np.ones((np_, 1), dtype=complex) if system.k == 0 else None
    vals, _ = spla.lobpcg(
        S_op,
        X,
        B=system.Mp.astype(complex),
        Y=Y,
        tol=tol,
        maxiter=maxiter,
        largest=False,
    )
    return float(np.min(vals.real))
