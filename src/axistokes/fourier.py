"""Angular Fourier analysis: coefficients, reconstruction, mode stacks.

A field on a body of revolution is expanded in angular modes with the
symmetric normalization

    f_k(r, z) = (2 pi)**-0.5 * integral f(r, z, theta) exp(-i k theta) dtheta,
    f(r, z, theta) = (2 pi)**-0.5 * sum_k f_k(r, z) exp(i k theta),

so sums of squared mode norms match squared 3D norms without extra
factors.  Vector fields are analyzed in the rotated frame: Cartesian
components are pulled back by the inverse rotation before the transform,
and the mode sum applies the rotation again, which is the same as summing
the physical cylindrical components directly.

Angular integrals use the equispaced trapezoid rule, which is exact for
trigonometric polynomials resolved by the sample count; coefficients come
from FFT bins.  Sample counts are powers of two, and extraction of mode k
demands at least 4|k| + 2 samples so that quadratically nonlinear
integrands of resolved fields cannot alias into the extracted bin.
"""

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .meshing import MeshError

__all__ = [
    "AngularSamples",
    "FourierStack",
    "ModeVectors",
    "angular_grid",
    "anisotropic_norm",
    "complete_real_modes",
    "conjugation_defect",
    "fourier_coefficient",
    "min_angular_samples",
    "read_stack",
    "reconstruct",
    "reconstruct_stack",
    "rotate_to_cartesian",
    "rotate_to_cylindrical",
    "rotation_matrix",
    "write_stack",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def angular_grid(n_theta: int) -> np.ndarray:
    """Equispaced angles theta_j = 2 pi j / n, j = 0..n-1."""
    if n_theta < 2:
        raise ValueError("need at least two angular samples")
    return 2.0 * np.pi * np.arange(n_theta) / n_theta


def min_angular_samples(k_max: int) -> int:
    """Smallest power of two meeting the aliasing guard for modes up to k_max."""
    need = 4 * abs(int(k_max)) + 2
    n = 2
    while n < need:
        n *= 2
    return n


def rotation_matrix(theta) -> np.ndarray:
    """Rotation about the symmetry axis, shape (..., 3, 3)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def rotate_to_cartesian(v_cyl, theta):
    """Physical Cartesian components of a vector given in the rotated frame.

    ``v_cyl`` is a triple (v_r, v_t, v_z) of arrays broadcastable against
    ``theta``; the result is the triple (v_x, v_y, v_z).
    """
    vr, vt, vz = (np.asarray(c) for c in v_cyl)
    c, s = np.cos(theta), np.sin(theta)
    return (vr * c - vt * s, vr * s + vt * c, vz + np.zeros_like(c))


def rotate_to_cylindrical(v_cart, theta):
    """Inverse of rotate_to_cartesian: pull Cartesian components back."""
    vx, vy, vz = (np.asarray(c) for c in v_cart)
    c, s = np.cos(theta), np.sin(theta)
    return (vx * c + vy * s, -vx * s + vy * c, vz + np.zeros_like(c))


def fourier_coefficient(values: np.ndarray, k: int) -> np.ndarray:
    """Mode-k coefficient of samples on angular_grid, along the last axis."""
    values = np.asarray(values)
    n = values.shape[-1]
    if n < 4 * abs(k) + 2:
        raise ValueError(
            f"extracting mode {k} needs at least {4 * abs(k) + 2} angular "
            f"samples to rule out aliasing, got {n}"
        )
    spectrum = np.fft.fft(values, axis=-1)
    return spectrum[..., k % n] * (_SQRT_2PI / n)


@dataclass(frozen=True)
class AngularSamples:
    """Field samples on the equispaced angular grid (last axis).

    The sample count must be a power of two; ``coefficient`` applies the
    aliasing guard before handing the FFT bin back.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        n = values.shape[-1] if values.ndim else 0
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"angular sample count must be a power of two >= 2, got {n}")
        object.__setattr__(self, "values", values)

    @property
    def n_theta(self) -> int:
        return self.values.shape[-1]

    @property
    def thetas(self) -> np.ndarray:
        return angular_grid(self.n_theta)

    @classmethod
    def sample(cls, fn, n_theta: int) -> "AngularSamples":
        """Samples of a callable of theta (vectorized) on the grid."""
        return cls(np.asarray(fn(angular_grid(n_theta))))

    def coefficient(self, k: int) -> np.ndarray:
        return fourier_coefficient(self.values, k)


def reconstruct(coefficients: dict, thetas) -> np.ndarray:
    """Mode sum (2 pi)**-0.5 sum_k c_k exp(i k theta).

    ``coefficients`` maps wavenumbers to arrays of a common shape; the
    result has that shape plus a trailing theta axis.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    items = sorted(coefficients.items())
    if not items:
        raise ValueError("empty mode dictionary")
    first = np.asarray(items[0][1], dtype=complex)
    out = np.zeros(first.shape + thetas.shape, dtype=complex)
    for k, coeff in items:
        coeff = np.asarray(coeff, dtype=complex)
        out += coeff[..., None] * np.exp(1j * k * thetas)
    return out / _SQRT_2PI


def complete_real_modes(modes: dict) -> dict:
    """Fill negative wavenumbers by conjugation symmetry of real fields."""
    out = dict(modes)
    for k, value in modes.items():
        if k > 0 and -k not in modes:
            out[-k] = _conj_value(value)
    return out


def conjugation_defect(modes: dict) -> float:
    """Largest violation of c_{-k} = conj(c_k) over available pairs."""
    worst = 0.0
    for k, value in modes.items():
        if k < 0 or -k not in modes:
            continue
        expected = _conj_value(value)
        actual = modes[-k]
        worst = max(worst, _max_abs_diff(actual, expected))
    return worst


def _conj_value(value):
    if isinstance(value, tuple):
        return tuple(np.conj(np.asarray(c)) for c in value)
    return np.conj(np.asarray(value))


def _max_abs_diff(a, b) -> float:
    if isinstance(a, tuple):
        return max(_max_abs_diff(x, y) for x, y in zip(a, b))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


def anisotropic_norm(norms_by_k: dict, s: float) -> float:
    """Smoothness-weighted mode sum: sqrt(sum_k (1 + k^2)**s norm_k**2)."""
    total = 0.0
    for k, value in norms_by_k.items():
        total += (1.0 + k * k) ** s * float(value) ** 2
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ModeVectors:
    """Degree-of-freedom coefficients of one solved mode.

    ``u`` holds the three velocity components, shape (3, n_vel); ``p`` the
    pressure coefficients, shape (n_p,).  Both complex.
    """

    u: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        p = np.asarray(self.p, dtype=complex)
        if u.ndim != 2 or u.shape[0] != 3:
            raise ValueError("u must have shape (3, n_vel)")
        if p.ndim != 1:
            raise ValueError("p must be one-dimensional")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)

    @property
    def n_vel(self) -> int:
        return self.u.shape[1]

    @property
    def n_p(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class FourierStack:
    """A family of solved modes sharing one mesh.

    ``modes`` maps wavenumbers to ModeVectors; ``n_max`` is the nominal
    truncation order; ``real_data`` records whether the stack came from
    real 3D data (negative modes then follow by conjugation and may be
    stored or implied); ``mesh_id`` ties the coefficients to the mesh
    whose numbering they use.
    """

    n_max: int
    real_data: bool
    mesh_id: str
    modes: dict

    def __post_init__(self):
        if not self.modes:
            raise ValueError("a mode stack needs at least one mode")
        shapes = {(mv.n_vel, mv.n_p) for mv in self.modes.values()}
        if len(shapes) != 1:
            raise ValueError("all modes in a stack must share dof counts")

    @property
    def wavenumbers(self):
        return sorted(self.modes)

    def mode(self, k: int) -> ModeVectors:
        if k in self.modes:
            return self.modes[k]
        if self.real_data and -k in self.modes:
            source = self.modes[-k]
            return ModeVectors(np.conj(source.u), np.conj(source.p))
        raise KeyError(f"mode {k} not in stack")


_STACK_TAG = "axistokes-stack v1"
_MODE_HEADER = (
    "dof_index, re_ur, im_ur, re_utheta, im_utheta, re_uz, im_uz, re_p, im_p"
)


def write_stack(stack: FourierStack, directory) -> None:
    """Serialize a stack as a directory of per-mode CSV files plus metadata."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = [
        _STACK_TAG,
        f"n_max {stack.n_max}",
        f"real_data {int(stack.real_data)}",
        f"mesh_id {stack.mesh_id}",
        "modes " + " ".join(str(k) for k in stack.wavenumbers),
    ]
    (directory / "stack.meta").write_text("\n".join(meta) + "\n")
    for k in stack.wavenumbers:
        mv = stack.modes[k]
        # One column of text per real or imaginary part; pressure rows stop
        # at n_p and are padded with empty fields.
        columns = [map(str, range(mv.n_vel))]
        for values in (*mv.u, mv.p):
            pad = [""] * (mv.n_vel - values.size)
            for part in (values.real, values.imag):
                columns.append(itertools.chain(map(repr, part.tolist()), pad))
        lines = [_MODE_HEADER, *map(", ".join, zip(*columns))]
        (directory / f"mode_{k}.csv").write_text("\n".join(lines) + "\n")


def read_stack(directory) -> FourierStack:
    """Load a stack written by write_stack."""
    directory = Path(directory)
    meta_path = directory / "stack.meta"
    if not meta_path.is_file():
        raise MeshError(f"{meta_path}: stack metadata file not found")
    lines = [ln.strip() for ln in meta_path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != _STACK_TAG:
        raise MeshError(f"{meta_path}: expected header '{_STACK_TAG}'")
    fields = {}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        fields[key] = rest.strip()
    try:
        n_max = int(fields["n_max"])
        real_data = bool(int(fields["real_data"]))
        mesh_id = fields["mesh_id"]
        wavenumbers = [int(tok) for tok in fields["modes"].split()]
    except (KeyError, ValueError) as exc:
        raise MeshError(f"{meta_path}: malformed metadata ({exc})") from exc
    modes = {}
    for k in wavenumbers:
        modes[k] = _read_mode_csv(directory / f"mode_{k}.csv")
    return FourierStack(n_max=n_max, real_data=real_data, mesh_id=mesh_id, modes=modes)


def _read_mode_csv(path: Path) -> ModeVectors:
    if not path.is_file():
        raise MeshError(f"{path}: mode file not found")
    lines = path.read_text().splitlines()
    if not lines or _normalize_header(lines[0]) != _normalize_header(_MODE_HEADER):
        raise MeshError(f"{path}: unexpected column header")
    u_rows, p_rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 9:
            raise MeshError(f"{path}:{lineno}: expected 9 columns, got {len(cells)}")
        try:
            idx = int(cells[0])
            vals = [float(c) if c else None for c in cells[1:]]
        except ValueError as exc:
            raise MeshError(f"{path}:{lineno}: bad number ({exc})") from exc
        if idx != len(u_rows):
            raise MeshError(f"{path}:{lineno}: dof_index must be consecutive from 0")
        u_rows.append(
            [complex(vals[0], vals[1]), complex(vals[2], vals[3]), complex(vals[4], vals[5])]
        )
        if vals[6] is not None and vals[7] is not None:
            p_rows.append(complex(vals[6], vals[7]))
    u = np.asarray(u_rows, dtype=complex).T if u_rows else np.zeros((3, 0), complex)
    return ModeVectors(u=u, p=np.asarray(p_rows, dtype=complex))


def _normalize_header(header: str) -> str:
    return re.sub(r"\s+", "", header)


def reconstruct_stack(stack: FourierStack, thetas, frame: str = "cylindrical"):
    """Sample the 3D field a stack represents at given angles.

    Returns (u, p) with u of shape (3, n_vel, n_theta) and p of shape
    (n_p, n_theta).  ``frame`` picks physical cylindrical components or
    Cartesian ones (rotated by the angle).
    """
    if frame not in ("cylindrical", "cartesian"):
        raise ValueError("frame must be 'cylindrical' or 'cartesian'")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    u_modes = {c: {} for c in range(3)}
    p_modes = {}
    for k in stack.wavenumbers:
        mv = stack.modes[k]
        for c in range(3):
            u_modes[c][k] = mv.u[c]
        p_modes[k] = mv.p
    u = np.stack([reconstruct(u_modes[c], thetas) for c in range(3)])
    p = reconstruct(p_modes, thetas)
    if frame == "cartesian":
        ux, uy, uz = rotate_to_cartesian((u[0], u[1], u[2]), thetas)
        u = np.stack([ux, uy, uz])
    return u, p
