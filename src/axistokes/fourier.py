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

The mode sum is one product over the mode axis: the coefficients are
stacked along a trailing axis and multiplied by the matrix of normalized
phases exp(i k theta) / sqrt(2 pi), so arbitrary angles cost no more than
equispaced ones.  Angular integrals use the equispaced trapezoid rule,
which is exact for trigonometric polynomials resolved by the sample
count; coefficients come from the bins of one FFT, and this module is
the only one that calls the FFT.  Extracting modes up to |k| = K takes
any sample count of at least 4K + 2, so that quadratically nonlinear
integrands of resolved fields cannot alias into an extracted bin;
``min_angular_samples`` picks the smallest power of two that meets this,
and ``AngularSamples`` takes powers of two only.
"""

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .meshing import MeshError, _read_text

__all__ = [
    "AngularSamples",
    "FourierStack",
    "ModeVectors",
    "angular_grid",
    "anisotropic_norm",
    "conjugation_defect",
    "fourier_coefficients",
    "min_angular_samples",
    "read_stack",
    "reconstruct",
    "reconstruct_stack",
    "rotate_to_cartesian",
    "rotate_to_cylindrical",
    "write_stack",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def angular_grid(n_theta: int) -> np.ndarray:
    """Equispaced angles theta_j = 2 pi j / n, j = 0..n-1."""
    if n_theta < 2:
        raise ValueError("need at least two angular samples")
    return 2.0 * np.pi * np.arange(n_theta) / n_theta


def min_angular_samples(n_max: int) -> int:
    """Smallest power of two meeting the aliasing guard for modes up to n_max."""
    need = 4 * abs(int(n_max)) + 2
    n = 2
    while n < need:
        n *= 2
    return n


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


def fourier_coefficients(values: np.ndarray, ks) -> np.ndarray:
    """Coefficients of modes ``ks`` of samples on angular_grid (last axis).

    One FFT serves every k; the coefficients replace the sample axis, in
    the order of ``ks``.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    n_max = max(map(abs, ks), default=0)
    if n < 4 * n_max + 2:
        raise ValueError(
            f"extracting mode {n_max} needs at least {4 * n_max + 2} angular "
            f"samples to rule out aliasing, got {n}"
        )
    spectrum = np.fft.fft(values, axis=-1)
    return spectrum[..., [k % n for k in ks]] * (_SQRT_2PI / n)


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
        return fourier_coefficients(self.values, [k])[..., 0]


def reconstruct(coefficients: dict, thetas) -> np.ndarray:
    """Mode sum (2 pi)**-0.5 sum_k c_k exp(i k theta).

    ``coefficients`` maps wavenumbers to arrays of a common shape; the
    result has that shape plus a trailing theta axis.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not coefficients:
        raise ValueError("empty mode dictionary")
    ks = sorted(coefficients)
    stacked = np.stack(
        [np.asarray(coefficients[k], dtype=complex) for k in ks], axis=-1
    )
    phases = np.exp(1j * np.outer(ks, thetas)) / _SQRT_2PI
    out = stacked.reshape(-1, len(ks)) @ phases
    return out.reshape(stacked.shape[:-1] + thetas.shape)


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

    def paired(k):
        return stack.real_data and k != 0 and -k in stack.modes

    for k in stack.wavenumbers:
        if k < 0 and paired(k):
            continue  # written with mode -k
        mv = stack.modes[k]
        if not paired(k):
            _write_mode(directory, k, mv.n_vel, _value_columns(mv))
            continue
        # Real data: mode -k is normally conj(mode k) bit for bit, so its
        # real columns are mode k's text and its imaginary ones that text
        # negated.  Bytes, not ==, decide: 0.0 == -0.0 but the reprs differ.
        columns = [list(c) for c in _value_columns(mv)]
        _write_mode(directory, k, mv.n_vel, columns)
        mirror = stack.modes[-k]
        if (
            mirror.u.tobytes() == np.conj(mv.u).tobytes()
            and mirror.p.tobytes() == np.conj(mv.p).tobytes()
        ):
            columns[1::2] = [list(map(_negated, c)) for c in columns[1::2]]
        else:
            columns = _value_columns(mirror)
        _write_mode(directory, -k, mv.n_vel, columns)


def _value_columns(mv: ModeVectors) -> list:
    """repr text of the real and imaginary parts of u_r, u_theta, u_z and p."""
    return [
        map(repr, part.tolist())
        for values in (*mv.u, mv.p)
        for part in (values.real, values.imag)
    ]


def _negated(text: str) -> str:
    """repr(-x) from repr(x): the sign toggled as text, nan kept as it is."""
    if text[0] == "-":
        return text[1:]
    return text if text == "nan" else "-" + text


def _write_mode(directory: Path, k: int, n_vel: int, columns) -> None:
    # Pressure columns stop at n_p; their rows are padded with empty fields.
    rows = itertools.zip_longest(map(str, range(n_vel)), *columns, fillvalue="")
    lines = itertools.chain([_MODE_HEADER], map(", ".join, rows))
    (directory / f"mode_{k}.csv").write_text("\n".join(lines) + "\n")


def read_stack(directory) -> FourierStack:
    """Load a stack written by write_stack."""
    directory = Path(directory)
    meta_path = directory / "stack.meta"
    if not meta_path.is_file():
        raise MeshError(f"{meta_path}: stack metadata file not found")
    lines = [ln.strip() for ln in _read_text(meta_path).splitlines() if ln.strip()]
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
    try:
        return FourierStack(n_max=n_max, real_data=real_data, mesh_id=mesh_id, modes=modes)
    except ValueError as exc:
        raise MeshError(f"{directory}: {exc}") from exc


def _read_mode_csv(path: Path) -> ModeVectors:
    """One mode file: a velocity in every row, a pressure in the first n_p rows."""
    if not path.is_file():
        raise MeshError(f"{path}: mode file not found")
    lines = _read_text(path).splitlines()
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
            vals = [float(c) for c in cells[1:7]]
            p_vals = [float(c) for c in cells[7:] if c]
        except ValueError as exc:
            raise MeshError(f"{path}:{lineno}: bad number ({exc})") from exc
        if idx != len(u_rows):
            raise MeshError(f"{path}:{lineno}: dof_index must be consecutive from 0")
        u_rows.append(
            [complex(vals[0], vals[1]), complex(vals[2], vals[3]), complex(vals[4], vals[5])]
        )
        if len(p_vals) == 1:
            raise MeshError(f"{path}:{lineno}: pressure needs both cells or neither")
        if p_vals:
            if len(p_rows) != idx:
                raise MeshError(f"{path}:{lineno}: pressure after a row without one")
            p_rows.append(complex(*p_vals))
    u = np.asarray(u_rows, dtype=complex).T if u_rows else np.zeros((3, 0), complex)
    return ModeVectors(u=u, p=np.asarray(p_rows, dtype=complex))


def _normalize_header(header: str) -> str:
    return re.sub(r"\s+", "", header)


def reconstruct_stack(stack: FourierStack, thetas, frame: str = "cylindrical"):
    """Sample the 3D field a stack represents at given angles.

    Returns (u, p) with u of shape (3, n_vel, n_theta) and p of shape
    (n_p, n_theta).  ``frame`` picks physical cylindrical components or
    Cartesian ones (rotated by the angle).  A real-data stack sums over
    +-k, its missing negative modes taken by conjugation.
    """
    if frame not in ("cylindrical", "cartesian"):
        raise ValueError("frame must be 'cylindrical' or 'cartesian'")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    ks = set(stack.wavenumbers)
    if stack.real_data:
        ks |= {-k for k in ks}
    modes = {k: stack.mode(k) for k in ks}
    u = reconstruct({k: mv.u for k, mv in modes.items()}, thetas)
    p = reconstruct({k: mv.p for k, mv in modes.items()}, thetas)
    if frame == "cartesian":
        u = np.stack(rotate_to_cartesian(u, thetas))
    return u, p
