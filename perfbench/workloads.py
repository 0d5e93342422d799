"""Benchmark workloads: seeded inputs, CLI arguments and reference values.

Every solve workload is real 3D expression data whose mode-k part is a
complex scalar c_k(seed) times a fixed, seed-independent shape.  The
solve is linear, so the mode-k solution is c_k times the solution for
unit data, and each mode norm is |c_k| times the entry of
``reference.json`` (made by ``make_reference.py`` from unit data).  The
seed changes the amplitudes and phases only, so the angular spectrum and
the work per mode are the same for every seed.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Relative tolerance of the mode norms against the reference table, plus
# an absolute floor relative to the workload's largest norm (fast-decaying
# modes are sampled from O(1) data, so their own digits are fewer), bound
# on the true residuals relative to the reduced data, and bound on
# |u_{-k} - conj(u_k)| relative to the largest coefficient of mode k.
NORM_RTOL = 1e-6
NORM_FLOOR = 1e-13
RESIDUAL_RTOL = 1e-7
CONJ_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "solve" or "verify"
    h: float = None
    modes: str = None  # the [modes] line
    method: str = None
    content: tuple = ()  # wavenumbers carried by trig-polynomial data
    decaying: bool = False  # data divided by (1.5 - cos(theta - P))
    n_theta: int = None
    vtk: bool = False
    vtk_n_theta: int = 32


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fine_uzawa",
            why="solver-bound: h=1/64, k=0..2, uzawa; factorizations of A_hat "
            "and Uzawa back-solves dominate",
            command="solve",
            h=1 / 64,
            modes="n_max = 2",
            method="uzawa",
            content=(0, 1, 2),
            n_theta=16,
        ),
        Workload(
            name="many_modes_vtk",
            why="per-mode fixed costs and output: h=1/16, k=-24..24, uzawa, VTK; "
            "the only workload with +-k pairs",
            command="solve",
            h=1 / 16,
            modes="wavenumbers = " + " ".join(str(k) for k in range(-24, 25)),
            method="uzawa",
            decaying=True,
            n_theta=128,
            vtk=True,
            vtk_n_theta=96,
        ),
        Workload(
            name="verify",
            why="property suite on the default meshes; isometry_suite does the "
            "work, the solver almost none; fixed input (the CLI takes no seed)",
            command="verify",
        ),
    )
}


def amplitudes(workload: Workload, seed: int) -> dict:
    """Amplitude A and phase P of each angular term, drawn from the seed.

    Unit amplitudes with zero phase (seed None) give the reference data.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    keys = ("all",) if workload.decaying else workload.content
    out = {}
    for key in keys:
        if seed is None:
            out[key] = (1.0, 0.0)
        else:
            out[key] = (rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
    if 0 in out:
        out[0] = (out[0][0], 0.0)  # mode 0 stays real: no phase
    return out


def _trig_components(terms: dict):
    fr, ft, fz = [], [], []
    for k, (a, p) in sorted(terms.items()):
        if k == 0:
            fr.append(f"{a!r}*r*z*(1 - r)")
            ft.append(f"{a!r}*r*(1 + z)")
            fz.append(f"{a!r}*(1 + r)*z")
            continue
        arg = f"{k}*theta + {p!r}"
        fr.append(f"{a!r}*r*z*(1 - r)*cos({arg})")
        ft.append(f"{a!r}*r*(1 + z)*sin({arg})")
        fz.append(f"{a!r}*(1 + r)*z*cos({arg})")
    return " + ".join(fr), " + ".join(ft), " + ".join(fz)


def _decaying_components(a: float, p: float):
    den = f"(1.5 - cos(theta - {p!r}))"
    return (
        f"{a!r}*r*z*(1 - r)/{den}",
        f"{a!r}*r*(1 + z)*sin(theta - {p!r})/{den}",
        f"{a!r}*(1 + r)*z/{den}",
    )


def config_text(workload: Workload, seed) -> str:
    """INI configuration of a solve workload for one seed."""
    terms = amplitudes(workload, seed)
    if workload.decaying:
        fr, ft, fz = _decaying_components(*terms["all"])
    else:
        fr, ft, fz = _trig_components(terms)
    return "\n".join(
        [
            "[domain]",
            "rectangle = 1.0 1.0",
            f"h = {workload.h!r}",
            "",
            "[data]",
            f"fr = {fr}",
            f"ftheta = {ft}",
            f"fz = {fz}",
            f"n_theta = {workload.n_theta}",
            "",
            "[modes]",
            workload.modes,
            "",
            "[solver]",
            f"method = {workload.method}",
            "",
            "[output]",
            "directory = out",
            f"vtk = {'yes' if workload.vtk else 'no'}",
            f"vtk_n_theta = {workload.vtk_n_theta}",
            "",
        ]
    )


def mode_scale(workload: Workload, seed, k: int) -> float:
    """|c_k|: the factor between mode k's data and the unit reference data."""
    terms = amplitudes(workload, seed)
    if workload.decaying:
        return terms["all"][0]
    return terms[abs(k)][0]


def cli_args(workload: Workload, config_path) -> list:
    """Arguments of the workload's axistokes command."""
    if workload.command == "verify":
        return ["verify"]
    return ["solve", "--config", str(config_path), "--deterministic"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def read_norms(path) -> dict:
    """Rows of a norm table written by ``axistokes solve``: {k: {column: value}}."""
    lines = Path(path).read_text().splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    rows = {}
    for line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        rows[int(cells[0])] = {h: float(c) for h, c in zip(header[1:], cells[1:])}
    return rows
