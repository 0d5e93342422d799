"""Legacy ASCII VTK export of revolved mode stacks.

The meridian triangulation is revolved into rings of wedge cells: each
triangle and each pair of adjacent angular stations makes one 6-node
wedge.  Velocity is written as a Cartesian vector and pressure as a
scalar at the mesh vertices (pressure nodes), reconstructed from the mode
stack by the angular mode sum.  Stacks from real data are written as real
fields; a complex stack exports its real part with a warning when the
imaginary part is not negligible.
"""

import itertools
import warnings

import numpy as np

from .fourier import FourierStack, angular_grid, reconstruct_stack
from .meshing import MeridianMesh

__all__ = ["write_vtk"]

# Largest imaginary part of the reconstructed field written without a warning.
_IMAG_TOL = 1e-9


def write_vtk(path, mesh: MeridianMesh, stack: FourierStack, n_theta: int = 32) -> None:
    """Write the revolved 3D field of a mode stack as an ASCII VTK file."""
    if stack.mesh_id != mesh.mesh_id:
        raise ValueError(
            "stack was computed on a different mesh "
            f"({stack.mesh_id} vs {mesh.mesh_id})"
        )
    if n_theta < 3:
        raise ValueError("need at least three angular stations to revolve")
    thetas = angular_grid(n_theta)
    u, p = reconstruct_stack(stack, thetas, frame="cartesian")
    nv = mesh.n_vertices
    u = u[:, :nv, :]
    worst_imag = max(float(np.max(np.abs(u.imag))), float(np.max(np.abs(p.imag))))
    if worst_imag > _IMAG_TOL:
        warnings.warn(
            f"reconstructed field has imaginary part up to {worst_imag:.3e}; "
            "writing the real part",
            stacklevel=2,
        )
    u = u.real
    p = p.real

    r = mesh.vertices[:, 0]
    z = mesh.vertices[:, 1]
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    # Wedge j joins triangle (a, b, c) on station j to the same triangle on
    # station j + 1, the last station wrapping round to the first.
    n_cells = mesh.n_triangles * n_theta
    station = np.arange(n_theta)[:, None, None] * nv
    tri = mesh.triangles[None, :, :]
    nxt = np.roll(station, -1, axis=0)
    wedges = np.concatenate([station + tri, nxt + tri], axis=-1)
    # One block at a time, so that the text of the whole file is never held.
    with open(path, "w") as fh:
        fh.write(
            _block(
                [
                    "# vtk DataFile Version 3.0",
                    "revolved axisymmetric Stokes mode stack",
                    "ASCII",
                    "DATASET UNSTRUCTURED_GRID",
                    f"POINTS {nv * n_theta} float",
                ],
                _rows(r * cos, r * sin, np.broadcast_to(z, (n_theta, nv))),
            )
        )
        fh.write(
            _block(
                [f"CELLS {n_cells} {n_cells * 7}"],
                _rows(np.full(n_cells, 6), *wedges.reshape(-1, 6).T),
            )
        )
        fh.write(_block([f"CELL_TYPES {n_cells}"], ["13"] * n_cells))
        fh.write(
            _block(
                [f"POINT_DATA {nv * n_theta}", "VECTORS velocity float"],
                _rows(*(c.T for c in u)),
            )
        )
        fh.write(
            _block(["SCALARS pressure float 1", "LOOKUP_TABLE default"], _rows(p.T))
        )


def _block(head, rows) -> str:
    return "\n".join(itertools.chain(head, rows)) + "\n"


def _rows(*columns):
    """Lines of the columns' entries, each formatted with repr, space-separated.

    Arrays are read in C order, so a (n_theta, nv) column gives one line per
    (station, vertex) pair, stations outermost.
    """
    return map(" ".join, zip(*(map(repr, np.ravel(c).tolist()) for c in columns)))
