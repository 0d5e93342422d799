"""Legacy ASCII VTK export of revolved mode stacks.

The meridian triangulation is revolved into rings of wedge cells: each
triangle and each pair of adjacent angular stations makes one 6-node
wedge.  Velocity is written as a Cartesian vector and pressure as a
scalar at the mesh vertices (pressure nodes), reconstructed from the mode
stack by the angular mode sum.  Stacks from real data are written as real
fields; a complex stack exports its real part with a warning when the
imaginary part is not negligible.
"""

import warnings

import numpy as np

from .fourier import FourierStack, angular_grid, reconstruct_stack
from .meshing import MeridianMesh

__all__ = ["write_vtk"]

# Largest imaginary part of the reconstructed field written without a warning.
_IMAG_TOL = 1e-9
# Rows of a block formatted and written at a time.
_CHUNK_ROWS = 4096


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
    # Point columns run over (station, vertex) pairs, stations outermost.
    with open(path, "w") as fh:
        _write_block(
            fh,
            [
                "# vtk DataFile Version 3.0",
                "revolved axisymmetric Stokes mode stack",
                "ASCII",
                "DATASET UNSTRUCTURED_GRID",
                f"POINTS {nv * n_theta} float",
            ],
            (r * cos).ravel(),
            (r * sin).ravel(),
            # z is the same at every station: formatted once, repeated.
            list(map(repr, z.tolist())) * n_theta,
        )
        _write_block(
            fh,
            [f"CELLS {n_cells} {n_cells * 7}"],
            ["6"] * n_cells,
            *wedges.reshape(-1, 6).T,
        )
        _write_block(fh, [f"CELL_TYPES {n_cells}"], ["13"] * n_cells)
        _write_block(
            fh,
            [f"POINT_DATA {nv * n_theta}", "VECTORS velocity float"],
            *(c.T.ravel() for c in u),
        )
        _write_block(
            fh, ["SCALARS pressure float 1", "LOOKUP_TABLE default"], p.T.ravel()
        )


def _write_block(fh, head, *columns) -> None:
    """Write the head lines, then one line per row of the columns' entries.

    A column is a 1D array, whose entries are formatted with repr, or a
    list of the entries' text; entries are space-separated.  The rows are
    formatted and written ``_CHUNK_ROWS`` at a time, so the text of a
    whole block is never held.
    """
    fh.write("".join(line + "\n" for line in head))
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        parts = (c[start : start + _CHUNK_ROWS] for c in columns)
        texts = (c if isinstance(c, list) else map(repr, c.tolist()) for c in parts)
        fh.write("\n".join(map(" ".join, zip(*texts))) + "\n")
