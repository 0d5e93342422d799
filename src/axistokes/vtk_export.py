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

from .fourier import FourierStack, ModeVectors, angular_grid, reconstruct_stack
from .meshing import MeridianMesh

__all__ = ["write_vtk"]

# Largest imaginary part of the reconstructed field written without a warning.
_IMAG_TOL = 1e-9
# Rows of a block formatted and written at a time.
_CHUNK_ROWS = 4096
# Samples (vertices x stations) of the field reconstructed at a time.
_BLOCK_SAMPLES = 2**13


def write_vtk(path, mesh: MeridianMesh, stack: FourierStack, n_theta: int = 32) -> None:
    """Write the revolved 3D field of a mode stack as an ASCII VTK file.

    Only the vertex rows of the stack are reconstructed, a block of
    vertices at a time, and every block of the file is built and written a
    chunk of rows at a time.
    """
    if stack.mesh_id != mesh.mesh_id:
        raise ValueError(
            "stack was computed on a different mesh "
            f"({stack.mesh_id} vs {mesh.mesh_id})"
        )
    if n_theta < 3:
        raise ValueError("need at least three angular stations to revolve")
    thetas = angular_grid(n_theta)
    nv = mesh.n_vertices
    # The real parts of the point data, station-major like the file's rows.
    u = np.empty((3, n_theta, nv))
    p = np.empty((n_theta, nv))
    worst_imag = 0.0
    for lo, hi in _vertex_blocks(nv, n_theta):
        block = FourierStack(
            n_max=stack.n_max,
            real_data=stack.real_data,
            mesh_id=stack.mesh_id,
            modes={k: ModeVectors(mv.u[:, lo:hi], mv.p[lo:hi]) for k, mv in stack.modes.items()},
        )
        u_rows, p_rows = reconstruct_stack(block, thetas, frame="cartesian")
        worst_imag = max(worst_imag, np.abs(u_rows.imag).max(), np.abs(p_rows.imag).max())
        u[:, :, lo:hi] = u_rows.real.transpose(0, 2, 1)
        p[:, lo:hi] = p_rows.real.T
    if worst_imag > _IMAG_TOL:
        warnings.warn(
            f"reconstructed field has imaginary part up to {worst_imag:.3e}; "
            "writing the real part",
            stacklevel=2,
        )

    r = mesh.vertices[:, 0]
    # z is the same at every station: formatted once, picked per row.
    z_text = np.array(list(map(repr, mesh.vertices[:, 1].tolist())), dtype=object)
    cos, sin = np.cos(thetas), np.sin(thetas)
    n_tri = mesh.n_triangles
    n_cells = n_tri * n_theta

    # Point rows run over (station, vertex) pairs, stations outermost.
    def points(rows):
        j, v = np.divmod(rows, nv)
        return r[v] * cos[j], r[v] * sin[j], z_text[v].tolist()

    # Wedge j joins triangle (a, b, c) on station j to the same triangle on
    # station j + 1, the last station wrapping round to the first.
    def cells(rows):
        j, t = np.divmod(rows, n_tri)
        tri = mesh.triangles[t].T
        here, there = j * nv, ((j + 1) % n_theta) * nv
        return ["6"] * len(rows), *(here + tri), *(there + tri)

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
            nv * n_theta,
            points,
        )
        _write_block(fh, [f"CELLS {n_cells} {n_cells * 7}"], n_cells, cells)
        _write_block(
            fh, [f"CELL_TYPES {n_cells}"], n_cells, lambda rows: (["13"] * len(rows),)
        )
        _write_block(
            fh,
            [f"POINT_DATA {nv * n_theta}", "VECTORS velocity float"],
            nv * n_theta,
            lambda rows: tuple(c.ravel()[rows] for c in u),
        )
        _write_block(
            fh,
            ["SCALARS pressure float 1", "LOOKUP_TABLE default"],
            nv * n_theta,
            lambda rows: (p.ravel()[rows],),
        )


def _vertex_blocks(nv: int, n_theta: int):
    """(lo, hi) bounds of the vertex blocks reconstructed at a time.

    A block holds about ``_BLOCK_SAMPLES`` samples and never a single
    vertex: the mode sum of one row goes through NumPy's matrix-vector
    product, which may round differently from the matrix product of the
    whole field.
    """
    step = max(2, _BLOCK_SAMPLES // n_theta)
    starts = list(range(0, nv, step))
    if len(starts) > 1 and nv - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [nv])


def _write_block(fh, head, n_rows: int, columns) -> None:
    """Write the head lines, then one line per row of the block.

    ``columns(rows)`` gives the block's columns at the row indices
    ``rows``: each a 1D array, whose entries are formatted with repr, or a
    list of the entries' text; entries are space-separated.  The rows are
    built, formatted and written ``_CHUNK_ROWS`` at a time, so no text or
    column table of a whole block is made.
    """
    fh.write("".join(line + "\n" for line in head))
    for start in range(0, n_rows, _CHUNK_ROWS):
        parts = columns(np.arange(start, min(start + _CHUNK_ROWS, n_rows)))
        texts = (c if isinstance(c, list) else map(repr, c.tolist()) for c in parts)
        fh.write("\n".join(map(" ".join, zip(*texts))) + "\n")
