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


def write_vtk(
    path,
    mesh: MeridianMesh,
    stack: FourierStack,
    n_theta: int = 32,
    imag_tol: float = 1e-9,
) -> None:
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
    if worst_imag > imag_tol:
        warnings.warn(
            f"reconstructed field has imaginary part up to {worst_imag:.3e}; "
            "writing the real part",
            stacklevel=2,
        )
    u = u.real
    p = p.real

    r = mesh.vertices[:, 0]
    z = mesh.vertices[:, 1]
    lines = [
        "# vtk DataFile Version 3.0",
        "revolved axisymmetric Stokes mode stack",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv * n_theta} float",
    ]
    for th in thetas:
        x = r * np.cos(th)
        y = r * np.sin(th)
        for i in range(nv):
            lines.append(f"{float(x[i])!r} {float(y[i])!r} {float(z[i])!r}")

    nt = mesh.n_triangles
    n_cells = nt * n_theta
    lines.append(f"CELLS {n_cells} {n_cells * 7}")
    for j in range(n_theta):
        base = j * nv
        nxt = ((j + 1) % n_theta) * nv
        for tri in mesh.triangles:
            a, b, c = (int(v) for v in tri)
            lines.append(
                f"6 {base + a} {base + b} {base + c} {nxt + a} {nxt + b} {nxt + c}"
            )
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend(["13"] * n_cells)

    lines.append(f"POINT_DATA {nv * n_theta}")
    lines.append("VECTORS velocity float")
    for j in range(n_theta):
        for i in range(nv):
            lines.append(
                f"{float(u[0, i, j])!r} {float(u[1, i, j])!r} {float(u[2, i, j])!r}"
            )
    lines.append("SCALARS pressure float 1")
    lines.append("LOOKUP_TABLE default")
    for j in range(n_theta):
        for i in range(nv):
            lines.append(f"{float(p[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
