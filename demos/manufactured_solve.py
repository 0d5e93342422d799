"""
Solving one mode against a manufactured flow
============================================

Each wavenumber k gives an independent complex saddle-point problem on
the meridian mesh.  Here the built-in manufactured cases (polynomial
velocity and pressure with a matching body force) drive solves at
k = 0, 1, 2; quadratic flows lie inside the Taylor-Hood space, so the
discrete solution reproduces them to solver precision.  The solved mode
stack then goes to disk and to a revolved 3D VTK file.
"""

from pathlib import Path

import numpy as np

from axistokes import (
    FemSpace,
    FourierStack,
    ModeVectors,
    VectorModeFn,
    assemble,
    boundary_flux,
    builtin_cases,
    generate_structured,
    norm_report_csv,
    read_stack,
    scalar_mode_norm,
    solve_mode,
    vector_mode_norm,
    write_stack,
    write_vtk,
)

out = Path(__file__).resolve().parent / "output"
out.mkdir(exist_ok=True)

mesh = generate_structured((1.0, 1.0), 0.125)
space = FemSpace(mesh)
cases = builtin_cases()

modes = {}
reports = []
for name in ("k0_exact", "k1_exact", "k2_exact"):
    case = cases[name]
    system = assemble(space, case.k, g=case.u)
    sol = solve_mode(system, f=case.f, g_div=case.g_div)
    modes[case.k] = ModeVectors(sol.u, sol.p)

    u_norm = vector_mode_norm(mesh, sol.velocity_fields(), k=case.k)
    p_norm = scalar_mode_norm(mesh, sol.pressure_field(), case.k)
    reports.append(u_norm)
    print(f"{name}: k = {case.k}")
    print(f"  velocity residual  {sol.report.res_u:.3e}")
    print(f"  pressure residual  {sol.report.res_p:.3e}")
    print(f"  |u|_H1k            {u_norm.h1k:.6f}")
    print(f"  |p|_L2r            {p_norm.l2_1:.6f}")
    if case.k == 0:
        # Compatibility check: the axisymmetric mode of a divergence-free
        # field carries no net volume flux through the meridian boundary.
        flux = boundary_flux(space, sol.u)
        print(f"  boundary flux      {abs(flux):.3e}")

# The axisymmetric mode with real data has a real solution: its solve is
# one real column, and the solution's imaginary parts are exactly zero.
# The same data times a unit phase e^(i phi) takes two real columns; its
# solution, divided by the phase, gives the same answer.
case = cases["k0_convergence"]
real = solve_mode(assemble(space, 0, g=case.u), f=case.f)
phase = np.exp(0.3j)
g, f = (
    VectorModeFn(0, tuple(phase * c for c in v.components))
    for v in (case.u, case.f)
)
phased = solve_mode(assemble(space, 0, g=g), f=f)
gap = max(
    np.abs(real.u - phased.u / phase).max(), np.abs(real.p - phased.p / phase).max()
)
exact = not np.any(real.u.imag) and not np.any(real.p.imag)
print(
    f"\nreal data gives an exactly real solution: {exact}; "
    f"agreement with the e^(i phi) solve {gap:.3e}"
)

# Collect the solved modes into a stack tied to this mesh and persist it.
stack = FourierStack(n_max=2, real_data=False, mesh_id=mesh.mesh_id, modes=modes)
stack_dir = out / "stack"
write_stack(stack, stack_dir)
again = read_stack(stack_dir)
print(f"\nwrote stack with modes {again.wavenumbers} to {stack_dir}")

csv_path = out / "velocity_norms.csv"
csv_path.write_text(norm_report_csv(reports))
print(f"wrote {csv_path}")

# Revolve the k=0 mode alone into a 3D unstructured-grid file.
axi = FourierStack(
    n_max=0, real_data=True, mesh_id=mesh.mesh_id, modes={0: modes[0]}
)
vtk_path = out / "axisymmetric.vtk"
write_vtk(vtk_path, mesh, axi, n_theta=24)
print(f"wrote {vtk_path}")
