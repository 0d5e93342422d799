"""Fourier mode-by-mode finite element solver for axisymmetric Stokes flow.

The 3D stationary Stokes problem on a body of revolution splits into a
family of decoupled 2D problems on the meridian half-section, one per
angular wavenumber k.  This package assembles and solves those per-mode
problems with Taylor-Hood elements on triangles, measures fields in the
radially weighted norms the reduction is isometric for, and provides the
Fourier analysis utilities to move between 3D data and mode coefficients.
"""

from .expressions import ExpressionError, ExpressionField, ScalarExpressionField
from .fem import (
    FemScalarField,
    FemSpace,
    ModeSolution,
    SaddleSystem,
    assemble,
    boundary_flux,
)
from .fields import FnMode, Poly2, VectorModeFn, as_mode_function
from .fourier import (
    AngularSamples,
    FourierStack,
    ModeVectors,
    anisotropic_norm,
    angular_grid,
    complete_real_modes,
    conjugation_defect,
    fourier_coefficient,
    min_angular_samples,
    read_stack,
    reconstruct,
    reconstruct_stack,
    rotate_to_cartesian,
    rotate_to_cylindrical,
    write_stack,
)
from .meshing import (
    GAMMA,
    GAMMA0,
    DomainSpec,
    MeridianMesh,
    MeshError,
    generate_structured,
    mesh_from_spec,
    read_mesh,
    refine,
    triangulate_polygon,
    write_mesh,
)
from .norms import (
    FieldDifference,
    NormReport,
    integrate_weighted,
    mode_divergence_product,
    mode_energy_product,
    norm_report_csv,
    scalar_mode_norm,
    vector_mode_norm,
)
from .quadrature import QuadratureRule, edge_rule, triangle_rule
from .solver import (
    InfSupEstimate,
    SolveReport,
    SolverBreakdown,
    SolverConfig,
    estimate_inf_sup,
    solve_mode,
)
from .verification import (
    CheckResult,
    DecayFamily,
    ManufacturedCase,
    builtin_cases,
    convergence_study,
    isometry_suite,
    stability_study,
    strong_divergence,
    strong_force,
    strong_residual,
    truncation_study,
)
from .vtk_export import write_vtk

__version__ = "0.1.0"

__all__ = [
    "ExpressionError",
    "ExpressionField",
    "ScalarExpressionField",
    "FemScalarField",
    "FemSpace",
    "ModeSolution",
    "SaddleSystem",
    "assemble",
    "boundary_flux",
    "FnMode",
    "Poly2",
    "VectorModeFn",
    "as_mode_function",
    "AngularSamples",
    "FourierStack",
    "ModeVectors",
    "anisotropic_norm",
    "angular_grid",
    "complete_real_modes",
    "conjugation_defect",
    "fourier_coefficient",
    "min_angular_samples",
    "read_stack",
    "reconstruct",
    "reconstruct_stack",
    "rotate_to_cartesian",
    "rotate_to_cylindrical",
    "write_stack",
    "GAMMA",
    "GAMMA0",
    "DomainSpec",
    "MeridianMesh",
    "MeshError",
    "generate_structured",
    "mesh_from_spec",
    "read_mesh",
    "refine",
    "triangulate_polygon",
    "write_mesh",
    "FieldDifference",
    "NormReport",
    "integrate_weighted",
    "mode_divergence_product",
    "mode_energy_product",
    "norm_report_csv",
    "scalar_mode_norm",
    "vector_mode_norm",
    "QuadratureRule",
    "edge_rule",
    "triangle_rule",
    "InfSupEstimate",
    "SolveReport",
    "SolverBreakdown",
    "SolverConfig",
    "estimate_inf_sup",
    "solve_mode",
    "CheckResult",
    "DecayFamily",
    "ManufacturedCase",
    "builtin_cases",
    "convergence_study",
    "isometry_suite",
    "stability_study",
    "strong_divergence",
    "strong_force",
    "strong_residual",
    "truncation_study",
    "write_vtk",
    "__version__",
]
