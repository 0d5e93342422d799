"""Command line front end for the axisymmetric Stokes mode solver.

Subcommands
-----------
solve       mesh the domain, extract per-mode data, solve every requested
            wavenumber, and write the mode stack, norm tables, residual
            histories, and optionally a revolved VTK file.
verify      run the property suite (norm isometries, polarization,
            equivalence bounds, conjugation) plus solver cross-checks and
            print one CHECK line per property.
truncation  tabulate truncation tails of decaying mode families.
norms       recompute per-mode norm tables for a stack on disk.
mesh        generate a mesh from the configured domain, or inspect one.

Configuration is an INI file; see the package README for the schema.
Exit codes: 0 success, 1 verification failure, 2 numerical breakdown,
3 configuration error or non-finite data.
"""

import argparse
import configparser
import dataclasses
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import ExpressionError, ExpressionField
from .fem import DataError, FemScalarField, FemSpace, assemble, boundary_flux
from .fourier import FourierStack, ModeVectors, write_stack, read_stack
from .meshing import (
    DomainSpec,
    MeridianMesh,
    MeshError,
    generate_structured,
    mesh_from_spec,
    read_mesh,
    write_mesh,
)
from .norms import norm_report_csv, scalar_mode_norm, vector_mode_norm
from .solver import SolverBreakdown, SolverConfig, solve_mode
from .verification import (
    CheckResult,
    DecayFamily,
    ManufacturedCase,
    builtin_cases,
    isometry_suite,
    truncation_study,
)
from .vtk_export import write_vtk

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

L_SHAPE = ((0.0, 0.5), (1.0, 0.5), (1.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0))


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    """Validated run configuration shared by the subcommands."""

    mesh_path: str = None
    domain: DomainSpec = None
    n_max: int = None
    wavenumbers: list = None
    case: ManufacturedCase = None
    force: ExpressionField = None
    divergence: ExpressionField = None
    solver: SolverConfig = None
    out_dir: Path = Path("out")
    vtk: bool = False
    vtk_n_theta: int = 32
    trunc_s: tuple = (0.5, 1.0, 2.0)
    trunc_ns: tuple = (2, 4, 8, 16, 32)
    trunc_h: float = 0.25


def _finite(value, context: str):
    """``value``, unless it is a float that is infinite or nan."""
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{context}: not a finite number")
    return value


def _numbers(text: str, context: str, kind=float):
    try:
        values = [kind(tok) for tok in text.split()]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"{context}: expected {what}, got {text!r}") from exc
    return [_finite(v, context) for v in values]


_READERS = {
    float: ("getfloat", "not a number"),
    int: ("getint", "not an integer"),
    bool: ("getboolean", "not a boolean"),
}


def _get(cp, section: str, key: str, default):
    """``key`` of ``section`` read as the type of ``default``, which it defaults to."""
    if not cp.has_option(section, key):
        return default
    reader, what = _READERS[type(default)]
    try:
        value = getattr(cp, reader)(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {what}") from exc
    return _finite(value, f"[{section}] {key}")


def _parse_domain(cp, config: RunConfig) -> None:
    if not cp.has_section("domain"):
        raise ConfigError("missing [domain] section")
    given = [k for k in ("rectangle", "polygon", "mesh") if cp.has_option("domain", k)]
    if len(given) != 1:
        raise ConfigError(
            "[domain] needs exactly one of rectangle, polygon, mesh; "
            f"got {given or 'none'}"
        )
    h = _get(cp, "domain", "h", 0.125)
    if h <= 0:
        raise ConfigError("[domain] h must be positive")
    kind = given[0]
    if kind == "mesh":
        config.mesh_path = cp.get("domain", "mesh")
        return
    if kind == "rectangle":
        vals = _numbers(cp.get("domain", "rectangle"), "[domain] rectangle")
        if len(vals) not in (2, 4):
            raise ConfigError(
                "[domain] rectangle takes 'rmax zmax' or 'rmin rmax zmin zmax'"
            )
        config.domain = DomainSpec(rectangle=tuple(vals), target_h=h)
        return
    vals = _numbers(cp.get("domain", "polygon"), "[domain] polygon")
    if len(vals) < 6 or len(vals) % 2:
        raise ConfigError("[domain] polygon takes at least three 'r z' pairs")
    pts = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    config.domain = DomainSpec(polygon=pts, target_h=h)


def _parse_data(cp, config: RunConfig) -> None:
    if not cp.has_section("data"):
        raise ConfigError("missing [data] section")
    manufactured = cp.has_option("data", "manufactured")
    expressions = any(
        cp.has_option("data", key) for key in ("fr", "ftheta", "fz", "g")
    )
    if manufactured == expressions:
        raise ConfigError(
            "[data] needs exactly one of 'manufactured = NAME' or "
            "expression keys fr, ftheta, fz"
        )
    if manufactured:
        name = cp.get("data", "manufactured").strip()
        cases = builtin_cases()
        if name not in cases:
            known = ", ".join(sorted(cases))
            raise ConfigError(f"[data] unknown manufactured case {name!r}; one of {known}")
        config.case = cases[name]
        return
    missing = [key for key in ("fr", "ftheta", "fz") if not cp.has_option("data", key)]
    if missing:
        raise ConfigError(f"[data] expression keys missing: {', '.join(missing)}")
    n_theta = _get(cp, "data", "n_theta", 0) or None
    config.force = ExpressionField(
        cp.get("data", "fr"),
        cp.get("data", "ftheta"),
        cp.get("data", "fz"),
        n_theta=n_theta,
    )
    if cp.has_option("data", "g"):
        config.divergence = ExpressionField(cp.get("data", "g"), n_theta=n_theta)


def _parse_modes(cp, config: RunConfig) -> None:
    if cp.has_option("modes", "n_max"):
        config.n_max = _get(cp, "modes", "n_max", 0)
        if config.n_max < 0:
            raise ConfigError("[modes] n_max must be nonnegative")
    if cp.has_option("modes", "wavenumbers"):
        ks = _numbers(cp.get("modes", "wavenumbers"), "[modes] wavenumbers", int)
        if not ks:
            raise ConfigError("[modes] wavenumbers cannot be empty")
        config.wavenumbers = sorted(set(ks))
    if config.n_max is None and config.wavenumbers is None:
        if config.case is None:
            raise ConfigError("[modes] n_max is required for expression data")
        config.n_max = abs(config.case.k)


def _parse_solver(cp, config: RunConfig) -> None:
    default = SolverConfig()
    method = cp.get("solver", "method", fallback=default.method).strip()
    tol = _get(cp, "solver", "tol", default.tol)
    max_iter = _get(cp, "solver", "max_iter", default.max_iter)
    try:
        config.solver = SolverConfig(method=method, tol=tol, max_iter=max_iter)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc


# _parse_output and _parse_truncation fill a fresh RunConfig, so each key
# defaults to the value its field holds.
def _parse_output(cp, config: RunConfig) -> None:
    config.out_dir = Path(cp.get("output", "directory", fallback=config.out_dir))
    config.vtk = _get(cp, "output", "vtk", config.vtk)
    config.vtk_n_theta = _get(cp, "output", "vtk_n_theta", config.vtk_n_theta)
    if config.vtk and config.vtk_n_theta < 8:
        raise ConfigError("[output] vtk_n_theta must be at least 8")


def _parse_truncation(cp, config: RunConfig) -> None:
    if not cp.has_section("truncation"):
        return
    if cp.has_option("truncation", "s"):
        svals = _numbers(cp.get("truncation", "s"), "[truncation] s")
        if not svals or any(s <= 0 for s in svals):
            raise ConfigError("[truncation] s values must be positive")
        config.trunc_s = tuple(svals)
    if cp.has_option("truncation", "ns"):
        ns = _numbers(cp.get("truncation", "ns"), "[truncation] ns", int)
        if not ns or any(n < 1 for n in ns):
            raise ConfigError("[truncation] ns must be positive integers")
        config.trunc_ns = tuple(sorted(set(ns)))
    config.trunc_h = _get(cp, "truncation", "h", config.trunc_h)
    if config.trunc_h <= 0:
        raise ConfigError("[truncation] h must be positive")


class _KeyRecorder(configparser.ConfigParser):
    """Records each (section, key) read; every typed getter goes through ``get``."""

    def __init__(self):
        # No interpolation: a '%' in a formula goes to the grammar.
        super().__init__(inline_comment_prefixes=("#", ";"), interpolation=None)
        self.keys_read = set()

    def get(self, section, option, **kwargs):
        self.keys_read.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration.

    A key that no parser reads is an error.  [DEFAULT] takes no keys, as
    each key belongs to one section.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = _KeyRecorder()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cp.defaults():
        raise ConfigError(f"{path}: [DEFAULT] takes no keys, got {', '.join(cp.defaults())}")
    config = RunConfig()
    _parse_domain(cp, config)
    _parse_data(cp, config)
    _parse_modes(cp, config)
    _parse_solver(cp, config)
    _parse_output(cp, config)
    _parse_truncation(cp, config)
    unread = [
        f"[{section}] {key}"
        for section in cp.sections()
        for key in cp.options(section)
        if (section, key) not in cp.keys_read
    ]
    if unread:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unread)}")
    return config


def _build_mesh(config: RunConfig) -> MeridianMesh:
    if config.mesh_path is not None:
        return read_mesh(config.mesh_path)
    return mesh_from_spec(config.domain)


def _poly_is_real(poly) -> bool:
    return (poly - poly.conj()).max_abs_coeff() == 0.0


def _data_is_real(config: RunConfig) -> bool:
    """Whether the 3D data is real, so that mode -k is the conjugate of mode k."""
    if config.case is not None:
        if config.case.k != 0:
            return False
        polys = [*config.case.f.components, *config.case.u.components]
        if config.case.g_div is not None:
            polys.append(config.case.g_div)
        return all(_poly_is_real(p) for p in polys)
    if not config.force.is_real():
        return False
    return config.divergence is None or config.divergence.is_real()


def _mode_list(config: RunConfig, real_data: bool):
    """Wavenumbers to solve and store.

    For real data, n_max stores k >= 0 only; the stack implies the rest.
    """
    if config.wavenumbers is not None:
        return config.wavenumbers
    if real_data:
        return list(range(config.n_max + 1))
    return list(range(-config.n_max, config.n_max + 1))


def _mode_data(config: RunConfig, ks) -> dict:
    """{k: (f, g_div, g)} for each k, g the wall velocity.

    A manufactured case has data at its own wavenumber only, its exact
    velocity on the walls included.  Expression data has homogeneous walls
    and is sampled once for all modes.
    """
    case = config.case
    if case is not None:
        data = (case.f, case.g_div, case.u)
        return {k: data if k == case.k else (None, None, None) for k in ks}
    forces = config.force.modes(ks)
    divs = config.divergence.modes(ks) if config.divergence is not None else {}
    return {k: (forces[k], divs[k][0] if divs else None, None) for k in ks}


def _mode_norm_rows(mesh, space, k, u, p):
    velocity = tuple(FemScalarField(space, u[c]) for c in range(3))
    rep_u = vector_mode_norm(mesh, velocity, k=k)
    rep_p = scalar_mode_norm(mesh, FemScalarField(space, p, kind="p1"), k)
    return rep_u, rep_p


def _solve_modes(config: RunConfig, space: FemSpace, ks, real_data: bool):
    """{k: solution} for the modes to solve, one at a time in order of (|k|, k).

    In this order each L_j is factored once (``FemSpace.velocity_factor``).
    Real data makes mode -k the conjugate of mode k, so only |k| is solved
    for each k in ks.  The sampled data and the space's velocity factors
    are dropped on return, before the output stage.
    """
    wanted = {abs(k) if real_data else k for k in ks}
    solve_ks = sorted(wanted, key=lambda k: (abs(k), k))
    solved = {}
    for k, (f, g_div, g) in _mode_data(config, solve_ks).items():
        # The space is the only owner of the velocity factors, so releasing
        # them below frees every one.
        solved[k] = solve_mode(
            assemble(space, k, g=g), f=f, g_div=g_div, config=config.solver
        )
    space.release_velocity_factors()
    return solved


def cmd_solve(args) -> int:
    config = load_config(args.config)
    mesh = _build_mesh(config)
    space = FemSpace(mesh)
    real_data = _data_is_real(config)
    ks = _mode_list(config, real_data)

    started = time.perf_counter()
    solved = _solve_modes(config, space, ks, real_data)
    elapsed = time.perf_counter() - started

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if config.mesh_path is None:
        write_mesh(mesh, out / "mesh.txt")

    modes = {}
    reports_u, reports_p = [], []
    broke = []
    norm_rows = {k: _mode_norm_rows(mesh, space, k, s.u, s.p) for k, s in solved.items()}
    for k in sorted(ks):
        if k in solved:
            solution = solved[k]
            modes[k] = ModeVectors(solution.u, solution.p)
            rpt = solution.report
            rep_u, rep_p = norm_rows[k]
        else:
            # Mode -k of real data: the conjugate of mode k, with its norms.
            solution = solved[-k]
            modes[k] = ModeVectors(solution.u.conj(), solution.p.conj())
            rpt = dataclasses.replace(solution.report, k=k)
            rep_u, rep_p = (dataclasses.replace(rep, k=k) for rep in norm_rows[-k])
        reports_u.append(rep_u)
        reports_p.append(rep_p)
        note = f"method={rpt.method}"
        if rpt.method == "uzawa":
            note += f", iterations={rpt.iterations}"
            if not rpt.converged:
                note += " (NOT CONVERGED)"
                broke.append(k)
        print(
            f"mode {k:+d}: {note}, res_u={rpt.res_u:.3e}, res_p={rpt.res_p:.3e}, "
            f"|u|_h1k={rep_u.h1k:.6e}, |p|_l2={rep_p.l2_1:.6e}"
        )
        if rpt.compatibility_flux is not None:
            print(
                f"mode {k:+d}: compatibility flux defect "
                f"{abs(rpt.compatibility_flux):.3e}"
            )
        if rpt.residuals:
            path = out / f"residuals_k{k}.csv"
            path.write_text(rpt.residual_csv())

    n_max = max(config.n_max or 0, max(abs(k) for k in ks))
    stack = FourierStack(
        n_max=n_max, real_data=real_data, mesh_id=mesh.mesh_id, modes=modes
    )
    write_stack(stack, out / "stack")
    (out / "norms_velocity.csv").write_text(norm_report_csv(reports_u))
    (out / "norms_pressure.csv").write_text(norm_report_csv(reports_p))
    if config.vtk:
        write_vtk(out / "field.vtk", mesh, stack, n_theta=config.vtk_n_theta)
    print(
        f"solved {len(ks)} mode(s) in {elapsed:.2f} s "
        f"({space.n_vel} velocity dofs, {space.n_p} pressure dofs per component)"
    )
    print(f"outputs in {out}")
    if broke:
        print(
            f"error: pressure iteration did not converge for modes {broke}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_norms(args) -> int:
    config = load_config(args.config)
    stack_dir = config.out_dir / "stack"
    stack = read_stack(stack_dir)
    mesh_file = config.out_dir / "mesh.txt"
    if config.mesh_path is not None:
        mesh = read_mesh(config.mesh_path)
    elif mesh_file.is_file():
        mesh = read_mesh(mesh_file)
    else:
        mesh = _build_mesh(config)
    if mesh.mesh_id != stack.mesh_id:
        raise ConfigError(
            f"stack in {stack_dir} was computed on mesh {stack.mesh_id}, "
            f"not on the configured mesh {mesh.mesh_id}"
        )
    space = FemSpace(mesh)
    reports_u, reports_p = [], []
    for k in stack.wavenumbers:
        mv = stack.modes[k]
        rep_u, rep_p = _mode_norm_rows(mesh, space, k, mv.u, mv.p)
        reports_u.append(rep_u)
        reports_p.append(rep_p)
    print("# velocity")
    print(norm_report_csv(reports_u), end="")
    print("# pressure")
    print(norm_report_csv(reports_p), end="")
    (config.out_dir / "norms_velocity.csv").write_text(norm_report_csv(reports_u))
    (config.out_dir / "norms_pressure.csv").write_text(norm_report_csv(reports_p))
    return 0


def _solver_checks() -> list:
    """Cross-checks of the solver on cases it must reproduce exactly."""
    checks = []
    mesh = generate_structured((1.0, 1.0), 0.125)
    space = FemSpace(mesh)
    cases = builtin_cases()
    for name in ("k0_exact", "k1_exact", "k2_exact"):
        case = cases[name]
        system = assemble(space, case.k, g=case.u)
        solution = solve_mode(system, f=case.f, g_div=case.g_div)
        err_u, err_p = case.errors(solution)
        scale = max(vector_mode_norm(mesh, case.u).h1k, 1.0)
        value = (err_u + err_p) / scale
        checks.append(CheckResult(f"exact_solve_{name}", value <= 1e-9, value, 1e-9))

        if case.k == 0:
            # Net volume conservation is an axisymmetric-mode statement;
            # nonzero modes integrate to zero over the angle by themselves.
            flux = abs(boundary_flux(space, solution.u))
            checks.append(
                CheckResult(f"boundary_flux_{name}", flux <= 1e-10, flux, 1e-10)
            )

    # Axisymmetric decoupling: purely meridian data leaves the angular
    # component zero; purely angular data leaves meridian and pressure zero.
    case = cases["k0_convergence"]
    fr, ftheta, fz = case.f.components
    zero = 0.0 * fr
    sys0 = assemble(space, 0)
    sol_meridian = solve_mode(sys0, f=(fr, zero, fz))
    sol_angular = solve_mode(sys0, f=(zero, ftheta, zero))
    scale = max(
        float(np.max(np.abs(sol_meridian.u))),
        float(np.max(np.abs(sol_angular.u))),
        1.0,
    )
    worst = max(
        float(np.max(np.abs(sol_meridian.u[1]))),
        float(np.max(np.abs(sol_angular.u[0]))),
        float(np.max(np.abs(sol_angular.u[2]))),
        float(np.max(np.abs(sol_angular.p))),
    )
    value = worst / scale
    checks.append(CheckResult("axisymmetric_decoupling", value <= 1e-10, value, 1e-10))

    # Solving the mirrored wavenumber with conjugated data returns the
    # conjugate solution.
    case = cases["k2_divfree"]
    sys_pos = assemble(space, case.k, g=case.u)
    sol_pos = solve_mode(sys_pos, f=case.f)
    sys_neg = assemble(space, -case.k, g=case.u.conj())
    sol_neg = solve_mode(sys_neg, f=case.f.conj())
    scale = max(float(np.max(np.abs(sol_pos.u))), 1.0)
    value = (
        max(
            float(np.max(np.abs(sol_neg.u - np.conj(sol_pos.u)))),
            float(np.max(np.abs(sol_neg.p - np.conj(sol_pos.p)))),
        )
        / scale
    )
    checks.append(CheckResult("solve_conjugation", value <= 1e-10, value, 1e-10))
    return checks


def cmd_verify(args) -> int:
    if args.config:
        config = load_config(args.config)
        domains = [("configured domain", _build_mesh(config))]
    else:
        domains = [
            ("unit square", generate_structured((1.0, 1.0), 0.25)),
            (
                "L-shaped meridian",
                mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=0.5)),
            ),
        ]
    all_passed = True
    for label, mesh in domains:
        print(f"# {label} ({mesh.n_vertices} vertices)")
        for check in isometry_suite(mesh):
            print(check.line())
            all_passed &= check.passed
    print("# solver cross-checks")
    for check in _solver_checks():
        print(check.line())
        all_passed &= check.passed
    print("verification " + ("PASSED" if all_passed else "FAILED"))
    return 0 if all_passed else 1


def cmd_truncation(args) -> int:
    if args.config:
        config = load_config(args.config)
    else:
        config = RunConfig()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    for s in config.trunc_s:
        study = truncation_study(
            DecayFamily(s),
            config.trunc_ns,
            with_solves=args.with_solves,
            h=config.trunc_h,
        )
        name = f"truncation_s{s:g}.csv"
        (config.out_dir / name).write_text(study.csv())
        print(f"s = {s:g} (mode norms {'solved' if study.solved else 'analytic'})")
        print(study.csv(), end="")
        # Solved mode norms decay faster than the data's slope -(s + 1/2).
        target = "" if study.solved else f" (target -(s+1/2) = {-(s + 0.5):.4f})"
        print(
            f"one-sided ratio {study.one_sided_ratio:.4f}, "
            f"extrapolated slope {study.extrapolated_slope:.4f}{target}"
        )
        print(f"written to {config.out_dir / name}")
    return 0


def _mesh_summary(mesh: MeridianMesh, origin: str) -> str:
    tags = list(mesh.boundary_tags)
    walls = tags.count("G")
    axis = tags.count("G0")
    return "\n".join(
        [
            f"mesh from {origin}",
            f"vertices: {mesh.n_vertices}, triangles: {mesh.n_triangles}",
            f"boundary edges: {len(tags)} (wall {walls}, axis {axis}), "
            f"axis-wall corners: {mesh.corner_nodes.size}",
            f"h_max: {mesh.h_max:.6g}",
            f"mesh id: {mesh.mesh_id}",
        ]
    )


def cmd_mesh(args) -> int:
    if args.inspect:
        mesh = read_mesh(args.inspect)
        print(_mesh_summary(mesh, args.inspect))
        return 0
    if not args.config:
        raise ConfigError("mesh generation needs --config (or use --inspect PATH)")
    config = load_config(args.config)
    mesh = _build_mesh(config)
    origin = config.mesh_path or "configured domain"
    print(_mesh_summary(mesh, origin))
    if config.mesh_path is None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        target = config.out_dir / "mesh.txt"
        write_mesh(mesh, target)
        print(f"written to {target}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3, like configuration errors.

    argparse exits 2 on them, and 2 is the exit code of a breakdown.
    Subcommand parsers are made by the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="axistokes",
        description="Fourier mode-by-mode Stokes solver for axisymmetric domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve all requested modes")
    p_solve.add_argument("--config", required=True, help="INI run configuration")
    p_solve.add_argument(
        "--deterministic",
        action="store_true",
        help="accepted for compatibility, no effect: modes are always solved "
        "one at a time in order of |k|",
    )
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument(
        "--config", help="optional configuration supplying the domain"
    )
    p_verify.set_defaults(fn=cmd_verify)

    p_trunc = sub.add_parser("truncation", help="tabulate truncation tails")
    p_trunc.add_argument("--config", help="optional configuration")
    p_trunc.add_argument(
        "--with-solves",
        action="store_true",
        help="realize mode norms by finite element solves instead of the "
        "analytic decay model",
    )
    p_trunc.set_defaults(fn=cmd_truncation)

    p_norms = sub.add_parser("norms", help="norm tables for a solved stack")
    p_norms.add_argument("--config", required=True, help="INI run configuration")
    p_norms.set_defaults(fn=cmd_norms)

    p_mesh = sub.add_parser("mesh", help="generate or inspect a mesh")
    p_mesh.add_argument("--config", help="INI run configuration")
    p_mesh.add_argument("--inspect", help="print a summary of a mesh file")
    p_mesh.set_defaults(fn=cmd_mesh)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeshError, ExpressionError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
