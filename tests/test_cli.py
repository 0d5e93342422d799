"""End-to-end command line runs: exit codes, outputs, and file formats."""

import hashlib
import itertools
import re
import time
from pathlib import Path

import numpy as np
import pytest

from axistokes import fem, vtk_export
from axistokes.cli import ConfigError, load_config, main
from axistokes.fem import FemSpace, assemble
from axistokes.fourier import (
    FourierStack,
    ModeVectors,
    angular_grid,
    read_stack,
    reconstruct_stack,
)
from axistokes.meshing import generate_structured, read_mesh
from axistokes.solver import solve_mode
from axistokes.verification import builtin_cases
from axistokes.vtk_export import write_vtk


def _config(tmp_path, body: str, name: str = "run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def _base(out_dir, data="manufactured = k0_exact", extra=""):
    return (
        "[domain]\nrectangle = 1 1\nh = 0.25\n\n"
        f"[data]\n{data}\n\n"
        f"[output]\ndirectory = {out_dir}\n"
        f"{extra}"
    )


def test_solve_axisymmetric_manufactured(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config(tmp_path, _base(out))
    assert main(["solve", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "mode +0:" in captured
    assert "compatibility flux defect" in captured
    assert (out / "stack" / "stack.meta").is_file()
    assert (out / "norms_velocity.csv").is_file()
    assert (out / "norms_pressure.csv").is_file()
    stack = read_stack(out / "stack")
    # Real axisymmetric data needs exactly one solve.
    assert stack.wavenumbers == [0]
    assert stack.real_data
    mesh = read_mesh(out / "mesh.txt")
    assert mesh.mesh_id == stack.mesh_id


@pytest.mark.parametrize("name", ["k0_exact", "k1_exact", "k2_exact"])
def test_manufactured_solve_reproduces_exact_field(tmp_path, name):
    # These flows lie in the Taylor-Hood space, so solve must return them at
    # the nodes once it imposes the case's wall velocity; every other
    # requested mode has no data and stays zero.
    out = tmp_path / "out"
    body = _base(out, data=f"manufactured = {name}").replace("h = 0.25", "h = 0.125")
    assert main(["solve", "--config", _config(tmp_path, body)]) == 0
    case = builtin_cases()[name]
    stack = read_stack(out / "stack")
    mesh = read_mesh(out / "mesh.txt")
    space = FemSpace(mesh)
    r, z = space.dof_coords.T
    u_exact = np.stack([c(r, z) for c in case.u.components])
    p_exact = case.p(*mesh.vertices.T) - case.pressure_offset(mesh)
    for k, mode in stack.modes.items():
        want_u, want_p = (u_exact, p_exact) if k == case.k else (0.0, 0.0)
        assert np.abs(mode.u - want_u).max() <= 1e-9
        assert np.abs(mode.p - want_p).max() <= 1e-9


def test_solve_real_expression_data_keeps_nonnegative_modes(tmp_path):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        _base(
            out,
            data="fr = cos(theta)*r\nftheta = 0\nfz = 0",
            extra="\n[modes]\nn_max = 2\n",
        ),
    )
    assert main(["solve", "--config", cfg]) == 0
    stack = read_stack(out / "stack")
    assert stack.wavenumbers == [0, 1, 2]
    assert stack.real_data
    # cos(theta) drives exactly the |k| = 1 modes.
    assert np.abs(stack.modes[0].u).max() <= 1e-10
    assert np.abs(stack.modes[2].u).max() <= 1e-10
    assert np.abs(stack.modes[1].u).max() > 1e-3
    implied = stack.mode(-1)
    np.testing.assert_array_equal(implied.u, np.conj(stack.modes[1].u))


def test_default_grid_keeps_higher_modes_out_of_lower_ones(tmp_path, capsys):
    # Without n_theta all modes share min_angular_samples(2) = 16 samples,
    # so r cos(2 theta) drives mode 2 alone.  A 2-point grid for mode 0 read
    # it as data: |p|_l2 = 2.6e-1 there, above mode 2's own 1.3e-1.
    out = tmp_path / "out"
    data = "fr = r*cos(2*theta)\nftheta = 0\nfz = 0"
    extra = "\n[modes]\nn_max = 2\n\n[solver]\nmethod = uzawa\n"
    assert main(["solve", "--config", _config(tmp_path, _base(out, data, extra))]) == 0
    rows = re.findall(
        r"^mode ([+-]\d+): .*\|u\|_h1k=(\S+), \|p\|_l2=(\S+)$", capsys.readouterr().out, re.M
    )
    norms = {int(k): (float(u), float(p)) for k, u, p in rows}
    assert sorted(norms) == [0, 1, 2]
    for k in (0, 1):
        for got, scale in zip(norms[k], norms[2]):
            assert got <= 1e-12 * scale, (k, norms)


def test_complex_data_off_the_diagonal_solves_every_mode(tmp_path):
    # The formula is real on r = z and complex elsewhere; its mode -1 is not
    # the conjugate of mode 1, so solve must not take it as real data.
    out = tmp_path / "out"
    data = "fr = (-1)^0.5*(r - z)*cos(theta)\nftheta = 0\nfz = 0"
    cfg = _config(tmp_path, _base(out, data=data, extra="\n[modes]\nn_max = 1\n"))
    assert main(["solve", "--config", cfg]) == 0
    meta = (out / "stack" / "stack.meta").read_text().splitlines()
    assert "real_data 0" in meta
    assert "modes -1 0 1" in meta


NORM_TABLES = ("norms_velocity.csv", "norms_pressure.csv")
REAL_DATA = "fr = cos(theta)*r + z\nftheta = sin(2*theta)*r\nfz = r*z*cos(theta)"


def _independent_solve(cfg, out, k):
    """Mode k solved on its own, from its own sampling of the data."""
    config = load_config(cfg)
    space = FemSpace(read_mesh(out / "mesh.txt"))
    return solve_mode(assemble(space, k), f=config.force.mode(k), config=config.solver)


@pytest.mark.parametrize("method", ["direct", "uzawa"])
def test_real_data_mirrors_negative_modes(tmp_path, capsys, method):
    out = tmp_path / "out"
    extra = f"\n[modes]\nwavenumbers = -2 -1 0 1 2\n\n[solver]\nmethod = {method}\n"
    cfg = _config(tmp_path, _base(out, data=REAL_DATA, extra=extra))
    assert main(["solve", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    stack = read_stack(out / "stack")
    assert stack.wavenumbers == [-2, -1, 0, 1, 2]
    assert stack.real_data
    for k in stack.wavenumbers:
        assert f"mode {k:+d}: method={method}" in captured
        if method == "uzawa":
            assert (out / f"residuals_k{k}.csv").is_file()
    for k in (-2, -1):
        ref = _independent_solve(cfg, out, k)
        scale = max(np.abs(ref.u).max(), np.abs(ref.p).max())
        assert np.abs(stack.modes[k].u - ref.u).max() <= 1e-10 * scale
        assert np.abs(stack.modes[k].p - ref.p).max() <= 1e-10 * scale


def test_mirrored_norm_rows_match_independent_evaluation(tmp_path, capsys):
    # solve evaluates the norms of each |k| once for real data and relabels
    # them for -k; norms evaluates every stored mode on its own.
    out = tmp_path / "out"
    extra = "\n[modes]\nwavenumbers = -2 -1 0 1 2\n"
    cfg = _config(tmp_path, _base(out, data=REAL_DATA, extra=extra))
    assert main(["solve", "--config", cfg]) == 0
    solved = {name: (out / name).read_text() for name in NORM_TABLES}
    assert main(["norms", "--config", cfg]) == 0
    for name in NORM_TABLES:
        assert (out / name).read_text() == solved[name]
        rows = [line.split(", ") for line in solved[name].splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [-2, -1, 0, 1, 2]
        assert rows[0][1:] == rows[4][1:] and rows[1][1:] == rows[3][1:]


def test_lone_negative_mode_is_conjugate_of_positive_solve(tmp_path):
    out = tmp_path / "out"
    extra = "\n[modes]\nwavenumbers = -3\n\n[solver]\nmethod = uzawa\n"
    cfg = _config(tmp_path, _base(out, data=REAL_DATA, extra=extra))
    assert main(["solve", "--config", cfg]) == 0
    assert sorted(p.name for p in (out / "stack").glob("mode_*.csv")) == ["mode_-3.csv"]
    stack = read_stack(out / "stack")
    ref = _independent_solve(cfg, out, 3)
    np.testing.assert_array_equal(stack.modes[-3].u, np.conj(ref.u))
    np.testing.assert_array_equal(stack.modes[-3].p, np.conj(ref.p))


def test_non_finite_data_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        _base(
            out,
            data="fr = exp(1000*r)\nftheta = 0\nfz = 0",
            extra="\n[modes]\nn_max = 1\n",
        ),
    )
    assert main(["solve", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mode 0:")
    assert "not finite" in err
    assert len(err.strip().splitlines()) == 1


def test_norms_recomputes_identical_tables(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config(tmp_path, _base(out))
    assert main(["solve", "--config", cfg]) == 0
    before_u = (out / "norms_velocity.csv").read_bytes()
    before_p = (out / "norms_pressure.csv").read_bytes()
    capsys.readouterr()
    assert main(["norms", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "# velocity" in captured
    assert "# pressure" in captured
    assert (out / "norms_velocity.csv").read_bytes() == before_u
    assert (out / "norms_pressure.csv").read_bytes() == before_p


def test_stored_mesh_reproduces_the_generated_run(tmp_path, capsys):
    # [domain] mesh = FILE solves on the stored mesh as the rectangle run
    # did on the generated one, and does not write the mesh again.
    first, second = tmp_path / "first", tmp_path / "second"
    extra = "\n[modes]\nn_max = 1\n"
    assert main(["solve", "--config", _config(tmp_path, _base(first, REAL_DATA, extra))]) == 0
    stored = _base(second, REAL_DATA, extra).replace(
        "rectangle = 1 1\nh = 0.25", f"mesh = {first / 'mesh.txt'}"
    )
    cfg = _config(tmp_path, stored, "stored.ini")
    assert main(["solve", "--config", cfg]) == 0
    names = sorted(p.name for p in (first / "stack").iterdir())
    assert names == sorted(p.name for p in (second / "stack").iterdir())
    for name in names:
        assert (second / "stack" / name).read_bytes() == (first / "stack" / name).read_bytes()
    assert not (second / "mesh.txt").exists()
    assert main(["norms", "--config", cfg]) == 0


def test_norms_of_a_corrupted_stack_exit_3(tmp_path, capsys):
    # Dof 3 loses its pressure and dof 4 half of it: a malformed file is
    # a data error named by file and line, not a short pressure vector.
    out = tmp_path / "out"
    cfg = _config(tmp_path, _base(out))
    assert main(["solve", "--config", cfg]) == 0
    path = out / "stack" / "mode_0.csv"
    lines = path.read_text().splitlines()
    for dof, columns in ((3, (7, 8)), (4, (8,))):
        cells = lines[dof + 1].split(",")
        for c in columns:
            cells[c] = ""
        lines[dof + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["norms", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {path}:6: pressure needs both cells or neither\n"


def test_norms_of_a_truncated_stack_exit_3(tmp_path, capsys):
    # Every mode file loses its last row: the modes still agree with each
    # other, so only the space can tell that they do not fit the mesh.
    out = tmp_path / "out"
    cfg = _config(tmp_path, _base(out, data=REAL_DATA, extra="\n[modes]\nn_max = 1\n"))
    assert main(["solve", "--config", cfg]) == 0
    for path in (out / "stack").glob("mode_*.csv"):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    assert main(["norms", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        f"error: {out / 'stack'}: modes have 80 velocity and 25 pressure dofs, "
        "the mesh has 81 and 25\n"
    )


def test_uzawa_solve_writes_residual_history(tmp_path):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        _base(
            out,
            data="manufactured = k2_exact",
            extra="\n[modes]\nwavenumbers = 2\n\n[solver]\nmethod = uzawa\ntol = 1e-11\n",
        ),
    )
    assert main(["solve", "--config", cfg]) == 0
    hist = (out / "residuals_k2.csv").read_text().strip().splitlines()
    assert hist[0] == "iter, res_p"
    assert len(hist) >= 2
    stack = read_stack(out / "stack")
    assert stack.wavenumbers == [2]
    assert not stack.real_data


def test_nonconverged_iteration_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        _base(
            out,
            data="manufactured = k3_convergence",
            extra="\n[modes]\nwavenumbers = 3\n\n"
            "[solver]\nmethod = uzawa\ntol = 1e-14\nmax_iter = 1\n",
        ),
    )
    with pytest.warns(UserWarning, match="without reaching the tolerance"):
        rc = main(["solve", "--config", cfg])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err


def test_direct_lu_over_memory_exits_2(tmp_path, capsys, monkeypatch):
    # The memory guard refuses before any factorization and names the way out.
    monkeypatch.setattr("axistokes.solver._physical_memory", lambda: 2**20)
    body = _base(tmp_path / "out").replace("h = 0.25", "h = 0.125")
    assert main(["solve", "--config", _config(tmp_path, body)]) == 2
    assert re.search(
        r"numerical breakdown: direct LU of the \d+-unknown bordered system needs "
        r"about [\d,]+ MB, more than half of the 1 MB of physical memory; "
        r"use method = uzawa",
        capsys.readouterr().err,
    )


@pytest.mark.parametrize(
    "body",
    [
        "[data]\nmanufactured = k0_exact\n",
        "[domain]\nrectangle = 1 1\n\n[data]\nmanufactured = k0_exact\nfr = r\nftheta = 0\nfz = 0\n",
        "[domain]\nrectangle = 1 1\n\n[data]\nmanufactured = no_such_case\n",
        "[domain]\nrectangle = 1 1\n\n[data]\nfr = __import__('os')\nftheta = 0\nfz = 0\n\n[modes]\nn_max = 1\n",
        "[domain]\nrectangle = 1 1\n\n[data]\nfr = r\nftheta = 0\nfz = 0\n",
        "[domain]\nrectangle = 1 1\n\n[data]\nmanufactured = k0_exact\n\n[modes]\nn_max = -2\n",
        "[domain]\nrectangle = 1 1 1\n\n[data]\nmanufactured = k0_exact\n",
        "[domain]\nrectangle = 1 1\nh = 0\n\n[data]\nmanufactured = k0_exact\n",
    ],
)
def test_bad_configs_exit_3(tmp_path, capsys, body):
    cfg = _config(tmp_path, body)
    assert main(["solve", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("error:")


# A product of 3,000 factors, deeper than the parser's recursion limit.
_DEEP = "*".join(["r"] * 3000)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("h = 0.25", "h = abc", "[domain] h: not a number"),
        ("[modes]\n", "[modes]\nn_max = 1.5\n", "[modes] n_max: not an integer"),
        ("[output]\n", "[output]\nvtk = maybe\n", "[output] vtk: not a boolean"),
        (
            "[modes]\n",
            "[modes]\nwavenumbers = 1 x\n",
            "[modes] wavenumbers: expected integers, got '1 x'",
        ),
        ("[modes]\n", "[solver]\nmax_iter = 0\n\n[modes]\n", "[solver] max_iter must be at least 1"),
        ("h = 0.25", "h = nan", "[domain] h: not a finite number"),
        ("h = 0.25", "h = inf", "[domain] h: not a finite number"),
        ("[modes]\n", "[solver]\ntol = inf\n\n[modes]\n", "[solver] tol: not a finite number"),
        ("rectangle = 1 1", "rectangle = 1 -inf", "[domain] rectangle: not a finite number"),
        (
            "manufactured = k0_exact",
            "fr = 1/0*r\nftheta = 0\nfz = 0",
            "cannot evaluate '1/0*r': ZeroDivisionError",
        ),
        (
            "manufactured = k0_exact",
            "fr = 10.0^400*r\nftheta = 0\nfz = 0",
            "cannot evaluate '10.0^400*r': OverflowError",
        ),
        (
            "manufactured = k0_exact",
            "fr = 0^(-1)*r\nftheta = 0\nfz = 0",
            "cannot evaluate '0^(-1)*r': ZeroDivisionError",
        ),
        (
            "manufactured = k0_exact",
            "fr = exp(10^400)*r\nftheta = 0\nfz = 0",
            "cannot evaluate 'exp(10^400)*r': OverflowError",
        ),
        (
            "manufactured = k0_exact",
            "fr = 9^9^9*r\nftheta = 0\nfz = 0",
            "cannot evaluate '9^9^9*r': OverflowError",
        ),
        (
            "manufactured = k0_exact",
            "fr = True*r\nftheta = 0\nfz = 0",
            "only numeric constants are allowed in 'True*r'",
        ),
        (
            "manufactured = k0_exact",
            f"fr = {_DEEP}\nftheta = 0\nfz = 0",
            f"{_DEEP!r} is nested too deeply",
        ),
        (
            "manufactured = k0_exact",
            "fr = r % 2\nftheta = 0\nfz = 0",
            "operator not supported in 'r % 2'",
        ),
    ],
    ids=[
        "float",
        "int",
        "bool",
        "int-list",
        "max_iter",
        "nan",
        "inf",
        "tol-inf",
        "float-list",
        "div-zero",
        "overflow",
        "zero-negative-power",
        "huge-int-function",
        "integer-power-tower",
        "bool-constant",
        "deep-nesting",
        "percent",
    ],
)
def test_bad_config_values_name_key_and_type(tmp_path, capsys, old, new, message):
    body = (_base(tmp_path / "out") + "\n[modes]\n").replace(old, new)
    start = time.perf_counter()
    assert main(["solve", "--config", _config(tmp_path, body)]) == 3
    # Refused when the config loads: 9^9^9 overflows as a float at once.
    assert time.perf_counter() - start <= 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "domain, extra, named",
    [
        ("rectangle = 1 1", "\n[solver]\nmethd = uzawa\n", "[solver] methd"),
        ("rectangle = 1 1", "\n[solvers]\nmethod = uzawa\n", "[solvers] method"),
        ("rectangle = 1 1", "vtk_ntheta = 16\n", "[output] vtk_ntheta"),
        ("rectangle = 1 1", "\n[DEFAULT]\nh = 0.5\n", "[DEFAULT] takes no keys, got h"),
        ("mesh = m.txt", "", "[domain] h"),
    ],
    ids=[
        "misspelled-key",
        "unknown-section",
        "misspelled-output-key",
        "default-key",
        "mesh-size-of-a-stored-mesh",
    ],
)
def test_unread_config_keys_exit_3(tmp_path, capsys, domain, extra, named):
    # A key that no parser reads is refused, not dropped: a dropped
    # `methd = uzawa` would solve by the direct method and exit 0, and a
    # stored mesh has its own size, whatever [domain] h says.
    body = _base(tmp_path / "out", extra=extra).replace("rectangle = 1 1", domain)
    cfg = _config(tmp_path, body)
    assert main(["solve", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 3
    assert "not found" in capsys.readouterr().err


def _one_error_line(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_directory_and_file_mixups_exit_3(tmp_path, capsys, monkeypatch):
    assert main(["mesh", "--inspect", str(tmp_path)]) == 3
    _one_error_line(capsys, tmp_path)
    # The output directory is made before any mode is solved.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(
        "axistokes.cli._solve_modes", lambda *args: pytest.fail("solved before mkdir")
    )
    for out in (blocker, blocker / "out"):
        assert main(["solve", "--config", _config(tmp_path, _base(out))]) == 3
        _one_error_line(capsys, out)


@pytest.mark.parametrize(
    "target", ["run.ini", "out/mesh.txt", "out/stack/stack.meta", "out/stack/mode_1.csv"]
)
def test_undecodable_files_exit_3(tmp_path, capsys, target):
    cfg = _config(tmp_path, _base(tmp_path / "out", REAL_DATA, "\n[modes]\nn_max = 1\n"))
    assert main(["solve", "--config", cfg]) == 0
    path = tmp_path / target
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    if target.endswith("mesh.txt"):
        assert main(["mesh", "--inspect", str(path)]) == 3
    else:
        assert main(["norms", "--config", cfg]) == 3
    _one_error_line(capsys, path)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config", "run.ini", "--bogus"],
        ["solve"],
        ["solve", "--config", "run.ini", "--jobs", "2"],
        ["truncation", "--with-solves"],
    ],
    ids=["unknown-flag", "missing-config", "removed-jobs", "removed-with-solves"],
)
def test_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: axistokes")
    assert "error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_load_config_validation_details(tmp_path):
    body = (
        "[domain]\npolygon = 0 0 1 0 1 1 0 1\nh = 0.2\n\n"
        "[data]\nfr = sin(theta)*r\nftheta = 0\nfz = z\n\n"
        "[modes]\nn_max = 3\nwavenumbers = 2 0 2 -1\n\n"
        "[solver]\nmethod = uzawa_cg\n\n"
        "[truncation]\ns = 2 0.5 2\nns = 8 2 4\n"
    )
    # pressure_mass_precond is not a key any more; like any key that no
    # parser reads, it is refused.
    stale = _config(
        tmp_path, body.replace("uzawa_cg\n", "uzawa_cg\npressure_mass_precond = no\n"), "stale.ini"
    )
    with pytest.raises(ConfigError, match=r"\[solver\] pressure_mass_precond"):
        load_config(stale)
    config = load_config(_config(tmp_path, body))
    assert config.domain.polygon == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert config.wavenumbers == [-1, 0, 2]
    assert config.solver.method == "uzawa"
    assert config.trunc_s == (0.5, 2.0)
    assert config.trunc_ns == (2, 4, 8)
    # The truncation tails are closed-form, so no mesh size is read for them.
    with pytest.raises(ConfigError, match=r"\[truncation\] h"):
        load_config(_config(tmp_path, body + "h = 0.5\n", "trunc_h.ini"))
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")


def test_readme_config_loads(tmp_path):
    # The schema the README shows is a config that loads as it stands.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    config = load_config(_config(tmp_path, block))
    assert config.domain.rectangle == (1.0, 1.0)
    assert config.trunc_s == (0.5, 1.0, 2.0)


def test_mesh_generate_and_inspect(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config(tmp_path, _base(out))
    assert main(["mesh", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "vertices: 25" in captured
    assert "h_max:" in captured
    mesh_file = out / "mesh.txt"
    assert mesh_file.is_file()

    assert main(["mesh", "--inspect", str(mesh_file)]) == 0
    assert "mesh id:" in capsys.readouterr().out

    assert main(["mesh"]) == 3
    assert "needs --config" in capsys.readouterr().err


def test_truncation_command(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        _base(out, extra="\n[truncation]\ns = 1 1\nns = 2 4 8\n"),
    )
    assert main(["truncation", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    # A repeated s is tabulated once.
    assert captured.splitlines().count("s = 1") == 1
    assert (
        "one-sided ratio 1.0269, extrapolated slope -1.3883 (target -(s+1/2) = -1.5000)"
        in captured.splitlines()
    )
    assert (out / "truncation_s1.csv").is_file()
    table = (out / "truncation_s1.csv").read_text().strip().splitlines()
    assert table[0] == "N, tail, bound_ratio"
    assert len(table) == 4


def test_vtk_export_structure(tmp_path):
    out = tmp_path / "out"
    cfg = _config(
        tmp_path,
        "[domain]\nrectangle = 1 1\nh = 0.5\n\n"
        "[data]\nmanufactured = k0_exact\n\n"
        f"[output]\ndirectory = {out}\nvtk = yes\nvtk_n_theta = 8\n",
    )
    assert main(["solve", "--config", cfg]) == 0
    text = (out / "field.vtk").read_text()
    assert "np.float64" not in text
    mesh = read_mesh(out / "mesh.txt")
    assert f"POINTS {mesh.n_vertices * 8} " in text
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("CELL_TYPES"))
    n_cells = int(lines[start].split()[1])
    assert n_cells == mesh.n_triangles * 8
    types = set(lines[start + 1 : start + 1 + n_cells])
    assert types == {"13"}
    assert "VECTORS velocity" in text
    assert "SCALARS pressure" in text


def test_vtk_bytes_are_pinned(tmp_path):
    # A fixed real-data stack (k = 0, 1) on four stations; the digest was
    # taken from the row-by-row writer this output must keep matching.
    mesh = generate_structured((1.0, 1.0), 0.5)
    space = FemSpace(mesh)
    i = np.arange(3 * space.n_vel).reshape(3, space.n_vel)
    j = np.arange(space.n_p)
    modes = {
        0: ModeVectors(0.25 * (i % 7) - 0.5, 0.125 * (j % 5)),
        1: ModeVectors(0.5 * (i % 3) + 0.25j * (i % 4), -0.375j * (j % 3)),
    }
    stack = FourierStack(n_max=1, real_data=True, mesh_id=mesh.mesh_id, modes=modes)
    path = tmp_path / "field.vtk"
    write_vtk(path, mesh, stack, n_theta=4)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "59b6768dd7b74a704dac933cff26440a954ebf7e404ac51d81db916428f973ea"
    )


def _reference_vtk_text(mesh, stack, n_theta):
    """The VTK file as the whole-block writer made it: each block one string.

    write_vtk streams its blocks in chunks and must keep these bytes.
    """
    thetas = angular_grid(n_theta)
    u, p = reconstruct_stack(stack, thetas, frame="cartesian")
    nv = mesh.n_vertices
    u, p = u[:, :nv, :].real, p.real
    r, z = mesh.vertices[:, 0], mesh.vertices[:, 1]
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    n_cells = mesh.n_triangles * n_theta
    station = np.arange(n_theta)[:, None, None] * nv
    tri = mesh.triangles[None, :, :]
    nxt = np.roll(station, -1, axis=0)
    wedges = np.concatenate([station + tri, nxt + tri], axis=-1)

    def rows(*columns):
        return map(" ".join, zip(*(map(repr, np.ravel(c).tolist()) for c in columns)))

    def block(head, lines):
        return "\n".join(itertools.chain(head, lines)) + "\n"

    return "".join(
        [
            block(
                [
                    "# vtk DataFile Version 3.0",
                    "revolved axisymmetric Stokes mode stack",
                    "ASCII",
                    "DATASET UNSTRUCTURED_GRID",
                    f"POINTS {nv * n_theta} float",
                ],
                rows(r * cos, r * sin, np.broadcast_to(z, (n_theta, nv))),
            ),
            block(
                [f"CELLS {n_cells} {n_cells * 7}"],
                rows(np.full(n_cells, 6), *wedges.reshape(-1, 6).T),
            ),
            block([f"CELL_TYPES {n_cells}"], ["13"] * n_cells),
            block(
                [f"POINT_DATA {nv * n_theta}", "VECTORS velocity float"],
                rows(*(c.T for c in u)),
            ),
            block(["SCALARS pressure float 1", "LOOKUP_TABLE default"], rows(p.T)),
        ]
    )


@pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default-chunk", "7-row-chunk"])
def test_streamed_vtk_matches_the_whole_block_writer(tmp_path, monkeypatch, chunk_rows):
    # h = 1/8 and 64 stations: 5,184 points and 8,192 cells, so with the
    # default chunk the points end in a partial chunk and the cells fill
    # whole ones; 7-row chunks split every block many times.
    if chunk_rows is not None:
        monkeypatch.setattr(vtk_export, "_CHUNK_ROWS", chunk_rows)
    mesh = generate_structured((1.0, 1.0), 0.125)
    n_theta = 64
    if chunk_rows is None:
        chunk = vtk_export._CHUNK_ROWS
        n_points, n_cells = mesh.n_vertices * n_theta, mesh.n_triangles * n_theta
        assert n_points > chunk and n_points % chunk != 0
        assert n_cells > chunk and n_cells % chunk == 0
    space = FemSpace(mesh)
    rng = np.random.default_rng(25)
    modes = {}
    for k in range(3):
        # Mode 0 of real data is real.
        u, p = (
            rng.standard_normal(shape) + (k != 0) * 1j * rng.standard_normal(shape)
            for shape in ((3, space.n_vel), space.n_p)
        )
        modes[k] = ModeVectors(u, p)
    stack = FourierStack(n_max=2, real_data=True, mesh_id=mesh.mesh_id, modes=modes)
    path = tmp_path / "field.vtk"
    write_vtk(path, mesh, stack, n_theta=n_theta)
    assert path.read_bytes() == _reference_vtk_text(mesh, stack, n_theta).encode()


LOW_MODE_REAL_DATA = "fr = cos(theta)*r + z\nftheta = sin(theta)\nfz = r*z"
COMPLEX_DATA = "fr = cos(theta)*r + z\nftheta = (-1)**0.5*sin(theta)\nfz = r*z"


def _stack_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_solve_is_deterministic(tmp_path):
    # --deterministic is accepted with no effect: both runs solve the
    # modes one at a time in the same order and write the same bytes.
    cases = [
        (LOW_MODE_REAL_DATA, "n_max = 2"),
        (LOW_MODE_REAL_DATA, "wavenumbers = -3 -2 -1 0 1 2 3"),
        (COMPLEX_DATA, "n_max = 2"),
    ]
    for i, (data, modes) in enumerate(cases):
        outs = []
        for name, flags in ((f"a{i}", ["--deterministic"]), (f"b{i}", [])):
            out = tmp_path / name
            body = _base(out, data, f"\n[modes]\n{modes}\n")
            assert main(["solve", "--config", _config(tmp_path, body), *flags]) == 0
            outs.append(out)
        out_a, out_b = outs
        assert read_stack(out_a / "stack").real_data == (data == LOW_MODE_REAL_DATA)
        for table in ("norms_velocity.csv", "norms_pressure.csv"):
            assert (out_a / table).read_bytes() == (out_b / table).read_bytes()
        assert _stack_bytes(out_a / "stack") == _stack_bytes(out_b / "stack")


def test_complex_data_factors_each_velocity_block_once(tmp_path, monkeypatch):
    # Complex data at n_max = 4 solves k = -4..4.  In order of (|k|, k)
    # the three kept factors cover each mode, so Uzawa factors L_0..L_5
    # and Mp once each; ascending k would refactor L_3, L_4 and L_5.
    calls = []
    spd_factor = fem.spd_factor

    def counted(A):
        calls.append(A.shape)
        return spd_factor(A)

    monkeypatch.setattr(fem, "spd_factor", counted)
    out = tmp_path / "out"
    extra = "\n[modes]\nn_max = 4\n\n[solver]\nmethod = uzawa\n"
    cfg = _config(tmp_path, _base(out, COMPLEX_DATA, extra))
    assert main(["solve", "--config", cfg]) == 0
    assert read_stack(out / "stack").wavenumbers == list(range(-4, 5))
    assert len(calls) == 7


def test_verify_on_configured_coarse_domain(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        "[domain]\nrectangle = 1 1\nh = 0.5\n\n[data]\nmanufactured = k0_exact\n",
    )
    assert main(["verify", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "verification PASSED" in captured
    assert captured.count("CHECK ") >= 14
    assert "exact_solve_k1_exact" in captured
    assert "axisymmetric_decoupling" in captured
