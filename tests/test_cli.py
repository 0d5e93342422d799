"""End-to-end command line runs: exit codes, outputs, and file formats."""

import numpy as np
import pytest

from axistokes.cli import ConfigError, load_config, main
from axistokes.fem import FemSpace, assemble
from axistokes.fourier import read_stack
from axistokes.meshing import read_mesh
from axistokes.solver import solve_mode


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
    assert hist[0] == "iter, res_u, res_p"
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


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 3
    assert "not found" in capsys.readouterr().err


def test_load_config_validation_details(tmp_path):
    cfg = _config(
        tmp_path,
        "[domain]\npolygon = 0 0 1 0 1 1 0 1\nh = 0.2\n\n"
        "[data]\nfr = sin(theta)*r\nftheta = 0\nfz = z\n\n"
        "[modes]\nn_max = 3\nwavenumbers = 2 0 2 -1\n\n"
        "[solver]\nmethod = uzawa_cg\npressure_mass_precond = no\n\n"
        "[truncation]\ns = 0.5 2\nns = 8 2 4\nh = 0.5\n",
    )
    config = load_config(cfg)
    assert config.domain.polygon == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert config.wavenumbers == [-1, 0, 2]
    assert config.solver.method == "uzawa"
    assert not config.solver.pressure_mass_precond
    assert config.trunc_s == (0.5, 2.0)
    assert config.trunc_ns == (2, 4, 8)
    assert config.trunc_h == 0.5
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")


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
        _base(out, extra="\n[truncation]\ns = 1\nns = 2 4 8\n"),
    )
    assert main(["truncation", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "final slope" in captured
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


def test_parallel_and_deterministic_agree(tmp_path):
    for i, modes in enumerate(("n_max = 2", "wavenumbers = -3 -2 -1 0 1 2 3")):
        body = lambda out: _base(
            out,
            data="fr = cos(theta)*r + z\nftheta = sin(theta)\nfz = r*z",
            extra=f"\n[modes]\n{modes}\n",
        )
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        cfg_a = _config(tmp_path, body(out_a), f"a{i}.ini")
        cfg_b = _config(tmp_path, body(out_b), f"b{i}.ini")
        assert main(["solve", "--config", cfg_a, "--deterministic"]) == 0
        assert main(["solve", "--config", cfg_b, "--jobs", "3"]) == 0
        assert (out_a / "norms_velocity.csv").read_bytes() == (
            out_b / "norms_velocity.csv"
        ).read_bytes()
        stack_a = read_stack(out_a / "stack")
        stack_b = read_stack(out_b / "stack")
        assert stack_a.wavenumbers == stack_b.wavenumbers
        for k in stack_a.wavenumbers:
            np.testing.assert_array_equal(stack_a.modes[k].u, stack_b.modes[k].u)


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
