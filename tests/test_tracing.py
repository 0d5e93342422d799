"""The benchmark's traced run still finds every name it wraps.

``perfbench/tracing.py`` replaces names of ``axistokes.cli`` and a few
methods by spans; a rename of any of them makes that run fail.  This
runs it on a tiny Uzawa solve, checks that each layer of a solve made
its spans, VTK output included, and reads them with the benchmark's own
``layer_metrics``.  Nothing is written under ``perfbench/``.
"""

import collections
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

_CONFIG = """\
[domain]
rectangle = 1 1
h = 0.25

[data]
fr = r*z
ftheta = 0
fz = r

[modes]
n_max = 1

[solver]
method = uzawa

[output]
directory = out
vtk = yes
vtk_n_theta = 8
"""


# The spans behind the per-layer metrics of a solve with VTK output.
_SOLVE_SPANS = (
    "meshing.build",
    "fem.space",
    "fem.operators",
    "fem.assemble",
    "fem.rhs",
    "solver.solve_mode",
    "solver.factor",
    "solver.backsolve",
    "norms.mode_norm",
    "fourier.write_stack",
    "fourier.reconstruct",
    "vtk_export.write",
)


def test_traced_solve_sees_factors_and_backsolves(tmp_path):
    (tmp_path / "run.ini").write_text(_CONFIG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(TRACING), "spans.json", "--", "solve", "--config", "run.ini"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "spans.json").read_text())
    # A wrapped name that cli stops calling would zero its layer's metric
    # without failing the run.
    seen = collections.Counter(span["name"] for span in doc["spans"])
    missing = [name for name in _SOLVE_SPANS if not seen[name]]
    assert not missing, f"the traced solve made no {missing} spans"
    # run_path compiles the script without writing bytecode next to it.
    tracing = runpy.run_path(str(TRACING), run_name="tracing")
    metrics = tracing["layer_metrics"](doc)
    assert metrics["solver.factor_count"] > 0
    assert metrics["solver.backsolve_count"] > 0
    # The writer reconstructs through the name the tracer wraps, so the
    # reconstruction is traced inside the VTK span.
    assert metrics["fourier.reconstruct_s"] > 0
    assert metrics["vtk_export.bytes"] == (tmp_path / "out" / "field.vtk").stat().st_size
