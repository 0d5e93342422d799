"""Regenerate ``reference.json`` from unit-amplitude, zero-phase data.

    python3 perfbench/make_reference.py

For each solve workload it runs ``axistokes solve`` on the reference
inputs and records, per wavenumber, the squared velocity H1_k norm, the
squared pressure L2 norm and the norm of the reduced data (F_hat, G_hat).
A seeded run scales each of them by the mode's amplitude (squared for the
squared norms).  Rerun only when the numerics change on purpose.
"""

import contextlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from axistokes import FemSpace, assemble, mesh_from_spec  # noqa: E402
from axistokes import cli  # noqa: E402


def reference_for(workload, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "run.ini").write_text(workloads.config_text(workload, None))
    with contextlib.chdir(work), open(os.devnull, "w") as devnull:
        with contextlib.redirect_stdout(devnull):
            code = cli.main(workloads.cli_args(workload, "run.ini"))
        if code != 0:
            raise SystemExit(f"{workload.name}: axistokes solve exited with {code}")
        velocity = workloads.read_norms("out/norms_velocity.csv")
        pressure = workloads.read_norms("out/norms_pressure.csv")
        config = cli.load_config("run.ini")
    space = FemSpace(mesh_from_spec(config.domain))
    modes = {}
    for k in sorted(velocity):
        F_hat, G_hat = assemble(space, k).rhs(config.force.mode(k))
        modes[str(k)] = {
            "u_h1k_sq": velocity[k]["h1k_sq"],
            "p_l2_sq": pressure[k]["l2_1_sq"],
            "data_norm": math.hypot(np.linalg.norm(F_hat), np.linalg.norm(G_hat)),
        }
    return {"modes": modes}


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    table = {
        name: reference_for(w, work / name)
        for name, w in workloads.WORKLOADS.items()
        if w.command == "solve"
    }
    workloads.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
