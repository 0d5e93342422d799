"""One-shot traced sweep of single-mode solves (not a checked workload).

    python3 perfbench/sweep.py [--with-h128]

Runs ``axistokes solve`` traced for every h in {1/32, 1/64}, k in
{0, 1, 5} and both methods, on unit-square data carrying only mode k, and
prints the per-layer times and factor fill of one run of each.  The table goes to ``.perfbench_work/sweep.json``.
h = 1/128 is added only with ``--with-h128``: direct LU there takes
minutes and most of a 7 GB machine's memory.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COLUMNS = (
    ("n_free", "fem.n_free", "{:.0f}"),
    ("mesh+space+ops s", ("meshing.build_s", "fem.space_s", "fem.operators_s"), "{:.3f}"),
    ("assemble s", "fem.assemble_s", "{:.3f}"),
    ("rhs s", "fem.rhs_s", "{:.3f}"),
    ("factors", "solver.factor_count", "{:.0f}"),
    ("factor s", "solver.factor_s", "{:.3f}"),
    ("factor nnz", "solver.factor_nnz", "{:.3e}"),
    ("backsolves", "solver.backsolve_count", "{:.0f}"),
    ("backsolve s", "solver.backsolve_s", "{:.3f}"),
    ("iterations", "solver.uzawa_iterations", "{:.0f}"),
    ("solve_mode s", "solver.solve_mode_s", "{:.3f}"),
    ("norms s", "norms.mode_norms_s", "{:.3f}"),
    ("wall s", "wall_s", "{:.3f}"),
)


def case(h: float, k: int, method: str) -> workloads.Workload:
    return workloads.Workload(
        name=f"sweep_h{round(1 / h)}_k{k}_{method}",
        why="baseline grid",
        command="solve",
        h=h,
        modes=f"wavenumbers = {k}",
        method=method,
        content=(k,),
        n_theta=32,
    )


def traced_solve(w: workloads.Workload, budget: run.Budget) -> dict:
    work = run.WORK / "sweep" / w.name
    work.mkdir(parents=True, exist_ok=True)
    config = work / "run.ini"
    config.write_text(workloads.config_text(w, None))
    spans = work / "spans.json"
    argv = [sys.executable, str(run.HERE / "tracing.py"), str(spans), "--"]
    child = run.run_child(argv + workloads.cli_args(w, config), work, budget)
    if child.code != 0:
        raise SystemExit(f"{w.name}: exit code {child.code}\n{child.stderr}")
    metrics = tracing.layer_metrics(json.loads(spans.read_text()))
    metrics["wall_s"] = child.wall
    return metrics


def cell(metrics: dict, key, fmt: str) -> str:
    keys = (key,) if isinstance(key, str) else key
    values = [metrics[k] for k in keys]
    if any(v is None for v in values):
        return "not traced"
    return fmt.format(sum(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--with-h128", action="store_true")
    args = parser.parse_args(argv)
    hs = [1 / 32, 1 / 64] + ([1 / 128] if args.with_h128 else [])
    budget = run.Budget(limit_s=6 * 3600.0)
    rows = []
    print("h, k, method, " + ", ".join(name for name, _, _ in COLUMNS))
    for h in hs:
        for k in (0, 1, 5):
            for method in ("direct", "uzawa"):
                metrics = traced_solve(case(h, k, method), budget)
                rows.append({"h": h, "k": k, "method": method, **metrics})
                cells = [cell(metrics, key, fmt) for _, key, fmt in COLUMNS]
                print(f"1/{round(1 / h)}, {k}, {method}, " + ", ".join(cells), flush=True)
    out = run.WORK / "sweep.json"
    out.write_text(json.dumps({"record": run.environment(), "rows": rows}, indent=1))
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
