"""The axistokes benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from
``src/`` of that checkout.  Inputs are generated from the seed into
``.perfbench_work/<workload>/`` and the real ``axistokes`` command line
runs on them, each time in a fresh process with BLAS_THREADS BLAS threads.

--trace 0 measures the end-to-end metrics with tracing off, running the
workload's CLI command back to back for --seconds (at least MIN_RUNS
times) with set-up probes spread between those runs:
  wall_s       median wall time of the CLI command
  setup_s      median over about SETUP_PROBES fresh processes of importing
               axistokes, reading the config and building mesh, FemSpace
               and operators (setup_probe.py)
  peak_rss_mb  median peak RSS of the CLI process (ru_maxrss from wait4)
Each child of either kind is pinned to the next of this process's CPUs in
turn, so that a slow spell on one core weighs on only part of the samples.
--trace 1 runs the command once untraced and twice in-process with spans
  around each layer (tracing.py), checks that all three write the same
  bytes and that the count metrics repeat, and reports the per-layer
  metrics (medians of the two traced runs) plus the tracing overhead:
  traced minus untraced wall time.  --seconds does not apply here.

Every run's outputs are checked (see check_solve / check_verify); the
operations are the mode solves, or the CHECK lines of ``verify``, and
failed/attempted counts them.  The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CONJ_RTOL, NORM_FLOOR, NORM_RTOL, RESIDUAL_RTOL, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
MIN_RUNS = 2
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # the whole invocation, children included

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MODE_LINE = re.compile(
    r"^mode ([+-]\d+): method=\w+(.*?), res_u=(\S+), res_p=(\S+), \|u\|_h1k="
)


@dataclass
class ChildRun:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Budget:
    def __init__(self, limit_s: float = TIME_LIMIT_S):
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def left(self) -> float:
        return self.limit_s - (time.perf_counter() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, cwd: Path, budget: Budget, cpu: int = None) -> ChildRun:
    """Run one process to completion, on CPU ``cpu`` alone if one is
    given; wall time and peak RSS from wait4.

    A child still running when the invocation's time is up is killed, and
    it is always waited for.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=err, preexec_fn=pin
        )
        timer = threading.Timer(max(budget.left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def cli_command(workload, config: Path) -> list:
    return [sys.executable, "-m", "axistokes.cli", *workloads.cli_args(workload, config)]


# ---------------------------------------------------------------- checks


@dataclass
class Check:
    attempted: int
    failed: int
    notes: list


def _read_mode_file(path: Path):
    """(u, p) of one stack file, parsed independently of the package."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:] if line]
    u = np.array([[float(c) for c in row[1:7]] for row in rows])
    p = np.array([[float(row[7]), float(row[8])] for row in rows if row[7].strip()])
    return u[:, 0::2] + 1j * u[:, 1::2], p[:, 0] + 1j * p[:, 1]


def check_solve(workload, seed, run: ChildRun, out: Path, reference, full: bool) -> Check:
    """Fail a mode solve on non-convergence, a true residual above
    RESIDUAL_RTOL of its data, a squared mode norm off the reference table
    by more than NORM_RTOL (plus NORM_FLOOR of the largest) or, in the full
    check, unreadable or non-finite output and a +-k conjugation defect
    above CONJ_RTOL."""
    ref = reference[workload.name]["modes"]
    ks = sorted(int(k) for k in ref)
    if run.code != 0:
        return Check(len(ks), len(ks), [f"exit code {run.code}: {run.stderr.strip()[-300:]}"])
    bad, notes = set(), []
    lines = {}
    for line in run.stdout.splitlines():
        m = MODE_LINE.match(line)
        if m:
            lines[int(m.group(1))] = m
    try:
        velocity = workloads.read_norms(out / "norms_velocity.csv")
        pressure = workloads.read_norms(out / "norms_pressure.csv")
    except (OSError, ValueError, IndexError) as exc:
        return Check(len(ks), len(ks), [f"norm tables unreadable: {exc}"])
    scale = {k: workloads.mode_scale(workload, seed, k) for k in ks}
    expect_u = {k: scale[k] ** 2 * ref[str(k)]["u_h1k_sq"] for k in ks}
    expect_p = {k: scale[k] ** 2 * ref[str(k)]["p_l2_sq"] for k in ks}
    floor_u = NORM_FLOOR * max(expect_u.values())
    floor_p = NORM_FLOOR * max(expect_p.values())
    for k in ks:
        m = lines.get(k)
        if m is None or k not in velocity or k not in pressure:
            bad.add(k)
            notes.append(f"mode {k}: no result")
            continue
        if "NOT CONVERGED" in m.group(2):
            bad.add(k)
            notes.append(f"mode {k}: not converged")
        data = scale[k] * ref[str(k)]["data_norm"]
        res = max(float(m.group(3)), float(m.group(4))) / data
        if not res <= RESIDUAL_RTOL:
            bad.add(k)
            notes.append(f"mode {k}: residual {res:.3e} of the data")
        for label, got, want, floor in (
            ("|u|_h1k^2", velocity[k]["h1k_sq"], expect_u[k], floor_u),
            ("|p|_l2^2", pressure[k]["l2_1_sq"], expect_p[k], floor_p),
        ):
            if not abs(got - want) <= NORM_RTOL * want + floor:
                bad.add(k)
                notes.append(f"mode {k}: {label} {got!r}, reference {want!r}")
    if full:
        modes = {}
        for k in ks:
            path = out / "stack" / f"mode_{k}.csv"
            if not path.is_file():
                bad.add(k)
                notes.append(f"mode {k}: no stack file")
                continue
            try:
                u, p = _read_mode_file(path)
            except (ValueError, IndexError) as exc:
                bad.add(k)
                notes.append(f"mode {k}: unreadable stack file ({exc})")
                continue
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(p))):
                bad.add(k)
                notes.append(f"mode {k}: non-finite output")
            modes[k] = (u, p)
        for k in ks:
            if k <= 0 or k not in modes or -k not in modes:
                continue
            (u, p), (um, pm) = modes[k], modes[-k]
            size = max(np.abs(u).max(), np.abs(p).max())
            defect = max(np.abs(um - u.conj()).max(), np.abs(pm - p.conj()).max())
            if not defect <= CONJ_RTOL * size:
                bad.update((k, -k))
                notes.append(f"modes +-{k}: conjugation defect {defect:.3e} of {size:.3e}")
    return Check(len(ks), len(bad), notes)


def check_verify(run: ChildRun) -> Check:
    """Each CHECK ... FAIL line, and a nonzero exit code, is a failure."""
    checks = [ln for ln in run.stdout.splitlines() if ln.startswith("CHECK ")]
    fails = [ln for ln in checks if ln.split()[2] != "PASS"]
    failed = len(fails) + (run.code != 0)
    notes = fails + ([f"exit code {run.code}"] if run.code != 0 else [])
    return Check(max(len(checks), failed, 1), failed, notes)


def output_digest(workload, run: ChildRun, out: Path) -> dict:
    """Hashes of what a run wrote: stack files and norm tables, or the
    CHECK lines of verify."""
    if workload.command == "verify":
        text = "\n".join(ln for ln in run.stdout.splitlines() if ln.startswith("CHECK "))
        return {"stdout": hashlib.sha256(text.encode()).hexdigest()}
    files = sorted((out / "stack").glob("*")) + sorted(out.glob("norms_*.csv"))
    return {
        str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in files
    }


class Runner:
    """Runs the workload's CLI command and checks each run."""

    def __init__(self, workload, seed, work: Path, budget: Budget):
        self.workload, self.seed, self.work, self.budget = workload, seed, work, budget
        self.config = work / "run.ini"
        self.reference = workloads.load_reference() if workload.command == "solve" else None
        self.attempted = self.failed = 0
        self.notes = []
        self.digest = None

    def check(self, run: ChildRun, cwd: Path, label: str) -> None:
        """Count the run's operations; compare its outputs with the first run."""
        out = cwd / "out"
        first = self.digest is None
        if self.workload.command == "verify":
            result = check_verify(run)
        else:
            result = check_solve(self.workload, self.seed, run, out, self.reference, first)
        digest = output_digest(self.workload, run, out)
        if first:
            self.digest = digest
        elif digest != self.digest:
            result = Check(result.attempted, result.attempted, result.notes)
            result.notes.append("outputs differ from the first run")
        self.attempted += result.attempted
        self.failed += result.failed
        self.notes += [f"{label}: {n}" for n in result.notes]

    def plain(self, cwd: Path, cpu: int = None) -> ChildRun:
        cwd.mkdir(parents=True, exist_ok=True)
        run = run_child(cli_command(self.workload, self.config), cwd, self.budget, cpu)
        self.check(run, cwd, f"untraced run in {cwd.name}")
        return run

    def traced(self, cwd: Path):
        cwd.mkdir(parents=True, exist_ok=True)
        spans = cwd / "spans.json"
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans), "--"]
        argv += workloads.cli_args(self.workload, self.config)
        run = run_child(argv, cwd, self.budget)
        self.check(run, cwd, f"traced run in {cwd.name}")
        layers = tracing.layer_metrics(json.loads(spans.read_text())) if spans.is_file() else None
        return run, layers


# ---------------------------------------------------------------- record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
    }


def run_record(workload, args) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seed_used": workload.command == "solve",
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
    }


def prepare(workload, seed) -> Path:
    if not (SRC / "axistokes" / "cli.py").is_file():
        raise SystemExit(f"error: no axistokes sources under {SRC}")
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload.command == "solve":
        (work / "run.ini").write_text(workloads.config_text(workload, seed))
    return work


def warm_up(work: Path, budget: Budget) -> None:
    """Compile the checkout's bytecode and make sure it is what gets imported."""
    probe = run_child(
        [sys.executable, "-c", "import axistokes.cli, axistokes; print(axistokes.__file__)"],
        work,
        budget,
    )
    origin = Path(probe.stdout.strip() or ".").resolve()
    if probe.code != 0 or SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: axistokes is not importable from {SRC}: {probe.stderr.strip()}")


def setup_time(workload, work: Path, budget: Budget, cpu: int) -> float:
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    if workload.command == "solve":
        argv.append(str(work / "run.ini"))
    probe = run_child(argv, work, budget, cpu)
    if probe.code != 0:
        raise SystemExit(f"error: set-up probe failed: {probe.stderr.strip()}")
    return float(probe.stdout.split()[0])


def untraced(runner: Runner, args, budget: Budget) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    walls, rss, setup = [], [], []
    started = time.perf_counter()
    while True:
        run = runner.plain(runner.work / "plain", cpus[len(walls) % len(cpus)])
        walls.append(run.wall)
        rss.append(run.rss_mb)
        # Probes keep pace with the window, SETUP_PROBES of them by its end.
        share = min((time.perf_counter() - started) / args.seconds, 1.0)
        while len(setup) < SETUP_PROBES * share:
            cpu = cpus[len(setup) % len(cpus)]
            setup.append(setup_time(runner.workload, runner.work, budget, cpu))
        elapsed = time.perf_counter() - started
        # Stop where the window ends, give or take half a run.
        if len(walls) >= MIN_RUNS and elapsed * (len(walls) + 0.5) / len(walls) > args.seconds:
            break
        if budget.left() < 2.0 * max(walls):
            break
    # Too few samples for a percentile with ten beyond it: the max stands in.
    print(f"samples: {len(walls)} CLI runs (wall_s max {max(walls):.4f} s, "
          f"peak_rss_mb max {max(rss):.1f} MB), {len(setup)} set-up probes")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def traced(runner: Runner) -> tuple:
    plain = runner.plain(runner.work / "plain")
    runs = [runner.traced(runner.work / f"traced{i}") for i in (1, 2)]
    layers = [lay for _, lay in runs if lay is not None]
    ok = len(layers) == 2
    if not ok:
        runner.notes.append("a traced run wrote no spans")
        layers = layers or [{}]
    for name in tracing.EXACT_COUNTS:
        values = {lay.get(name) for lay in layers}
        if len(values) > 1:
            ok = False
            runner.notes.append(f"{name} differs between traced runs: {values}")
    its = [lay.get("solver.uzawa_iterations") for lay in layers]
    if len(set(its)) > 1:
        print(
            f"solver.uzawa_iterations differs between traced runs {its}: "
            "reduction order under BLAS threads"
        )
    metrics = {}
    for name in [m[0] for m in tracing.LAYER_METRICS] + ["import_s"]:
        values = [lay.get(name) for lay in layers]
        metrics[name] = None if None in values else statistics.median(values)
    trace_wall = statistics.median(run.wall for run, _ in runs)
    metrics["trace.wall_s"] = trace_wall
    metrics["trace.overhead_s"] = trace_wall - plain.wall
    return metrics, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    budget = Budget()
    workload = WORKLOADS[args.workload]
    work = prepare(workload, args.seed)
    warm_up(work, budget)
    record = run_record(workload, args)
    print("record " + json.dumps(record))
    runner = Runner(workload, args.seed, work, budget)

    if args.trace:
        metrics, ok = traced(runner)
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        units.update({"import_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
    else:
        metrics, ok = untraced(runner, args, budget), True
        units = dict(END_TO_END)
    for note in runner.notes:
        print(f"check: {note}")
    print(f"failed_frac: {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed}/{runner.attempted} operations)")
    for name, value in metrics.items():
        if value is None:
            print(f"{name}: not traced ({units[name]}; the code path bypasses the wrappers)")
        else:
            print(f"{name}: {value:.6g} {units[name]}")
    (work / "record.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
