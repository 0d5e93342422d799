"""Spans around the calls into each axistokes layer, made from outside.

Run as a script, this module executes one axistokes command in-process
with tracing on and writes the spans as JSON:

    python3 perfbench/tracing.py SPANS.json -- solve --config run.ini --deterministic

The wrappers replace the public names ``axistokes.cli`` calls, plus
``FemSpace.operators``, ``SaddleSystem.rhs``, ``vtk_export.reconstruct_stack``,
``scipy.sparse.linalg.splu`` and the ``solve`` method of the factor objects
``splu`` returns.  Spans stay in memory and are written once at the end.
``layer_metrics`` turns a span file into the per-layer metrics.
"""

import json
import os
import sys
import time
import uuid
from pathlib import Path

# Work the tracer does for itself (reading factor fill, measuring file
# sizes) is recorded in spans of this name and subtracted from the spans
# around it.
OVERHEAD = "trace.overhead"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = {}


class Tracer:
    """Nested spans of one single-threaded run, kept in memory."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._open = []

    def span(self, name):
        return _SpanContext(self, name)

    def dump(self, path, **extra):
        doc = {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            **extra,
        }
        Path(path).write_text(json.dumps(doc))


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, name):
        parent = tracer._open[-1].id if tracer._open else None
        self.tracer = tracer
        self.span = Span(len(tracer.spans), name, parent)
        tracer.spans.append(self.span)

    def __enter__(self):
        self.tracer._open.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._open.pop()
        return False


def _traced(tracer, name, fn, after=None):
    """fn wrapped in a span; ``after(span, result, args)`` runs as overhead."""

    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if after is not None:
            with tracer.span(OVERHEAD):
                after(span, result, args)
        return result

    return traced


class _TracedFactor:
    """A SuperLU object whose solve calls are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("solver.backsolve") as span:
            out = self._lu.solve(rhs, *args, **kwargs)
        span.attrs["columns"] = 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[1]
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install_factor_wrapper(tracer):
    """Trace scipy's splu before axistokes is imported.

    Installed first, so a module that binds ``splu`` by name at import
    time binds the wrapper too.
    """
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg._dsolve import linsolve

    plain = spla.splu

    def splu(*args, **kwargs):
        with tracer.span("solver.factor") as span:
            lu = plain(*args, **kwargs)
        with tracer.span(OVERHEAD):
            span.attrs["nnz"] = int(lu.L.nnz) + int(lu.U.nnz)
        return _TracedFactor(lu, tracer)

    spla.splu = splu
    linsolve.splu = splu  # seen by scipy's own factorized()


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def install_layer_wrappers(tracer):
    import axistokes.cli as cli
    import axistokes.vtk_export as vtk_export
    from axistokes.fem import FemSpace, SaddleSystem

    def solve_attrs(span, solution, args):
        rpt = solution.report
        span.attrs.update(
            n_free=rpt.n_free, iterations=rpt.iterations, converged=rpt.converged
        )

    def stack_bytes(span, result, args):
        span.attrs["bytes"] = _dir_bytes(args[1])

    def vtk_bytes(span, result, args):
        span.attrs["bytes"] = os.path.getsize(args[0])

    for name, span_name, after in (
        ("generate_structured", "meshing.build", None),
        ("mesh_from_spec", "meshing.build", None),
        ("FemSpace", "fem.space", None),
        ("assemble", "fem.assemble", None),
        ("solve_mode", "solver.solve_mode", solve_attrs),
        ("vector_mode_norm", "norms.mode_norm", None),
        ("scalar_mode_norm", "norms.mode_norm", None),
        ("write_stack", "fourier.write_stack", stack_bytes),
        ("write_vtk", "vtk_export.write", vtk_bytes),
        ("isometry_suite", "verification.isometry_suite", None),
    ):
        setattr(cli, name, _traced(tracer, span_name, getattr(cli, name), after))
    FemSpace.operators = _traced(tracer, "fem.operators", FemSpace.operators)
    SaddleSystem.rhs = _traced(tracer, "fem.rhs", SaddleSystem.rhs)
    vtk_export.reconstruct_stack = _traced(
        tracer, "fourier.reconstruct", vtk_export.reconstruct_stack
    )
    return cli


# Per-layer metrics, all better when lower: (metric, unit, span name, statistic).
# "net" is a span's duration less the tracer's own work inside it; "self"
# further subtracts its child spans.  "count", "sum:<attr>" aggregate
# over all spans of that name.
LAYER_METRICS = (
    ("meshing.build_s", "s", "meshing.build", "net"),
    ("fem.space_s", "s", "fem.space", "net"),
    ("fem.operators_s", "s", "fem.operators", "net"),
    ("fem.assemble_s", "s", "fem.assemble", "self"),
    ("fem.rhs_s", "s", "fem.rhs", "net"),
    ("fem.n_free", "count", "solver.solve_mode", "sum:n_free"),
    ("solver.solve_mode_s", "s", "solver.solve_mode", "net"),
    ("solver.self_s", "s", "solver.solve_mode", "self"),
    ("solver.factor_count", "count", "solver.factor", "count"),
    ("solver.factor_s", "s", "solver.factor", "net"),
    ("solver.factor_nnz", "count", "solver.factor", "sum:nnz"),
    ("solver.backsolve_count", "count", "solver.backsolve", "count"),
    ("solver.backsolve_columns", "count", "solver.backsolve", "sum:columns"),
    ("solver.backsolve_s", "s", "solver.backsolve", "net"),
    ("solver.uzawa_iterations", "count", "solver.solve_mode", "sum:iterations"),
    ("norms.mode_norms_s", "s", "norms.mode_norm", "net"),
    ("fourier.write_stack_s", "s", "fourier.write_stack", "net"),
    ("fourier.stack_bytes", "bytes", "fourier.write_stack", "sum:bytes"),
    ("fourier.reconstruct_s", "s", "fourier.reconstruct", "net"),
    ("vtk_export.write_s", "s", "vtk_export.write", "self"),
    ("vtk_export.bytes", "bytes", "vtk_export.write", "sum:bytes"),
    ("verification.isometry_suite_s", "s", "verification.isometry_suite", "net"),
    ("cli.self_s", "s", "cli.main", "self"),
)

# Counts that must repeat exactly between two runs of the same input.
EXACT_COUNTS = (
    "solver.factor_count",
    "solver.backsolve_count",
    "solver.backsolve_columns",
    "solver.factor_nnz",
    "fem.n_free",
)


def layer_metrics(doc) -> dict:
    """Per-layer values of one span file, keyed by metric name.

    A layer the wrappers cannot have seen gets the value None: every mode
    solve factors and back-solves, so mode solves without any traced
    factorization, or without any traced back-solve, took a path around
    the wrappers.
    """
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    overhead_in = dict.fromkeys(dur, 0.0)
    children_dur = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is None:
            continue
        children_dur[s["parent"]] += dur[s["id"]]
        if s["name"] == OVERHEAD:
            parent = s["parent"]
            while parent is not None:
                overhead_in[parent] += dur[s["id"]]
                parent = by_id[parent]["parent"]

    def stat(name, how):
        chosen = [s for s in spans if s["name"] == name]
        if how == "count":
            return len(chosen)
        if how == "net":
            return sum(dur[s["id"]] - overhead_in[s["id"]] for s in chosen)
        if how == "self":
            return sum(dur[s["id"]] - children_dur[s["id"]] for s in chosen)
        attr = how.split(":", 1)[1]
        return sum(s["attrs"].get(attr, 0) for s in chosen)

    out = {name: stat(span, how) for name, _, span, how in LAYER_METRICS}
    out["import_s"] = doc["import_s"]
    if stat("solver.solve_mode", "count"):
        for layer in ("factor", "backsolve"):
            if out[f"solver.{layer}_count"] == 0:
                for name in out:
                    if name.startswith(f"solver.{layer}_"):
                        out[name] = None
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- AXISTOKES_ARGS...", file=sys.stderr)
        return 3
    spans_path, cli_args = argv[0], argv[2:]
    started = time.perf_counter()
    tracer = Tracer()
    install_factor_wrapper(tracer)
    cli = install_layer_wrappers(tracer)
    import_s = time.perf_counter() - started
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
