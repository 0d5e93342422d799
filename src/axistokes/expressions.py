"""Small arithmetic expression language for data given on the command line.

Body force components can be written as formulas in the cylindrical
coordinates, e.g. ``sin(theta)*r^2 + z/2``.  The grammar is numbers, the
names r, z, theta and pi, the operators + - * / ^ with unary minus, the
functions sin, cos, exp, and parentheses.  Expressions are parsed through
the Python ast module and checked against a whitelist, so nothing outside
this grammar evaluates: no attributes, no subscripts, no other names.

Compiled expressions evaluate vectorized over numpy arrays.  An
``ExpressionField`` of one formula (divergence data) or three (the
cylindrical components of the body force) produces per-wavenumber mode
coefficients by angular sampling and FFT, which is how expression data
enters the per-mode solver; the modes asked for together come from one
sampling on one angular grid.
"""

import ast
import functools

import numpy as np

from .fourier import angular_grid, fourier_coefficients, min_angular_samples

__all__ = ["ExpressionError", "ExpressionField"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMES = ("r", "z", "theta")

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    """The expression does not fit the supported grammar."""


def _check(node, source: str):
    if isinstance(node, ast.Expression):
        _check(node.body, source)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator not supported in {source!r}")
        _check(node.left, source)
        _check(node.right, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"unary operator not supported in {source!r}")
        _check(node.operand, source)
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in _FUNCTIONS
            or node.keywords
            or len(node.args) != 1
        ):
            raise ExpressionError(
                f"only sin, cos, exp with one argument are allowed in {source!r}"
            )
        _check(node.args[0], source)
    elif isinstance(node, ast.Name):
        if node.id not in _NAMES and node.id != "pi":
            raise ExpressionError(f"unknown name {node.id!r} in {source!r}")
    elif isinstance(node, ast.Constant):
        # type(), not isinstance: True and False are ints to isinstance.
        if type(node.value) not in (int, float):
            raise ExpressionError(f"only numeric constants are allowed in {source!r}")
    else:
        raise ExpressionError(
            f"unsupported syntax ({type(node).__name__}) in {source!r}"
        )


def compile_expression(source: str):
    """Compile a formula in r, z, theta into a vectorized function.

    Returns a callable f(r, z, theta) broadcasting over arrays; its
    ``is_real`` says whether every value it takes is real.  Raises
    ExpressionError when the formula leaves the supported grammar, nests
    too deeply, or has a constant part that cannot be evaluated, such as
    1/0, 10^400 or an integer too large for a float.  Every number is a
    float, so 9^9^9 overflows at once instead of being worked out exactly.
    """
    text = source.strip().replace("^", "**")
    if not text:
        raise ExpressionError("empty expression")
    try:
        tree = ast.parse(text, mode="eval")
        _check(tree, source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
        code = compile(tree, "<expression>", "eval")
        # r, z and theta are float arrays, so only a constant part such as
        # (-1)^0.5 can make a value complex, and it does so at every point.
        probe = _evaluate(code, np.ones(1), np.ones(1), np.ones(1))
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ExpressionError(f"{source!r} is nested too deeply") from exc
    except ArithmeticError as exc:
        raise ExpressionError(
            f"cannot evaluate {source!r}: {type(exc).__name__}"
        ) from exc

    def evaluate(r, z, theta=0.0):
        return np.asarray(_evaluate(code, r, z, theta), dtype=complex)

    evaluate.is_real = probe.dtype.kind != "c"
    return evaluate


def _evaluate(code, r, z, theta) -> np.ndarray:
    env = {"pi": np.pi, **_FUNCTIONS}
    env.update(r=np.asarray(r), z=np.asarray(z), theta=np.asarray(theta))
    # Division by zero and overflow in the arrays give inf or nan without a
    # warning; SaddleSystem.rhs rejects non-finite data with the mode named.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.asarray(eval(code, {"__builtins__": {}}, env))


class _SharedSampling:
    """Coefficients of wavenumbers ``ks`` of compiled expressions on one grid.

    The first evaluation at a set of points samples each expression there
    once on the n-point angular grid and keeps the coefficients of every
    k in ``ks``; later evaluations at the same points reuse them.  Like
    the finite element space, a sampling serves one thread: the modes
    that share it are solved one after another.
    """

    def __init__(self, fns, ks, n: int):
        self.fns = fns
        self.ks = ks
        self.thetas = angular_grid(n)
        self._points = None
        self._coeffs = None

    def coefficient(self, c: int, k: int, r, z) -> np.ndarray:
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
        if not self._holds(r, z):
            self._coeffs = self._sample(r, z)
            self._points = (r.copy(), z.copy())
        return self._coeffs[c, ..., self.ks.index(k)].copy()

    def _holds(self, r, z) -> bool:
        if self._points is None:
            return False
        r0, z0 = self._points
        return r.shape == r0.shape and np.array_equal(r, r0) and np.array_equal(z, z0)

    def _sample(self, r, z) -> np.ndarray:
        out = np.empty((len(self.fns),) + r.shape + (len(self.ks),), dtype=complex)
        with np.errstate(invalid="ignore", over="ignore"):
            for c, fn in enumerate(self.fns):
                vals = fn(r[..., None], z[..., None], self.thetas)
                vals = np.broadcast_to(vals, r.shape + self.thetas.shape)
                out[c] = fourier_coefficients(vals, self.ks)
        return out


class ExpressionField:
    """Field given as formulas in (r, z, theta): one, or three components.

    One formula is a scalar such as divergence data; three are the
    cylindrical components (r, theta, z) of a vector such as the body
    force.  Mode coefficients come from equispaced angular sampling and the
    FFT, on ``n_theta`` samples when it is given and otherwise on the
    smallest grid that rules out aliasing up to the largest requested
    wavenumber.
    """

    def __init__(self, *sources: str, n_theta: int = None):
        if len(sources) not in (1, 3):
            raise TypeError(f"takes 1 or 3 formulas, not {len(sources)}")
        self.fns = tuple(compile_expression(s) for s in sources)
        self.n_theta = n_theta

    def modes(self, ks) -> dict:
        """{k: mode-k coefficient functions, one per formula} for ks.

        Every k comes from one sampling of each formula on one grid:
        n_theta, or min_angular_samples(max |k|).  Data content up to
        |k| = 3 max|k| + 1 cannot alias into a requested mode.  Raises
        ExpressionError when n_theta is below 4 max|k| + 2.
        """
        ks = sorted(set(ks))
        n_max = max(map(abs, ks), default=0)
        n = self.n_theta or min_angular_samples(n_max)
        if n < 4 * n_max + 2:
            raise ExpressionError(
                f"n_theta = {n} cannot resolve mode {n_max}; need at least {4 * n_max + 2}"
            )
        shared = _SharedSampling(self.fns, ks, n)
        return {
            k: tuple(functools.partial(shared.coefficient, c, k) for c in range(len(self.fns)))
            for k in ks
        }

    def mode(self, k: int):
        """Mode-k coefficient functions, one per formula, on mode k's own grid.

        Without n_theta this grid is min_angular_samples(|k|), so mode(k)
        matches modes(ks)[k] only when n_theta is set.
        """
        return self.modes([k])[k]

    def is_real(self) -> bool:
        """Whether every formula is real, deciding conjugation symmetry."""
        return all(fn.is_real for fn in self.fns)
