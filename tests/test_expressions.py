"""Expression grammar safety and Fourier extraction of formula data."""

import keyword
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes import expressions, fem
from axistokes.expressions import (
    ExpressionError,
    ExpressionField,
    compile_expression,
)
from axistokes.fourier import angular_grid, min_angular_samples
from axistokes.meshing import generate_structured
from axistokes.quadrature import quadrature_geometry


def test_arithmetic_and_names():
    fn = compile_expression("r^2 + z/2 - 3*r*z + pi")
    r, z = 0.5, 2.0
    assert fn(r, z) == pytest.approx(0.25 + 1.0 - 3.0 + np.pi)


def test_functions_and_unary_minus():
    fn = compile_expression("-sin(theta) + cos(2*theta) * exp(z)")
    val = fn(0.3, 0.0, np.pi / 2.0)
    assert val == pytest.approx(-1.0 + np.cos(np.pi))


def test_vectorized_broadcast():
    fn = compile_expression("r*z")
    r = np.linspace(0.0, 1.0, 4)
    z = np.linspace(1.0, 2.0, 4)
    np.testing.assert_allclose(fn(r, z).real, r * z)


@pytest.mark.parametrize(
    "source",
    [
        "__import__('os')",
        "r.real",
        "r[0]",
        "open('x')",
        "lambda: 1",
        "x + 1",
        "sin(r, z)",
        "sin()",
        "'abc'",
        "r @ z",
        "r if z else 0",
        "",
        "1 +",
        "True*r",
        "False",
    ],
)
def test_grammar_rejects_unsafe_or_unknown(source):
    with pytest.raises(ExpressionError):
        compile_expression(source)


_GRAMMAR_WORDS = {"r", "z", "theta", "pi", "sin", "cos", "exp"}
_inside = st.recursive(
    st.sampled_from(["r", "z", "theta", "pi", "2", "0.5"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=6,
)
_functions = st.sampled_from(["sin", "cos", "exp"])
_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in _GRAMMAR_WORDS and not keyword.iskeyword(s)
)
_outside = st.one_of(
    st.tuples(_inside, _identifiers).map(lambda t: f"{t[0]}.{t[1]}"),
    st.tuples(_inside, _inside).map(lambda t: f"{t[0]}[{t[1]}]"),
    _inside.map(lambda e: f"(lambda: {e})"),
    st.text(st.characters(codec="ascii"), max_size=6).map(repr),
    st.tuples(_functions, _identifiers, _inside).map(
        lambda t: f"{t[0]}({t[1]}={t[2]})"
    ),
    _identifiers,
    # Keywords that parse as constants; _identifiers leaves keywords out.
    st.sampled_from(["True", "False", "None"]),
    st.tuples(_functions, _inside, _inside).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
)


@settings(max_examples=60, deadline=None)
@given(left=_inside, bad=_outside, right=_inside)
def test_grammar_rejects_everything_outside_it(left, bad, right):
    # Only ExpressionError may escape, wherever the bad fragment sits.
    with pytest.raises(ExpressionError):
        compile_expression(f"{left} + {bad} * {right}")


@pytest.mark.parametrize("source", ["9^9^9*r", "9^9^9^9*r", "1" + "0" * 400 + "*r"])
def test_huge_integer_constants_fail_at_once(source):
    # Every number is a float, so a tower of integer powers overflows at
    # once, and so does a literal too large for a float.
    start = time.perf_counter()
    with pytest.raises(ExpressionError, match="OverflowError"):
        compile_expression(source)
    assert time.perf_counter() - start <= 1.0


def test_power_is_caret_not_xor():
    fn = compile_expression("2^3")
    assert fn(0.0, 0.0) == pytest.approx(8.0)


def test_mode_extraction_matches_analytic_coefficients():
    # 2 cos(theta) has coefficients sqrt(2 pi) at k = +-1 under the
    # symmetric normalization.
    field = ExpressionField("2*cos(theta)*r", "0", "z")
    fr1, ft1, fz1 = field.mode(1)
    r = np.array([0.25, 0.5])
    z = np.array([0.1, 0.9])
    np.testing.assert_allclose(
        fr1(r, z), np.sqrt(2.0 * np.pi) * r, rtol=1e-13
    )
    np.testing.assert_allclose(ft1(r, z), 0.0, atol=1e-13)
    np.testing.assert_allclose(fz1(r, z), 0.0, atol=1e-13)
    fr0, _, fz0 = field.mode(0)
    np.testing.assert_allclose(fr0(r, z), 0.0, atol=1e-13)
    np.testing.assert_allclose(
        fz0(r, z), np.sqrt(2.0 * np.pi) * z, rtol=1e-13
    )
    fr2, _, _ = field.mode(2)
    np.testing.assert_allclose(fr2(r, z), 0.0, atol=1e-13)


def test_scalar_expression_field():
    g = ExpressionField("z*sin(theta)")
    (mode,) = g.mode(1)
    # sin(theta) = (e^{i theta} - e^{-i theta}) / 2i, so the k = 1
    # coefficient under the symmetric normalization is -i sqrt(pi/2) z.
    vals = mode(np.array([0.3]), np.array([0.5]))
    expected = -1j * np.sqrt(np.pi / 2.0) * 0.5
    np.testing.assert_allclose(vals, [expected], rtol=1e-13)
    assert g.is_real()
    with pytest.raises(TypeError, match="1 or 3 formulas"):
        ExpressionField("r", "z")


def test_is_real_detection():
    assert ExpressionField("r*cos(theta)", "z", "1").is_real()
    assert ExpressionField("exp(z)*sin(3*theta)").is_real()
    # The grammar has no imaginary literal, but a power of a negative
    # number evaluates to a Python complex, so complex data can be written.
    assert not ExpressionField("(-1)**0.5*sin(theta)").is_real()
    assert not ExpressionField("r", "(-1)**0.5*r", "0").is_real()
    # Complex only off the diagonal r = z.
    assert not ExpressionField("(-1)^0.5*(r - z)*cos(theta)", "0", "0").is_real()


def test_angular_sample_guard():
    field = ExpressionField("r", "0", "0", n_theta=8)
    field.mode(1)
    with pytest.raises(ExpressionError, match="resolve"):
        field.mode(2)
    with pytest.raises(ExpressionError, match="resolve"):
        ExpressionField("r", n_theta=4).mode(1)


def test_default_sampling_tracks_wavenumber():
    field = ExpressionField("cos(12*theta)", "0", "0")
    fr, _, _ = field.mode(12)
    vals = fr(np.array([0.5]), np.array([0.5]))
    np.testing.assert_allclose(vals, [np.sqrt(np.pi / 2.0)], rtol=1e-12)


def _direct_sum(source, k, n, r, z):
    """Mode-k coefficient by the plain trapezoid sum over an n-point grid."""
    fn = compile_expression(source)
    thetas = angular_grid(n)
    vals = np.broadcast_to(fn(r[..., None], z[..., None], thetas), r.shape + (n,))
    return np.sqrt(2.0 * np.pi) / n * np.sum(vals * np.exp(-1j * k * thetas), axis=-1)


@pytest.mark.parametrize(
    "n_theta, ks",
    [
        (32, list(range(-7, 8))),
        # Default grid: min_angular_samples(13) = 64 samples for all modes.
        (None, [-13, -4, 0, 1, 2, 3, 5, 7, 8, 13]),
    ],
)
def test_shared_sampling_matches_per_mode_sums(n_theta, ks):
    sources = ("r*exp(cos(theta))", "z/(1.5 - cos(theta - 0.3))", "r*z*sin(3*theta) + 1")
    field = ExpressionField(*sources, n_theta=n_theta)
    scalar = ExpressionField(sources[1], n_theta=n_theta)
    r, z = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.0, 1.0, 5))
    shared = field.modes(ks)
    shared_g = scalar.modes(ks)
    assert sorted(shared) == sorted(shared_g) == sorted(ks)
    for c, source in enumerate(sources):
        n = n_theta or min_angular_samples(max(map(abs, ks)))
        direct = {k: _direct_sum(source, k, n, r, z) for k in ks}
        scale = max(np.abs(v).max() for v in direct.values())
        for k in ks:
            got = shared[k][c](r, z)
            assert np.abs(got - direct[k]).max() <= 1e-13 * scale, (c, k)
            if n_theta:
                # Without n_theta, mode(k) samples on mode k's own grid.
                np.testing.assert_array_equal(field.mode(k)[c](r, z), got)
            if c == 1:
                assert np.abs(shared_g[k][0](r, z) - direct[k]).max() <= 1e-13 * scale


def test_default_grid_keeps_higher_modes_out_of_lower_ones():
    # One grid for all requested modes: min_angular_samples(2) = 16 samples
    # hold cos(2 theta) out of modes 0 and 1.  A 2-point grid for mode 0
    # alone would read it as sqrt(pi/2) * 2 r (1.2533 at r = 0.5).
    modes = ExpressionField("r*cos(2*theta)").modes([0, 1, 2])
    r, z = np.array([0.25, 0.5, 1.0]), np.array([0.0, 0.5, 1.0])
    for k in (0, 1):
        assert np.abs(modes[k][0](r, z)).max() <= 1e-15
    np.testing.assert_allclose(modes[2][0](r, z), np.sqrt(np.pi / 2.0) * r, rtol=1e-14)


def test_shared_sampling_resamples_at_new_points():
    fr = ExpressionField("r*cos(theta)", "0", "z", n_theta=8).modes([0, 1])[1][0]
    a, b = np.array([0.2, 0.4]), np.array([0.7])
    np.testing.assert_allclose(fr(a, 0.0), np.sqrt(np.pi / 2.0) * a, rtol=1e-14)
    np.testing.assert_allclose(fr(b, 0.0), np.sqrt(np.pi / 2.0) * b, rtol=1e-14)
    np.testing.assert_allclose(fr(a, 0.0), np.sqrt(np.pi / 2.0) * a, rtol=1e-14)


def test_shared_sampling_samples_once():
    # The modes of one grid ask for their coefficients at the same points
    # one after another, and each expression must be sampled once in all.
    sources = ("r*cos(theta)", "z*sin(2*theta)", "r*z")
    field = ExpressionField(*sources, n_theta=16)
    calls = []

    def counted(fn, source):
        def wrapper(*args):
            calls.append(source)
            return fn(*args)

        return wrapper

    field.fns = tuple(counted(fn, source) for fn, source in zip(field.fns, sources))
    modes = field.modes(range(-3, 4))
    r, z = np.meshgrid(np.linspace(0.1, 0.9, 9), np.linspace(0.0, 1.0, 4))
    got = {k: [c(r, z) for c in modes[k]] for k in range(-3, 4)}
    assert sorted(calls) == sorted(sources)
    for k in range(-3, 4):
        for c, vals in enumerate(got[k]):
            np.testing.assert_array_equal(vals, field.mode(k)[c](r, z))


_BLOCK_SOURCES = (
    "r*z*(1 - r)/(1.5 - cos(theta - 0.3))",
    "exp(r*cos(theta))*sin(z*theta) + r/(z - 0.5)",
    "(1 + r)*z",
)


def _assembly_points(h):
    mesh = generate_structured((1.0, 1.0), h)
    R, Z, _ = quadrature_geometry(mesh, fem._ASSEMBLY_RULE)
    return R, Z


def test_blocked_sampling_is_bit_identical_to_one_pass(monkeypatch):
    # Blocks of 3 points on 50 triangles x 7 points: the last block holds
    # 2.  The FFT runs along each point's own row, so the blocks change no
    # bit.  A point at z = 0.5 makes the second formula infinite there, so
    # its coefficients are not finite.
    n_theta = 32
    r, z = _assembly_points(0.25)
    r, z = r[:50], z[:50].copy()
    z[3, 2] = 0.5
    assert r.size % 3 == 2
    ks = list(range(-7, 8))

    def sample():
        modes = ExpressionField(*_BLOCK_SOURCES, n_theta=n_theta).modes(ks)
        return np.stack([[modes[k][c](r, z) for c in range(3)] for k in ks])

    monkeypatch.setattr(expressions, "_BLOCK_SAMPLES", r.size * n_theta)
    whole = sample()
    monkeypatch.setattr(expressions, "_BLOCK_SAMPLES", 3 * n_theta + n_theta // 2)
    blocked = sample()
    assert not np.all(np.isfinite(whole))
    assert blocked.tobytes() == whole.tobytes()


def test_sampling_memory_does_not_grow_with_the_mesh():
    # n_theta = 128 on the assembly points of h = 1/16 and 1/32 (3,584 and
    # 14,336 points).  Sampling each formula on the whole grid at once
    # peaked 17.5 and 70 MiB above the kept coefficients; blocks of
    # _BLOCK_SAMPLES samples keep the rest at 1.3 MiB on both.
    ks = list(range(25))
    for h in (1 / 16, 1 / 32):
        r, z = _assembly_points(h)
        modes = ExpressionField(*_BLOCK_SOURCES, n_theta=128).modes(ks)
        tracemalloc.start()
        try:
            modes[0][0](r, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = 3 * r.size * len(ks) * 16
        assert peak - kept <= 4 * 2**20, f"h = {h}: {(peak - kept) / 2**20:.1f} MiB"
