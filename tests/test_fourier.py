"""Angular transform, conjugation symmetry, and mode stack serialization."""

import itertools
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axistokes import fourier
from axistokes.fourier import (
    AngularSamples,
    FourierStack,
    ModeVectors,
    angular_grid,
    anisotropic_norm,
    conjugation_defect,
    fourier_coefficients,
    min_angular_samples,
    read_stack,
    reconstruct,
    reconstruct_stack,
    rotate_to_cartesian,
    rotate_to_cylindrical,
    write_stack,
)
from axistokes.meshing import MeshError


def test_cosine_coefficient_closed_form():
    # With the symmetric normalization the k = +-1 coefficients of cos are
    # sqrt(pi/2).
    thetas = angular_grid(16)
    vals = np.cos(thetas)
    c1, c_1, c0, c2 = fourier_coefficients(vals, [1, -1, 0, 2])
    for c in (c1, c_1):
        assert c == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-14)
    assert c0 == pytest.approx(0.0, abs=1e-15)
    assert c2 == pytest.approx(0.0, abs=1e-15)


def test_aliasing_guard():
    vals = np.cos(angular_grid(8))
    with pytest.raises(ValueError, match="aliasing"):
        fourier_coefficients(vals, [2])
    # 4|k| + 2 = 10 > 8 forbids k = 2 on eight samples; sixteen are enough.
    fourier_coefficients(np.cos(angular_grid(16)), [2])


def test_min_angular_samples_power_of_two():
    assert min_angular_samples(0) == 2
    assert min_angular_samples(1) == 8
    assert min_angular_samples(3) == 16
    assert min_angular_samples(5) == 32
    for k in range(0, 12):
        n = min_angular_samples(k)
        assert n >= 4 * k + 2
        assert n & (n - 1) == 0


def test_roundtrip_trig_polynomial():
    rng = np.random.default_rng(11)
    ks = range(-4, 5)
    coeffs = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in ks}
    thetas = angular_grid(32)
    signal = reconstruct(coeffs, thetas)
    back = fourier_coefficients(signal, ks)
    for k, c in zip(ks, back):
        assert c == pytest.approx(coeffs[k], rel=1e-13, abs=1e-14)
    # Unresolved-but-guarded bins of a resolved signal are empty.
    assert fourier_coefficients(signal, [6])[0] == pytest.approx(0.0, abs=1e-13)


def test_real_signal_conjugation_parity():
    rng = np.random.default_rng(5)
    thetas = angular_grid(32)
    signal = np.zeros((3, 32))
    for k in range(4):
        amp = rng.standard_normal(3)
        phase = rng.standard_normal(3)
        signal += amp[:, None] * np.cos(k * thetas + phase[:, None])
    ks = range(-4, 5)
    modes = dict(zip(ks, np.moveaxis(fourier_coefficients(signal, ks), -1, 0)))
    assert conjugation_defect(modes) < 1e-13


@pytest.mark.parametrize("n", [14, 15, 16, 21])
def test_batched_coefficients_match_trapezoid_sums(n):
    # One transform, any count of at least 4 max|k| + 2 samples (14 for
    # k = -3 .. 3), matches the trapezoid sum of each mode on its own.
    rng = np.random.default_rng(n)
    thetas = angular_grid(n)
    values = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    ks = [3, -3, 0, 1, -2]
    got = fourier_coefficients(values, ks)
    assert got.shape == (2, 3, len(ks))
    for j, k in enumerate(ks):
        want = np.sqrt(2.0 * np.pi) / n * np.sum(values * np.exp(-1j * k * thetas), axis=-1)
        assert np.abs(got[..., j] - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError, match="needs at least 14 angular samples"):
        fourier_coefficients(values[..., :13], ks)


def test_angular_samples_validation_and_extraction():
    with pytest.raises(ValueError, match="power of two"):
        AngularSamples(np.ones(12))
    samples = AngularSamples.sample(lambda t: np.sin(2 * t), 16)
    assert samples.n_theta == 16
    c = samples.coefficient(2)
    assert c == pytest.approx(-1j * np.sqrt(np.pi / 2.0), rel=1e-14)


def test_rotation_roundtrip():
    rng = np.random.default_rng(2)
    thetas = angular_grid(8)
    v_cyl = tuple(rng.standard_normal(8) for _ in range(3))
    cart = rotate_to_cartesian(v_cyl, thetas)
    back = rotate_to_cylindrical(cart, thetas)
    for a, b in zip(v_cyl, back):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_anisotropic_norm_formula():
    # Two modes with norms a, b at k = 1, 2 and s = 1: sqrt(2 a^2 + 5 b^2).
    a, b = 0.7, 0.4
    value = anisotropic_norm({1: a, 2: b}, 1.0)
    assert value == pytest.approx(np.sqrt(2 * a**2 + 5 * b**2), rel=1e-14)
    assert anisotropic_norm({0: 1.0}, 3.0) == pytest.approx(1.0)


def _random_stack(rng, n_vel=5, n_p=3, real_data=False):
    modes = {}
    ks = (0, 1, 2) if real_data else (-2, -1, 0, 1, 2)
    for k in ks:
        u = rng.standard_normal((3, n_vel)) + 1j * rng.standard_normal((3, n_vel))
        p = rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p)
        if real_data and k == 0:
            u = u.real.astype(complex)
            p = p.real.astype(complex)
        modes[k] = ModeVectors(u, p)
    return FourierStack(n_max=2, real_data=real_data, mesh_id="cafe01234567", modes=modes)


def test_stack_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    stack = _random_stack(rng)
    write_stack(stack, tmp_path / "stack")
    back = read_stack(tmp_path / "stack")
    assert back.n_max == stack.n_max
    assert back.real_data == stack.real_data
    assert back.mesh_id == stack.mesh_id
    assert back.wavenumbers == stack.wavenumbers
    for k in stack.wavenumbers:
        np.testing.assert_array_equal(back.modes[k].u, stack.modes[k].u)
        np.testing.assert_array_equal(back.modes[k].p, stack.modes[k].p)


@st.composite
def _stacks(draw):
    n_vel = draw(st.integers(2, 6))
    n_p = draw(st.integers(1, n_vel - 1))
    ks = draw(st.sets(st.integers(-4, 4), min_size=1, max_size=4))
    values = st.complex_numbers(allow_nan=False, allow_infinity=False)

    def array(n):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=complex)

    modes = {
        k: ModeVectors(array(3 * n_vel).reshape(3, n_vel), array(n_p)) for k in ks
    }
    return FourierStack(
        n_max=max(map(abs, ks)), real_data=draw(st.booleans()),
        mesh_id="cafe01234567", modes=modes,
    )


@settings(max_examples=40, deadline=None)
@given(stack=_stacks())
def test_stack_roundtrip_bit_for_bit(stack):
    with tempfile.TemporaryDirectory() as tmp:
        write_stack(stack, Path(tmp) / "stack")
        back = read_stack(Path(tmp) / "stack")
    assert (back.n_max, back.real_data, back.mesh_id) == (
        stack.n_max, stack.real_data, stack.mesh_id,
    )
    assert back.wavenumbers == stack.wavenumbers
    for k in stack.wavenumbers:
        mine, theirs = back.modes[k], stack.modes[k]
        for a, b in ((mine.u, theirs.u), (mine.p, theirs.p)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stack_rows_written_exactly(tmp_path):
    # Every value is written with repr, so it reads back bit for bit;
    # velocity-only rows leave the pressure fields empty.
    u = np.array([[0.1, 2.0], [-0.0, 1e-300], [3.0, -4.5]]) + 1j * np.array(
        [[1 / 3, 0.0], [-2.5, 0.0], [0.0, 7e22]]
    )
    stack = FourierStack(
        n_max=1, real_data=False, mesh_id="cafe01234567",
        modes={1: ModeVectors(u, np.array([0.25 - 1j]))},
    )
    write_stack(stack, tmp_path / "stack")
    lines = (tmp_path / "stack" / "mode_1.csv").read_text().splitlines()
    assert lines[1] == (
        "0, 0.1, 0.3333333333333333, -0.0, -2.5, 3.0, 0.0, 0.25, -1.0"
    )
    assert lines[2] == "1, 2.0, 0.0, 1e-300, 0.0, -4.5, 7e+22, , "
    assert len(lines) == 3


def test_real_stack_implies_negative_modes(tmp_path):
    rng = np.random.default_rng(10)
    stack = _random_stack(rng, real_data=True)
    assert stack.wavenumbers == [0, 1, 2]
    implied = stack.mode(-2)
    np.testing.assert_array_equal(implied.u, np.conj(stack.modes[2].u))
    with pytest.raises(KeyError):
        stack.mode(5)
    complex_stack = _random_stack(rng, real_data=False)
    with pytest.raises(KeyError):
        complex_stack.mode(3)


def test_read_stack_rejects_malformed(tmp_path):
    with pytest.raises(MeshError, match="not found"):
        read_stack(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "stack.meta").write_text("wrong header\n")
    with pytest.raises(MeshError, match="header"):
        read_stack(bad)


def _write_blanked_stack(directory, blanks):
    """A written stack whose mode 0 file has the given cells emptied.

    ``blanks`` maps a dof to the columns (1-8, after dof_index) to empty.
    """
    stack = _random_stack(np.random.default_rng(4), n_vel=6, n_p=5)
    write_stack(stack, directory)
    path = directory / "mode_0.csv"
    lines = path.read_text().splitlines()
    for dof, columns in blanks.items():
        cells = lines[dof + 1].split(",")
        for c in columns:
            cells[c] = ""
        lines[dof + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "blanks, message",
    [
        ({3: (7, 8), 4: (8,)}, "mode_0.csv:6: pressure needs both cells or neither"),
        ({1: (7, 8)}, "mode_0.csv:4: pressure after a row without one"),
        ({2: (1,)}, "mode_0.csv:4: bad number"),
    ],
    ids=["one-cell", "gap", "velocity"],
)
def test_read_stack_rejects_malformed_rows(tmp_path, blanks, message):
    # Each is refused with its file and line, not read as a mode with
    # fewer pressures or left to raise TypeError.
    _write_blanked_stack(tmp_path / "stack", blanks)
    with pytest.raises(MeshError, match=re.escape(message)):
        read_stack(tmp_path / "stack")


def test_read_stack_names_the_directory_of_unequal_modes(tmp_path):
    # Mode 0 loses its last pressure row, a well-formed file on its own.
    _write_blanked_stack(tmp_path / "stack", {4: (7, 8)})
    with pytest.raises(MeshError, match=re.escape(f"{tmp_path / 'stack'}: all modes")):
        read_stack(tmp_path / "stack")


def _reference_write_stack(stack, directory):
    """write_stack as it was before mirrored modes shared their text.

    Every mode's eight value columns are formatted with repr, one mode at a
    time; the writer must keep producing these bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = [
        "axistokes-stack v1",
        f"n_max {stack.n_max}",
        f"real_data {int(stack.real_data)}",
        f"mesh_id {stack.mesh_id}",
        "modes " + " ".join(str(k) for k in stack.wavenumbers),
    ]
    (directory / "stack.meta").write_text("\n".join(meta) + "\n")
    for k in stack.wavenumbers:
        mv = stack.modes[k]
        columns = [map(str, range(mv.n_vel))]
        for values in (*mv.u, mv.p):
            pad = [""] * (mv.n_vel - values.size)
            for part in (values.real, values.imag):
                columns.append(itertools.chain(map(repr, part.tolist()), pad))
        lines = [
            "dof_index, re_ur, im_ur, re_utheta, im_utheta, re_uz, im_uz, re_p, im_p",
            *map(", ".join, zip(*columns)),
        ]
        (directory / f"mode_{k}.csv").write_text("\n".join(lines) + "\n")


def _assert_stack_bytes_match_reference(stack):
    with tempfile.TemporaryDirectory() as tmp:
        mine, ref = Path(tmp) / "mine", Path(tmp) / "ref"
        write_stack(stack, mine)
        _reference_write_stack(stack, ref)
        names = sorted(path.name for path in ref.iterdir())
        assert sorted(path.name for path in mine.iterdir()) == names
        for name in names:
            assert (mine / name).read_bytes() == (ref / name).read_bytes(), name


_SPECIAL_FLOATS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    -1e-310, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
]


@st.composite
def _mirrored_stacks(draw):
    """Real-data stacks whose negative modes are conj() of the positive ones.

    Values include signed zeros, infinities, nan, subnormals and exponents
    from -300 to 300; n_p < n_vel, so pressure rows are padded.
    """
    n_vel = draw(st.integers(2, 6))
    n_p = draw(st.integers(1, n_vel - 1))
    scaled = st.builds(
        lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)
    )
    parts = st.one_of(st.sampled_from(_SPECIAL_FLOATS), scaled, st.floats())

    def array(n):
        # Set the parts one by one: re + 1j * im would turn inf into nan.
        values = np.empty(n, complex)
        values.real = draw(st.lists(parts, min_size=n, max_size=n))
        values.imag = draw(st.lists(parts, min_size=n, max_size=n))
        return values

    modes = {}
    for k in draw(st.sets(st.integers(0, 4), min_size=1, max_size=4)):
        modes[k] = ModeVectors(array(3 * n_vel).reshape(3, n_vel), array(n_p))
        if k and draw(st.booleans()):
            modes[-k] = ModeVectors(np.conj(modes[k].u), np.conj(modes[k].p))
    return FourierStack(
        n_max=max(map(abs, modes)), real_data=True, mesh_id="cafe01234567", modes=modes
    )


@settings(max_examples=60, deadline=None)
@given(stack=_mirrored_stacks())
def test_mirrored_stack_bytes_match_the_reference_writer(stack):
    _assert_stack_bytes_match_reference(stack)


def _count_column_formatting(monkeypatch):
    counted = []
    formatter = fourier._value_columns

    def spy(mv):
        counted.append(mv)
        return formatter(mv)

    monkeypatch.setattr(fourier, "_value_columns", spy)
    return counted


def test_mirror_differing_in_one_zero_sign_takes_the_full_path(monkeypatch):
    # Negative control: mode -1 equals conj(mode 1) under ==, but one of its
    # imaginary zeros has the other sign, so its text is formatted afresh.
    u = np.array([[0.5, -1.25], [0.0, 3.0], [-0.0, 1e-300]]) + 1j * np.array(
        [[0.0, 2.0], [-0.0, -4.5], [1e300, 0.0]]
    )
    p = np.array([0.75 - 0.0j])
    mirror_u = np.conj(u)
    mirror_u[1, 0] = complex(mirror_u[1, 0].real, -mirror_u[1, 0].imag)
    assert np.array_equal(mirror_u, np.conj(u))
    assert mirror_u.tobytes() != np.conj(u).tobytes()
    stack = FourierStack(
        n_max=1, real_data=True, mesh_id="cafe01234567",
        modes={1: ModeVectors(u, p), -1: ModeVectors(mirror_u, np.conj(p))},
    )
    counted = _count_column_formatting(monkeypatch)
    _assert_stack_bytes_match_reference(stack)
    assert len(counted) == 2


def test_real_stack_formats_each_pair_once(monkeypatch):
    # 49 modes k = -24..24 of real data: mode 0 and modes 1..24 are
    # formatted, each -k written from the text of k.
    rng = np.random.default_rng(23)
    modes = {0: ModeVectors(rng.standard_normal((3, 4)), rng.standard_normal(2))}
    for k in range(1, 25):
        u = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        modes[k], modes[-k] = ModeVectors(u, p), ModeVectors(u.conj(), p.conj())
    stack = FourierStack(n_max=24, real_data=True, mesh_id="cafe01234567", modes=modes)
    counted = _count_column_formatting(monkeypatch)
    _assert_stack_bytes_match_reference(stack)
    assert len(counted) == 25
    assert {id(mv) for mv in counted} == {id(modes[k]) for k in range(25)}


def test_reconstruct_stack_frames_agree():
    rng = np.random.default_rng(21)
    stack = _random_stack(rng)
    thetas = angular_grid(16)
    u_cyl, p_cyl = reconstruct_stack(stack, thetas, frame="cylindrical")
    u_cart, p_cart = reconstruct_stack(stack, thetas, frame="cartesian")
    np.testing.assert_array_equal(p_cyl, p_cart)
    back = rotate_to_cylindrical((u_cart[0], u_cart[1], u_cart[2]), thetas)
    for c in range(3):
        np.testing.assert_allclose(back[c], u_cyl[c], atol=1e-14)
    with pytest.raises(ValueError, match="frame"):
        reconstruct_stack(stack, thetas, frame="spherical")


def test_half_stored_real_stack_reconstructs_full_field():
    # A real-data stack storing only k >= 0 stands for its +-k sum.
    rng = np.random.default_rng(22)
    half = _random_stack(rng, real_data=True)
    full = FourierStack(
        n_max=2, real_data=True, mesh_id=half.mesh_id,
        modes={k: half.mode(k) for k in range(-2, 3)},
    )
    thetas = angular_grid(16)
    for frame in ("cylindrical", "cartesian"):
        u_half, p_half = reconstruct_stack(half, thetas, frame=frame)
        u_full, p_full = reconstruct_stack(full, thetas, frame=frame)
        np.testing.assert_allclose(u_half, u_full, rtol=0, atol=1e-14)
        np.testing.assert_allclose(p_half, p_full, rtol=0, atol=1e-14)
        assert np.abs(u_half.imag).max() <= 1e-14
        assert np.abs(p_half.imag).max() <= 1e-14


def test_axisymmetric_stack_reconstruction_theta_independent():
    rng = np.random.default_rng(30)
    u = rng.standard_normal((3, 4)).astype(complex)
    p = rng.standard_normal(2).astype(complex)
    stack = FourierStack(
        n_max=0, real_data=True, mesh_id="cafe01234567", modes={0: ModeVectors(u, p)}
    )
    u3, p3 = reconstruct_stack(stack, angular_grid(8), frame="cylindrical")
    for j in range(1, 8):
        np.testing.assert_allclose(u3[..., j], u3[..., 0], atol=1e-15)
        np.testing.assert_allclose(p3[..., j], p3[..., 0], atol=1e-15)
