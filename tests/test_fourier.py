"""Angular transform, conjugation symmetry, and mode stack serialization."""

import numpy as np
import pytest

from axistokes.fourier import (
    AngularSamples,
    FourierStack,
    ModeVectors,
    angular_grid,
    anisotropic_norm,
    complete_real_modes,
    conjugation_defect,
    fourier_coefficient,
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
    for k in (1, -1):
        c = fourier_coefficient(vals, k)
        assert c == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-14)
    assert fourier_coefficient(vals, 0) == pytest.approx(0.0, abs=1e-15)
    assert fourier_coefficient(vals, 2) == pytest.approx(0.0, abs=1e-15)


def test_aliasing_guard():
    vals = np.cos(angular_grid(8))
    with pytest.raises(ValueError, match="aliasing"):
        fourier_coefficient(vals, 2)
    # 4|k| + 2 = 10 > 8 forbids k = 2 on eight samples; sixteen are enough.
    fourier_coefficient(np.cos(angular_grid(16)), 2)


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
    for k in ks:
        back = fourier_coefficient(signal, k)
        assert back == pytest.approx(coeffs[k], rel=1e-13, abs=1e-14)
    # Unresolved-but-guarded bins of a resolved signal are empty.
    assert fourier_coefficient(signal, 6) == pytest.approx(0.0, abs=1e-13)


def test_real_signal_conjugation_parity():
    rng = np.random.default_rng(5)
    thetas = angular_grid(32)
    signal = np.zeros((3, 32))
    for k in range(4):
        amp = rng.standard_normal(3)
        phase = rng.standard_normal(3)
        signal += amp[:, None] * np.cos(k * thetas + phase[:, None])
    modes = {k: fourier_coefficient(signal, k) for k in range(-4, 5)}
    assert conjugation_defect(modes) < 1e-13
    positive_only = {k: v for k, v in modes.items() if k >= 0}
    filled = complete_real_modes(positive_only)
    np.testing.assert_allclose(filled[-3], np.conj(modes[3]), atol=1e-15)


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
