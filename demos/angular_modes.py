"""
Angular sampling and Fourier mode coefficients
==============================================

Fields on a body of revolution are expanded in exp(i k theta) with the
symmetric 1/sqrt(2 pi) normalization, which makes the 3D L2 norm the
plain l2 sum of mode norms.  This script extracts coefficients from
sampled data, checks the aliasing guard, reconstructs the signal, and
shows the conjugate symmetry that real data imposes.
"""

import numpy as np

from axistokes import (
    AngularSamples,
    anisotropic_norm,
    conjugation_defect,
    fourier_coefficients,
    min_angular_samples,
    reconstruct,
    rotate_to_cartesian,
    rotate_to_cylindrical,
)

# How many equispaced angles does mode k need?  At least 4|k| + 2, so
# quadratic nonlinearities of the highest mode still cannot alias back
# onto it; min_angular_samples rounds that up to a power of two.
for k in (0, 1, 3, 5, 12):
    print(f"mode {k:2d} needs n_theta >= {min_angular_samples(k)}")

# cos(k theta) carries coefficient sqrt(pi/2) at +k and -k under the
# symmetric convention.
n = 64
samples = AngularSamples.sample(lambda t: np.cos(3 * t), n)
c3 = complex(samples.coefficient(3))
print(f"\ncoefficient of cos(3 theta) at k=3: {c3:.6f}")
print(f"expected sqrt(pi/2)           : {np.sqrt(np.pi / 2):.6f}")

# A random trigonometric polynomial survives the sample/reconstruct
# round trip to rounding error.
rng = np.random.default_rng(7)
coeffs = {k: complex(rng.normal(), rng.normal()) for k in range(-4, 5)}
thetas = samples.thetas
signal = reconstruct(coeffs, thetas)
recovered = fourier_coefficients(signal, list(coeffs))
worst = max(abs(coeffs[k] - c) for k, c in zip(coeffs, recovered))
print(f"\nround-trip error over k in [-4, 4]: {worst:.3e}")

# Real signals satisfy c(-k) = conj(c(k)); the defect is a cheap sanity
# check on data that is supposed to be real.
real_signal = np.cos(2 * thetas) + 0.25 * np.sin(5 * thetas)
ks = range(-6, 7)
modes = dict(zip(ks, fourier_coefficients(real_signal, ks)))
print(f"conjugation defect of a real signal: {conjugation_defect(modes):.3e}")

# Vector data given in Cartesian components must be rotated into
# cylindrical components before the modewise solver can use it.
v_cyl = np.array([1.0, 2.0, 3.0])
theta = 0.7
v_cart = rotate_to_cartesian(v_cyl, theta)
back = rotate_to_cylindrical(v_cart, theta)
print(f"\ncylindrical -> cartesian -> cylindrical defect: {np.abs(back - v_cyl).max():.3e}")

# Sobolev-type weights (1 + k^2)^s turn the mode norms into anisotropic
# norms of the 3D field; heavier weights punish high-k content.
norms = {0: 1.0, 1: 0.5, 2: 0.25, 3: 0.125}
for s in (0.0, 1.0, 2.0):
    print(f"anisotropic norm, s = {s}: {anisotropic_norm(norms, s):.6f}")
