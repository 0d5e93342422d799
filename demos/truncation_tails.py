"""
Truncation error of finite mode expansions
==========================================

Keeping modes |k| <= N discards a tail whose size is governed by the
angular regularity of the data: amplitudes decaying like (1+|k|)^(-(s+1))
leave a tail near N^(-(s+1/2)).  This script measures those tails for a
family of synthetic decay profiles and compares them against the
theoretical envelope, then repeats a small case with actual per-mode
solves instead of closed-form norms.
"""

from axistokes import DecayFamily, truncation_study

for s in (0.5, 1.0, 2.0):
    family = DecayFamily(s=s)
    study = truncation_study(family, ns=(2, 4, 8, 16, 32))
    print(f"decay exponent s = {s} (tail summed up to k = {study.k_max}):")
    print(study.csv())
    print(f"  final slope {study.slope:.4f} (envelope predicts {-(s + 0.5):.2f})")
    print(f"  bound ratio max/min over N: {study.bound_window:.4f}")
    # The estimate only bounds tail * N^s from above, and the halving
    # slopes trail the limiting rate by O(1/N); these two test that promise.
    print(f"  one-sided ratio max/first over N: {study.one_sided_ratio:.4f}")
    print(f"  extrapolated slope: {study.extrapolated_slope:.4f}")
    print()

# The same study with honest finite element solves at every wavenumber.
# Tails keep shrinking with N; rates are noisier because the meridian
# discretization error enters each mode norm.
family = DecayFamily(s=1.0)
solved = truncation_study(family, ns=(2, 4, 8), with_solves=True, h=0.25)
print("with per-mode solves (s = 1, coarse mesh):")
print(solved.csv())
print(f"  final slope {solved.slope:.4f}")
