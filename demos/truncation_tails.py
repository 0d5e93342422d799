"""
Truncation error of finite mode expansions
==========================================

Keeping modes |k| <= N discards a tail whose size is governed by the
angular regularity of the data: amplitudes decaying like (1+|k|)^(-(s+1))
leave a tail near N^(-(s+1/2)).  This script tabulates those tails, in
closed form, for a family of synthetic decay profiles and compares them
against the theoretical envelope.
"""

from axistokes import DecayFamily, truncation_study

for s in (0.5, 1.0, 2.0):
    family = DecayFamily(s=s)
    study = truncation_study(family, ns=(2, 4, 8, 16, 32))
    print(f"decay exponent s = {s}:")
    print(study.csv())
    # The estimate only bounds tail * N^s from above, and the halving
    # slopes trail the limiting rate by O(1/N); these two test that promise.
    print(f"  one-sided ratio max/first over N: {study.one_sided_ratio:.4f}")
    print(
        f"  extrapolated slope: {study.extrapolated_slope:.4f} "
        f"(envelope predicts {-(s + 0.5):.2f})"
    )
    print()
