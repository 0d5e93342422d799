"""
Convergence rates, inf-sup constants, and k-uniform stability
=============================================================

Three numerical health checks for the per-mode discretization.  The
manufactured-solution study should show second-order rates in the mode
energy norms.  The discrete inf-sup constant should settle to a
mesh-independent value as h decreases.  And the ratio of solution norm
to data norm should stay of one size as the wavenumber grows, since the
continuous problems are uniformly stable in the k-weighted norms.
"""

from axistokes import (
    FemSpace,
    assemble,
    builtin_cases,
    convergence_study,
    estimate_inf_sup,
    generate_structured,
    stability_study,
)

# Second-order convergence for a non-polynomial-exact case at k = 1.
case = builtin_cases()["k1_convergence"]
study = convergence_study(case, hs=(1 / 4, 1 / 8, 1 / 16))
print(f"convergence of {case.name} (velocity H1k, pressure weighted L2):")
print(study.csv())
print(f"observed rates: velocity {study.rate_u:.3f}, pressure {study.rate_p:.3f}")

# The inf-sup constant beta_h for a few wavenumbers and two refinements.
# Values that barely move under refinement are the practical evidence of
# a mesh-family-uniform inf-sup bound.
print("inf-sup constants:")
print("  h        k=0      k=1      k=5")
for h in (1 / 4, 1 / 8):
    space = FemSpace(generate_structured((1.0, 1.0), h))
    betas = [estimate_inf_sup(assemble(space, k)) for k in (0, 1, 5)]
    print(f"  {h:.4f}  " + "  ".join(f"{b:.5f}" for b in betas))

# Stability across wavenumbers: one fixed body force drives k = 0..12
# and the ratio |u| + |p| over the dual data norm is recorded.
print("\nstability ratios (solution norm / data norm):")
stab = stability_study(ks=range(0, 13), h=1 / 8)
for k, ratio in zip(stab.ks, stab.ratios):
    print(f"  k = {k:2d}: {ratio:.4f}")
print(f"max ratio / axisymmetric ratio: {stab.max_ratio / stab.reference:.3f}")
print(f"uniform within factor 2: {stab.uniform(2.0)}")
