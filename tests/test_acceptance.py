"""Acceptance gate: one test per shipped claim, tolerances pinned.

Each test prints a single pass/fail line for its criterion and asserts
it.  Numbers compared against come from independent closed forms or from
oracle values computed outside the library before these tests were
written down.
"""

import time

import numpy as np
import pytest

from axistokes.cli import main
from axistokes.fem import (
    FemSpace,
    assemble,
    assemble_divergence_rhs,
    boundary_flux,
)
from axistokes.fields import Poly2
from axistokes.meshing import DomainSpec, generate_structured, mesh_from_spec
from axistokes.norms import vector_mode_norm
from axistokes.solver import SolverConfig, estimate_inf_sup, solve_mode
from axistokes.verification import (
    DecayFamily,
    builtin_cases,
    convergence_study,
    isometry_suite,
    stability_study,
    truncation_study,
)

from fem_reference import divergence_matrix

L_SHAPE = ((0.0, 0.5), (1.0, 0.5), (1.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0))


def _line(num: int, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    print(f"criterion {num:2d}: {word} ({detail})")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def domains():
    return [
        ("unit square", generate_structured((1.0, 1.0), 0.25)),
        ("L-shaped", mesh_from_spec(DomainSpec(polygon=L_SHAPE, target_h=0.5))),
    ]


@pytest.fixture(scope="module")
def suites(domains):
    return {label: isometry_suite(mesh) for label, mesh in domains}


@pytest.fixture(scope="module")
def square8():
    return FemSpace(generate_structured((1.0, 1.0), 1.0 / 8.0))


@pytest.fixture(scope="module")
def cases():
    return builtin_cases()


def test_criterion_01_norm_isometries(suites):
    # Mode-norm sums against honest 3D tensor-quadrature integrals:
    # 10 random trig-polynomial fields, modes |k| <= 5, on both domains.
    names = ("l2_isometry", "h1_semi_isometry", "h1_full_isometry")
    worst = 0.0
    for label, checks in suites.items():
        for check in checks:
            if check.name in names:
                worst = max(worst, check.value)
    _line(1, worst <= 1e-8, f"worst relative isometry defect {worst:.3e} <= 1e-8")


def test_criterion_02_polarization_identity(suites):
    worst = max(
        check.value
        for checks in suites.values()
        for check in checks
        if check.name == "polarization"
    )
    _line(2, worst <= 1e-12, f"worst polarization defect {worst:.3e} <= 1e-12")


def test_criterion_03_norm_equivalence_sandwich(domains):
    mesh = domains[0][1]
    rng = np.random.default_rng(42)
    lo, hi = np.inf, 0.0
    for k in (2, 3, 5, 10):
        for _ in range(100):
            comps = []
            for _ in range(3):
                coeffs = {}
                for a in range(3):
                    for b in range(3 - a):
                        coeffs[(a + 1, b)] = (
                            rng.standard_normal() + 1j * rng.standard_normal()
                        )
                comps.append(Poly2(coeffs))
            rep = vector_mode_norm(mesh, comps, k)
            ratio = rep.h1k / rep.h1k_star
            lo, hi = min(lo, ratio), max(hi, ratio)
    within = 0.5 <= lo and hi <= 1.5

    # The family (r, -i r, 0) loads one coupling branch only, so its norm
    # ratio drops toward the lower end as the wavenumber grows.
    r_mono = Poly2.monomial(1, 0)
    trend = []
    for k in (2, 3, 5, 10, 20):
        v = (r_mono, Poly2({(0, 0): -1j}) * r_mono, Poly2.zero())
        rep = vector_mode_norm(mesh, v, k)
        trend.append(rep.h1k / rep.h1k_star)
    decreasing = all(b < a for a, b in zip(trend, trend[1:]))
    toward_one = trend[-1] <= 1.1 and all(t >= 1.0 - 1e-12 for t in trend)
    ok = within and decreasing and toward_one
    _line(
        3,
        ok,
        f"400 ratios in [{lo:.4f}, {hi:.4f}] within [0.5, 1.5]; "
        f"trend {trend[0]:.3f} -> {trend[-1]:.3f} decreasing toward 1",
    )


def test_criterion_04_manufactured_convergence(cases):
    started = time.perf_counter()
    rates = {}
    for name in ("k0_convergence", "k1_convergence", "k3_convergence"):
        study = convergence_study(cases[name], hs=(1 / 8, 1 / 16, 1 / 32))
        rates[cases[name].k] = (study.rate_u, study.rate_p)
    elapsed = time.perf_counter() - started
    ok = all(ru >= 1.8 and rp >= 1.8 for ru, rp in rates.values()) and elapsed < 120.0
    detail = ", ".join(
        f"k={k}: u {ru:.2f} / p {rp:.2f}" for k, (ru, rp) in sorted(rates.items())
    )
    _line(4, ok, f"{detail}; all >= 1.8 in {elapsed:.1f}s < 120s")


def test_criterion_05_conjugation_of_solves(square8, cases):
    worst = 0.0
    for name in ("k2_divfree", "k3_convergence"):
        case = cases[name]
        pos = solve_mode(
            assemble(square8, case.k, g=case.u), f=case.f, g_div=case.g_div
        )
        g_neg = case.g_div.conj() if case.g_div is not None else None
        neg = solve_mode(
            assemble(square8, -case.k, g=tuple(c.conj() for c in case.u)),
            f=tuple(c.conj() for c in case.f),
            g_div=g_neg,
        )
        scale = max(float(np.abs(pos.u).max()), 1.0)
        worst = max(
            worst,
            float(np.abs(neg.u - np.conj(pos.u)).max()) / scale,
            float(np.abs(neg.p - np.conj(pos.p)).max()) / scale,
        )
    _line(5, worst <= 1e-10, f"mirrored-solve conjugation defect {worst:.3e} <= 1e-10")


def test_criterion_06_inf_sup_uniformity():
    betas = {}
    for h in (1 / 8, 1 / 16, 1 / 32):
        space = FemSpace(generate_structured((1.0, 1.0), h))
        for k in (0, 1, 2, 5):
            betas[(h, k)] = estimate_inf_sup(assemble(space, k))
    vals = list(betas.values())
    spread = (max(vals) - min(vals)) / min(vals)
    _line(
        6,
        spread < 0.20,
        f"beta in [{min(vals):.4f}, {max(vals):.4f}] over h in (1/8, 1/16, 1/32) "
        f"and k in (0, 1, 2, 5); spread {spread:.1%} < 20%",
    )


def test_criterion_07_uniform_stability_in_wavenumber():
    study = stability_study(ks=range(0, 21), h=1 / 8)
    ratio = study.max_ratio / study.reference
    _line(
        7,
        study.uniform(2.0),
        f"max solution/data ratio up to k=20 is {ratio:.3f}x the axisymmetric one, <= 2x",
    )


def _truncation_check(study, s):
    """Criterion 08 for one study whose data is claimed to have regularity s.

    Returns (bound_ok, rate_ok, detail): bound_ok when max_N tail(N) * N^s
    is at most 1.5 times its value at the smallest N, rate_ok when the
    extrapolated rate 2 * slope(16 -> 32) - slope(8 -> 16) lies within
    +-0.15 of -(s + 1/2).
    """
    scaled = [t * n**s for n, t in zip(study.ns, study.tails)]
    ratio = max(scaled) / scaled[0]
    slopes = study.slopes()
    extrapolated = 2.0 * slopes[-1] - slopes[-2]
    target = -(s + 0.5)
    detail = (
        f"s={s:g}: last slope {slopes[-1]:.4f}, extrapolated {extrapolated:.4f} "
        f"vs {target:.2f} +-0.15, max/first of tail*N^s {ratio:.4f} <= 1.5"
    )
    return ratio <= 1.5, abs(extrapolated - target) <= 0.15, detail


TRUNCATION_S = (0.5, 1.0, 2.0)
TRUNCATION_NS = (2, 4, 8, 16, 32)


def test_criterion_08_truncation_decay():
    # The estimate tail(N) <= C N^-s ||u||_s is an upper bound, so tail*N^s
    # may fall (for this family like N^-1/2) but must not rise: it is
    # checked against its first value, not held in a two-sided window.
    # Halving slopes approach -(s+1/2) with an O(1/N) gap that is still
    # 0.16 at N = 32 for s = 2; one Richardson step removes that term, so
    # the band applies to the extrapolated rate.  The raw last slope is
    # printed alongside.
    rows = []
    ok = True
    for s in TRUNCATION_S:
        study = truncation_study(DecayFamily(s), ns=TRUNCATION_NS)
        bound_ok, rate_ok, row = _truncation_check(study, s)
        ok = ok and bound_ok and rate_ok
        rows.append(row)
    for row in rows:
        print(row)
    _line(8, ok, "; ".join(rows))


def test_criterion_08_rejects_overstated_regularity():
    # Negative control: claimed half an order smoother than they are, the
    # same studies fail both halves of the check, so neither is vacuous.
    for s in TRUNCATION_S:
        study = truncation_study(DecayFamily(s), ns=TRUNCATION_NS)
        bound_ok, rate_ok, row = _truncation_check(study, s + 0.5)
        print(f"family s={s:g} checked as {row}")
        assert not bound_ok and not rate_ok, row


def test_criterion_09_axisymmetric_decoupled_fast_path(square8, cases):
    # Real axisymmetric data has a real solution: its solve is one real
    # column.  The same data times a unit phase takes the complex path (two
    # real columns); divided by the phase, its solution must agree.
    case = cases["k0_convergence"]
    phase = np.exp(0.3j)
    g, f = (tuple(phase * c for c in v) for v in (case.u, case.f))
    worst = 0.0
    for method in ("direct", "uzawa"):
        config = SolverConfig(method=method, tol=1e-13)
        real = solve_mode(assemble(square8, 0, g=case.u), f=case.f, config=config)
        assert not np.any(real.u.imag) and not np.any(real.p.imag)
        coupled = solve_mode(assemble(square8, 0, g=g), f=f, config=config)
        scale = max(float(np.abs(real.u).max()), 1.0)
        worst = max(
            worst,
            float(np.abs(real.u - coupled.u / phase).max()) / scale,
            float(np.abs(real.p - coupled.p / phase).max()) / scale,
        )
    _line(
        9,
        worst <= 1e-10,
        f"real data, exactly real solution, vs complex solve of phased data: "
        f"{worst:.3e} <= 1e-10",
    )


def test_criterion_10_compatibility_flux(square8, cases, tmp_path, capsys):
    worst = 0.0
    for name in ("k0_exact", "k0_convergence"):
        case = cases[name]
        system = assemble(square8, 0, g=case.u)
        sol = solve_mode(system, f=case.f)
        worst = max(worst, abs(boundary_flux(square8, sol.u)))
        G = assemble_divergence_rhs(square8, case.g_div)
        B = divergence_matrix(square8.operators(), 0)
        worst = max(worst, abs(complex(np.sum(G - B @ system.constraints.fix))))

    # The solver front end reports the flux value for the axisymmetric mode.
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[domain]\nrectangle = 1 1\nh = 0.125\n\n"
        "[data]\nmanufactured = k0_exact\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    captured = capsys.readouterr().out
    flux_lines = [ln for ln in captured.splitlines() if "flux defect" in ln]
    assert len(flux_lines) == 1
    reported = float(flux_lines[0].split()[-1])
    worst = max(worst, reported)
    _line(
        10,
        worst <= 1e-10,
        f"divergence-free cases: worst reported/integrated flux {worst:.3e} <= 1e-10",
    )
