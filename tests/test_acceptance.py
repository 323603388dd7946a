"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured values at its stated tolerance.

Criterion 5's kappa=8 leg is known not to hold at the stated horizon: the
hitting-time law has a heavy t^(-1/4)-type tail (exactly computable in the
pure-Brownian case, against which the engine is validated below), so
P(zeta(1) <= 100) is about 0.85-0.88, not >= 0.95.  The test asserts the
criterion as written and is expected red; the printed line carries the
supplementary long-horizon fraction that does clear the threshold.
"""

import time

import numpy as np
from scipy.special import gammainc

from levyloewner.alpha_loewner import closed_form_null_driver
from levyloewner.drivers import (
    Brownian,
    CompoundPoisson,
    DriverSpec,
    JumpLaw,
    Stable,
    sample_brownian,
    sample_compound_poisson,
    sample_stable,
    uniform_grid,
)
from levyloewner.engine import Cell, run_adaptive_cells
from levyloewner.experiments import (
    PhaseParams,
    area_fraction,
    disconnection_frequency,
    hitting_probability,
    overshoot_histogram,
    scaling_check,
    slope_near_infinity,
    slope_near_zero,
    theta0_bracket,
)
from levyloewner.loewner import EvolutionConfig, compose_piecewise_constant, estimate_hcap, evolve_point
from levyloewner.rng import stream
from levyloewner.stable_calculus import frac_constant, gamma_coeff, gamma_coeff_alt, theta0

SEED = 20260809


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def null_path(horizon, dt=0.05):
    return sample_brownian(0.0, uniform_grid(horizon, dt), stream(SEED, "null"))


def test_criterion_01_coefficient_identities():
    t0 = time.time()
    worst_harmonic = max(abs(gamma_coeff(a, a)) for a in np.arange(0.3, 1.91, 0.2))
    worst_dual = 0.0
    for a in np.linspace(2.0 / 31, 2.0 * 30 / 31, 30):
        for p in np.linspace((a + 1) / 31, (a + 1) * 30 / 31, 30):
            worst_dual = max(worst_dual, abs(gamma_coeff(a, p) - gamma_coeff_alt(a, p)))
    a1_err = abs(frac_constant(1.0) - 1.0 / np.pi)
    elapsed = time.time() - t0
    ok = worst_harmonic <= 1e-8 and worst_dual <= 1e-8 and a1_err <= 1e-10 and elapsed < 60
    assert report("01 coefficient identities", ok,
                  f"|gamma(a,a)|<= {worst_harmonic:.2e}, dual grid diff <= {worst_dual:.2e}, "
                  f"|A(1)-1/pi| = {a1_err:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_solver_oracles():
    t0 = time.time()
    cfg1 = EvolutionConfig(horizon=1.0)
    zeta_i = evolve_point(1j, null_path(1.0), cfg1).zeta
    err_zeta = abs(zeta_i - 0.25)

    err_h = 0.0
    for x, horizon in ((1.0, 1.0), (0.5, 2.0), (-3.0, 4.0)):
        out = evolve_point(complex(x, 0.0), null_path(horizon), EvolutionConfig(horizon=horizon))
        err_h = max(err_h, abs(out.h_final - np.sign(x) * np.sqrt(x * x + 4 * horizon)))

    err_beta = 0.0
    for x, horizon, beta in ((1.0, 1.0, 1.5), (2.0, 3.0, 1.2), (0.3, 0.5, 1.8)):
        out = evolve_point(complex(x, 0.0), null_path(horizon),
                           EvolutionConfig(horizon=horizon, beta=beta))
        err_beta = max(err_beta, abs(out.h_final.real - closed_form_null_driver(x, beta, horizon)))

    err_red = 0.0
    for seed in range(10):
        path = sample_stable(1.5, 1.0, uniform_grid(1.0, 1e-2), stream(seed, "acc2"))
        z = 0.6 + 0.8j
        a = evolve_point(z, path, EvolutionConfig(horizon=1.0))
        b = evolve_point(z, path, EvolutionConfig(horizon=1.0, beta=2.0))
        if a.hit:
            err_red = max(err_red, abs(a.zeta - b.zeta))
        else:
            err_red = max(err_red, abs(a.h_final - b.h_final))
    elapsed = time.time() - t0
    ok = err_zeta <= 1e-6 and err_h <= 1e-8 and err_beta <= 1e-8 and err_red <= 1e-8
    assert report("02 closed-form solver oracles", ok,
                  f"zeta(i) err {err_zeta:.1e}, h_T err {err_h:.1e}, beta-flow err {err_beta:.1e}, "
                  f"beta=2 reduction err {err_red:.1e}, {elapsed:.1f}s")


def test_criterion_03_hcap_normalization():
    t0 = time.time()
    e0 = estimate_hcap(null_path(1.0, dt=0.01), 1.0)
    errs = []
    for seed in range(20):
        path = sample_brownian(4.0, uniform_grid(1.0, 1e-3), stream(300 + seed, "acc3"))
        errs.append(abs(estimate_hcap(path, 1.0) - 2.0) / 2.0)
    elapsed = time.time() - t0
    ok = abs(e0 - 2.0) / 2.0 <= 0.01 and max(errs) <= 0.05 and elapsed < 60
    assert report("03 hcap normalization", ok,
                  f"null driver rel err {abs(e0 - 2.0) / 2.0:.2e}, "
                  f"kappa=4 worst rel err {max(errs):.3f} over 20 seeds, {elapsed:.1f}s")


def test_criterion_04_integrator_vs_composition():
    t0 = time.time()
    tol = 1e-4
    law = JumpLaw("two_point", {"size": 1.0})
    worst_rel = 0.0
    worst_zeta = 0.0
    n_swallowed = 0
    for seed in range(200):
        path = sample_compound_poisson(2.0, law, 3.0, stream(seed, "acc4"))
        z = (0.4 + 0.6j, -1.2 + 0.3j, 1.5j)[seed % 3]
        g, zeta = compose_piecewise_constant(z, path, hit_tolerance=tol)
        out = evolve_point(z, path, EvolutionConfig(horizon=path.horizon, hit_tolerance=tol))
        if g is not None and not out.hit:
            h_comp = g - path.values[-1]
            worst_rel = max(worst_rel, abs(h_comp - out.h_final) / abs(h_comp))
        elif g is None and out.hit:
            n_swallowed += 1
            worst_zeta = max(worst_zeta, abs(zeta - out.zeta))
        else:
            worst_zeta = np.inf
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-6 and worst_zeta <= tol and elapsed < 300
    assert report("04 integrator vs composition", ok,
                  f"worst h_T rel diff {worst_rel:.1e}, worst zeta diff {worst_zeta:.1e} "
                  f"({n_swallowed} swallowed), {elapsed:.1f}s")


def test_criterion_05a_kappa_phase_subcritical():
    t0 = time.time()
    est = hitting_probability(PhaseParams(z=1.0, kappa=2.0, alpha=1.5, theta=1.0),
                              2000, 100.0, SEED, tag=("acc5", "k2"))
    elapsed = time.time() - t0
    ok = est.hit_fraction <= 0.05 and elapsed < 900
    assert report("05a kappa-phase (kappa=2)", ok,
                  f"hit fraction {est.hit_fraction:.4f} <= 0.05, flag {est.horizon_flag}, {elapsed:.1f}s")


def test_criterion_05b_kappa_phase_supercritical():
    """Expected red: the exact pure-Brownian hitting law (validated in
    test_engine_validated_against_exact_bessel_law) puts P(zeta <= 100)
    around 0.83 and the stable component only lifts it to ~0.85-0.88; the
    0.95-at-T=100 convention is unattainable.  See the long-horizon
    supplement in the printed line."""
    t0 = time.time()
    est = hitting_probability(PhaseParams(z=1.0, kappa=8.0, alpha=1.5, theta=1.0),
                              2000, 100.0, SEED, tag=("acc5", "k8"))
    spec = DriverSpec((Brownian(8.0), Stable(1.5, 1.0)))
    res_long = run_adaptive_cells([Cell(spec, 1.0, ("acc5", "k8-long"))], 2000, 5000.0,
                                  master_seed=SEED)[0]
    frac_long = float(res_long.hit.mean())
    elapsed = time.time() - t0
    ok = est.hit_fraction >= 0.95 and est.horizon_flag == "stable" and elapsed < 900
    assert report("05b kappa-phase (kappa=8)", ok,
                  f"hit fraction {est.hit_fraction:.4f} (criterion >= 0.95 at T=100), "
                  f"flag {est.horizon_flag}; supplement: frac(T=5000) = {frac_long:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_06_transience_phase():
    t0 = time.time()
    far = hitting_probability(PhaseParams(z=10.0, kappa=8.0, alpha=0.5, theta=1.0),
                              2000, 100.0, SEED, tag=("acc6", "far"))
    near = hitting_probability(PhaseParams(z=0.01, kappa=8.0, alpha=0.5, theta=1.0),
                               2000, 100.0, SEED, tag=("acc6", "near"))
    elapsed = time.time() - t0
    ok = (0.0 < far.wilson[0] and far.wilson[1] < 1.0
          and near.hit_fraction >= 0.9 and elapsed < 900)
    assert report("06 transience phase", ok,
                  f"x=10: frac {far.hit_fraction:.4f} CI ({far.wilson[0]:.4f},{far.wilson[1]:.4f}); "
                  f"x=0.01: frac {near.hit_fraction:.4f} >= 0.9, {elapsed:.1f}s")


def test_criterion_07_exponents():
    t0 = time.time()
    fit0 = slope_near_zero(8.0, 0.5, 1.0, [0.02, 0.04, 0.08, 0.16, 0.32, 0.64],
                           2000, 200.0, SEED)
    fit_inf = slope_near_infinity(8.0, 0.5, 1.0, [2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                                  2000, 200.0, SEED)
    elapsed = time.time() - t0
    ok = (abs(fit0.slope - 0.5) <= 0.15 and abs(fit_inf.slope - (-0.5)) <= 0.15
          and elapsed < 1800)
    assert report("07 exponents", ok,
                  f"near-zero slope {fit0.slope:.3f} (want 0.5 +- 0.15), "
                  f"near-infinity slope {fit_inf.slope:.3f} (want -0.5 +- 0.15), {elapsed:.1f}s")


def test_criterion_08_overshoot_bounds():
    t0 = time.time()
    reports = []
    for alpha in (0.5, 1.2):
        rep = overshoot_histogram(1.0, alpha, 1.0, 1.0, 2.0, 1.5, 10_000, 50.0,
                                  seed=SEED + int(10 * alpha))
        reports.append(rep)
    elapsed = time.time() - t0
    ok = all(r.all_below_bound for r in reports) \
        and all(abs(r.total_probability - 1.0) < 1e-9 for r in reports) \
        and all(r.censored_fraction < 0.01 for r in reports) and elapsed < 600
    detail = "; ".join(
        f"alpha={r.alpha}: bounds ok={r.all_below_bound}, inner exits {r.inner_fraction:.3f}, "
        f"atoms ({r.atom_inner:.2f},{r.atom_outer:.2f})" for r in reports)
    assert report("08 overshoot bounds", ok, detail + f", {elapsed:.1f}s")


def test_criterion_09_theta0_transition():
    t0 = time.time()
    alpha = 1.5
    th0 = theta0(alpha)
    x, horizon, n, tol = 0.5, 4000.0, 2000, 1e-5
    low = hitting_probability(PhaseParams(z=x, alpha=alpha, theta=0.25 * th0, beta=alpha),
                              n, horizon, SEED, hit_tolerance=tol, tag=("acc9", "low"))
    high = hitting_probability(PhaseParams(z=x, alpha=alpha, theta=4.0 * th0, beta=alpha),
                               n, horizon, SEED, hit_tolerance=tol, tag=("acc9", "high"))
    bracket = theta0_bracket(alpha, [m * th0 for m in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)],
                             x, n, horizon, SEED, hit_tolerance=tol)
    elapsed = time.time() - t0
    ok = (low.hit_fraction <= 0.05 and high.hit_fraction >= 0.9
          and high.horizon_flag == "stable"
          and bracket.theta_lo <= bracket.analytic <= bracket.theta_hi
          and elapsed < 1200)
    assert report("09 theta0 transition", ok,
                  f"frac(0.25 th0) = {low.hit_fraction:.4f} <= 0.05, "
                  f"frac(4 th0) = {high.hit_fraction:.4f} >= 0.9 ({high.horizon_flag}), "
                  f"bracket [{bracket.theta_lo:.3f}, {bracket.theta_hi:.3f}] vs "
                  f"analytic {bracket.analytic:.3f}, {elapsed:.1f}s")


def test_criterion_10_scaling_identity():
    t0 = time.time()
    brown = scaling_check(4.0, 1.5, 0.0, 2.0, "im_h", 1j, 4.0, 2000, SEED)
    paper_point = scaling_check(4.0, 1.5, 1.0, 2.0, "im_h", 1j, 4.0, 2000, SEED)
    power_cfg = dict(exit_radius=4.0)
    correct = scaling_check(4.0, 0.5, 1.0, 2.0, "exit_time", 1j, 8.0, 2000, SEED, **power_cfg)
    control = scaling_check(4.0, 0.5, 1.0, 2.0, "exit_time", 1j, 8.0, 2000, SEED,
                            theta_tilde=1.0, **power_cfg)
    elapsed = time.time() - t0
    ok = (brown.passed and paper_point.passed and correct.passed
          and not control.passed and elapsed < 600)
    assert report("10 scaling identity", ok,
                  f"Brownian invariance D={brown.ks_distance:.4f} pass; "
                  f"alpha=1.5 correct D={paper_point.ks_distance:.4f} pass; "
                  f"alpha=0.5 correct D={correct.ks_distance:.4f} pass; "
                  f"negative control D={control.ks_distance:.4f} "
                  f"(crit {control.ks_critical:.4f}) fail, {elapsed:.1f}s")


def test_criterion_11_disconnection():
    t0 = time.time()
    jump_spec = DriverSpec((CompoundPoisson(1.0, JumpLaw("two_point", {"size": 50.0})),))
    jumps = disconnection_frequency(jump_spec, 1.0, 50, SEED,
                                    window=(-60, 60, 0, 3.0), resolution=(480, 12))
    brown_spec = DriverSpec((Brownian(4.0),))
    brown = disconnection_frequency(brown_spec, 1.0, 20, SEED,
                                    window=(-3, 3, 0, 2.5), resolution=(96, 40),
                                    path_dt=2e-3)
    elapsed = time.time() - t0
    ok = jumps.wilson[0] > 0.0 and brown.fraction == 0.0 and elapsed < 600
    assert report("11 disconnection", ok,
                  f"jump driver fraction {jumps.fraction:.3f} "
                  f"CI ({jumps.wilson[0]:.3f},{jumps.wilson[1]:.3f}) excludes 0; "
                  f"Brownian control {brown.fraction:.3f}, {elapsed:.1f}s")


def test_criterion_12_area_fraction_trends():
    t0 = time.time()
    coarse = area_fraction(2.0, 1.5, 1.0, (0.5, 1.0, 2.0), 32, 12.0, 4, SEED)
    fine = area_fraction(2.0, 1.5, 1.0, (0.5, 1.0, 2.0), 64, 12.0, 4, SEED)
    shrink = np.all(fine.fractions < coarse.fractions)

    filled = area_fraction(8.0, 1.5, 1.0, (0.5, 1.0), 32, 30.0, 4, SEED + 1)
    filled_ok = np.all(filled.fractions >= 0.8)

    ladder = area_fraction(8.0, 0.5, 1.0, (1.0, 2.0, 4.0), 32, 12.0, 6, SEED + 2)
    ladder_ok = np.all(np.diff(ladder.fractions) < 0)
    elapsed = time.time() - t0
    ok = bool(shrink and filled_ok and ladder_ok) and elapsed < 1800
    assert report("12 area-fraction trends", ok,
                  f"kappa=2 refinement {np.round(coarse.fractions, 3)} -> {np.round(fine.fractions, 3)} "
                  f"(T={coarse.horizon}); kappa=8 a=1.5 {np.round(filled.fractions, 3)} >= 0.8 "
                  f"(T={filled.horizon}); kappa=8 a=0.5 ladder {np.round(ladder.fractions, 3)} "
                  f"decreasing (T={ladder.horizon}), {elapsed:.1f}s")


def test_criterion_13_byte_determinism(tmp_path):
    t0 = time.time()
    from levyloewner.cli import main

    cases = [
        ["gamma", "--alphas", "1.5", "--p-values", "0.5,1.0,1.5"],
        ["theta0", "--alphas", "1.5"],
        ["trace", "--kappa", "4", "--horizon", "0.3", "--path-dt", "0.01",
         "--resolution", "12,10"],
        ["phase", "--grid", "kappa=2,8", "--n", "200", "--horizon", "4"],
        ["hitprob", "--kappa", "8", "--theta", "1", "--n", "200", "--horizon", "4"],
        ["slopes", "--side", "near-zero", "--x-grid-zero", "0.05,0.1,0.2,0.4,0.8",
         "--n", "200", "--horizon", "20"],
        ["overshoot", "--n", "10000", "--horizon", "20"],
        ["area", "--r-list", "0.5", "--resolution", "32", "--horizon", "2", "--replicas", "2"],
        ["scalecheck", "--alpha", "0.5", "--statistic", "exit_time", "--n", "500",
         "--horizon", "4", "--exit-radius", "4"],
        ["disconnect", "--cpp-rate", "1", "--cpp-size", "50", "--n", "8",
         "--window=-60,60,0,3", "--resolution", "240,8"],
        ["theta0-bracket", "--grid-mults", "0.5,1.0,1.5", "--n", "300", "--horizon", "500"],
    ]
    all_ok = True
    for argv in cases:
        a = tmp_path / (argv[0] + "-w1")
        b = tmp_path / (argv[0] + "-w4")
        assert main(argv + ["--seed", "99", "--workers", "1", "--out", str(a)]) == 0
        assert main(argv + ["--seed", "99", "--workers", "4", "--out", str(b)]) == 0
        for f in sorted(a.iterdir()):
            if f.name == "manifest.json":
                continue
            if f.read_bytes() != (b / f.name).read_bytes():
                all_ok = False
    elapsed = time.time() - t0
    assert report("13 byte determinism", all_ok,
                  f"11 subcommands, workers 1 vs 4, non-manifest artifacts byte-identical, "
                  f"{elapsed:.1f}s")


def test_engine_validated_against_exact_bessel_law():
    """Supporting evidence for the criterion-5b analysis: for pure Brownian
    forcing the hitting time is x^2/(2 kappa G), G ~ Gamma(1/2 - 2/kappa),
    and the engine reproduces that law within Monte Carlo error."""
    kappa, x, n = 8.0, 1.0, 4000
    spec = DriverSpec((Brownian(kappa),))
    res = run_adaptive_cells([Cell(spec, x, ("bessel",))], n, 200.0, master_seed=SEED,
                             dt_safety=0.05)[0]
    ok = True
    details = []
    for t in (1.0, 25.0, 100.0, 200.0):
        emp = float(np.nansum((res.zeta <= t).astype(np.int64))) / n
        exact = 1.0 - float(gammainc(0.5 - 2.0 / kappa, x * x / (2 * kappa * t)))
        se = np.sqrt(exact * (1 - exact) / n)
        details.append(f"t={t:g}: {emp:.4f}/{exact:.4f}")
        ok = ok and abs(emp - exact) <= 4.0 * se + 0.01
    assert report("engine-vs-exact-Bessel", ok, ", ".join(details))
