"""Monte Carlo estimator plumbing: confidence intervals, KS helper,
estimator invariants, scan/bracket logic, and reproducibility."""

import numpy as np
import pytest

from levyloewner.drivers import DriverSpec, JumpLaw, CompoundPoisson, Brownian, Stable
from levyloewner.errors import ConfigError, StatisticalError
from levyloewner.experiments import (
    PhaseParams,
    composite_driver_phase,
    disconnection_frequency,
    hitting_probability,
    ks_two_sample,
    overshoot_histogram,
    phase_scan,
    theta0_bracket,
    wilson_ci,
)
from levyloewner.rng import stream
from levyloewner.stable_calculus import theta0


class TestWilson:
    def test_interval_brackets_point(self):
        lo, hi = wilson_ci(40, 100)
        assert lo <= 0.4 <= hi

    def test_coverage_on_bernoulli_oracle(self):
        # nominal 95%: require >= 93% empirical coverage over 1000 trials
        rng = stream(101, "wilson")
        p, n, trials = 0.3, 200, 1000
        covered = 0
        for _ in range(trials):
            k = rng.binomial(n, p)
            lo, hi = wilson_ci(int(k), n)
            covered += lo <= p <= hi
        assert covered / trials >= 0.93

    def test_edge_cases(self):
        lo, hi = wilson_ci(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
        lo, hi = wilson_ci(50, 50)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo < 1.0

    @pytest.mark.parametrize("n", [50, 200, 300, 2000])
    def test_saturated_rows_lie_inside_their_interval(self, n):
        assert wilson_ci(0, n)[0] == 0.0
        assert wilson_ci(n, n)[1] == 1.0


class TestKS:
    def test_same_distribution_passes(self):
        rng = stream(102, "ks")
        a = rng.standard_normal(2000)
        b = rng.standard_normal(2000)
        dist, crit, passed = ks_two_sample(a, b)
        assert passed

    def test_shifted_distribution_fails(self):
        rng = stream(103, "ks2")
        a = rng.standard_normal(2000)
        b = rng.standard_normal(2000) + 0.5
        dist, crit, passed = ks_two_sample(a, b)
        assert not passed

    def test_handles_atoms(self):
        a = np.concatenate([np.zeros(500), np.ones(500)])
        b = np.concatenate([np.zeros(520), np.ones(480)])
        dist, crit, passed = ks_two_sample(a, b)
        assert dist == pytest.approx(0.02, abs=1e-12)


class TestHittingProbability:
    def test_degenerate_driver_never_hits(self):
        est = hitting_probability(PhaseParams(z=1.0), 200, 5.0, seed=1)
        assert est.hit_fraction == 0.0
        assert est.horizon_flag == "stable"

    def test_monotone_censoring(self):
        est = hitting_probability(PhaseParams(z=1.0, kappa=8.0, alpha=1.5, theta=1.0),
                                  500, 10.0, seed=2)
        assert est.hit_fraction_2t >= est.hit_fraction

    def test_symmetry_in_x(self):
        p_pos = hitting_probability(PhaseParams(z=1.0, kappa=8.0, alpha=1.5, theta=1.0),
                                    1000, 20.0, seed=3, tag=("sym", 0))
        p_neg = hitting_probability(PhaseParams(z=-1.0, kappa=8.0, alpha=1.5, theta=1.0),
                                    1000, 20.0, seed=4, tag=("sym", 1))
        assert p_pos.wilson[0] <= p_neg.hit_fraction <= p_pos.wilson[1] or \
               p_neg.wilson[0] <= p_pos.hit_fraction <= p_neg.wilson[1]

    def test_n_too_small_rejected(self):
        with pytest.raises(ConfigError):
            hitting_probability(PhaseParams(z=1.0, kappa=8.0), 50, 1.0, seed=5)

    def test_z_zero_rejected(self):
        with pytest.raises(ConfigError):
            hitting_probability(PhaseParams(z=0.0, kappa=8.0), 200, 1.0, seed=6)


class TestPhaseScan:
    def test_single_cell_matches_hitting_probability(self):
        grid = {"kappa": [8.0], "theta": [1.0]}
        ests = phase_scan(grid, 1.0, 300, 5.0, seed=7)
        direct = hitting_probability(PhaseParams(z=1.0, kappa=8.0, theta=1.0),
                                     300, 5.0, seed=7, tag=("phase", 0))
        assert len(ests) == 1
        assert ests[0].hit_fraction == direct.hit_fraction

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            phase_scan({"kappa": []}, 1.0, 300, 5.0, seed=9)
        with pytest.raises(ConfigError):
            phase_scan({"bogus": [1.0]}, 1.0, 300, 5.0, seed=9)


class TestOvershoot:
    def test_normalization_and_bounds_small(self):
        rep = overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 10_000, 50.0, seed=11)
        assert rep.total_probability == pytest.approx(1.0, abs=1e-12)
        assert rep.censored_fraction < 0.01
        assert rep.inner_fraction > 0.02 and rep.outer_fraction > 0.5
        assert rep.inner_bound == pytest.approx(3.0 * 2.0 ** 5)
        assert rep.all_below_bound

    def test_needs_jumps(self):
        with pytest.raises(ConfigError):
            overshoot_histogram(1.0, 0.5, 0.0, 1.0, 2.0, 1.5, 10_000, 50.0, seed=12)

    def test_needs_enough_replicas(self):
        with pytest.raises(ConfigError):
            overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 100, 50.0, seed=13)


class TestDisconnection:
    def test_brownian_control_connected(self):
        spec = DriverSpec((Brownian(4.0),))
        res = disconnection_frequency(spec, 1.0, 10, seed=14,
                                      window=(-3, 3, 0, 2.5), resolution=(72, 30),
                                      path_dt=5e-3)
        assert res.fraction == 0.0
        assert np.all(res.component_counts == 1)

    def test_huge_jumps_disconnect(self):
        spec = DriverSpec((CompoundPoisson(1.0, JumpLaw("two_point", {"size": 50.0})),))
        res = disconnection_frequency(spec, 1.0, 40, seed=15,
                                      window=(-60, 60, 0, 3.0), resolution=(480, 12))
        assert res.fraction > 0
        assert res.wilson[0] > 0.0

    def test_heavy_stable_driver_disconnects(self):
        spec = DriverSpec((Stable(0.5, 8.0),))
        res = disconnection_frequency(spec, 1.0, 30, seed=19,
                                      window=(-40, 40, 0, 3.0), resolution=(320, 12),
                                      path_dt=2e-3)
        assert res.wilson[0] > 0.0


class TestTheta0Bracket:
    def test_bracket_contains_analytic(self):
        alpha = 1.5
        th0 = theta0(alpha)
        grid = [m * th0 for m in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)]
        res = theta0_bracket(alpha, grid, 0.5, 1000, 4000.0, seed=16)
        assert res.theta_lo <= res.analytic <= res.theta_hi
        assert not res.widened

    def test_no_crossing_raises(self):
        alpha = 1.5
        th0 = theta0(alpha)
        with pytest.raises(StatisticalError):
            theta0_bracket(alpha, [0.1 * th0, 0.2 * th0], 0.5, 200, 50.0, seed=17)


class TestCompositeDrivers:
    """Composite drivers: truncated stable plus a declared recurrent or
    transient compound Poisson part."""

    def test_recurrent_supercritical_hits(self):
        rec = JumpLaw("two_point", {"size": 1.0})
        ests = composite_driver_phase(1.5, 8.0, 1.0, 1.0, rec, "recurrent",
                                      [1.0], 1000, 300.0, seed=61)
        assert ests[0].hit_fraction >= 0.9
        assert ests[0].declared_class == "recurrent"

    def test_transient_far_bounded_near_full(self):
        trans = JumpLaw("pareto", {"tail_index": 0.5, "scale": 1.0})
        far, near = composite_driver_phase(1.5, 8.0, 1.0, 1.0, trans, "transient",
                                           [10.0, 0.01], 1000, 100.0, seed=62)
        assert far.wilson[1] < 0.95 and far.wilson[0] > 0.0
        assert near.hit_fraction >= 0.9

    def test_subcritical_control(self):
        rec = JumpLaw("two_point", {"size": 1.0})
        ests = composite_driver_phase(1.5, 2.0, 1.0, 1.0, rec, "recurrent",
                                      [1.0], 1000, 100.0, seed=63)
        assert ests[0].hit_fraction <= 0.05

    def test_n_too_small_rejected(self):
        rec = JumpLaw("two_point", {"size": 1.0})
        with pytest.raises(ConfigError):
            composite_driver_phase(1.5, 8.0, 1.0, 1.0, rec, "recurrent", [1.0], 10, 1.0, seed=64)


class TestReproducibility:
    def test_hitting_probability_deterministic(self):
        params = PhaseParams(z=1.0, kappa=8.0, alpha=1.5, theta=1.0)
        a = hitting_probability(params, 700, 10.0, seed=42)
        b = hitting_probability(params, 700, 10.0, seed=42)
        assert a.hit_fraction == b.hit_fraction
        assert a.wilson == b.wilson
        assert a.hit_fraction_2t == b.hit_fraction_2t


class TestNumericalGuards:
    def test_step_underflow_reported(self):
        from levyloewner.engine import run_adaptive_mc
        from levyloewner.errors import NumericalError

        spec = DriverSpec((Brownian(8.0),))
        with pytest.raises(NumericalError, match="refusing to underflow"):
            run_adaptive_mc(spec, 1.0, 100, 1.0, master_seed=1, tag=("uf",),
                            hit_tolerance=1e-8)
