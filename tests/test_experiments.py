"""Monte Carlo estimator plumbing: confidence intervals, KS helper,
estimator invariants, scan/bracket logic, and reproducibility."""

import dataclasses
import hashlib

import numpy as np
import pytest

from levyloewner import drivers, engine, experiments
from levyloewner.drivers import DriverSpec, JumpLaw, CompoundPoisson, Brownian, Stable
from levyloewner.errors import ConfigError, StatisticalError
from levyloewner.experiments import (
    PhaseParams,
    _annulus_exit_positions,
    area_fraction,
    composite_driver_phase,
    disconnection_frequency,
    hitting_probability,
    ks_two_sample,
    overshoot_histogram,
    phase_scan,
    scaling_check,
    slope_near_infinity,
    slope_near_zero,
    theta0_bracket,
    wilson_ci,
)
from levyloewner.loewner import EvolutionConfig
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

    @pytest.mark.parametrize("hits", [4, 5, -1, np.nan])
    def test_hits_outside_zero_to_n_rejected(self, hits):
        # wilson_ci(5, 3) returned (0.0, 1.0)
        with pytest.raises(ConfigError, match=r"hits must lie in \[0, n\]"):
            wilson_ci(hits, 3)


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

    def test_negative_strength_rejected(self):
        # kappa = -8 ran the null driver U == 0 and reported no hit
        with pytest.raises(ConfigError, match="kappa"):
            hitting_probability(PhaseParams(z=1.0, kappa=-8.0), 200, 1.0, seed=6)


class TestPhaseScan:
    def test_single_cell_matches_hitting_probability(self):
        grid = {"kappa": [8.0], "theta": [1.0]}
        ests = phase_scan(grid, 1.0, 300, 5.0, seed=7)
        direct = hitting_probability(PhaseParams(z=1.0, kappa=8.0, theta=1.0),
                                     300, 5.0, seed=7, tag=("phase", 0))
        assert len(ests) == 1
        assert ests[0].hit_fraction == direct.hit_fraction

    def test_cells_match_hitting_probability_across_groups(self):
        # one engine call per beta and driver family (kappa = 0 drops the
        # Brownian part); beta is the inner axis, so the calls interleave
        grid = {"kappa": [0.0, 2.0, 8.0], "theta": [1.0], "beta": [2.0, 1.5]}
        ests = phase_scan(grid, 1.0, 200, 2.0, seed=8)
        cells = [(k, b) for k in grid["kappa"] for b in grid["beta"]]
        assert len(ests) == len(cells)
        for i, (kappa, beta) in enumerate(cells):
            direct = hitting_probability(PhaseParams(z=1.0, kappa=kappa, theta=1.0, beta=beta),
                                         200, 2.0, seed=8, tag=("phase", i))
            assert ests[i] == direct

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
        assert rep.inner_bins[:, 4] == pytest.approx(3.0 * 2.0 ** 5)
        assert rep.all_below_bound

    def test_needs_jumps(self):
        with pytest.raises(ConfigError):
            overshoot_histogram(1.0, 0.5, 0.0, 1.0, 2.0, 1.5, 10_000, 50.0, seed=12)

    def test_needs_enough_replicas(self):
        with pytest.raises(ConfigError):
            overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 100, 50.0, seed=13)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan])
    def test_bad_horizon_rejected(self, horizon):
        # each ran every replica to "no exits observed" (exit 4)
        with pytest.raises(ConfigError, match="horizon must be positive"):
            overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 10_000, horizon, seed=13)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_one_rejected(self, bins):
        # 0 raised a bare IndexError and -3 numpy's ValueError
        with pytest.raises(ConfigError, match="bins must be at least 1"):
            overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 10_000, 50.0, seed=11, bins=bins)

    @pytest.mark.parametrize("bins", [2.5, True, np.True_])
    def test_non_integral_bins_rejected(self, bins):
        # 2.5 raised a TypeError and True ran one bin
        with pytest.raises(ConfigError, match="bins must be an integer"):
            overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 10_000, 50.0, seed=11, bins=bins)

    @pytest.mark.parametrize("n", [10_000.5, True])
    def test_non_integral_replica_count_rejected(self, n):
        # 10000.5 raised a TypeError from numpy
        with pytest.raises(ConfigError, match="n must be an integer"):
            overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, n, 50.0, seed=11)

    def test_integral_floats_accepted(self):
        # n = 10000.0 raised a TypeError
        got = overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 10_000.0, 50.0, seed=11, bins=4.0)
        want = overshoot_histogram(1.0, 0.5, 1.0, 1.0, 2.0, 1.5, 10_000, 50.0, seed=11, bins=4)
        assert type(got.n) is int
        for f in dataclasses.fields(want):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), err_msg=f.name)

    def test_inner_exit_fraction_matches_the_bessel_scale_function(self):
        # At theta = 0 the real flow is a Bessel process, so it leaves
        # {a < |x| < b} through a with the exact probability
        # (s(b) - s(x0)) / (s(b) - s(a)), s(r) = r^(1 - 4/kappa).  Over seeds
        # 1-20 this case reads a mean deviation of -0.34 SE (sd 0.98, largest
        # |dev| 1.81); seed 2029 reads +0.45 SE.
        kappa, x0, a, b, n = 8.0, 1.2, 1.0, 4.0, 20_000
        sides, _ = _annulus_exit_positions(kappa, 1.5, 0.0, x0, a, b, n, 50.0, seed=2029)
        q = 1.0 - 4.0 / kappa
        exact = (b ** q - x0 ** q) / (b ** q - a ** q)
        assert np.count_nonzero(sides == 0) == 0
        frac = np.count_nonzero(sides == 1) / n
        assert abs(frac - exact) <= 3.0 * np.sqrt(exact * (1.0 - exact) / n)

    def test_integer_and_float_radii_draw_the_same_streams(self):
        # the block streams are tagged by the radii's values, not their text
        ints = _annulus_exit_positions(8.0, 1.5, 1.0, 1.2, 1, 4, 700, 50.0, seed=5)
        floats = _annulus_exit_positions(8.0, 1.5, 1.0, 1.2, 1.0, 4.0, 700, 50.0, seed=5)
        for got, want in zip(ints, floats):
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_replicas_rejected(self, n):
        # zero replicas divided by zero
        spec = DriverSpec((Brownian(4.0),))
        with pytest.raises(ConfigError, match="n must be at least 1"):
            disconnection_frequency(spec, 1.0, n, seed=14, window=(-3, 3, 0, 2.5), resolution=(72, 30))

    @pytest.mark.parametrize("n", [True, np.True_, 1.5, 2.5, "x", "3", None, 3j,
                                   pytest.param(10 ** 400, id="10**400")])
    def test_non_integral_replica_count_rejected(self, n):
        # True ran one replica and 1.5 failed with a bare TypeError; "x" raised
        # a bare ValueError, None a bare TypeError and 10**400 a bare
        # OverflowError, and "3" ran three replicas
        spec = DriverSpec((Brownian(4.0),))
        with pytest.raises(ConfigError, match="n must be an integer"):
            disconnection_frequency(spec, 1.0, n, seed=14, window=(-3, 3, 0, 2.5), resolution=(72, 30))


class TestAreaFraction:
    @pytest.mark.parametrize("n_replicas", [0, -1])
    def test_no_replicas_rejected(self, n_replicas):
        # zero replicas gave NaN fractions from the mean of an empty slice
        with pytest.raises(ConfigError, match="n_replicas must be at least 1"):
            area_fraction(2.0, 1.5, 1.0, (0.5, 1.0), 32, 1.0, n_replicas, seed=3)

    @pytest.mark.parametrize("resolution", [32.9, 64.5, np.True_])
    def test_non_integral_resolution_rejected(self, resolution):
        # 32.9 ran and reported cells_across_min_r = 32.9
        with pytest.raises(ConfigError, match="resolution must be an integer"):
            area_fraction(2.0, 1.5, 1.0, (0.5, 1.0), resolution, 1.0, 1, seed=3)

    @pytest.mark.parametrize("n_replicas", [True, np.True_, 1.5, 2.5])
    def test_non_integral_replica_count_rejected(self, n_replicas):
        # True ran one replica and reported n_replicas = True; 1.5 failed
        # with a bare TypeError
        with pytest.raises(ConfigError, match="n_replicas must be an integer"):
            area_fraction(2.0, 1.5, 1.0, (0.5, 1.0), 32, 1.0, n_replicas, seed=3)

    def test_integral_float_replica_count_accepted(self):
        got = area_fraction(2.0, 1.5, 1.0, (0.5,), 32, 0.5, 2.0, seed=3)
        want = area_fraction(2.0, 1.5, 1.0, (0.5,), 32, 0.5, 2, seed=3)
        np.testing.assert_array_equal(got.fractions, want.fractions)
        np.testing.assert_array_equal(got.se, want.se)

    @pytest.mark.parametrize("r_list", [(np.nan, 1.0), (0.5, np.inf), (), (-0.5, 1.0)])
    def test_bad_radius_rejected(self, r_list):
        # a NaN radius raised a bare ValueError and an infinite one OverflowError
        with pytest.raises(ConfigError, match="r_list must be nonempty, positive and finite"):
            area_fraction(2.0, 1.5, 1.0, r_list, 32, 1.0, 1, seed=3)


class TestSlopeGrids:
    @pytest.mark.parametrize("grid", [[-0.3, 0.05, 0.1, 0.2, 0.4, 0.8],
                                      [0.0, 0.1, 0.2, 0.4, 0.8, 1.0],
                                      [np.nan, 0.1, 0.2, 0.4, 0.8, 1.0]])
    def test_near_zero_grid_outside_unit_interval_rejected(self, grid):
        # a point <= 0 or NaN passed the max(x_grid) <= 1 check and gave a NaN slope
        with pytest.raises(ConfigError, match=r"near-zero grid must lie in \(0, 1\]"):
            slope_near_zero(8.0, 0.5, 1.0, grid, 200, 20.0, seed=5)

    @pytest.mark.parametrize("fit, grid", [(slope_near_zero, []), (slope_near_zero, [0.1, 0.2, 0.4, 0.8]),
                                           (slope_near_infinity, []),
                                           (slope_near_infinity, [2.0, 4.0, 8.0, 16.0])])
    def test_grid_of_fewer_than_five_points_rejected(self, fit, grid, monkeypatch):
        # near zero the grid was sampled and then refused with a
        # StatisticalError; near infinity the empty grid raised a bare
        # ValueError from min()
        monkeypatch.setattr(experiments, "_estimates", _no_sampling)
        with pytest.raises(ConfigError, match="at least 5 points"):
            fit(8.0, 0.5, 1.0, grid, 200, 20.0, seed=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_near_infinity_grid_point_not_finite_rejected(self, bad, monkeypatch):
        # a NaN or infinite point passed the min(x_grid) < 2 check
        monkeypatch.setattr(experiments, "_estimates", _no_sampling)
        with pytest.raises(ConfigError, match=r"near-infinity grid must lie in \[2, inf\)"):
            slope_near_infinity(8.0, 0.5, 1.0, [2.0, 4.0, bad, 16.0, 32.0], 200, 20.0, seed=5)

    @pytest.mark.parametrize("fit, grid", [(slope_near_zero, ['0.1', 0.2, 0.3, 0.4, 0.5]),
                                           (slope_near_zero, [0.1, 0.2, True, 0.4, 0.5]),
                                           (slope_near_zero, 0.5),
                                           (slope_near_infinity, [2.0, '2', 8.0, 16.0, 32.0]),
                                           (slope_near_infinity, [2.0, 4.0, 8.0, 16.0, 32.0 + 0j])])
    def test_grid_point_not_a_real_number_rejected(self, fit, grid, monkeypatch):
        # a string point raised a bare TypeError from the range check
        monkeypatch.setattr(experiments, "_estimates", _no_sampling)
        with pytest.raises(ConfigError, match="slope grid"):
            fit(8.0, 0.5, 1.0, grid, 200, 20.0, seed=5)


def _no_sampling(*args, **kwargs):
    raise AssertionError("a refused slope grid was sampled")


class TestRealNumberInputs:
    # each call raised a bare TypeError, or parsed its strings and sampled
    # (a string hit tolerance through float()); DriverSpec.from_params(kappa=True)
    # gave kappa = 1
    CALLS = {
        "evolution_config": lambda: EvolutionConfig(horizon='1'),
        "phase_scan": lambda: phase_scan({"kappa": ['2']}, 1.0, 100, 1.0, 1),
        "overshoot_histogram": lambda: overshoot_histogram(1.0, 0.5, 1.0, '1', 2.0, 1.5, 10000, 1.0, 1),
        "overshoot_histogram_theta": lambda: overshoot_histogram(1.0, 0.5, '1', 1.0, 2.0, 1.5, 10000, 1.0, 1),
        "hitting_probability": lambda: hitting_probability(PhaseParams(z=1.0, kappa=8.0), 100, '1', 1),
        "hitting_probability_kappa": lambda: hitting_probability(PhaseParams(z=1.0, kappa='8'), 100, 100, 1),
        "hitting_probability_alpha": lambda: hitting_probability(PhaseParams(z=1.0, theta=1.0, alpha='1.5'),
                                                                 100, 1.0, 1),
        "hitting_probability_beta": lambda: hitting_probability(PhaseParams(z=1.0, kappa=8.0, beta='2'),
                                                                100, 1.0, 1),
        "hitting_probability_tolerance": lambda: hitting_probability(PhaseParams(z=1.0, kappa=8.0), 100, 1.0, 1,
                                                                     hit_tolerance='1e-3'),
        "scaling_check": lambda: scaling_check(4.0, 1.5, 1.0, '2', 'im_h', 1j, 1.0, 500, 1),
        "scaling_check_horizon": lambda: scaling_check(4.0, 1.5, 1.0, 2.0, 'im_h', 1j, '1', 500, 1),
        "scaling_check_theta": lambda: scaling_check(4.0, 1.5, '1', 2.0, 'im_h', 1j, 1.0, 500, 1),
        "area_fraction": lambda: area_fraction(8.0, 0.5, 1.0, ['0.5'], 32, 0.05, 1, 1),
        "theta0_bracket": lambda: theta0_bracket(1.5, ['1', '2'], 0.5, 100, 1.0, 1),
        "theta0_bracket_alpha": lambda: theta0_bracket('1.5', [1, 2], 0.5, 100, 1.0, 1),
        "driver_spec_bool": lambda: DriverSpec.from_params(kappa=True),
        "driver_spec_cpp_size": lambda: DriverSpec.from_params(cpp_rate=1.0, cpp_size='2'),
    }
    # each parsed its string start point with complex() and sampled
    START_POINTS = {
        "hitting_probability": lambda: hitting_probability(PhaseParams(z='1', kappa=8.0), 100, 1.0, 1),
        "phase_scan": lambda: phase_scan({"kappa": [2.0]}, '1', 100, 1.0, 1),
    }

    @staticmethod
    def _refused_before_sampling(call, match, monkeypatch):
        drawn = []

        def no_stream(*path):
            drawn.append(path)
            raise AssertionError(f"a refused input drew the stream {path}")

        for module in (drivers, engine, experiments):
            monkeypatch.setattr(module, "stream", no_stream)
        with pytest.raises(ConfigError, match=match):
            call()
        assert drawn == []

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_string_refused_before_sampling(self, entry, monkeypatch):
        self._refused_before_sampling(self.CALLS[entry], "must be a real number", monkeypatch)

    @pytest.mark.parametrize("entry", sorted(START_POINTS))
    def test_string_start_point_refused_before_sampling(self, entry, monkeypatch):
        self._refused_before_sampling(self.START_POINTS[entry], "z0 must be a number", monkeypatch)

    @pytest.mark.parametrize("call", [
        lambda: hitting_probability(PhaseParams(z=1.0, kappa=8.0), '100', 1.0, 1),
        lambda: scaling_check(4.0, 1.5, 1.0, 2.0, 'im_h', 1j, 1.0, '500', 1),
    ], ids=["hitting_probability", "scaling_check"])
    def test_string_replica_count_refused_before_sampling(self, call, monkeypatch):
        # the n < 100 and n < 500 checks raised a bare TypeError
        self._refused_before_sampling(call, "n must be an integer", monkeypatch)


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

    def test_negative_strength_rejected(self):
        th0 = theta0(1.5)
        with pytest.raises(ConfigError, match="theta"):
            theta0_bracket(1.5, [-0.5 * th0, th0], 0.5, 200, 50.0, seed=17)


class TestCompositeDrivers:
    """Composite drivers: truncated stable plus a recurrent or transient
    compound Poisson part, the class set by its jump law."""

    def test_recurrent_supercritical_hits(self):
        rec = JumpLaw("two_point", {"size": 1.0})
        ests = composite_driver_phase(1.5, 8.0, 1.0, 1.0, rec, [1.0], 1000, 300.0, seed=61)
        assert ests[0].hit_fraction >= 0.9

    def test_transient_far_bounded_near_full(self):
        trans = JumpLaw("pareto", {"tail_index": 0.5, "scale": 1.0})
        far, near = composite_driver_phase(1.5, 8.0, 1.0, 1.0, trans, [10.0, 0.01], 1000, 100.0,
                                           seed=62)
        assert far.wilson[1] < 0.95 and far.wilson[0] > 0.0
        assert near.hit_fraction >= 0.9

    def test_subcritical_control(self):
        rec = JumpLaw("two_point", {"size": 1.0})
        ests = composite_driver_phase(1.5, 2.0, 1.0, 1.0, rec, [1.0], 1000, 100.0, seed=63)
        assert ests[0].hit_fraction <= 0.05

    def test_n_too_small_rejected(self):
        rec = JumpLaw("two_point", {"size": 1.0})
        with pytest.raises(ConfigError):
            composite_driver_phase(1.5, 8.0, 1.0, 1.0, rec, [1.0], 10, 1.0, seed=64)


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
        from levyloewner.engine import Cell, run_adaptive_cells
        from levyloewner.errors import NumericalError

        spec = DriverSpec((Brownian(8.0),))
        with pytest.raises(NumericalError, match="refusing to underflow"):
            run_adaptive_cells([Cell(spec, 1.0, ("uf",), 1e-8)], 100, 1.0, master_seed=1)


class TestScalingCheck:
    # SHA-256 of the two samples scaling_check hands to ks_two_sample, sample A
    # then sample B (x86-64, numpy 2.4).  They pin its wiring: the stream tags,
    # sample A's start z/sqrt(a), tolerance delta/sqrt(a), exit radius
    # rho/sqrt(a) and horizon T/a, and the rescaling of its statistic.
    # Re-recorded when the slit-map root took its modulus from one square root
    # instead of hypot, and when every stream moved from Philox to SFC64.
    CASES = {
        "im_h": ((4.0, 1.5, 1.0, 3.0, "im_h", 0.5 + 1j, 4.0, 500, 31), {}),
        "exit_time": ((4.0, 0.5, 1.0, 2.0, "exit_time", 1j, 8.0, 500, 31), {"exit_radius": 3.0}),
    }
    PINNED = {
        "im_h": ("d3f2b244fb3a77ed1414f3fcc801815969f128bfb068d7ea2428aba650816d4c",
                 "4e99deea933632661d1d31f8c5deae41bd7a2fcbf8032c1a84c85dafffc7edc8"),
        "exit_time": ("843dcab7a9596bece8ee14c4f1d43d0b66aa4ef6200fc37cdbcc106b54f5f520",
                      "0f50a116e333c644122f206f3140ea6502516aaf76e24f7acca238d8381d5b55"),
    }

    @pytest.mark.parametrize("statistic", sorted(CASES))
    def test_samples_pinned(self, statistic, monkeypatch):
        seen = []
        ks = experiments.ks_two_sample

        def capture(a, b):
            seen.append((a, b))
            return ks(a, b)

        monkeypatch.setattr(experiments, "ks_two_sample", capture)
        args, kw = self.CASES[statistic]
        experiments.scaling_check(*args, **kw)
        (a, b), = seen
        assert a.size == b.size == 500
        assert tuple(hashlib.sha256(np.ascontiguousarray(s).tobytes()).hexdigest()
                     for s in (a, b)) == self.PINNED[statistic]

    @pytest.mark.parametrize("a", [0.0, -2.0, np.inf, np.nan])
    def test_rejects_bad_scale_factor(self, a):
        # a = 0 divided by zero and a = -2 made theta_tilde complex
        with pytest.raises(ConfigError, match="scale factor"):
            experiments.scaling_check(4.0, 1.5, 1.0, a, "im_h", 1j, 4.0, 500, 31)
