"""Driver samplers: marginal laws, continuous and jump parts, composition,
determinism, stationarity and stable scaling."""

import hashlib

import numpy as np
import pytest
from scipy import integrate, stats

from levyloewner.drivers import (
    Brownian,
    CompoundPoisson,
    DriverSpec,
    JumpLaw,
    Stable,
    TruncatedStable,
    _stable_map,
    _truncated_stable_steps,
    compose_drivers,
    sample_brownian,
    sample_compound_poisson,
    sample_driver,
    sample_stable,
    sample_truncated_stable,
    standard_stable_sample,
    uniform_grid,
)
from levyloewner.errors import ConfigError
from levyloewner.rng import stream
from levyloewner.stable_calculus import frac_constant

KS_LEVEL = 0.01


def ks_crit(n, m=None, level=KS_LEVEL):
    c = np.sqrt(-np.log(level / 2.0) / 2.0)
    if m is None:
        return c / np.sqrt(n)
    return c * np.sqrt((n + m) / (n * m))


class TestBrownian:
    def test_zero_kappa_is_null_path(self):
        path = sample_brownian(0.0, uniform_grid(2.0, 0.1), stream(1, "b0"))
        assert np.all(path.values == 0.0)
        assert np.array_equal(path.continuous, path.values)

    def test_increment_variance(self):
        # variance oracle: kappa * dt with standard error of the sample variance
        kappa, n = 4.0, 100_000
        rng = stream(2, "bvar")
        grid = uniform_grid(2.0, 1.0)
        incs = np.array([np.diff(sample_brownian(kappa, grid, rng).values) for _ in range(n // 2)]).ravel()
        var = incs.var(ddof=1)
        se = kappa * np.sqrt(2.0 / (incs.size - 1))
        assert abs(var - kappa) <= 3.0 * se

    def test_u1_normality(self):
        rng = stream(3, "bnorm")
        grid = uniform_grid(1.0, 0.25)
        u1 = np.array([sample_brownian(1.0, grid, rng).values[-1] for _ in range(4000)])
        stat, pval = stats.kstest(u1, "norm")
        assert pval > KS_LEVEL

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError):
            sample_brownian(-1.0, uniform_grid(1.0, 0.1), stream(4, "bneg"))


def _cms_sine_cosine(alpha, v, w, m):
    """The Chambers-Mallows-Stuck variate in its three-sine/cosine form, of
    V = v and W = w, in the arithmetic of module ``m`` (numpy or mpmath)."""
    return (m.sin(alpha * v) / m.cos(v) ** (1 / alpha)
            * (m.cos((1 - alpha) * v) / w) ** ((1 - alpha) / alpha))


def _accuracy_samples(rng, n=600):
    """n uniforms on (0, 1), n each within 1e-3 of 0 and of 1 and n within
    1e-6 of 1/2, with exponentials beside them; and the mask of the uniform
    samples with 0.01 < u < 0.99."""
    u = np.concatenate([rng.random(n), 1e-3 * rng.random(n), 1.0 - 1e-3 * rng.random(n),
                        0.5 + 1e-6 * (2.0 * rng.random(n) - 1.0)])
    mid = (np.arange(u.size) < n) & (u > 0.01) & (u < 0.99)
    return u, rng.standard_exponential(u.size), mid


class TestStable:
    def test_alpha_two_matches_brownian_variance(self):
        # alpha = 2, theta = 1/2: increments Gaussian with variance dt
        rng = stream(5, "s2")
        x = (0.5 * 1.0) ** 0.5 * standard_stable_sample(2.0, rng, 200_000)
        assert x.var(ddof=1) == pytest.approx(1.0, abs=0.02)
        stat, pval = stats.kstest(x, "norm")
        assert pval > KS_LEVEL

    def test_symmetric_median(self):
        rng = stream(6, "smed")
        for alpha in (0.6, 1.0, 1.4, 1.8):
            u1 = standard_stable_sample(alpha, rng, 40_000)
            # binomial CI for the sign fraction
            assert abs(np.mean(u1 > 0) - 0.5) < 3.0 * 0.5 / np.sqrt(u1.size)

    def test_tail_exponent_regression(self):
        alpha = 1.2
        rng = stream(7, "stail")
        s = np.abs(standard_stable_sample(alpha, rng, 400_000))
        xs = np.geomspace(5.0, 50.0, 8)
        tail = np.array([np.mean(s > x) for x in xs])
        slope = np.polyfit(np.log(xs), np.log(tail), 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.15)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_sample_draw_order(self, alpha):
        # a sample is, bit for bit, its generator draws in stream order mapped
        # to the variate: sqrt(2) times a normal at alpha = 2, tan V of one
        # uniform at alpha = 1, else _stable_map of a uniform and then an
        # exponential; and it leaves the stream where those draws do
        for m in (1, 7, 513):
            rng, ref = stream(9, "order", m), stream(9, "order", m)
            got = standard_stable_sample(alpha, rng, m)
            if alpha == 2.0:
                want = np.sqrt(2.0) * ref.standard_normal(m)
            elif alpha == 1.0:
                want = np.tan((ref.random(m) - 0.5) * np.pi)
            else:
                u = ref.random(m)
                want = _stable_map(alpha, u, ref.standard_exponential(m))
            assert got.tobytes() == want.tobytes()
            np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    # Errors in ulp of the 200-bit variate over 2,400 samples per alpha
    # (_accuracy_samples), measured at seeds 0-12 before this test was
    # written.  New / old ratios: mean 0.9970-1.0004, max 0.99981-1.00022.
    # Mid-range maxima (uniform samples with 0.01 < u < 0.99), new (old), at
    # most: alpha = 0.5: 80 (78), 1.2: 32 (31), 1.5: 21 (22), 1.9: 13 (16);
    # new exceeded old there by 3 ulp at most.  The bars take 1.5 times these.
    MID_ULP_BAR = {0.5: 120, 1.2: 48, 1.5: 33, 1.9: 24}

    @pytest.mark.parametrize("alpha", sorted(MID_ULP_BAR))
    def test_stable_map_accuracy(self, alpha):
        # the map against the exact variate of the rounded draws, beside the
        # three-sine/cosine form it replaced; both take most of their error
        # from the rounding of V, which is largest where cos V is small
        mpmath = pytest.importorskip("mpmath")
        u, w, mid = _accuracy_samples(np.random.default_rng(2026))
        with mpmath.workprec(200):
            a = mpmath.mpf(alpha)
            exact = np.array([float(_cms_sine_cosine(a, (mpmath.mpf(ui) - 0.5) * mpmath.pi,
                                                     mpmath.mpf(wi), mpmath))
                              for ui, wi in zip(u, w)])
        spacing = np.spacing(np.abs(exact))
        old = np.abs(_cms_sine_cosine(alpha, (u - 0.5) * np.pi, w, np) - exact) / spacing
        new = np.abs(_stable_map(alpha, u, w) - exact) / spacing
        assert new.mean() <= 1.002 * old.mean()
        assert new.max() <= 1.002 * old.max()
        assert new[mid].max() <= min(old[mid].max() + 8, self.MID_ULP_BAR[alpha])

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.2, 1.5, 1.9, 1.99])
    def test_stable_map_finite_at_the_ends(self, alpha):
        # u = 0 is V = -pi/2, where tan V is -1.6e16, and u = 1 - 2^-53 the
        # largest uniform below 1
        u = np.repeat([0.0, 1.0 - 2.0 ** -53], 3)
        w = np.tile([1e-3, 1.0, 40.0], 2)
        assert np.all(np.isfinite(_stable_map(alpha, u, w)))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5, np.nan])
    def test_alpha_outside_domain_rejected_before_drawing(self, alpha):
        rng = stream(10, "sdomain")
        state = rng.bit_generator.state
        with pytest.raises(ConfigError):
            standard_stable_sample(alpha, rng, 10)
        np.testing.assert_equal(rng.bit_generator.state, state)

    def test_domain(self):
        with pytest.raises(ConfigError):
            sample_stable(2.5, 1.0, uniform_grid(1.0, 0.1), stream(9, "sbad"))


class TestTruncatedStable:
    def test_large_cutoff_matches_stable(self):
        # cutoff -> infinity limit: U(1) indistinguishable from the exact stable
        alpha, theta, n = 1.2, 1.0, 4000
        grid = uniform_grid(1.0, 0.05)
        rng1 = stream(10, "ts1")
        rng2 = stream(11, "ts2")
        u_trunc = np.array([sample_truncated_stable(alpha, theta, 200.0, grid, rng1).values[-1]
                            for _ in range(n)])
        u_exact = np.array([sample_stable(alpha, theta, grid, rng2).values[-1] for _ in range(n)])
        d = stats.ks_2samp(u_trunc, u_exact).statistic
        assert d < ks_crit(n, n)

    def test_no_cloud_jump_exceeds_cutoff(self):
        # theta = 1, so the cloud's jumps are those of the standard process
        comp = TruncatedStable(0.8, 1.0, 1.0)
        _, _, jumps = _truncated_stable_steps(comp, stream(12, "tsc"), np.diff(uniform_grid(5.0, 0.01)))
        assert jumps.size > 0
        assert np.max(np.abs(jumps)) <= 1.0 + 1e-12

    def test_variance_matches_levy_integral(self):
        # oracle: direct integration of x^2 A |x|^(-alpha-1) over (-c, c)
        alpha, theta, c = 0.8, 1.0, 1.0
        ac = frac_constant(alpha)
        oracle, _ = integrate.quad(lambda x: 2.0 * ac * x ** (1.0 - alpha), 0.0, c)
        grid = uniform_grid(1.0, 0.02)
        rng = stream(13, "tsv")
        n = 4000
        u1 = np.array([sample_truncated_stable(alpha, theta, c, grid, rng).values[-1] for _ in range(n)])
        u2 = np.array([sample_truncated_stable(alpha, theta, c, grid, rng).values[-1] for _ in range(2 * n)])
        for sample in (u1, u2):
            var = sample.var(ddof=1)
            se = var * np.sqrt(2.0 / (sample.size - 1)) * 3.0
            # heavy-ish fourth moment: allow a generous band around the oracle
            assert abs(var - oracle) <= max(4.0 * se, 0.15 * oracle)

    def test_cutoff_domain(self):
        with pytest.raises(ConfigError):
            sample_truncated_stable(0.8, 1.0, -1.0, uniform_grid(1.0, 0.1), stream(14, "tsd"))

    # SHA-256 of each array of one path per (alpha, cutoff) (x86-64, numpy
    # 2.4), recorded before engine B shared the sampler's draw code; any change
    # to its draw order or float expressions moves them.  A truncated stable
    # path has no continuous part, so these are all its sampled arrays.
    PINNED = {
        (0.8, 1.0): {
            "grid": "13fb3b2065c2462ffcac49450fcdf346a4300eb66ec2d295feffe1a263f9035d",
            "values": "1e8b5922c6e0926d8247c72440e356e853da2cb8d05fd184f32d1bcf87ba42a7",
        },
        (1.5, 0.3): {
            "grid": "13fb3b2065c2462ffcac49450fcdf346a4300eb66ec2d295feffe1a263f9035d",
            "values": "c6370bde403c0a01208e3defd6ce74a77fda004f60184498cc6491cf819dd9ab",
        },
        (1.9, 5.0): {
            "grid": "13fb3b2065c2462ffcac49450fcdf346a4300eb66ec2d295feffe1a263f9035d",
            "values": "c8ec6667aada859f465c0f012671f6ef5706f6c7fd483c2d90d7be230df44dac",
        },
    }

    @pytest.mark.parametrize("alpha, cutoff", sorted(PINNED))
    def test_path_bytes_pinned(self, alpha, cutoff):
        path = sample_truncated_stable(alpha, 1.0, cutoff, uniform_grid(2.0, 0.01),
                                       stream(31, "tspin", alpha, cutoff))
        got = {f: hashlib.sha256(np.ascontiguousarray(getattr(path, f)).tobytes()).hexdigest()
               for f in self.PINNED[alpha, cutoff]}
        assert got == self.PINNED[alpha, cutoff]


class TestCompoundPoisson:
    def test_tiny_rate_is_flat(self):
        law = JumpLaw("two_point", {"size": 1.0})
        path = sample_compound_poisson(1e-9, law, 1.0, stream(15, "cpp0"))
        assert np.all(path.values == 0.0)

    def test_event_count_mean(self):
        law = JumpLaw("gaussian", {"scale": 1.0})
        rng = stream(16, "cppn")
        # every event is an interior grid point
        counts = np.array([sample_compound_poisson(2.0, law, 10.0, rng).grid.size - 2
                           for _ in range(10_000)])
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 20.0) <= 3.0 * se

    def test_symmetric_mean_zero(self):
        law = JumpLaw("two_point", {"size": 1.0})
        rng = stream(17, "cpps")
        finals = np.array([sample_compound_poisson(2.0, law, 5.0, rng).values[-1]
                           for _ in range(5000)])
        assert abs(finals.mean()) <= 3.0 * finals.std(ddof=1) / np.sqrt(finals.size)

    def test_all_jumps_in_grid_and_ledger(self):
        law = JumpLaw("uniform", {"half_width": 2.0})
        path = sample_compound_poisson(5.0, law, 4.0, stream(18, "cppl"))
        assert path.is_piecewise_constant
        d_cont, d_jump = path.increments()
        assert not d_cont.any()
        # one jump lands at each interior grid point; flat to the horizon
        assert np.all(d_jump[:-1] != 0.0) and d_jump[-1] == 0.0

    def test_unknown_law_rejected(self):
        with pytest.raises(ConfigError):
            JumpLaw("weird", {})


class TestCompose:
    def test_identity_with_null_path(self):
        grid = uniform_grid(1.0, 0.1)
        p = sample_stable(1.5, 1.0, grid, stream(19, "cmp1"))
        zero = sample_brownian(0.0, grid, stream(20, "cmp2"))
        q = compose_drivers([p, zero])
        assert np.array_equal(q.values, p.values)
        assert np.array_equal(q.grid, p.grid)

    def test_brownian_variance_additivity(self):
        grid = uniform_grid(1.0, 0.5)
        rng1, rng2 = stream(21, "cmp3"), stream(22, "cmp4")
        finals = np.array([
            compose_drivers([sample_brownian(1.0, grid, rng1),
                             sample_brownian(3.0, grid, rng2)]).values[-1]
            for _ in range(50_000)
        ])
        var = finals.var(ddof=1)
        se = 4.0 * np.sqrt(2.0 / (finals.size - 1))
        assert abs(var - 4.0) <= 3.0 * se

    def test_continuous_part_is_the_brownian_sum(self):
        grid = uniform_grid(2.0, 0.1)
        b1 = sample_brownian(1.0, grid, stream(23, "cmp5"))
        b2 = sample_brownian(2.0, grid, stream(24, "cmp6"))
        s = sample_stable(1.5, 1.0, grid, stream(27, "cmp9"))
        cpp = sample_compound_poisson(2.0, JumpLaw("two_point", {"size": 3.0}), 2.0, stream(28, "cmp10"))
        q = compose_drivers([b1, s, cpp, b2])
        assert np.array_equal(q.continuous, b1.values_at(q.grid) + b2.values_at(q.grid))
        assert np.allclose(q.values - q.continuous, s.values_at(q.grid) + cpp.values_at(q.grid))
        assert not q.is_piecewise_constant
        assert compose_drivers([cpp, cpp.negated()]).is_piecewise_constant

    def test_horizon_mismatch_rejected(self):
        p1 = sample_brownian(1.0, uniform_grid(1.0, 0.1), stream(25, "cmp7"))
        p2 = sample_brownian(1.0, uniform_grid(2.0, 0.1), stream(26, "cmp8"))
        with pytest.raises(ConfigError):
            compose_drivers([p1, p2])


class TestSpecInvariants:
    @pytest.mark.parametrize("make", [
        lambda v: Brownian(v), lambda v: Stable(1.5, v), lambda v: TruncatedStable(1.5, v, 1.0),
        lambda v: CompoundPoisson(v, JumpLaw("two_point", {"size": 1.0})),
    ])
    @pytest.mark.parametrize("strength", [np.nan, np.inf, -1.0])
    def test_component_rejects_bad_strength(self, make, strength):
        with pytest.raises(ConfigError):
            make(strength)

    @pytest.mark.parametrize("strength", [
        {"kappa": np.nan}, {"kappa": np.inf}, {"theta": np.nan}, {"theta": np.inf},
        {"cpp_rate": np.nan}, {"cpp_rate": np.inf}, {"kappa": 2.0, "theta": np.nan},
    ])
    def test_from_params_rejects_non_finite_strength(self, strength):
        # a NaN strength fails every "> 0" test, so it was dropped silently
        with pytest.raises(ConfigError):
            DriverSpec.from_params(**strength)

    @pytest.mark.parametrize("name", ["kappa", "theta", "cpp_rate"])
    def test_from_params_rejects_negative_strength(self, name):
        # a negative strength failed "> 0" and was dropped: U == 0 without a word
        with pytest.raises(ConfigError, match=name):
            DriverSpec.from_params(**{name: -1.0})

    @pytest.mark.parametrize("cutoff", [-1.0, np.nan, np.inf])
    def test_from_params_rejects_bad_cutoff(self, cutoff):
        # a negative or NaN cutoff failed "> 0" and dropped the truncation
        with pytest.raises(ConfigError, match="trunc_cutoff"):
            DriverSpec.from_params(theta=1.0, trunc_cutoff=cutoff)

    def test_from_params_zero_cutoff_is_untruncated(self):
        assert DriverSpec.from_params(theta=1.0, trunc_cutoff=0.0).components == (Stable(1.5, 1.0),)

    def test_truncated_stable_rejects_infinite_cutoff(self):
        # an infinite cutoff sampled path values [0, -inf, -inf, nan]
        with pytest.raises(ConfigError, match="cutoff"):
            TruncatedStable(1.5, 1.0, np.inf)

    @pytest.mark.parametrize("name, key, params", [
        ("two_point", "size", {}), ("gaussian", "scale", {}), ("uniform", "half_width", {}),
        ("pareto", "tail_index", {"scale": 1.0}),
    ])
    def test_jump_law_rejects_infinite_parameter(self, name, key, params):
        with pytest.raises(ConfigError, match=key):
            JumpLaw(name, {key: np.inf, **params})

    def test_stationarity_of_increments(self):
        # same-size increment samples from disjoint windows agree in law
        spec = DriverSpec((Brownian(1.0), Stable(1.3, 0.5)))
        n = 2000
        a = np.empty(n)
        b = np.empty(n)
        for k in range(n):
            path = sample_driver(spec, 2.0, 900, replica=k, dt=0.05)
            v = path.values_at(np.array([0.0, 0.5, 1.5, 2.0]))
            a[k] = v[1] - v[0]
            b[k] = v[3] - v[2]
        d = stats.ks_2samp(a, b).statistic
        assert d < ks_crit(n, n)

    def test_stable_scaling_property(self):
        # a^(-1/alpha) U(a t) has the law of U(t)
        alpha, a, n = 1.5, 4.0, 3000
        grid_long = uniform_grid(a * 1.0, 0.05)
        grid_short = uniform_grid(1.0, 0.05)
        rng1, rng2 = stream(30, "scl1"), stream(31, "scl2")
        u_scaled = np.array([a ** (-1.0 / alpha) * sample_stable(alpha, 1.0, grid_long, rng1).values[-1]
                             for _ in range(n)])
        u_plain = np.array([sample_stable(alpha, 1.0, grid_short, rng2).values[-1] for _ in range(n)])
        assert stats.ks_2samp(u_scaled, u_plain).statistic < ks_crit(n, n)

    def test_determinism(self):
        spec = DriverSpec((Brownian(2.0), Stable(1.1, 1.0),
                           CompoundPoisson(1.0, JumpLaw("gaussian", {"scale": 2.0}))))
        p1 = sample_driver(spec, 3.0, 777, replica=5, dt=0.01)
        p2 = sample_driver(spec, 3.0, 777, replica=5, dt=0.01)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.grid, p2.grid)
        assert np.array_equal(p1.continuous, p2.continuous)
        p3 = sample_driver(spec, 3.0, 777, replica=6, dt=0.01)
        assert not np.array_equal(p1.values, p3.values)

    def test_sign_symmetry(self):
        # negated increments have the same law: compare -U(T) against fresh U(T)
        spec = DriverSpec((Stable(0.9, 1.0),))
        n = 3000
        neg = np.array([-sample_driver(spec, 1.0, 50, replica=k, dt=0.05).values[-1] for k in range(n)])
        fresh = np.array([sample_driver(spec, 1.0, 51, replica=k, dt=0.05).values[-1] for k in range(n)])
        assert stats.ks_2samp(neg, fresh).statistic < ks_crit(n, n)

    def test_path_invariants_enforced(self):
        from levyloewner.drivers import DriverPath

        grid, values = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        with pytest.raises(ConfigError):
            DriverPath(grid, np.array([0.5, 1.0]))
        with pytest.raises(ConfigError):
            DriverPath(np.empty(0), np.empty(0))  # empty grid
        with pytest.raises(ConfigError):
            DriverPath(grid, values, continuous=np.zeros(3))  # wrong shape
        with pytest.raises(ConfigError):
            DriverPath(grid, values, continuous=np.array([0.5, 1.0]))  # nonzero start
        path = DriverPath(grid, values)
        assert np.array_equal(path.continuous, np.zeros(2))
        assert not path.continuous.flags.writeable
