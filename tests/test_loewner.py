"""Flow solver: closed-form oracles, slit-map branch, exact composition,
capacity normalization, rasters, components, and structural invariants."""

import dataclasses

import numpy as np
import pytest

from levyloewner.drivers import (
    Brownian,
    DriverPath,
    DriverSpec,
    JumpLaw,
    Stable,
    sample_brownian,
    sample_compound_poisson,
    sample_driver,
    sample_stable,
    uniform_grid,
)
from levyloewner.errors import ConfigError
from levyloewner.loewner import (
    EvolutionConfig,
    compose_piecewise_constant,
    connected_components,
    estimate_hcap,
    evolve_point,
    raster_cluster,
    slit_map,
)
from levyloewner.rng import stream


def null_path(horizon, dt=0.05, seed=0):
    return sample_brownian(0.0, uniform_grid(horizon, dt), stream(seed, "null"))


class TestClosedFormOracles:
    """U == 0: g_t(z) = sqrt(z^2 + 4t), so points on the imaginary axis die
    at |z|^2/4 and real points obey h_T = sign(x) sqrt(x^2 + 4T)."""

    def test_zeta_of_i(self):
        out = evolve_point(1j, null_path(1.0), EvolutionConfig(horizon=1.0))
        assert out.hit
        assert out.zeta == pytest.approx(0.25, abs=1e-6)

    def test_real_point_censored_with_closed_form(self):
        for x0, horizon in ((1.0, 1.0), (-2.0, 3.0), (0.3, 5.0)):
            out = evolve_point(complex(x0), null_path(horizon), EvolutionConfig(horizon=horizon))
            assert not out.hit
            expected = np.sign(x0) * np.sqrt(x0 * x0 + 4.0 * horizon)
            assert out.h_final.real == pytest.approx(expected, abs=1e-8)
            assert out.h_final.imag == 0.0

    def test_interior_point_alive(self):
        out = evolve_point(2j, null_path(0.5), EvolutionConfig(horizon=0.5))
        assert not out.hit
        assert out.h_final == pytest.approx(1j * np.sqrt(2.0), abs=1e-6)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            evolve_point(0j, null_path(1.0), EvolutionConfig(horizon=1.0))


class TestSlitMap:
    def test_exact_swallow_signal(self):
        # (2i)^2 + 4 = 0: the map returns the driver position
        assert slit_map(2j, 0.0, 1.0) == 0j

    def test_real_example(self):
        assert slit_map(1.0, 0.0, 2.0) == pytest.approx(3.0)

    def test_branch_upper_half_plane(self):
        rng = stream(99, "slit")
        z = rng.uniform(-10, 10, 1_000_000) + 1j * rng.uniform(0, 10, 1_000_000)
        u = rng.uniform(-5, 5, 1_000_000)
        dt = rng.uniform(1e-6, 5.0, 1_000_000)
        w = slit_map(z, u, dt)
        assert np.all(w.imag >= 0)

    def test_real_sign_preserved(self):
        assert slit_map(-1.0, 0.0, 2.0) == pytest.approx(-3.0)
        assert slit_map(np.asarray([3.0]), 1.0, 1.0)[0] == pytest.approx(1.0 + np.sqrt(8.0))


class TestComposition:
    def cpp(self, seed, rate=2.0, horizon=3.0, size=1.0):
        return sample_compound_poisson(rate, JumpLaw("two_point", {"size": size}),
                                       horizon, stream(seed, "cpp"))

    def test_zero_jump_equals_slit_chain(self):
        path = null_path(2.0, dt=0.5)
        g, zeta = compose_piecewise_constant(0.5 + 1.2j, path)
        w = 0.5 + 1.2j
        for _ in range(4):
            w = slit_map(w, 0.0, 0.5)
        assert g == pytest.approx(w, rel=1e-14)

    def test_agrees_with_evolve_point(self):
        cfg_tol = 1e-4
        for seed in range(200):
            path = self.cpp(seed)
            z = 0.4 + 0.6j if seed % 2 else -1.2 + 0.3j
            g, zeta = compose_piecewise_constant(z, path, hit_tolerance=cfg_tol)
            out = evolve_point(z, path, EvolutionConfig(horizon=path.horizon, hit_tolerance=cfg_tol))
            if g is not None:
                assert not out.hit
                h_comp = g - path.values[-1]
                assert abs(h_comp - out.h_final) / abs(h_comp) < 1e-6
            else:
                assert out.hit
                assert abs(zeta - out.zeta) <= cfg_tol

    def test_jump_order_matters(self):
        # two jumps vs one jump of the summed size: non-commutativity witnessed
        from levyloewner.drivers import DriverPath

        grid = np.array([0.0, 0.5, 1.0, 1.5])
        two = DriverPath(grid, np.array([0.0, 1.0, 2.0, 2.0]), is_piecewise_constant=True)
        one = DriverPath(grid, np.array([0.0, 0.0, 2.0, 2.0]), is_piecewise_constant=True)
        z = 0.8 + 0.9j
        g2, _ = compose_piecewise_constant(z, two)
        g1, _ = compose_piecewise_constant(z, one)
        assert abs(g1 - g2) > 1e-3


class TestHcap:
    def test_null_driver(self):
        est = estimate_hcap(null_path(1.0, dt=0.01), 1.0)
        assert est == pytest.approx(2.0, rel=0.01)
        assert estimate_hcap(null_path(1.0), 0.0) == 0.0

    def test_brownian_paths(self):
        for seed in range(20):
            path = sample_brownian(4.0, uniform_grid(1.0, 1e-3), stream(500 + seed, "hcap"))
            assert estimate_hcap(path, 1.0) == pytest.approx(2.0, rel=0.05)

    def test_additivity_in_t(self):
        path = sample_brownian(4.0, uniform_grid(2.0, 1e-3), stream(777, "hcapadd"))
        e_08 = estimate_hcap(path, 0.8)
        e_12 = estimate_hcap(path, 1.2)
        e_20 = estimate_hcap(path, 2.0)
        assert e_08 + e_12 == pytest.approx(e_20, rel=0.05)
        assert e_20 == pytest.approx(4.0, rel=0.05)

    def test_small_radius_usage_error(self):
        with pytest.raises(ConfigError):
            estimate_hcap(null_path(1.0), 1.0, probe_radius=1.0)

    @pytest.mark.parametrize("t, radius", [(1.0, "x"), (1.0, "500"), (1.0, 500j), ("1", None), (True, None)])
    def test_input_not_a_real_number_rejected(self, t, radius):
        # a string radius raised numpy's UFuncTypeError, a string t a bare TypeError
        with pytest.raises(ConfigError, match="must be a real number"):
            estimate_hcap(null_path(1.0), t, probe_radius=radius)

    # (path, t, M): M = max(sqrt(t), |U| at every check point of the run to
    # t).  The continuous part of the first two paths reaches 3 or 10 inside
    # their steps while every value is 0 (10 lies beyond the default radius's
    # 2 (1 + sqrt(t) + max |U|) = 4); the third path's value 10 lands at t = 1
    # only, so the partial step of a run to 0.75 never reaches it; and the
    # null path's M is sqrt(t).
    @pytest.mark.parametrize("path, t, m", [
        (DriverPath(np.array([0.0, 0.5, 1.0]), np.zeros(3), continuous=np.array([0.0, 3.0, 0.0])), 1.0, 3.0),
        (DriverPath(np.array([0.0, 0.5, 1.0]), np.zeros(3), continuous=np.array([0.0, 10.0, 0.0])), 1.0, 10.0),
        (DriverPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 10.0]),
                    continuous=np.array([0.0, 3.0, 3.0])), 0.75, 3.0),
        (DriverPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 10.0]),
                    continuous=np.array([0.0, 3.0, 3.0])), 1.0, 10.0),
        (null_path(1.0, dt=0.01), 0.64, 0.8),
    ])
    def test_radius_bound_from_the_path(self, path, t, m):
        # R below 50 M is refused before any probe is evolved; R above it, and
        # the default R, run
        with pytest.raises(ConfigError, match="at least 50"):
            estimate_hcap(path, t, probe_radius=50.0 * m * (1.0 - 1e-9))
        assert estimate_hcap(path, t, probe_radius=50.0 * m * (1.0 + 1e-9)) == pytest.approx(2.0 * t, rel=0.05)
        assert estimate_hcap(path, t) == pytest.approx(2.0 * t, rel=0.05)


class TestRaster:
    def test_null_driver_slit_within_one_cell(self):
        path = null_path(1.0, dt=0.01)
        raster = raster_cluster((-1.0, 1.0, 0.0, 2.0), (20, 20), path,
                                EvolutionConfig(horizon=1.0))
        hit = raster.cells_hit_by(1.0)
        cols = np.where(hit.any(axis=0))[0]
        # the slit {iy: y <= 2} is approximated by the columns adjacent to it
        assert set(cols) <= {9, 10}
        assert hit.any()
        assert connected_components(raster, 1.0) == 1

    def test_nested_thresholds(self):
        path = sample_stable(1.5, 2.0, uniform_grid(1.0, 5e-3), stream(3, "rast"))
        raster = raster_cluster((-2.0, 2.0, 0.0, 2.0), (24, 12), path,
                                EvolutionConfig(horizon=1.0))
        early = raster.cells_hit_by(0.5)
        late = raster.cells_hit_by(1.0)
        assert np.all(late[early])

    def test_far_window_all_censored(self):
        path = null_path(1.0)
        raster = raster_cluster((50.0, 52.0, 0.0, 2.0), (8, 8), path,
                                EvolutionConfig(horizon=1.0))
        assert not raster.cells_hit_by(1.0).any()

    def test_disconnected_components_from_big_jump(self):
        from levyloewner.drivers import DriverPath

        # hold at 0 for t in [0,1), jump to 30, grow there until t=2
        grid = np.array([0.0, 1.0, 2.0])
        path = DriverPath(grid, np.array([0.0, 30.0, 30.0]), is_piecewise_constant=True)
        raster = raster_cluster((-3.0, 33.0, 0.0, 2.5), (144, 10), path,
                                EvolutionConfig(horizon=2.0))
        assert connected_components(raster, 2.0) == 2
        assert connected_components(raster, 0.5) == 1

    def test_empty_count_zero(self):
        path = null_path(1.0)
        raster = raster_cluster((30.0, 32.0, 0.0, 1.0), (8, 4), path,
                                EvolutionConfig(horizon=1.0))
        assert connected_components(raster, 1.0) == 0

    @pytest.mark.parametrize("resolution", [(8.9, 4.2), (True, 4), (8, np.float64(4.5)), (8, np.True_)])
    def test_non_integral_resolution_rejected(self, resolution):
        # (8.9, 4.2) gave an 8x4 raster and (True, 4) a 1x4 one
        with pytest.raises(ConfigError, match="resolution must be an integer"):
            raster_cluster((30.0, 32.0, 0.0, 1.0), resolution, null_path(1.0), EvolutionConfig(horizon=1.0))

    @pytest.mark.parametrize("window, resolution", [
        ((30.0, 32.0, 0.0), (8, 4)),
        ((30.0, 32.0, 0.0, 1.0, 2.0), (8, 4)),
        (("a", 32.0, 0.0, 1.0), (8, 4)),
        ((30.0, 32.0, 0.0, 1.0), (8, 4, 4)),
        ((30.0, 32.0, 0.0, 1.0), (8,)),
        ((30.0, 32.0, 0.0, 1.0), 8),
    ])
    def test_window_or_resolution_of_wrong_shape_rejected(self, window, resolution):
        # each raised a bare ValueError or TypeError while unpacking
        with pytest.raises(ConfigError, match="window must be four numbers and resolution two"):
            raster_cluster(window, resolution, null_path(1.0), EvolutionConfig(horizon=1.0))

    @pytest.mark.parametrize("window", [(30.0, np.inf, 0.0, 1.0), (30.0, 32.0, 0.0, np.inf)])
    def test_non_finite_window_rejected(self, window):
        # an infinite edge ran on infinite and NaN cell centers
        with pytest.raises(ConfigError, match="window must be a rectangle"):
            raster_cluster(window, (8, 4), null_path(1.0), EvolutionConfig(horizon=1.0))

    def test_integral_float_resolution_accepted(self):
        raster = raster_cluster((30.0, 32.0, 0.0, 1.0), (8.0, np.int64(4)), null_path(1.0),
                                EvolutionConfig(horizon=1.0))
        assert raster.resolution == (8, 4) and raster.zeta.shape == (4, 8)

    def test_scalar_hit_tolerance_used_for_every_cell(self):
        path = sample_driver(DriverSpec((Brownian(4.0),)), 1.0, 3, dt=1e-3)
        window = (-1.5, 1.5, 0.0, 2.5)
        default = raster_cluster(window, (30, 25), path, EvolutionConfig(horizon=1.0))
        wide = raster_cluster(window, (30, 25), path, EvolutionConfig(horizon=1.0, hit_tolerance=0.5))
        assert np.all(wide.cell_tolerance == 0.5)
        assert not np.array_equal(wide.cells_hit_by(1.0), default.cells_hit_by(1.0))

    def test_radius_evolves_only_the_cells_within_it(self):
        # each cell's zeta depends on its own center only, so trimming the
        # window to a half-disk leaves the cells inside bit for bit as they are
        path = sample_driver(DriverSpec((Brownian(4.0),)), 1.0, 3, dt=1e-3)
        window, cfg = (-1.5, 1.5, 0.0, 1.5), EvolutionConfig(horizon=1.0)
        full = raster_cluster(window, (30, 15), path, cfg)
        trimmed = raster_cluster(window, (30, 15), path, cfg, radius=1.5)
        gx, gy = np.meshgrid(full.xs, full.ys)
        inside = np.hypot(gx, gy) <= 1.5
        np.testing.assert_array_equal(trimmed.zeta[inside], full.zeta[inside])
        assert np.isnan(trimmed.zeta[~inside]).all() and (~inside).any()
        assert full.cells_hit_by(1.0)[inside].any()

    @pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_radius_rejected(self, radius):
        # nan evolved every cell, and 0 or -1 returned an all-NaN raster
        with pytest.raises(ConfigError, match="radius must be positive and finite"):
            raster_cluster((-1.0, 1.0, 0.0, 1.0), (8, 4), null_path(1.0), EvolutionConfig(horizon=1.0),
                           radius=radius)

    @pytest.mark.parametrize("beta", [2.0, 1.5])
    @pytest.mark.parametrize("z0, tol, hit", [(0.03j, 0.02, True), (2.5 + 2.0j, None, False)])
    def test_tracked_point_equals_evolve_point(self, beta, z0, tol, hit):
        # the tracked point is one more lane of the raster's engine call; a
        # lane depends on its own point and tolerance only, so the raster
        # keeps its bytes and the point gets evolve_point's outcome.  The hit
        # point starts on the imaginary axis so near 0 that the first step's
        # drift takes it within its tolerance before any increment lands, on
        # every sample
        path = sample_driver(DriverSpec((Brownian(4.0), Stable(1.5, 1.0))), 1.0, 5, dt=2e-3)
        window, cfg = (-1.5, 1.5, 0.0, 2.5), EvolutionConfig(horizon=1.0, beta=beta)
        plain = raster_cluster(window, (30, 25), path, cfg)
        raster = raster_cluster(window, (30, 25), path, cfg, track=(z0, tol))
        assert plain.tracked is None
        assert raster.zeta.tobytes() == plain.zeta.tobytes()
        assert raster.cell_tolerance.tobytes() == plain.cell_tolerance.tobytes()
        alone = evolve_point(z0, path, EvolutionConfig(horizon=1.0, hit_tolerance=tol, beta=beta))
        got = raster.tracked
        assert got.hit == hit
        # a hit point stops before the raster's lanes do
        assert (got.steps_taken < path.grid.size - 1) == hit
        assert got.trajectory.shape == alone.trajectory.shape
        assert got.trajectory.tobytes() == alone.trajectory.tobytes()
        # repr keeps every bit of a float, and tells -0.0 from 0.0
        assert repr(dataclasses.replace(got, trajectory=None)) == repr(dataclasses.replace(alone, trajectory=None))


class TestConfig:
    @pytest.mark.parametrize("beta", [1.0, 2.5, np.nan])
    def test_rejects_beta_outside_one_two(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            EvolutionConfig(horizon=1.0, beta=beta)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan, np.inf])
    def test_rejects_hit_tolerance_not_positive_finite(self, tol):
        # a raster cell within an infinite tolerance of 0 would be marked hit at 0+
        with pytest.raises(ConfigError, match="hit_tolerance"):
            EvolutionConfig(horizon=1.0, hit_tolerance=tol)


class TestInvariants:
    def test_im_h_nonincreasing(self):
        path = sample_stable(1.2, 1.0, uniform_grid(1.0, 1e-3), stream(11, "imh"))
        cfg = EvolutionConfig(horizon=1.0)
        out = evolve_point(0.5 + 1.5j, path, cfg)
        ys = out.trajectory[:, 2]
        assert np.all(np.diff(ys) <= 1e-15)

    def test_mirror_equivariance_bitwise(self):
        cfg = EvolutionConfig(horizon=2.0)
        for seed in range(20):
            path = sample_stable(1.4, 1.0, uniform_grid(2.0, 1e-2), stream(seed, "mirror"))
            z = 0.7 + 0.4j
            a = evolve_point(z, path, cfg)
            b = evolve_point(-np.conj(z), path.negated(), cfg)
            assert (a.zeta is None) == (b.zeta is None)
            if a.zeta is not None:
                assert a.zeta == b.zeta  # bit-identical by symmetry of the arithmetic
            else:
                assert a.h_final.real == -b.h_final.real
                assert a.h_final.imag == b.h_final.imag

    def test_real_line_consistency_with_complex(self):
        # a point on the real line and one just above it see the same flow
        cfg = EvolutionConfig(horizon=1.0)
        for seed in range(100):
            path = sample_brownian(8.0, uniform_grid(1.0, 1e-2), stream(seed, "rlc"))
            a = evolve_point(1.0 + 0j, path, cfg)
            b = evolve_point(1.0 + 1e-9j, path, cfg)
            if a.hit or b.hit:
                assert a.hit and b.hit
                assert abs(a.zeta - b.zeta) <= 2e-4
            else:
                assert a.h_final.imag == 0.0
                assert abs(a.h_final - b.h_final) <= 1e-6

    def test_horizon_shorter_than_path_required(self):
        path = null_path(1.0)
        with pytest.raises(ConfigError):
            evolve_point(1j, path, EvolutionConfig(horizon=2.0))


class TestPartialHorizon:
    def test_horizon_inside_grid_step(self):
        # drift continues to the exact horizon inside the final grid interval
        path = null_path(0.4, dt=0.1)
        out = evolve_point(1.0 + 0j, path, EvolutionConfig(horizon=0.35))
        assert out.h_final.real == pytest.approx(np.sqrt(1.0 + 4 * 0.35), abs=1e-12)
