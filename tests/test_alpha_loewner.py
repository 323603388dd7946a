"""Index-beta evolution: reduction to the Loewner flow at beta = 2,
null-driver closed forms, and the self-similar coupling."""

import numpy as np
import pytest

from levyloewner.alpha_loewner import closed_form_null_driver
from levyloewner.drivers import DriverSpec, Stable, sample_brownian, sample_stable, uniform_grid
from levyloewner.engine import Cell, run_adaptive_cells
from levyloewner.errors import ConfigError
from levyloewner.experiments import ks_two_sample
from levyloewner.loewner import EvolutionConfig, evolve_point
from levyloewner.rng import stream
from levyloewner.stable_calculus import theta0


def null_path(horizon, dt=0.05, seed=0):
    return sample_brownian(0.0, uniform_grid(horizon, dt), stream(seed, "null"))


class TestClosedForm:
    def test_beta_two_matches_sqrt(self):
        assert closed_form_null_driver(1.0, 2.0, 2.0) == pytest.approx(3.0, rel=1e-14)

    def test_t_zero_identity(self):
        for x in (0.3, 1.0, 7.0):
            assert closed_form_null_driver(x, 1.5, 0.0) == pytest.approx(x, rel=1e-14)

    def test_beta_15_value(self):
        assert closed_form_null_driver(1.0, 1.5, 1.0) == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ConfigError):
            closed_form_null_driver(-1.0, 1.5, 1.0)
        with pytest.raises(ConfigError):
            closed_form_null_driver(1.0, 1.0, 1.0)


class TestNullDriverIntegrator:
    def test_real_axis_error_budget(self):
        # <= 1e-8 relative over x in [1e-2, 1e2], t in (0, 10]
        for x in (1e-2, 0.1, 1.0, 10.0, 100.0):
            for horizon in (0.1, 1.0, 10.0):
                path = null_path(horizon, dt=horizon / 16)
                cfg = EvolutionConfig(horizon=horizon, beta=1.5)
                out = evolve_point(complex(x, 0.0), path, cfg)
                expected = closed_form_null_driver(x, 1.5, horizon)
                assert abs(out.h_final.real - expected) / expected < 1e-8

    def test_imaginary_axis_hit_time(self):
        cfg = EvolutionConfig(horizon=1.0, beta=1.5)
        out = evolve_point(1j, null_path(1.0), cfg)
        assert out.hit
        assert out.zeta == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_interior_point_against_refined_reference(self):
        # off-axis accuracy: compare against the same flow on a 64x finer grid
        z = 0.8 + 0.9j
        cfg = EvolutionConfig(horizon=1.0, beta=1.3)
        coarse = evolve_point(z, null_path(1.0, dt=0.25), cfg)
        fine = evolve_point(z, null_path(1.0, dt=0.25 / 64), cfg)
        assert abs(coarse.h_final - fine.h_final) / abs(fine.h_final) < 1e-7


class TestBetaTwoReduction:
    def test_trajectories_coincide(self):
        for seed in range(12):
            path = sample_stable(1.5, 1.0, uniform_grid(1.0, 1e-2), stream(seed, "red"))
            z = 0.6 + 0.8j
            a = evolve_point(z, path, EvolutionConfig(horizon=1.0))
            b = evolve_point(z, path, EvolutionConfig(horizon=1.0, beta=2.0))
            assert (a.zeta is None) == (b.zeta is None)
            if a.zeta is not None:
                assert a.zeta == pytest.approx(b.zeta, abs=1e-8)
            else:
                assert abs(a.h_final - b.h_final) <= 1e-8 * abs(a.h_final)


class TestSelfSimilarity:
    def test_zeta_self_similarity_ks(self):
        # alpha = beta: zeta(a^(1/alpha) z) =law= a * zeta(z), checked on
        # censoring-consistent samples at theta above the critical strength
        alpha = 1.5
        a = 2.0
        th = 4.0 * theta0(alpha)
        spec = DriverSpec((Stable(alpha, th),))
        n = 2000
        horizon = 200.0
        x = 0.5
        res1 = run_adaptive_cells([Cell(spec, x, ("ss", 1), 1e-5)], n, horizon,
                                  master_seed=901, beta=alpha)[0]
        res2 = run_adaptive_cells([Cell(spec, a ** (1.0 / alpha) * x, ("ss", 2), a ** (1.0 / alpha) * 1e-5)],
                                  n, a * horizon, master_seed=902, beta=alpha)[0]
        s1 = a * np.where(np.isnan(res1.zeta), horizon, res1.zeta)
        s2 = np.where(np.isnan(res2.zeta), a * horizon, res2.zeta)
        dist, crit, passed = ks_two_sample(s1, s2)
        assert passed, (dist, crit)


class TestDriftInvariants:
    def test_im_h_nonincreasing_beta(self):
        path = sample_stable(1.2, 1.0, uniform_grid(1.0, 1e-2), stream(41, "imb"))
        cfg = EvolutionConfig(horizon=1.0, beta=1.5)
        out = evolve_point(0.5 + 1.5j, path, cfg)
        assert np.all(np.diff(out.trajectory[:, 2]) <= 1e-15)

    def test_grid_refinement_invariance(self):
        # inserting midpoints into a piecewise-constant path leaves the driver
        # unchanged; zeta / h_T must be stable under the refinement
        from levyloewner.drivers import DriverPath, JumpLaw, sample_compound_poisson

        tol = 1e-4
        for seed in range(30):
            path = sample_compound_poisson(2.0, JumpLaw("two_point", {"size": 1.0}),
                                           2.0, stream(seed, "refine"))
            mids = 0.5 * (path.grid[:-1] + path.grid[1:])
            grid2 = np.sort(np.concatenate([path.grid, mids]))
            vals2 = path.values_at(grid2)
            fine = DriverPath(grid2, vals2, is_piecewise_constant=True)
            cfg = EvolutionConfig(horizon=2.0, beta=1.6, hit_tolerance=tol)
            a = evolve_point(0.5 + 0.7j, path, cfg)
            b = evolve_point(0.5 + 0.7j, fine, cfg)
            assert a.hit == b.hit
            if a.hit:
                assert abs(a.zeta - b.zeta) < tol
            else:
                assert abs(a.h_final - b.h_final) < tol
