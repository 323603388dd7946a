"""Coefficient layer: the closed forms against the quadrature oracle and
mpmath, sign classification, the critical-strength curve, and the Monte
Carlo generator link between the coefficient and sampling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import levyloewner
from levyloewner.errors import ConfigError
from levyloewner.drivers import standard_stable_sample
from levyloewner.rng import stream
from levyloewner.stable_calculus import (
    HarmonicClass,
    classify_power,
    frac_constant,
    frac_laplacian_power,
    gamma_coeff,
    gamma_coeff_alt,
    phi,
    theta0,
)

# theta0(1.5) = 3.19153824321146..., frozen to ten digits from the quadrature
# oracle, so it checks the closed form against a number it did not produce
THETA0_15_REFERENCE = 3.1915382432


def _mp_a_gamma(alpha, p):
    """A(alpha) gamma(alpha, p) from the Gamma-function identity at 30 digits."""
    a, p = mpmath.mpf(alpha), mpmath.mpf(p)
    if p == 1:
        return (2 ** (a - 1) * mpmath.sqrt(mpmath.pi) * mpmath.gamma(a / 2)
                * mpmath.rgamma((1 - a) / 2))
    return (-(2 ** a) * mpmath.gamma(p / 2) * mpmath.gamma((a - p + 1) / 2)
            * mpmath.rgamma((1 - p) / 2) * mpmath.rgamma((p - a) / 2))


def _mp_frac_constant(alpha):
    a = mpmath.mpf(alpha)
    return (a * 2 ** (a - 1) / mpmath.sqrt(mpmath.pi)
            * mpmath.gamma((1 + a) / 2) / mpmath.gamma(1 - a / 2))


def _rel(got, want):
    return float(abs(mpmath.mpf(got) - want) / (abs(want) or 1))


class TestFracConstant:
    def test_alpha_one_is_inv_pi(self):
        # Gamma(1) = 1, Gamma(1/2) = sqrt(pi): A(1) = 1/pi exactly
        assert frac_constant(1.0) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_positive_on_domain(self):
        for a in (0.5, 1.5):
            assert frac_constant(a) > 0

    def test_vanishes_as_alpha_to_zero(self):
        # the alpha prefactor dominates: values shrink along alpha -> 0
        vals = [frac_constant(a) for a in (0.2, 0.1, 0.05, 0.01)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

    def test_domain_error_outside(self):
        for bad in (0.0, 2.0, 2.5, -1.0):
            with pytest.raises(ConfigError):
                frac_constant(bad)


class TestGammaCoeff:
    def test_zero_at_p_equal_alpha(self):
        for a in (0.3, 0.7, 1.0, 1.1, 1.5, 1.9):
            g = gamma_coeff(a, a)
            assert g == 0.0 and math.copysign(1.0, g) == 1.0  # exact, written as 0, not -0
            assert classify_power(a, a) is HarmonicClass.HARMONIC
            assert gamma_coeff_alt(a, a) == pytest.approx(0.0, abs=1e-8)

    def test_superharmonic_range_above_one(self):
        # alpha > 1, p in [1, alpha): negative coefficient
        assert gamma_coeff(1.5, 1.2) < 0

    def test_subharmonic_range(self):
        assert gamma_coeff(1.5, 2.0) > 0

    def test_log_case_matches_alt(self):
        g = gamma_coeff(1.5, 1.0)
        assert g == pytest.approx(gamma_coeff_alt(1.5, 1.0), abs=1e-8)

    def test_alt_superharmonic_below_one(self):
        # alpha < 1, p in (alpha, 1): negative
        assert gamma_coeff_alt(0.5, 0.7) < 0

    def test_dual_representation_grid(self):
        alphas = np.linspace(0.1, 1.9, 20)
        for a in alphas:
            for p in np.linspace(0.08, a + 0.92, 20):
                assert gamma_coeff(a, p) == pytest.approx(gamma_coeff_alt(a, p), abs=1e-8), (a, p)

    @pytest.mark.parametrize("p", [2.499, 2.4999])
    def test_alt_near_alpha_plus_one(self, p):
        # gamma ~ 1/(alpha+1-p): 2.0e3 and 2.0e4 here, so the quadrature's
        # error budget is relative to the value
        assert gamma_coeff_alt(1.5, p) == pytest.approx(gamma_coeff(1.5, p), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            gamma_coeff(1.5, 0.0)
        with pytest.raises(ConfigError):
            gamma_coeff(1.5, 2.5)


class TestMpmathOracle:
    """The float64 evaluation against 30-digit mpmath.  phi and theta0 are
    referenced through their definitions 2(1-p)/(A gamma) and
    2/(A |gamma(alpha,1)|), not through the simplified forms the code uses."""

    @pytest.fixture(autouse=True)
    def _digits(self):
        with mpmath.workdps(30):
            yield

    @pytest.mark.parametrize("alpha,p", [
        (1.5, 1.0), (0.5, 1.0), (1.9, 1.0), (1.5, 1.2), (0.5, 0.7), (1.2, 0.3),
        (0.3, 0.05), (1.5, 1.5), (1.5, 1.5 + 1e-7), (1.5, 2.5 - 1e-6), (1.9, 2.9 - 1e-9),
        (1.2, 1.0 - 1e-7), (1.9, 1.0 + 1e-8),
    ])
    def test_gamma_coeff(self, alpha, p):
        want = _mp_a_gamma(alpha, p) / _mp_frac_constant(alpha)
        assert _rel(gamma_coeff(alpha, p), want) <= 1e-13

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 1.9, 1.99])
    def test_theta0(self, alpha):
        want = 2 / abs(_mp_a_gamma(alpha, 1.0))  # 2 / (A |gamma(alpha, 1)|)
        assert _rel(theta0(alpha), want) <= 1e-13

    @pytest.mark.parametrize("alpha,p", [
        (1.5, 0.3), (1.5, 1.0), (1.5, 1.49), (1.9, 1.0 - 1e-12), (1.1, 1.0 + 1e-3),
    ])
    def test_phi(self, alpha, p):
        if p == 1.0:
            want = 2 / abs(_mp_a_gamma(alpha, 1.0))  # phi(1) = theta0
        else:
            want = 2 * (1 - mpmath.mpf(p)) / _mp_a_gamma(alpha, p)
        assert _rel(phi(alpha, p), want) <= 1e-13


class TestFracLaplacianPower:
    def test_harmonic_case_zero(self):
        for x in (0.5, 1.0, 3.0, -2.0):
            assert frac_laplacian_power(1.2, 1.2, x) == pytest.approx(0.0, abs=1e-8)

    @given(st.floats(0.3, 1.9), st.floats(0.2, 0.95), st.floats(0.05, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_power_law_scaling(self, alpha, frac, x):
        p = frac * (alpha + 1.0)
        v1 = frac_laplacian_power(alpha, p, x)
        v2 = frac_laplacian_power(alpha, p, 2.0 * x)
        if abs(v1) > 1e-12:
            assert v2 / v1 == pytest.approx(2.0 ** (p - alpha - 1.0), rel=1e-6)

    def test_composition_of_oracles(self):
        expected = frac_constant(1.5) * gamma_coeff(1.5, 1.0)
        assert frac_laplacian_power(1.5, 1.0, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_x_zero_rejected(self):
        with pytest.raises(ConfigError):
            frac_laplacian_power(1.5, 1.0, 0.0)


class TestClassification:
    def test_harmonic_at_alpha(self):
        for a in (0.4, 1.0, 1.6):
            assert classify_power(a, a) is HarmonicClass.HARMONIC

    def test_subharmonic_small_p_above_one(self):
        assert classify_power(1.2, 0.5) is HarmonicClass.SUBHARMONIC

    def test_superharmonic_below_one(self):
        assert classify_power(0.8, 0.9) is HarmonicClass.SUPERHARMONIC

    def test_sign_consistent_with_operator(self):
        for a, p in ((1.5, 0.6), (1.5, 1.3), (0.7, 0.8), (1.1, 1.9)):
            cls = classify_power(a, p)
            val = frac_laplacian_power(a, p, 1.0)
            if cls is HarmonicClass.SUBHARMONIC:
                assert val > 0
            elif cls is HarmonicClass.SUPERHARMONIC:
                assert val < 0


class TestPhiTheta0:
    def test_phi_strictly_increasing(self):
        a = 1.5
        ps = np.arange(0.1, a - 0.05, 0.1)
        vals = [phi(a, p) for p in ps]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[0] > 0  # phi(0+) > 0

    def test_phi_diverges_at_alpha(self):
        a = 1.5
        assert phi(a, a - 0.01) > 50.0 * theta0(a)

    def test_phi_at_one_is_theta0(self):
        assert phi(1.5, 1.0) == pytest.approx(theta0(1.5), rel=1e-12)

    @pytest.mark.parametrize("alpha,p,want", [
        (1.2, 1.0 - 1e-7, 7.0489577141078120),  # 30-digit mpmath values
        (1.9, 1.0 + 1e-8, 2.1054296257319200),
    ])
    def test_phi_continuous_through_one(self, alpha, p, want):
        # phi(p) - phi(1) is O(|p-1|); a value snapped to theta0 is off by 5e-7
        assert phi(alpha, p) == pytest.approx(want, rel=1e-13)

    def test_theta0_positive(self):
        for a in (1.1, 1.5, 1.9):
            assert theta0(a) > 0

    def test_theta0_dual_quadrature_reference(self):
        a = 1.5
        ac = frac_constant(a)
        via_closed_form = 2.0 / (ac * abs(gamma_coeff(a, 1.0)))
        via_alt = 2.0 / (ac * abs(gamma_coeff_alt(a, 1.0)))
        assert via_closed_form == pytest.approx(via_alt, rel=1e-6)
        assert theta0(a) == pytest.approx(THETA0_15_REFERENCE, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            theta0(0.9)
        with pytest.raises(ConfigError):
            phi(1.5, 1.5)


class TestGeneratorLink:
    """[E w_p(x + theta^(1/alpha) S_t) - w_p(x)] / t must approach
    theta * A * gamma * |x|^(p-alpha-1) as t decreases (nested horizons)."""

    @pytest.mark.parametrize("t", [1e-2, 1e-3])
    def test_small_time_generator(self, t):
        alpha, p, x, th = 1.5, 1.2, 1.0, 0.7
        n = 400_000
        rng = stream(1234, "generator-check", str(t))
        s = standard_stable_sample(alpha, rng, n)
        w = np.abs(x + (th * t) ** (1.0 / alpha) * s) ** (p - 1.0)
        diff = (w - np.abs(x) ** (p - 1.0)) / t
        est = diff.mean()
        se = diff.std(ddof=1) / np.sqrt(n)
        expected = th * frac_laplacian_power(alpha, p, x)
        # 3 combined standard errors plus the O(t) Taylor remainder
        assert abs(est - expected) <= 3.0 * se + 0.5 * t * abs(expected) + 5e-4 * abs(expected)


def _fresh_interpreter(code: str):
    """Run code in a new interpreter importing the package under test and
    return the JSON it prints."""
    src = str(Path(levyloewner.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportPolicy:
    """Importing the package loads numpy only; scipy.special binds on the
    first Gamma evaluation and scipy.integrate only for the oracle."""

    def test_cli_import_loads_no_scipy(self):
        loaded = _fresh_interpreter(
            "import levyloewner.cli\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))")
        assert loaded == []

    def test_closed_forms_leave_integrate_unloaded(self):
        state = _fresh_interpreter(
            "from levyloewner.stable_calculus import frac_constant, gamma_coeff, theta0\n"
            "theta0(1.5); gamma_coeff(1.5, 0.7); frac_constant(1.5)\n"
            "print(json.dumps({m: m in sys.modules for m in ('scipy.special', 'scipy.integrate')}))")
        assert state == {"scipy.special": True, "scipy.integrate": False}

    def test_oracle_in_fresh_interpreter(self):
        got = _fresh_interpreter(
            "from levyloewner.stable_calculus import gamma_coeff_alt\n"
            "print(json.dumps([gamma_coeff_alt(1.5, 0.7), 'scipy.integrate' in sys.modules]))")
        assert got[0] == pytest.approx(gamma_coeff(1.5, 0.7), abs=1e-8)
        assert got[1]
