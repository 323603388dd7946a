"""Closed-form constants and singular-integral coefficients for the
symmetric alpha-stable generator acting on power functions.

The generator of the standard symmetric alpha-stable process acts on
``w_p(x) = |x|^{p-1}`` (``w_1(x) = ln|x|``) as

    (generator w_p)(x) = A(alpha) * gamma(alpha, p) * |x|^{p-alpha-1},

valid for 0 < p < alpha + 1.  ``A(alpha)`` is a ratio of Gamma functions and
``gamma(alpha, p)`` a one-dimensional integral with integrable endpoint
singularities.  The sign of ``gamma`` classifies ``w_p`` as sub-/super-/
harmonic, and the critical driving strength of the alpha-Loewner evolution is

    theta0(alpha) = 2 / (A(alpha) * |gamma(alpha, 1)|),  1 < alpha < 2.

The generator is minus the fractional Laplacian, whose action on |x|^b
follows from the Fourier transform of the Riesz potentials (Kwasnicki,
"Ten equivalent definitions of the fractional Laplacian", Fract. Calc.
Appl. Anal. 20, 2017):

    A gamma(alpha, p) = -2^alpha G(p/2) G((alpha-p+1)/2) / (G((1-p)/2) G((p-alpha)/2))
    A gamma(alpha, 1) = 2^(alpha-1) sqrt(pi) G(alpha/2) / G((1-alpha)/2)

with G the Gamma function.  :func:`gamma_coeff`, :func:`phi` and
:func:`theta0` evaluate these closed forms; :func:`gamma_coeff_alt`
integrates an independent representation of the integral by adaptive
quadrature and is the oracle they are checked against.

Importing this module loads numpy only: ``scipy.special`` loads on the first
Gamma-function evaluation (coefficients, theta0, truncated-stable drivers)
and ``scipy.integrate`` only for the :func:`gamma_coeff_alt` oracle.
"""

from __future__ import annotations

import enum
import functools
import warnings

import numpy as np

from .errors import ConfigError, NumericalError

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "HarmonicClass",
    "frac_constant",
    "gamma_coeff",
    "gamma_coeff_alt",
    "frac_laplacian_power",
    "classify_power",
    "phi",
    "theta0",
]


class HarmonicClass(enum.Enum):
    SUBHARMONIC = "subharmonic"
    HARMONIC = "harmonic"
    SUPERHARMONIC = "superharmonic"


@functools.cache
def _special():
    """scipy.special's (gamma, rgamma), imported once, on first use."""
    from scipy.special import gamma, rgamma

    return gamma, rgamma


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 2:
        raise ConfigError(f"alpha must lie in (0,2), got {alpha}")


def _check_p(alpha: float, p: float) -> None:
    if not 0 < p < alpha + 1:
        raise ConfigError(f"p must lie in (0, alpha+1)=(0,{alpha + 1}), got {p}")


def frac_constant(alpha: float) -> float:
    """Normalizing constant of the stable generator's singular kernel.

    A(alpha) = alpha * 2^(alpha-1) * pi^(-1/2) * Gamma((1+alpha)/2) / Gamma(1-alpha/2)

    Positive on (0,2); the Gamma pole at alpha=2 bounds the domain.
    """
    _check_alpha(alpha)
    gamma_fn, _ = _special()
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        / np.sqrt(np.pi)
        * gamma_fn((1.0 + alpha) / 2.0)
        / gamma_fn(1.0 - alpha / 2.0)
    )


def _endpoint_quads(pieces, what: str) -> float:
    """Sum adaptive quadratures of stretched endpoint pieces, each given as
    (fn, hi); raise with diagnostics when the estimated error exceeds the
    budget DEFAULT_TOL * max(1, |value|)."""
    from scipy import integrate

    total = 0.0
    err_total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for fn, hi in pieces:
            val, err = integrate.quad(fn, 0.0, hi, epsabs=DEFAULT_TOL / (2 * len(pieces)),
                                      epsrel=1e-13, limit=400)
            total += val
            err_total += err
    budget = DEFAULT_TOL * max(1.0, abs(total))
    if not np.isfinite(total) or err_total > budget:
        raise NumericalError(
            f"quadrature for {what} did not converge: value={total}, abserr={err_total}, requested {budget}"
        )
    return total


def _a_gamma(alpha: float, p: float) -> float:
    """A(alpha) * gamma(alpha, p) in closed form (module docstring).

    rgamma vanishes exactly at the pole of Gamma, so p = alpha gives an exact
    zero; adding 0.0 turns a -0.0 into +0.0.
    """
    _check_alpha(alpha)
    _check_p(alpha, p)
    gamma_fn, rgamma = _special()
    if p == 1.0:
        return (2.0 ** (alpha - 1.0) * np.sqrt(np.pi) * gamma_fn(alpha / 2.0)
                * rgamma((1.0 - alpha) / 2.0))
    return -(2.0 ** alpha * gamma_fn(p / 2.0) * gamma_fn((alpha - p + 1.0) / 2.0)
             * rgamma((1.0 - p) / 2.0) * rgamma((p - alpha) / 2.0)) + 0.0


def gamma_coeff(alpha: float, p: float) -> float:
    """The coefficient integral gamma(alpha, p), in closed form.

    For p != 1:

        gamma(alpha,p) = (p-1)/alpha * int_0^inf v^(p-2) (|v-1|^(alpha-p) - (v+1)^(alpha-p)) dv

    and for p = 1 the same with v^(-1) in place of (p-1) v^(p-2).  Evaluated
    as the Gamma-function ratio of the module docstring divided by A(alpha);
    exactly 0 at p = alpha.
    """
    return _a_gamma(alpha, p) / frac_constant(alpha)


def gamma_coeff_alt(alpha: float, p: float) -> float:
    """Coefficient integral, alternative representation on (0,1).

    For p != 1:

        gamma(alpha,p) = int_0^1 (u^(p-1)-1)(1-u^(alpha-p)) [(1-u)^(-1-alpha) + (1+u)^(-1-alpha)] du

    and for p = 1 the first two factors are replaced by (1-u^(alpha-1)) ln u.
    Near u = 1 the doubly-vanishing product is evaluated through expm1
    against the (1-u)^(-1-alpha) blow-up; near u = 0 the product is expanded
    into explicit powers of u.  The estimated quadrature error must stay
    within DEFAULT_TOL * max(1, |gamma|): relative to the value once
    |gamma| > 1, since gamma grows like 1/(alpha+1-p) as p -> alpha+1.
    """
    _check_alpha(alpha)
    _check_p(alpha, p)
    r = min(2.0 - alpha, 1.0)
    hi_r = 0.5 ** r

    if p == 1.0:
        m = min(alpha, 1.0)

        def left(w):
            v = w ** (1.0 / m)
            lnv = np.log(w) / m
            k = (1.0 - v) ** (-1.0 - alpha) + (1.0 + v) ** (-1.0 - alpha)
            return lnv * k / m * (w ** (1.0 / m - 1.0) - w ** (alpha / m - 1.0))

        def right(w):
            s = w ** (1.0 / r)
            lnu = np.log1p(-s)
            p_over_s2 = (-np.expm1((alpha - 1.0) * lnu) / s) * (lnu / s)
            tail = (2.0 - s) ** (-1.0 - alpha)
            return (p_over_s2 * w ** ((2.0 - alpha) / r - 1.0)
                    + (-np.expm1((alpha - 1.0) * lnu)) * lnu * tail * w ** (1.0 / r - 1.0)) / r

        return _endpoint_quads([(left, 0.5 ** m), (right, hi_r)], f"gamma_alt({alpha},1)")

    m = min(p, alpha, 1.0, 1.0 + alpha - p)

    def left(w):
        v = w ** (1.0 / m)
        k = (1.0 - v) ** (-1.0 - alpha) + (1.0 + v) ** (-1.0 - alpha)
        # (u^(p-1) - 1)(1 - u^(alpha-p)) expanded into powers of u = w^(1/m)
        powers = (w ** (p / m - 1.0) - w ** (alpha / m - 1.0)
                  - w ** (1.0 / m - 1.0) + w ** ((1.0 + alpha - p) / m - 1.0))
        return k * powers / m

    def right(w):
        s = w ** (1.0 / r)
        lnu = np.log1p(-s)
        f1 = np.expm1((p - 1.0) * lnu)
        f2 = -np.expm1((alpha - p) * lnu)
        tail = (2.0 - s) ** (-1.0 - alpha)
        return ((f1 / s) * (f2 / s) * w ** ((2.0 - alpha) / r - 1.0)
                + f1 * f2 * tail * w ** (1.0 / r - 1.0)) / r

    return _endpoint_quads([(left, 0.5 ** m), (right, hi_r)], f"gamma_alt({alpha},{p})")


def frac_laplacian_power(alpha: float, p: float, x: float) -> float:
    """Generator of the standard stable process applied to w_p at x != 0."""
    if x == 0:
        raise ConfigError("x must be nonzero; w_p is singular at the origin")
    return _a_gamma(alpha, p) * abs(x) ** (p - alpha - 1.0)


def classify_power(alpha: float, p: float) -> HarmonicClass:
    """Sign classification of w_p; harmonic exactly when gamma is 0 (p = alpha)."""
    g = gamma_coeff(alpha, p)
    if g == 0.0:
        return HarmonicClass.HARMONIC
    return HarmonicClass.SUBHARMONIC if g > 0 else HarmonicClass.SUPERHARMONIC


def phi(alpha: float, p: float) -> float:
    """Critical-strength curve phi(p) = 2(1-p) / (A(alpha) gamma(alpha,p)).

    Defined for 1 < alpha < 2 and p in (0, alpha); strictly increasing with
    phi(1) = theta0(alpha).  With (1-p) G((1-p)/2) = 2 G((3-p)/2) the zeros of
    numerator and denominator at p = 1 cancel:

        phi(p) = -4 G((3-p)/2) G((p-alpha)/2) / (2^alpha G(p/2) G((alpha-p+1)/2)),

    which is continuous through p = 1.
    """
    if not 1 < alpha < 2:
        raise ConfigError(f"phi requires alpha in (1,2), got {alpha}")
    if not 0 < p < alpha:
        if p == alpha:
            raise ConfigError("phi is undefined at p = alpha (gamma vanishes)")
        raise ConfigError(f"phi requires p in (0, alpha)=(0,{alpha}), got {p}")
    gamma_fn, _ = _special()
    return (-4.0 * gamma_fn((3.0 - p) / 2.0) * gamma_fn((p - alpha) / 2.0)
            / (2.0 ** alpha * gamma_fn(p / 2.0) * gamma_fn((alpha - p + 1.0) / 2.0)))


def theta0(alpha: float) -> float:
    """Critical driving strength 2 / (A(alpha) |gamma(alpha,1)|), 1 < alpha < 2:

        theta0(alpha) = 2^(2-alpha) |G((1-alpha)/2)| / (sqrt(pi) G(alpha/2)).
    """
    if not 1 < alpha < 2:
        raise ConfigError(f"theta0 requires alpha in (1,2), got {alpha}")
    gamma_fn, _ = _special()
    return (2.0 ** (2.0 - alpha) * abs(gamma_fn((1.0 - alpha) / 2.0))
            / (np.sqrt(np.pi) * gamma_fn(alpha / 2.0)))
