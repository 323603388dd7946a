"""Closed forms and path rescaling for the beta-evolution
dh = 2|h|^(2-beta)/h dt - dU, 1 < beta <= 2.

At beta = 2 this is the chordal Loewner flow; for beta < 2 the drift makes
the growing family self-similar of index beta instead of 2, so a stable
driver with matching index alpha = beta produces an evolution whose law is
invariant under z -> a^(1/alpha) z, t -> a t.  The evolution itself is
:func:`levyloewner.loewner.evolve_point` with ``EvolutionConfig(beta=...)``;
this module holds the null-driver oracle and the rescaled driver path.
"""

from __future__ import annotations

from .drivers import DriverPath
from .errors import ConfigError

__all__ = [
    "closed_form_null_driver",
    "scaled_path",
]


def closed_form_null_driver(x: float, beta: float, t: float) -> float:
    """Drift-only solution on the positive real axis: (x^beta + 2 beta t)^(1/beta).

    Oracle for the integrator with U identically zero; beta = 2 recovers
    sqrt(x^2 + 4t).
    """
    if not x > 0:
        raise ConfigError("x must be positive")
    if not 1.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (1,2], got {beta}")
    return (x ** beta + 2.0 * beta * t) ** (1.0 / beta)


def scaled_path(path: DriverPath, a: float, alpha: float) -> DriverPath:
    """The rescaled driver t -> a^(-1/alpha) U(a t) on the shrunk grid.

    For an alpha-stable driver this has the same law as U itself, which is
    what makes the index-alpha evolution self-similar.  Values, and those of
    the continuous part, scale by a^(-1/alpha), times by 1/a.
    """
    if not a > 0:
        raise ConfigError("a must be positive")
    if not 0 < alpha <= 2:
        raise ConfigError(f"alpha must lie in (0,2], got {alpha}")
    scale = a ** (-1.0 / alpha)
    return DriverPath(path.grid / a, path.values * scale, path.continuous * scale,
                      is_piecewise_constant=path.is_piecewise_constant)
