"""The null-driver closed form of the beta-evolution
dh = 2|h|^(2-beta)/h dt - dU, 1 < beta <= 2.

At beta = 2 this is the chordal Loewner flow; for beta < 2 the drift makes
the growing family self-similar of index beta instead of 2, so a stable
driver with matching index alpha = beta produces an evolution whose law is
invariant under z -> a^(1/alpha) z, t -> a t.  The evolution itself is
:func:`levyloewner.loewner.evolve_point` with ``EvolutionConfig(beta=...)``;
this module holds the null-driver oracle it is checked against.
"""

from __future__ import annotations

from .errors import ConfigError

__all__ = ["closed_form_null_driver"]


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
