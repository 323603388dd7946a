"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: config/usage problems -> 2, numerical
failures -> 3, statistical failures -> 4.  The two input checks below are
shared by every module that takes counts and real numbers.
"""

import numpy as np


class LevyLoewnerError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(LevyLoewnerError):
    """Malformed configuration, bad parameter domain, or misuse of an API."""

    exit_code = 2


class NumericalError(LevyLoewnerError):
    """A numerical procedure failed to converge or underflowed."""

    exit_code = 3


class StatisticalError(LevyLoewnerError):
    """Not enough Monte Carlo signal to produce the requested estimate."""

    exit_code = 4


def _integral_count(v, name: str) -> int:
    """``int(v)``; a bool, a string or a value that is not a whole number is
    an error, not truncated or parsed."""
    try:
        whole = not isinstance(v, (bool, np.bool_, str, bytes)) and float(v).is_integer()
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real_number(v, name: str) -> float:
    """``float(v)``; a bool, a string or a value that is not a real number is
    an error, not parsed."""
    try:
        if not isinstance(v, (bool, np.bool_, str, bytes, complex, np.complexfloating)):
            return float(v)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be a real number, got {v!r}")
