"""Driving processes: Brownian, symmetric stable, truncated stable,
compound Poisson, and sums of these.

A :class:`DriverSpec` describes the process; sampling it on a time grid
yields an immutable :class:`DriverPath` carrying the grid values and the
values of its continuous (Brownian) part.

Conventions
-----------
* U(0) = 0 and paths are cadlag: ``values[i]`` is the post-jump value at
  ``grid[i]``; between grid points the evolution engine holds the driver
  constant.
* Stable grid increments are drawn exactly from the marginal law via the
  Chambers-Mallows-Stuck inversion, so the driver itself carries no series
  truncation error.
* The truncated stable process keeps jumps of the standard stable process
  with magnitude in (eps, cutoff] as a compound Poisson cloud and replaces
  the sub-eps dust by its Gaussian second-moment approximation, with
  eps = cutoff/100.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, _real_number
from .rng import stream
from .stable_calculus import frac_constant

__all__ = [
    "JumpLaw",
    "Brownian",
    "Stable",
    "TruncatedStable",
    "CompoundPoisson",
    "DriverSpec",
    "DriverPath",
    "standard_stable_sample",
    "sample_brownian",
    "sample_stable",
    "sample_truncated_stable",
    "sample_compound_poisson",
    "sample_driver",
    "compose_drivers",
    "uniform_grid",
    "truncated_stable_variance_rate",
]


# ---------------------------------------------------------------------------
# jump laws for compound Poisson components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpLaw:
    """Named jump-size law. Supported: two_point(size), gaussian(scale),
    uniform(half_width), pareto(tail_index, scale) -- symmetric versions."""

    name: str
    params: dict

    def __post_init__(self):
        samplers = {
            "two_point": ("size",),
            "gaussian": ("scale",),
            "uniform": ("half_width",),
            "pareto": ("tail_index", "scale"),
        }
        if self.name not in samplers:
            raise ConfigError(f"unknown jump law {self.name!r}; known: {sorted(samplers)}")
        missing = [k for k in samplers[self.name] if k not in self.params]
        extra = [k for k in self.params if k not in samplers[self.name]]
        if missing or extra:
            raise ConfigError(
                f"jump law {self.name!r}: missing params {missing}, unknown params {extra}"
            )
        for k, v in self.params.items():
            if not 0 < v < np.inf:
                raise ConfigError(f"jump law parameter {k} must be positive and finite, got {v}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        p = self.params
        if self.name == "two_point":
            return p["size"] * rng.choice([-1.0, 1.0], size=n)
        if self.name == "gaussian":
            return p["scale"] * rng.standard_normal(n)
        if self.name == "uniform":
            return rng.uniform(-p["half_width"], p["half_width"], size=n)
        # symmetric Pareto: |X| = scale * U^(-1/tail_index), random sign
        u = rng.random(n)
        sgn = rng.choice([-1.0, 1.0], size=n)
        return sgn * p["scale"] * u ** (-1.0 / p["tail_index"])


# ---------------------------------------------------------------------------
# component specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Brownian:
    kappa: float

    def __post_init__(self):
        if not 0 <= self.kappa < np.inf:
            raise ConfigError(f"kappa must be nonnegative and finite, got {self.kappa}")


@dataclass(frozen=True)
class Stable:
    alpha: float
    theta: float

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ConfigError(f"alpha must lie in (0,2], got {self.alpha}")
        if not 0 < self.theta < np.inf:
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")


@dataclass(frozen=True)
class TruncatedStable:
    alpha: float
    theta: float
    cutoff: float

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ConfigError(f"truncated stable needs alpha in (0,2), got {self.alpha}")
        if not 0 < self.theta < np.inf:
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")
        if not 0 < self.cutoff < np.inf:
            raise ConfigError(f"jump cutoff must be positive and finite, got {self.cutoff}")


@dataclass(frozen=True)
class CompoundPoisson:
    rate: float
    jump_law: JumpLaw

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise ConfigError(f"rate must be positive and finite, got {self.rate}")


Component = Brownian | Stable | TruncatedStable | CompoundPoisson


@dataclass(frozen=True)
class DriverSpec:
    components: tuple[Component, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ConfigError("DriverSpec needs at least one component")

    @classmethod
    def from_params(cls, kappa: float = 0.0, alpha: float = 1.5, theta: float = 0.0,
                    trunc_cutoff: float = 0.0, cpp_rate: float = 0.0,
                    cpp_size: float = 1.0) -> DriverSpec:
        """sqrt(kappa) B + theta^(1/alpha) S (truncated at trunc_cutoff when
        positive) + a two-point CPP(cpp_rate, +-cpp_size), keeping the parts
        with positive strength; U == 0 (Brownian(0)) when none is.  A
        negative, NaN or infinite strength or cutoff is an error, not a part
        or a truncation dropped, and so is a parameter that is not a real
        number."""
        for name, v in (("alpha", alpha), ("cpp_size", cpp_size)):  # their parts check their ranges
            _real_number(v, name)
        for name, v in (("kappa", kappa), ("theta", theta), ("trunc_cutoff", trunc_cutoff),
                        ("cpp_rate", cpp_rate)):
            if not 0 <= _real_number(v, name) < np.inf:
                raise ConfigError(f"{name} must be nonnegative and finite, got {v}")
        comps: list = []
        if kappa > 0:
            comps.append(Brownian(kappa))
        if theta > 0:
            comps.append(TruncatedStable(alpha, theta, trunc_cutoff) if trunc_cutoff > 0
                         else Stable(alpha, theta))
        if cpp_rate > 0:
            comps.append(CompoundPoisson(cpp_rate, JumpLaw("two_point", {"size": cpp_size})))
        return cls(tuple(comps) or (Brownian(0.0),))

    @property
    def kappa_total(self) -> float:
        return sum(c.kappa for c in self.components if isinstance(c, Brownian))

    @property
    def is_piecewise_constant(self) -> bool:
        return all(isinstance(c, CompoundPoisson)
                   or (isinstance(c, Brownian) and c.kappa == 0)
                   for c in self.components)


def truncated_stable_variance_rate(alpha: float, theta: float, cutoff: float) -> float:
    """Variance per unit time of theta^(1/alpha) * S^cutoff: the second moment
    of the standard stable Levy measure restricted to |x| <= cutoff."""
    return theta ** (2.0 / alpha) * 2.0 * frac_constant(alpha) * cutoff ** (2.0 - alpha) / (2.0 - alpha)


# ---------------------------------------------------------------------------
# sampled realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverPath:
    """One realization of the driver on a time grid.

    ``continuous`` holds the values of the path's continuous (Brownian) part
    on the grid (None, the default, stands for zero); the rest of ``values``
    is the jump part (stable, truncated stable and compound Poisson).
    """

    grid: np.ndarray
    values: np.ndarray
    continuous: np.ndarray | None = None
    is_piecewise_constant: bool = False

    def __post_init__(self):
        grid = np.ascontiguousarray(np.asarray(self.grid, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        cont = (np.zeros(values.shape) if self.continuous is None
                else np.ascontiguousarray(np.asarray(self.continuous, dtype=float)))
        if grid.ndim != 1 or grid.shape != values.shape or not grid.size:
            raise ConfigError("grid and values must be non-empty 1-d arrays of equal length")
        if cont.shape != grid.shape:
            raise ConfigError("the continuous part must have one value per grid point")
        if grid[0] != 0.0 or values[0] != 0.0 or cont[0] != 0.0:
            raise ConfigError("paths start at (t=0, U=0)")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ConfigError("grid must be strictly increasing")
        for arr in (grid, values, cont):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "continuous", cont)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Cadlag step evaluation U(t) for 0 <= t <= horizon."""
        times = np.asarray(times, dtype=float)
        if times.size and (times.min() < 0 or times.max() > self.horizon + 1e-12):
            raise ConfigError("requested times outside the path horizon")
        idx = np.searchsorted(self.grid, times, side="right") - 1
        return self.values[np.clip(idx, 0, self.grid.size - 1)]

    def increments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per grid step, the increment of the continuous part and that of
        the jump part (the total's increment minus the continuous one)."""
        dc = np.diff(self.continuous)
        return dc, np.diff(self.values) - dc

    def negated(self) -> "DriverPath":
        """Path of -U; same law for the symmetric drivers built here."""
        return replace(self, values=-self.values, continuous=-self.continuous)


def uniform_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, horizon] with spacing <= dt and exact endpoint."""
    if not horizon > 0 or not dt > 0:
        raise ConfigError("horizon and dt must be positive")
    n = max(1, int(np.ceil(horizon / dt)))
    return np.linspace(0.0, horizon, n + 1)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or not np.all(np.diff(grid) > 0):
        raise ConfigError("grid must be strictly increasing from 0 with at least one step")
    return grid


def standard_stable_sample(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """Draw S_1 with E exp(i lam S_1) = exp(-|lam|^alpha) (CMS inversion).

    alpha = 2 is the Gaussian edge case Var = 2 (sqrt(2) times a normal);
    alpha = 1 is standard Cauchy (tan V of one uniform u, V = (u - 1/2) pi).
    Every other alpha draws a uniform and then an exponential, in that
    stream order, and maps them by :func:`_stable_map`, with no sine or
    cosine: at 8,192 variates a sample takes about 23 ns per element, SFC64
    draws included, and the map 15 (2-core Xeon, numpy 2.4).
    """
    if not 0 < alpha <= 2:
        raise ConfigError(f"alpha must lie in (0,2], got {alpha}")
    if alpha == 2.0:
        return np.sqrt(2.0) * rng.standard_normal(size)
    if alpha == 1.0:
        return np.tan((rng.random(size) - 0.5) * np.pi)
    u = rng.random(size)
    return _stable_map(alpha, u, rng.standard_exponential(size))


def _stable_map(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Chambers-Mallows-Stuck map of a uniform u and an exponential w to
    a standard stable variate, elementwise, for alpha not in {1, 2}.

    With V = (u - 1/2) pi, the variate

        sin(alpha V) / cos(V)^(1/alpha) * (cos((1 - alpha) V) / w)^((1 - alpha)/alpha)

    is taken from two tangents, one power and one square root:

        sin(alpha V) sqrt(1 + tan^2 V) ((cos(alpha V) + tan V sin(alpha V)) / w)^((1 - alpha)/alpha),

    with sin(alpha V) = 2 tau / (1 + tau^2) and cos(alpha V) = 2 / (1 + tau^2) - 1,
    tau = tan(alpha V / 2).  It is the same law: cos((1 - alpha) V) =
    cos V (cos(alpha V) + tan V sin(alpha V)), and cos(V)^(-1/alpha)
    cos(V)^((1 - alpha)/alpha) = 1 / cos V = sqrt(1 + tan^2 V) on |V| < pi/2.
    Its rounding differs from the three-sine/cosine form by a few ulp; both
    take most of their error from the rounding of V.  numpy's float64 sin
    and cos cost 9-10 ns per element against 2 ns for tan, so on a 2-core
    Xeon (numpy 2.4) the map reads about 18 ns per element at 2,048 lanes
    and 15 ns at 8,192, against 31 and 35 ns for the sine/cosine form.  The
    map holds at most four arrays of the input's size, as that form did.
    """
    v = u - 0.5
    v *= np.pi  # V
    tan_v = np.tan(v)
    v *= 0.5 * alpha
    sin_av = np.tan(v, out=v)  # tau, in V's buffer
    cos_av = sin_av * sin_av
    cos_av += 1.0  # 1 + tau^2
    sin_av *= 2.0
    sin_av /= cos_av  # sin(alpha V)
    np.divide(2.0, cos_av, out=cos_av)
    cos_av -= 1.0  # cos(alpha V)
    base = tan_v * sin_av
    base += cos_av
    base /= w
    np.power(base, (1.0 - alpha) / alpha, out=base)
    tan_v *= tan_v
    tan_v += 1.0
    sin_av *= np.sqrt(tan_v, out=tan_v)  # times 1 / cos V
    sin_av *= base
    return sin_av


def sample_brownian(kappa: float, grid: np.ndarray, rng: np.random.Generator) -> DriverPath:
    """Brownian driver sqrt(kappa) B on the given grid (exact increments)."""
    Brownian(kappa)  # checks kappa
    grid = _check_grid(grid)
    dt = np.diff(grid)
    inc = np.sqrt(kappa * dt) * rng.standard_normal(dt.size) if kappa > 0 else np.zeros(dt.size)
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return DriverPath(grid, values, continuous=values, is_piecewise_constant=kappa == 0)


def sample_stable(alpha: float, theta: float, grid: np.ndarray,
                  rng: np.random.Generator) -> DriverPath:
    """theta^(1/alpha) S on the grid; increments exact from the marginal law."""
    Stable(alpha, theta)  # checks alpha and theta
    grid = _check_grid(grid)
    dt = np.diff(grid)
    inc = (theta * dt) ** (1.0 / alpha) * standard_stable_sample(alpha, rng, dt.size)
    return DriverPath(grid, np.concatenate(([0.0], np.cumsum(inc))))


def sample_truncated_stable(alpha: float, theta: float, cutoff: float, grid: np.ndarray,
                            rng: np.random.Generator) -> DriverPath:
    """theta^(1/alpha) S^c: the stable process with jumps |x| > cutoff removed.

    Jumps of the standard process with |x| in (eps, cutoff], eps = cutoff/100,
    are simulated as a compound Poisson cloud with Levy density
    A(alpha)|x|^{-alpha-1}; the sub-eps dust is replaced by a Gaussian with
    the matching second moment.
    The whole process, dust included, is the path's jump part.
    """
    comp = TruncatedStable(alpha, theta, cutoff)
    grid = _check_grid(grid)
    inc = _truncated_stable_steps(comp, rng, np.diff(grid))[0]
    return DriverPath(grid, np.concatenate(([0.0], np.cumsum(inc))))


def _truncated_stable_steps(comp: TruncatedStable, rng: np.random.Generator, dt: np.ndarray):
    """Increments of ``comp`` over steps of length dt, with the step index and
    size of each simulated cloud jump: (inc, step_of_jump, jumps)."""
    alpha, eps = comp.alpha, comp.cutoff / 100.0
    a_const = frac_constant(alpha)
    scale = comp.theta ** (1.0 / alpha)

    # Gaussian stand-in for jumps below eps
    small_var_rate = 2.0 * a_const * eps ** (2.0 - alpha) / (2.0 - alpha)
    inc = scale * np.sqrt(small_var_rate * dt) * rng.standard_normal(dt.size)

    # compound Poisson cloud on (eps, cutoff]
    lam = 2.0 * a_const * (eps ** -alpha - comp.cutoff ** -alpha) / alpha
    counts = rng.poisson(lam * dt)
    total = int(counts.sum())
    step_of_jump = np.repeat(np.arange(dt.size), counts)
    jumps = np.empty(0)
    if total:
        u = rng.random(total)
        mags = (eps ** -alpha - u * (eps ** -alpha - comp.cutoff ** -alpha)) ** (-1.0 / alpha)
        signs = rng.choice([-1.0, 1.0], size=total)
        jumps = scale * signs * mags
        inc = inc + np.bincount(step_of_jump, weights=jumps, minlength=dt.size)
    return inc, step_of_jump, jumps


def sample_compound_poisson(rate: float, jump_law: JumpLaw, horizon: float,
                            rng: np.random.Generator) -> DriverPath:
    """Exact event-driven compound Poisson path: Poisson(rate*horizon) jumps at
    uniform times, each entered into the grid."""
    CompoundPoisson(rate, jump_law)  # checks the rate
    if not horizon > 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    n = int(rng.poisson(rate * horizon))
    times = np.sort(rng.uniform(0.0, horizon, size=n))
    sizes = jump_law.sample(rng, n)
    keep = (times > 0) & (times < horizon)
    times, sizes = times[keep], sizes[keep]
    grid = np.concatenate(([0.0], times, [horizon]))
    # guard against duplicate event times (probability zero, float paranoia)
    uniq, inv = np.unique(grid, return_inverse=True)
    if uniq.size != grid.size:
        agg = np.zeros(uniq.size)
        np.add.at(agg, inv[1:-1] if times.size else [], sizes)
        grid = uniq
        times = uniq[1:-1]
        sizes = agg[1:-1]
    values = np.concatenate(([0.0], np.cumsum(sizes)))
    values = np.concatenate((values, [values[-1]]))  # flat to the horizon
    return DriverPath(grid, values, is_piecewise_constant=True)


def compose_drivers(paths: list[DriverPath]) -> DriverPath:
    """Sum independent paths on a common horizon: refined grid, summed values
    and summed continuous parts."""
    if not paths:
        raise ConfigError("compose_drivers needs at least one path")
    horizons = {round(p.horizon, 12) for p in paths}
    if len(horizons) != 1:
        raise ConfigError(f"mismatched horizons: {sorted(horizons)}")
    if len(paths) == 1:
        return paths[0]
    grid = paths[0].grid
    for p in paths[1:]:
        grid = np.union1d(grid, p.grid)
    values = np.zeros(grid.size)
    cont = np.zeros(grid.size)
    for p in paths:
        # cadlag step evaluation, as in values_at: every grid point lies in
        # [0, p.horizon]
        idx = np.searchsorted(p.grid, grid, side="right") - 1
        values += p.values[idx]
        cont += p.continuous[idx]
    return DriverPath(grid, values, cont,
                      is_piecewise_constant=all(p.is_piecewise_constant for p in paths))


def sample_driver(spec: DriverSpec, horizon: float, master_seed: int, replica: int = 0,
                  dt: float = 1e-3) -> DriverPath:
    """Sample every component of ``spec`` on a shared uniform grid (compound
    Poisson components keep their exact event times) and compose.

    Component j of replica k draws from the stream (seed, "driver", k, j), so
    replicas and components are independent and the execution order of a
    parallel sweep can never change the result.
    """
    grid = uniform_grid(horizon, dt)
    parts = []
    for j, comp in enumerate(spec.components):
        rng = stream(master_seed, "driver", replica, j)
        if isinstance(comp, Brownian):
            parts.append(sample_brownian(comp.kappa, grid, rng))
        elif isinstance(comp, Stable):
            parts.append(sample_stable(comp.alpha, comp.theta, grid, rng))
        elif isinstance(comp, TruncatedStable):
            parts.append(sample_truncated_stable(comp.alpha, comp.theta, comp.cutoff, grid, rng))
        elif isinstance(comp, CompoundPoisson):
            parts.append(sample_compound_poisson(comp.rate, comp.jump_law, horizon, rng))
        else:  # pragma: no cover
            raise ConfigError(f"unknown component {comp!r}")
    return compose_drivers(parts)
