"""Driving processes: Brownian, symmetric stable, truncated stable,
compound Poisson, and sums of these.

A :class:`DriverSpec` describes the process; sampling it on a time grid
yields an immutable :class:`DriverPath` carrying the grid values, an explicit
ledger of large jumps (used by the evolution engine for swallow detection),
and the identifier of the RNG stream that produced it.

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
  the sub-eps dust by its Gaussian second-moment approximation
  (eps = cutoff/100 by default).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .rng import seed_tag, stream
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
            if not v > 0:
                raise ConfigError(f"jump law parameter {k} must be positive, got {v}")

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
    small_jump_eps: float | None = None  # default cutoff/100

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ConfigError(f"truncated stable needs alpha in (0,2), got {self.alpha}")
        if not 0 < self.theta < np.inf:
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")
        if not self.cutoff > 0:
            raise ConfigError(f"jump cutoff must be positive, got {self.cutoff}")
        if self.small_jump_eps is not None and not 0 < self.small_jump_eps < self.cutoff:
            raise ConfigError("small_jump_eps must lie in (0, cutoff)")

    @property
    def eps(self) -> float:
        return self.small_jump_eps if self.small_jump_eps is not None else self.cutoff / 100.0


@dataclass(frozen=True)
class CompoundPoisson:
    rate: float
    jump_law: JumpLaw
    declared_class: str = "unspecified"  # user metadata, never inferred

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise ConfigError(f"rate must be positive and finite, got {self.rate}")
        if self.declared_class not in ("recurrent", "transient", "unspecified"):
            raise ConfigError(
                f"declared_class must be recurrent/transient/unspecified, got {self.declared_class!r}"
            )


Component = Brownian | Stable | TruncatedStable | CompoundPoisson


@dataclass(frozen=True)
class DriverSpec:
    components: tuple[Component, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ConfigError("DriverSpec needs at least one component")

    @classmethod
    def from_params(cls, kappa: float = 0.0, alpha: float = 1.5, theta: float = 0.0,
                    trunc_cutoff: float = 0.0, cpp_rate: float = 0.0, cpp_size: float = 1.0,
                    cpp_class: str = "unspecified") -> DriverSpec:
        """sqrt(kappa) B + theta^(1/alpha) S (truncated at trunc_cutoff when
        positive) + a two-point CPP(cpp_rate, +-cpp_size), keeping the parts
        with positive strength; U == 0 (Brownian(0)) when none is.  A NaN or
        infinite strength is an error, not a part dropped."""
        for name, v in (("kappa", kappa), ("theta", theta), ("cpp_rate", cpp_rate)):
            if not -np.inf < v < np.inf:
                raise ConfigError(f"{name} must be finite, got {v}")
        comps: list = []
        if kappa > 0:
            comps.append(Brownian(kappa))
        if theta > 0:
            comps.append(TruncatedStable(alpha, theta, trunc_cutoff) if trunc_cutoff > 0
                         else Stable(alpha, theta))
        if cpp_rate > 0:
            comps.append(CompoundPoisson(cpp_rate, JumpLaw("two_point", {"size": cpp_size}),
                                         cpp_class))
        return cls(tuple(comps) or (Brownian(0.0),))

    @property
    def kappa_total(self) -> float:
        return sum(c.kappa for c in self.components if isinstance(c, Brownian))

    @property
    def has_brownian(self) -> bool:
        """True Brownian content; governs continuous-crossing hit semantics."""
        return self.kappa_total > 0

    @property
    def is_piecewise_constant(self) -> bool:
        return all(isinstance(c, CompoundPoisson)
                   or (isinstance(c, Brownian) and c.kappa == 0)
                   for c in self.components)

    def step_variance_proxy(self, dt: float) -> float:
        """Scale^2 proxy of one grid increment; the jump-ledger threshold is
        10 times its square root at the coarsest step."""
        proxy = 0.0
        for c in self.components:
            if isinstance(c, Brownian):
                proxy += c.kappa * dt
            elif isinstance(c, Stable):
                proxy += (c.theta * dt) ** (2.0 / c.alpha)
            elif isinstance(c, TruncatedStable):
                proxy += truncated_stable_variance_rate(c.alpha, c.theta, c.cutoff) * dt
            elif isinstance(c, CompoundPoisson):
                law = c.jump_law
                if law.name == "two_point":
                    m2 = law.params["size"] ** 2
                elif law.name == "gaussian":
                    m2 = law.params["scale"] ** 2
                elif law.name == "uniform":
                    m2 = law.params["half_width"] ** 2 / 3.0
                else:  # pareto second moment may diverge; use its scale
                    m2 = law.params["scale"] ** 2
                proxy += c.rate * dt * m2
        return proxy


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

    ``jump_times``/``jump_sizes`` list the explicitly simulated jumps with
    magnitude above the ledger threshold; each ledger time coincides with a
    grid point (jumps inside a step are attributed to its right endpoint).
    """

    grid: np.ndarray
    values: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    seed_tag: str
    has_brownian: bool = False
    is_piecewise_constant: bool = False

    def __post_init__(self):
        grid = np.ascontiguousarray(np.asarray(self.grid, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        jt = np.asarray(self.jump_times, dtype=float)
        js = np.asarray(self.jump_sizes, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or not grid.size:
            raise ConfigError("grid and values must be non-empty 1-d arrays of equal length")
        if grid[0] != 0.0 or values[0] != 0.0:
            raise ConfigError("paths start at (t=0, U=0)")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ConfigError("grid must be strictly increasing")
        if jt.shape != js.shape:
            raise ConfigError("jump_times and jump_sizes must have equal length")
        if jt.size:
            if jt.min() < 0 or jt.max() > grid[-1]:
                raise ConfigError("ledger jumps must lie inside [0, horizon]")
            idx = np.searchsorted(grid, jt)
            on_grid = (idx < grid.size) & (grid[np.minimum(idx, grid.size - 1)] == jt)
            if not np.all(on_grid):
                raise ConfigError("every ledger jump time must coincide with a grid point")
        for arr in (grid, values, jt, js):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_sizes", js)

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

    def jump_step_mask(self) -> np.ndarray:
        """Boolean mask over grid steps; True where step i ends in a ledger jump."""
        mask = np.zeros(self.grid.size - 1, dtype=bool)
        if self.jump_times.size:
            idx = np.searchsorted(self.grid, self.jump_times) - 1
            mask[np.clip(idx, 0, mask.size - 1)] = True
        return mask

    def negated(self) -> "DriverPath":
        """Path of -U; same law for the symmetric drivers built here."""
        return replace(
            self,
            values=-np.asarray(self.values),
            jump_sizes=-np.asarray(self.jump_sizes),
        )


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


def _ledger_threshold(step_proxy: float) -> float:
    # 10 sigma of the coarsest step: small increments need no identity,
    # swallowing-by-jump detection only needs the big ones.
    return 10.0 * np.sqrt(max(step_proxy, 0.0))


def standard_stable_sample(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """Draw S_1 with E exp(i lam S_1) = exp(-|lam|^alpha) (CMS inversion).

    alpha = 2 is the Gaussian edge case Var = 2; alpha = 1 is standard Cauchy.
    The sample is :func:`_stable_map` of the raw draws :func:`_stable_draws`,
    taken in order from ``rng``; the map is elementwise, so raw draws of
    several streams may be concatenated and mapped at once.
    """
    if not 0 < alpha <= 2:
        raise ConfigError(f"alpha must lie in (0,2], got {alpha}")
    return _stable_map(alpha, *(draw(rng, size) for draw in _stable_draws(alpha)))


def _stable_draws(alpha: float) -> tuple:
    """The generator draws of a standard stable sample, in stream order, each
    called as ``draw(rng, size)``: a normal at alpha = 2, a uniform at
    alpha = 1, else a uniform and then an exponential."""
    if alpha == 2.0:
        return (np.random.Generator.standard_normal,)
    if alpha == 1.0:
        return (np.random.Generator.random,)
    return (np.random.Generator.random, np.random.Generator.standard_exponential)


def _stable_map(alpha: float, *raw: np.ndarray) -> np.ndarray:
    """The Chambers-Mallows-Stuck map of the raw draws of :func:`_stable_draws`
    to standard stable variates, elementwise."""
    if alpha == 2.0:
        return np.sqrt(2.0) * raw[0]
    v = (raw[0] - 0.5) * np.pi
    if alpha == 1.0:
        return np.tan(v)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v) / raw[1]) ** ((1.0 - alpha) / alpha)
    )


def sample_brownian(kappa: float, grid: np.ndarray, rng: np.random.Generator,
                    tag: str = "brownian") -> DriverPath:
    """Brownian driver sqrt(kappa) B on the given grid (exact increments)."""
    if kappa < 0:
        raise ConfigError(f"kappa must be nonnegative, got {kappa}")
    grid = _check_grid(grid)
    dt = np.diff(grid)
    inc = np.sqrt(kappa * dt) * rng.standard_normal(dt.size) if kappa > 0 else np.zeros(dt.size)
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return DriverPath(grid, values, np.empty(0), np.empty(0), tag,
                      has_brownian=kappa > 0, is_piecewise_constant=kappa == 0)


def sample_stable(alpha: float, theta: float, grid: np.ndarray, rng: np.random.Generator,
                  ledger_threshold: float | None = None, tag: str = "stable") -> DriverPath:
    """theta^(1/alpha) S on the grid; increments exact from the marginal law.

    Grid increments exceeding the ledger threshold in magnitude are recorded
    as jumps at the step's right endpoint.
    """
    if not 0 < alpha <= 2:
        raise ConfigError(f"alpha must lie in (0,2], got {alpha}")
    if not theta > 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    grid = _check_grid(grid)
    dt = np.diff(grid)
    inc = (theta * dt) ** (1.0 / alpha) * standard_stable_sample(alpha, rng, dt.size)
    values = np.concatenate(([0.0], np.cumsum(inc)))
    if ledger_threshold is None:
        ledger_threshold = _ledger_threshold((theta * dt.max()) ** (2.0 / alpha))
    big = np.abs(inc) > ledger_threshold
    return DriverPath(grid, values, grid[1:][big], inc[big], tag)


def sample_truncated_stable(alpha: float, theta: float, cutoff: float, grid: np.ndarray,
                            rng: np.random.Generator, small_jump_eps: float | None = None,
                            ledger_threshold: float | None = None,
                            tag: str = "truncated_stable") -> DriverPath:
    """theta^(1/alpha) S^c: the stable process with jumps |x| > cutoff removed.

    Jumps of the standard process with |x| in (eps, cutoff] are simulated as a
    compound Poisson cloud with Levy density A(alpha)|x|^{-alpha-1}; the
    sub-eps dust is replaced by a Gaussian with the matching second moment.
    """
    comp = TruncatedStable(alpha, theta, cutoff, small_jump_eps)
    grid = _check_grid(grid)
    dt = np.diff(grid)
    inc, step_of_jump, jumps = _truncated_stable_steps(comp, rng, dt)
    values = np.concatenate(([0.0], np.cumsum(inc)))

    if ledger_threshold is None:
        ledger_threshold = _ledger_threshold(
            truncated_stable_variance_rate(alpha, theta, cutoff) * dt.max())
    # step_of_jump ascends, so the ledger is in time order
    big = np.abs(jumps) > ledger_threshold
    return DriverPath(grid, values, grid[1:][step_of_jump[big]], jumps[big], tag)


def _truncated_stable_steps(comp: TruncatedStable, rng: np.random.Generator, dt: np.ndarray):
    """Increments of ``comp`` over steps of length dt, with the step index and
    size of each simulated cloud jump: (inc, step_of_jump, jumps)."""
    alpha, eps = comp.alpha, comp.eps
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
                            rng: np.random.Generator, tag: str = "cpp") -> DriverPath:
    """Exact event-driven compound Poisson path: Poisson(rate*horizon) jumps at
    uniform times, all entered into the grid and the jump ledger."""
    if not rate > 0:
        raise ConfigError(f"rate must be positive, got {rate}")
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
    return DriverPath(grid, values, times, sizes, tag, is_piecewise_constant=True)


def compose_drivers(paths: list[DriverPath]) -> DriverPath:
    """Sum independent paths on a common horizon: refined grid, summed values,
    merged jump ledgers."""
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
    for p in paths:
        values += p.values_at(grid)
    jt = np.concatenate([p.jump_times for p in paths])
    js = np.concatenate([p.jump_sizes for p in paths])
    order = np.argsort(jt, kind="stable")
    return DriverPath(
        grid, values, jt[order], js[order],
        seed_tag="+".join(p.seed_tag for p in paths),
        has_brownian=any(p.has_brownian for p in paths),
        is_piecewise_constant=all(p.is_piecewise_constant for p in paths),
    )


def sample_driver(spec: DriverSpec, horizon: float, master_seed: int, replica: int = 0,
                  dt: float = 1e-3, ledger_threshold: float | None = None) -> DriverPath:
    """Sample every component of ``spec`` on a shared uniform grid (compound
    Poisson components keep their exact event times) and compose.

    Component j of replica k draws from the stream (seed, "driver", k, j), so
    replicas and components are independent and the execution order of a
    parallel sweep can never change the result.
    """
    grid = uniform_grid(horizon, dt)
    if ledger_threshold is None:
        ledger_threshold = _ledger_threshold(spec.step_variance_proxy(float(np.diff(grid).max())))
    parts = []
    for j, comp in enumerate(spec.components):
        rng = stream(master_seed, "driver", replica, j)
        tag = seed_tag(master_seed, "driver", replica, j)
        if isinstance(comp, Brownian):
            parts.append(sample_brownian(comp.kappa, grid, rng, tag))
        elif isinstance(comp, Stable):
            parts.append(sample_stable(comp.alpha, comp.theta, grid, rng, ledger_threshold, tag))
        elif isinstance(comp, TruncatedStable):
            parts.append(sample_truncated_stable(comp.alpha, comp.theta, comp.cutoff, grid, rng,
                                                 comp.small_jump_eps, ledger_threshold, tag))
        elif isinstance(comp, CompoundPoisson):
            parts.append(sample_compound_poisson(comp.rate, comp.jump_law, horizon, rng, tag))
        else:  # pragma: no cover
            raise ConfigError(f"unknown component {comp!r}")
    return compose_drivers(parts)
