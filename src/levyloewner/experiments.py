"""Monte Carlo estimators for the hitting-probability phases, exponents,
overshoot bounds, area fractions, scaling identities, disconnection frequency
and the empirical critical-strength bracket.

Almost-sure statements are estimated through P(zeta <= T); every phase
estimate therefore carries a horizon flag comparing the paired T and 2T
fractions, and the 0.05/0.95 thresholds used by the acceptance suite are
conventions of this artifact at the documented (n, T), not claims of the
underlying theory.

Determinism: every estimator takes a master seed and derives one stream per
(operation, cell, block) or per replica.  The Monte Carlo estimators and the
annulus-exit loop of :func:`overshoot_histogram` advance all blocks of
:data:`~levyloewner.engine.BLOCK` replicas in lockstep on the live replicas
only, and the cells of one experiment (the theta grid of
:func:`theta0_bracket`, the cells of :func:`phase_scan`, the start points of
the slope fits and of :func:`composite_driver_phase`) share that loop; each
block takes its live replicas' variates from pools of finished variates
(stable ones included) that it refills from its own (cell tag, block)
stream, :data:`~levyloewner.engine.POOL` variates of each kind per
generator call, so a replica's result never depends on the other blocks or
cells.  Blocks hold 2048 replicas, so that each cell at the default n of
2000 is one block (the annulus-exit loop's 10,000 replicas take five); the
first block's replicas do not depend on n.
Every estimator runs on the calling thread: :func:`area_fraction` and
:func:`disconnection_frequency` loop over their replicas' rasters, and no
estimator takes a worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .drivers import (
    Brownian,
    CompoundPoisson,
    DriverSpec,
    JumpLaw,
    TruncatedStable,
    sample_driver,
)
from .engine import (BLOCK, Cell, _axis_drift, _compile_increments, _draw_plan, _integral_count,
                     _live_draws, _loop_key, _Pool, default_hit_tolerance, run_adaptive_cells)
from .errors import ConfigError, StatisticalError
from .loewner import EvolutionConfig, connected_components, raster_cluster
from .rng import stream
from .stable_calculus import theta0

__all__ = [
    "PhaseParams",
    "PhaseEstimate",
    "ExponentFit",
    "OvershootReport",
    "ScalingCheckResult",
    "AreaFractionResult",
    "DisconnectionResult",
    "Theta0BracketResult",
    "wilson_ci",
    "ks_two_sample",
    "hitting_probability",
    "phase_scan",
    "slope_near_zero",
    "slope_near_infinity",
    "overshoot_histogram",
    "area_fraction",
    "scaling_check",
    "disconnection_frequency",
    "theta0_bracket",
    "composite_driver_phase",
]


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

_Z95 = 1.959963984540054


def wilson_ci(hits: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # the endpoints are exact at 0 and n hits; the formula rounds around them
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def ks_two_sample(a: np.ndarray, b: np.ndarray, level: float = 0.01):
    """Two-sample Kolmogorov-Smirnov distance against the asymptotic critical
    value at the given level; returns (distance, critical, passed)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise StatisticalError("KS test needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / n
    fb = np.searchsorted(b, pooled, side="right") / m
    dist = float(np.max(np.abs(fa - fb)))
    c_level = float(np.sqrt(-np.log(level / 2.0) / 2.0))
    crit = float(c_level * np.sqrt((n + m) / (n * m)))
    return dist, crit, bool(dist < crit)


def _se(p: float, n: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / n))


# ---------------------------------------------------------------------------
# phase estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseParams:
    """Parameter point of the phase diagram: driver (kappa, alpha, theta),
    evolution exponent beta (2 = Loewner), and the tracked point z."""

    z: complex
    kappa: float = 0.0
    alpha: float = 1.5
    theta: float = 0.0
    beta: float = 2.0

    def driver_spec(self) -> DriverSpec:
        return DriverSpec.from_params(self.kappa, self.alpha, self.theta)


@dataclass(frozen=True)
class PhaseEstimate:
    params: PhaseParams
    n: int
    horizon: float
    seed: int
    hit_fraction: float
    wilson: tuple[float, float]
    hit_fraction_2t: float
    horizon_flag: str  # "stable" | "drifting"
    declared_class: str = "n/a"

    def row(self) -> dict:
        p = self.params
        return {
            "kappa": p.kappa, "alpha": p.alpha, "theta": p.theta, "beta": p.beta,
            "re_z": complex(p.z).real, "im_z": complex(p.z).imag,
            "n": self.n, "T": self.horizon,
            "hit_frac": self.hit_fraction, "ci_lo": self.wilson[0], "ci_hi": self.wilson[1],
            "horizon_flag": self.horizon_flag,
        }


def _flag(frac_t: float, frac_2t: float, n: int) -> str:
    combined = np.sqrt(_se(frac_t, n) ** 2 + _se(frac_2t, n) ** 2)
    return "drifting" if (frac_2t - frac_t) > 2.0 * combined else "stable"


def hitting_probability(params: PhaseParams, n: int, horizon: float, seed: int,
                        hit_tolerance: float | None = None,
                        tag=("hitprob",)) -> PhaseEstimate:
    """Estimate P(zeta(z) <= T) from n independent driver paths.

    Censoring at the horizon is reported, never treated as survival-forever:
    the estimate is of P(zeta <= T) and the horizon flag compares against the
    paired 2T fractions as the convergence diagnostic.  The evolution runs at
    params.beta; hit_tolerance=None is the default 1e-4*(1+|z|).
    """
    return _estimates([(params.driver_spec(), params, tag)], n, horizon, seed, hit_tolerance)[0]


def _estimates(cells, n: int, horizon: float, seed: int, hit_tolerance: float | None,
               declared_class: str = "n/a") -> list[PhaseEstimate]:
    """Run n replicas of each cell (spec, params, tag) to 2T and count hits by
    T and by 2T; one engine call per beta and loop key, estimates in input
    order."""
    if n < 100:
        raise ConfigError("n >= 100 required for CI validity")
    groups: dict[tuple, list[int]] = {}
    for i, (spec, params, _) in enumerate(cells):
        groups.setdefault((params.beta, _loop_key(spec)), []).append(i)
    out = [None] * len(cells)
    for (beta, _), group in groups.items():
        results = run_adaptive_cells(
            [Cell(spec, params.z, tag, hit_tolerance) for spec, params, tag in (cells[i] for i in group)],
            n, 2.0 * horizon, master_seed=seed, beta=beta,
        )
        for i, res in zip(group, results):
            hits_t = int(np.nansum((res.zeta <= horizon).astype(np.int64)))
            frac_t = hits_t / n
            frac_2t = int(res.hit.sum()) / n
            out[i] = PhaseEstimate(
                params=cells[i][1], n=n, horizon=horizon, seed=seed,
                hit_fraction=frac_t, wilson=wilson_ci(hits_t, n),
                hit_fraction_2t=frac_2t, horizon_flag=_flag(frac_t, frac_2t, n),
                declared_class=declared_class,
            )
    return out


def phase_scan(grid: dict, z: complex, n: int, horizon: float, seed: int,
               hit_tolerance: float | None = None) -> list[PhaseEstimate]:
    """Cartesian sweep over grid axes drawn from {kappa, alpha, theta, beta};
    hit_tolerance as in :func:`hitting_probability`.

    Cell i draws from its own streams, tagged ("phase", i); the cells run
    together, one engine call per beta and driver family.
    """
    axes = ("kappa", "alpha", "theta", "beta")
    unknown = set(grid) - set(axes)
    if unknown:
        raise ConfigError(f"unknown grid axes {sorted(unknown)}; allowed {axes}")
    lists = [list(grid.get(k, [None])) for k in axes]
    cells = list(itertools.product(*lists))
    if not cells or all(len(v) == 0 for v in lists):
        raise ConfigError("empty phase grid")
    defaults = dict(kappa=0.0, alpha=1.5, theta=0.0, beta=2.0)

    def cell_params(cell):
        vals = {k: (v if v is not None else defaults[k]) for k, v in zip(axes, cell)}
        return PhaseParams(z=z, **vals)

    params = [cell_params(cell) for cell in cells]
    return _estimates([(p.driver_spec(), p, ("phase", i)) for i, p in enumerate(params)],
                      n, horizon, seed, hit_tolerance)


# ---------------------------------------------------------------------------
# hitting-exponent fits near zero and near infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    side: str                     # "near_zero" | "near_infinity"
    x: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    slope: float
    slope_se: float
    expected: float

    @property
    def within(self) -> float:
        return abs(self.slope - self.expected)


def _wls_loglog(x: np.ndarray, p: np.ndarray, se: np.ndarray) -> tuple[float, float]:
    lx = np.log(x)
    lp = np.log(p)
    w = (p / se) ** 2  # delta method: Var(log p) = (se/p)^2
    xm = np.average(lx, weights=w)
    ym = np.average(lp, weights=w)
    sxx = np.sum(w * (lx - xm) ** 2)
    slope = float(np.sum(w * (lx - xm) * (lp - ym)) / sxx)
    # WLS slope variance with unit-variance scaling of the declared weights
    se_slope = float(np.sqrt(1.0 / sxx))
    return slope, se_slope


def _exponent_fit(side: str, kappa: float, alpha: float, theta: float,
                  x_grid, n: int, horizon: float, seed: int, expected: float,
                  use_survival: bool) -> ExponentFit:
    if not kappa > 4:
        raise ConfigError("exponent fits require kappa > 4")
    if not 0 < alpha < 1:
        raise ConfigError("exponent fits require alpha in (0,1)")
    x_grid = np.asarray(sorted(float(v) for v in x_grid))
    params = [PhaseParams(z=x, kappa=kappa, alpha=alpha, theta=theta) for x in x_grid]
    ests = _estimates([(p.driver_spec(), p, ("slope", side, i)) for i, p in enumerate(params)],
                      n, horizon, seed, None)
    rows = []
    for x, est in zip(x_grid, ests):
        hits = round(est.hit_fraction * n)
        k = (n - hits) if use_survival else hits
        if k == 0 or k == n:
            continue  # CI touches {0,1}: log undefined, drop
        p = k / n
        lo, hi = wilson_ci(k, n)
        rows.append((x, p, lo, hi))
    if len(rows) < 5:
        raise StatisticalError(
            f"only {len(rows)} usable grid points after dropping saturated estimates; need >= 5"
        )
    xs, ps, los, his = map(np.asarray, zip(*rows))
    ses = np.maximum((his - los) / (2 * _Z95), 1e-12)
    slope, slope_se = _wls_loglog(xs, ps, ses)
    return ExponentFit(side=side, x=xs, p_hat=ps, ci_lo=los, ci_hi=his,
                       slope=slope, slope_se=slope_se, expected=expected)


def slope_near_zero(kappa: float, alpha: float, theta: float, x_grid, n: int,
                    horizon: float, seed: int) -> ExponentFit:
    """log-log fit of the survival fraction P(zeta > T) on x in (0,1];
    expected slope 1 - 4/kappa."""
    if max(x_grid) > 1.0:
        raise ConfigError("near-zero grid must lie in (0, 1]")
    return _exponent_fit("near_zero", kappa, alpha, theta, x_grid, n, horizon,
                         seed, expected=1.0 - 4.0 / kappa, use_survival=True)


def slope_near_infinity(kappa: float, alpha: float, theta: float, x_grid, n: int,
                        horizon: float, seed: int) -> ExponentFit:
    """log-log fit of the hit fraction on x in [2, inf); expected slope alpha-1."""
    if min(x_grid) < 2.0:
        raise ConfigError("near-infinity grid must lie in [2, inf)")
    return _exponent_fit("near_infinity", kappa, alpha, theta, x_grid, n, horizon,
                         seed, expected=alpha - 1.0, use_survival=False)


# ---------------------------------------------------------------------------
# overshoot distribution of the annulus exit vs analytic envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OvershootReport:
    a: float
    b: float
    alpha: float
    n: int
    inner_fraction: float        # exits with |h1| <= a, conditional basis below
    outer_fraction: float
    censored_fraction: float
    atom_inner: float            # mass at +-a among inner exits
    atom_outer: float
    inner_bins: np.ndarray       # columns: lo, hi, density, se, bound
    outer_bins: np.ndarray
    inner_bound: float
    total_probability: float
    all_below_bound: bool


def _annulus_exit_positions(kappa: float, alpha: float, theta: float, x0: float,
                            a: float, b: float, n: int, horizon: float, seed: int):
    """First exit of the real flow from {a < |x| < b}: per-replica exit side
    and position.  The driver's parts take engine B's draws, timescales and
    increments.  Continuous sub-crossings (drift, Brownian) stop exactly at
    the boundary (atoms); jump sub-crossings record the landed position."""
    if not (b > a > 0 and a < abs(x0) < b):
        raise ConfigError("need b > a > 0 and a < |x0| < b")
    incs, _ = _compile_increments(DriverSpec.from_params(kappa, alpha, theta))
    blocks = [_Pool(stream(seed, "overshoot", blk, float(a), float(b)), [inc.draw for inc in incs])
              for blk in range(-(-n // BLOCK))]
    bounds = BLOCK * np.arange(len(blocks) + 1)
    sides = np.zeros(n, dtype=np.int8)  # 0 censored, 1 inner, 2 outer
    positions = np.full(n, np.nan)
    # state of the live replicas, in replica order; exits are written to
    # sides/positions at once and the replica is dropped after the step
    lane = np.arange(n)
    x = np.full(n, float(x0))
    t = np.zeros(n)
    dt_floor = 1e-9 * (b - a) ** 2

    def leave(idx, side, where):
        sides[lane[idx]] = side
        positions[lane[idx]] = where

    dropped = True
    while lane.size:
        if dropped:  # the live blocks and the mask change only when replicas exit
            plan = _draw_plan(blocks, lane, bounds)
            # every sub-update moves every replica; one that exits is marked
            # inactive, its exit written, and its x no longer read
            active = np.ones(lane.size, dtype=bool)
        ax = np.abs(x)
        d = np.minimum(ax - a, b - ax)
        tau = ax * np.maximum(b - ax, 1e-12) / 2.0  # drift time to reach b
        for inc in incs:  # and each part's time to move x by d
            tau = np.minimum(tau, d ** inc.tau_pow / inc.coef)
        # horizon - t, positive for a live replica, caps dt below horizon too
        dt = np.maximum(0.1 * tau, dt_floor)
        np.minimum(dt, horizon - t, out=dt)
        raws = _live_draws(plan)

        # drift: |x| grows, may cross b continuously -> atom at sign(x)*b
        _axis_drift(x, dt, 2.0)
        out = (np.abs(x) >= b).nonzero()[0]
        if out.size:
            leave(out, 2, np.copysign(b, x[out]))
            active[out] = False

        for inc, raw in zip(incs, raws):
            xb = x - inc.increments(raw, dt, inc.coef)
            ax = np.abs(xb)
            inner = ax <= a
            if inc.is_continuous:  # a continuous path that crossed 0 passed |x| = a
                inner |= np.sign(xb) != np.sign(x)
            out = ((inner | (ax >= b)) & active).nonzero()[0]
            if out.size:
                inner = inner[out]
                leave(out, np.where(inner, 1, 2),
                      np.sign(x[out]) * np.where(inner, a, b) if inc.is_continuous else xb[out])
                active[out] = False
            x = xb

        t += dt
        active &= t < horizon * (1 - 1e-12)
        dropped = np.count_nonzero(active) < lane.size
        if dropped:
            lane, x, t = lane[active], x[active], t[active]
    return sides, positions


def overshoot_histogram(kappa: float, alpha: float, theta: float, a: float, b: float,
                        z: float, n: int, horizon: float, seed: int,
                        bins: int = 6) -> OvershootReport:
    """Empirical check of the exit-overshoot density bounds.

    The conditional density of the continuous part of the inner (resp. outer)
    exit distribution is compared bin-wise on |x| < a/3 (resp. |x| > 2b)
    against the analytic envelopes

        3 * 2^(3+4 alpha) / a      and      2^(3+4 alpha) (2b)^alpha alpha / |x|^(1+alpha)

    with three standard errors of slack.  Atom mass at +-a / +-b (continuous
    creeping) is separated out.
    """
    n = _integral_count(n, "n")
    if n < 10_000:
        raise ConfigError("overshoot histograms need n >= 1e4")
    bins = _integral_count(bins, "bins")
    if bins < 1:
        raise ConfigError("bins must be at least 1")
    if not theta > 0:
        raise ConfigError("the overshoot check needs a jump component (theta > 0)")
    sides, pos = _annulus_exit_positions(kappa, alpha, theta, float(z), a, b, n, horizon, seed)
    n_inner = int((sides == 1).sum())
    n_outer = int((sides == 2).sum())
    n_cens = int((sides == 0).sum())
    if n_inner == 0 or n_outer == 0:
        raise StatisticalError("no exits observed on one side within the horizon")

    inner_pos = pos[sides == 1]
    outer_pos = pos[sides == 2]
    atom_inner = float(np.mean(np.abs(np.abs(inner_pos) - a) < 1e-12)) if n_inner else 0.0
    atom_outer = float(np.mean(np.abs(np.abs(outer_pos) - b) < 1e-12)) if n_outer else 0.0

    inner_bound = 3.0 * 2.0 ** (3.0 + 4.0 * alpha) / a

    def bin_table(samples, n_cond, edges, bound_at):
        rows = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            k = int(((samples > lo) & (samples <= hi)).sum())
            width = hi - lo
            dens = k / (n_cond * width)
            se = np.sqrt(max(k, 1)) / (n_cond * width)
            rows.append((lo, hi, dens, se, bound_at(lo, hi)))
        return np.asarray(rows)

    edges_in = np.linspace(-a / 3.0, a / 3.0, bins + 1)
    inner_bins = bin_table(inner_pos, n_inner, edges_in, lambda lo, hi: inner_bound)

    def outer_bound(lo, hi):
        xmin = min(abs(lo), abs(hi))  # envelope decreases in |x|
        return 2.0 ** (3.0 + 4.0 * alpha) * (2.0 * b) ** alpha * alpha / xmin ** (1.0 + alpha)

    half = max(2, bins // 2)
    pos_edges = np.geomspace(2.0 * b, 8.0 * b, half + 1)
    rows = []
    for side_sign in (-1.0, 1.0):
        edges = np.sort(side_sign * pos_edges)
        rows.append(bin_table(outer_pos, n_outer, edges, outer_bound))
    outer_bins = np.vstack(rows)

    ok = bool(np.all(inner_bins[:, 2] <= inner_bins[:, 4] + 3.0 * inner_bins[:, 3])
              and np.all(outer_bins[:, 2] <= outer_bins[:, 4] + 3.0 * outer_bins[:, 3]))

    return OvershootReport(
        a=a, b=b, alpha=alpha, n=n,
        inner_fraction=n_inner / n, outer_fraction=n_outer / n,
        censored_fraction=n_cens / n,
        atom_inner=atom_inner, atom_outer=atom_outer,
        inner_bins=inner_bins, outer_bins=outer_bins,
        inner_bound=inner_bound,
        total_probability=(n_inner + n_outer + n_cens) / n,
        all_below_bound=ok,
    )


# ---------------------------------------------------------------------------
# cluster area fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AreaFractionResult:
    r_list: tuple[float, ...]
    cells_across_min_r: int
    horizon: float
    n_replicas: int
    fractions: np.ndarray     # shape (len(r_list),): replica means
    se: np.ndarray


def area_fraction(kappa: float, alpha: float, theta: float, r_list, resolution: int,
                  horizon: float, n_replicas: int, seed: int,
                  path_dt: float = 5e-3) -> AreaFractionResult:
    """Fraction of the half-disk B(0,r) covered by the cluster at time T.

    Raster-based: one shared window raster per replica at the resolution of
    the smallest radius; finite T stands proxy for the full cluster and must
    be reported alongside (trend checks, not limits).
    """
    n_replicas = _integral_count(n_replicas, "n_replicas")
    if n_replicas < 1:
        raise ConfigError("n_replicas must be at least 1")
    r_list = tuple(sorted(float(r) for r in r_list))
    if not r_list or r_list[0] <= 0:
        raise ConfigError("r_list must be positive ascending")
    resolution = _integral_count(resolution, "resolution")
    if resolution < 32:
        raise ConfigError("resolution too coarse: need >= 32 cells across the smallest r")
    cell = 2.0 * r_list[0] / resolution
    rmax = r_list[-1]
    nx = int(np.ceil(2.0 * rmax / cell))
    ny = int(np.ceil(rmax / cell))
    params = PhaseParams(z=1.0, kappa=kappa, alpha=alpha, theta=theta)
    spec = params.driver_spec()
    cfg = EvolutionConfig(horizon=horizon)

    def job(rep):
        path = sample_driver(spec, horizon, seed, replica=rep, dt=path_dt)
        # the fractions read only the cells within rmax, so only those evolve
        raster = raster_cluster((-rmax, rmax, 0.0, rmax), (nx, ny), path, cfg, radius=rmax)
        gx, gy = np.meshgrid(raster.xs, raster.ys)
        rr = np.hypot(gx, gy)
        hit = raster.cells_hit_by(horizon)
        return [float(hit[rr <= r].mean()) for r in r_list]

    arr = np.asarray([job(rep) for rep in range(n_replicas)])
    return AreaFractionResult(
        r_list=r_list, cells_across_min_r=resolution, horizon=horizon,
        n_replicas=n_replicas, fractions=arr.mean(axis=0),
        se=arr.std(axis=0, ddof=1) / np.sqrt(n_replicas) if n_replicas > 1 else np.zeros(len(r_list)),
    )


# ---------------------------------------------------------------------------
# space-time scaling identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingCheckResult:
    statistic: str
    a: float
    theta_tilde: float
    ks_distance: float
    ks_critical: float
    passed: bool
    n: int


def scaling_check(kappa: float, alpha: float, theta: float, a: float, statistic: str,
                  z: complex, horizon: float, n: int, seed: int,
                  theta_tilde: float | None = None,
                  exit_radius: float | None = None) -> ScalingCheckResult:
    """KS comparison of a summary statistic under the space-time rescaled
    evolution against the theta-rescaled driver.

    Sample A evolves z/sqrt(a) under theta to horizon T/a and rescales the
    statistic by sqrt(a) (resp. a for times); sample B evolves z under
    theta_tilde = a^(alpha/2-1) theta to horizon T.  Passing theta_tilde
    explicitly (e.g. = theta) gives the negative control.
    """
    if statistic not in ("hit_indicator", "im_h", "exit_time"):
        raise ConfigError("statistic must be hit_indicator, im_h or exit_time")
    if n < 500:
        raise ConfigError("scaling checks need n >= 500")
    if not 0 < a < np.inf:
        raise ConfigError(f"scale factor a must be positive and finite, got {a}")
    if theta_tilde is None:
        theta_tilde = a ** (alpha / 2.0 - 1.0) * theta if theta > 0 else 0.0
    z = complex(z)
    sq = np.sqrt(a)
    rho = exit_radius if exit_radius is not None else 4.0 * abs(z)
    delta = default_hit_tolerance(z)

    spec_a = PhaseParams(z=z, kappa=kappa, alpha=alpha, theta=theta).driver_spec()
    spec_b = PhaseParams(z=z, kappa=kappa, alpha=alpha, theta=theta_tilde).driver_spec()
    # one engine call per sample: their horizons and exit radii differ
    res_a = run_adaptive_cells([Cell(spec_a, z / sq, ("scale", "A", statistic), delta / sq)], n,
                               horizon / a, master_seed=seed, exit_radius=rho / sq)[0]
    res_b = run_adaptive_cells([Cell(spec_b, z, ("scale", "B", statistic), delta)], n, horizon,
                               master_seed=seed, exit_radius=rho)[0]

    if statistic == "hit_indicator":
        sa = res_a.hit.astype(float)
        sb = res_b.hit.astype(float)
    elif statistic == "im_h":
        sa = sq * np.where(res_a.hit, 0.0, res_a.y)
        sb = np.where(res_b.hit, 0.0, res_b.y)
    else:
        sa = a * np.where(np.isnan(res_a.exit_time), horizon / a, res_a.exit_time)
        sb = np.where(np.isnan(res_b.exit_time), horizon, res_b.exit_time)

    dist, crit, passed = ks_two_sample(sa, sb)
    return ScalingCheckResult(statistic=statistic, a=a, theta_tilde=theta_tilde,
                              ks_distance=dist, ks_critical=crit, passed=passed, n=n)


# ---------------------------------------------------------------------------
# cluster disconnection frequency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisconnectionResult:
    t: float
    n: int
    fraction: float
    wilson: tuple[float, float]
    component_counts: np.ndarray


def disconnection_frequency(spec: DriverSpec, t: float, n: int, seed: int,
                            window=None, resolution=None, path_dt: float = 2e-3) -> DisconnectionResult:
    """Fraction of replicas whose cluster raster at time t has >= 2 connected
    components (8-neighbor, no merging through the real axis)."""
    n = _integral_count(n, "n")
    if n < 1:
        raise ConfigError("n must be at least 1")
    if window is None or resolution is None:
        raise ConfigError("disconnection_frequency needs an explicit window and resolution")
    cfg = EvolutionConfig(horizon=t)

    def job(rep):
        path = sample_driver(spec, t, seed, replica=rep,
                             dt=(t if spec.is_piecewise_constant else path_dt))
        raster = raster_cluster(window, resolution, path, cfg)
        return connected_components(raster, t)

    counts = np.asarray([job(rep) for rep in range(n)])
    k = int((counts >= 2).sum())
    return DisconnectionResult(t=t, n=n, fraction=k / n, wilson=wilson_ci(k, n),
                               component_counts=counts)


# ---------------------------------------------------------------------------
# critical-strength bracket
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theta0BracketResult:
    alpha: float
    theta_grid: tuple[float, ...]
    estimates: tuple[PhaseEstimate, ...]
    theta_lo: float
    theta_hi: float
    analytic: float
    widened: bool   # non-monotone crossing encountered; bracket was widened

    @property
    def contains_analytic(self) -> bool:
        return self.theta_lo <= self.analytic <= self.theta_hi


def theta0_bracket(alpha: float, theta_grid, z: complex, n: int, horizon: float,
                   seed: int, hit_tolerance: float = 1e-5) -> Theta0BracketResult:
    """Locate the theta interval where the critical evolution's hit fraction
    crosses 1/2, alongside the analytic threshold.

    beta = alpha is enforced (the self-similar coupling).  The crossing is
    treated as an interval, never a point: at the threshold itself the theory
    gives survival on the line, so the empirical crossing sits at or above
    the analytic value and tightens only logarithmically in T.
    """
    if not 1 < alpha < 2:
        raise ConfigError(f"theta0 bracket requires alpha in (1,2), got {alpha}")
    thetas = tuple(sorted(float(v) for v in theta_grid))
    if len(thetas) < 2:
        raise ConfigError("theta grid needs at least two points")
    params = [PhaseParams(z=z, kappa=0.0, alpha=alpha, theta=th, beta=alpha) for th in thetas]
    ests = _estimates([(p.driver_spec(), p, ("theta0", i)) for i, p in enumerate(params)],
                      n, horizon, seed, hit_tolerance)
    fr = np.asarray([e.hit_fraction for e in ests])
    above = fr >= 0.5
    if not above.any() or above.all():
        raise StatisticalError("hit fractions do not cross 1/2 on the given grid")
    first_above = int(np.argmax(above))
    last_below = int(np.max(np.where(~above)[0]))
    widened = last_below > first_above  # noisy, non-monotone crossing
    lo = thetas[max(first_above - 1, 0)]
    hi = thetas[min(last_below + 1, len(thetas) - 1)]
    return Theta0BracketResult(alpha=alpha, theta_grid=thetas, estimates=tuple(ests),
                               theta_lo=lo, theta_hi=hi, analytic=theta0(alpha),
                               widened=widened)


# ---------------------------------------------------------------------------
# composite recurrent/transient drivers
# ---------------------------------------------------------------------------

def composite_driver_phase(alpha: float, kappa: float, cutoff: float,
                           cpp_rate: float, cpp_law: JumpLaw, declared_class: str,
                           z_list, n: int, horizon: float, seed: int,
                           theta: float = 1.0) -> list[PhaseEstimate]:
    """Phase estimates for U = sqrt(kappa) B + theta^(1/alpha) S^cutoff + CPP.

    declared_class is user metadata echoed into the estimates (never
    inferred); pass z_list as a geometric sequence toward 0 to expose the
    transient driver's z -> 0 limit."""
    comps = []
    if kappa > 0:
        comps.append(Brownian(kappa))
    comps.append(TruncatedStable(alpha, theta, cutoff))
    comps.append(CompoundPoisson(cpp_rate, cpp_law, declared_class))
    spec = DriverSpec(tuple(comps))
    cells = [(spec, PhaseParams(z=complex(z), kappa=kappa, alpha=alpha, theta=theta), ("cor", i))
             for i, z in enumerate(z_list)]
    return _estimates(cells, n, horizon, seed, None, declared_class)
