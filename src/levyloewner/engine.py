"""Vectorized evolution kernels shared by the Loewner and beta-evolution APIs.

State per lane is h = x + iy in the closed upper half plane.  Between driver
increments h follows the pure drift

    dh/dt = 2 |h|^(2-beta) / h,      1 < beta <= 2,

which preserves c = x*y and moves u = x^2 - y^2 monotonically up:

    du/dt = 4 (u^2 + 4c^2)^((2-beta)/4),          |h|^2 = sqrt(u^2 + 4c^2).

For beta = 2 this integrates exactly (u -> u + 4 dt, the slit-map update);
for beta < 2 lanes on the axes have the closed form |h|^beta linear in t and
off-axis lanes take Runge-Kutta substeps on u.  A lane is swallowed within a
drift interval exactly when u crosses 0 with sqrt(2|c|) <= delta.

Driver increments shift x.  Hits are declared when
  * |h| <= delta after any sub-update (covers a ledger jump landing on the
    pre-jump position within tolerance), or
  * a continuous (Brownian) sub-increment flips the sign of x while y <= delta:
    the underlying continuous path crossed zero inside the step.
Sign flips caused by jump-type increments are jump-overs, never hits.

Two drivers of the kernel exist: lanes sharing one concrete
:class:`~levyloewner.drivers.DriverPath` (rasters, consistency checks), and
independent-replica Monte Carlo with per-lane adaptive time steps and
on-the-fly increment sampling (phase experiments).  Monte Carlo lanes are
processed in order, in fixed blocks of :data:`BLOCK` with one RNG stream per
block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import (
    Brownian,
    CompoundPoisson,
    DriverPath,
    DriverSpec,
    Stable,
    TruncatedStable,
    standard_stable_sample,
)
from .errors import ConfigError, NumericalError
from .rng import stream
from .stable_calculus import frac_constant

BLOCK = 512
_MAX_STEPS = 20_000_000  # per block; guards against a stuck adaptive loop

__all__ = ["BLOCK", "LaneResult", "default_hit_tolerance", "evolve_lanes_on_path", "run_adaptive_mc"]


def default_hit_tolerance(z0) -> np.ndarray:
    """Spec default 1e-4 * (1 + |z0|)."""
    return 1e-4 * (1.0 + np.abs(z0))


@dataclass
class LaneResult:
    """Per-lane outcome arrays of one evolution run."""

    z0: np.ndarray
    zeta: np.ndarray        # hit time; NaN when censored
    x: np.ndarray           # final h (meaningful for censored lanes)
    y: np.ndarray
    min_abs: np.ndarray
    steps: np.ndarray
    hit_tolerance: np.ndarray
    exit_time: np.ndarray | None = None  # first |h| >= exit_radius, if tracked

    @property
    def hit(self) -> np.ndarray:
        return ~np.isnan(self.zeta)

    @property
    def h_final(self) -> np.ndarray:
        return self.x + 1j * self.y


# ---------------------------------------------------------------------------
# drift kernel
# ---------------------------------------------------------------------------

def _recover_xy(u, c, sign_x):
    """Invert u = x^2-y^2, c = x*y with y >= 0 and the given sign of x.

    The dominant coordinate is taken from the stable square root and the other
    from c to avoid cancellation when one coordinate is tiny.
    """
    habs2 = np.hypot(u, 2.0 * c)
    pos = u >= 0
    xs = np.sqrt(np.maximum(habs2 + u, 0.0) * 0.5)
    ys = np.sqrt(np.maximum(habs2 - u, 0.0) * 0.5)
    sgn = np.where(sign_x == 0, 1.0, sign_x)
    with np.errstate(invalid="ignore", divide="ignore"):
        y_from_x = np.where(xs > 0, np.abs(c) / np.where(xs == 0, 1.0, xs), 0.0)
        x_from_y = np.where(ys > 0, c / np.where(ys == 0, 1.0, ys), 0.0)
    x = np.where(pos, sgn * xs, x_from_y)
    y = np.where(pos, y_from_x, ys)
    np.maximum(y, 0.0, out=y)
    return x, y


def _drift_advance(x, y, dt, beta, t, delta, zeta, min_abs, alive):
    """Advance the drift by per-lane dt on alive lanes; mark swallowed lanes.

    Mutates x, y, zeta, min_abs, alive.  dt must be 0 on dead lanes.
    """
    act = alive & (dt > 0)
    if not act.any():
        return
    u0 = x * x - y * y
    c = x * y
    sign_x = np.sign(x)

    if beta == 2.0:
        u1 = u0 + 4.0 * dt
        crossed = act & (u0 < 0) & (u1 >= 0)
        s_star = np.where(crossed, -u0 * 0.25, 0.0)
    else:
        u1 = np.array(u0, copy=True)
        s_star = np.zeros_like(u0)
        crossed = np.zeros_like(act)

        on_axis = act & (c == 0.0)
        # real axis: |x|^beta grows linearly at rate 2 beta
        real_ax = on_axis & (u0 > 0)
        if real_ax.any():
            m = u0[real_ax] ** (beta / 2.0) + 2.0 * beta * dt[real_ax]
            u1[real_ax] = m ** (2.0 / beta)
        # imaginary axis: y^beta shrinks linearly; crossing time is exact
        imag_ax = on_axis & (u0 < 0)
        if imag_ax.any():
            m0 = (-u0[imag_ax]) ** (beta / 2.0)
            m = m0 - 2.0 * beta * dt[imag_ax]
            hit_ax = m <= 0.0
            sub = np.where(imag_ax)[0]
            u1[sub] = np.where(hit_ax, 0.0, -np.maximum(m, 0.0) ** (2.0 / beta))
            crossed[sub[hit_ax]] = True
            s_star[sub[hit_ax]] = m0[hit_ax] / (2.0 * beta)

        gen = act & (c != 0.0)
        if gen.any():
            ug = u0[gen]
            cg = c[gen]
            dtg = dt[gen]
            # substep count from the relative motion of |h|^2 over the step
            habs2 = np.hypot(ug, 2.0 * cg)
            rel = 4.0 * habs2 ** (-beta / 2.0) * dtg
            nsub = int(min(64, max(1, np.ceil(np.max(rel) / 0.05))))
            h_sub = dtg / nsub
            pow_ = (2.0 - beta) / 4.0

            def f(u):
                return 4.0 * (u * u + 4.0 * cg * cg) ** pow_

            u_lo = ug.copy()
            cross_at = np.zeros_like(ug)
            found = np.zeros(ug.shape, dtype=bool)
            for k in range(nsub):
                k1 = f(u_lo)
                k2 = f(u_lo + 0.5 * h_sub * k1)
                k3 = f(u_lo + 0.5 * h_sub * k2)
                k4 = f(u_lo + h_sub * k3)
                u_hi = u_lo + h_sub / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                just = (~found) & (u_lo < 0) & (u_hi >= 0)
                if just.any():
                    frac = -u_lo / np.maximum(u_hi - u_lo, 1e-300)
                    cross_at = np.where(just, (k + frac) * h_sub, cross_at)
                    found |= just
                u_lo = u_hi
            sub = np.where(gen)[0]
            crossed[sub] = found
            s_star[sub] = cross_at
            u1[sub] = u_lo

    dip = np.where(crossed, np.sqrt(2.0 * np.abs(c)), np.inf)
    np.minimum(min_abs, np.where(act, dip, np.inf), out=min_abs)
    swallowed = act & crossed & (dip <= delta)
    zeta[swallowed] = t[swallowed] + s_star[swallowed]
    alive &= ~swallowed

    move = act & ~swallowed
    if move.any():
        xn, yn = _recover_xy(u1, c, sign_x)
        x[move] = xn[move]
        y[move] = yn[move]


def _apply_increment(x, y, du, is_continuous, t_next, delta, zeta, min_abs, alive):
    """Shift x by -du on alive lanes and run hit checks. Mutates state."""
    act = alive & (du != 0.0)
    sign_old = np.sign(x)
    x[act] -= du[act]
    habs = np.hypot(x, y)
    np.minimum(min_abs, np.where(alive, habs, np.inf), out=min_abs)
    hit = alive & (habs <= delta)
    if is_continuous:
        flip = act & (y <= delta) & (np.sign(x) != sign_old) & (sign_old != 0) & (x != 0)
        hit |= flip
    zeta[hit] = t_next[hit]
    alive &= ~hit


def _check_endpoint(x, y, t_now, delta, zeta, min_abs, alive):
    habs = np.hypot(x, y)
    np.minimum(min_abs, np.where(alive, habs, np.inf), out=min_abs)
    hit = alive & (habs <= delta)
    zeta[hit] = t_now[hit]
    alive &= ~hit


# ---------------------------------------------------------------------------
# engine A: lanes sharing one concrete path
# ---------------------------------------------------------------------------

def evolve_lanes_on_path(z0, path: DriverPath, horizon: float, hit_tolerance=None,
                         beta: float = 2.0, record_trajectory: bool = False):
    """Evolve many tracked points along one sampled driver path.

    The driver is held constant between grid points (its cadlag value), the
    drift part of each interval is applied exactly, and the grid-step driver
    increment lands at the step's right endpoint.  Returns a
    :class:`LaneResult` (and a trajectory array when requested: columns
    t, Re h, Im h, U for the first lane).
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    if np.any(z0 == 0):
        raise ConfigError("tracked points must be nonzero")
    if np.any(z0.imag < 0):
        raise ConfigError("tracked points must lie in the closed upper half-plane")
    if not 1.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (1,2], got {beta}")
    if path.horizon < horizon - 1e-12:
        raise ConfigError(f"path horizon {path.horizon} shorter than requested {horizon}")

    n = z0.size
    if hit_tolerance is None:
        delta = default_hit_tolerance(z0)
    else:
        delta = np.broadcast_to(np.asarray(hit_tolerance, dtype=float), (n,)).copy()
    if np.any(delta <= 0):
        raise ConfigError("hit tolerance must be positive")

    x = z0.real.copy()
    y = z0.imag.copy()
    zeta = np.full(n, np.nan)
    min_abs = np.abs(z0).astype(float)
    alive = np.ones(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)
    t_arr = np.zeros(n)

    grid = path.grid
    values = path.values
    jump_mask = path.jump_step_mask()
    bracket_base = path.has_brownian
    traj = [] if record_trajectory else None
    if record_trajectory:
        traj.append((0.0, x[0], y[0], 0.0))

    for i in range(grid.size - 1):
        t0 = grid[i]
        if t0 >= horizon - 1e-15 or not alive.any():
            break
        was_alive = alive.copy()
        t1 = min(grid[i + 1], horizon)
        dt_full = t1 - t0
        t_arr.fill(t0)
        dt = np.where(alive, dt_full, 0.0)
        _drift_advance(x, y, dt, beta, t_arr, delta, zeta, min_abs, alive)
        t_arr.fill(t1)
        _check_endpoint(x, y, t_arr, delta, zeta, min_abs, alive)
        if grid[i + 1] <= horizon + 1e-15:
            du_val = values[i + 1] - values[i]
            du = np.where(alive, du_val, 0.0)
            _apply_increment(x, y, du, bracket_base and not jump_mask[i],
                             t_arr, delta, zeta, min_abs, alive)
        steps[was_alive] += 1
        if record_trajectory:
            traj.append((t1, x[0], y[0], values[i + 1] if grid[i + 1] <= horizon + 1e-15 else values[i]))

    result = LaneResult(z0=z0, zeta=zeta, x=x, y=y, min_abs=min_abs, steps=steps,
                        hit_tolerance=delta)
    if record_trajectory:
        return result, np.asarray(traj)
    return result


# ---------------------------------------------------------------------------
# engine B: independent-replica adaptive Monte Carlo
# ---------------------------------------------------------------------------

class _IncBrownian:
    is_continuous = True

    def __init__(self, kappa):
        self.kappa = kappa

    def draw(self, rng, dt):
        return np.sqrt(self.kappa * dt) * rng.standard_normal(dt.size)


class _IncStable:
    is_continuous = False

    def __init__(self, alpha, theta):
        self.alpha = alpha
        self.theta = theta

    def draw(self, rng, dt):
        return (self.theta * dt) ** (1.0 / self.alpha) * standard_stable_sample(self.alpha, rng, dt.size)


class _IncTruncatedStable:
    is_continuous = False

    def __init__(self, comp: TruncatedStable):
        a = comp.alpha
        eps = comp.eps
        self.scale = comp.theta ** (1.0 / a)
        self.alpha = a
        self.eps_pow = eps ** -a
        self.cut_pow = comp.cutoff ** -a
        ac = frac_constant(a)
        self.lam = 2.0 * ac * (self.eps_pow - self.cut_pow) / a
        self.small_sd_rate = np.sqrt(2.0 * ac * eps ** (2.0 - a) / (2.0 - a))

    def draw(self, rng, dt):
        du = self.small_sd_rate * np.sqrt(dt) * rng.standard_normal(dt.size)
        counts = rng.poisson(self.lam * dt)
        total = int(counts.sum())
        if total:
            u = rng.random(total)
            mags = (self.eps_pow - u * (self.eps_pow - self.cut_pow)) ** (-1.0 / self.alpha)
            signs = rng.choice([-1.0, 1.0], size=total)
            lanes = np.repeat(np.arange(dt.size), counts)
            du = du + np.bincount(lanes, weights=signs * mags, minlength=dt.size)
        return self.scale * du


class _IncCompoundPoisson:
    """Per-step Poisson thinning; increments have the exact CPP law over each
    step, with jump times quantized to step ends (steps are adaptive-small)."""

    is_continuous = False

    def __init__(self, comp: CompoundPoisson):
        self.rate = comp.rate
        self.law = comp.jump_law

    def draw(self, rng, dt):
        counts = rng.poisson(self.rate * dt)
        total = int(counts.sum())
        out = np.zeros(dt.size)
        if total:
            sizes = self.law.sample(rng, total)
            lanes = np.repeat(np.arange(dt.size), counts)
            out = np.bincount(lanes, weights=sizes, minlength=dt.size)
        return out


def _compile_increments(spec: DriverSpec):
    incs = []
    for comp in spec.components:
        if isinstance(comp, Brownian):
            if comp.kappa > 0:
                incs.append(_IncBrownian(comp.kappa))
        elif isinstance(comp, Stable):
            incs.append(_IncStable(comp.alpha, comp.theta))
        elif isinstance(comp, TruncatedStable):
            incs.append(_IncTruncatedStable(comp))
        elif isinstance(comp, CompoundPoisson):
            incs.append(_IncCompoundPoisson(comp))
        else:  # pragma: no cover
            raise ConfigError(f"unknown component {comp!r}")
    return incs


def _timescale_rules(spec: DriverSpec):
    """Per-component local timescales tau(|h|): the time over which a
    component's increment grows to the order of |h|.  The adaptive step is
    dt_safety times the smallest of these and the drift timescale, which keeps
    every per-step displacement a fixed fraction of |h| at all scales."""
    rules = []
    for comp in spec.components:
        if isinstance(comp, Brownian):
            if comp.kappa > 0:
                rules.append(("pow", 2.0, comp.kappa))
        elif isinstance(comp, Stable):
            rules.append(("pow", comp.alpha, comp.theta))
        elif isinstance(comp, TruncatedStable):
            from .drivers import truncated_stable_variance_rate

            rules.append(("pow", 2.0, truncated_stable_variance_rate(comp.alpha, comp.theta, comp.cutoff)))
        elif isinstance(comp, CompoundPoisson):
            rules.append(("const", 0.2 / comp.rate, None))
    return rules


def _adaptive_tau(habs, beta, rules):
    tau = habs ** beta / (2.0 * beta)
    for kind, a, b in rules:
        if kind == "pow":
            np.minimum(tau, habs ** a / b, out=tau)
        else:
            np.minimum(tau, a, out=tau)
    return tau


def _run_block(spec, z0, nlanes, horizon, hit_tolerance, beta, dt_safety, dt_max,
               rng, exit_radius):
    incs = _compile_increments(spec)
    rules = _timescale_rules(spec)
    x = np.full(nlanes, complex(z0).real)
    y = np.full(nlanes, complex(z0).imag)
    t = np.zeros(nlanes)
    zeta = np.full(nlanes, np.nan)
    alive = np.ones(nlanes, dtype=bool)
    min_abs = np.full(nlanes, abs(complex(z0)))
    steps = np.zeros(nlanes, dtype=np.int64)
    exit_time = np.full(nlanes, np.nan) if exit_radius is not None else None

    delta = np.full(nlanes, float(hit_tolerance))
    dt_floor = float(hit_tolerance) ** beta / 16.0
    if dt_floor < 1e-14 * horizon:
        raise NumericalError(
            f"hit tolerance {hit_tolerance} gives step floor {dt_floor} below 1e-14*T; refusing to underflow"
        )
    t_next = np.empty(nlanes)

    it = 0
    while alive.any():
        it += 1
        if it > _MAX_STEPS:
            raise NumericalError("adaptive evolution exceeded the step budget without resolving")
        habs = np.hypot(x, y)
        dt = dt_safety * _adaptive_tau(habs, beta, rules)
        np.clip(dt, dt_floor, dt_max, out=dt)
        np.minimum(dt, horizon - t, out=dt)
        dt[~alive] = 0.0
        np.copyto(t_next, t + dt)

        _drift_advance(x, y, dt, beta, t, delta, zeta, min_abs, alive)
        for inc in incs:
            du = inc.draw(rng, dt)
            _apply_increment(x, y, np.where(alive, du, 0.0), inc.is_continuous,
                             t_next, delta, zeta, min_abs, alive)
        t[alive] = t_next[alive]
        steps[alive] += 1
        if exit_radius is not None:
            fresh = alive & np.isnan(exit_time) & (np.hypot(x, y) >= exit_radius)
            exit_time[fresh] = t[fresh]
        alive &= t < horizon * (1.0 - 1e-12)

    return zeta, x, y, min_abs, steps, exit_time


def run_adaptive_mc(spec: DriverSpec, z0, n: int, horizon: float, *, master_seed: int,
                    tag, hit_tolerance: float | None = None, beta: float = 2.0,
                    dt_safety: float = 0.1, dt_max: float = 1e6,
                    exit_radius: float | None = None) -> LaneResult:
    """n independent replicas of the evolution of z0 under fresh driver paths.

    Each replica's driver is realized on the fly along an adaptive grid
    dt = dt_safety |h|^beta / (2 beta + kappa), clipped to
    [hit_tol^beta/16, dt_max]; increments are exact marginal draws per step.
    Replicas are grouped in blocks of :data:`BLOCK`, block b drawing from the
    stream (master_seed, *tag, b).
    """
    z0 = complex(z0)
    if z0 == 0:
        raise ConfigError("z0 must be nonzero")
    if z0.imag < 0:
        raise ConfigError("z0 must lie in the closed upper half-plane")
    if not 1.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (1,2], got {beta}")
    if n < 1:
        raise ConfigError("n must be at least 1")
    if not horizon > 0:
        raise ConfigError("horizon must be positive")
    if hit_tolerance is None:
        hit_tolerance = float(default_hit_tolerance(z0))
    tag = tuple(tag) if isinstance(tag, (tuple, list)) else (tag,)

    sizes = [BLOCK] * (n // BLOCK) + ([n % BLOCK] if n % BLOCK else [])
    parts = [_run_block(spec, z0, size, horizon, hit_tolerance, beta, dt_safety,
                        dt_max, stream(master_seed, *tag, "block", b), exit_radius)
             for b, size in enumerate(sizes)]

    def cat(i):
        if parts[0][i] is None:
            return None
        return np.concatenate([p[i] for p in parts])

    return LaneResult(z0=np.full(n, z0), zeta=cat(0), x=cat(1), y=cat(2),
                      min_abs=cat(3), steps=cat(4),
                      hit_tolerance=np.full(n, hit_tolerance), exit_time=cat(5))
