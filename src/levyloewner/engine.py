"""Vectorized evolution kernels of the path API and the Monte Carlo estimators.

State per lane is h = x + iy in the closed upper half plane.  Between driver
increments h follows the pure drift

    dh/dt = 2 |h|^(2-beta) / h,      1 < beta <= 2,

which preserves c = x*y and moves u = x^2 - y^2 monotonically up:

    du/dt = 4 (u^2 + 4c^2)^((2-beta)/4),          |h|^2 = sqrt(u^2 + 4c^2).

For beta = 2 this integrates exactly (u -> u + 4 dt); for beta < 2 lanes on
the axes have the closed form |h|^beta linear in t and each off-axis lane
takes its own number of Runge-Kutta substeps on u.  The new h is then one
complex square root of u + 2ic on the upper branch, which at beta = 2 is
exactly the slit map h -> sqrt(h^2 + 4 dt).  A lane is swallowed within a
drift interval exactly when u crosses 0 with sqrt(2|c|) <= delta.

Driver increments shift x.  Hits are declared when
  * |h| <= delta after any sub-update (covers a ledger jump landing on the
    pre-jump position within tolerance), or
  * a continuous (Brownian) sub-increment flips the sign of x while y <= delta:
    the underlying continuous path crossed zero inside the step.
Sign flips caused by jump-type increments are jump-overs, never hits.

Two drivers of the kernel exist, and both compute only the lanes still
alive: a lane's outcome is written when it dies and its state is dropped.
Engine A moves lanes sharing one concrete
:class:`~levyloewner.drivers.DriverPath` (rasters, consistency checks) along
its grid; a lane's result depends on its own point and tolerance only.
Engine B runs independent-replica Monte Carlo with per-lane adaptive time
steps and on-the-fly increment sampling (phase experiments).  In both engines
compound Poisson jumps land at their exact event times: engine A's paths put
them on the grid, and engine B ends a lane's step at its next jump.  A cell
(driver, start point, stream tag, hit tolerance) has n replicas in fixed
blocks of :data:`BLOCK` lanes with one RNG stream per (cell tag, block), and
one loop advances every block of every cell of an experiment in lockstep;
cells whose drivers differ only in Brownian kappa and stable theta share it,
holding those coefficients, z0 and the tolerance per lane.  In each iteration
every block that has a live lane draws its live lanes' raw variates (uniforms,
exponentials, normals) from its own stream, in lane order, and each map from
raw variates to increments (the Chambers-Mallows-Stuck map of a stable part)
then runs once over all live lanes; a truncated stable part, whose draw count
depends on the data and on dt, draws its increments whole.  A replica's
result therefore depends only on its own state and its block's stream, never
on the other blocks or cells.

The flow kernels pay per event, not per lane.  Each runs a fixed number of
elementwise passes over the live lanes; past those, work scales with the
lanes something happened to, held as index sets: the lanes near 0 (hit
checks), the lanes low enough to cross h = 0 (flip rule), and the lanes whose
u crosses 0 in the drift (swallow bookkeeping).  A step in which no lane is
near, low or crossing does no bookkeeping at all, and a step of real-axis
lanes takes the real root.  Both engines hold the live state in one array,
one row per quantity, so that dropping the lanes that died is one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .drivers import (
    Brownian,
    CompoundPoisson,
    DriverPath,
    DriverSpec,
    Stable,
    TruncatedStable,
    _stable_draws,
    _stable_map,
    _truncated_stable_steps,
    truncated_stable_variance_rate,
)
from .errors import ConfigError, NumericalError
from .rng import stream

BLOCK = 512
# Lockstep iterations per Monte Carlo call, which last as long as its slowest
# lane in any block; guards against a stuck adaptive loop.
_MAX_STEPS = 20_000_000
# Upper clip of the adaptive Monte Carlo step.
_DT_MAX = 1e6

__all__ = ["BLOCK", "Cell", "LaneResult", "default_hit_tolerance", "evolve_lanes_on_path",
           "run_adaptive_cells", "run_adaptive_mc"]


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

def _slit_root(u, c, x, y, real=False):
    """Set x + iy to the root of u + 2ic on the upper branch: y >= +0 and x
    keeps its sign.  At beta = 2 this is the slit map h -> sqrt(h^2 + 4 dt).
    ``real`` says that every c is 0 and every u positive: the root is then
    sqrt(u) + 0i, taken without the complex square root, which gives the same
    bits there."""
    if real:
        np.copysign(np.sqrt(u), x, out=x)
        y[:] = 0.0
        return
    w = np.empty(u.shape, dtype=complex)
    w.real = u
    np.abs(c, out=w.imag)
    w.imag *= 2.0
    w = np.sqrt(w)
    np.copysign(w.real, x, out=x)
    y[:] = w.imag


def _at(a, idx):
    """``a[idx]`` for a per-lane array, ``a`` itself for a scalar."""
    return a[idx] if np.ndim(a) else a


def _drift_advance(x, y, dt, beta, t, delta, zeta, min_abs, alive):
    """Advance the drift of every lane by dt > 0 from time t; mark swallowed
    lanes dead.

    Every lane must be live on entry; dt, t and delta are per-lane arrays or
    scalars.  Mutates x, y, zeta, min_abs, alive (a swallowed lane keeps its
    pre-drift x, y).  For beta < 2 each off-axis lane takes its own RK4
    substep count, so its result depends on its own state only.  Beyond the
    elementwise update, work scales with the lanes that cross u = 0: the
    crossing and swallow bookkeeping runs only when some lane crosses, which
    a real-axis lane never does, and the beta < 2 axis and off-axis groups
    are updated by index.
    """
    u0 = x * x - y * y
    c = x * y
    crossings = []  # (lanes, time into the step at which u crosses 0)

    if beta == 2.0:
        u1 = u0 + 4.0 * dt
        neg = u0 < 0
        if neg.any():
            cr = (neg & (u1 >= 0)).nonzero()[0]
            crossings.append((cr, -u0[cr] * 0.25))
            real = False
        else:
            real = not c.any()
    else:
        on_axis = c == 0.0
        # real axis: |x|^beta grows linearly at rate 2 beta
        ra = (on_axis & (u0 > 0)).nonzero()[0]
        real = ra.size == u0.size
        if real:
            u1 = (u0 ** (beta / 2.0) + 2.0 * beta * dt) ** (2.0 / beta)
        else:
            u1 = u0.copy()
            if ra.size:
                u1[ra] = (u0[ra] ** (beta / 2.0) + 2.0 * beta * _at(dt, ra)) ** (2.0 / beta)
            # imaginary axis: y^beta shrinks linearly; crossing time is exact
            ia = (on_axis & (u0 < 0)).nonzero()[0]
            if ia.size:
                m0 = (-u0[ia]) ** (beta / 2.0)
                m = m0 - 2.0 * beta * _at(dt, ia)
                hit_ax = m <= 0.0
                u1[ia] = np.where(hit_ax, 0.0, -np.maximum(m, 0.0) ** (2.0 / beta))
                crossings.append((ia[hit_ax], m0[hit_ax] / (2.0 * beta)))
            sub = (~on_axis).nonzero()[0]
            if sub.size:
                _rk4_drift(u0, c, dt, beta, sub, u1, crossings)

    dead = None
    if crossings:
        cr, s_cr = crossings[0] if len(crossings) == 1 else map(np.concatenate, zip(*crossings))
        if cr.size:
            # a lane whose u crosses 0 passes |h| = sqrt(2|c|) inside the step
            dip = np.sqrt(2.0 * np.abs(c[cr]))
            min_abs[cr] = np.minimum(min_abs[cr], dip)
            swallowed = dip <= _at(delta, cr)
            dead = cr[swallowed]
            zeta[dead] = _at(t, dead) + s_cr[swallowed]
            alive[dead] = False
            x_dead, y_dead = x[dead], y[dead]
    _slit_root(u1, c, x, y, real)
    if dead is not None:
        x[dead], y[dead] = x_dead, y_dead


def _rk4_drift(u0, c, dt, beta, sub, u1, crossings):
    """Set u1 of the off-axis lanes ``sub`` to u at the end of the step, each
    lane by its own RK4 substep count; append their crossings of u = 0 to
    ``crossings``."""
    # substep count from the relative motion of |h|^2 over the step; lanes in
    # descending count order, so the lanes still stepping at substep k are the
    # first width[k]
    rel = 4.0 * np.hypot(u0[sub], 2.0 * c[sub]) ** (-beta / 2.0) * _at(dt, sub)
    nsub = np.minimum(np.maximum(np.ceil(rel / 0.05), 1), 64)
    order = np.argsort(-nsub)
    sub, nsub = sub[order], nsub[order]
    width = np.searchsorted(-nsub, -np.arange(1, nsub[0] + 1), side="right")
    h_sub = _at(dt, sub) / nsub
    c2 = 4.0 * c[sub] * c[sub]
    pow_ = (2.0 - beta) / 4.0

    def f(v, cw):
        return 4.0 * (v * v + cw) ** pow_

    u = u0[sub]
    for k, w in enumerate(width.tolist()):
        u_lo, h, cw = u[:w], h_sub[:w], c2[:w]
        k1 = f(u_lo, cw)
        k2 = f(u_lo + 0.5 * h * k1, cw)
        k3 = f(u_lo + 0.5 * h * k2, cw)
        k4 = f(u_lo + h * k3, cw)
        u_hi = u_lo + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # u only increases, so a lane crosses 0 in one substep at most
        just = ((u_lo < 0) & (u_hi >= 0)).nonzero()[0]
        if just.size:
            frac = -u_lo[just] / np.maximum(u_hi[just] - u_lo[just], 1e-300)
            crossings.append((sub[just], (k + frac) * h[just]))
        u[:w] = u_hi
    u1[sub] = u


def _apply_increment(x, y, du, is_continuous, t_next, delta, zeta, min_abs, alive):
    """Shift x by -du on alive lanes and run the hit checks at t_next.  du,
    t_next and delta are per-lane arrays or scalars.  Mutates x, zeta,
    min_abs, alive.

    Beyond the shift itself, work scales with the lanes low enough to cross
    h = 0 (y <= delta, for a continuous increment) and with the lanes near 0
    (:func:`_check_endpoint`); no full-length hit mask is built."""
    flip = None
    if is_continuous:
        # the path crossed h = 0 inside the step if x changes sign at y <= delta
        low = ((y <= delta) & alive).nonzero()[0]
        x_old = x[low]
    np.subtract(x, du, out=x, where=alive)
    if is_continuous and low.size:
        flip = low[np.sign(x_old) * np.sign(x[low]) < 0]
    _check_endpoint(x, y, t_next, delta, zeta, min_abs, alive, flip)


def _check_endpoint(x, y, t_now, delta, zeta, min_abs, alive, flip=None):
    """Fold |h| into min_abs and mark the lanes with |h| <= delta, and the
    live lanes of the index array ``flip``, dead at t_now.  Mutates zeta,
    min_abs, alive.

    One box test runs over every lane; the rest works on the index set of the
    near lanes, and returns early when there is none."""
    # |h| rounds to no less than max(|x|, |y|), so only lanes in that box can
    # set a new minimum of |h| or come within delta
    box = np.abs(x)
    np.maximum(box, np.abs(y), out=box)
    near = ((box <= np.maximum(min_abs, delta)) & alive).nonzero()[0]
    if near.size:
        habs = np.hypot(x[near], y[near])
        min_abs[near] = np.minimum(min_abs[near], habs)
        hit = near[habs <= _at(delta, near)]
        if hit.size:
            zeta[hit] = _at(t_now, hit)
            alive[hit] = False
    if flip is not None and flip.size:
        zeta[flip] = _at(t_now, flip)
        alive[flip] = False


def _retire(state, alive, out):
    """Write the outcome of the lanes that died into ``out`` and drop them.

    ``state`` holds the live lanes, one row per quantity and one column per
    lane: first the rows of ``out``, then the lane index (exact as a float).
    Copies the outcome rows of the columns where ``alive`` is False into
    ``out`` at their lane index; returns the state of the live lanes and the
    lane indices of the dead ones."""
    k = len(out)
    dead = (~alive).nonzero()[0]
    done = state[k].take(dead).astype(np.intp)
    for row, outcome in zip(out, state[:k].take(dead, axis=1)):
        row[done] = outcome
    return state.take(alive.nonzero()[0], axis=1), done


# ---------------------------------------------------------------------------
# engine A: lanes sharing one concrete path
# ---------------------------------------------------------------------------

def evolve_lanes_on_path(z0, path: DriverPath, horizon: float, hit_tolerance=None,
                         beta: float = 2.0, record_trajectory: bool = False):
    """Evolve many tracked points along one sampled driver path.

    The driver is held constant between grid points (its cadlag value), the
    drift part of each interval is applied exactly, and the grid-step driver
    increment lands at the step's right endpoint.  Each step computes the
    live lanes only; a lane's outcome is written when it dies, and depends on
    its own point and tolerance only, at every beta.  Returns a
    :class:`LaneResult` (and a trajectory array when requested: columns
    t, Re h, Im h, U for the first lane, frozen once it dies).
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    if np.any(z0 == 0):
        raise ConfigError("tracked points must be nonzero")
    if np.any(z0.imag < 0):
        raise ConfigError("tracked points must lie in the closed upper half-plane")
    if not 1.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (1,2], got {beta}")
    if not horizon > 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if path.horizon < horizon - 1e-12:
        raise ConfigError(f"path horizon {path.horizon} shorter than requested {horizon}")

    n = z0.size
    if hit_tolerance is None:
        delta = default_hit_tolerance(z0)
    else:
        delta = np.broadcast_to(np.asarray(hit_tolerance, dtype=float), (n,)).copy()
    if not np.all((0.0 < delta) & (delta < np.inf)):
        raise ConfigError("hit tolerance must be positive and finite")

    # state of the live lanes, in lane order (see _retire)
    state = np.empty((6, n))
    zeta, x, y, min_abs, lane, tol = state
    zeta[:] = np.nan
    x[:] = z0.real
    y[:] = z0.imag
    min_abs[:] = np.abs(z0)
    tol[:] = delta
    lane[:] = np.arange(n)
    out = np.empty((4, n))
    steps = np.empty(n, dtype=np.int64)

    grid = path.grid
    values = path.values
    continuous = path.has_brownian & ~path.jump_step_mask()
    traj = [(0.0, x[0], y[0], 0.0)] if record_trajectory else None

    it = 0
    for i in range(grid.size - 1):
        t0 = grid[i]
        if t0 >= horizon - 1e-15 or not lane.size:
            break
        it += 1
        t1 = min(grid[i + 1], horizon)
        full_step = grid[i + 1] <= horizon + 1e-15
        du = values[i + 1] - values[i]
        alive = np.ones(lane.size, dtype=bool)
        _drift_advance(x, y, t1 - t0, beta, t0, tol, zeta, min_abs, alive)
        _check_endpoint(x, y, t1, tol, zeta, min_abs, alive)
        if full_step and du != 0.0:
            _apply_increment(x, y, du, continuous[i], t1, tol, zeta, min_abs, alive)
        if record_trajectory:
            h = (x[0], y[0]) if lane[0] == 0 else (out[1, 0], out[2, 0])
            traj.append((t1, *h, values[i + 1] if full_step else values[i]))
        if not alive.all():
            state, done = _retire(state, alive, out)
            steps[done] = it
            zeta, x, y, min_abs, lane, tol = state
    _, done = _retire(state, np.zeros(lane.size, dtype=bool), out)
    steps[done] = it
    res = LaneResult(z0, *out, steps, delta)

    if record_trajectory:
        return res, np.asarray(traj)
    return res


# ---------------------------------------------------------------------------
# engine B: independent-replica adaptive Monte Carlo
# ---------------------------------------------------------------------------

def _live_draws(blocks, cut, dt=None):
    """Per-lane raw variates of the live lanes, drawn block by block.

    ``blocks[b]`` is block b's (stream, draws), and its live lanes are the
    positions ``cut[b]:cut[b + 1]`` of the live-lane arrays (lanes in
    ascending order, so ``cut`` is a ``searchsorted`` of the block bounds).
    Every block with a live lane calls each of its ``draw(rng, m, dt_block)``
    once, in order, with m its live-lane count and ``dt_block`` its slice of
    ``dt`` (None when ``dt`` is).  A draw returns m variates; each draw's
    variates are concatenated in lane order, so one map can then turn them
    into increments for all live lanes at once, while a block's stream
    advances by its own live lanes only.
    """
    out = [[] for _ in blocks[0][1]]
    for (rng, draws), lo, hi in zip(blocks, cut[:-1], cut[1:]):
        if lo == hi:
            continue
        dt_block = None if dt is None else dt[lo:hi]
        for parts, draw in zip(out, draws):
            parts.append(draw(rng, hi - lo, dt_block))
    return [parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in out]


def _counted(draw):
    """A block draw ``draw(rng, m, dt)`` of a ``draw(rng, m)`` that needs no dt."""
    return lambda rng, m, dt: draw(rng, m)


# An increment declares its per-block raw ``draws`` and maps their variates,
# concatenated over the live lanes, once per iteration.  Its timescale is
# |h|^tau_pow / coef; a loop holds coef per lane and passes it back to
# ``increments``.

class _IncBrownian:
    is_continuous = True
    tau_pow = 2.0
    draws = (lambda rng, m, dt: rng.standard_normal(m),)

    def __init__(self, comp: Brownian):
        self.coef = comp.kappa

    def increments(self, raw, dt, kappa):
        return np.sqrt(kappa * dt) * raw[0]


class _IncStable:
    is_continuous = False

    def __init__(self, comp: Stable):
        self.alpha = self.tau_pow = comp.alpha
        self.coef = comp.theta
        self.draws = tuple(_counted(d) for d in _stable_draws(comp.alpha))

    def increments(self, raw, dt, theta):
        return (theta * dt) ** (1.0 / self.alpha) * _stable_map(self.alpha, *raw)


class _IncTruncatedStable:
    """Its draw count depends on the data and on dt: drawn whole per block,
    from each live lane's dt."""

    is_continuous = False
    tau_pow = 2.0

    def __init__(self, comp: TruncatedStable):
        self.coef = truncated_stable_variance_rate(comp.alpha, comp.theta, comp.cutoff)
        self.draws = (lambda rng, m, dt: _truncated_stable_steps(comp, rng, dt)[0],)

    def increments(self, raw, dt, coef):
        return raw[0]


def _jump_clock(comp: CompoundPoisson):
    """The draws of a compound Poisson part.  Each iteration draws every live
    lane a fresh Exp(rate) wait (exact, as the law is memoryless) and a jump
    size; a wait shorter than the lane's step ends the step with the jump."""
    return (lambda rng, m, dt: rng.exponential(1.0 / comp.rate, m),
            lambda rng, m, dt: comp.jump_law.sample(rng, m))


def _compile_increments(spec: DriverSpec):
    """The increments and the jump clocks of a driver, in component order."""
    incs, clocks = [], []
    for comp in spec.components:
        if isinstance(comp, Brownian):
            if comp.kappa > 0:
                incs.append(_IncBrownian(comp))
        elif isinstance(comp, Stable):
            incs.append(_IncStable(comp))
        elif isinstance(comp, TruncatedStable):
            incs.append(_IncTruncatedStable(comp))
        elif isinstance(comp, CompoundPoisson):
            clocks.append(_jump_clock(comp))
        else:  # pragma: no cover
            raise ConfigError(f"unknown component {comp!r}")
    return incs, clocks


def _loop_key(spec: DriverSpec) -> str:
    """What the cells of one loop must share: every component parameter but
    Brownian kappa and stable theta, the only ones that enter an increment and
    its timescale as a factor that can be held per lane."""
    return repr([("Brownian", c.kappa > 0) if isinstance(c, Brownian)
                 else ("Stable", c.alpha) if isinstance(c, Stable) else c
                 for c in spec.components])


def _adaptive_tau(habs, beta, incs, coef):
    """Local timescale min(|h|^beta / (2 beta), tau_1(|h|), ...), where tau_j
    is the time over which component j's increment grows to the order of |h|
    (``coef[j]`` holds its coefficient per lane).  The adaptive step is
    dt_safety times this, which keeps every per-step displacement a fixed
    fraction of |h| at all scales.  A compound Poisson part has no timescale:
    its jump clock ends a step at the exact time of the jump."""
    tau = habs ** beta / (2.0 * beta)
    for inc, c in zip(incs, coef):
        np.minimum(tau, habs ** inc.tau_pow / c, out=tau)
    return tau


class Cell(NamedTuple):
    """One Monte Carlo cell: replicas of z0 under ``spec`` whose block b draws
    from the stream (master_seed, *tag, "block", b).  A hit tolerance of None
    is :func:`default_hit_tolerance` of z0."""

    spec: DriverSpec
    z0: complex
    tag: object
    hit_tolerance: float | None = None


def run_adaptive_mc(spec: DriverSpec, z0, n: int, horizon: float, *, master_seed: int,
                    tag, hit_tolerance: float | None = None, beta: float = 2.0,
                    dt_safety: float = 0.1, exit_radius: float | None = None) -> LaneResult:
    """n independent replicas of the evolution of z0 under fresh driver paths.

    Each replica's driver is realized on the fly along an adaptive grid:
    dt = dt_safety * min(|h|^beta / (2 beta), tau_1(|h|), ...) with
    0 < dt_safety < 1, where tau_j is component j's local timescale
    (:func:`_adaptive_tau`), clipped to [hit_tol^beta/16, 1e6] and to the
    time left before the horizon; increments are exact marginal draws per
    step.  A compound Poisson part ends a lane's step at its next jump (a
    fresh exponential wait per step), so its jumps land at their exact event
    times.  Replicas are grouped in blocks of :data:`BLOCK`, block b drawing
    from the stream (master_seed, *tag, "block", b); all blocks advance
    together, and each replica's outcome depends only on its own block's
    stream.  This is the one-cell case of :func:`run_adaptive_cells`.
    """
    return run_adaptive_cells([Cell(spec, z0, tag, hit_tolerance)], n, horizon,
                              master_seed=master_seed, beta=beta, dt_safety=dt_safety,
                              exit_radius=exit_radius)[0]


def run_adaptive_cells(cells: list[Cell], n: int, horizon: float, *, master_seed: int,
                       beta: float = 2.0, dt_safety: float = 0.1,
                       exit_radius: float | None = None) -> list[LaneResult]:
    """:func:`run_adaptive_mc` for n replicas of each :class:`Cell`, advanced
    in one lockstep loop; returns one result per cell, in order.

    The cells' drivers may differ in Brownian kappa and stable theta only
    (:func:`_loop_key`); the loop holds those coefficients, z0 and the hit
    tolerance per lane.  Each block keeps its (cell tag, block) stream, so
    every cell's result is the one it gets alone.
    """
    if not 1.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (1,2], got {beta}")
    if n < 1:
        raise ConfigError("n must be at least 1")
    if not horizon > 0:
        raise ConfigError("horizon must be positive")
    if not 0 < dt_safety < 1:
        raise ConfigError(f"dt_safety must lie in (0,1), got {dt_safety}")
    if len({_loop_key(c.spec) for c in cells}) != 1:
        raise ConfigError("the cells of one loop may differ in Brownian kappa and stable theta only")
    z0 = np.array([complex(c.z0) for c in cells])
    if np.any(z0 == 0):
        raise ConfigError("z0 must be nonzero")
    if np.any(z0.imag < 0):
        raise ConfigError("z0 must lie in the closed upper half-plane")
    tol = np.array([float(default_hit_tolerance(z) if c.hit_tolerance is None else c.hit_tolerance)
                    for z, c in zip(z0, cells)])
    if not np.all((0.0 < tol) & (tol < np.inf)):
        raise ConfigError("hit tolerance must be positive and finite")
    floor = [d ** beta / 16.0 for d in tol.tolist()]
    if min(floor) < 1e-14 * horizon:
        raise NumericalError(f"hit tolerance {tol.min()} gives step floor {min(floor)} below 1e-14*T; "
                             "refusing to underflow")

    k = len(cells)
    nb = -(-n // BLOCK)
    # replica i of cell c is lane c * stride + i, so lane // BLOCK is the
    # (cell, block) of a lane; each cell's last block may be partial
    stride = nb * BLOCK
    bounds = BLOCK * np.arange(k * nb + 1.0)  # block b's lanes lie in [bounds[b], bounds[b + 1])
    compiled = [_compile_increments(c.spec) for c in cells]
    incs, clocks = compiled[0]
    tags = [tuple(c.tag) if isinstance(c.tag, (tuple, list)) else (c.tag,) for c in cells]
    blocks = [(stream(master_seed, *tag, "block", b), [d for inc in ci for d in inc.draws])
              for tag, (ci, _) in zip(tags, compiled) for b in range(nb)]
    # per iteration each clock draws a (wait, jump size) pair per live lane from
    # the lane's block stream, before the draws that depend on the step
    clock_blocks = [(rng, [d for clk in clocks for d in clk]) for rng, _ in blocks]

    # state of the live lanes, in lane order (see _retire)
    state = np.empty((9 + len(incs), k * n))
    zeta, x, y, min_abs, exit_time, lane, t, delta, dt_floor, *coef = state
    zeta[:] = exit_time[:] = np.nan
    x[:] = np.repeat(z0.real, n)
    y[:] = np.repeat(z0.imag, n)
    min_abs[:] = np.repeat([abs(z) for z in z0.tolist()], n)
    t[:] = 0.0
    delta[:] = np.repeat(tol, n)
    dt_floor[:] = np.repeat(floor, n)
    lane[:] = (stride * np.arange(k)[:, None] + np.arange(n)).ravel()
    for row, c in zip(coef, zip(*([inc.coef for inc in ci] for ci, _ in compiled))):
        row[:] = np.repeat(c, n)
    out = np.empty((5, k * stride))  # zeta, x, y, min_abs, exit_time
    steps = np.empty(k * stride, dtype=np.int64)
    t_end = horizon * (1.0 - 1e-12)

    it = 0
    while lane.size:
        it += 1
        if it > _MAX_STEPS:
            raise NumericalError("adaptive evolution exceeded the step budget without resolving")
        # hypot(x, 0) is |x| to the bit, and far dearer; phase lanes stay on
        # the real axis
        dt = _adaptive_tau(np.hypot(x, y) if y.any() else np.abs(x), beta, incs, coef)
        dt *= dt_safety
        np.maximum(dt, dt_floor, out=dt)
        np.minimum(dt, horizon - t, out=dt)
        if horizon > _DT_MAX:  # else horizon - t is the tighter cap
            np.minimum(dt, _DT_MAX, out=dt)
        cut = lane.searchsorted(bounds).tolist()
        clock = _live_draws(clock_blocks, cut) if clocks else []
        waits, sizes = clock[::2], clock[1::2]
        for wait in waits:
            np.minimum(dt, wait, out=dt)
        raws = iter(_live_draws(blocks, cut, dt))

        alive = np.ones(lane.size, dtype=bool)
        _drift_advance(x, y, dt, beta, t, delta, zeta, min_abs, alive)
        t += dt  # the increments land at the step's end
        for inc, c in zip(incs, coef):
            raw = [next(raws) for _ in inc.draws]
            _apply_increment(x, y, inc.increments(raw, dt, c), inc.is_continuous, t,
                             delta, zeta, min_abs, alive)
        # a lane whose wait ended its step jumps at the step's end
        for wait, size in zip(waits, sizes):
            _apply_increment(x, y, np.where(wait == dt, size, 0.0), False, t,
                             delta, zeta, min_abs, alive)
        if exit_radius is not None:
            fresh = (alive & np.isnan(exit_time) & (np.hypot(x, y) >= exit_radius)).nonzero()[0]
            exit_time[fresh] = t[fresh]
        alive &= t < t_end

        if not alive.all():
            state, done = _retire(state, alive, out)
            # a hit lane stopped inside this iteration, a censored one after it
            steps[done] = it - 1 + np.isnan(out[0, done])
            zeta, x, y, min_abs, exit_time, lane, t, delta, dt_floor, *coef = state

    z0s, tols = np.repeat(z0, stride), np.repeat(tol, stride)
    return [LaneResult(z0s[sl], *out[:4, sl], steps[sl], tols[sl],
                       out[4, sl] if exit_radius is not None else None)
            for sl in (slice(c * stride, c * stride + n) for c in range(k))]
