"""Vectorized evolution kernels of the path API and the Monte Carlo estimators.

State per lane is h = x + iy in the closed upper half plane.  Between driver
increments h follows the pure drift

    dh/dt = 2 |h|^(2-beta) / h,      1 < beta <= 2,

which preserves c = x*y and moves u = x^2 - y^2 monotonically up:

    du/dt = 4 (u^2 + 4c^2)^((2-beta)/4),          |h|^2 = sqrt(u^2 + 4c^2).

For beta = 2 this integrates exactly (u -> u + 4 dt); for beta < 2 lanes on
the axes have the closed form |h|^beta linear in t and each off-axis lane
takes its own number of Runge-Kutta substeps on u.  The new h is then the
square root of u + 2ic on the upper branch, which at beta = 2 is exactly the
slit map h -> sqrt(h^2 + 4 dt); it is taken in real arithmetic, from one
square root of u^2 + 4c^2 rather than hypot, within 2 ulp of the exact root
in each part (:func:`_slit_root`).  A drift whose lanes all lie on the real
axis, at every beta, and a real-axis lane at beta < 2 instead set x from the
closed form in :func:`_axis_drift`: the root of x^2 + 4 dt at beta = 2 and
one power, x (1 + 2 beta dt / |x|^beta)^(1/beta), at beta < 2; engine B's
real-axis loops hand it the |x|^beta of their step rule.  A lane is
swallowed within a drift interval exactly when u crosses 0 with
sqrt(2|c|) <= delta.

Driver increments shift x at the end of a step, one sub-increment per part
of the driver, the continuous (Brownian) part first.  A hit is declared when
  * |h| <= delta after a sub-increment (a jump landing within tolerance of 0
    included), or
  * the continuous sub-increment flips the sign of x while y <= delta: the
    continuous path crossed zero inside the step.
A sign flip by a jump sub-increment is a jump over 0, never a hit.

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
holding per lane each such coefficient, and the hit tolerance, where its
cells differ.  Each block keeps a pool of finished variates per draw kind
(normals, exponential waits, jump sizes, and stable variates from
``standard_stable_sample``), which takes POOL fresh variates of each kind
from one call each on the block's own stream when it holds fewer than the
block has live lanes.  In each
iteration every block that has a live lane takes its live lanes' next
variates, in lane order, and each increment scales them over all live lanes
at once; a truncated stable part, whose draw count depends on the data and
on dt, draws its increments whole in every iteration.  A replica's result
therefore depends only on its own state and its block's stream, never on
the other blocks or cells.  A generator call and the stable map cost
microseconds whatever their width, so blocks are wide (BLOCK is 2048, and a
cell of every engine-B subcommand's default n (2000) is one block) and
pools wider: POOL is 8192, so most iterations, the narrow ones at the end
of a run among them, make no generator call.  Prefix stability holds at
block granularity: the first BLOCK replicas of a cell are the same for
every n >= BLOCK.

Both engines apply the hit rule above and differ in two ways only.  Engine
A also checks |h| <= delta after the drift, as the exact composer
``compose_piecewise_constant`` does, and engine B does not.  Engine A lands
a grid step's whole jump part (the path's increment less its continuous
part's) as one sub-increment, while engine B lands its stable and compound
Poisson parts as separate ones.

The flow kernels pay per event, not per lane.  Each runs a fixed number of
elementwise passes over the live lanes; past those, work scales with the
lanes something happened to, held as index sets: the candidates of a step's
box test (hit checks and flip rule) and the lanes whose u crosses 0 in the
drift (swallow bookkeeping).  A step with no candidate and no crossing does
no bookkeeping at all, and a step of real-axis lanes takes the closed form.

Both engines end a step in one kernel, :func:`_land_step`, which runs one box
test right after the drift.  The step's sub-increments move a lane's x by at
most the sum of their |d| (a scalar in engine A, one per lane in engine B),
so outside max(|x|, y) <= delta + sum |d| no check can hit (the box is
widened by 1.000001 for the rounding of the subtracts), and a lane there
takes the subtracts only.  The gathered candidates take the step's check
points in one elementwise pass each, with no further box test or index set.
An engine-B loop whose cells all start on the real axis keeps every lane
there until it dies (the drift keeps c = 0, and each sub-increment moves x
only), so it runs the real-axis kernels :func:`_axis_drift` and
:func:`_axis_increment` with the same bits; engine B rebuilds its block
bookkeeping only after a lane died.  Both engines hold the live state in
one array, one row per lane quantity, so that dropping the lanes that died
is one call, and write their outcome from one gather of their columns.
Engine B holds a per-cell input that every cell of the loop shares (the hit
tolerance, the step floor, the timescale divisor, an increment coefficient)
as a scalar, and a real-axis loop keeps no y, which stays +0.0 there.

Engine A holds the whole path in advance, so it also retires the zeta-only
lanes that the rest of the path can no longer hit.  For x > 0 every drift
raises u = x^2 - y^2 at fixed c: by 4 dt at beta = 2, by the real-axis
closed form, and by RK4 stages of positive slope at beta < 2.  As
x^2 = (u + |u + 2ic|) / 2 rises with u, the drift never lowers x, so
X = x + U never decreases while x > 0 (a sub-increment moves U, not X).  Let
[lo_i, hi_i], 0 included, be the range relative to U at the end of grid
step i of the driver at every later check point: the later grid values and
the values after a continuous sub-increment, values[j] + d_cont[j].  A lane
with x > hi_i + delta then has x >= x_i - hi_i > delta at every later check
point, so |h| >= x > delta, x keeps its sign (no flip rule), and a swallow,
which needs |x| = y where u = 0, finds sqrt(2|c|) = sqrt(2) x > delta there.
The case x < lo_i - delta mirrors it.  This holds for any positive increment
of u, so it needs no RK4 accuracy.  After each full grid step but the last,
a zeta-only lane with |x - m_i| - delta > w_i + slack_i (m_i and w_i the
midpoint and half-width of [lo_i, hi_i]) is therefore retired as censored:
its zeta is NaN, as the full run gives it, and its x and y read NaN, as its
final h was not computed.

A zeta-only lane is also retired once it sits too high to reach its
tolerance by the horizon T.  It can die only at a check point with
y <= delta (a swallow needs sqrt(2|c|) = sqrt(2) y <= delta where u = 0), a
sub-increment moves x only, and the drift lowers y^beta at rate
2 beta (y/|h|)^beta <= 2 beta, with equality on the imaginary axis.  So
after each full grid step i but the last, a zeta-only lane with y > cap_i,

    cap_i^beta = (D^beta + (1 + 2^-5) 2 beta (T - t_i)) (1 + (N + 1) 2^-44),

D the largest tolerance and N the steps left, is retired as censored; the
test runs from the first cap below the highest zeta-only start height on,
as y never rises.  The 2^-5 covers RK4 at beta < 2: such a lane has
|h|^beta > 2 beta dt at every later step's start, so 4 dt / |h|^beta <
2 / beta and it takes at most 40 substeps (the cap is 64); over such a
step RK4 lowers y^beta by at most 1.0083 times 2 beta dt (measured over
beta in (1, 2], y^beta from 1 to 1e4 times 2 beta dt and every angle to the
imaginary axis; the worst sits next to that axis at beta near 1, where RK4
carries u through 0 too fast).  A step whose y ends above delta swallows
nothing: past a crossing of u = 0, y^2 <= |c|.  The last factor covers
rounding: a step lowers y^beta by at most about 32 u of itself (u = 2^-53)
beyond the bound, and a relative margin of 64 N u keeps y^beta above
delta^beta for N steps.

The slack of the range test covers rounding, in units u = 2^-53.  A later
grid step lowers x by at most 16 u of x (the drift's squares, sum, roots and
division about 12; each subtract 1), and the path's own differences
(d_cont, d_jump, the range, the midpoint) shift the reference by at most
8 u V per step, V the largest |values| or |continuous| of the steps run.
Over N steps left, with s = 16 N u, K <= 4 V bounding |lo_i| and |hi_i|,
and D the largest tolerance, a margin of 4 s (K + D) + 8 N u V suffices:
it exceeds s (x + K) + 8 N u V while x <= 3 (K + D), and beyond that
x - hi_i - delta > 2x/3 does.  That margin is at most
N (264 u V + 64 u D) <= N 2^-44 (V + D); slack_i takes N + 1 steps, the
test's own rounding counted: 1.4e-10 of V + D at 2,400 steps.
"""

from __future__ import annotations

import functools
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
    _truncated_stable_steps,
    standard_stable_sample,
    truncated_stable_variance_rate,
)
from .errors import ConfigError, NumericalError
from .rng import stream

# Replicas per stream block: one block per cell at the default n of 2000 (see
# the module docstring).
BLOCK = 2048
# Variates per refill of a block's pool of one draw kind (see _Pool); at
# least BLOCK, so that one refill serves any take.
POOL = 8192
# Lockstep iterations per Monte Carlo call, which last as long as its slowest
# lane in any block; guards against a stuck adaptive loop.
_MAX_STEPS = 20_000_000
# Upper clip of the adaptive Monte Carlo step.
_DT_MAX = 1e6
# Relative rate by which a grid step's drift may lower y^beta faster than
# 2 beta, the exact flow's bound, at beta < 2 (RK4's error; see the module
# docstring).
_RK4_LOSS = 2.0 ** -5

__all__ = ["BLOCK", "Cell", "LaneResult", "default_hit_tolerance", "evolve_lanes_on_path",
           "run_adaptive_cells"]


def default_hit_tolerance(z0) -> np.ndarray:
    """Spec default 1e-4 * (1 + |z0|)."""
    return 1e-4 * (1.0 + np.abs(z0))


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


def _check_start(z0, delta, beta):
    """Refuse what neither engine can evolve: beta outside (1, 2], a start
    point z0 that is not finite, is 0 or lies below the real axis, and a hit
    tolerance delta (resolved per lane) that is not positive and finite."""
    if not 1.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (1,2], got {beta}")
    if not np.isfinite(z0).all():
        raise ConfigError("z0 must be finite")
    if np.any(z0 == 0):
        raise ConfigError("z0 must be nonzero")
    if np.any(z0.imag < 0):
        raise ConfigError("z0 must lie in the closed upper half-plane")
    if not np.all((0.0 < delta) & (delta < np.inf)):
        raise ConfigError("hit tolerance must be positive and finite")


@dataclass
class LaneResult:
    """Per-lane outcome arrays of one evolution run: in either engine, a
    lane's zeta, its final h as x and y, and its step count.

    A zeta-only lane of engine A that the rest of the path could no longer
    hit was retired early: its zeta is NaN, its x and y read NaN (its final
    h was not computed) and ``steps`` counts the steps it took."""

    z0: np.ndarray
    zeta: np.ndarray        # hit time; NaN when censored
    x: np.ndarray           # final h (meaningful for censored lanes; NaN once retired)
    y: np.ndarray
    steps: np.ndarray       # grid or loop steps the lane took
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

def _slit_root(u, c, x, y):
    """Set x + iy to the root of u + 2ic on the upper branch: y >= +0 and x
    keeps its sign.  At beta = 2 this is the slit map h -> sqrt(h^2 + 4 dt).

    The root is taken in real arithmetic, in the form of the platform's
    complex square root of u + 2i|c|: with d = sqrt(u*u + 4c^2), the larger
    part is big = sqrt((d + |u|) / 2) and the smaller (2|c| / big) / 2, and
    the real part is the larger one when u > 0.  d is not ``np.hypot``,
    which rescales and corrects at four times the cost; each part stays
    within 2 ulp of the exact root (checked against 200-bit arithmetic over
    scales 1e-150 to 1e150, where the complex root errs as much), but may
    differ from ``np.sqrt`` of u + 2i|c| in its last bits.  Lanes with u = 0
    take the complex root, and so does every lane when some |u| or 2|c|
    exceeds 1e150 or some d falls below 1e-140: inside those bounds no
    square overflows, and a square that underflows is below the rounding of
    d."""
    a = np.abs(c)
    a *= 2.0
    lo = u.min()
    if not (-lo <= 1e150 and u.max() <= 1e150 and a.max() <= 1e150):
        _complex_root(u, c, x, y)
        return
    big = u * u
    big += np.square(a)
    np.sqrt(big, out=big)
    if not big.min() >= 1e-140:
        _complex_root(u, c, x, y)
        return
    pos = lo > 0.0
    big += u if pos else np.abs(u)
    big *= 0.5
    np.sqrt(big, out=big)
    small = np.divide(a, big, out=a)
    small *= 0.5
    if pos:
        np.copysign(big, x, out=x)
        y[:] = small
    else:  # the imaginary part is the larger one where u < 0
        neg = u < 0.0
        np.copysign(np.where(neg, small, big), x, out=x)
        y[:] = np.where(neg, big, small)
        zero = (u == 0.0).nonzero()[0]
        if zero.size:
            x_zero, y_zero = x[zero], y[zero]
            _complex_root(u[zero], c[zero], x_zero, y_zero)
            x[zero], y[zero] = x_zero, y_zero


def _complex_root(u, c, x, y):
    """:func:`_slit_root` by the complex square root."""
    w = np.empty(u.shape, dtype=complex)
    w.real = u
    np.abs(c, out=w.imag)
    w.imag *= 2.0
    np.sqrt(w, out=w)
    np.copysign(w.real, x, out=x)
    y[:] = w.imag


def _at(a, idx):
    """``a[idx]`` for a per-lane array, ``a`` itself for a scalar."""
    return a[idx] if isinstance(a, np.ndarray) else a


def _drift_advance(x, y, dt, beta, t, delta, zeta, alive):
    """Advance the drift of every lane by dt > 0 from time t; mark swallowed
    lanes dead.

    Every lane must be live on entry; dt, t and delta are per-lane arrays or
    scalars.  Mutates x, y, zeta, alive (a swallowed lane keeps its
    pre-drift x, y).  For beta < 2 each off-axis lane takes its own RK4
    substep count, so its result depends on its own state only.  Beyond the
    elementwise update, work scales with the lanes that cross u = 0: the
    crossing and swallow bookkeeping runs only when some lane crosses, which
    a real-axis lane never does, and the beta < 2 axis and off-axis groups
    are updated by index when some lane sits on an axis.
    """
    u0 = x * x - y * y
    c = x * y
    crossings = []  # (lanes, time into the step at which u crosses 0)
    x_ra = None  # the new x of the real-axis lanes among others

    if beta == 2.0:
        u1 = u0 + 4.0 * dt
        neg = u0 < 0
        if np.count_nonzero(neg):
            cr = (neg & (u1 >= 0)).nonzero()[0]
            crossings.append((cr, -u0[cr] * 0.25))
        elif not np.count_nonzero(c):  # every lane on the real axis
            _axis_drift(x, dt, beta)
            y[:] = 0.0
            return
    elif not np.count_nonzero(c == 0.0):  # every lane off the axes
        u1 = _rk4_drift(u0, c, dt, beta, None, crossings)
    else:
        on_axis = c == 0.0
        # real axis: the closed form of _axis_drift, which sets x directly
        ra = (on_axis & (u0 > 0)).nonzero()[0]
        if ra.size == u0.size:
            _axis_drift(x, dt, beta)
            y[:] = 0.0
            return
        u1 = _rk4_drift(u0, c, dt, beta, (~on_axis).nonzero()[0], crossings)  # u0 on the axes
        if ra.size:
            x_ra = x[ra]
            _axis_drift(x_ra, _at(dt, ra), beta)
        # imaginary axis: y^beta shrinks linearly; crossing time is exact
        ia = (on_axis & (u0 < 0)).nonzero()[0]
        if ia.size:
            m0 = (-u0[ia]) ** (beta / 2.0)
            m = m0 - 2.0 * beta * _at(dt, ia)
            hit_ax = m <= 0.0
            u1[ia] = np.where(hit_ax, 0.0, -np.maximum(m, 0.0) ** (2.0 / beta))
            crossings.append((ia[hit_ax], m0[hit_ax] / (2.0 * beta)))

    dead = None
    if crossings:
        cr, s_cr = crossings[0] if len(crossings) == 1 else map(np.concatenate, zip(*crossings))
        if cr.size:
            # a lane whose u crosses 0 passes |h| = sqrt(2|c|) inside the step
            swallowed = np.sqrt(2.0 * np.abs(c[cr])) <= _at(delta, cr)
            dead = cr[swallowed]
            zeta[dead] = _at(t, dead) + s_cr[swallowed]
            alive[dead] = False
            x_dead, y_dead = x[dead], y[dead]
    _slit_root(u1, c, x, y)  # c = 0 gives y = 0 on the real axis
    if x_ra is not None:
        x[ra] = x_ra
    if dead is not None:
        x[dead], y[dead] = x_dead, y_dead


def _axis_drift(x, dt, beta, xb=None):
    """:func:`_drift_advance` on the real axis, where x*x > 0 and c = 0: x
    takes the real closed form, no lane is swallowed and only x moves.

    At beta = 2, u = x*x grows by 4 dt and x is its root.  At beta < 2,
    |x|^beta grows linearly at rate 2 beta, so with w = 2 beta dt

        x <- copysign((|x|^beta + w)^(1/beta), x) = x (1 + w / |x|^beta)^(1/beta),

    one power besides |x|^beta.  The rounding of the exponent 1/beta adds a
    relative error that grows with |ln| of the power's base, so the lanes
    with w <= 2 |x|^beta take the factored form, whose base lies in [1, 3]
    (within about 2 ulp of the exact flow), and the others take the sum,
    which also serves where |x|^beta underflows.  A caller that knows that
    no lane has w > 2 |x|^beta passes ``xb``, |x|^beta to the bits of
    ``np.power(|x|, beta)`` (it is overwritten), and skips that test: engine
    B's real-axis loops, whose step rule has taken the power.  The general
    drift runs every lane set that lies wholly on the real axis through this
    function, at every beta, and its real-axis lanes among others at
    beta < 2, so a lane's bits do not depend on the drift path."""
    if beta == 2.0:
        u = x * x
        u += 4.0 * dt
        np.copysign(np.sqrt(u, out=u), x, out=x)
        return
    w = 2.0 * beta * dt
    far = ()
    if xb is None:
        xb = np.power(np.abs(x), beta)
        far = (2.0 * xb < w).nonzero()[0]
        if len(far):
            x_far = np.copysign(np.power(xb[far] + _at(w, far), 1.0 / beta), x[far])
            xb[far] = _at(w, far)  # a finite factored base; x is set below
    np.divide(w, xb, out=xb)
    xb += 1.0
    np.power(xb, 1.0 / beta, out=xb)
    x *= xb
    if len(far):
        x[far] = x_far


def _rk4_drift(u0, c, dt, beta, sub, crossings):
    """u at the end of the step: u0 on every lane but the off-axis lanes
    ``sub`` (None: every lane), which each take their own RK4 substep count;
    append their crossings of u = 0 to ``crossings``."""
    whole = sub is None
    u, cs, dts = (u0, c, dt) if whole else (u0[sub], c[sub], _at(dt, sub))
    # substep count from the relative motion rel of |h|^2 over the step.
    # rel <= 0.05 (one substep) once |h|^2 >= (80 dt)^(2 / beta), and |h|^2 =
    # hypot(u0, 2c) >= max(|u0|, 2|c|): a lane whose bound clears that by a
    # margin far above rounding skips the hypot and the power
    bound = np.maximum(np.abs(u), 2.0 * np.abs(cs))
    many = (bound < 1.000001 * (80.0 * np.max(dt)) ** (2.0 / beta)).nonzero()[0]
    h = dts
    if many.size:
        rel = 4.0 * np.hypot(u[many], 2.0 * cs[many]) ** (-beta / 2.0) * _at(dts, many)
        nsub = np.minimum(np.maximum(np.ceil(rel / 0.05), 1), 64)
        h = np.array(np.broadcast_to(dts, u.shape))
        h[many] /= nsub
    c2 = 4.0 * cs * cs
    pow_ = (2.0 - beta) / 4.0

    def substep(k, lanes, u_lo, h, cw):
        """RK4 substep k of the lanes ``lanes`` (None: all).

        A stage takes g = (v*v + cw)^pow_, the slope du/dt over 4; the 4 and
        the 1/2 ride on the step scalars 2h, 4h and 4 fl(h/6) instead.  Those
        scalings by powers of two are exact (and 4g cannot overflow, as
        g <= DBL_MAX^(1/4)), so every product, and u_hi, keeps the bits of the
        slope's form u_lo + h/6 (k1 + 2k2 + 2k3 + k4) with k = 4g."""
        h2, h4, h6 = 2.0 * h, 4.0 * h, 4.0 * (h / 6.0)
        g, v, acc = np.empty_like(u_lo), np.empty_like(u_lo), np.zeros_like(u_lo)
        arg = u_lo
        for scale, weight in ((h2, 1.0), (h2, 2.0), (h4, 2.0), (None, 1.0)):
            np.multiply(arg, arg, out=g)
            g += cw
            np.power(g, pow_, out=g)
            if scale is not None:  # the next stage's argument
                arg = np.multiply(scale, g, out=v)
                arg += u_lo
            if weight != 1.0:
                g *= weight
            acc += g  # ((g1 + 2 g2) + 2 g3) + g4
        acc *= h6
        u_hi = np.add(u_lo, acc, out=acc)
        # u only increases, so a lane crosses 0 in one substep at most
        just = ((u_lo < 0) & (u_hi >= 0)).nonzero()[0]
        if just.size:
            frac = -u_lo[just] / np.maximum(u_hi[just] - u_lo[just], 1e-300)
            crossings.append((just if lanes is None else lanes[just], (k + frac) * _at(h, just)))
        return u_hi

    # the first substep over every lane without a gather, then the lanes that
    # take more, in descending count order: the lanes still stepping at
    # substep k are the first width[k - 1]
    u_hi = substep(0, sub, u, h, c2)
    if many.size and nsub.max() > 1:
        more = nsub > 1
        nsub = nsub[more]
        order = np.argsort(-nsub)
        nsub, more = nsub[order], many[more][order]
        width = np.searchsorted(-nsub, -np.arange(2, nsub[0] + 1), side="right")
        lanes, u_m, h_m, c_m = more if whole else sub[more], u_hi[more], h[more], c2[more]
        for k, w in enumerate(width.tolist(), start=1):
            u_m[:w] = substep(k, lanes, u_m[:w], h_m[:w], c_m[:w])
        u_hi[more] = u_m
    if whole:
        return u_hi
    u1 = u0.copy()
    u1[sub] = u_hi
    return u1


def _axis_increment(x, du, is_continuous, t_now, delta, zeta, alive, died):
    """One check point of :func:`_land_step` on the real axis: shift x by -du
    on the live lanes and run the checks at t_now, given whether a lane died
    earlier in the step (it keeps its x and zeta at t_now, so one pass of
    |h| = hypot(x, 0) = |x| checks all lanes); returns whether one has.  As
    y = 0 <= delta, x * sign(x before) <= delta is the flip rule or
    |x| <= delta."""
    if is_continuous:
        s = np.sign(x)
    if died:
        np.subtract(x, du, out=x, where=alive)
    else:
        x -= du
    hit = (x * s if is_continuous else np.abs(x)) <= delta
    if not np.count_nonzero(hit):
        return died
    np.copyto(zeta, t_now, where=hit)
    alive[hit] = False
    return True


def _land_step(x, y, subs, t1, delta, zeta, alive):
    """The end of a step at t1, after the drift: the check points ``subs`` in
    order, each a pair (d, continuous).  d None checks |h| where it is;
    otherwise d, a numpy scalar or one value per lane, is a sub-increment that
    moves x by -d before its check, with the flip rule when ``continuous``.
    t1 and delta are scalars or one value per lane.  Mutates x, zeta, alive.

    One box test finds the candidates, the lanes within
    max(|x|, y) <= (delta + sum |d|) * 1.000001 (see the module docstring),
    and every other lane takes the subtracts only.  The candidates take the
    check points in turn, one pass each: the lanes still live die at
    |h| <= delta (or by the flip rule) and keep the x of the check that
    stopped them."""
    box = np.abs(x)
    np.maximum(box, y, out=box)
    reach = 0.0  # how far the step's sub-increments move x
    for d, _ in subs:
        if d is not None:
            reach = reach + abs(d)
    wide = delta + reach  # a new value: delta is the caller's, never written
    wide *= 1.000001  # covers the rounding of the subtracts
    cand = (box <= wide).nonzero()[0]
    del box, wide, reach  # freed before the gathers
    if cand.size:
        cx, cy, ct, was = x[cand], y[cand], _at(delta, cand), alive[cand]
    # lanes swallowed in the drift keep their place
    where = True if alive.all() else alive
    for d, _ in subs:
        if d is not None:
            np.subtract(x, d, out=x, where=where)
    if not cand.size:
        return
    live = was.copy()
    habs = np.empty(cand.size)
    keep = np.empty(cand.size, dtype=bool)
    for d, continuous in subs:
        if d is not None:
            if d.ndim:
                d = d[cand]
            if continuous:
                # x - d has the sign of the exact difference, so x changes
                # sign exactly when it lies strictly between 0 and d
                lo, hi = ((np.minimum(d, 0.0), np.maximum(d, 0.0)) if d.ndim
                          else (0.0, d) if d > 0.0 else (d, 0.0))
                no_flip = (cx <= lo) | (cx >= hi) | (cy > ct)
            np.subtract(cx, d, out=cx, where=live)
        np.hypot(cx, cy, out=habs)
        np.greater(habs, ct, out=keep)
        if continuous:
            keep &= no_flip
        live &= keep
    x[cand] = cx
    dead = cand[was != live]
    if dead.size:
        zeta[dead] = _at(t1, dead)
        alive[dead] = False


def _retire(state, alive, out):
    """Write the outcome of the lanes that died into ``out`` and drop them.

    ``state`` holds the live lanes, one row per quantity and one column per
    lane: first the rows of ``out``, then the lane index (exact as a float).
    One gather takes the dead lanes' columns of those rows, whose outcome
    rows go into ``out`` at their lane index; returns the state of the live
    lanes, the lane indices of the dead ones and their outcome columns."""
    k = len(out)
    dead = state[:k + 1].take((~alive).nonzero()[0], axis=1)
    done = dead[k].astype(np.intp)
    for row, outcome in zip(out, dead):
        row[done] = outcome
    return state.compress(alive, axis=1), done, dead[:k]


# ---------------------------------------------------------------------------
# engine A: lanes sharing one concrete path
# ---------------------------------------------------------------------------

def _reach_bounds(path: DriverPath, horizon: float, n_steps: int, tol_max: float, beta: float):
    """Per grid step i < n_steps - 1 of a run, the midpoint m_i and the
    half-width plus slack w_i + slack_i of the range [lo_i, hi_i], relative
    to U at the end of step i, of the driver at every later check point of
    the run, and the height cap above which a lane can no longer reach its
    tolerance (see the module docstring)."""
    values, d_cont = path.values[:n_steps + 1], path.increments()[0][:n_steps]
    after = values[:-1] + d_cont  # the driver after a continuous sub-increment
    hi = np.maximum(np.maximum(values[:-1], values[1:]), after)
    lo = np.minimum(np.minimum(values[:-1], values[1:]), after)
    if path.grid[n_steps] > horizon + 1e-15:  # a partial last step lands nothing
        hi[-1] = lo[-1] = values[-2]
    hi = np.maximum.accumulate(hi[:0:-1])[::-1]  # over the steps after step i
    lo = np.minimum.accumulate(lo[:0:-1])[::-1]
    size = max(np.abs(values).max(), np.abs(path.continuous[:n_steps + 1]).max()) + tol_max
    left = np.arange(n_steps, 1, -1)  # the steps after step i, plus one
    slack = left * (2.0 ** -44 * size)
    fall = (1.0 + _RK4_LOSS) * 2.0 * beta * (horizon - path.grid[1:n_steps])
    cap = ((tol_max ** beta + fall) * (1.0 + left * 2.0 ** -44)) ** (1.0 / beta)
    return 0.5 * (hi + lo) - values[1:-1], 0.5 * (hi - lo) + slack, cap


def evolve_lanes_on_path(z0, path: DriverPath, horizon: float, hit_tolerance=None,
                         beta: float = 2.0, record_trajectory: bool = False, zeta_only=False):
    """Evolve many tracked points along one sampled driver path.

    The driver is held constant between grid points (its cadlag value), the
    drift part of each interval is applied exactly, and the step's increment
    lands at its right endpoint as two sub-increments: the continuous part's,
    then the jump part's (:meth:`DriverPath.increments`).  Each step computes
    the live lanes only; a lane's outcome is written when it dies, and depends
    on its own point and tolerance only, at every beta.  Returns a
    :class:`LaneResult` (and a trajectory array when requested: columns
    t, Re h, Im h, U for the first lane, frozen once it dies).

    ``zeta_only`` (a bool, or one per lane) marks the lanes whose final h
    nobody reads.  Once the rest of the path can no longer hit one (it lies
    beyond the driver's later range, or too high to fall to its tolerance by
    the horizon), it is retired as censored, with x and y NaN and ``steps``
    the steps it took (see the module docstring); its zeta and hit equal the
    full run's bit for bit.  The other lanes keep every output.
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    n = z0.size
    if hit_tolerance is None:
        delta = default_hit_tolerance(z0)
    else:
        delta = np.broadcast_to(np.asarray(hit_tolerance, dtype=float), (n,)).copy()
    _check_start(z0, delta, beta)
    if not horizon > 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if path.horizon < horizon - 1e-12:
        raise ConfigError(f"path horizon {path.horizon} shorter than requested {horizon}")
    zeta_only = np.asarray(zeta_only)
    if zeta_only.dtype != bool or zeta_only.shape not in ((), (n,)):
        raise ConfigError("zeta_only must be a bool or one bool per lane")
    zeta_only = np.broadcast_to(zeta_only, (n,))

    grid = path.grid
    values = path.values
    d_cont, d_jump = path.increments()
    n_steps = int(np.count_nonzero(grid[:-1] < horizon - 1e-15))
    retiring = zeta_only.any() and n_steps > 1
    if retiring:
        mid, half, cap = _reach_bounds(path, horizon, n_steps, delta.max(), beta)
        # y never rises, so the height test runs from the first cap below
        # the highest zeta-only start on (the caps fall with i)
        high = int(np.count_nonzero(cap >= z0.imag[zeta_only].max()))
        dist, near = np.empty(n), np.empty(n, dtype=bool)  # the tests' buffers

    # state of the live lanes, in lane order (see _retire); with a last row
    # when only some lanes are zeta-only: their reach, delta or +inf
    state = np.empty((5 + (retiring and not zeta_only.all()), n))
    zeta, x, y, lane, tol, *reach = state
    zeta[:] = np.nan
    x[:] = z0.real
    y[:] = z0.imag
    tol[:] = delta
    lane[:] = np.arange(n)
    if reach:
        reach[0][:] = np.where(zeta_only, delta, np.inf)
    out = np.empty((3, n))
    steps = np.empty(n, dtype=np.int64)
    traj = [(0.0, x[0], y[0], 0.0)] if record_trajectory else None

    it = 0
    for i in range(grid.size - 1):
        t0 = grid[i]
        if t0 >= horizon - 1e-15 or not lane.size:
            break
        it += 1
        t1 = min(grid[i + 1], horizon)
        full_step = grid[i + 1] <= horizon + 1e-15
        alive = np.ones(lane.size, dtype=bool)
        _drift_advance(x, y, t1 - t0, beta, t0, tol, zeta, alive)
        subs = [(None, False)]  # the check after the drift, then the sub-increments that move x
        if full_step:
            if d_cont[i] != 0.0:
                subs.append((d_cont[i], True))
            if d_jump[i] != 0.0:
                subs.append((d_jump[i], False))
        _land_step(x, y, subs, t1, tol, zeta, alive)
        if record_trajectory:
            h = (x[0], y[0]) if lane[0] == 0 else (out[1, 0], out[2, 0])
            traj.append((t1, *h, values[i + 1] if full_step else values[i]))
        if retiring and i < n_steps - 1:
            # |x - m_i| - delta > w_i + slack_i: out of reach of the later path
            d, keep = dist[:lane.size], near[:lane.size]
            np.subtract(x, mid[i], out=d)
            np.abs(d, out=d)
            d -= reach[0] if reach else tol
            np.less_equal(d, half[i], out=keep)
            alive &= keep
            if i >= high:  # y > cap_i: too high to reach the tolerance by T
                np.less_equal(y, cap[i], out=keep)
                if reach:  # the lanes that are not zeta-only stay
                    keep |= reach[0] == np.inf
                alive &= keep
        if not alive.all():
            state, done, dead = _retire(state, alive, out)
            steps[done] = it
            if retiring:  # the retired lanes are the censored ones that died
                out[1:3, done[np.isnan(dead[0])]] = np.nan
            zeta, x, y, lane, tol, *reach = state
    _, done, _ = _retire(state, np.zeros(lane.size, dtype=bool), out)
    steps[done] = it
    res = LaneResult(z0, *out, steps, delta)

    if record_trajectory:
        return res, np.asarray(traj)
    return res


# ---------------------------------------------------------------------------
# engine B: independent-replica adaptive Monte Carlo
# ---------------------------------------------------------------------------

class _Pool:
    """The variates of one block's draws, one row per draw, in draw order.

    A draw is a pair (draw, whole).  A pooled draw, ``draw(rng, size)``,
    makes finished variates ahead: when the pool holds fewer than a take asks
    for, it keeps what is left and appends :data:`POOL` fresh variates of
    each pooled draw, in draw order, from one call each on the block's
    stream.  A ``whole`` draw, ``draw(rng, dt)``, makes the variates of the
    block's live lanes from their dt at every take instead."""

    def __init__(self, rng, draws):
        self.rng, self.kinds = rng, len(draws)
        self.rows = [j for j, (_, whole) in enumerate(draws) if not whole]
        self.pooled = [draw for draw, whole in draws if not whole]
        self.whole = [(j, draw) for j, (draw, whole) in enumerate(draws) if whole]
        self.buf, self.pos = np.empty((len(self.rows), 0)), 0

    def take(self, m, dt):
        """The next m variates of each draw; a view of the pool when every
        draw is pooled."""
        pos = self.pos
        if self.buf.shape[1] - pos < m:
            left = self.buf.shape[1] - pos
            buf = np.empty((len(self.rows), left + POOL))
            buf[:, :left] = self.buf[:, pos:]
            for row, draw in zip(buf[:, left:], self.pooled):
                row[:] = draw(self.rng, POOL)
            self.buf, pos = buf, 0
        self.pos = pos + m
        raw = self.buf[:, pos:pos + m]
        if self.whole:
            out = np.empty((self.kinds, m))
            out[self.rows] = raw
            for j, draw in self.whole:
                out[j] = draw(self.rng, dt)
            raw = out
        return raw


def _draw_plan(blocks, lane, bounds):
    """What :func:`_live_draws` draws for the ascending live lanes ``lane``:
    their count, and (pool, lo, hi) for each block b (of lanes
    [bounds[b], bounds[b + 1]), with the :class:`_Pool` ``blocks[b]``) whose
    live lanes ``lane[lo:hi]`` exist."""
    cut = lane.searchsorted(bounds).tolist()
    return lane.size, [(pool, lo, hi) for pool, lo, hi in zip(blocks, cut[:-1], cut[1:]) if lo < hi]


def _live_draws(plan, dt=None):
    """The variates of the live lanes, one row per draw, taken block by block
    from the pools that ``plan`` (:func:`_draw_plan`) lists.

    Each live block takes its live lanes' next variates from its pool, so a
    block's stream advances by its own live lanes only, and a generator call
    comes only with a refill of POOL variates.  When one block is live its
    take is returned as it is (a view of its pool); otherwise each block's
    take is copied into its columns of one array over all live lanes.
    ``dt`` is the live lanes' step, which a whole draw reads.
    """
    m, live = plan
    if len(live) == 1:
        return live[0][0].take(m, dt)
    out = np.empty((live[0][0].kinds, m))
    for pool, lo, hi in live:
        out[:, lo:hi] = pool.take(hi - lo, None if dt is None else dt[lo:hi])
    return out


# An increment declares one ``draw`` (see _Pool) and maps the variates of all
# live lanes to increments once per iteration.  Its timescale is
# |h|^tau_pow / coef; a loop holds coef per lane and passes it back to
# ``increments``.

class _IncBrownian:
    is_continuous = True
    tau_pow = 2.0

    def __init__(self, comp: Brownian):
        self.coef = comp.kappa
        self.draw = (np.random.Generator.standard_normal, False)

    def increments(self, raw, dt, kappa):
        return np.sqrt(kappa * dt) * raw


class _IncStable:
    is_continuous = False

    def __init__(self, comp: Stable):
        self.alpha = self.tau_pow = comp.alpha
        self.coef = comp.theta
        # the module's binding, read when the increment is compiled, so a
        # wrapper bound in its place sees every refill
        self.draw = (functools.partial(standard_stable_sample, comp.alpha), False)

    def increments(self, raw, dt, theta):
        x = (theta * dt) ** (1.0 / self.alpha)
        x *= raw
        return x


class _IncTruncatedStable:
    """Its draw count depends on the data and on dt: drawn whole per block in
    every iteration, from each live lane's dt."""

    is_continuous = False
    tau_pow = 2.0

    def __init__(self, comp: TruncatedStable):
        self.coef = truncated_stable_variance_rate(comp.alpha, comp.theta, comp.cutoff)
        self.draw = (lambda rng, dt: _truncated_stable_steps(comp, rng, dt)[0], True)

    def increments(self, raw, dt, coef):
        return raw


def _jump_clock(comp: CompoundPoisson):
    """The draws of a compound Poisson part.  Each iteration takes every live
    lane a fresh Exp(rate) wait (exact, as the law is memoryless; a standard
    exponential the loop scales by 1 / rate) and a jump size; a wait shorter
    than the lane's step ends the step with the jump."""
    return ((np.random.Generator.standard_exponential, False), (comp.jump_law.sample, False))


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
            clocks.append(comp)
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


def _adaptive_tau(habs, hb, beta, incs, coef, div):
    """Local timescale min(|h|^beta / (2 beta), tau_1(|h|), ...), where tau_j
    is the time over which component j's increment grows to the order of |h|
    (``hb`` is |h|^beta; ``coef[j]`` is component j's coefficient and ``div``
    folds the terms in |h|^beta, see run_adaptive_cells, each a scalar or one
    value per lane).  The
    adaptive step is dt_safety times this, which keeps every per-step
    displacement a fixed fraction of |h| at all scales.  A compound Poisson
    part has no timescale: its jump clock ends a step at the exact time of
    the jump."""
    tau = np.divide(hb, div)
    for inc, c in zip(incs, coef):
        if inc.tau_pow != beta:
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


def run_adaptive_cells(cells: list[Cell], n: int, horizon: float, *, master_seed: int,
                       beta: float = 2.0, dt_safety: float = 0.1,
                       exit_radius: float | None = None) -> list[LaneResult]:
    """n independent replicas of the evolution of each :class:`Cell`'s z0
    under fresh driver paths, advanced in one lockstep loop; returns one
    result per cell, in order.

    Each replica's driver is realized on the fly along an adaptive grid:
    dt = dt_safety * min(|h|^beta / (2 beta), tau_1(|h|), ...) with
    0 < dt_safety < 1, where tau_j is component j's local timescale
    (:func:`_adaptive_tau`), clipped to [hit_tol^beta/16, 1e6] and to the
    time left before the horizon; increments are exact marginal draws per
    step.  A compound Poisson part ends a lane's step at its next jump (a
    fresh exponential wait per step), so its jumps land at their exact event
    times.  Replicas are grouped in blocks of :data:`BLOCK`, block b of a
    cell drawing from the stream (master_seed, *tag, "block", b); all blocks
    advance together, and each replica's outcome depends only on its own
    block's stream.  Given ``exit_radius``, a lane's exit_time is the end of
    its first step with |h| >= exit_radius.  One cell's result is
    ``run_adaptive_cells([cell], ...)[0]``.

    The cells' drivers may differ in Brownian kappa and stable theta only
    (:func:`_loop_key`).  Each block keeps its (cell tag, block) stream, so
    every cell's result is the one it gets alone.  The loop's state holds one
    row per lane quantity: zeta, x, y, exit_time when it is tracked, the lane
    index and t, and each per-cell input that differs between the cells (the
    hit tolerance, the step floor hit_tol^beta/16, the divisor of
    :func:`_adaptive_tau` and each increment coefficient); an input that every
    cell shares is a scalar.  When every z0 is real the lanes never leave the
    real axis: the loop runs real-axis kernels to the same bits and keeps no
    y row (y is +0.0, and |h| = hypot(x, 0) = |x|); the live blocks and mask
    are rebuilt only after a death, whose lanes' outcome is written from one
    gather (:func:`_retire`).  A lane keeps the state of an engine-A lane,
    zeta, x, y and its step count, and no lane is retired early.
    """
    n = _integral_count(n, "n")
    if n < 1:
        raise ConfigError("n must be at least 1")
    if not 0 < horizon < np.inf:
        raise ConfigError(f"horizon must be positive and finite, got {horizon}")
    if not 0 < dt_safety < 1:
        raise ConfigError(f"dt_safety must lie in (0,1), got {dt_safety}")
    if exit_radius is not None and not exit_radius > 0:
        raise ConfigError(f"exit_radius must be positive, got {exit_radius}")
    if not cells:
        raise ConfigError("run_adaptive_cells needs at least one cell")
    if len({_loop_key(c.spec) for c in cells}) != 1:
        raise ConfigError("the cells of one loop may differ in Brownian kappa and stable theta only")
    z0 = np.array([complex(c.z0) for c in cells])
    tol = np.array([float(default_hit_tolerance(z) if c.hit_tolerance is None else c.hit_tolerance)
                    for z, c in zip(z0, cells)])
    _check_start(z0, tol, beta)
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
    streams = [(stream(master_seed, *tag, "block", b), ci) for tag, (ci, _) in zip(tags, compiled)
               for b in range(nb)]
    blocks = [_Pool(rng, [inc.draw for inc in ci]) for rng, ci in streams]
    # per iteration each clock takes a (wait, jump size) pair per live lane
    # from a pool on the lane's block stream, before the draws of the step
    clock_blocks = [_Pool(rng, [d for comp in clocks for d in _jump_clock(comp)]) for rng, _ in streams]
    wait_scales = [1.0 / comp.rate for comp in clocks]

    # real-axis kernels need x*x > 0: a live lane has |x| > delta, or |z0|
    axis = not z0.imag.any() and min(np.abs(z0).min(), tol.min()) ** 2 > 0
    # The drift may take the step rule's |x|^beta and skip its far-lane test
    # (_axis_drift) when every drift of the loop has 2 beta dt <= 2 |x|^beta.
    # It has when each z0 lies beyond its tolerance and each step checks
    # |x| <= delta after a sub-increment: then every drift sees |x| > delta,
    # and dt is at most dt_safety |x|^beta / (2 beta) (to rounding) or the
    # floor delta^beta / 16.
    near = axis and bool(incs or clocks) and bool((np.abs(z0) > tol).all())

    # the per-cell inputs delta, dt_floor, tau_div and the coefficients, each
    # a scalar when every cell holds the same value and a state row otherwise;
    # min(h / a, h / b) = h / max(a, b): rounded division is monotone in b
    coefs = [[inc.coef for inc in ci] for ci, _ in compiled]
    divs = [max([2.0 * beta] + [c for inc, c in zip(incs, cc) if inc.tau_pow == beta]) for cc in coefs]
    inputs = [tol.tolist(), floor, divs, *zip(*coefs)]
    varied = [j for j, v in enumerate(inputs) if len(set(v)) > 1]

    # state of the live lanes, in lane order (see _retire): the rows of out
    # but y on the real axis, where it stays +0.0, then the lane, t and the
    # inputs that vary
    track = exit_radius is not None
    out = np.empty((3 + track, k * stride))  # zeta, x[, exit_time], y
    kept = out[:len(out) - axis]  # the rows of out that the state holds
    m = len(kept)
    state = np.empty((m + 2 + len(varied), k * n))

    shared = [v[0] for v in inputs]

    def rows(state):
        ins = shared.copy()
        for j, row in zip(varied, state[m + 2:]):
            ins[j] = row
        return (*state[:2], state[2] if track else None, None if axis else state[m - 1], *state[m:m + 2], *ins)

    for j, row in zip(varied, state[m + 2:]):
        row[:] = np.repeat(inputs[j], n)
    zeta, x, exit_time, y, lane, t, delta, dt_floor, tau_div, *coef = rows(state)
    zeta[:] = np.nan
    if track:
        exit_time[:] = np.nan
    x[:] = np.repeat(z0.real, n)
    if axis:
        out[-1] = 0.0
    else:
        y[:] = np.repeat(z0.imag, n)  # a first drift turns -0.0 into +0.0
    t[:] = 0.0
    lane[:] = (stride * np.arange(k)[:, None] + np.arange(n)).ravel()
    steps = np.empty(k * stride, dtype=np.int64)
    t_end = horizon * (1.0 - 1e-12)

    it = 0
    died = True
    while lane.size:
        it += 1
        if it > _MAX_STEPS:
            raise NumericalError("adaptive evolution exceeded the step budget without resolving")
        if died:  # the live blocks and the mask change only when lanes die
            plan = _draw_plan(blocks, lane, bounds)
            if clocks:
                clock_plan = _draw_plan(clock_blocks, lane, bounds)
            alive = np.ones(lane.size, dtype=bool)
        # hypot(x, 0) is |x| to the bit, and far dearer
        habs = np.abs(x) if axis or not np.count_nonzero(y) else np.hypot(x, y)
        hb = np.power(habs, beta)  # the bits of habs ** beta, which maps only 0.5 to sqrt
        dt = _adaptive_tau(habs, hb, beta, incs, coef, tau_div)
        dt *= dt_safety
        np.maximum(dt, dt_floor, out=dt)
        np.minimum(dt, horizon - t, out=dt)
        if horizon > _DT_MAX:  # else horizon - t is the tighter cap
            np.minimum(dt, _DT_MAX, out=dt)
        clock = _live_draws(clock_plan) if clocks else []
        waits, sizes = clock[::2], clock[1::2]
        for wait, scale in zip(waits, wait_scales):
            wait *= scale  # as Generator.exponential scales its variates
            np.minimum(dt, wait, out=dt)
        raws = _live_draws(plan, dt)

        if axis:
            _axis_drift(x, dt, beta, hb if near else None)  # on the axis hb is |x|^beta
        else:
            _drift_advance(x, y, dt, beta, t, delta, zeta, alive)
        t += dt  # the increments land at the step's end
        # the sub-increments, then a jump where a lane's wait ended its step
        subs = [(inc.increments(raw, dt, c), inc.is_continuous) for inc, c, raw in zip(incs, coef, raws)]
        subs += [(np.where(wait == dt, size, 0.0), False) for wait, size in zip(waits, sizes)]
        if axis:
            died = False
            for du, is_continuous in subs:
                died = _axis_increment(x, du, is_continuous, t, delta, zeta, alive, died)
        else:
            _land_step(x, y, subs, t, delta, zeta, alive)
        if track:
            h_end = np.abs(x) if axis else np.hypot(x, y)  # hypot(x, 0) = |x|, as above
            fresh = (alive & np.isnan(exit_time) & (h_end >= exit_radius)).nonzero()[0]
            exit_time[fresh] = t[fresh]
        alive &= t < t_end

        died = np.count_nonzero(alive) < lane.size
        if died:
            state, done, dead = _retire(state, alive, kept)
            # a hit lane stopped inside this iteration, a censored one after it
            steps[done] = it - 1 + np.isnan(dead[0])
            zeta, x, exit_time, y, lane, t, delta, dt_floor, tau_div, *coef = rows(state)

    z0s, tols = np.repeat(z0, stride), np.repeat(tol, stride)
    return [LaneResult(z0s[sl], out[0, sl], out[1, sl], out[-1, sl], steps[sl], tols[sl],
                       out[2, sl] if track else None)
            for sl in (slice(c * stride, c * stride + n) for c in range(k))]
