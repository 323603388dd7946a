"""Chordal Loewner flow and its index-beta variant along a sampled path:
per-point evolution with hitting detection, exact slit-map composition for
piecewise-constant drivers, capacity estimation, and cluster rasterization.

The flow of a point z is h_t(z) = g_t(z) - U(t) with
dh = 2|h|^(2-beta)/h dt - dU, 1 < beta <= 2; beta = 2 is the chordal Loewner
flow dh = 2/h dt - dU, and :attr:`EvolutionConfig.beta` selects the exponent.
A point dies (is swallowed into the cluster) at zeta(z), the first time h
reaches 0 continuously or a driver jump lands on the pre-jump position; both
events are thickened to the tolerance delta_hit in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import DriverPath
from .engine import evolve_lanes_on_path
from .errors import ConfigError

__all__ = [
    "EvolutionConfig",
    "HittingOutcome",
    "ClusterRaster",
    "evolve_point",
    "slit_map",
    "compose_piecewise_constant",
    "estimate_hcap",
    "raster_cluster",
    "connected_components",
    "raster_cell_tolerance",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Controls of the flow along a sampled path: the horizon, the hit
    tolerance and the drift exponent beta in (1, 2] (2 = chordal Loewner).

    hit_tolerance=None resolves to the default 1e-4*(1+|z0|) per point, and
    to the geometry-aware :func:`raster_cell_tolerance` per raster cell.  The
    time grid is the path's own.
    """

    horizon: float
    hit_tolerance: float | None = None
    beta: float = 2.0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.hit_tolerance is not None and not 0 < self.hit_tolerance < np.inf:
            raise ConfigError("hit_tolerance must be positive and finite")
        if not 1.0 < self.beta <= 2.0:
            raise ConfigError(f"beta must lie in (1,2], got {self.beta}")


@dataclass(frozen=True)
class HittingOutcome:
    """Result of tracking one point: hit at zeta, or censored at the horizon."""

    z0: complex
    zeta: float | None
    censored_at: float | None
    steps_taken: int
    min_abs_h: float
    h_final: complex | None = None
    trajectory: np.ndarray | None = None  # rows (t, Re h, Im h, U)

    @property
    def hit(self) -> bool:
        return self.zeta is not None


def evolve_point(z0: complex, path: DriverPath, cfg: EvolutionConfig) -> HittingOutcome:
    """Track one point of the closed upper half-plane along a sampled path.

    The driver is held at its cadlag value between grid points.  Between
    them the drift is exact at beta = 2 and on the axes, and Runge-Kutta off
    the axes at beta < 2 (see :mod:`levyloewner.engine`), so at beta = 2 all
    discretization error lives in the path's grid.  Hits: |h| <= delta at a
    check point, an exact within-step collapse, a jump landing within delta
    of the pre-jump h, or a continuous sign crossing of Re h while
    Im h <= delta (Brownian content only).  The outcome carries the
    trajectory.
    """
    res, traj = evolve_lanes_on_path(
        np.asarray([z0], dtype=complex), path, cfg.horizon,
        hit_tolerance=cfg.hit_tolerance, beta=cfg.beta, record_trajectory=True,
    )
    hit = not np.isnan(res.zeta[0])
    return HittingOutcome(
        z0=complex(res.z0[0]),
        zeta=float(res.zeta[0]) if hit else None,
        censored_at=None if hit else cfg.horizon,
        steps_taken=int(res.steps[0]),
        min_abs_h=float(res.min_abs[0]),
        h_final=None if hit else complex(res.x[0], res.y[0]),
        trajectory=traj,
    )


def _sqrt_upper(a: np.ndarray, sign_real: np.ndarray) -> np.ndarray:
    """Square root mapping to the closed upper half-plane; real inputs keep
    the sign of the pre-image (h cannot cross 0 continuously)."""
    w = np.sqrt(a.astype(complex))
    w = np.where(w.imag < 0, -w, w)
    real_in = a.imag == 0
    flip = real_in & (w.imag == 0) & (np.sign(w.real) != sign_real) & (sign_real != 0)
    return np.where(flip, -w, w)


def slit_map(z, u: float, dt: float):
    """Exact constant-driver Loewner update u + sqrt((z-u)^2 + 4 dt).

    Maps H minus the vertical slit of half-plane capacity 2*dt above u back
    to H.  A result equal to u signals that z was exactly swallowed
    ((z-u)^2 + 4 dt = 0).
    """
    if not np.all(np.asarray(dt) > 0):
        raise ConfigError("dt must be positive")
    z = np.asarray(z, dtype=complex)
    base = z - u
    a = base * base + 4.0 * dt
    w = _sqrt_upper(a, np.sign(base.real))
    out = u + w
    return complex(out) if out.ndim == 0 else out


def compose_piecewise_constant(z: complex, path: DriverPath, hit_tolerance: float = 0.0):
    """Apply the exact slit-map factorization of a piecewise-constant driver.

    Returns (g, None) with g the final map value when z survives, or
    (None, zeta) when z is swallowed (within hit_tolerance; 0 = exact).
    Exact up to floating point: no time-stepping is involved.
    """
    if not path.is_piecewise_constant:
        raise ConfigError("compose_piecewise_constant needs a piecewise-constant path")
    if z == 0:
        raise ConfigError("z must be nonzero")
    grid = path.grid
    values = path.values
    w = complex(z)
    for i in range(grid.size - 1):
        dt = grid[i + 1] - grid[i]
        u = values[i]
        base = w - u
        # within-piece collapse: h(s)^2 = base^2 + 4s reaches its minimum
        # modulus sqrt(|Im base^2|) when Re crosses zero
        re0 = base.real * base.real - base.imag * base.imag
        if re0 < 0 <= re0 + 4.0 * dt:
            dip = np.sqrt(abs(2.0 * base.real * base.imag))
            if dip <= hit_tolerance:
                return None, float(grid[i] - re0 / 4.0)
        a = base * base + 4.0 * dt
        h_pre = complex(_sqrt_upper(np.asarray(a), np.sign(base.real)))
        if abs(h_pre) <= hit_tolerance:
            return None, float(grid[i + 1])
        w = u + h_pre
        if abs(w - values[i + 1]) <= hit_tolerance:
            # the driver jump at the piece end lands on h within tolerance
            return None, float(grid[i + 1])
    return w, None


def estimate_hcap(path: DriverPath, t: float, probe_radius: float | None = None,
                  n_probes: int = 8) -> float:
    """Half-plane capacity estimate of K_t from the expansion of g_t at infinity.

    Evaluates w = g_t(z) at probe points on the semicircle |z| = R and
    averages z*(w - z); with the hcap(K_t) = 2t normalization the result
    converges to 2t as R grows.
    """
    if not 0 <= t <= path.horizon + 1e-12:
        raise ConfigError("t must lie within the path horizon")
    if t == 0:
        return 0.0
    if probe_radius is None:
        umax = float(np.max(np.abs(path.values))) if path.values.size else 0.0
        probe_radius = 100.0 * (1.0 + np.sqrt(t) + umax)
    angles = np.pi * (np.arange(n_probes) + 0.5) / n_probes
    probes = probe_radius * np.exp(1j * angles)
    res = evolve_lanes_on_path(probes, path, t, hit_tolerance=1e-12 * probe_radius)
    if res.hit.any() or res.min_abs.min() < 0.7 * probe_radius:
        raise ConfigError("a probe point was swallowed or entered the growth region; "
                          "increase probe_radius")
    u_t = float(path.values_at(np.asarray([t]))[0])
    g = res.h_final + u_t
    return float(np.mean((probes * (g - probes)).real))


def raster_cell_tolerance(cell_w: float, cell_h: float, centers_y: np.ndarray) -> np.ndarray:
    """Geometry-aware hit tolerance for raster cells.

    Near a hull branch the flow distorts distances like |h| ~ sqrt(d * L)
    (square-root map), d the distance to the hull and L the local scale, so a
    cell of width w at height y is lit by branches within ~w/2 when the
    tolerance is ~ sqrt(w * max(w, y)).  This makes the lit tube one cell
    wide regardless of height, and shrink linearly under grid refinement.
    """
    cell = float(np.hypot(cell_w, cell_h))
    return 1.2 * np.sqrt(0.5 * cell * np.maximum(cell, centers_y))


@dataclass(frozen=True)
class ClusterRaster:
    """zeta-values of the flow over a rectangular window of the closed upper
    half-plane; thresholding zeta <= t yields the cluster raster at time t
    (nested in t by construction)."""

    window: tuple[float, float, float, float]  # (x0, x1, y0, y1)
    resolution: tuple[int, int]                # (nx, ny)
    zeta: np.ndarray                           # shape (ny, nx); inf = censored, NaN = not evolved
    horizon: float
    cell_tolerance: np.ndarray

    @property
    def xs(self) -> np.ndarray:
        x0, x1, _, _ = self.window
        nx, _ = self.resolution
        w = (x1 - x0) / nx
        return x0 + w * (np.arange(nx) + 0.5)

    @property
    def ys(self) -> np.ndarray:
        _, _, y0, y1 = self.window
        _, ny = self.resolution
        h = (y1 - y0) / ny
        return y0 + h * (np.arange(ny) + 0.5)

    def cells_hit_by(self, t: float) -> np.ndarray:
        return self.zeta <= t


def raster_cluster(window, resolution, path: DriverPath, cfg: EvolutionConfig,
                   radius: float | None = None) -> ClusterRaster:
    """Evolve the center of every window cell along one path under cfg.beta.

    Cells within the hit tolerance of the origin are marked hit at 0+ by
    convention.  cfg.hit_tolerance=None gives each cell the geometry-aware
    :func:`raster_cell_tolerance`; a number is used for every cell.  With a
    ``radius``, only the cells whose center has ``np.hypot(x, y) <= radius``
    are evolved; the others read NaN, hit at no time.
    """
    x0, x1, y0, y1 = map(float, window)
    nx, ny = map(int, resolution)
    if not (x1 > x0 and y1 >= y0 >= 0 and nx > 0 and ny > 0):
        raise ConfigError("window must be a rectangle in the closed upper half-plane")
    cw = (x1 - x0) / nx
    ch = (y1 - y0) / ny
    xs = x0 + cw * (np.arange(nx) + 0.5)
    ys = y0 + ch * (np.arange(ny) + 0.5)
    gx, gy = np.meshgrid(xs, ys)
    centers = (gx + 1j * gy).ravel()
    if cfg.hit_tolerance is None:
        tol = raster_cell_tolerance(cw, ch, gy.ravel())
    else:
        tol = np.full(centers.shape, float(cfg.hit_tolerance))

    near_origin = np.abs(centers) <= tol
    zeta = np.full(centers.size, np.inf)
    zeta[near_origin] = 0.0
    todo = ~near_origin
    if radius is not None:
        outside = np.hypot(gx, gy).ravel() > radius
        zeta[outside] = np.nan
        todo &= ~outside
    res = evolve_lanes_on_path(centers[todo], path, cfg.horizon,
                               hit_tolerance=tol[todo], beta=cfg.beta)
    z = res.zeta.copy()
    z[np.isnan(z)] = np.inf
    zeta[todo] = z
    return ClusterRaster(window=(x0, x1, y0, y1), resolution=(nx, ny),
                         zeta=zeta.reshape(ny, nx), horizon=cfg.horizon,
                         cell_tolerance=tol.reshape(ny, nx))


def connected_components(raster: ClusterRaster, t: float) -> int:
    """Count 8-neighbor connected components of the cells with zeta <= t.

    Connectivity is measured inside the closed upper half-plane as-is: cells
    touching the real axis are not merged through it.
    """
    from scipy import ndimage

    mask = raster.cells_hit_by(t)
    if not mask.any():
        return 0
    structure = np.ones((3, 3), dtype=int)
    _, count = ndimage.label(mask, structure=structure)
    return int(count)
