"""Deterministic file output: CSV tables, SVG renderings, run manifests.

All floats are printed with 17 significant digits ('.' decimal, no locale)
so replaying a run reproduces byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .drivers import DriverPath
from .errors import NumericalError
from .loewner import ClusterRaster

__all__ = [
    "fmt",
    "json_dump",
    "write_csv",
    "driver_path_rows",
    "raster_rows",
    "render_raster_svg",
    "render_trajectory_svg",
    "write_manifest",
]


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)!r}")


def json_dump(obj, path) -> None:
    """Write obj as JSON; a NaN or infinite number is an error, not written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{Path(path).name}: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="ascii")


def fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def driver_path_rows(path: DriverPath):
    """Rows (t, U, is_jump, jump_size) for the driver-path CSV dump:
    jump_size is the jump part's increment over the step that ends at t (0 at
    t = 0), and is_jump says whether it is nonzero."""
    jump = np.concatenate(([0.0], path.increments()[1]))
    for t, u, size in zip(path.grid.tolist(), path.values.tolist(), jump.tolist()):
        yield (t, u, int(size != 0.0), size)


def raster_rows(raster: ClusterRaster):
    """Rows (x, y, zeta_or_inf) in row-major order."""
    xs = raster.xs.tolist()
    for y, zeta in zip(raster.ys.tolist(), raster.zeta.tolist()):
        for x, z in zip(xs, zeta):
            yield (x, y, z)


_VIRIDIS = [
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
]


def _color(v: float) -> str:
    v = min(max(float(v), 0.0), 1.0)
    pos = v * (len(_VIRIDIS) - 1)
    i = min(int(pos), len(_VIRIDIS) - 2)
    f = pos - i
    rgb = [(1 - f) * a + f * b for a, b in zip(_VIRIDIS[i], _VIRIDIS[i + 1])]
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def _svg_document(x0, x1, y0, y1, body: list[str]) -> str:
    pad = 0.05 * max(x1 - x0, y1 - y0)
    # y axis flipped: SVG y grows downward
    vb = f"{fmt(x0 - pad)} {fmt(-(y1 + pad))} {fmt(x1 - x0 + 2 * pad)} {fmt(y1 - y0 + 2 * pad)}"
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{vb}" '
        'width="800" height="400">\n'
    )
    axis = (
        f'<line x1="{fmt(x0 - pad)}" y1="{fmt(-y0)}" x2="{fmt(x1 + pad)}" y2="{fmt(-y0)}" '
        f'stroke="#444444" stroke-width="{fmt(0.004 * (x1 - x0))}"/>\n'
        f'<circle cx="0" cy="{fmt(-y0)}" r="{fmt(0.008 * (x1 - x0))}" fill="#d62728"/>\n'
    )
    return head + axis + "".join(body) + "</svg>\n"


def render_raster_svg(raster: ClusterRaster) -> str:
    """Cells hit by the horizon filled, color-mapped by the percentile of zeta."""
    x0, x1, y0, y1 = raster.window
    nx, ny = raster.resolution
    cw = (x1 - x0) / nx
    ch = (y1 - y0) / ny
    mask = raster.cells_hit_by(raster.horizon)
    body = []
    if mask.any():
        vals = raster.zeta[mask]
        order = np.argsort(np.argsort(vals))
        pct = order / max(vals.size - 1, 1)
        k = 0
        for j in range(ny):
            for i in range(nx):
                if mask[j, i]:
                    cx = x0 + i * cw
                    cy = y0 + (j + 1) * ch
                    body.append(
                        f'<rect x="{fmt(cx)}" y="{fmt(-cy)}" width="{fmt(cw)}" '
                        f'height="{fmt(ch)}" fill="{_color(pct[k])}"/>\n'
                    )
                    k += 1
    return _svg_document(x0, x1, y0, y1, body)


def render_trajectory_svg(traj: np.ndarray) -> str:
    """Polyline of the h-trajectory (columns t, Re h, Im h, U)."""
    xs = traj[:, 1]
    ys = traj[:, 2]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = 0.0, float(max(ys.max(), 1e-9))
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 1.0, x1 + 1.0
    pts = " ".join(f"{fmt(a)},{fmt(-b)}" for a, b in zip(xs.tolist(), ys.tolist()))
    body = [
        f'<polyline points="{pts}" fill="none" stroke="{_color(0.35)}" '
        f'stroke-width="{fmt(0.006 * (x1 - x0))}"/>\n'
    ]
    return _svg_document(x0, x1, y0, y1, body)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir, config_echo: dict, seed: int, outputs: list[str],
                   wall_time_s: float, version: str) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "config": config_echo,
        "seed": seed,
        "version": version,
        "wall_time_s": round(wall_time_s, 3),
        "outputs": {name: _sha256(out_dir / name) for name in sorted(outputs)},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path
