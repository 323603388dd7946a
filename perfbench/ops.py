"""Workload definitions and the untimed correctness checks of their outputs.

Every op is an argv for ``levyloewner.cli.main``; the benchmark appends
``--seed`` and ``--out``.  Checks gate only on invariants and closed forms,
never on a Monte Carlo estimate being close to a reference value.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, rgamma

from levyloewner.cli import SCHEMAS, _driver_spec_from, build_parser, parse_config
from levyloewner.drivers import sample_driver
from levyloewner.engine import evolve_lanes_on_path
from levyloewner.loewner import compose_piecewise_constant, raster_cell_tolerance

WORKLOADS = {
    # engine B at beta=2 with both thread-pool sites live, plus the annulus-exit kernel
    "mc_phase": [
        ["phase", "--grid", "kappa=2,8", "--grid", "theta=1", "--z", "1", "--n", "2048",
         "--horizon", "100", "--workers", "2"],
        ["hitprob", "--kappa", "8", "--theta", "0", "--z", "1", "--n", "2048",
         "--horizon", "100", "--workers", "2"],
        ["overshoot", "--alpha", "1.2", "--n", "10000", "--horizon", "50", "--workers", "2"],
    ],
    # single-threaded engine B at beta=1.5 (RK4-substep drift) and the coefficient layer
    "beta_bracket": [
        ["theta0", "--alphas", "1.1,1.3,1.5,1.7,1.9", "--workers", "1"],
        ["gamma", "--alphas", "1.5", "--p-count", "9", "--workers", "1"],
        ["theta0-bracket", "--alpha", "1.5", "--grid-mults", "0.5,1.0,1.5,2.0", "--n", "2048",
         "--horizon", "1000", "--workers", "1"],
    ],
    # engine A over many lanes: long beta=2 paths, a beta=1.5 raster, CPP paths
    "cluster_raster": [
        ["area", "--kappa", "2", "--alpha", "1.5", "--theta", "1", "--r-list", "0.5,1.0,2.0",
         "--resolution", "32", "--horizon", "12", "--replicas", "2", "--workers", "1"],
        ["trace", "--kappa", "4", "--theta", "1", "--alpha", "1.5", "--beta", "1.5",
         "--horizon", "1", "--path-dt", "0.002", "--resolution", "96,80", "--workers", "1"],
        ["disconnect", "--cpp-rate", "1", "--cpp-size", "50", "--n", "50",
         "--window=-60,60,0,3", "--resolution", "480,12", "--workers", "1"],
    ],
}

# The byte-determinism cases of acceptance criterion 13, run at seed 99.
CRITERION13 = [
    ["gamma", "--alphas", "1.5", "--p-values", "0.5,1.0,1.5"],
    ["theta0", "--alphas", "1.5"],
    ["trace", "--kappa", "4", "--horizon", "0.3", "--path-dt", "0.01", "--resolution", "12,10"],
    ["phase", "--grid", "kappa=2,8", "--n", "200", "--horizon", "4"],
    ["hitprob", "--kappa", "8", "--theta", "1", "--n", "200", "--horizon", "4"],
    ["slopes", "--side", "near-zero", "--x-grid-zero", "0.05,0.1,0.2,0.4,0.8",
     "--n", "200", "--horizon", "20"],
    ["overshoot", "--n", "10000", "--horizon", "20"],
    ["area", "--r-list", "0.5", "--resolution", "32", "--horizon", "2", "--replicas", "2"],
    ["scalecheck", "--alpha", "0.5", "--statistic", "exit_time", "--n", "500",
     "--horizon", "4", "--exit-radius", "4"],
    ["disconnect", "--cpp-rate", "1", "--cpp-size", "50", "--n", "8",
     "--window=-60,60,0,3", "--resolution", "240,8"],
    ["theta0-bracket", "--grid-mults", "0.5,1.0,1.5", "--n", "300", "--horizon", "500"],
]
GOLDEN_SEED = 99

# Small versions of each workload's ops: they load every lazily imported
# module and touch every kernel before anything is timed.
WARMUP = {
    "mc_phase": [CRITERION13[3] + ["--workers", "2"], CRITERION13[6]],
    "beta_bracket": [CRITERION13[0], CRITERION13[1], CRITERION13[10]],
    "cluster_raster": [CRITERION13[7], CRITERION13[2] + ["--beta", "1.5"], CRITERION13[9]],
}


def op_config(argv):
    """The validated RunConfig the CLI builds from an op argv."""
    args = build_parser().parse_args(argv)
    mapping = {k: getattr(args, k) for k in SCHEMAS[argv[0]] if getattr(args, k, None) is not None}
    return parse_config(argv[0], mapping)


def artifacts(out: Path) -> dict[str, Path]:
    return {p.name: p for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _check_hit_rows(rows, expected: int) -> list[str]:
    bad = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
    for r in rows:
        p, lo, hi = float(r["hit_frac"]), float(r["ci_lo"]), float(r["ci_hi"])
        if not 0.0 <= lo <= p <= hi <= 1.0:
            bad.append(f"hit_frac {p} outside [0,1] or its Wilson CI [{lo},{hi}]")
    return bad


def theta0_exact(a: float) -> float:
    return 2.0 ** (2.0 - a) * abs(gamma_fn((1.0 - a) / 2.0)) / (math.sqrt(math.pi) * gamma_fn(a / 2.0))


def a_gamma_exact(a: float, p: float) -> float:
    """A(alpha) gamma(alpha, p) from the Fourier transform of |x|^b."""
    if p == 1.0:
        return 2.0 ** (a - 1.0) * math.sqrt(math.pi) * gamma_fn(a / 2.0) / gamma_fn((1.0 - a) / 2.0)
    return (-(2.0 ** a) * gamma_fn(p / 2.0) * gamma_fn((a - p + 1.0) / 2.0)
            * rgamma((1.0 - p) / 2.0) * rgamma((p - a) / 2.0))


def bessel_deviation(row: dict) -> float:
    """Signed (p_hat - p_exact) / SE for a pure-Brownian hitprob row.

    For U = sqrt(kappa) B the hitting time of x is x^2 / (2 kappa G) with
    G ~ Gamma(1/2 - 2/kappa), so P(zeta <= T) = 1 - P(1/2 - 2/kappa, x^2/(2 kappa T)).
    """
    kappa, x, n, horizon = float(row["kappa"]), float(row["re_z"]), int(row["n"]), float(row["T"])
    exact = 1.0 - gammainc(0.5 - 2.0 / kappa, x * x / (2.0 * kappa * horizon))
    se = math.sqrt(exact * (1.0 - exact) / n)
    return (float(row["hit_frac"]) - exact) / se


def _engine_a_vs_composition(p: dict, seed: int) -> list[str]:
    """Engine A against exact slit-map composition on the disconnect op's
    piecewise-constant CPP paths, with the same per-cell tolerances as the
    raster (as in acceptance criterion 04)."""
    spec = _driver_spec_from(p)
    t, n = p["t"], p["n"]
    x0, x1, y0, y1 = p["window"]
    nx, ny = (int(v) for v in p["resolution"])
    cw, ch = (x1 - x0) / nx, (y1 - y0) / ny
    pick = np.random.default_rng(seed)
    bad = []
    for rep in range(n):
        path = sample_driver(spec, t, seed, replica=rep, dt=t)
        i = pick.integers(0, nx, 32)
        j = pick.integers(0, ny, 32)
        z = (x0 + cw * (i + 0.5)) + 1j * (y0 + ch * (j + 0.5))
        tol = raster_cell_tolerance(cw, ch, z.imag)
        keep = np.abs(z) > tol  # the raster marks these hit at 0+ without evolving
        z, tol = z[keep], tol[keep]
        res = evolve_lanes_on_path(z, path, t, hit_tolerance=tol)
        for k in range(z.size):
            g, zeta = compose_piecewise_constant(complex(z[k]), path, hit_tolerance=float(tol[k]))
            if (g is None) != bool(res.hit[k]):
                bad.append(f"replica {rep} z={z[k]}: engine A and composition disagree on the hit")
            elif g is None and abs(zeta - res.zeta[k]) > tol[k]:
                bad.append(f"replica {rep} z={z[k]}: zeta {res.zeta[k]} vs {zeta}")
            elif g is not None:
                h_comp = g - path.values[-1]
                if abs(h_comp - res.h_final[k]) > 1e-6 * abs(h_comp):
                    bad.append(f"replica {rep} z={z[k]}: h_T {res.h_final[k]} vs {h_comp}")
    return bad


def check_op(argv, out: Path, seed: int) -> list[str]:
    """Failed invariants of one op's artifacts; empty when all hold."""
    op, p = argv[0], op_config(argv).params
    if op == "phase":
        cells = math.prod(len(v) for v in p["grid"].values())
        return _check_hit_rows(read_rows(out / "phase.csv"), cells)
    if op == "hitprob":
        return _check_hit_rows(read_rows(out / "hitprob.csv"), 1)
    if op == "theta0-bracket":
        return _check_hit_rows(read_rows(out / "theta0_scan.csv"), len(p["grid_mults"]))
    if op == "overshoot":
        total = json.loads((out / "overshoot.json").read_text())["total_probability"]
        return [] if abs(total - 1.0) <= 1e-9 else [f"total_probability {total} != 1"]
    if op == "theta0":
        return [f"theta0({r['alpha']}) = {r['theta0']}, closed form {theta0_exact(float(r['alpha']))}"
                for r in read_rows(out / "theta0.csv")
                if abs(float(r["theta0"]) / theta0_exact(float(r["alpha"])) - 1.0) > 1e-9]
    if op == "gamma":
        bad = []
        for r in read_rows(out / "gamma.csv"):
            a, p = float(r["alpha"]), float(r["p"])
            got, want = float(r["A_const"]) * float(r["gamma"]), a_gamma_exact(a, p)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                bad.append(f"A*gamma({a},{p}) = {got}, closed form {want}")
        return bad
    if op == "area":
        return [f"area fraction {r['fraction']} outside [0,1]" for r in read_rows(out / "area.csv")
                if not 0.0 <= float(r["fraction"]) <= 1.0]
    if op == "trace":
        nx, ny = (int(v) for v in p["resolution"])
        rows = len(read_rows(out / "cluster.csv"))
        return [] if rows == nx * ny else [f"cluster.csv has {rows} cells, expected {nx * ny}"]
    if op == "disconnect":
        d = json.loads((out / "disconnect.json").read_text())
        bad = [] if 0.0 <= d["ci_lo"] <= d["fraction"] <= d["ci_hi"] <= 1.0 else [
            f"disconnect fraction {d['fraction']} outside its Wilson CI"]
        return bad + _engine_a_vs_composition(p, seed)
    return []
