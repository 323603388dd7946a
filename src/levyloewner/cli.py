"""Command line front end: config parsing, dispatch, deterministic artifacts.

Subcommands: gamma, theta0, trace, phase, hitprob, slopes, overshoot, area,
scalecheck, disconnect, theta0-bracket.  Global flags --config/--seed/
--workers/--out; per-subcommand flags mirror config keys in kebab-case and
override the config file.  Exit codes: 0 ok, 2 config error, 3 numerical
error, 4 statistical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .drivers import DriverSpec, sample_driver
from .errors import ConfigError, LevyLoewnerError
from .experiments import (
    area_fraction,
    disconnection_frequency,
    hitting_probability,
    overshoot_histogram,
    phase_scan,
    scaling_check,
    slope_near_infinity,
    slope_near_zero,
    theta0_bracket,
    PhaseParams,
)
from .loewner import EvolutionConfig, raster_cluster
from .output import (
    driver_path_rows,
    json_dump,
    raster_rows,
    render_raster_svg,
    render_trajectory_svg,
    write_csv,
    write_manifest,
)
from .stable_calculus import classify_power, frac_constant, gamma_coeff, theta0 as theta0_value


# ---------------------------------------------------------------------------
# parameter schemas
# ---------------------------------------------------------------------------

def _positive(name):
    def check(v):
        if not v > 0:
            raise ConfigError(f"{name} must be positive, got {v}")
        return v
    return check


def _nonneg(name):
    def check(v):
        if v < 0:
            raise ConfigError(f"{name} must be nonnegative, got {v}")
        return v
    return check


def _alpha_check(v):
    if not 0 < v <= 2:
        raise ConfigError(f"alpha must lie in (0,2], got {v}")
    return v


def _beta_check(v):
    if not 1 < v <= 2:
        raise ConfigError(f"beta must lie in (1,2], got {v}")
    return v


def _theta_tilde_check(v):
    if not (v == -1.0 or v >= 0):
        raise ConfigError(f"theta_tilde must be -1 (derive) or nonnegative, got {v}")
    return v


def _count(name, count):
    def check(v):
        if len(v) != count:
            raise ConfigError(f"{name} needs exactly {count} values, got {len(v)}")
        return v
    return check


def _resolution_check(v):
    if len(v) != 2 or not all(n > 0 and n.is_integer() for n in v):
        raise ConfigError(f"resolution must be two positive integers nx,ny, got {v}")
    return [int(n) for n in v]


def _choice(name, options):
    def check(v):
        if v not in options:
            raise ConfigError(f"{name} must be one of {sorted(options)}, got {v!r}")
        return v
    return check


def _as_int(raw):
    """``int(raw)``; a bool or a fractional float is an error, not truncated."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError("expected an integer")
    return int(raw)


def _as_float(raw) -> float:
    """``float(raw)``; NaN and infinities are errors, as no parameter takes them."""
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("expected a finite number")
    return v


def _parse_typed(key, kind, raw):
    """Convert a raw config/flag value to its schema type."""
    try:
        if kind == "float":
            return _as_float(raw)
        if kind == "int":
            return _as_int(raw)
        if kind == "str":
            return str(raw)
        if kind == "floats":
            if isinstance(raw, str):
                return [_as_float(tok) for tok in raw.split(",") if tok != ""]
            return [_as_float(v) for v in raw]
        if kind == "point":  # "re" | "re,im" | [re, im] | number
            if isinstance(raw, str):
                parts = [_as_float(tok) for tok in raw.split(",")]
            elif isinstance(raw, (list, tuple)):
                parts = [_as_float(v) for v in raw]
            else:
                parts = [_as_float(raw)]
            if len(parts) == 1:
                return [parts[0], 0.0]
            if len(parts) == 2:
                return parts
            raise ValueError("expected re or re,im")
        if kind == "grid":  # "axis=v1,v2" strings or {axis: [..]}
            if isinstance(raw, dict):
                return {str(k): [_as_float(v) for v in vs] for k, vs in raw.items()}
            items = raw if isinstance(raw, (list, tuple)) else [raw]
            out = {}
            for item in items:
                axis, _, vals = str(item).partition("=")
                if not vals:
                    raise ValueError(f"grid item {item!r} is not axis=v1,v2,...")
                out[axis.strip()] = [_as_float(tok) for tok in vals.split(",") if tok != ""]
            return out
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    raise ConfigError(f"unknown schema kind {kind}")  # pragma: no cover


_DRIVER_KEYS = {
    "kappa": ("float", 0.0, _nonneg("kappa")),
    "alpha": ("float", 1.5, _alpha_check),
    "theta": ("float", 0.0, _nonneg("theta")),
    "trunc_cutoff": ("float", 0.0, _nonneg("trunc_cutoff")),
    "cpp_rate": ("float", 0.0, _nonneg("cpp_rate")),
    "cpp_size": ("float", 1.0, _positive("cpp_size")),
}

SCHEMAS: dict[str, dict] = {
    "gamma": {
        "alphas": ("floats", [0.5, 1.0, 1.5], None),
        "p_values": ("floats", [], None),
        "p_count": ("int", 9, _positive("p_count")),
    },
    "theta0": {
        "alphas": ("floats", [1.1, 1.3, 1.5, 1.7, 1.9], None),
    },
    "trace": {
        **_DRIVER_KEYS,
        "z0": ("point", [0.0, 1.0], None),
        "horizon": ("float", 1.0, _positive("horizon")),
        "beta": ("float", 2.0, _beta_check),
        "path_dt": ("float", 1e-3, _positive("path_dt")),
        "hit_tolerance": ("float", 0.0, _nonneg("hit_tolerance")),
        "window": ("floats", [-1.5, 1.5, 0.0, 2.5], _count("window", 4)),
        "resolution": ("floats", [96, 80], _resolution_check),
    },
    "phase": {
        "grid": ("grid", {"kappa": [2.0, 8.0]}, None),
        "z": ("point", [1.0, 0.0], None),
        "n": ("int", 2000, _positive("n")),
        "horizon": ("float", 100.0, _positive("horizon")),
        "hit_tolerance": ("float", 0.0, _nonneg("hit_tolerance")),
    },
    "hitprob": {
        "kappa": ("float", 0.0, _nonneg("kappa")),
        "alpha": ("float", 1.5, _alpha_check),
        "theta": ("float", 0.0, _nonneg("theta")),
        "beta": ("float", 2.0, _beta_check),
        "z": ("point", [1.0, 0.0], None),
        "n": ("int", 2000, _positive("n")),
        "horizon": ("float", 100.0, _positive("horizon")),
        "hit_tolerance": ("float", 0.0, _nonneg("hit_tolerance")),
    },
    "slopes": {
        "side": ("str", "both", _choice("side", ("both", "near-zero", "near-infinity"))),
        "kappa": ("float", 8.0, _positive("kappa")),
        "alpha": ("float", 0.5, _alpha_check),
        "theta": ("float", 1.0, _positive("theta")),
        "x_grid_zero": ("floats", [0.02, 0.04, 0.08, 0.16, 0.32, 0.64], None),
        "x_grid_inf": ("floats", [2.0, 4.0, 8.0, 16.0, 32.0, 64.0], None),
        "n": ("int", 2000, _positive("n")),
        "horizon": ("float", 200.0, _positive("horizon")),
    },
    "overshoot": {
        "kappa": ("float", 1.0, _nonneg("kappa")),
        "alpha": ("float", 0.5, _alpha_check),
        "theta": ("float", 1.0, _positive("theta")),
        "a": ("float", 1.0, _positive("a")),
        "b": ("float", 2.0, _positive("b")),
        "z": ("float", 1.5, None),
        "n": ("int", 10000, _positive("n")),
        "horizon": ("float", 50.0, _positive("horizon")),
        "bins": ("int", 6, _positive("bins")),
    },
    "area": {
        "kappa": ("float", 8.0, _nonneg("kappa")),
        "alpha": ("float", 1.5, _alpha_check),
        "theta": ("float", 1.0, _nonneg("theta")),
        "r_list": ("floats", [0.5, 1.0], None),
        "resolution": ("int", 32, _positive("resolution")),
        "horizon": ("float", 30.0, _positive("horizon")),
        "replicas": ("int", 4, _positive("replicas")),
        "path_dt": ("float", 5e-3, _positive("path_dt")),
    },
    "scalecheck": {
        "kappa": ("float", 4.0, _nonneg("kappa")),
        "alpha": ("float", 1.5, _alpha_check),
        "theta": ("float", 1.0, _nonneg("theta")),
        "a": ("float", 2.0, _positive("a")),
        "statistic": ("str", "im_h", _choice("statistic", ("hit_indicator", "im_h", "exit_time"))),
        "z": ("point", [0.0, 1.0], None),
        "horizon": ("float", 4.0, _positive("horizon")),
        "n": ("int", 2000, _positive("n")),
        "theta_tilde": ("float", -1.0, _theta_tilde_check),  # -1 = derive the rescaled strength
        "exit_radius": ("float", 0.0, _nonneg("exit_radius")),
    },
    "disconnect": {
        **_DRIVER_KEYS,
        "t": ("float", 1.0, _positive("t")),
        "n": ("int", 50, _positive("n")),
        "window": ("floats", [-60.0, 60.0, 0.0, 3.0], _count("window", 4)),
        "resolution": ("floats", [480, 12], _resolution_check),
        "path_dt": ("float", 2e-3, _positive("path_dt")),
    },
    "theta0-bracket": {
        "alpha": ("float", 1.5, _beta_check),
        "grid_mults": ("floats", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], None),
        "z": ("point", [0.5, 0.0], None),
        "n": ("int", 2000, _positive("n")),
        "horizon": ("float", 4000.0, _positive("horizon")),
        "hit_tolerance": ("float", 1e-5, _positive("hit_tolerance")),
    },
}

SUBCOMMANDS = tuple(SCHEMAS)

_GLOBAL_DEFAULTS = {"seed": 20260809, "workers": None, "out": None}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict
    seed: int
    workers: int
    out: str

    def serialize(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "workers": self.workers,
            "out": self.out,
            **self.params,
        }


def parse_config(subcommand: str, mapping: dict) -> RunConfig:
    """Validate a flat mapping of config keys; unknown keys are errors and
    validation failures name the offending key and constraint."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; known: {SUBCOMMANDS}")
    schema = SCHEMAS[subcommand]
    params = {}
    mapping = dict(mapping)
    mapping.pop("subcommand", None)
    seed = mapping.pop("seed", _GLOBAL_DEFAULTS["seed"])
    workers = mapping.pop("workers", None)
    out = mapping.pop("out", None)
    for key, raw in mapping.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for subcommand {subcommand}")
        kind, _default, validator = schema[key]
        val = _parse_typed(key, kind, raw)
        if validator is not None:
            val = validator(val)
        params[key] = val
    for key, (kind, default, _validator) in schema.items():
        params.setdefault(key, default)
    try:
        seed = _as_int(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from exc
    if workers is None:
        workers = os.environ.get("LL_WORKERS", "1")
    try:
        workers = _as_int(workers)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}") from exc
    if workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers}")
    if out is None:
        out = f"ll-out-{subcommand}"
    return RunConfig(subcommand=subcommand, params=params, seed=seed,
                     workers=workers, out=str(out))


def _driver_spec_from(params: dict) -> DriverSpec:
    return DriverSpec.from_params(**{k: params[k] for k in _DRIVER_KEYS if k in params})


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_gamma(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    rows = []
    for a in p["alphas"]:
        ps = p["p_values"] or [frac * (a + 1.0) / (p["p_count"] + 1) for frac in range(1, p["p_count"] + 1)]
        ac = frac_constant(a)
        for pv in ps:
            rows.append((a, pv, gamma_coeff(a, pv), ac, classify_power(a, pv).value))
    write_csv(out / "gamma.csv", ["alpha", "p", "gamma", "A_const", "class"], rows)
    return ["gamma.csv"]


def _run_theta0(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    rows = [(a, theta0_value(a)) for a in p["alphas"]]
    write_csv(out / "theta0.csv", ["alpha", "theta0"], rows)
    return ["theta0.csv"]


def _run_trace(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    spec = _driver_spec_from(p)
    path = sample_driver(spec, p["horizon"], cfg.seed, replica=0, dt=p["path_dt"])
    z0 = complex(p["z0"][0], p["z0"][1])
    # the raster keeps its geometry-aware cell tolerance; the point rides in
    # its engine call with its own
    raster = raster_cluster(tuple(p["window"]), tuple(p["resolution"]), path,
                            EvolutionConfig(p["horizon"], beta=p["beta"]),
                            track=(z0, p["hit_tolerance"] or None))
    outcome = raster.tracked
    traj = outcome.trajectory
    write_csv(out / "trajectory.csv", ["t", "re_h", "im_h", "u"], map(tuple, traj.tolist()))
    (out / "trajectory.svg").write_text(render_trajectory_svg(traj), encoding="ascii")
    write_csv(out / "driver.csv", ["t", "u", "is_jump", "jump_size"], driver_path_rows(path))
    write_csv(out / "cluster.csv", ["x", "y", "zeta_or_inf"], raster_rows(raster))
    (out / "cluster.svg").write_text(render_raster_svg(raster), encoding="ascii")
    summary = {
        "z0": [z0.real, z0.imag],
        "zeta": outcome.zeta,
        "censored_at": outcome.censored_at,
    }
    json_dump(summary, out / "outcome.json")
    return ["trajectory.csv", "trajectory.svg", "driver.csv", "cluster.csv", "cluster.svg", "outcome.json"]


_PHASE_HEADER = ["kappa", "alpha", "theta", "beta", "re_z", "im_z", "n", "T",
                 "hit_frac", "ci_lo", "ci_hi", "horizon_flag"]


def _phase_rows(estimates):
    for e in estimates:
        r = e.row()
        yield tuple(r[k] for k in _PHASE_HEADER)


def _run_phase(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    z = complex(p["z"][0], p["z"][1])
    ests = phase_scan(p["grid"], z, p["n"], p["horizon"], cfg.seed,
                      hit_tolerance=p["hit_tolerance"] or None)
    write_csv(out / "phase.csv", _PHASE_HEADER, _phase_rows(ests))
    return ["phase.csv"]


def _run_hitprob(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    z = complex(p["z"][0], p["z"][1])
    params = PhaseParams(z=z, kappa=p["kappa"], alpha=p["alpha"], theta=p["theta"], beta=p["beta"])
    est = hitting_probability(params, p["n"], p["horizon"], cfg.seed,
                              hit_tolerance=p["hit_tolerance"] or None)
    write_csv(out / "hitprob.csv", _PHASE_HEADER, _phase_rows([est]))
    return ["hitprob.csv"]


def _run_slopes(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    files = []
    summary = {}
    jobs = []
    if p["side"] in ("both", "near-zero"):
        jobs.append(("near_zero", slope_near_zero, p["x_grid_zero"]))
    if p["side"] in ("both", "near-infinity"):
        jobs.append(("near_infinity", slope_near_infinity, p["x_grid_inf"]))
    for name, fn, grid in jobs:
        fit = fn(p["kappa"], p["alpha"], p["theta"], grid, p["n"], p["horizon"], cfg.seed)
        fname = f"exponent_{name}.csv"
        write_csv(out / fname, ["x", "p_hat", "ci_lo", "ci_hi"],
                  zip(fit.x, fit.p_hat, fit.ci_lo, fit.ci_hi))
        files.append(fname)
        summary[name] = {
            "slope": fit.slope, "se": fit.slope_se, "expected": fit.expected,
            "pass": bool(abs(fit.slope - fit.expected) <= 0.15),
        }
    json_dump(summary, out / "fit_summary.json")
    files.append("fit_summary.json")
    return files


def _run_overshoot(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    rep = overshoot_histogram(p["kappa"], p["alpha"], p["theta"], p["a"], p["b"],
                              p["z"], p["n"], p["horizon"], cfg.seed, bins=p["bins"])
    header = ["lo", "hi", "density", "se", "bound"]
    write_csv(out / "overshoot_inner.csv", header, map(tuple, rep.inner_bins.tolist()))
    write_csv(out / "overshoot_outer.csv", header, map(tuple, rep.outer_bins.tolist()))
    summary = {
        "a": rep.a, "b": rep.b, "alpha": rep.alpha, "n": rep.n,
        "inner_fraction": rep.inner_fraction, "outer_fraction": rep.outer_fraction,
        "censored_fraction": rep.censored_fraction,
        "atom_inner": rep.atom_inner, "atom_outer": rep.atom_outer,
        "total_probability": rep.total_probability,
        "all_below_bound": rep.all_below_bound,
    }
    json_dump(summary, out / "overshoot.json")
    return ["overshoot_inner.csv", "overshoot_outer.csv", "overshoot.json"]


def _run_area(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    res = area_fraction(p["kappa"], p["alpha"], p["theta"], p["r_list"], p["resolution"],
                        p["horizon"], p["replicas"], cfg.seed, path_dt=p["path_dt"])
    write_csv(out / "area.csv", ["r", "fraction", "se", "T", "cells_across_min_r"],
              ((r, f, s, res.horizon, res.cells_across_min_r)
               for r, f, s in zip(res.r_list, res.fractions, res.se)))
    return ["area.csv"]


def _run_scalecheck(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    z = complex(p["z"][0], p["z"][1])
    res = scaling_check(p["kappa"], p["alpha"], p["theta"], p["a"], p["statistic"], z,
                        p["horizon"], p["n"], cfg.seed,
                        theta_tilde=(None if p["theta_tilde"] == -1.0 else p["theta_tilde"]),
                        exit_radius=(p["exit_radius"] or None))
    json_dump({
        "statistic": res.statistic, "a": res.a, "theta_tilde": res.theta_tilde,
        "ks_distance": res.ks_distance, "ks_critical": res.ks_critical,
        "passed": bool(res.passed), "n": res.n,
    }, out / "scalecheck.json")
    return ["scalecheck.json"]


def _run_disconnect(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    spec = _driver_spec_from(p)
    res = disconnection_frequency(spec, p["t"], p["n"], cfg.seed,
                                  window=tuple(p["window"]), resolution=tuple(p["resolution"]),
                                  path_dt=p["path_dt"])
    write_csv(out / "components.csv", ["replica", "components"],
              enumerate(res.component_counts.tolist()))
    json_dump({
        "t": res.t, "n": res.n, "fraction": res.fraction,
        "ci_lo": res.wilson[0], "ci_hi": res.wilson[1],
    }, out / "disconnect.json")
    return ["components.csv", "disconnect.json"]


def _run_theta0_bracket(cfg: RunConfig, out: Path) -> list[str]:
    p = cfg.params
    analytic = theta0_value(p["alpha"])
    grid = [m * analytic for m in p["grid_mults"]]
    z = complex(p["z"][0], p["z"][1])
    res = theta0_bracket(p["alpha"], grid, z, p["n"], p["horizon"], cfg.seed,
                         hit_tolerance=p["hit_tolerance"])
    write_csv(out / "theta0_scan.csv", _PHASE_HEADER, _phase_rows(res.estimates))
    json_dump({
        "alpha": res.alpha, "theta_lo": res.theta_lo, "theta_hi": res.theta_hi,
        "analytic_theta0": res.analytic, "contains_analytic": bool(res.contains_analytic),
        "widened": bool(res.widened),
    }, out / "theta0_bracket.json")
    return ["theta0_scan.csv", "theta0_bracket.json"]


_RUNNERS = {
    "gamma": _run_gamma,
    "theta0": _run_theta0,
    "trace": _run_trace,
    "phase": _run_phase,
    "hitprob": _run_hitprob,
    "slopes": _run_slopes,
    "overshoot": _run_overshoot,
    "area": _run_area,
    "scalecheck": _run_scalecheck,
    "disconnect": _run_disconnect,
    "theta0-bracket": _run_theta0_bracket,
}


@functools.cache
def _version_string() -> str:
    """Package version plus the git revision, read once per process."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent).stdout.strip()
    except Exception:
        rev = ""
    return f"levyloewner-{__version__}" + (f"+g{rev}" if rev else "")


def run(cfg: RunConfig) -> int:
    """Execute a validated run config; write artifacts and the manifest."""
    t0 = time.time()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[cfg.subcommand](cfg, out)
    write_manifest(out, cfg.serialize(), cfg.seed, outputs, time.time() - t0,
                   _version_string())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyloewner",
        description="Loewner evolutions driven by Levy processes: analytics and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--seed", type=str, default=None, help="64-bit master seed")
        sp.add_argument("--workers", type=str, default=None,
                        help="accepted and echoed in the manifest (default env "
                             "LL_WORKERS or 1); every subcommand runs on one thread")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        for key, (kind, _default, _validator) in SCHEMAS[name].items():
            flag = "--" + key.replace("_", "-")
            if kind == "grid":
                sp.add_argument(flag, dest=key, action="append", default=None,
                                metavar="AXIS=V1,V2,...")
            else:
                sp.add_argument(flag, dest=key, type=str, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: a build makes about
    140 arguments, each with its own help formatter, and costs milliseconds."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        mapping = {}
        if args.config:
            try:
                mapping.update(json.loads(Path(args.config).read_text()))
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {args.config}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        for key in SCHEMAS[args.subcommand]:
            v = getattr(args, key, None)
            if v is not None:
                mapping[key] = v
        for key in ("seed", "workers", "out"):
            v = getattr(args, key)
            if v is not None:
                mapping[key] = v
        cfg = parse_config(args.subcommand, mapping)
        return run(cfg)
    except LevyLoewnerError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": exc.exit_code}), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
