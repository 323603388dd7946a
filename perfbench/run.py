"""levyloewner benchmark: times the paper's workflows through the public CLI
entry point ``levyloewner.cli.main`` and checks their outputs.

    python3 perfbench/run.py --workload mc_phase --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-golden

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Artifacts, spans
and a full result record go to ``.perfbench/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 5
MIN_REPS = 2
# Median time of calibration() on the reference machine (2-core Xeon, see README.md).
CAL_REF_S = 0.78

sys.path[:0] = [str(SRC), str(BENCH)]
import ops  # noqa: E402  (imports levyloewner from src/)
import spans  # noqa: E402
from levyloewner import cli  # noqa: E402


def rep_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the successive repetitions of a run: each repetition is a
    fresh Monte Carlo sample, so a run's median averages over inputs."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def with_workers(argv, workers: int):
    i = argv.index("--workers")
    return argv[:i + 1] + [str(workers)] + argv[i + 2:]


def run_op(argv, seed: int, out: Path) -> dict:
    """One CLI invocation, timed by wall and process CPU clock."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv + ["--seed", str(seed), "--out", str(out)])
    except Exception:  # an op that crashes counts as failed; the run goes on
        traceback.print_exc()
        rc = -1
    return {"argv": argv, "seed": seed, "out": out, "rc": rc,
            "wall": time.perf_counter() - t0, "cpu": time.process_time() - c0}


def run_sequence(argvs, seed: int, out: Path) -> tuple[list[dict], float, float]:
    t0, c0 = time.perf_counter(), time.process_time()
    results = [run_op(argv, seed, out / f"{i}-{argv[0]}") for i, argv in enumerate(argvs)]
    return results, time.perf_counter() - t0, time.process_time() - c0


def check(results) -> tuple[int, int]:
    """Untimed output checks; returns (attempted, failed)."""
    failed = 0
    for r in results:
        problems = [f"exit code {r['rc']}"] if r["rc"] != 0 else ops.check_op(r["argv"], r["out"], r["seed"])
        if problems:
            failed += 1
            print(f"FAILED {' '.join(r['argv'])} (seed {r['seed']}): " + "; ".join(problems[:5]),
                  file=sys.stderr)
    return len(results), failed


def bessel(results) -> list[float]:
    """Signed deviations of the pure-Brownian hitprob rows from the exact law."""
    out = []
    for r in results:
        if r["argv"][0] == "hitprob" and r["rc"] == 0:
            p = ops.op_config(r["argv"]).params
            if p["theta"] == 0 and p["kappa"] > 0:
                out.append(float(ops.bessel_deviation(ops.read_rows(r["out"] / "hitprob.csv")[0])))
    return out


def fingerprints(results) -> dict[str, dict[str, str]]:
    return {f"{i}-{r['argv'][0]}": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                                    for name, p in ops.artifacts(r["out"]).items()}
            for i, r in enumerate(results) if r["rc"] == 0}


def golden_runs(workloads, out: Path) -> tuple[list[dict], list[dict], dict]:
    """The given workloads and the criterion-13 cases at the golden seed, one
    worker: (workload results, criterion-13 results, fingerprints)."""
    runs = {"criterion13": run_sequence(ops.CRITERION13, ops.GOLDEN_SEED, out / "c13")[0]}
    for w in workloads:
        runs[w] = run_sequence([with_workers(a, 1) for a in ops.WORKLOADS[w]],
                               ops.GOLDEN_SEED, out / w)[0]
    return ([r for w in workloads for r in runs[w]], runs["criterion13"],
            {k: fingerprints(v) for k, v in runs.items()})


def crashed(results) -> int:
    """Criterion-13 cases are gated on their exit code only: their zero-hit
    phase cell meets the rounding of wilson_ci (see README.md)."""
    return sum(r["rc"] != 0 for r in results)


def setup_seconds(workload: str) -> list[float]:
    """Wall times of fresh interpreters importing levyloewner.cli and parsing
    the workload's op configs."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import ops; "
            "[ops.op_config(a) for a in ops.WORKLOADS[sys.argv[3]]]")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH), workload],
                       check=True, cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def calibration() -> float:
    """Wall time of a fixed kernel that uses nothing from src/: 512-lane numpy
    arithmetic and random draws driven from a Python loop, the instruction mix
    of the flow kernels.  It tracks the speed the shared machine gives this
    process at the moment, so times measured next to it can be scaled to the
    reference machine's speed."""
    rng = np.random.Generator(np.random.Philox(12345))
    x = rng.random(512) + 0.5
    y = rng.random(512)
    alive = np.ones(512, dtype=bool)
    t0 = time.perf_counter()
    for _ in range(12000):
        h = np.hypot(x, y)
        dt = 0.1 * np.minimum(h ** 1.5 / 3.0, h * h / 2.0)
        np.clip(dt, 1e-6, 1.0, out=dt)
        dt[~alive] = 0.0
        du = np.sqrt(dt) * rng.standard_normal(512)
        x = np.where(alive, np.tanh(x - du) + 1.5, x)
        y = np.abs(np.cos(y + dt))
        alive = h > 0.2
    return time.perf_counter() - t0


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    head, rev = ROOT / ".git" / "HEAD", None
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: ") and (ROOT / ".git" / rev[5:]).is_file():
            rev = (ROOT / ".git" / rev[5:]).read_text().strip()
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_revision": rev, "src_sha256": digest.hexdigest(), "seed": seed,
        "src_lines": sum(f.read_bytes().count(b"\n") for f in files),
    }


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict, int, int]:
    """End-to-end metrics: the op sequence repeated for ``seconds``, and at
    least MIN_REPS times.
    Every time is scaled by CAL_REF_S over the calibration time measured on
    both sides of it."""
    cals = [calibration()]
    setup = setup_seconds(workload)
    cals.append(calibration())
    setup_scale = CAL_REF_S / statistics.mean(cals)
    run_sequence(ops.WARMUP[workload], 1, work / "warmup")
    reps, seeds, cals = [], rep_seeds(seed, 1000), [calibration()]
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        k = len(reps)
        reps.append(run_sequence(ops.WORKLOADS[workload], seeds[k], work / f"rep{k}"))
        cals.append(calibration())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = [2.0 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
    walls = [w for _, w, _ in reps]
    cpus = [c for _, _, c in reps]
    metrics = {
        "wall_s": statistics.median(w * f for w, f in zip(walls, scale)),
        "cpu_s": statistics.median(c * f for c, f in zip(cpus, scale)),
        "setup_s": statistics.median(setup) * setup_scale,
        "peak_rss_mb": rss,
    }
    results = [r for rs, _, _ in reps for r in rs]
    attempted, failed = check(results)
    extra = {
        "repetitions": len(reps),
        "raw_wall_s": walls,
        "raw_cpu_s": cpus,
        "raw_setup_s": setup,
        "speed_scale": scale,
        "setup_speed_scale": setup_scale,
        "op_raw_wall_s_median": {f"{i}-{a[0]}": statistics.median(rs[i]["wall"] for rs, _, _ in reps)
                                 for i, a in enumerate(ops.WORKLOADS[workload])},
    }
    devs = bessel(results)
    if devs:
        extra["bessel_dev_se_each"] = devs
        extra["bessel_dev_se"] = statistics.median(abs(b) for b in devs)
    return metrics, extra, attempted, failed


def coefficient_probe():
    """The coefficient layer at its CLI tolerance, for workloads whose ops do
    not reach it (and phi and gamma_coeff_alt, which no op calls)."""
    import levyloewner.stable_calculus as sc

    for a in (1.1, 1.3, 1.5, 1.7, 1.9):
        sc.theta0(a)
    for k in range(1, 10):
        p = 1.5 * k / 10
        sc.gamma_coeff(1.5, p)
        sc.gamma_coeff_alt(1.5, p)
        sc.phi(1.5, p)


def traced(workload: str, seed: int, work: Path) -> tuple[dict, dict, int, int]:
    """Per-layer metrics: one untraced and one traced pass on the same inputs,
    the single-worker baseline of mc_phase, and the golden fingerprints."""
    run_sequence(ops.WARMUP[workload], 1, work / "warmup")
    s0 = rep_seeds(seed, 1)[0]
    plain, wall_u, _ = run_sequence(ops.WORKLOADS[workload], s0, work / "untraced")
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        spanned, _, _ = run_sequence(ops.WORKLOADS[workload], s0, work / "traced")
        wall_t = time.perf_counter() - t0
        coefficient_probe()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
    results = plain + spanned
    devs = bessel(spanned)
    metrics["experiments.bessel_dev_se"] = abs(devs[0]) if devs else 0.0

    metrics["experiments.pool_slowdown"] = 0.0
    failed_extra = 0
    if workload == "mc_phase":
        single, wall_1, _ = run_sequence([with_workers(a, 1) for a in ops.WORKLOADS[workload]],
                                         s0, work / "single")
        metrics["experiments.pool_slowdown"] = wall_u / wall_1
        results += single
        if fingerprints(single) != fingerprints(plain):
            failed_extra += 1
            print("FAILED worker invariance: --workers 1 and 2 artifacts differ", file=sys.stderr)

    gold, c13, prints = golden_runs([workload], work / "golden")
    results += gold
    want = json.loads(GOLDEN.read_text())["fingerprints"]
    same = total = 0
    for group, by_op in prints.items():
        for op, files in by_op.items():
            for name, digest in want[group].get(op, {}).items():
                total += 1
                same += files.get(name) == digest
    metrics["output.artifacts_identical"] = same
    metrics["output.artifacts_golden"] = total

    attempted, failed = check(results)
    extra = {"untraced_wall_s": wall_u, "traced_wall_s": wall_t}
    (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(tracer.dump()))
    return metrics, extra, attempted + len(c13), failed + failed_extra + crashed(c13)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite perfbench/golden.json from the current src/")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not args.record_golden and args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload or 'golden'}-{args.seed}-{os.getpid()}"
    try:
        if args.record_golden:
            results, c13, prints = golden_runs(list(ops.WORKLOADS), work)
            if check(results)[1] or crashed(c13):
                return 1
            GOLDEN.write_text(json.dumps({
                "seed": ops.GOLDEN_SEED, "workers": 1, "record": run_record(ops.GOLDEN_SEED),
                "bessel_dev_se": bessel(results), "fingerprints": prints},
                indent=1, sort_keys=True) + "\n")
            return 0
        if args.trace:
            metrics, extra, attempted, failed = traced(args.workload, args.seed, work)
            wanted = spec["per_layer"]
        else:
            metrics, extra, attempted, failed = measure(args.workload, args.seed, args.seconds, work)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args.seed)
    extra["ops_failed_frac"] = failed / attempted
    for key, val in {**record, **extra}.items():
        print(f"# {key}: {val}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "record": record, "extra": extra}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
