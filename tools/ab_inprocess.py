"""In-process A/B of two checkouts of levyloewner on one benchmark workload.

    python3 tools/ab_inprocess.py --base ../parent --workload cluster_raster --rounds 10

Loads the package from ``<base>/src`` and from ``<head>/src`` (default: this
checkout) side by side in one process, and runs the ops of one workload of
``perfbench/ops.py`` (``WORKLOADS``, or ``criterion13`` for its byte cases)
through ``levyloewner.cli.main`` on each, alternating which side runs first.
Round r runs every op at seed ``--seed + r`` on both sides, so the rounds
cover several inputs.  Every artifact but ``manifest.json`` must be byte-
identical between the sides; the script stops at the first difference.  It
prints, per op, the median process CPU time of each side with its first and
third quartiles beside it (so one run shows whether the gap between the
medians exceeds the base's spread between quartiles), the median of the
per-round ratios head / base, the rounds the head won, and each side's
engine-A and engine-B lane-steps over all rounds: the sum of
``LaneResult.steps`` over the op's ``evolve_lanes_on_path`` and
``run_adaptive_cells`` calls, and the annulus-exit loop's replica-steps
(column X): the sum over its iterations of the live replicas, for which its
``_live_draws`` calls in ``experiments`` take variates; and beside them each
side's engine-B lockstep iterations: the sum over the op's
``run_adaptive_cells`` calls of the most iterations a lane of the call was
live, max(steps + hit), and its death
iterations: the sum over those calls of the number of iterations in which a
lane of the call died, the distinct values of steps + hit.  These are
deterministic counts that a byte-neutral change leaves equal; under a stream
change they show whether time per iteration or the number of iterations
moved.  It first prints each side's ``src/`` line count, as ``wc -l``
counts it, the size that ROADMAP.md tracks, per module and in total, with
the change per module, so a table shows where the lines went; beside it
stands each side's count of settable values per module, as ROADMAP.md also
tracks it: the parameters of every public function and method (``self``
and ``cls`` left out), the fields of every public dataclass, and in
``cli.py`` the config keys of every subcommand.  Below the
table it lists, per op, the keys of the two sides' manifest config echoes
that differed in any round, leaving out ``out`` (the output directory).

``--stream-change`` times a deliberate change of the random streams: instead
of stopping at a difference it prints, per op, how many artifacts differed
between the sides over all rounds and, below the table, the sorted names of
those that differed in any round, so the output shows where bytes moved and
where they did not; it also prints each side's CPU ns per engine-A and per
engine-B lane-step and per annulus-exit replica-step, the op's CPU time over
that kernel's steps (nan where the op runs no step of that kernel).  A new
stream moves the work with the sample, so time alone does not compare the
sides.

Interleaving the sides in one process makes a paired comparison that machine
drift moves much less than separate benchmark runs do.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PKG = "levyloewner"


def _owned(name: str) -> bool:
    return name == PKG or name.startswith(PKG + ".")


def load(root: Path) -> dict:
    """Import every module of the package under ``root/src``; return them,
    keyed by module name, with sys.modules left free of the package."""
    for name in [m for m in sys.modules if _owned(m)]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        pkg = importlib.import_module(PKG)
        for mod in Path(pkg.__file__).parent.glob("*.py"):
            if mod.stem not in ("__init__", "__main__"):
                importlib.import_module(f"{PKG}.{mod.stem}")
    finally:
        sys.path.pop(0)
    mods = {m: sys.modules.pop(m) for m in list(sys.modules) if _owned(m)}
    if not Path(mods[PKG].__file__).is_relative_to(root / "src"):
        raise SystemExit(f"{PKG} was not loaded from {root / 'src'}")
    return mods


def src_lines(root: Path) -> dict[str, int]:
    """Newlines in each Python file under ``root/src``, keyed by its path
    relative to it."""
    src = root / "src"
    return {p.relative_to(src).as_posix(): p.read_bytes().count(b"\n") for p in src.rglob("*.py")}


def settable_values(root: Path, mods: dict) -> dict[str, int]:
    """Settable values of each loaded module (see the module docstring),
    keyed by its path relative to ``root/src``, as :func:`src_lines` keys it."""
    counts = {}
    for name, mod in mods.items():
        n = 0
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                n += len(inspect.signature(obj).parameters)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    n += len(dataclasses.fields(obj))
                for meth, m in vars(obj).items():
                    fn = getattr(m, "__func__", m)  # a classmethod's or staticmethod's function
                    if not meth.startswith("_") and inspect.isfunction(fn):  # less self or cls
                        n += len(inspect.signature(fn).parameters) - (not isinstance(m, staticmethod))
        if name == f"{PKG}.cli":
            n += sum(map(len, mod.SCHEMAS.values()))
        counts[Path(mod.__file__).relative_to(root / "src").as_posix()] = n
    return counts


def print_src_lines(roots: dict[str, Path], sides: dict[str, dict]) -> None:
    """Each side's ``src/`` line count and settable values per module and in
    total, each with the change from base to head (a module absent from a
    side, or not loaded, counts 0)."""
    lines = {side: src_lines(root) for side, root in roots.items()}
    values = {side: settable_values(roots[side], mods) for side, mods in sides.items()}
    rows = [(m, *(lines[side].get(m, 0) for side in roots), *(values[side].get(m, 0) for side in roots))
            for m in sorted(set().union(*lines.values()))]
    rows.append(("total", *(sum(lines[side].values()) for side in roots),
                 *(sum(values[side].values()) for side in roots)))
    width = max(len(m) for m, *_ in rows)
    print(f"{'src':<{width}}" + "".join(f" {side + ' lines':>10}" for side in roots) + f" {'change':>7}"
          + "".join(f" {side + ' settable':>13}" for side in roots) + f" {'change':>7}")
    for m, base, head, base_values, head_values in rows:
        print(f"{m:<{width}} {base:>10,} {head:>10,} {head - base:>+7,} "
              f"{base_values:>13,} {head_values:>13,} {head_values - base_values:>+7,}")


def count_lane_steps(mods: dict, name: str, results) -> list[int]:
    """Bind a counting wrapper of the engine function ``name`` in every module
    of ``mods`` that binds it; returns the three-item list to which each call
    adds the steps taken by the lanes of the ``LaneResult``s that
    ``results(returned value)`` lists, their most lockstep iterations,
    max(steps + hit), and the iterations in which one of them died, the
    distinct values of steps + hit (engine B's counts)."""
    fn = getattr(mods[f"{PKG}.engine"], name)
    total = [0, 0, 0]

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        res = fn(*args, **kwargs)
        total[0] += sum(int(r.steps.sum()) for r in results(res))
        total[1] += max(int((r.steps + r.hit).max()) for r in results(res))
        total[2] += len(set().union(*((r.steps + r.hit).tolist() for r in results(res))))
        return res

    for mod in mods.values():
        if getattr(mod, name, None) is fn:
            setattr(mod, name, counted)
    return total


ENGINES = {  # engine: (entry point, its LaneResults)
    "A": ("evolve_lanes_on_path", lambda res: [res[0] if isinstance(res, tuple) else res]),
    "B": ("run_adaptive_cells", lambda res: res),
}


def count_replica_steps(mods: dict) -> list[int]:
    """Bind a counting wrapper of ``_live_draws`` in the experiments module,
    whose one caller there is the annulus-exit loop; returns the three-item
    list (as :func:`count_lane_steps`) whose first item each call adds its
    live replicas to, ``plan[0]``."""
    exp = mods[f"{PKG}.experiments"]
    fn, total = exp._live_draws, [0, 0, 0]

    @functools.wraps(fn)
    def counted(plan, *args, **kwargs):
        total[0] += plan[0]
        return fn(plan, *args, **kwargs)

    exp._live_draws = counted
    return total


STEPS = (*ENGINES, "X")  # the kernels whose steps are counted: engines A and B, the annulus-exit loop


def activate(mods: dict) -> None:
    """Make ``mods`` the package seen by imports made while an op runs."""
    for name in [m for m in sys.modules if _owned(m)]:
        del sys.modules[name]
    sys.modules.update(mods)


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def echo_diff(a: dict, b: dict) -> set[str]:
    """The keys of two manifest config echoes whose values differ, a key on
    one side only included and ``out`` left out."""
    return {k for k in a.keys() | b.keys() if k != "out" and (k not in a or k not in b or a[k] != b[k])}


def run_op(mods: dict, argv: list[str], seed: int, out: Path) -> tuple[float, dict[str, str], dict]:
    """Run one op; return its CPU time, its artifacts' digests and the config
    echo of its manifest."""
    activate(mods)
    c0 = time.process_time()
    rc = mods[f"{PKG}.cli"].main(argv + ["--seed", str(seed), "--out", str(out)])
    cpu = time.process_time() - c0
    if rc:
        raise SystemExit(f"{' '.join(argv)} returned {rc}")
    return cpu, digests(out), json.loads((out / "manifest.json").read_text())["config"]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``xs`` (inclusive method,
    whose middle value is ``statistics.median``)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--head", type=Path, default=HERE, help="checkout under test (default: this one)")
    ap.add_argument("--workload", required=True, help="a workload of perfbench/ops.py, or criterion13")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--stream-change", action="store_true",
                    help="count differing artifacts per op instead of stopping at one; "
                         "also print CPU ns per engine-A and per engine-B lane-step")
    args = ap.parse_args(argv)

    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    sides = {side: load(root) for side, root in roots.items()}
    print_src_lines(roots, sides)
    counters = {side: {**{e: count_lane_steps(mods, *ENGINES[e]) for e in ENGINES},
                       "X": count_replica_steps(mods)}
                for side, mods in sides.items()}
    activate(sides["head"])
    sys.path.insert(0, str(args.head.resolve() / "perfbench"))
    import ops  # the op lists; imports the head's package
    sys.path.pop(0)
    if args.workload == "criterion13":
        op_list, warm = ops.CRITERION13, []
    else:
        op_list, warm = ops.WORKLOADS[args.workload], ops.WARMUP[args.workload]
    names = [f"{i}-{a[0]}" for i, a in enumerate(op_list)]

    cpu = {side: {n: [] for n in names} for side in sides}
    lane_steps = {side: {(n, e): 0 for n in names for e in STEPS} for side in sides}
    iterations = {side: {n: 0 for n in names} for side in sides}  # engine B's
    deaths = {side: {n: 0 for n in names} for side in sides}  # engine B's
    differ = {n: [0, 0] for n in names}  # artifacts that differed, artifacts compared
    changed = {n: set() for n in names}  # the names of those that differed
    echo_keys = {n: set() for n in names}  # manifest config keys that differed
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        work = Path(tmp)
        for side, mods in sides.items():  # lazy imports and first-call costs, untimed
            for i, a in enumerate(warm):
                run_op(mods, a, 0, work / side / "warm" / str(i))
        for r in range(args.rounds):
            seed = args.seed + r
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name, a in zip(names, op_list):
                got, echo = {}, {}
                for side in order:
                    before = {e: list(c) for e, c in counters[side].items()}
                    t, got[side], echo[side] = run_op(sides[side], a, seed, work / side / str(r) / name)
                    cpu[side][name].append(t)
                    for e, c in counters[side].items():
                        lane_steps[side][name, e] += c[0] - before[e][0]
                    iterations[side][name] += counters[side]["B"][1] - before["B"][1]
                    deaths[side][name] += counters[side]["B"][2] - before["B"][2]
                keys = got["base"].keys() | got["head"].keys()
                diff = sorted(k for k in keys if got["base"].get(k) != got["head"].get(k))
                if diff and not args.stream_change:
                    raise SystemExit(f"round {r} (seed {seed}) {name}: artifacts differ: {diff}")
                echo_keys[name] |= echo_diff(echo["base"], echo["head"])
                differ[name][0] += len(diff)
                changed[name].update(diff)
                differ[name][1] += len(keys)
            print(f"round {r} (seed {seed}): "
                  + ("timed" if args.stream_change else "artifacts identical"), flush=True)

    extra = "".join(f" {side + ' ' + e + ' lane-steps':>18}" for e in ENGINES for side in sides)
    extra += "".join(f" {side + ' X replica-steps':>20}" for side in sides)
    extra += "".join(f" {side + ' B iterations':>17}" for side in sides)
    extra += "".join(f" {side + ' B deaths':>13}" for side in sides)
    if args.stream_change:
        extra += "".join(f" {side + ' ' + e + ' ns/step':>15}" for e in STEPS for side in sides)
        extra += f" {'differ':>9}"
    side_cols = "".join(f" {side + ' s':>9} {'(q1':>7} {'q3)':>7}" for side in sides)
    print(f"\n{'op':<20}{side_cols} {'ratio':>7} {'wins':>7}{extra}")
    for name in names:
        b, h = cpu["base"][name], cpu["head"][name]
        spread = "".join(f" {med:9.3f} ({q1:6.3f} {q3:6.3f})" for q1, med, q3 in map(quartiles, (b, h)))
        ratios = [y / x for x, y in zip(b, h)]
        wins = sum(y < x for x, y in zip(b, h))
        extra = "".join(f" {lane_steps[side][name, e]:>18,}" for e in ENGINES for side in sides)
        extra += "".join(f" {lane_steps[side][name, 'X']:>20,}" for side in sides)
        extra += "".join(f" {iterations[side][name]:>17,}" for side in sides)
        extra += "".join(f" {deaths[side][name]:>13,}" for side in sides)
        if args.stream_change:
            for e in STEPS:
                steps = {side: lane_steps[side][name, e] for side in sides}
                extra += "".join(f" {1e9 * sum(cpu[side][name]) / steps[side] if steps[side] else float('nan'):>15.1f}"
                                 for side in sides)
            extra += f" {'/'.join(map(str, differ[name])):>9}"
        print(f"{name:<20}{spread} {statistics.median(ratios):7.3f} {wins:>3}/{len(b):<3}{extra}")
    print("\nmanifest config keys that differed in any round (out left out):")
    for name in names:
        print(f"{name:<20} {' '.join(sorted(echo_keys[name])) or '-'}")
    if args.stream_change:
        print("\nartifacts that differed in any round:")
        for name in names:
            print(f"{name:<20} {' '.join(sorted(changed[name])) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
