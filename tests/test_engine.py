"""Monte Carlo engine: block and cell independence of the replica streams,
pinned output bytes on the pure-stable, composite-driver and real-axis paths
that the golden CLI artifacts do not reach, and the pools engine B takes its
variates from."""

import dataclasses
import gc
import hashlib
import itertools
import sys
import warnings

import numpy as np
import pytest

from levyloewner import engine
from levyloewner.drivers import (Brownian, CompoundPoisson, DriverPath, DriverSpec, JumpLaw, Stable,
                                 TruncatedStable, sample_driver, standard_stable_sample)
from levyloewner.engine import BLOCK, Cell, LaneResult, evolve_lanes_on_path, run_adaptive_cells
from levyloewner.errors import ConfigError
from levyloewner.experiments import _annulus_exit_positions
from levyloewner.rng import stream

COMPOSITE = DriverSpec((Brownian(3.0), TruncatedStable(1.5, 1.0, 1.0),
                        CompoundPoisson(1.0, JumpLaw("two_point", {"size": 0.5}))))
DRIVERS = {
    "brownian": DriverSpec((Brownian(8.0),)),
    "stable": DriverSpec((Stable(1.5, 2.0),)),
    "composite": COMPOSITE,
}
FIELDS = ("zeta", "x", "y", "min_abs", "steps")
# The outputs engine B computes (exit_time aside): its lanes keep no running
# minimum of |h|.
B_FIELDS = ("zeta", "x", "y", "steps")


@pytest.mark.parametrize("exit_radius", [None, 3.0])
@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_first_block_does_not_depend_on_later_blocks(driver, beta, exit_radius):
    cell = Cell(DRIVERS[driver], 0.5 + 0.3j, ("indep", driver), 1e-2)
    kw = dict(master_seed=5, beta=beta, exit_radius=exit_radius)
    many = run_adaptive_cells([cell], BLOCK + 588, 0.5, **kw)[0]
    one = run_adaptive_cells([cell], BLOCK, 0.5, **kw)[0]
    fields = B_FIELDS + (("exit_time",) if exit_radius is not None else ())
    for f in fields:
        np.testing.assert_array_equal(getattr(many, f)[:BLOCK], getattr(one, f), err_msg=f)


# Cells of multi-cell calls: Brownian+stable cells that differ in kappa, theta,
# z0 and hit tolerance, composite cells that differ in kappa and z0, and
# real-axis stable cells beside an off-axis one, which run the real-axis
# kernels alone and the general drift in the shared loop.
CELL_FAMILIES = {
    "brownian_stable": [
        Cell(DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), 0.5 + 0.3j, ("cell", 0), 1e-2),
        Cell(DriverSpec((Brownian(8.0), Stable(1.5, 0.5))), -0.2 + 0.6j, ("cell", 1), 3e-2),
        Cell(DriverSpec((Brownian(4.0), Stable(1.5, 2.0))), 0.1 + 0.05j, "cell2", None),
    ],
    "composite": [
        Cell(COMPOSITE, 0.5 + 0.3j, ("cell", 0), 1e-2),
        Cell(DriverSpec((Brownian(6.0),) + COMPOSITE.components[1:]), 0.2 + 0.4j, ("cell", 1), 2e-2),
    ],
    "real_and_off_axis": [
        Cell(DriverSpec((Stable(1.5, 1.0),)), -0.5, ("cell", 0), 1e-3),
        Cell(DriverSpec((Stable(1.5, 2.0),)), 0.3 + 0.2j, ("cell", 1), 1e-2),
        # within its tolerance: the first drift's step is the floor, far
        # above |z0|^beta
        Cell(DriverSpec((Stable(1.5, 0.5),)), 2e-4, ("cell", 2), 1e-3),
    ],
}


@pytest.mark.parametrize("exit_radius", [None, 2.0])
@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("family", sorted(CELL_FAMILIES))
def test_cells_of_one_call_equal_cells_run_alone(family, beta, exit_radius):
    # BLOCK + 188 replicas: each cell's second block is partial
    n = BLOCK + 188
    cells = CELL_FAMILIES[family]
    kw = dict(master_seed=9, beta=beta, exit_radius=exit_radius)
    together = run_adaptive_cells(cells, n, 0.5, **kw)
    assert len(together) == len(cells)
    for cell, res in zip(cells, together):
        alone = run_adaptive_cells([cell], n, 0.5, **kw)[0]
        for f in dataclasses.fields(LaneResult):
            a, b = getattr(res, f.name), getattr(alone, f.name)
            if b is None:
                assert a is None, f.name
            else:
                np.testing.assert_array_equal(a, b, err_msg=f"{cell.tag} {f.name}")


@pytest.mark.parametrize("other", [DriverSpec((Stable(1.2, 1.0),)), DriverSpec((Stable(1.5, 1.0),)), COMPOSITE])
def test_cells_of_other_driver_families_rejected(other):
    cells = CELL_FAMILIES["brownian_stable"][:1] + [Cell(other, 0.5 + 0.3j, "other")]
    with pytest.raises(ConfigError):
        run_adaptive_cells(cells, 100, 0.5, master_seed=9)


def test_no_cells_rejected():
    with pytest.raises(ConfigError, match="at least one cell"):
        run_adaptive_cells([], 100, 0.5, master_seed=9)


@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("z0", [1.0, 0.5 + 0.3j])
def test_engine_b_lanes_are_zeta_only(z0, beta):
    # engine B keeps no running minimum of |h|, on the real axis and off it,
    # so its results hold none to be read as one
    cell = Cell(DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), z0, ("zeta-only", beta), 1e-2)
    res = run_adaptive_cells([cell], 300, 1.0, master_seed=3, beta=beta)[0]
    assert 0 < res.hit.sum() < 300
    assert res.min_abs is None


def test_annulus_exit_first_block_does_not_depend_on_later_blocks():
    args = (1.0, 0.5, 1.0, 1.5, 1.0, 2.0)
    sides_many, pos_many = _annulus_exit_positions(*args, BLOCK + 788, 50.0, 11)
    sides_one, pos_one = _annulus_exit_positions(*args, BLOCK, 50.0, 11)
    np.testing.assert_array_equal(sides_many[:BLOCK], sides_one)
    np.testing.assert_array_equal(pos_many[:BLOCK], pos_one)


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# SHA-256 of each output array of a composite-driver run (x86-64, numpy 2.4);
# any change to the streams, the step rule or the kernels moves them.  The
# compound Poisson part is a jump clock: each live lane draws a fresh
# exponential wait and a jump size per iteration, the step ends at the wait
# when it comes first, and the jump lands at its exact event time.  Recorded
# at 2048-replica blocks, where the run is one block.
PINNED = {
    2.0: {
        "zeta": "c7dff718fb505c4e8d5996a05fe238db2442a3dfb54e6ba4763f927320a43faa",
        "x": "7d776773f2d2a21bb37f25c5194ff3730ad2dc95c84b4901a0c2330b42054cdc",
        "y": "872ff0b70865a1ad5bd0f99b2c3285c0bdd815b993daedcf24d1953797456424",
        "steps": "887ad676391f67c250c5d49cc404b130470b34073d84914501fdd3780b098bde",
        "exit_time": "570b52726d39c7e7fb3c1bce0ac1da88c232cfed2fbcf7ca1a59765270f73621",
    },
    1.5: {
        "zeta": "3853456b2e640dd7ff01b40a17666c3b19babe55c6d047408d18c20edeb04cfe",
        "x": "0a9b5ab508980641ee373ebc0ff2dfd00efefaee8329da8bd1af4ccc5c72c8eb",
        "y": "fad476929018c3b3d9b3812adb185c175b7f2e3db840e3a8ac11bf8f927dd688",
        "steps": "ba7b27e04e98ca48fc6a112b96f88bcd25a0b4dd9386741588dfdd2dc96e16d7",
    },
}


@pytest.mark.parametrize("beta", sorted(PINNED))
def test_composite_driver_output_bytes_pinned(beta):
    res = run_adaptive_cells([Cell(COMPOSITE, 0.5 + 0.3j, ("pin", beta), 1e-2)], 600, 0.5,
                             master_seed=2026, beta=beta,
                             exit_radius=2.0 if beta == 2.0 else None)[0]
    assert {f: _sha(getattr(res, f)) for f in PINNED[beta]} == PINNED[beta]


# SHA-256 over the output arrays of a two-cell pure-stable run whose cells
# differ in theta, 700 replicas each (x86-64, numpy 2.4).  alpha = 1, 1.5 and
# 2 take the tan, CMS and Gaussian branches of the stable map, and alpha = 0.5
# the CMS branch below 1, where the power's exponent (1 - alpha)/alpha is
# positive.  Recorded at 2048-replica blocks, one per cell; re-recorded over
# B_FIELDS, without the running minimum of |h| that engine B no longer keeps.
STABLE_PINNED = {
    (0.5, 2.0): "e3a106992d5cc7ad5810f3cf9cae242f318f0670e868e758146ccf9528707ecf",
    (1.0, 2.0): "2411e65bf96c394592f93a22cdc7a26605ed921c33d334b545260b3ebc0d0559",
    (1.0, 1.5): "b6d9db78a623e25a4bed912398625c5bc2b49b897e096ed4823272a694791490",
    (1.5, 2.0): "1d1d13fa63d13d9035623f1b6cf61b1b2be7a6ec4d485a9ccba1ea8060f42b6d",
    (1.5, 1.5): "6e6c2191a92301cced810141c1b037ea6b7064d44c79b70e27f75866707187d1",
    (2.0, 2.0): "f52b9f374532694e0f52ce4a1a67bc78e7b058393d2d585cbdf4d89facd0418a",
    (2.0, 1.5): "1b23c6bc26df1d7ca55166071e5ea6f6d268ed4845586dcdca4b6cf2ef67fe55",
}


def _digest(results, fields=B_FIELDS) -> str:
    digest = hashlib.sha256()
    for res in results:
        for f in fields:
            digest.update(np.ascontiguousarray(getattr(res, f)).tobytes())
    return digest.hexdigest()


def _stable_cells(alpha, thetas):
    return [Cell(DriverSpec((Stable(alpha, theta),)), 0.2 + 0.1j, ("pin-stable", theta), 1e-2)
            for theta in thetas]


@pytest.mark.parametrize("alpha, beta", sorted(STABLE_PINNED))
def test_stable_cells_output_bytes_pinned(alpha, beta):
    results = run_adaptive_cells(_stable_cells(alpha, (0.5, 2.0)), 700, 1.0, master_seed=2027, beta=beta)
    assert _digest(results) == STABLE_PINNED[(alpha, beta)]


# SHA-256 over the output arrays of runs that start on the real axis, where a
# lane stays, like every lane of `phase`, `hitprob` and `theta0-bracket`
# (x86-64, numpy 2.4): the flip rule of a Brownian part, the real-axis root at
# beta = 2 and the beta < 2 real-axis drift.  700 replicas per cell, one
# 2048-replica block.  theta0 and kappa_stable_beta1_5 were re-recorded when
# the beta < 2 real-axis drift took one power (hits and steps per cell
# unchanged: 0, 0, 25 and 225, 510 hits).  Every AXIS_PINNED digest was
# re-recorded over B_FIELDS, without the running minimum of |h|.
AXIS_PINNED = {
    "kappa_stable": "c79d48d7efb4971f69766c6f87b32c6ed9c82e2726face1a55e18c5ad352a180",
    "bessel": "d029135679fd743a77ee7142230f1f9ea5a17c8fa1bbfee0cf8313c28016a4f4",
    "theta0": "303db693c4adafd78ffad0c54a479c146b2bd0f01ee3008c777ac254a9093e50",
}

# More runs that start on the real axis (x86-64, numpy 2.4): a loop whose cells
# mix a real and an off-axis z0, which therefore keeps the general path; a
# composite cell, whose jump clock lands its jumps on the axis; and the flip
# rule at beta = 1.5.  700 replicas each.
AXIS_PINNED.update({
    "mixed_z0": "8efc4d12c68a205d8af328f156ccda3931daa7d065ddd8a4d2bcfb61dbc16a7d",
    "composite": "979f09c2b0da33e90110fc5ccabb9fe3574a2d1546a80bde58956aff95515b4a",
    "kappa_stable_beta1_5": "e3a0a9503b7070635c057abfd4b67086a366ef1ff62468a2d6a7f0135f270f39",
})

# Two cells of two blocks each, the second partial (x86-64, numpy 2.4): the
# block bookkeeping of cells larger than one block, which every other pin and
# every engine-B subcommand's default n leave out.
AXIS_PINNED["two_blocks"] = "b05a9f1d612f39b344e760ef14016efe7f1fda525ca2d571f0b4e249532ba6f4"

# Off-axis runs from just above the axis (y = delta) whose driver lists its
# stable part before its Brownian part (x86-64, numpy 2.4): the flip rule at a
# sub-increment that is not the step's first.  Lanes die by the flip rule 55
# times at beta = 2 and 134 times at beta = 1.5, and by |h| <= delta 86 and
# 245 times.
AXIS_PINNED.update({
    "stable_first": "d35274df68249721765e0c5de4662dc00ad6e31e29e205cbffe12c8ec4f651a9",
    "stable_first_beta1_5": "3f51993016af2e7722cf5b5dff54ee52a5534ec7b946623c2a5c58e6ed1fe1a5",
})


def _axis_run(case):
    if case == "two_blocks":
        cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("pin-blocks", k)) for k in (2.0, 8.0)]
        return _digest(run_adaptive_cells(cells, BLOCK + 188, 20.0, master_seed=2028))
    if case == "kappa_stable":
        cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("pin-axis", k)) for k in (2.0, 8.0)]
        return _digest(run_adaptive_cells(cells, 700, 20.0, master_seed=2028))
    if case == "bessel":
        res = run_adaptive_cells([Cell(DriverSpec((Brownian(8.0),)), 1.0, "pin-bessel")], 700, 20.0,
                                 master_seed=2028, exit_radius=4.0)
        return _digest(res, B_FIELDS + ("exit_time",))
    if case == "mixed_z0":
        cells = [Cell(DriverSpec((Brownian(8.0), Stable(1.5, 1.0))), 1.0, ("pin-mixed", 0)),
                 Cell(DriverSpec((Brownian(4.0), Stable(1.5, 0.5))), 0.5 + 0.3j, ("pin-mixed", 1))]
        return _digest(run_adaptive_cells(cells, 700, 20.0, master_seed=2028))
    if case == "composite":
        res = run_adaptive_cells([Cell(COMPOSITE, 1.0, "pin-axis-composite")], 700, 5.0,
                                 master_seed=2028, exit_radius=4.0)
        return _digest(res, B_FIELDS + ("exit_time",))
    if case.startswith("stable_first"):
        beta = 1.5 if case.endswith("beta1_5") else 2.0
        cell = Cell(DriverSpec((Stable(1.5, 1.0), Brownian(2.0))), 0.3 + 0.01j, ("pin-order", beta), 1e-2)
        return _digest(run_adaptive_cells([cell], 700, 2.0, master_seed=2029, beta=beta))
    if case == "kappa_stable_beta1_5":
        cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("pin-axis-beta", k)) for k in (2.0, 8.0)]
        return _digest(run_adaptive_cells(cells, 700, 20.0, master_seed=2028, beta=1.5))
    cells = [Cell(DriverSpec((Stable(1.5, th),)), 0.5, ("pin-theta0", th), 1e-5) for th in (0.5, 1.0, 2.0)]
    return _digest(run_adaptive_cells(cells, 700, 50.0, master_seed=2028, beta=1.5))


@pytest.mark.parametrize("case", sorted(AXIS_PINNED))
def test_real_axis_output_bytes_pinned(case):
    assert _axis_run(case) == AXIS_PINNED[case]


def _lane_iterations(res, b):
    """Lane-iterations of block b of a result: each lane is live for steps + hit
    lockstep iterations."""
    sl = slice(b * BLOCK, (b + 1) * BLOCK)
    return int((res.steps[sl] + res.hit[sl]).sum())


def test_stable_sample_runs_once_per_pool_refill(monkeypatch):
    # Two pure-stable cells of two blocks each, the second partial.  A block's
    # stable variates come from standard_stable_sample, called through the
    # engine's binding with POOL variates on the block's own stream, which
    # nothing else draws from; a call comes only when the pool holds fewer
    # variates than the block has live lanes, so a block makes
    # ceil(lane-iterations / POOL) of them.
    calls = {}  # the calls on each stream, in the order of their first call

    def counted(alpha, rng, size):
        sample = standard_stable_sample(alpha, rng, size)
        calls.setdefault(id(rng), []).append((size, sample))
        return sample

    monkeypatch.setattr(engine, "standard_stable_sample", counted)
    cells = _stable_cells(1.5, (0.5, 2.0))
    res = run_adaptive_cells(cells, BLOCK + 188, 1.0, master_seed=3)
    assert len(calls) == 4
    for made, (cell, r, b) in zip(calls.values(), [(c, r, b) for c, r in zip(cells, res) for b in range(2)]):
        rng = stream(3, *cell.tag, "block", b)
        assert len(made) == -(-_lane_iterations(r, b) // engine.POOL)
        for size, sample in made:
            assert size == engine.POOL
            np.testing.assert_array_equal(sample, standard_stable_sample(1.5, rng, engine.POOL))
    assert max(map(len, calls.values())) >= 3


def test_generator_calls_come_with_pool_refills(monkeypatch):
    # Two real-axis cells at the engine-B subcommands' default n, one block
    # each, with a normal and a stable draw kind.  Each lockstep iteration
    # makes one _live_draws call, and a draw kind's generator call comes only
    # when its pool refills, with POOL variates: ceil(lane-iterations / POOL)
    # calls per kind and block, and none in most iterations.
    n = 2000
    refills = []  # per draw kind of each block: the sizes of its generator calls
    per_iteration = []  # generator calls made in each _live_draws call

    def counted(draw, sizes):
        def call(rng, size):
            sizes.append(size)
            return draw(rng, size)
        return call

    class Counted(engine._Pool):
        def __init__(self, rng, draws):
            refills.extend([] for _ in draws)
            super().__init__(rng, [(counted(d, sizes), whole) for (d, whole), sizes
                                   in zip(draws, refills[-len(draws):])])

    def live_draws(plan, dt=None, live_draws=engine._live_draws):
        before = sum(map(len, refills))
        out = live_draws(plan, dt)
        per_iteration.append(sum(map(len, refills)) - before)
        return out

    monkeypatch.setattr(engine, "_Pool", Counted)
    monkeypatch.setattr(engine, "_live_draws", live_draws)
    cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("draw-budget", k)) for k in (2.0, 8.0)]
    res = run_adaptive_cells(cells, n, 5.0, master_seed=4)
    last = [int((r.steps + r.hit).max()) for r in res]  # a cell's last live iteration
    assert len(per_iteration) == max(last) > 100
    assert len(refills) == 2 * len(cells)  # a normal and a stable draw per block
    for r, kinds in zip(res, (refills[:2], refills[2:])):
        for sizes in kinds:
            assert sizes == [engine.POOL] * -(-_lane_iterations(r, 0) // engine.POOL)
    assert sum(map(bool, per_iteration)) <= sum(map(len, refills)) < len(per_iteration) / 10


def test_pool_size_keeps_single_draw_bytes(monkeypatch):
    # A pure-Brownian cell of three blocks: a block with one draw kind takes
    # its normals in the same stream order whatever the pool size, so its
    # bytes do not depend on POOL.
    cell = Cell(DriverSpec((Brownian(8.0),)), 1.0, "pool-size")
    digests = []
    for size in (BLOCK, 3 * BLOCK + 5):
        monkeypatch.setattr(engine, "POOL", size)
        digests.append(_digest(run_adaptive_cells([cell], 4100, 5.0, master_seed=6)))
    assert digests[0] == digests[1]


def _death_free_calls(z0):
    """Python-level calls (profiler "call" and "c_call" events) of each
    lockstep iteration in which no lane dies, on one block of 256 replicas of
    kappa = 8 + S(1.5, 1) from z0, with whether the iteration refilled the
    block's pools.  An iteration runs from one _live_draws call to the
    next."""
    iterations, calls, died, refill = [], 0, False, False

    def profile(frame, event, arg):
        nonlocal calls, died, refill
        if event == "call" and frame.f_code is engine._live_draws.__code__:
            iterations.append((calls, died, refill))
            calls, died, refill = 0, False, False
        if event in ("call", "c_call"):
            calls += 1
            died = died or (event == "call" and frame.f_code is engine._retire.__code__)
            refill = refill or (event == "call" and frame.f_code is standard_stable_sample.__code__)

    cell = Cell(DriverSpec((Brownian(8.0), Stable(1.5, 1.0))), z0, "budget")
    gc.collect()  # no finalizer of another test's garbage runs inside the count
    gc.disable()
    sys.setprofile(profile)
    try:
        run_adaptive_cells([cell], 256, 5.0, master_seed=1)
    finally:
        sys.setprofile(None)
        gc.enable()
    return [(c, r) for c, d, r in iterations[1:] if not d]


def test_death_free_iteration_call_budget():
    # Calls per death-free iteration (_death_free_calls): a guard on the fixed
    # cost per iteration that needs no timer.  The count includes numpy's
    # Python wrappers (such as _methods._all and numeric.ones), so it depends
    # on the numpy version, as the byte pins do (numpy 2.4); ufunc operators
    # do not show.  On the real axis it read 47-53 (53 at most) before
    # real-axis loops took real-axis arithmetic and rebuilt their block
    # bookkeeping only after a death, 31 while a step made its sub-increments
    # one at a time as they landed, and 29 once a step made them in one list.
    # Since the draws come from pools it reads 20 in an iteration that
    # refills none, and 28 in one that refills them.  A refill does the
    # generator calls and the stable map of many iterations at once, so its
    # iteration is barred only through the mean.
    axis = _death_free_calls(1.0)
    plain = [c for c, refill in axis if not refill]
    assert len(plain) > 100
    assert max(plain) <= 22
    assert sum(c for c, _ in axis) / len(axis) < 29
    # Off the axis it read 58-72 (mean 63.7) while each sub-increment ran its
    # own box test and index sets, 50-61 (mean 54.5) once a step landed
    # through engine A's kernel, one box test per step, and reads 41-52
    # (mean 44.7) in an iteration that refills no pool.
    off_axis = [c for c, refill in _death_free_calls(0.5 + 0.3j) if not refill]
    assert len(off_axis) > 100
    assert max(off_axis) <= 54


def test_compound_poisson_jumps_at_exact_event_times():
    # From 10i the drift keeps |h| near 10 up to T = 2, and the first jump of
    # size 50 throws |h| past 20, so exit_time is the first event time of a
    # rate-1 Poisson clock: Exp(1), censored at T with probability e^-2.  The
    # Kolmogorov distance must stay below its 1% critical value 1.628/sqrt(n).
    spec = DriverSpec((CompoundPoisson(1.0, JumpLaw("two_point", {"size": 50.0})),))
    n, horizon = 50_000, 2.0
    res = run_adaptive_cells([Cell(spec, 10j, "clock")], n, horizon, master_seed=7, exit_radius=20.0)[0]
    t = np.sort(res.exit_time[~np.isnan(res.exit_time)])
    cdf = -np.expm1(-t)
    i = np.arange(1, t.size + 1)
    dist = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n), abs(t.size / n + np.expm1(-horizon)))
    assert dist < 1.628 / np.sqrt(n)


def test_annulus_exit_output_bytes_pinned():
    # Brownian and stable parts (x86-64, numpy 2.4); the loop shares its block
    # draws with engine B.  Recorded at 2048-replica blocks, where 1300
    # replicas are one block.
    sides, pos = _annulus_exit_positions(1.0, 0.5, 1.0, 1.5, 1.0, 2.0, 1300, 50.0, 11)
    assert _sha(sides) == "8859917de8164b088f43f77d8949791f3ea9069a879b2590d24d8a20eb4ebac8"
    assert _sha(pos) == "4b38289d90e99176396b6cc368cbe030410214e5dbf412e13c054c302153f735"


# (kappa, alpha, theta) of more annulus-exit runs (x86-64, numpy 2.4), as
# above: the Cauchy map alone (alpha = 1, one uniform per draw) and a Brownian
# part beside the alpha > 1 map.
ANNULUS_PINNED = {
    (0.0, 1.0, 1.0): ("0821ccaa14e746fd881afa21b6bd4a46660b4961b628e3f1b9f8612de89e36af",
                      "9385618f21bdd05ba3495836b80593ea4e8ef66d55c9c46c9a304139ee0ec72e"),
    (2.0, 1.5, 0.5): ("a38fcab54f6c53fd93872d586d1d8c72b39f95284280c6a5ed741e0901f8d962",
                      "5d1ecfc9f0a8980d6bd47df8ea17d6c450fdb83bdf6f163eeb3085f4cb024c5a"),
}


@pytest.mark.parametrize("driver", sorted(ANNULUS_PINNED))
def test_annulus_exit_driver_bytes_pinned(driver):
    sides, pos = _annulus_exit_positions(*driver, 1.5, 1.0, 2.0, 1300, 50.0, 11)
    assert (_sha(sides), _sha(pos)) == ANNULUS_PINNED[driver]


# Off-axis lanes that cross exit_radius = 1.5 in the band max(|x|, y) < 1.5 <=
# |x| + y, where only hypot decides (x86-64, numpy 2.4).
EXIT_PINNED = {
    2.0: {"zeta": "7a4e4f82ceffc7a9a2153d25d7563f1e001bc0d56d99cbd44d2bf07a051c8b23",
          "x": "2eac930aae6c32e817400be7ac383fff4a0a25c95040cd9e10706c5a93669484",
          "y": "5a22cd3a32130f1c815e436257448369ad4a7149e52a639cf17c9a79a4f6cd73",
          "steps": "985311a204057d226a542a87a24b757b7f1b90e98b763a1a8960ce0947345ed9",
          "exit_time": "600b797671d2c1185daf4f18634e3d3c9bcb34dca25c39b55b51e8084bf1c044"},
    1.5: {"zeta": "8e42c30cb6c76bcf177fe1ce58ae37d4b609552b70a5a1b223e327307a8505b8",
          "x": "8248b17afee648334209ff4e4f1ff4619ccf48c2ddf858e5568aca472c725100",
          "y": "7875b6644ee6773eacab85e06ba5f1dc59d79a81e06ed97e1e5bbd358901c43c",
          "steps": "e3ac4c125afda2e3d9c8bcbab53f0d80c913410ea31d62f6d0eca5b86ae38c9a",
          "exit_time": "8dac1bf2be7f50be223290c32dbce2825990c1708e10b66fda5da2cd3f984a69"},
}


@pytest.mark.parametrize("beta", sorted(EXIT_PINNED))
def test_off_axis_exit_time_bytes_pinned(beta):
    cell = Cell(DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), 0.5 + 0.5j, ("pin-exit", beta))
    res = run_adaptive_cells([cell], 600, 2.0, master_seed=2026, beta=beta, exit_radius=1.5)[0]
    assert {f: _sha(getattr(res, f)) for f in EXIT_PINNED[beta]} == EXIT_PINNED[beta]


# ---------------------------------------------------------------------------
# the slit-map root
# ---------------------------------------------------------------------------

def _root_states(rng, n, scale):
    """n states (u, c, x) with |u| and |c| spread over 1e-3..1e3 times scale,
    both signs of u and x (x = -0.0 included), and some u = 0 and c = 0."""
    def spread():
        return scale * 10.0 ** rng.uniform(-3.0, 3.0, n)
    u = np.where(rng.random(n) < 0.5, -1.0, 1.0) * spread()
    c = np.where(rng.random(n) < 0.5, -1.0, 1.0) * spread()
    x = np.where(rng.random(n) < 0.5, -1.0, 1.0) * spread()
    u[:8], c[8:16], x[16:24] = 0.0, 0.0, -0.0
    return u, c, x


def _assert_root_is_complex_sqrt(u, c, x):
    w = np.empty(u.shape, dtype=complex)
    w.real = u
    w.imag = 2.0 * np.abs(c)
    ref = np.sqrt(w)
    got_x, got_y = x.copy(), np.full(u.shape, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine._slit_root(u, c, got_x, got_y)
    # bit for bit, signed zeros included
    np.testing.assert_array_equal(got_x.view(np.int64), np.copysign(ref.real, x).view(np.int64))
    np.testing.assert_array_equal(got_y.view(np.int64), ref.imag.view(np.int64))


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100, 1e150])
def test_slit_root_is_the_complex_square_root(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 200)
    u, c, x = _root_states(rng, 2000, scale)
    _assert_root_is_complex_sqrt(u, c, x)  # mixed signs of u, and u = 0
    pos = u > 0
    _assert_root_is_complex_sqrt(u[pos], c[pos], x[pos])  # every u > 0


def test_slit_root_near_the_limits():
    # around the bounds where the real-arithmetic root hands over to the
    # complex one: |u| or 2|c| near 2e307, hypot(u, 2|c|) near 1e-300, and
    # subnormal parts
    us = [0.0, 5e-324, 1e-310, 7e-301, 1e-300, 1.5e-300, 1.0, 1.9e307, 2e307, 2.1e307, 4e307, 1.7e308]
    cs = [0.0, 5e-324, 1e-310, 3.5e-301, 5e-301, 1.0, 0.95e307, 1e307, 1.05e307, 8e307]
    states = np.array([(su * u, c, sx) for u, c in itertools.product(us, cs)
                       for su in (1.0, -1.0) for sx in (0.5, -0.0)])
    u, c, x = states.T
    for i in range(u.size):  # each state alone takes its own branch
        _assert_root_is_complex_sqrt(u[i:i + 1], c[i:i + 1], x[i:i + 1])
    _assert_root_is_complex_sqrt(u, c, x)
    rng = np.random.default_rng(3)
    u_r, c_r, x_r = _root_states(rng, 500, 1.0)
    for i in range(0, u.size, 37):  # one such state among ordinary ones
        _assert_root_is_complex_sqrt(np.append(u_r, u[i]), np.append(c_r, c[i]), np.append(x_r, x[i]))


# ---------------------------------------------------------------------------
# the real-axis drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("per_lane_dt", [True, False])
@pytest.mark.parametrize("beta", [1.2, 1.5, 1.9])
def test_real_axis_lanes_take_one_drift_form(beta, per_lane_dt):
    # a real-axis lane gets the same bits from the real-axis kernel, from the
    # general drift when every lane is on the real axis, and from the general
    # drift beside off-axis and imaginary-axis lanes
    rng = np.random.default_rng(int(10 * beta))
    n = 3000
    x0 = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-5.0, 3.0, n)
    delta = 1e-5
    dt = (delta ** beta / 16.0 * 10.0 ** rng.uniform(0.0, 12.0, n)) if per_lane_dt else np.float64(0.01)

    def general(x, y, dt):
        m = x.size
        engine._drift_advance(x, y, dt, beta, 0.0, delta, np.full(m, np.nan), np.abs(x + 1j * y),
                              np.ones(m, dtype=bool))

    axis = x0.copy()
    engine._axis_drift(axis, dt, beta)
    # given |x|^beta, on the lanes with 2 beta dt <= 2 |x|^beta, as engine B's
    # real-axis loops give it
    xb = np.power(np.abs(x0), beta)
    near = (2.0 * beta * dt <= 2.0 * xb).nonzero()[0]
    x = x0[near]
    engine._axis_drift(x, engine._at(dt, near), beta, xb[near])
    np.testing.assert_array_equal(x.view(np.int64), axis[near].view(np.int64))
    x, y = x0.copy(), np.zeros(n)
    general(x, y, dt)
    np.testing.assert_array_equal(x.view(np.int64), axis.view(np.int64))
    np.testing.assert_array_equal(y.view(np.int64), np.zeros(n).view(np.int64))
    # the same lanes among off-axis lanes and imaginary-axis lanes
    off = np.array([0.3 + 0.2j, -0.1 + 2.0j, 0.0 + 1.5j, 4.0 + 1e-3j])
    x = np.concatenate([off.real, x0])
    y = np.concatenate([off.imag, np.zeros(n)])
    general(x, y, np.concatenate([np.full(off.size, 0.01), dt]) if per_lane_dt else dt)
    np.testing.assert_array_equal(x[off.size:].view(np.int64), axis.view(np.int64))
    np.testing.assert_array_equal(y[off.size:].view(np.int64), np.zeros(n).view(np.int64))


def _old_axis_form(x, dt, beta):
    """The real-axis drift as it was taken before one power: through
    u = x*x, two powers and a root."""
    return np.copysign(np.sqrt(((x * x) ** (beta / 2.0) + 2.0 * beta * dt) ** (2.0 / beta)), x)


@pytest.mark.parametrize("steps", ["step_rule", "wide"])
def test_real_axis_drift_accuracy(steps):
    # against the flow |x|^beta + 2 beta dt at 200 bits: 1,200 lanes per beta
    # with |x| from 1e-5 to 1e3 (100 of them within 3 delta of delta = 1e-5)
    # and 100 steps at the floor delta^beta / 16.  "step_rule" steps lie
    # below |x|^beta / (2 beta), as every step of engine B does, and must be
    # within 8 ulp; "wide" steps run up to 10, as a grid step of engine A may
    # beside a small |x|.  Neither may err by more than the former form over
    # all of its lanes.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2 if steps == "wide" else 1)
    delta, n = 1e-5, 1200
    worst = {"new": 0.0, "old": 0.0}
    for beta in (1.2, 1.5, 1.9):
        x = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-5.0, 3.0, n)
        x[:100] = np.copysign(delta * 10.0 ** rng.uniform(0.0, 0.5, 100), x[:100])
        floor = delta ** beta / 16.0
        top = np.maximum(np.abs(x) ** beta / (2.0 * beta), floor) if steps == "step_rule" else 10.0
        dt = np.exp(rng.uniform(np.log(floor), np.log(top), n))
        dt[100:200] = floor
        new = x.copy()
        engine._axis_drift(new, dt, beta)
        with mpmath.workprec(200):
            b = mpmath.mpf(beta)
            exact = [mpmath.sign(xi) * (abs(mpmath.mpf(xi)) ** b + 2 * b * mpmath.mpf(d)) ** (1 / b)
                     for xi, d in zip(x.tolist(), dt.tolist())]
            for name, got in (("new", new), ("old", _old_axis_form(x, dt, beta))):
                ulps = max(float(abs(mpmath.mpf(g) - e) / np.spacing(abs(g)))
                           for g, e in zip(got.tolist(), exact))
                if name == "new" and steps == "step_rule":
                    assert ulps <= 8.0, (beta, ulps)
                worst[name] = max(worst[name], ulps)
    assert worst["new"] <= worst["old"], worst


# ---------------------------------------------------------------------------
# engine A: lanes sharing one sampled path
# ---------------------------------------------------------------------------

def _path_lanes(first):
    """A 24x16 raster of the window [-2,2]x[0,2.5] behind ``first``, plus
    points on both axes (one with a negative-zero real part); a tuple
    ``first`` holds every lane instead."""
    if isinstance(first, tuple):
        z = np.array(first, dtype=complex)
    else:
        gx, gy = np.meshgrid(np.linspace(-2.0, 2.0, 24), np.linspace(0.05, 2.5, 16))
        axes = [0.3, -0.7, 1.5, 0.4j, 1.1j, complex(-0.0, 0.8)]
        z = np.concatenate([[first], (gx + 1j * gy).ravel(), axes])
    return z, 0.02 * (1.0 + np.abs(z))


# spec, beta, path horizon, grid step, lane 0 (or every lane), run horizon
# (inside the last grid step for the first case)
PATH_CASES = {
    "brownian_beta2": (DriverSpec((Brownian(4.0),)), 2.0, 1.5, 0.005, 0.1 + 0.1j, 1.4985),
    "stable_beta1_5": (DriverSpec((Stable(1.5, 1.0),)), 1.5, 1.0, 0.01, 1.5 + 1.0j, 1.0),
    "bs_beta2": (DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), 2.0, 1.5, 0.005, 0.1 + 0.1j, 1.4985),
    "bs_beta1_5": (DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), 1.5, 1.0, 0.01, 1.5 + 1.0j, 1.0),
    "cpp_beta2": (DriverSpec((Brownian(0.0), CompoundPoisson(4.0, JumpLaw("two_point", {"size": 0.5})))),
                  2.0, 3.0, 0.01, 0.3 + 0.2j, 3.0),
    # about a third of the live lanes lie in the near box at each check
    "k4_stable_beta1_5": (DriverSpec((Brownian(4.0), Stable(1.5, 1.0))), 1.5, 1.0, 0.01, 1.5 + 1.0j, 1.0),
    # a step's |d_cont| + |d_jump| (median 0.55) of the order of the lanes' |h|
    "big_steps_beta2": (DriverSpec((Brownian(40.0), CompoundPoisson(10.0, JumpLaw("two_point", {"size": 1.0})))),
                        2.0, 1.0, 0.01, 0.3 + 0.2j, 1.0),
    "big_steps_beta1_5": (DriverSpec((Brownian(40.0), CompoundPoisson(10.0, JumpLaw("two_point", {"size": 1.0})))),
                          1.5, 1.0, 0.01, 0.3 + 0.2j, 1.0),
    # every lane on the real axis, so every step's drift takes the real-axis
    # closed form; 0.3 hits, -0.7 and -3.0 retire early as zeta-only lanes
    "k4_stable_axis_beta2": (DriverSpec((Brownian(4.0), Stable(1.5, 1.0))), 2.0, 1.0, 0.01,
                             (1.5, 0.3, -0.7, -3.0), 1.0),
    "k4_stable_axis_beta1_5": (DriverSpec((Brownian(4.0), Stable(1.5, 1.0))), 1.5, 1.0, 0.01,
                               (1.5, 0.3, -0.7, -3.0), 1.0),
}


def _path_run(case, keep=slice(None), record_trajectory=True):
    spec, beta, path_horizon, dt, first, horizon = PATH_CASES[case]
    path = sample_driver(spec, path_horizon, 2026, dt=dt)
    z, tol = _path_lanes(first)
    return evolve_lanes_on_path(z[keep], path, horizon, hit_tolerance=tol[keep], beta=beta,
                                record_trajectory=record_trajectory)


# SHA-256 of engine A's output arrays and lane 0's trajectory (x86-64, numpy
# 2.4), recorded before engine A ran on live lanes only; bs_beta1_5 re-recorded
# when each beta < 2 lane took its own RK4 substep count (its bytes now equal
# those of each lane run alone before that change).  brownian_beta2 and
# stable_beta1_5 were recorded before engine A split each grid step into its
# continuous and jump parts, which leaves them, and cpp_beta2, unchanged; the
# mixed bs_* cases were re-recorded then (hit lanes: bs_beta2 31 -> 36,
# bs_beta1_5 22 -> 25).  k4_stable_beta1_5 and the big_steps cases (hit lanes
# 37, 73, 53) were recorded before each grid step ran one box test that gates
# all of its hit checks.  The x (and, where it moved, min_abs) digests of the
# beta = 1.5 cases were re-recorded when the beta < 2 real-axis drift took one
# power: only real-axis lanes (of 0.3, -0.7 and 1.5) changed, in their last
# bits, with their zeta and steps and lane 0's trajectory unchanged.  The four
# stable-driven cases were re-recorded when the stable map took two tangents
# (a rounding change of every variate): their steps are unchanged.  The two
# all-real-axis cases were recorded before the beta = 2 drift sent such a lane
# set through the real-axis closed form instead of the slit-map root.
PATH_PINNED = {
    "brownian_beta2": {
        "zeta": "3e720f238650f79309515889537152524ae41e57019a105b477ed45079f051a4",
        "x": "36a80fb0422ba38ad89e9c3afeffb1dee3dacc65b4264ec0206a11c180de72c7",
        "y": "b023b817fd3be944949f5d6306edb5c2de30f72e8e87f161b665c3f6f3652667",
        "min_abs": "576abf3eb3219a9513fdd364663816663d0c13d45d3ec589807f077dccc3c87d",
        "steps": "8121ae4bf3a0bd3a608b50a3a582581a8b3bd06aebdf5d082af5608c1601c683",
        "trajectory": "8542913eefe6cf7aafa4767365f12d92dd93d6e10229fc2937a209789e7c5f19",
    },
    "stable_beta1_5": {
        "zeta": "504da7f069f2ce1d1b7352e2af6c97b6596340a2d4cac3600cfa45bf262902e1",
        "x": "c9425809bb8a11e136f2b01ac66948e3996dd341253d150a86b0060a823b0b34",
        "y": "9866d3b1afb34c8f1cee8e53852fdf9232f2a385217b4cc3fe428e860fd0f080",
        "min_abs": "64e7d97c0e569214c3fbb1908fa33545dc082aa0cc02d0964f3ee3c5f8ebdf27",
        "steps": "3c7ae0d179c595639946b17e42c5b346b328f1ca2a46bc60fed2fc851649eb4b",
        "trajectory": "611efa037314a5a81bfe23767332ffe6411a2a18c2cfcd6a506c2e1a80fe92a5",
    },
    "bs_beta2": {
        "zeta": "2f1d490a483a835fae817bd58fd36835094e53c0df132b90fd5cc7b654895e7d",
        "x": "cd99ababd150f7361cab2b98bddadea8551221f67e181fc6ec4127d10e3a694e",
        "y": "133b605be8665e5188839793e0d35dc3dc0107c5670602d2b6fc412ec2fe19b4",
        "min_abs": "233afb4df1c4b34c1e77cb9cd1608419452bdff85b59567100b3436c91b86577",
        "steps": "a4e722ec820161109765735ad085ce5da840bb3eb3b472862598a37f5ad58032",
        "trajectory": "20829e0182a58cd82ba1e3f2b1c19a9068a40dfe914d0a2cfd9e9354dedc3798",
    },
    "bs_beta1_5": {
        "zeta": "8afa1f821131de566e224ae1e8df7d1af4bbff0575f9474dabbb31266c415ad7",
        "x": "04060a9f35de3be8946bad6cd06adb47a0844ed2ff3da83f61a2136e476d5da7",
        "y": "9f9e93261dc7b214f20827a7bb6bbc75276c51598332ff031b8a58137af2985d",
        "min_abs": "c79590fa821a887ce38208089a8f5d111cef163831c839d86ba9966173881849",
        "steps": "b747e2543c3cd5b8d441aafd0acf241951588f01ca2d03a6d3251dc05a7feb89",
        "trajectory": "91ff421a527056878404483baac561d593d09c44e862094782e7a940d8e6bd91",
    },
    "cpp_beta2": {
        "zeta": "559d239794bd19b9474c47c56a05f7b2c4aeec07b98079b549e4a02bb6969241",
        "x": "935991703cb4a84a02108a73c9791798ab3e287949f7ff57aca7df797b61590a",
        "y": "f4b97a4d349f0662c3beffd9f74e1d6b5c33b47c57f429178fb516cd81b363a3",
        "min_abs": "4435f659d3dbdf44739846f7c62b4e47dfbb0cadc46c550e73e04ddde042b4cb",
        "steps": "719b2fcb47e8a05e257453c651af9da49d8ada008ff4318e54f75a6a386843fc",
        "trajectory": "978cf40868f3edd990c420e94651cfb774871c82df43c3c9217f66f497f62445",
    },
    "k4_stable_beta1_5": {
        "zeta": "958476af9ff9f91991b59525162bc6bfe5c01d86cacef96b5adf269ea5807958",
        "x": "b36eee40c8aa25c0536a2565df59c357796c0cda90e889eb5b232176d2f50e23",
        "y": "10e798302223c04cbd4328667ddabceb22abbc589a99b33a08fe6dd63c6453ff",
        "min_abs": "3236f0596f84c9d2dfa625a8ef98d884e1b8208d5e0aa5d7bdade7e841e35ea5",
        "steps": "fc21d2a4c9bbca55976b471e97fcbb08baa39d85b6746d11765e927b371bb9c1",
        "trajectory": "7efca52af23eca30eff260807f7eed6f455375c54928fd5232e89dda0505cd43",
    },
    "big_steps_beta2": {
        "zeta": "311064ee62afb80b0cccf210f9adbcc1d227dc08abded4039159c4bbda244fbf",
        "x": "d415ead2901e10425d86d4a7b72bb226eb48ab1aef325d4316e0cd683873b55c",
        "y": "5dc7bd224fc412ddc6e2ad8115c172d55163c360cbb5331862c6e95e71007401",
        "min_abs": "475da19cb5a2d4b552ef47fa8370b7bd58b382ea166c7775dd77109a57169761",
        "steps": "45d0018831b190b1b71bf695999004b2cbb5d0ea5d9dfd939416b7591defe4a8",
        "trajectory": "5821914161c39401e56561530d04dc95d7a0a2d1fe3aa018fec8e792110c04be",
    },
    "big_steps_beta1_5": {
        "zeta": "f4c0ff8e18d8150510991263c7058015f56309a50efcc79df82f769268a55456",
        "x": "37fe3ff13a5734314a53f699bfdf75d95bbbbb12e39ebd8671be417087277e9e",
        "y": "8716b55bbfb8340eca58c0a4ff4c24859746672d53c6cebd99b3feba1079a051",
        "min_abs": "f8a5effde74f52ac51d270bede1768f58457d39aa2d1dcb3d222791e05a7e407",
        "steps": "eda0b5533f3e98db8e5d7c8a609a98b16f86cc54d43530003a847f046a911a89",
        "trajectory": "f30aa59f1d89fa26dab0b00294510c894859ca0baaaaab05734e5462a5d75bec",
    },
    "k4_stable_axis_beta2": {
        "zeta": "0f5d5b73c3d144710d0359e6aaee99ec4da56a6cc6548fe099bc58a9a7636240",
        "x": "da8922bd69d022c4b4552fec7b2ca526bf468a7b3667b98648694918bb5f8ce8",
        "y": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        "min_abs": "0656a5621bba5ae118fe6644e13801ae8a39c621a08171098d0944c87b853dae",
        "steps": "480272b09fffdda72767382a72ce232f2a1384e78ec8cc0087317e6be250ccbf",
        "trajectory": "2840973247dabbf8f65c93161ff7d3032bded22abc79dc9bd602173515c34463",
    },
    "k4_stable_axis_beta1_5": {
        "zeta": "a17214612bdd29dcd85252c743e89779f49ba46e9d3e91f4bd612122e33c28b0",
        "x": "51dd20cabc7a1092fd06d87746114fdf91afdf7fcb9d77e64f1d4b06dae55720",
        "y": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        "min_abs": "f349e3003dc6a1e792d977faa36b77b9e40941e69d5f8c3f8963f18598a71ba0",
        "steps": "f0f70ef7c4f0bbb2c9e9b800c9d0cdd8a5281931c6837bda6c31e54aaea59eb1",
        "trajectory": "e2392638f95e7376b5c382cf401350dc9941aa4b763d3fa21b11c975483ce974",
    },
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_path_output_bytes_pinned(case):
    res, traj = _path_run(case)
    got = {f: _sha(getattr(res, f)) for f in FIELDS}
    got["trajectory"] = _sha(traj)
    assert got == PATH_PINNED[case]


# One step of a lane at y <= delta whose continuous part moves x = 0.5 by
# d_cont and whose jump part then moves it by d_jump: a crossing of 0 by the
# continuous part is a hit even when the jump undoes it, and a crossing by the
# jump part is not.  A hit lane stops where the continuous part took it.
@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("d_cont, d_jump, hit, x_end", [(1.0, -0.9, True, -0.5),
                                                        (0.05, 0.9, False, -0.45)])
def test_only_the_continuous_part_crosses_zero(d_cont, d_jump, hit, x_end, beta):
    path = DriverPath(np.array([0.0, 1e-6]), np.array([0.0, d_cont + d_jump]), "one-step",
                      continuous=np.array([0.0, d_cont]))
    res = evolve_lanes_on_path([0.5 + 0.001j], path, path.horizon, hit_tolerance=0.01, beta=beta)
    assert res.hit[0] == hit
    assert res.x[0] == pytest.approx(x_end, abs=1e-4)


@pytest.mark.parametrize("case", ["bs_beta2", "bs_beta1_5"])
def test_path_lanes_do_not_depend_on_other_lanes(case):
    keep = np.r_[0, 5:385:3, 385:391]
    full = _path_run(case, record_trajectory=False)
    part = _path_run(case, keep, record_trajectory=False)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(full, f)[keep], getattr(part, f), err_msg=f)


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_lanes_without_a_running_minimum_keep_their_hits(case):
    # zeta-only lanes keep no minimum of |h| and are retired once the rest of
    # the path can no longer hit them: zeta and hits equal the full run's bit
    # for bit; a lane not retired keeps x, y and its step count, a retired one
    # reads NaN x and y, took fewer steps and was censored in the full run;
    # the other lanes keep their minima, and lane 0 its trajectory
    full, traj = _path_run(case)
    spec, beta, path_horizon, dt, first, horizon = PATH_CASES[case]
    z, tol = _path_lanes(first)
    keep = np.arange(z.size) % 7 == 0
    part, part_traj = evolve_lanes_on_path(z, sample_driver(spec, path_horizon, 2026, dt=dt), horizon,
                                           hit_tolerance=tol, beta=beta, record_trajectory=True,
                                           zeta_only=~keep)
    assert part.zeta.tobytes() == full.zeta.tobytes()
    np.testing.assert_array_equal(part.hit, full.hit)
    retired = np.isnan(part.x)
    assert retired.any() and not retired[keep].any()
    assert np.isnan(part.y[retired]).all() and not full.hit[retired].any()
    assert (part.steps[retired] < full.steps[retired]).all()
    for f in ("x", "y", "steps"):
        np.testing.assert_array_equal(getattr(part, f)[~retired], getattr(full, f)[~retired], err_msg=f)
    np.testing.assert_array_equal(part_traj, traj)
    assert part.min_abs[keep].tobytes() == full.min_abs[keep].tobytes()
    assert not part.min_abs[~keep].any()


def _zeta_only_run(path, z0, tol, horizon=None, beta=2.0):
    """The full run of the lanes z0 and the run with every lane zeta-only,
    whose zeta must equal the full run's bit for bit."""
    horizon = path.horizon if horizon is None else horizon
    full = evolve_lanes_on_path(z0, path, horizon, hit_tolerance=tol, beta=beta)
    part = evolve_lanes_on_path(z0, path, horizon, hit_tolerance=tol, beta=beta, zeta_only=True)
    assert part.zeta.tobytes() == full.zeta.tobytes()
    assert not full.hit[np.isnan(part.x)].any()
    return full, part


@pytest.mark.parametrize("beta", [2.0, 1.5])
def test_retirement_sees_a_continuous_excursion_the_jump_undoes(beta):
    # the continuous part goes 0 -> 1 in the second step and its jump part
    # back to 0: every grid value is 0, but x = 0.5 flips sign at y <= delta,
    # a hit; only the value after the continuous sub-increment keeps that lane
    # from retiring after the first step, while x = 1.5 stays right of 1 + delta
    path = DriverPath(np.array([0.0, 1e-6, 2e-6]), np.zeros(3), "excursion",
                      continuous=np.array([0.0, 0.0, 1.0]))
    full, part = _zeta_only_run(path, [0.5 + 0.01j, 1.5 + 0.01j], 0.02, beta=beta)
    assert full.hit.tolist() == [True, False]
    assert part.steps.tolist() == [2, 1] and np.isnan(part.x[1]) and np.isnan(part.y[1])


def _edge_path(sign):
    """Two steps of 1e-9: in the second the continuous part goes 0 -> -2^40
    and the jump part to 1 (mirrored for sign -1), so a lane's x takes the
    ulp of 2^40 once; the range after the first step is [-2^40, 1] and the
    slack (1 step left + 1) 2^-44 (V + D) with V = 2^40 and D = 1/4."""
    path = DriverPath(np.array([0.0, 1e-9, 2e-9]), np.array([0.0, 0.0, 1.0]), "edge",
                      continuous=np.array([0.0, 0.0, -2.0 ** 40]))
    return (path if sign > 0 else path.negated()), 2.0 * 2.0 ** -44 * (2.0 ** 40 + 0.25)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("beta", [2.0, 1.5])
def test_retirement_edge_is_tolerance_plus_slack(beta, sign):
    # 1.25 + 2^-14 lies right of hi + delta = 1.25, but rounds to 2^40 + 1.25
    # on the way and lands at |x| = delta: a hit, inside the slack, that a
    # test without it would retire; just inside 1.25 + slack a lane stays,
    # just outside it is retired, and both are censored (the case x < lo
    # mirrors x > hi)
    path, slack = _edge_path(sign)
    x0 = np.array([1.25 + 2.0 ** -14, 1.25 + 0.99 * slack, 1.25 + 1.01 * slack])
    full, part = _zeta_only_run(path, sign * x0, 0.25, beta=beta)
    assert full.hit.tolist() == [True, False, False]
    assert np.isnan(part.x).tolist() == [False, False, True]
    assert part.steps.tolist() == [2, 2, 1]


def test_retirement_with_the_horizon_inside_the_last_grid_step():
    # the run stops at 0.025, inside the third step, so the path's last value
    # 3 never lands: after the first step every later value is 0, and lanes
    # at x = 1 and x = 3 (beyond the unused value) retire there; the one on
    # the imaginary axis is swallowed at t = 0.0225, in the partial step
    path = DriverPath(np.array([0.0, 0.01, 0.02, 0.03]), np.array([0.0, 0.0, 0.0, 3.0]), "partial")
    full, part = _zeta_only_run(path, [1.0 + 0.1j, 3.0 + 0.01j, 1e-4 + 0.3j], 0.02, horizon=0.025)
    assert full.hit.tolist() == [False, False, True]
    assert full.zeta[2] == pytest.approx(0.0225)
    assert full.steps.tolist() == [3, 3, 3]
    assert part.steps.tolist() == [1, 1, 3] and np.isnan(part.x[:2]).all()


def test_retiring_every_lane_ends_the_run():
    # a null driver on 100 steps leaves no lane within reach of the origin:
    # all retire after the first step, where the loop ends
    path = DriverPath(np.linspace(0.0, 1.0, 101), np.zeros(101), "null")
    z0 = [2.0 + 0.5j, -2.0 + 0.5j, 3.0, -0.5 + 0.1j]
    full, part = _zeta_only_run(path, z0, 0.01)
    assert not full.hit.any() and (full.steps == 100).all()
    assert (part.steps == 1).all() and np.isnan(part.x).all() and np.isnan(part.y).all()
    assert not part.min_abs.any()


@pytest.mark.parametrize("flag", ["yes", 1, None, [True], np.ones(3, dtype=bool), np.ones((2, 1), dtype=bool)])
def test_path_rejects_bad_zeta_only(flag):
    path = sample_driver(DRIVERS["brownian"], 1.0, 1, dt=0.01)
    with pytest.raises(ConfigError, match="zeta_only"):
        evolve_lanes_on_path([0.5 + 0.5j, 1.0j], path, 1.0, zeta_only=flag)


BAD_TOLERANCES = [0.0, -1e-3, np.nan, np.inf]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_path_rejects_bad_hit_tolerance(tol):
    path = sample_driver(DRIVERS["brownian"], 1.0, 1, dt=0.01)
    with pytest.raises(ConfigError):
        evolve_lanes_on_path([0.5 + 0.5j, 1.0j], path, 1.0, hit_tolerance=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_mc_rejects_bad_hit_tolerance(tol):
    with pytest.raises(ConfigError):
        run_adaptive_cells([Cell(DRIVERS["brownian"], 1.0, "bad", tol)], 16, 1.0, master_seed=1)


@pytest.mark.parametrize("z0", [complex(np.nan, 1.0), complex(np.inf, 1.0), complex(1.0, np.inf),
                                complex(1.0, np.nan)])
@pytest.mark.parametrize("which", ["A", "B"])
def test_engines_reject_non_finite_start_point(which, z0):
    # a given tolerance leaves only the start point to refuse; unchecked, such
    # a lane came back censored or with a NaN outcome
    path = sample_driver(DRIVERS["brownian"], 1.0, 1, dt=0.01)
    with pytest.raises(ConfigError, match="z0 must be finite"):
        if which == "A":
            evolve_lanes_on_path([z0], path, 1.0, hit_tolerance=0.01)
        else:
            run_adaptive_cells([Cell(DRIVERS["brownian"], z0, "bad", 0.01)], 16, 1.0, master_seed=1)


@pytest.mark.parametrize("exit_radius", [0.0, -1.0, np.nan])
def test_mc_rejects_bad_exit_radius(exit_radius):
    # 0 or below would mark every lane as exited at its first step, NaN none
    with pytest.raises(ConfigError, match="exit_radius"):
        run_adaptive_cells([Cell(DRIVERS["brownian"], 1.0, "bad")], 16, 1.0, master_seed=1,
                           exit_radius=exit_radius)


@pytest.mark.parametrize("horizon", [np.inf, 0.0, -1.0, np.nan])
def test_mc_rejects_bad_horizon(horizon):
    with pytest.raises(ConfigError, match="horizon"):
        run_adaptive_cells([Cell(DRIVERS["brownian"], 1.0, "bad")], 16, horizon, master_seed=1)


@pytest.mark.parametrize("dt_safety", [0.0, -0.1, 1.0, np.nan])
def test_mc_rejects_dt_safety_outside_zero_one(dt_safety):
    with pytest.raises(ConfigError, match="dt_safety"):
        run_adaptive_cells([Cell(DRIVERS["brownian"], 1.0, "bad")], 16, 1e-6, master_seed=1,
                           dt_safety=dt_safety)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan])
def test_path_rejects_non_positive_horizon(horizon):
    path = sample_driver(DRIVERS["brownian"], 1.0, 1, dt=0.01)
    with pytest.raises(ConfigError):
        evolve_lanes_on_path([0.5 + 0.5j], path, horizon)


def _one_step(z0, dt, d_cont, d_jump, tol):
    """One grid step [0, dt] of one lane at beta = 2: the engine's outcome
    and, in the documented order, the drift's end state and the step's
    exact sub-increments."""
    path = DriverPath(np.array([0.0, dt]), np.array([0.0, d_cont + d_jump]), "one-step",
                      continuous=np.array([0.0, d_cont]))
    dc, dj = (float(d[0]) for d in path.increments())
    res = evolve_lanes_on_path([z0], path, dt, hit_tolerance=tol)
    # the drift: u + 2ic -> u + 4 dt + 2ic, rooted on the upper branch
    x, y = z0.real, z0.imag
    w = np.sqrt(complex(x * x - y * y + 4.0 * dt, 2.0 * abs(x * y)))
    return res, float(np.copysign(w.real, x)), w.imag, dc, dj


def _lane(res):
    return float(res.zeta[0]), float(res.x[0]), float(res.min_abs[0])


def test_landing_order_swallowed_in_the_drift():
    # u = x^2 - y^2 crosses 0 at s = -u / 4 with |h| = sqrt(2|c|) <= delta:
    # the lane dies there with its pre-drift x and takes none of the checks
    z0 = 0.001 + 0.05j
    res, *_ = _one_step(z0, 1e-3, 0.3, 0.2, 0.02)
    u, c = z0.real ** 2 - z0.imag ** 2, z0.real * z0.imag
    assert _lane(res) == (-u * 0.25, z0.real, min(abs(z0), np.sqrt(2.0 * abs(c))))


def test_landing_order_hit_right_after_the_drift():
    # u stays below 0 and |h| shrinks to 0.011 <= delta: the check after the
    # drift stops the lane before either sub-increment moves it
    z0 = 0.001 + 0.03j
    res, x1, y1, _, _ = _one_step(z0, 2e-4, 0.5, 0.2, 0.02)
    assert np.hypot(x1, y1) <= 0.02
    assert _lane(res) == (2e-4, x1, min(abs(z0), np.hypot(x1, y1)))


def test_landing_order_continuous_flip_that_the_jump_undoes():
    # at y <= delta the continuous part takes x = 0.5 across 0: a hit at the
    # step's end, with x where the continuous part left it
    z0 = 0.5 + 0.001j
    res, x1, y1, dc, dj = _one_step(z0, 1e-6, 1.0, -0.9, 0.01)
    x2 = x1 - dc
    assert x1 > 0 > x2 and x2 - dj > 0
    assert _lane(res) == (1e-6, x2, min(abs(z0), np.hypot(x1, y1), np.hypot(x2, y1)))


def test_landing_order_hit_only_after_the_jump():
    z0 = 0.5 + 0.001j
    res, x1, y1, dc, dj = _one_step(z0, 1e-6, 0.1, 0.4, 0.01)
    x2 = x1 - dc
    x3 = x2 - dj
    assert min(np.hypot(x1, y1), np.hypot(x2, y1)) > 0.01 >= np.hypot(x3, y1)
    assert _lane(res) == (1e-6, x3, min(abs(z0), np.hypot(x1, y1), np.hypot(x2, y1),
                                        np.hypot(x3, y1)))


def test_landing_order_new_minimum_without_a_hit():
    z0 = 0.5 + 0.05j
    res, x1, y1, dc, dj = _one_step(z0, 1e-6, 0.2, 0.25, 0.01)
    x3 = x1 - dc - dj
    assert np.hypot(x3, y1) < np.hypot(x1 - dc, y1) < abs(z0) < np.hypot(x1, y1)
    zeta, x, min_abs = _lane(res)
    assert np.isnan(zeta)
    assert (x, min_abs) == (x3, np.hypot(x3, y1))


def test_path_grid_step_call_budget():
    # Python-level calls (profiler "call" and "c_call" events) per grid step
    # of engine A on a beta = 2 raster of 4,096 lanes around a Brownian hull,
    # which has lanes in the box test's reach at every step: a guard on the
    # fixed cost per step that needs no timer.  As in the engine-B budget
    # above, the count includes numpy's Python wrappers, so it depends on the
    # numpy version (numpy 2.4).  It read 58.5 on average (51-71) before a
    # step's three check points ran as one pass each over the candidates,
    # with no per-check box test, gather or scatter, and reads 46.1 (39-53)
    # since.  A step runs from one _drift_advance call to the next.
    path = sample_driver(DriverSpec((Brownian(4.0),)), 0.5, 7, dt=1e-3)
    gx, gy = np.meshgrid(np.linspace(-1.5, 1.5, 64), np.linspace(0.02, 2.0, 64))
    z = (gx + 1j * gy).ravel()
    per_step, calls = [], 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is engine._drift_advance.__code__:
            per_step.append(calls)
            calls = 0
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        evolve_lanes_on_path(z, path, 0.5, hit_tolerance=0.02)
    finally:
        sys.setprofile(None)
        gc.enable()
    steps = per_step[1:]
    assert len(steps) == 499
    assert sum(steps) / len(steps) <= 50
