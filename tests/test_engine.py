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
# The outputs of a lane in either engine (engine B's exit_time aside).
FIELDS = ("zeta", "x", "y", "steps")


@pytest.mark.parametrize("exit_radius", [None, 3.0])
@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_first_block_does_not_depend_on_later_blocks(driver, beta, exit_radius):
    cell = Cell(DRIVERS[driver], 0.5 + 0.3j, ("indep", driver), 1e-2)
    kw = dict(master_seed=5, beta=beta, exit_radius=exit_radius)
    many = run_adaptive_cells([cell], BLOCK + 588, 0.5, **kw)[0]
    one = run_adaptive_cells([cell], BLOCK, 0.5, **kw)[0]
    fields = FIELDS + (("exit_time",) if exit_radius is not None else ())
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
    # real-axis loops whose cells differ in exactly one input (kappa, theta
    # or the hit tolerance), and one whose cells share every input: the loop
    # holds an input that its cells share as a scalar, and the others per lane
    "axis_kappa": [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("cell", k)) for k in (2.0, 8.0)],
    "axis_theta": [Cell(DriverSpec((Stable(1.5, th),)), -0.7, ("cell", th), 1e-3) for th in (0.5, 4.0)],
    "axis_tolerance": [Cell(DriverSpec((Brownian(4.0), Stable(1.5, 1.0))), 0.8, ("cell", d), d)
                       for d in (1e-3, 1e-2)],
    "axis_shared": [Cell(DriverSpec((Brownian(4.0), Stable(1.5, 1.0))), 0.8, ("cell", i), 1e-3)
                    for i in range(3)],
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


@pytest.mark.parametrize("n", [True, np.True_, 1.5, 2.5])
def test_non_integral_replica_count_rejected(n):
    # True ran one replica and 1.5 failed with a bare TypeError
    with pytest.raises(ConfigError, match="n must be an integer"):
        run_adaptive_cells([Cell(DRIVERS["brownian"], 1.0, "n")], n, 0.5, master_seed=9)


def test_integral_float_replica_count_accepted():
    cell = Cell(DRIVERS["brownian"], 1.0, "n")
    got, = run_adaptive_cells([cell], 3.0, 0.5, master_seed=9)
    want, = run_adaptive_cells([cell], 3, 0.5, master_seed=9)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(got, f), getattr(want, f), err_msg=f)


@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("z0", [1.0, 0.5 + 0.3j])
def test_engine_b_lanes_are_zeta_only(z0, beta):
    # engine B hits and censors lanes on the real axis and off it
    cell = Cell(DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), z0, ("zeta-only", beta), 1e-2)
    res = run_adaptive_cells([cell], 300, 1.0, master_seed=3, beta=beta)[0]
    assert 0 < res.hit.sum() < 300


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
# at 2048-replica blocks, where the run is one block; re-recorded when the
# slit-map root took its modulus from one square root instead of hypot, and
# when every stream moved from Philox to SFC64.
PINNED = {
    2.0: {
        "zeta": "f66eba2a7258cf97befdaff6b54d9742604e12f2e156a2c9bad82ed6b7c2ea3a",
        "x": "eff3c0ad373ad3715512ccb49de2a9d25bca9edeb6fcbd0adb20700ed87056c5",
        "y": "eca906f8601073692ed8082f3dfeac57cbf0b4d413f36e40f0323383f720b378",
        "steps": "bd4af95b9b49fdff2584d1a0ffa211a010f8bf051897257092c4a72b8df5ad9a",
        "exit_time": "268e69090833de103ca1493fdb17f7d43dfb793c42034794335745a05d30d1af",
    },
    1.5: {
        "zeta": "6ed23225c089ffb795260eba75e380675c2a06d610bf943b1f36fcd02beecd76",
        "x": "a90598b96e64802f43e99b46874db3aa98fb523d6df4ec350497fbc9fc904856",
        "y": "64067c78b92dd30693566c891a05a345d9187eac0f700bf8f833304d32b8c32f",
        "steps": "a9f7bd9cefd385a08f1f586565b7ba803463f9d9b791bb045363589997fa3c7d",
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
# FIELDS, without the running minimum of |h| that engine B no longer keeps,
# when the slit-map root took its modulus from one square root instead of
# hypot, and when every stream moved from Philox to SFC64.
STABLE_PINNED = {
    (0.5, 2.0): "7964da4b3850df01cdfa9088a2a2abdb443d1431cc250413cd01d51ae8d50602",
    (1.0, 2.0): "94837ba5ae6675ee7f2f124446a8d4150cba699d356296cba8e31e07bccdcc25",
    (1.0, 1.5): "7cad81c3ce373535dda3e2528f2ad58afff363512d3660a8019f2b8c816071cc",
    (1.5, 2.0): "90a32b6f05f1f588ee360183a59e366add4654845a537f257136527abb84fe50",
    (1.5, 1.5): "59a135fe5d9d0d0d0fe6e9887843ba658643ce6c9150efa102f85305aa24b299",
    (2.0, 2.0): "d6068aaf37126a7123ec2c6c4f7c4a8c1c1ffef12ede5bb5ac96ef3167e662cc",
    (2.0, 1.5): "4d260fc27a052f7a37024606d393862f154d573dff94472b9b400c3ff7f842d6",
}


def _digest(results, fields=FIELDS) -> str:
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
# re-recorded over FIELDS, without the running minimum of |h|, and again when
# every stream moved from Philox to SFC64.
AXIS_PINNED = {
    "kappa_stable": "03893e825f983e24e405ea844b8ab26f74ec2435e2d35ef3fb91d4bb7ba8d914",
    "bessel": "126b3bf003ebb1410c7d3149a6ac2e6f0497813e26c1120b89ac76238d160c4c",
    "theta0": "efda6f17315ea7fda61df75dfe8c316ca3bb2081c6172608ed663a8afcf3fb4a",
}

# More runs that start on the real axis (x86-64, numpy 2.4): a loop whose cells
# mix a real and an off-axis z0, which therefore keeps the general path; a
# composite cell, whose jump clock lands its jumps on the axis; and the flip
# rule at beta = 1.5.  700 replicas each.
AXIS_PINNED.update({
    "mixed_z0": "a1f052af73f27013963941c79730dba862a34d67f1446e71a764363f922645ca",
    "composite": "700ee14a70976745ecf221eb8e4d4b08782db86ca3a8642cb06a8f5426c1034a",
    "kappa_stable_beta1_5": "467d474b1c5b97a15764f3f97845a674ac8329482a3eb2af011543793060439e",
})

# Two cells of two blocks each, the second partial (x86-64, numpy 2.4): the
# block bookkeeping of cells larger than one block, which every other pin and
# every engine-B subcommand's default n leave out.
AXIS_PINNED["two_blocks"] = "fd2d8b9aa0e600d1bab09994b64186408adc5f56ebf6212f0f651f7ff1d70a4f"

# Off-axis runs from just above the axis (y = delta) whose driver lists its
# stable part before its Brownian part (x86-64, numpy 2.4): the flip rule at a
# sub-increment that is not the step's first.  Of the hit lanes, 46 at beta =
# 2 and 58 at beta = 1.5 end farther than delta from 0, which only the flip
# rule allows, and 122 and 340 end within delta (SFC64 streams).  mixed_z0 and
# both stable_first digests were re-recorded when the slit-map root took its
# modulus from one square root instead of hypot.
AXIS_PINNED.update({
    "stable_first": "68cebbe7d46b2214a8e3e5343e771c02e87a2fa7cfa993ecdbefc39df3809073",
    "stable_first_beta1_5": "80251807698f7ac35f0b4536241573162eee361087b83b35db0e37e696fdf768",
})


# A real-axis loop of pure-stable cells that differ in theta at beta = 1.5, as
# in `theta0-bracket`, with the exit time tracked (x86-64, numpy 2.4): on the
# real axis |h| = |x| decides the exit.
AXIS_PINNED["theta_exit"] = "9f02619df2f430dca9101885ddd958fdab4efbd1d3f2ba306e2ded84e1519682"


def _axis_run(case):
    if case == "theta_exit":
        cells = [Cell(DriverSpec((Stable(1.5, th),)), 0.5, ("pin-theta-exit", th), 1e-4) for th in (0.5, 4.0)]
        res = run_adaptive_cells(cells, 700, 20.0, master_seed=2030, beta=1.5, exit_radius=3.0)
        return _digest(res, FIELDS + ("exit_time",))
    if case == "two_blocks":
        cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("pin-blocks", k)) for k in (2.0, 8.0)]
        return _digest(run_adaptive_cells(cells, BLOCK + 188, 20.0, master_seed=2028))
    if case == "kappa_stable":
        cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("pin-axis", k)) for k in (2.0, 8.0)]
        return _digest(run_adaptive_cells(cells, 700, 20.0, master_seed=2028))
    if case == "bessel":
        res = run_adaptive_cells([Cell(DriverSpec((Brownian(8.0),)), 1.0, "pin-bessel")], 700, 20.0,
                                 master_seed=2028, exit_radius=4.0)
        return _digest(res, FIELDS + ("exit_time",))
    if case == "mixed_z0":
        cells = [Cell(DriverSpec((Brownian(8.0), Stable(1.5, 1.0))), 1.0, ("pin-mixed", 0)),
                 Cell(DriverSpec((Brownian(4.0), Stable(1.5, 0.5))), 0.5 + 0.3j, ("pin-mixed", 1))]
        return _digest(run_adaptive_cells(cells, 700, 20.0, master_seed=2028))
    if case == "composite":
        res = run_adaptive_cells([Cell(COMPOSITE, 1.0, "pin-axis-composite")], 700, 5.0,
                                 master_seed=2028, exit_radius=4.0)
        return _digest(res, FIELDS + ("exit_time",))
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
    # calls per kind and block, exactly in the iterations where the block's
    # live lanes ask for more variates than its pool holds.
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
    expected = [0] * len(per_iteration)
    for r in res:
        held = 0  # the variates of each kind left in the block's pool
        for j in range(len(expected)):
            live = int(np.count_nonzero(r.steps + r.hit > j))  # live in its first steps + hit iterations
            if live > held:
                held += engine.POOL
                expected[j] += 2  # one call per draw kind
            held -= live
    assert per_iteration == expected


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
    # through engine A's kernel, one box test per step, 41-52 (mean 44.7) in
    # an iteration that refills no pool, and reads 41-53 (mean 45.2) since
    # the landing kernel takes the hit tolerance through _at, as a scalar
    # when the loop's cells share it.
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
    # replicas are one block; re-recorded when every stream moved from Philox
    # to SFC64, as were ANNULUS_PINNED and EXIT_PINNED.
    sides, pos = _annulus_exit_positions(1.0, 0.5, 1.0, 1.5, 1.0, 2.0, 1300, 50.0, 11)
    assert _sha(sides) == "60d67e3ae369e5d467aea4625e09e02a7264e7f223ef45c56fa7aab75ae92528"
    assert _sha(pos) == "5e8338bf23a8ed2a423eff7784976bbea56e9d5f6bcc4095cd18b84a15f68e5d"


# (kappa, alpha, theta) of more annulus-exit runs (x86-64, numpy 2.4), as
# above: the Cauchy map alone (alpha = 1, one uniform per draw) and a Brownian
# part beside the alpha > 1 map.
ANNULUS_PINNED = {
    (0.0, 1.0, 1.0): ("bd9fb4928fad8d1294eb175f4d9f557959bdbbd8c1456a44d514f151d8d38680",
                      "4703f7a09d4955347ebb3dbc789e52ec80e2c52daa8691a2a39bff4364f5002d"),
    (2.0, 1.5, 0.5): ("55b14d9db2d369ac475a744d1d29c33090d1ef07d7de8970fbfe769e0ed3d235",
                      "1b1485d88003cea74439ad74db0d18ed8233d918f9b007dc65caec2f3d334392"),
}


@pytest.mark.parametrize("driver", sorted(ANNULUS_PINNED))
def test_annulus_exit_driver_bytes_pinned(driver):
    sides, pos = _annulus_exit_positions(*driver, 1.5, 1.0, 2.0, 1300, 50.0, 11)
    assert (_sha(sides), _sha(pos)) == ANNULUS_PINNED[driver]


# Off-axis lanes that cross exit_radius = 1.5 in the band max(|x|, y) < 1.5 <=
# |x| + y, where only hypot decides (x86-64, numpy 2.4); re-recorded when the
# slit-map root took its modulus from one square root instead of hypot.
EXIT_PINNED = {
    2.0: {"zeta": "a49efbaf83865755682446c40390a2451fc35c0e93eb56331585ae23733e154b",
          "x": "42f2b32efcff605fc2cbcf99892cc0e5be5bb320d71892e93ea41b1bce9acbb1",
          "y": "de54e49cf289754d4a07105fa4232d2e9fe938839f6637e6a866a91109d635e0",
          "steps": "3eb2749226667755b6753289307c55e99cfef857588d463ad3ecfd3872470cbd",
          "exit_time": "cd89123c82b856b4b6412701e97df4c7146b6920bd3b67258383947946b1b9be"},
    1.5: {"zeta": "22055dd1d3aae328e43181ffb3f537935ddd761e135dfd2cce092340f61775d5",
          "x": "1dabd0935c764902854fea1b2dfc2600ebd465f503c7865291d972f7f8c31ab4",
          "y": "15980585ab5b9272c843d0d679739111f15d4a15cf9286ee3c9863d993579bcd",
          "steps": "804d70db806897d1816c8ebf7618983e36ec7a9e4546c6803e00c7585e1a1153",
          "exit_time": "04700912712f058036334c423df36787f8dd755a41812949005ad01226c03df0"},
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


def _complex_sqrt(u, c, x):
    """``np.sqrt`` of u + 2i|c|, its real part with the sign of x."""
    w = np.empty(u.shape, dtype=complex)
    w.real = u
    w.imag = 2.0 * np.abs(c)
    ref = np.sqrt(w)
    return np.copysign(ref.real, x), ref.imag


def _beyond_the_guards(u, c):
    """States that send every lane of a call to the complex root: some |u|
    or 2|c| above 1e150, or sqrt(u^2 + 4c^2) below 1e-140, each by a margin
    that leaves no doubt about the side (that root is at most sqrt(2) times
    the larger of |u| and 2|c|)."""
    big = np.maximum(np.abs(u), 2.0 * np.abs(c))
    return (big > 1.01e150) | (big < 0.7e-140)


def _assert_root(u, c, x, bits=False):
    """The slit-map root of each state is within 2 ulp of the exact root of
    u + 2i|c| at 200 bits in each part, with x's sign on the real part and
    +0 or more as the imaginary part, and raises no warning; with ``bits``
    (every lane takes the complex root), it equals ``np.sqrt``'s bit for
    bit, as do the lanes with u = 0."""
    mpmath = pytest.importorskip("mpmath")
    got_x, got_y = x.copy(), np.full(u.shape, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine._slit_root(u, c, got_x, got_y)
    ref_x, ref_y = _complex_sqrt(u, c, x)
    same = np.ones(u.shape, dtype=bool) if bits else u == 0.0
    np.testing.assert_array_equal(got_x[same].view(np.int64), ref_x[same].view(np.int64))
    np.testing.assert_array_equal(got_y[same].view(np.int64), ref_y[same].view(np.int64))
    np.testing.assert_array_equal(np.signbit(got_x), np.signbit(x))
    assert not np.signbit(got_y).any()
    with mpmath.workprec(200):
        for ui, ci, gx, gy in zip(u.tolist(), c.tolist(), np.abs(got_x).tolist(), got_y.tolist()):
            exact = mpmath.sqrt(mpmath.mpc(ui, 2 * abs(mpmath.mpf(ci))))
            for got, part in ((gx, exact.real), (gy, exact.imag)):
                ulps = abs(mpmath.mpf(got) - part) / np.spacing(float(part))
                assert ulps <= 2, (ui, ci, got, float(ulps))


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100, 1e150])
def test_slit_root_is_the_complex_square_root(scale):
    # to 2 ulp, signed zeros and u = 0 included; the outer scales reach
    # beyond the guards, where the complex root takes every lane
    rng = np.random.default_rng(int(np.log10(scale)) + 200)
    u, c, x = _root_states(rng, 2000, scale)
    _assert_root(u, c, x, bool(_beyond_the_guards(u, c).any()))  # mixed signs of u, and u = 0
    pos = u > 0
    _assert_root(u[pos], c[pos], x[pos], bool(_beyond_the_guards(u[pos], c[pos]).any()))  # every u > 0


def test_slit_root_near_the_limits():
    # around the bounds where the real-arithmetic root hands over to the
    # complex one: |u| or 2|c| near 1e150, sqrt(u^2 + 4c^2) near 1e-140,
    # the largest doubles and subnormal parts; a state beyond the guards
    # gets the complex root's bits, alone or among ordinary states
    us = [0.0, 5e-324, 1e-310, 1e-200, 7e-141, 1e-140, 1.5e-140, 1.0, 0.9e150, 1e150, 1.1e150, 1e300,
          2.1e307, 1.7e308]
    cs = [0.0, 5e-324, 1e-310, 3.5e-141, 5e-141, 1.0, 0.45e150, 0.5e150, 0.55e150, 1e307, 8e307]
    states = np.array([(su * u, c, sx) for u, c in itertools.product(us, cs)
                       for su in (1.0, -1.0) for sx in (0.5, -0.0)])
    u, c, x = states.T
    beyond = _beyond_the_guards(u, c)
    assert 0 < beyond.sum() < u.size
    for i in range(u.size):  # each state alone takes its own branch
        _assert_root(u[i:i + 1], c[i:i + 1], x[i:i + 1], bool(beyond[i]))
    rng = np.random.default_rng(3)
    u_r, c_r, x_r = _root_states(rng, 500, 1.0)
    for i in range(0, u.size, 37):  # one such state among ordinary ones
        _assert_root(np.append(u_r, u[i]), np.append(c_r, c[i]), np.append(x_r, x[i]), bool(beyond[i]))


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
        engine._drift_advance(x, y, dt, beta, 0.0, delta, np.full(m, np.nan), np.ones(m, dtype=bool))

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
# all of its hit checks.  The x digests of the beta = 1.5 cases were re-recorded when the beta < 2 real-axis drift took one
# power: only real-axis lanes (of 0.3, -0.7 and 1.5) changed, in their last
# bits, with their zeta and steps and lane 0's trajectory unchanged.  The four
# stable-driven cases were re-recorded when the stable map took two tangents
# (a rounding change of every variate): their steps are unchanged.  The two
# all-real-axis cases were recorded before the beta = 2 drift sent such a lane
# set through the real-axis closed form instead of the slit-map root.  Every
# case with off-axis lanes was re-recorded when that root took its modulus
# from one square root instead of hypot: last bits of zeta, x and y moved, and
# no lane's steps or hit.  The min_abs digests went with the running minimum
# of |h|; no other digest moved.  The trajectory digests of big_steps_beta2 and
# bs_beta2, whose lane 0 dies before the last lane, were re-recorded when lane
# 0's rows came to end with its last step: each equals the old trajectory's
# first steps + 1 rows.  Every digest but the y of the two all-real-axis cases
# was re-recorded when every stream moved from Philox to SFC64.
PATH_PINNED = {
    "brownian_beta2": {
        "zeta": "3e61de02d74eba5dbb4f298f548fcd6d56737ab2ec5dbc945b9b4e06568798f2",
        "x": "8007edf052fbc070a8ac5f78704a009f0c9b6a56c6fb2224cc715e0557e8d3b9",
        "y": "7e31bfabd6b243bab25f07905c42f71294b1f5b4fe4928200badb487bd941711",
        "steps": "4d2987b902e8b2dc59b3870556ef15af89f3a480f3c41e611b47c2d1f943b6e0",
        "trajectory": "72fa0b475b6a5379cd35eba66dae574e42962a7d736ac57094718b769c8b1c64",
    },
    "stable_beta1_5": {
        "zeta": "d80ac03b9a85926aae28766dc43525fb6159c724544296348d3bb696f7a96a7e",
        "x": "bbf00082a9612ac8b47ce5958c8353ef3b67027735a293fe719e6dd609175b20",
        "y": "65e8f32e079a4dfa2e8ab641ed8184936a798746c715809f62c8b53ea7a17af7",
        "steps": "22b4a3428f0921af9bee7e5b4b9373249514a630b655054c42601a45b0a86974",
        "trajectory": "03b75465b7d7ac951a0c2c6a304c2762d24d4d0294b1d60f26819d63c7c4dd0f",
    },
    "bs_beta2": {
        "zeta": "8a91ab0a5b374afffad2165f09335156f02fc69a018b5faad41d5b80dae71b2b",
        "x": "3548a62fe046a5122683ddf7ae444d9d26593d1c408246f2e10c088a7992d308",
        "y": "624bd4e84d57a36be18022332ef8eef446f5b58e13ed19045b5dcd6ed833c385",
        "steps": "09cbfb51a8f7015ff100cc4ff1f704d84fe515c5bf1ffc4b857cabef100494aa",
        "trajectory": "10ccf57f572e26b550a0a9bec58475ecea3732d31bf47696a713bf7c78143146",
    },
    "bs_beta1_5": {
        "zeta": "5c5d0ef4407c9dafba2e7a62e2bebbecee98973ec1b28df018ee2a3df5543413",
        "x": "f43f7f32b70ce828c48d2892aa827116026d7228c9657a6e0f1f5cf9538c9506",
        "y": "13a426bbccd1e2eeb16404bd8c323a696544e7efffa737133606097be80ce5d1",
        "steps": "f791f991f63cc5b39a361c283f331c13beabc7662e6a9c3be023eceeb7ed47da",
        "trajectory": "4505a2a990cda484a76cddfcf910ec378e2a133a1de9516d22222395de7ae034",
    },
    "cpp_beta2": {
        "zeta": "352ee789f858ff24e6a501c28f73d657d7a96a7bcad891b7d71e6f236806b287",
        "x": "ed278d9c271a80d560d4dd3eb66b7af46be52cc156b538f6a4318555cb0303ef",
        "y": "ad26dc0ac4c1b3f8832a206562a9189f2a9ff26247e83d3474a98aeacccb53e9",
        "steps": "d3ae530060c2493e29ef6591f58371ab0ade147e0bd04b9645dd1a06aa7aab7a",
        "trajectory": "c5f08e7d9fde2bc5237859ccfc06fbd1a05063da23618d6136b258e7d359a21b",
    },
    "k4_stable_beta1_5": {
        "zeta": "3810a785984de7c84284e09d30e1577ab56fa65e363aea56c5c477b1f508cf2d",
        "x": "0e2497926916858653d7f6bc5525175a03f9fa6496ded18994685306fa4bff0b",
        "y": "6d4ce37cae2533aef0fe5ac8a547a7b896597cb39413d426f0510e2ac35875c1",
        "steps": "29d9023effd9d44c4fcbfd1dc0b82190076d797d7959d9c6ff2bafd8ef0abe1b",
        "trajectory": "d21d541b662cd36ff64e808a4af8b631f62089b5f7948426610fd1580c7d5628",
    },
    "big_steps_beta2": {
        "zeta": "78d53c9acc6b5ac5e76c9c52be0dc9e8f02045c0dedc133f9a8183b7a216ffd8",
        "x": "a3b4652e97f5124554d727d249a1945b5e05a3827d383ef30c5a8feb6d15de37",
        "y": "c429a384c80b53b989823fd585536134eda3421d45e7b76feb28f2b148abb7fd",
        "steps": "a05823b11dea567b3ff1b2368351943722ad70ccf05c9ac4d7ffc24c057aef16",
        "trajectory": "19a259b997789a7a63aa73d872beb55e429e9ef6b4086ffdb4a59f528688003f",
    },
    "big_steps_beta1_5": {
        "zeta": "66abbd81d5f830af0f0bc418ef7ef9fca9b6472def892e01a1b700d992fd3940",
        "x": "38aa01563089605ddbc2ef267fc1db85310d9eac3c1b535b9321ed61a7f42768",
        "y": "75faf7132d4130e660404ebb0ec1e0691f96181c9b7d9d93bc4cc55b93408d2a",
        "steps": "f9b05e749ff7cf7f7ae4e6c71aa1b9c084c831484639349b51acaa91d17d2143",
        "trajectory": "9ff7b8aa7087bb4adb899d0164d2efc73987462d1a23c74dcbb0d08395c1ba8d",
    },
    "k4_stable_axis_beta2": {
        "zeta": "e3d74723a58b43d8299903cf842434d56032fdf98b0b0ca57a957f1c38c4c9ca",
        "x": "6c80f06972e65c75127cbf40edfb9f95b08dce5cb6e10f38f38779a4130f1996",
        "y": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        "steps": "3f10fec79e6924186d370bcd21d664b6888fdd8ec0db0be04418affc8536bcb8",
        "trajectory": "82490ee843215416ce63fcb8ae3cc3f28730ba80ff3a8df8938b35251ebc26b6",
    },
    "k4_stable_axis_beta1_5": {
        "zeta": "34ab9ef45521f1286b379854d9d9f486676c368ec5c4d9757321690586f0f4b0",
        "x": "e6ac6667c3d51a6f8077fc6384d866e85defef32a8d7de8cd525759d5d2ee7a6",
        "y": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        "steps": "76cb0c250a26ff2fad5c6d0e747e22ef5e9afb85b7deee4c7e56c5684e6adef7",
        "trajectory": "fc06bfc100d62e38aa9bffa9a689ccf8c2146948c272ab23e5a113ac3569d39e",
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
    path = DriverPath(np.array([0.0, 1e-6]), np.array([0.0, d_cont + d_jump]),
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


def test_lane0_trajectory_does_not_depend_on_other_lanes():
    # lane 0 hits in the first step; a far lane beside it lives to the
    # horizon, or is retired after one step as zeta-only: lane 0's rows end
    # with its own last step in all three runs
    path = sample_driver(DriverSpec((Brownian(4.0),)), 1.0, 3, dt=0.01)
    runs = [evolve_lanes_on_path(z, path, 1.0, hit_tolerance=0.2, record_trajectory=True, zeta_only=only)
            for z, only in (([0.05j], False), ([0.05j, 50 + 1j], False), ([0.05j, 50 + 1j], [False, True]))]
    assert [int(res.steps[1]) for res, _ in runs[1:]] == [100, 1]
    alone = runs[0][1]
    assert alone.shape == (2, 4) and runs[0][0].hit[0]
    for _, traj in runs[1:]:
        assert traj.tobytes() == alone.tobytes()


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_lanes_without_a_running_minimum_keep_their_hits(case):
    # zeta-only lanes are retired once the rest of the path can no longer hit
    # them: zeta and hits equal the full run's bit for bit; a lane not retired
    # keeps x, y and its step count, a retired one reads NaN x and y, took
    # fewer steps and was censored in the full run; lane 0 keeps its
    # trajectory
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
    path = DriverPath(np.array([0.0, 1e-6, 2e-6]), np.zeros(3),
                      continuous=np.array([0.0, 0.0, 1.0]))
    full, part = _zeta_only_run(path, [0.5 + 0.01j, 1.5 + 0.01j], 0.02, beta=beta)
    assert full.hit.tolist() == [True, False]
    assert part.steps.tolist() == [2, 1] and np.isnan(part.x[1]) and np.isnan(part.y[1])


def _edge_path(sign):
    """Two steps of 1e-9: in the second the continuous part goes 0 -> -2^40
    and the jump part to 1 (mirrored for sign -1), so a lane's x takes the
    ulp of 2^40 once; the range after the first step is [-2^40, 1] and the
    slack (1 step left + 1) 2^-44 (V + D) with V = 2^40 and D = 1/4."""
    path = DriverPath(np.array([0.0, 1e-9, 2e-9]), np.array([0.0, 0.0, 1.0]),
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


@pytest.mark.parametrize("beta", [2.0, 1.5])
def test_height_edge_on_the_imaginary_axis(beta):
    # under a null driver a lane on the imaginary axis has y^beta falling at
    # exactly 2 beta, so it is hit by T exactly when y0 < (delta^beta +
    # 2 beta T)^(1/beta): the lane 1% below that height is hit, bit for bit
    # as in the full run, and the one 1% above it is censored and retired by
    # the height cap, which the driver's range (every value 0) never does
    path = DriverPath(np.linspace(0.0, 1.0, 101), np.zeros(101))
    delta = 0.05
    edge = (delta ** beta + 2.0 * beta * path.horizon) ** (1.0 / beta)
    full, part = _zeta_only_run(path, [0.99j * edge, 1.01j * edge], delta, beta=beta)
    assert full.hit.tolist() == [True, False]
    assert not np.isnan(part.x[0]) and part.steps[0] == full.steps[0]
    assert np.isnan(part.x[1]) and np.isnan(part.y[1]) and part.steps[1] < full.steps[1]


@pytest.mark.parametrize("beta", [1.01, 1.5, 1.9])
def test_rk4_lowers_y_beta_within_the_cap_margin(beta):
    # one drift step of dt from y^beta = (1 + f) 2 beta dt, f from 1e-7 to 3,
    # at angles from 1e-300 to 1 off the imaginary axis: the exact flow ends
    # at y^beta >= f 2 beta dt, and RK4 may end lower by a small share of
    # 2 beta dt (at most 0.0083 measured, next to the axis at beta near 1),
    # which the cap's margin exceeds more than threefold
    f, angle = (g.ravel() for g in np.meshgrid(10.0 ** np.linspace(-7.0, 0.5, 60),
                                               10.0 ** np.linspace(-300.0, 0.0, 61)))
    dt = 0.37
    y = ((1.0 + f) * 2.0 * beta * dt) ** (1.0 / beta)
    x = y * np.tan(angle)
    xn, yn, alive = x.copy(), y.copy(), np.ones(x.size, dtype=bool)
    engine._drift_advance(xn, yn, dt, beta, 0.0, 1e-300, np.full(x.size, np.nan), alive)
    assert alive.all()
    excess = (f * 2.0 * beta * dt - yn ** beta) / (2.0 * beta * dt)
    assert excess.max() <= engine._RK4_LOSS / 3.0


def test_height_cap_covers_the_rk4_error():
    # at beta < 2, RK4 carries a lane just right of the imaginary axis through
    # u = 0 faster than the exact flow, so some lanes above the exact edge
    # height are hit in the full run; the cap's RK4 margin keeps every one of
    # them from retiring, while lanes further up still retire
    path = DriverPath(np.linspace(0.0, 1.0, 201), np.zeros(201))
    beta, delta = 1.5, 1e-3
    edge = (delta ** beta + 2.0 * beta * path.horizon) ** (1.0 / beta)
    x, above = np.meshgrid(10.0 ** np.arange(-12.0, 0.0), 10.0 ** np.arange(-8.0, -1.0, 0.5))
    full, part = _zeta_only_run(path, x.ravel() + 1j * edge * (1.0 + above.ravel()), delta, beta=beta)
    assert full.hit.any() and np.isnan(part.x).any()


def test_retirement_with_the_horizon_inside_the_last_grid_step():
    # the run stops at 0.025, inside the third step, so the path's last value
    # 3 never lands: after the first step every later value is 0, and lanes
    # at x = 1 and x = 3 (beyond the unused value) retire there; the one on
    # the imaginary axis is swallowed at t = 0.0225, in the partial step
    path = DriverPath(np.array([0.0, 0.01, 0.02, 0.03]), np.array([0.0, 0.0, 0.0, 3.0]))
    full, part = _zeta_only_run(path, [1.0 + 0.1j, 3.0 + 0.01j, 1e-4 + 0.3j], 0.02, horizon=0.025)
    assert full.hit.tolist() == [False, False, True]
    assert full.zeta[2] == pytest.approx(0.0225)
    assert full.steps.tolist() == [3, 3, 3]
    assert part.steps.tolist() == [1, 1, 3] and np.isnan(part.x[:2]).all()


def test_retiring_every_lane_ends_the_run():
    # a null driver on 100 steps leaves no lane within reach of the origin:
    # all retire after the first step, where the loop ends
    path = DriverPath(np.linspace(0.0, 1.0, 101), np.zeros(101))
    z0 = [2.0 + 0.5j, -2.0 + 0.5j, 3.0, -0.5 + 0.1j]
    full, part = _zeta_only_run(path, z0, 0.01)
    assert not full.hit.any() and (full.steps == 100).all()
    assert (part.steps == 1).all() and np.isnan(part.x).all() and np.isnan(part.y).all()


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
    path = DriverPath(np.array([0.0, dt]), np.array([0.0, d_cont + d_jump]),
                      continuous=np.array([0.0, d_cont]))
    dc, dj = (float(d[0]) for d in path.increments())
    res = evolve_lanes_on_path([z0], path, dt, hit_tolerance=tol)
    # the drift: u + 2ic -> u + 4 dt + 2ic, rooted on the upper branch
    x, y = z0.real, z0.imag
    w = np.sqrt(complex(x * x - y * y + 4.0 * dt, 2.0 * abs(x * y)))
    return res, float(np.copysign(w.real, x)), w.imag, dc, dj


def _lane(res):
    return float(res.zeta[0]), float(res.x[0])


def test_landing_order_swallowed_in_the_drift():
    # u = x^2 - y^2 crosses 0 at s = -u / 4 with |h| = sqrt(2|c|) <= delta:
    # the lane dies there with its pre-drift x and takes none of the checks
    z0 = 0.001 + 0.05j
    res, *_ = _one_step(z0, 1e-3, 0.3, 0.2, 0.02)
    u, c = z0.real ** 2 - z0.imag ** 2, z0.real * z0.imag
    assert np.sqrt(2.0 * abs(c)) <= 0.02
    assert _lane(res) == (-u * 0.25, z0.real)


def test_landing_order_hit_right_after_the_drift():
    # u stays below 0 and |h| shrinks to 0.011 <= delta: the check after the
    # drift stops the lane before either sub-increment moves it
    z0 = 0.001 + 0.03j
    res, x1, y1, _, _ = _one_step(z0, 2e-4, 0.5, 0.2, 0.02)
    assert np.hypot(x1, y1) <= 0.02
    assert _lane(res) == (2e-4, x1)


def test_landing_order_continuous_flip_that_the_jump_undoes():
    # at y <= delta the continuous part takes x = 0.5 across 0: a hit at the
    # step's end, with x where the continuous part left it
    z0 = 0.5 + 0.001j
    res, x1, y1, dc, dj = _one_step(z0, 1e-6, 1.0, -0.9, 0.01)
    x2 = x1 - dc
    assert x1 > 0 > x2 and x2 - dj > 0
    assert _lane(res) == (1e-6, x2)


def test_landing_order_hit_only_after_the_jump():
    z0 = 0.5 + 0.001j
    res, x1, y1, dc, dj = _one_step(z0, 1e-6, 0.1, 0.4, 0.01)
    x2 = x1 - dc
    x3 = x2 - dj
    assert min(np.hypot(x1, y1), np.hypot(x2, y1)) > 0.01 >= np.hypot(x3, y1)
    assert _lane(res) == (1e-6, x3)


def test_landing_order_new_minimum_without_a_hit():
    z0 = 0.5 + 0.05j
    res, x1, y1, dc, dj = _one_step(z0, 1e-6, 0.2, 0.25, 0.01)
    x3 = x1 - dc - dj
    assert np.hypot(x3, y1) < np.hypot(x1 - dc, y1) < abs(z0) < np.hypot(x1, y1)
    zeta, x = _lane(res)
    assert np.isnan(zeta)
    assert x == x3


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
