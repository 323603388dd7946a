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
# slit-map root took its modulus from one square root instead of hypot.
PINNED = {
    2.0: {
        "zeta": "90a4421f75e04cc7ecfc6509654855f3178a0a8bd40cd50ece60f4713e9398c8",
        "x": "d261da6b7253963a4c8912ed82f75121d8c9c2dbfeffa9ea08d442d7911e3f66",
        "y": "b3596e3aeca592fba6cf2c53a337cc637f22953778100cec73dc851e622e5139",
        "steps": "887ad676391f67c250c5d49cc404b130470b34073d84914501fdd3780b098bde",
        "exit_time": "a736046dcfea5c5cdf2bdbb2db39013eaf6a34312bab4218fef891fe2e680edc",
    },
    1.5: {
        "zeta": "df0ab9765516049c966ec9032a1b6666a7beaa14a5cbb079906f1f428e9cc70d",
        "x": "da35a64fced1a218a0fa6c0fa9af647c23288fb3b5f24042960ad2a95ec577b0",
        "y": "c2b06c370e2cfd858d6d5739d18d7d2132c5a2d5e304dff938478bbf1e784d7e",
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
# FIELDS, without the running minimum of |h| that engine B no longer keeps,
# and when the slit-map root took its modulus from one square root instead of
# hypot.
STABLE_PINNED = {
    (0.5, 2.0): "c5e543bcd85e6277754617fc5557e36fc4daa4da07a4038b21cbe9553b97b9bf",
    (1.0, 2.0): "281ac30f3d0e3cd3e17cecc936479f447119722e2af5de440433767f34b2aa9a",
    (1.0, 1.5): "3056cada6761eb2f5bf2269ab449c4b82cfc8d880236c104ad41df3837e6e84e",
    (1.5, 2.0): "dfc9afcc76e7816b5e1e73ebb406740ec1c4dfb5444516b78d6b53875158ece7",
    (1.5, 1.5): "65c737a04f0fd80cc65823b45fca1110611740ae97ad8ee9c9b316e9b2cf3bb8",
    (2.0, 2.0): "e0b6c02069879c01130902a0c2430ec3cf20954cefec911541b30f5880b78fc2",
    (2.0, 1.5): "05067e2cc72ab5218126c80f426d65db1cb3b818bb5d574a78798501609644a9",
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
# re-recorded over FIELDS, without the running minimum of |h|.
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
    "mixed_z0": "e0c8bad55a0ffee44523a210369c1fc54a9f63c72f69a0d5ffee093be8619996",
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
# 245 times.  mixed_z0 and both stable_first digests were re-recorded when the
# slit-map root took its modulus from one square root instead of hypot.
AXIS_PINNED.update({
    "stable_first": "f496a402512c5941e86aa1e0f9c4d2834aa67d653d8fbf0f4580a815bce7e322",
    "stable_first_beta1_5": "c008d532ce92aceb22ea766c2a143591bb51653346ce008a0543b2c6d50cb4c7",
})


# A real-axis loop of pure-stable cells that differ in theta at beta = 1.5, as
# in `theta0-bracket`, with the exit time tracked (x86-64, numpy 2.4): on the
# real axis |h| = |x| decides the exit.
AXIS_PINNED["theta_exit"] = "28db71a9680432df1ad0d19f18a8ef26c9108bd31d9d18f8de72979e11bf786c"


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
# |x| + y, where only hypot decides (x86-64, numpy 2.4); re-recorded when the
# slit-map root took its modulus from one square root instead of hypot.
EXIT_PINNED = {
    2.0: {"zeta": "7a4e4f82ceffc7a9a2153d25d7563f1e001bc0d56d99cbd44d2bf07a051c8b23",
          "x": "8e28e9ac4022957084f4844576e9aedccfd38f98a17ed090e06072f82370b524",
          "y": "49d4e11248c856e043d70d20019d58866f28b99c5964fb33780a67b8c74bc3c0",
          "steps": "985311a204057d226a542a87a24b757b7f1b90e98b763a1a8960ce0947345ed9",
          "exit_time": "66e711a3be5d2a13b820a4f9c6455662954cda00a627415a28d823c301a4e84d"},
    1.5: {"zeta": "9597b8994dbbecb8f408440309d750dd8a976b77d7aa366c1873927a79cca04e",
          "x": "713c34960a2e3e43316a07541b13aa32052c961626eac177f57408fd384eeaa4",
          "y": "2f37388bdf1c19d950025edc93734c1f8696ca6153e129c4b82cdf159f604ad8",
          "steps": "e3ac4c125afda2e3d9c8bcbab53f0d80c913410ea31d62f6d0eca5b86ae38c9a",
          "exit_time": "2f070c2db1bfb7cfda7a92a6073c7184c47e92a1131a21a53f834f1f9e6be4f3"},
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
# of |h|; no other digest moved.
PATH_PINNED = {
    "brownian_beta2": {
        "zeta": "3e720f238650f79309515889537152524ae41e57019a105b477ed45079f051a4",
        "x": "f945d67e5e32c54520c88227169e023874c32c6f7c51e14e578108b99ad724b4",
        "y": "7c42f0c729067f66331f475846b4e9d36e5cdbc51c19924879c6b46128913248",
        "steps": "8121ae4bf3a0bd3a608b50a3a582581a8b3bd06aebdf5d082af5608c1601c683",
        "trajectory": "22cf462eaba412dba7ea263bb3a22ed3356013597a65f7722ff4f5d611780946",
    },
    "stable_beta1_5": {
        "zeta": "504da7f069f2ce1d1b7352e2af6c97b6596340a2d4cac3600cfa45bf262902e1",
        "x": "44d23ca1e8df2a16bb00b0b1ed63719a80c80b850290ad2937644ff6a48d58a7",
        "y": "44d53c6ffd4e054105c49554ea705a533efc77d1233930a2139fa1f3c197d3e9",
        "steps": "3c7ae0d179c595639946b17e42c5b346b328f1ca2a46bc60fed2fc851649eb4b",
        "trajectory": "8c68f0ad39daa1e142b2bd35db6fdd5b47a5166fd76478fa9e279307f9d021b4",
    },
    "bs_beta2": {
        "zeta": "178285fac54b664e1f7a0243ac41c0e2418928a64222e9bb907705c266656ccf",
        "x": "33e7a9e92dda2f5c41d432629211b3d5ab12e3ba8bfae7514b8eb8db9c9e59b4",
        "y": "c69e70d192f7d8eaffa49c6f2f3591ec859cb3e6bf8e718fb44774ec897e23ce",
        "steps": "a4e722ec820161109765735ad085ce5da840bb3eb3b472862598a37f5ad58032",
        "trajectory": "06d8af26410ea014fba84c520c9d91815ce2376605c379d101cc127f5e5397f1",
    },
    "bs_beta1_5": {
        "zeta": "d3494521bb22a87c464dadd4be4938add79559aed89bc0b98b5b1b666619d76c",
        "x": "714d5604cd1c661d22cd162e614cf09de1ae8e29d44522b2d2959a6f1ff65d7f",
        "y": "7df8bca351b7b3143f6955bff55e36c77837f2c2604e52b7ab0bb4ca7d33e025",
        "steps": "b747e2543c3cd5b8d441aafd0acf241951588f01ca2d03a6d3251dc05a7feb89",
        "trajectory": "b4d7733ec339161c18200da24dedd9dfe6bef7441b63c92db571055b95919ca5",
    },
    "cpp_beta2": {
        "zeta": "559d239794bd19b9474c47c56a05f7b2c4aeec07b98079b549e4a02bb6969241",
        "x": "2f169d4233d420fab2a4ec3e18e2f4e474e30116d5b62db102e4f1f824679bc8",
        "y": "146c18b038de45dfe36b1c9f936fc0c8512f853a0bc3badf010cdb55a5d1d980",
        "steps": "719b2fcb47e8a05e257453c651af9da49d8ada008ff4318e54f75a6a386843fc",
        "trajectory": "42209a45256470cf07c8db2352a04fd5a293b8661b00b758c5b5a57ce5749377",
    },
    "k4_stable_beta1_5": {
        "zeta": "91f86fa030c18fd2acf07ec1751cd436a7e69327e69143d47bd823c43a1d2f39",
        "x": "a49c81b51bf12ee5727b57810223d230e1d43911898785e959165645427c6ea6",
        "y": "4b983d9f12baaaa25bd8d54dd9349b721e1632d6670e453d40d6d1919cb42022",
        "steps": "fc21d2a4c9bbca55976b471e97fcbb08baa39d85b6746d11765e927b371bb9c1",
        "trajectory": "5368afc8c3d25fbab95b5adfad403988cca6404e42bd97a2bd487ab59b15cdb2",
    },
    "big_steps_beta2": {
        "zeta": "df7b44740fdf012af9e94b49051f3e0a8e21a6d3ee48a4d00e4b429a5ccf89d7",
        "x": "41be5c85c1d9f2743ca05c5f06f0c59b71d0118df2206c992d6254d0a33a1992",
        "y": "c3b779314de94954a668c123feeb4f02088c536100722e968c6d7a537aae7de4",
        "steps": "45d0018831b190b1b71bf695999004b2cbb5d0ea5d9dfd939416b7591defe4a8",
        "trajectory": "80de2ae8f69243c733a78fd5c80b959cfd2efe9bc040e31c7defb28868255a7c",
    },
    "big_steps_beta1_5": {
        "zeta": "7b472652c93320008341df3feeffde86869b3d2d33b36d5338d60fe280f6b25c",
        "x": "3b050f42e24202a495b70044e16b080ab9ec82a4a003994dac2f027dcced12bf",
        "y": "fa282ea16f7888f8c0b90e9faff95ed165744e85cfed6a7ec6c36d685a90e803",
        "steps": "eda0b5533f3e98db8e5d7c8a609a98b16f86cc54d43530003a847f046a911a89",
        "trajectory": "b80f5d3307a3c4ffee6a7ad177d8a0aedde76b74c406d1bbf52415260acf5252",
    },
    "k4_stable_axis_beta2": {
        "zeta": "0f5d5b73c3d144710d0359e6aaee99ec4da56a6cc6548fe099bc58a9a7636240",
        "x": "da8922bd69d022c4b4552fec7b2ca526bf468a7b3667b98648694918bb5f8ce8",
        "y": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        "steps": "480272b09fffdda72767382a72ce232f2a1384e78ec8cc0087317e6be250ccbf",
        "trajectory": "2840973247dabbf8f65c93161ff7d3032bded22abc79dc9bd602173515c34463",
    },
    "k4_stable_axis_beta1_5": {
        "zeta": "a17214612bdd29dcd85252c743e89779f49ba46e9d3e91f4bd612122e33c28b0",
        "x": "51dd20cabc7a1092fd06d87746114fdf91afdf7fcb9d77e64f1d4b06dae55720",
        "y": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
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
