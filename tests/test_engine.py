"""Monte Carlo engine: block and cell independence of the replica streams,
pinned output bytes on the pure-stable, composite-driver and real-axis paths
that the golden CLI artifacts do not reach, and one stable map per lockstep
iteration."""

import dataclasses
import hashlib

import numpy as np
import pytest

from levyloewner import engine
from levyloewner.drivers import (Brownian, CompoundPoisson, DriverSpec, JumpLaw, Stable, TruncatedStable,
                                 _stable_map, sample_driver)
from levyloewner.engine import BLOCK, Cell, LaneResult, evolve_lanes_on_path, run_adaptive_cells, run_adaptive_mc
from levyloewner.errors import ConfigError
from levyloewner.experiments import _annulus_exit_positions

COMPOSITE = DriverSpec((Brownian(3.0), TruncatedStable(1.5, 1.0, 1.0),
                        CompoundPoisson(1.0, JumpLaw("two_point", {"size": 0.5}))))
DRIVERS = {
    "brownian": DriverSpec((Brownian(8.0),)),
    "stable": DriverSpec((Stable(1.5, 2.0),)),
    "composite": COMPOSITE,
}
FIELDS = ("zeta", "x", "y", "min_abs", "steps")


@pytest.mark.parametrize("exit_radius", [None, 3.0])
@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_first_block_does_not_depend_on_later_blocks(driver, beta, exit_radius):
    kw = dict(master_seed=5, tag=("indep", driver), beta=beta, hit_tolerance=1e-2,
              exit_radius=exit_radius)
    many = run_adaptive_mc(DRIVERS[driver], 0.5 + 0.3j, 1100, 0.5, **kw)
    one = run_adaptive_mc(DRIVERS[driver], 0.5 + 0.3j, BLOCK, 0.5, **kw)
    fields = FIELDS + (("exit_time",) if exit_radius is not None else ())
    for f in fields:
        np.testing.assert_array_equal(getattr(many, f)[:BLOCK], getattr(one, f), err_msg=f)


# Cells of multi-cell calls: Brownian+stable cells that differ in kappa, theta,
# z0 and hit tolerance, and composite cells that differ in kappa and z0.
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
}


@pytest.mark.parametrize("exit_radius", [None, 2.0])
@pytest.mark.parametrize("beta", [2.0, 1.5])
@pytest.mark.parametrize("family", sorted(CELL_FAMILIES))
def test_cells_of_one_call_equal_cells_run_alone(family, beta, exit_radius):
    # 700 replicas: each cell's second block is partial
    cells = CELL_FAMILIES[family]
    kw = dict(master_seed=9, beta=beta, exit_radius=exit_radius)
    together = run_adaptive_cells(cells, 700, 0.5, **kw)
    assert len(together) == len(cells)
    for cell, res in zip(cells, together):
        alone = run_adaptive_mc(cell.spec, cell.z0, 700, 0.5, tag=cell.tag,
                                hit_tolerance=cell.hit_tolerance, **kw)
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


def test_annulus_exit_first_block_does_not_depend_on_later_blocks():
    args = (1.0, 0.5, 1.0, 1.5, 1.0, 2.0)
    sides_many, pos_many = _annulus_exit_positions(*args, 1300, 50.0, 11)
    sides_one, pos_one = _annulus_exit_positions(*args, BLOCK, 50.0, 11)
    np.testing.assert_array_equal(sides_many[:BLOCK], sides_one)
    np.testing.assert_array_equal(pos_many[:BLOCK], pos_one)


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# SHA-256 of each output array of a two-block composite-driver run (x86-64,
# numpy 2.4); any change to the streams, the step rule or the kernels moves them.
# Re-recorded when the compound Poisson part became a jump clock: each live lane
# draws a fresh exponential wait and a jump size per iteration, the step ends
# at the wait when it comes first, and the jump lands at its exact event time
# (before, the jumps were thinned per step onto step ends of at most 0.02/rate).
PINNED = {
    2.0: {
        "zeta": "f17fca178a827441d1ee50e5b5fa51cf3a0032a2987b9c10cb7bea09709211d8",
        "x": "c033d3cc676d88fae625cdbb97e7e1c416f7c6286cc7be4c8a8b7d2b1cc2685d",
        "y": "05ac3f16ab23fdb657593448c3a69e9f0ed7394bf63bc0afdf83da8a1bfcb4b3",
        "min_abs": "8522a0712c86a61b712aff1ed62649d112f1f57103138dd0ceda48999164a2ba",
        "steps": "0be8278f342f593344692a4b0ea0e867da868720d24e0827bc511df83ae7910f",
        "exit_time": "4c7ad3e8645d60d8d168195eb005376365bc53579ad25e9dc9c4cf571bd0682a",
    },
    1.5: {
        "zeta": "92592147e1674f78227b30844ae69ca91ab9f0cd8a6719eaf26985b0c6cbd9a9",
        "x": "59488101f9cd0b6fe3e392b94f8e569e4abbd9089ee39ff372761a5ddd5d10d1",
        "y": "03e010e2f379bc8f8c43ce2dbc17124d8a04df23ec3b6a53ddb9c8011ee6949d",
        "min_abs": "82cdd13f024c3d57f638692adfbe7859536438ab4f267d246e74bc66103cbf37",
        "steps": "af49d09c9ed4e0f2a8a71722ecaa7bfcb86aac4ad0a1f458df50cd482dc44ac1",
    },
}


@pytest.mark.parametrize("beta", sorted(PINNED))
def test_composite_driver_output_bytes_pinned(beta):
    res = run_adaptive_mc(COMPOSITE, 0.5 + 0.3j, 600, 0.5, master_seed=2026, tag=("pin", beta),
                          beta=beta, hit_tolerance=1e-2,
                          exit_radius=2.0 if beta == 2.0 else None)
    assert {f: _sha(getattr(res, f)) for f in PINNED[beta]} == PINNED[beta]


# SHA-256 over the output arrays of a two-cell pure-stable run whose cells
# differ in theta, 700 replicas each so that each cell's second block is
# partial (x86-64, numpy 2.4).  alpha = 1, 1.5 and 2 take the tan, CMS and
# Gaussian branches of the stable map.  Recorded while each block still drew
# whole stable samples, before the map moved to one call per iteration.
STABLE_PINNED = {
    (1.0, 2.0): "d5557b1e49a1bc8beac9738cf49330689bd3de751e01a0b7574435dbdc92c2ad",
    (1.0, 1.5): "b89f82511656d010ee8cf69679628d3e3ee919c84bcc08b084250a37f0fb0113",
    (1.5, 2.0): "2c3c4f17d593955d292d1d44dbab881ed873db40c948c3afe988268971afc37c",
    (1.5, 1.5): "c92672045824559d96cc31f6bcacd908c2d273eda07b0f0554642127d2cce731",
    (2.0, 2.0): "3aa15398f2608ceba6127aaf1caf0434666b944f1dbd09f0cf9ba1e58bc98c47",
    (2.0, 1.5): "404900d9784281a989ddd1aecd45be5b9d19b3fc1245a1479b609c2962a6eabe",
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
# beta = 2 and the beta < 2 real-axis drift.  700 replicas, so that each
# cell's second block is partial.  Recorded before the flow kernels moved to
# index sets.
AXIS_PINNED = {
    "kappa_stable": "4055118b18471d946314b6037e9b92ffca128797d0d8e7012a85a46f219a50c3",
    "bessel": "70a18089bab7b4d1a7effc5b653878404b054dd436084afc966793e1eb31c6a3",
    "theta0": "89a2631c81bbe4d54db3713a57a330722cf10156caf6dbb5884117a882aa41b8",
}


def _axis_run(case):
    if case == "kappa_stable":
        cells = [Cell(DriverSpec((Brownian(k), Stable(1.5, 1.0))), 1.0, ("pin-axis", k)) for k in (2.0, 8.0)]
        return _digest(run_adaptive_cells(cells, 700, 20.0, master_seed=2028))
    if case == "bessel":
        res = run_adaptive_mc(DriverSpec((Brownian(8.0),)), 1.0, 700, 20.0, master_seed=2028,
                              tag="pin-bessel", exit_radius=4.0)
        return _digest([res], FIELDS + ("exit_time",))
    cells = [Cell(DriverSpec((Stable(1.5, th),)), 0.5, ("pin-theta0", th), 1e-5) for th in (0.5, 1.0, 2.0)]
    return _digest(run_adaptive_cells(cells, 700, 50.0, master_seed=2028, beta=1.5))


@pytest.mark.parametrize("case", sorted(AXIS_PINNED))
def test_real_axis_output_bytes_pinned(case):
    assert _axis_run(case) == AXIS_PINNED[case]


def test_stable_map_runs_once_per_iteration(monkeypatch):
    # 3 cells x 2 blocks: the map runs once per lockstep iteration over every
    # live lane, not once per live block
    calls = []

    def counted(alpha, *raw):
        calls.append(raw[0].size)
        return _stable_map(alpha, *raw)

    monkeypatch.setattr(engine, "_stable_map", counted)
    res = run_adaptive_cells(_stable_cells(1.5, (0.5, 1.0, 2.0)), 700, 1.0, master_seed=3)
    iterations = max(int((r.steps + r.hit).max()) for r in res)
    assert len(calls) == iterations
    assert calls[0] == 3 * 700


def test_compound_poisson_jumps_at_exact_event_times():
    # From 10i the drift keeps |h| near 10 up to T = 2, and the first jump of
    # size 50 throws |h| past 20, so exit_time is the first event time of a
    # rate-1 Poisson clock: Exp(1), censored at T with probability e^-2.  The
    # Kolmogorov distance must stay below its 1% critical value 1.628/sqrt(n).
    spec = DriverSpec((CompoundPoisson(1.0, JumpLaw("two_point", {"size": 50.0})),))
    n, horizon = 50_000, 2.0
    res = run_adaptive_mc(spec, 10j, n, horizon, master_seed=7, tag="clock", exit_radius=20.0)
    t = np.sort(res.exit_time[~np.isnan(res.exit_time)])
    cdf = -np.expm1(-t)
    i = np.arange(1, t.size + 1)
    dist = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n), abs(t.size / n + np.expm1(-horizon)))
    assert dist < 1.628 / np.sqrt(n)


def test_annulus_exit_output_bytes_pinned():
    # Brownian and stable parts, three blocks with a partial last one (x86-64,
    # numpy 2.4); the loop shares its block draws with engine B.  Recorded when
    # each block began drawing its live replicas' variates only.
    sides, pos = _annulus_exit_positions(1.0, 0.5, 1.0, 1.5, 1.0, 2.0, 1300, 50.0, 11)
    assert _sha(sides) == "b3be58b5e3909b09d642776f757b4c0f5bfe5d5bc17f108279b80325fdb392a3"
    assert _sha(pos) == "03cf309c6269efed50bd114db79356c6277d9c8ebe14c42a2c7129ca9baa18b6"


# ---------------------------------------------------------------------------
# engine A: lanes sharing one sampled path
# ---------------------------------------------------------------------------

def _path_lanes(first):
    """A 24x16 raster of the window [-2,2]x[0,2.5] behind ``first``, plus
    points on both axes (one with a negative-zero real part)."""
    gx, gy = np.meshgrid(np.linspace(-2.0, 2.0, 24), np.linspace(0.05, 2.5, 16))
    axes = [0.3, -0.7, 1.5, 0.4j, 1.1j, complex(-0.0, 0.8)]
    z = np.concatenate([[first], (gx + 1j * gy).ravel(), axes])
    return z, 0.02 * (1.0 + np.abs(z))


# spec, beta, path horizon, grid step, lane 0, run horizon (inside the last
# grid step for the first case)
PATH_CASES = {
    "bs_beta2": (DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), 2.0, 1.5, 0.005, 0.1 + 0.1j, 1.4985),
    "bs_beta1_5": (DriverSpec((Brownian(2.0), Stable(1.5, 1.0))), 1.5, 1.0, 0.01, 1.5 + 1.0j, 1.0),
    "cpp_beta2": (DriverSpec((Brownian(0.0), CompoundPoisson(4.0, JumpLaw("two_point", {"size": 0.5})))),
                  2.0, 3.0, 0.01, 0.3 + 0.2j, 3.0),
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
# those of each lane run alone before that change).
PATH_PINNED = {
    "bs_beta2": {
        "zeta": "a2b54abc45323b21c5e0cf3e4ee7acb0000eec4082c3d03687c7feb8ffbeef89",
        "x": "d78d8d31f2a06ddc13009a43f8cf2898ae6ceb4dc02f798986b5e74f5405a537",
        "y": "b6cc857bed825f0f1fd714f09be24d383231b1ac38b4cd55f24415465248a33a",
        "min_abs": "6efcec6400478f280c6a1e6e2ec6e05df5fcfe1f0ae64c012bbaeaa770851f06",
        "steps": "8f7147524831bc80e13227932d8ddfdd87aa030f1d6ad67891510f15a4fa4c5d",
        "trajectory": "8e7f2afad2333a7cce647026e9abd42184c0a4847535a3c07bdb84f2e317657e",
    },
    "bs_beta1_5": {
        "zeta": "4ea1786224bc9f57b4ecc01b6e3c1d3712fe6c1834cd60f8706a7960211a4413",
        "x": "6cb9e0318493f38a8c741bc31dfaca3a4440187a9e432e9c3d4b6f00bd53128f",
        "y": "70707b485b3cfc06ae042d83c32a9495691d88b47a6af6e247763059fe20f906",
        "min_abs": "0b0300a1772e2342b2e718beaff9586ea1f666270173125fc931c4b0f8f59d0c",
        "steps": "e41f653c53d23ebe3a1359da29d4dcbca64a992e5dc1dc6a4d333d2948451e90",
        "trajectory": "d7839afe81829e466a4ec81e96a6dfb37b797076a43ccae898e11d6be2b8258c",
    },
    "cpp_beta2": {
        "zeta": "559d239794bd19b9474c47c56a05f7b2c4aeec07b98079b549e4a02bb6969241",
        "x": "935991703cb4a84a02108a73c9791798ab3e287949f7ff57aca7df797b61590a",
        "y": "f4b97a4d349f0662c3beffd9f74e1d6b5c33b47c57f429178fb516cd81b363a3",
        "min_abs": "4435f659d3dbdf44739846f7c62b4e47dfbb0cadc46c550e73e04ddde042b4cb",
        "steps": "719b2fcb47e8a05e257453c651af9da49d8ada008ff4318e54f75a6a386843fc",
        "trajectory": "978cf40868f3edd990c420e94651cfb774871c82df43c3c9217f66f497f62445",
    },
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_path_output_bytes_pinned(case):
    res, traj = _path_run(case)
    got = {f: _sha(getattr(res, f)) for f in FIELDS}
    got["trajectory"] = _sha(traj)
    assert got == PATH_PINNED[case]


@pytest.mark.parametrize("case", ["bs_beta2", "bs_beta1_5"])
def test_path_lanes_do_not_depend_on_other_lanes(case):
    keep = np.r_[0, 5:385:3, 385:391]
    full = _path_run(case, record_trajectory=False)
    part = _path_run(case, keep, record_trajectory=False)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(full, f)[keep], getattr(part, f), err_msg=f)


BAD_TOLERANCES = [0.0, -1e-3, np.nan, np.inf]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_path_rejects_bad_hit_tolerance(tol):
    path = sample_driver(DRIVERS["brownian"], 1.0, 1, dt=0.01)
    with pytest.raises(ConfigError):
        evolve_lanes_on_path([0.5 + 0.5j, 1.0j], path, 1.0, hit_tolerance=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_mc_rejects_bad_hit_tolerance(tol):
    with pytest.raises(ConfigError):
        run_adaptive_mc(DRIVERS["brownian"], 1.0, 16, 1.0, master_seed=1, tag="bad", hit_tolerance=tol)


@pytest.mark.parametrize("dt_safety", [0.0, -0.1, 1.0, np.nan])
def test_mc_rejects_dt_safety_outside_zero_one(dt_safety):
    with pytest.raises(ConfigError, match="dt_safety"):
        run_adaptive_mc(DRIVERS["brownian"], 1.0, 16, 1e-6, master_seed=1, tag="bad", dt_safety=dt_safety)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan])
def test_path_rejects_non_positive_horizon(horizon):
    path = sample_driver(DRIVERS["brownian"], 1.0, 1, dt=0.01)
    with pytest.raises(ConfigError):
        evolve_lanes_on_path([0.5 + 0.5j], path, horizon)
