"""Monte Carlo engine: block independence of the replica streams and pinned
output bytes on the composite-driver paths that the golden CLI artifacts do
not reach."""

import hashlib

import numpy as np
import pytest

from levyloewner.drivers import Brownian, CompoundPoisson, DriverSpec, JumpLaw, Stable, TruncatedStable
from levyloewner.engine import BLOCK, run_adaptive_mc
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
PINNED = {
    2.0: {
        "zeta": "34a32ad0f76edf895b1ae23760991b05718d06d79217d8fc80d358412d170d36",
        "x": "36129c6bd3a0ff9619dfae5b57250ece16e7a865d783fc4296d5ff342cc73c4a",
        "y": "f128920fc6e7707851c97ce7200c1d5e199b3a59a34b50bb18e9b19068e2aaf0",
        "min_abs": "28f0759fb10e739698e317a7bd4b5eddac10db3d5c3ab1e074c0ebc664dfac42",
        "steps": "67b2f6d420f3ad449d390f5d3c874cd4e0bcedeafbeb76f292734b16d5f7003e",
        "exit_time": "912a700763b49effcd697762a8e1ebaa25d345151f81078cd3b876f1758c534b",
    },
    1.5: {
        "zeta": "2f8b062e208d5307ce6949382e6331ad2b70d6d706753ada1d91a3f02e3aeb95",
        "x": "b554a9d7c8db619b286882165f449a7f3030878c0b24cbdb20276c3c5c10c6fd",
        "y": "9e431914bca475e1552614cb62dd8b8820f23af003b93309662bf98ca86a255f",
        "min_abs": "9e4cd873503f76efd4318b553bb754f8c5a9a6d69aef396bd04fbe6c73471090",
        "steps": "f7a6a93aa28dd86653b292c021135b737674e7268ede99fdd9a5db29bc820b66",
    },
}


@pytest.mark.parametrize("beta", sorted(PINNED))
def test_composite_driver_output_bytes_pinned(beta):
    res = run_adaptive_mc(COMPOSITE, 0.5 + 0.3j, 600, 0.5, master_seed=2026, tag=("pin", beta),
                          beta=beta, hit_tolerance=1e-2,
                          exit_radius=2.0 if beta == 2.0 else None)
    assert {f: _sha(getattr(res, f)) for f in PINNED[beta]} == PINNED[beta]
