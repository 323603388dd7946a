"""The random streams: the bytes of the first draws of two label paths, and
streams that are equal exactly where their seeds and label paths are.  Every
pinned output downstream rests on these bytes, so a change of generator fails
here first, by name."""

import hashlib

import numpy as np
import pytest

from levyloewner.drivers import standard_stable_sample
from levyloewner.rng import stream

DRAWS = {
    "uniform": lambda rng: rng.random(64),
    "normal": lambda rng: rng.standard_normal(64),
    "exponential": lambda rng: rng.standard_exponential(64),
    "stable": lambda rng: standard_stable_sample(1.5, rng, 64),
}
PATHS = {
    "driver": (7, "driver", 0, 1),
    "block": (2026, "cell", 0.5, "block", 3),
}

# SHA-256 of the first 64 variates of each kind, each from a fresh stream of
# the path (x86-64, numpy 2.4, SFC64).
PINNED = {
    ("block", "exponential"): "92ba1aee7d89e5376512b1dbf16317e82bbf7964527d9540b72cb4e097540865",
    ("block", "normal"): "e9177eabc6d0510aed16124dc449e7e2247b9b416f1655bddf5d7a0786f3db07",
    ("block", "stable"): "19a557fd98f1cbc6f05823d6d29f9b475afd74b38d554441f21fb0f92f4c00bc",
    ("block", "uniform"): "47f3eaf69d3f1cd52a3c5f3150b3a6ab895c1caacfbc76338c5c234a0bef6eec",
    ("driver", "exponential"): "071240c4f5284cbdfdcaa8c8b25ad4771c2484bd26bd55ba3cb8823392773c49",
    ("driver", "normal"): "f16ae32f0984bbb5284f2b2ed003ed0fdbf79ec6ff96b283d29a5056e9b00baf",
    ("driver", "stable"): "183bd1d5b4190277be46218e3a542e4f3bd7215139dff4b95fe52d93eccbc549",
    ("driver", "uniform"): "3d38ab2c7e3c2010804a6674fef172d9ecf11f0b3cc4dab5c717309df81fdb43",
}


@pytest.mark.parametrize("kind", sorted(DRAWS))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_first_draws_pinned(path, kind):
    sample = DRAWS[kind](stream(*PATHS[path]))
    assert hashlib.sha256(sample.tobytes()).hexdigest() == PINNED[path, kind]


def test_stream_is_sfc64():
    assert type(stream(1, "a").bit_generator) is np.random.SFC64


def test_equal_paths_give_equal_draws_and_different_paths_different_ones():
    # an integer label and a float label of the same value are different
    # labels, and so are a path and its prefix
    paths = [(1, "a", 0), (1, "a", 1), (1, "b", 0), (2, "a", 0), (1, "a"), (1, "a", 0, 0), (1, "a", 0.0)]
    first = [stream(*args).random(16).tobytes() for args in paths]
    assert len(set(first)) == len(paths)
    assert [stream(*args).random(16).tobytes() for args in paths] == first
