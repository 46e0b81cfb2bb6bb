"""Reproducible seed derivation.

Every random decision in this package is driven by a stream derived from a
64-bit master seed plus a structural path (trial index, coordinates, round
number, ...).  Derivation goes through a keyed hash so that streams are
independent of evaluation order: visiting the same cells or trials in any
order consumes identical randomness.

Per-cell draws are counter-based: the hash of (master seed, coordinates,
round) turns straight into a float, with no generator object in between.
The mesh simulation and the model dynamics both draw through one kernel:
`wakeups` for the round-0 nucleation draws and `drawer` for the draws of
later rounds.  The kernel hashes the same bytes as `derive_seed` and
`uniform`, which stay as its reference definitions, but builds each key
from a window's cached vertex bytes (`window_keys`) instead of calling
`repr` per draw.  No draw uses `derived_rng`; it stays only because
perfbench/tracer.py wraps it by name.
"""

import random
from functools import lru_cache
from hashlib import blake2b
from itertools import product
from typing import Callable

_UNIT = 2.0 ** -53


def derive_seed(master: int, *path) -> int:
    """Derive a child seed from a master seed and a structural path.

    Path elements may be ints, strings, or (nested) tuples of those; the
    encoding keys on both value and position, so (1, 2) and (12,) differ.
    """
    return int.from_bytes(blake2b(repr((int(master),) + path).encode(),
                                  digest_size=8).digest(), "big")


def uniform(master: int, *path) -> float:
    """One uniform draw in [0, 1): the top 53 bits of derive_seed(master,
    *path) over 2^53."""
    return (derive_seed(master, *path) >> 11) * _UNIT


def derived_rng(master: int, *path) -> random.Random:
    """A fresh random.Random seeded via derive_seed."""
    return random.Random(derive_seed(master, *path))


@lru_cache(maxsize=32)
def window_keys(k: int, side: int) -> dict:
    """vertex -> repr(vertex).encode() for every vertex of {0..side-1}^k,
    in row-major vertex order: the part of a cell's hash key that no round
    or seed changes.  Cached and shared, so callers must not mutate it."""
    return {v: repr(v).encode() for v in product(range(side), repeat=k)}


def wakeups(master: int, keys: dict, pi_nu: float) -> list:
    """(v, derive_seed(master, v, 0, 1)) for each vertex v of `keys`, in
    its order, with uniform(master, v, 0) < pi_nu.

    The test is exact: uniform is (h >> 11) / 2^53, and scaling both sides
    by the power of two 2^53 rounds neither."""
    if pi_nu <= 0:
        return []
    head = b"(%d, " % master
    limit = pi_nu * 2 ** 53
    woken = []
    for v, key in keys.items():
        h = int.from_bytes(blake2b(head + key + b", 0)", digest_size=8).digest(), "big")
        if h >> 11 < limit:
            woken.append((v, int.from_bytes(
                blake2b(head + key + b", 0, 1)", digest_size=8).digest(), "big")))
    return woken


def drawer(master: int, keys: dict, r: int) -> Callable[[tuple], float]:
    """The draws of round r: v -> uniform(master, v, r), bit for bit, for
    the vertices of `keys`."""
    head = b"(%d, " % master
    tail = b", %d)" % r

    def draw(v: tuple) -> float:
        return (int.from_bytes(blake2b(head + keys[v] + tail, digest_size=8).digest(),
                               "big") >> 11) * _UNIT
    return draw
