"""Reproducible seed derivation.

Every random decision in this package is driven by a stream derived from a
64-bit master seed plus a structural path (trial index, coordinates, round
number, ...).  Derivation goes through a keyed hash so that streams are
independent of evaluation order: visiting the same cells or trials in any
order consumes identical randomness.

Per-cell draws are counter-based: the hash of (master seed, coordinates,
round) turns straight into a float, with no generator object in between.
`derive_seed` and `uniform` are the reference definitions; the kernel below
hashes the same bytes, bit for bit, at a fraction of the cost:

* a key shares its leading bytes with every other key of one master seed
  (and path), so the kernel hashes them once into a `blake2b` state and
  each draw copies that *prefix state* and hashes only its own tail;
* `wakeups` gives the round-0 nucleation draws and `drawer` the draws of
  later rounds, each built from a window's cached vertex bytes
  (`window_keys`, keyed by the vertex tuples of `lattice.neighbor_rows`)
  instead of calling `repr` per draw;
* `seed_stream(master, *path)` yields `derive_seed(master, *path, i)` for
  i = 0, 1, ..., the per-trial and per-sample seeds of `experiment`.

No draw uses `derived_rng`; it stays only because perfbench/tracer.py wraps
it by name.
"""

import random
from functools import lru_cache
from hashlib import blake2b
from itertools import count
from math import ceil
from typing import Callable, Iterator

from .lattice import neighbor_rows

_UNIT = 2.0 ** -53
_BLANK = blake2b(digest_size=8)  # copied: cheaper than a constructor call


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


def seed_stream(master: int, *path) -> Iterator[int]:
    """derive_seed(master, *path, i) for i = 0, 1, ..., bit for bit.

    The key of item i is repr((master, *path, i)); everything before i is
    hashed once, from the repr of the path with a 0 appended (so an empty
    path, whose repr has a trailing comma, needs no special case)."""
    prefix = _prefix(repr((int(master),) + path + (0,))[:-2].encode())
    for i in count():
        h = prefix.copy()
        h.update(b"%d)" % i)
        yield int.from_bytes(h.digest(), "big")


def derived_rng(master: int, *path) -> random.Random:
    """A fresh random.Random seeded via derive_seed."""
    return random.Random(derive_seed(master, *path))


def _prefix(head: bytes) -> blake2b:
    """The hash state after `head`: a key's leading bytes, shared by many
    keys, which each draw copies and finishes with its own tail."""
    h = _BLANK.copy()
    h.update(head)
    return h


@lru_cache(maxsize=32)
def window_keys(k: int, side: int) -> dict:
    """vertex -> repr(vertex).encode() for every vertex of {0..side-1}^k,
    in row-major vertex order: the part of a cell's hash key that no round
    or seed changes.  Keyed by the vertex tuples of
    `lattice.neighbor_rows(k, side)`, so a row's neighbours look their keys
    up by identity.  Cached and shared, so callers must not mutate it."""
    return {v: repr(v).encode() for v in neighbor_rows(k, side)}


def wakeups(master: int, keys: dict, pi_nu: float) -> list:
    """(v, derive_seed(master, v, 0, 1)) for each vertex v of `keys`, in
    its order, with uniform(master, v, 0) < pi_nu.

    The test is exact and reads the digest bytes: uniform is (h >> 11) /
    2^53, so it lies below pi_nu exactly when the 64-bit h lies below
    ceil(pi_nu * 2^53) << 11 (scaling by a power of two rounds nothing),
    and 8 big-endian bytes compare as their ints do.  A limit of 2^64 or
    more (pi_nu = 1) is 9 bytes of 0xff, above every digest.  Only a woken
    cell hashes its (master, v, 0, 1) key."""
    if pi_nu <= 0:
        return []
    prefix = _prefix(b"(%d, " % master)
    top = ceil(pi_nu * 2 ** 53) << 11
    limit = top.to_bytes(8, "big") if top < 1 << 64 else b"\xff" * 9
    woken = []
    for v, key in keys.items():
        wake = prefix.copy()
        wake.update(key)
        wake.update(b", 0)")
        if wake.digest() < limit:
            cell = prefix.copy()
            cell.update(key + b", 0, 1)")
            woken.append((v, int.from_bytes(cell.digest(), "big")))
    return woken


def drawer(master: int, keys: dict, r: int) -> Callable[[tuple], float]:
    """The draws of round r: v -> uniform(master, v, r), bit for bit, for
    the vertices of `keys`."""
    prefix = _prefix(b"(%d, " % master)
    tail = b", %d)" % r

    def draw(v: tuple) -> float:
        h = prefix.copy()
        h.update(keys[v] + tail)
        return (int.from_bytes(h.digest(), "big") >> 11) * _UNIT
    return draw
