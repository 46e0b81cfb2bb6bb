"""Reproducible seed derivation.

Every random decision in this package is driven by a stream derived from a
64-bit master seed plus a structural path (trial index, coordinates, round
number, ...).  Derivation goes through a keyed hash so that streams are
independent of evaluation order: visiting the same cells or trials in any
order consumes identical randomness.

Per-cell draws are counter-based: `uniform` turns the hash of (master
seed, coordinates, round) straight into a float, with no generator object
in between.  The mesh simulation and the model dynamics both draw this
way, so one seed drives them to the same outcome.  No draw uses
`derived_rng`; it stays only because perfbench/tracer.py wraps it by name.
"""

import hashlib
import random

_UNIT = 2.0 ** -53


def derive_seed(master: int, *path) -> int:
    """Derive a child seed from a master seed and a structural path.

    Path elements may be ints, strings, or (nested) tuples of those; the
    encoding keys on both value and position, so (1, 2) and (12,) differ.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((int(master),) + path).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def uniform(master: int, *path) -> float:
    """One uniform draw in [0, 1): the top 53 bits of derive_seed(master,
    *path) over 2^53."""
    return (derive_seed(master, *path) >> 11) * _UNIT


def derived_rng(master: int, *path) -> random.Random:
    """A fresh random.Random seeded via derive_seed."""
    return random.Random(derive_seed(master, *path))
