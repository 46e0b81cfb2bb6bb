"""Integer-lattice geometry shared by every other module.

Directions follow one global canonical order -- west, north, east, south for
two dimensions, with down (-z) and up (+z) appended for three -- so that glue
tuples, message buffers, and file formats all index sides the same way.

A mesh of side n has vertex set {0, ..., n-1}^k; two vertices are adjacent
iff their L1 distance is 1.  Side n makes an "n x n surface" and a mesh of
n^k processors agree literally.
"""

import operator
from dataclasses import dataclass
from itertools import chain, product
from typing import Collection, Iterator

Point = tuple[int, ...]


@dataclass(frozen=True)
class Direction:
    """One of the 2k unit vectors, with its slot in the canonical order."""

    name: str
    vector: Point
    index: int

    def __add__(self, other):
        raise TypeError("add Direction.vector, not Direction")


_D2 = (
    Direction("west", (-1, 0), 0),
    Direction("north", (0, 1), 1),
    Direction("east", (1, 0), 2),
    Direction("south", (0, -1), 3),
)
_D3 = tuple(
    Direction(d.name, d.vector + (0,), d.index) for d in _D2
) + (
    Direction("down", (0, 0, -1), 4),
    Direction("up", (0, 0, 1), 5),
)

#: Index of the opposite direction, by direction index; shared by k=2 and
#: k=3, so zipping it with the 2k neighbours of `around` pairs each
#: neighbour with its side that faces back.
OPPOSITE = (2, 3, 0, 1, 5, 4)


def directions(k: int) -> tuple[Direction, ...]:
    """The 2k canonical directions for dimension k (k in {2, 3})."""
    if k == 2:
        return _D2
    if k == 3:
        return _D3
    raise ValueError(f"unsupported dimension {k}; only 2 and 3")


def add(v: Point, u: Point) -> Point:
    return tuple(map(operator.add, v, u))


def around(v: Point) -> tuple[Point, ...]:
    """The 2k lattice neighbours of v in canonical direction order, unclipped.

    Equal to ``tuple(add(v, d.vector) for d in directions(len(v)))``, but
    built from tuple literals: this is the neighbour kernel of every hot loop
    on the tile side.
    """
    if len(v) == 2:
        x, y = v
        return (x - 1, y), (x, y + 1), (x + 1, y), (x, y - 1)
    if len(v) == 3:
        x, y, z = v
        return ((x - 1, y, z), (x, y + 1, z), (x + 1, y, z), (x, y - 1, z),
                (x, y, z - 1), (x, y, z + 1))
    raise ValueError(f"unsupported dimension {len(v)}; only 2 and 3")


@dataclass(frozen=True)
class Mesh:
    """k-dimensional mesh graph on {0, ..., side-1}^k, L1-adjacency."""

    k: int
    side: int

    def __post_init__(self):
        if self.k not in (2, 3):
            raise ValueError(f"unsupported dimension {self.k}; only 2 and 3")
        if self.side < 1:
            raise ValueError(f"mesh side must be positive, got {self.side}")

    @property
    def size(self) -> int:
        return self.side ** self.k

    def contains(self, v: Point) -> bool:
        return len(v) == self.k and min(v) >= 0 and max(v) < self.side

    def contains_all(self, points: Collection[Point]) -> bool:
        """all(map(self.contains, points)), batched: one pass each for the
        lengths, the least and the greatest coordinate, with nothing built
        per point.  Exact for integer coordinates; `points` is read three
        times, so not an iterator."""
        if not points:
            return True
        coordinates = chain.from_iterable
        return (set(map(len, points)) == {self.k} and min(coordinates(points)) >= 0
                and max(coordinates(points)) < self.side)

    def vertices(self) -> Iterator[Point]:
        """All vertices in canonical (row-major, last axis fastest) order."""
        return product(range(self.side), repeat=self.k)

    def require(self, v: Point) -> None:
        if not self.contains(v):
            raise ValueError(f"{v} is not a vertex of the {self.k}-dim mesh of side {self.side}")

    def neighbors(self, v: Point) -> list[Point]:
        """Mesh vertices at L1 distance 1 from v, in canonical direction order."""
        self.require(v)
        side = self.side
        return [w for w in around(v) if min(w) >= 0 and max(w) < side]
