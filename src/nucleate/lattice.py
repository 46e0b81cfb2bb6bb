"""Integer-lattice geometry shared by every other module.

Directions follow one global canonical order -- west, north, east, south for
two dimensions, with down (-z) and up (+z) appended for three -- so that glue
tuples, message buffers, and file formats all index sides the same way.

A mesh of side n has vertex set {0, ..., n-1}^k; two vertices are adjacent
iff their L1 distance is 1.  Side n makes an "n x n surface" and a mesh of
n^k processors agree literally.
"""

from dataclasses import dataclass
from itertools import product
from typing import Iterator

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

# index of the opposite direction, shared by k=2 and k=3
_OPPOSITE = {0: 2, 1: 3, 2: 0, 3: 1, 4: 5, 5: 4}


def directions(k: int) -> tuple[Direction, ...]:
    """The 2k canonical directions for dimension k (k in {2, 3})."""
    if k == 2:
        return _D2
    if k == 3:
        return _D3
    raise ValueError(f"unsupported dimension {k}; only 2 and 3")


def opposite(d: Direction) -> Direction:
    k = len(d.vector)
    return directions(k)[_OPPOSITE[d.index]]


def opposite_index(i: int) -> int:
    return _OPPOSITE[i]


def add(v: Point, u: Point) -> Point:
    return tuple(a + b for a, b in zip(v, u))


@dataclass(frozen=True)
class Box:
    """Rectangular window {0..sides[0]-1} x ... x {0..sides[k-1]-1}.

    Duck-compatible with Mesh where only containment and enumeration are
    needed (configuration windows); meshes themselves are always square.
    """

    sides: tuple[int, ...]

    def __post_init__(self):
        if len(self.sides) not in (2, 3):
            raise ValueError(f"unsupported dimension {len(self.sides)}; only 2 and 3")
        if any(s < 1 for s in self.sides):
            raise ValueError(f"box sides must be positive, got {self.sides}")

    @property
    def k(self) -> int:
        return len(self.sides)

    @property
    def size(self) -> int:
        n = 1
        for s in self.sides:
            n *= s
        return n

    def contains(self, v: Point) -> bool:
        return len(v) == self.k and all(0 <= c < s for c, s in zip(v, self.sides))

    def vertices(self) -> Iterator[Point]:
        return product(*(range(s) for s in self.sides))

    def require(self, v: Point) -> None:
        if not self.contains(v):
            raise ValueError(f"{v} lies outside the box {self.sides}")


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
        return len(v) == self.k and all(0 <= c < self.side for c in v)

    def vertices(self) -> Iterator[Point]:
        """All vertices in canonical (row-major, last axis fastest) order."""
        return product(range(self.side), repeat=self.k)

    def require(self, v: Point) -> None:
        if not self.contains(v):
            raise ValueError(f"{v} is not a vertex of the {self.k}-dim mesh of side {self.side}")

    def neighbors(self, v: Point) -> list[Point]:
        """Mesh vertices at L1 distance 1 from v, in canonical direction order."""
        self.require(v)
        out = []
        for d in directions(self.k):
            w = add(v, d.vector)
            if all(0 <= c < self.side for c in w):
                out.append(w)
        return out
