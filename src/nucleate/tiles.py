"""Static objects of the abstract tile assembly model.

A tile is a unit square (or cube) with a glue on each side; glues are
(label, strength) pairs and two abutting sides bind with their shared
strength exactly when the glues are equal -- same label AND same strength.
A configuration is a finite partial map from lattice points to tile names;
its binding graph carries the bond strengths, and the minimum cut of that
graph -- computed here by the Stoer-Wagner algorithm -- decides stability
against a temperature threshold.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from .lattice import OPPOSITE, Mesh, Point, around, directions, neighbor_reader
# not called here any more; the benchmark's tracer counts calls through this binding
from .lattice import add  # noqa: F401

Pair = tuple[Point, Point]


@dataclass(frozen=True)
class Glue:
    label: str
    strength: int

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError(f"glue strength must be nonnegative, got {self.strength}")


def glues_bind(a: Glue, b: Glue) -> int:
    """Strength with which two abutting glues bind (0 on any mismatch)."""
    if a == b and a.strength > 0:
        return a.strength
    return 0


@dataclass(frozen=True)
class TileType:
    """A named unit cell: one glue per canonical direction, plus a color."""

    name: str
    glues: tuple[Glue, ...]
    color: int = 1

    def __post_init__(self):
        if len(self.glues) not in (4, 6):
            raise ValueError(f"tile {self.name!r} needs 4 or 6 glues, got {len(self.glues)}")
        if self.color < 1:
            raise ValueError(f"tile {self.name!r} color must be >= 1")

    @property
    def k(self) -> int:
        return len(self.glues) // 2

    def glue(self, direction_index: int) -> Glue:
        return self.glues[direction_index]


def tile(name: str, color: int, *sides) -> TileType:
    """Shorthand constructor; sides are (label, strength) pairs in canonical order."""
    return TileType(name, tuple(Glue(l, s) for l, s in sides), color)


class Configuration:
    """Finite partial map from lattice points to tile (or agent) names.

    Immutable by convention: mutators return new configurations.  The
    optional window bounds where growth may occur; a "first quadrant" run is
    realized as an n x n window.
    """

    def __init__(self, cells: Mapping[Point, str] | Iterable[tuple[Point, str]] = (),
                 window: Optional[Mesh] = None, k: Optional[int] = None):
        self._cells = dict(cells)
        self.window = window
        if k is None:
            if window is not None:
                k = window.k
            elif self._cells:
                k = len(next(iter(self._cells)))
            else:
                k = 2
        self.k = k
        cells = self._cells
        if window is None:
            valid = set(map(len, cells)) <= {k}
        else:
            valid = window.k == k and window.contains_all(cells)
        if not valid:  # find the first offender
            for v in cells:
                if len(v) != k:
                    raise ValueError(f"location {v} is not {k}-dimensional")
                if window is not None and not window.contains(v):
                    raise ValueError(f"location {v} lies outside the window")

    @property
    def domain(self) -> frozenset:
        return frozenset(self._cells)

    def get(self, v: Point) -> Optional[str]:
        return self._cells.get(v)

    def items(self) -> Iterator[tuple[Point, str]]:
        return iter(self._cells.items())

    def cells(self) -> dict:
        return dict(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, v: Point) -> bool:
        return v in self._cells

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self._cells == other._cells

    def __repr__(self) -> str:
        return f"Configuration({len(self)} cells, k={self.k}, window={self.window})"

    def with_tile(self, v: Point, name: str) -> "Configuration":
        if v in self._cells:
            raise ValueError(f"{v} is already occupied")
        cells = dict(self._cells)
        cells[v] = name
        return Configuration(cells, self.window, self.k)


@dataclass(frozen=True)
class BindingGraph:
    """Occupied cells as vertices; matched-glue adjacencies as weighted edges."""

    vertices: frozenset
    edges: Mapping[Pair, int] = field(default_factory=dict)

    def strength(self, u: Point, v: Point) -> int:
        return self.edges.get(_edge(u, v), 0)


def _edge(u: Point, v: Point) -> Pair:
    return (u, v) if u <= v else (v, u)


def build_binding_graph(cfg: Configuration, tiles: Mapping[str, TileType]) -> BindingGraph:
    """Weighted bond graph of a configuration.

    An edge exists between occupied L1-neighbors exactly when their abutting
    glues are equal with positive strength; its weight is that strength.
    """
    positive = [d.index for d in directions(cfg.k) if d.name in ("north", "east", "up")]
    types = {}
    for v, name in cfg.items():
        t = types[v] = tiles.get(name)
        if t is None:
            raise KeyError(f"configuration references undefined tile type {name!r} at {v}")
    edges: dict[Pair, int] = {}
    for v, t in types.items():
        nbrs = around(v)
        # scan the positive half of the directions so each pair is seen once
        for i in positive:
            w = nbrs[i]
            other = types.get(w)
            if other is None:
                continue
            s = glues_bind(t.glue(i), other.glue(OPPOSITE[i]))
            if s > 0:
                edges[_edge(v, w)] = s
    return BindingGraph(cfg.domain, edges)


def cut_strength(g: BindingGraph, cut: tuple[Iterable[Point], Iterable[Point]]) -> int:
    """Total strength of edges crossing a two-sided vertex partition."""
    side_a, side_b = frozenset(cut[0]), frozenset(cut[1])
    if not side_a or not side_b:
        raise ValueError("both sides of a cut must be nonempty")
    if side_a & side_b or (side_a | side_b) != g.vertices:
        raise ValueError("cut must partition the vertex set")
    total = 0
    for (u, v), s in g.edges.items():
        if (u in side_a) != (v in side_a):
            total += s
    return total


def binding_strength(g: BindingGraph) -> float:
    """Minimum cut strength over all cuts; graphs with <= 1 vertex are
    unseverable and return infinity, disconnected graphs return 0.

    Stoer & Wagner, "A simple min-cut algorithm" (J. ACM 44(4), 1997): each
    maximum-adjacency phase adds the vertex most tightly bound to those
    already added; the last one's bond to the rest is a cut, and merging it
    into the one before keeps every smaller cut for a later phase.
    """
    if len(g.vertices) <= 1:
        return math.inf
    adj: dict = {v: {} for v in g.vertices}
    for (u, v), s in g.edges.items():
        adj[u][v] = adj[v][u] = s
    best = math.inf
    while len(adj) > 1:
        weight = dict.fromkeys(adj, 0)
        heap = [(0, v) for v in adj]
        heapq.heapify(heap)
        prev = last = None
        while weight:
            w, v = heapq.heappop(heap)
            if weight.get(v) != -w:
                continue  # stale entry: v was added already or has since grown
            prev, last = last, v
            cut = weight.pop(v)
            for u, s in adj[v].items():
                if u in weight:
                    weight[u] += s
                    heapq.heappush(heap, (-weight[u], u))
        best = min(best, cut)
        for u, s in adj.pop(last).items():
            del adj[u][last]
            if u != prev:
                adj[prev][u] = adj[u][prev] = adj[prev].get(u, 0) + s
    return best


def is_tau_stable(cfg: Configuration, tiles: Mapping[str, TileType], temperature: int) -> bool:
    """Whether every cut of the binding graph meets the temperature."""
    return binding_strength(build_binding_graph(cfg, tiles)) >= temperature


class AttachableTypes:
    """Attachability of one (tiles, temperature) pair, keyed by the names
    around a cell: ``tuple(map(cells.get, row(v)))`` for v's row of
    neighbours (`neighbor_reader`), one tile name or None per canonical
    direction.

    A key is a tuple of strs, so the memo hashes and compares it in C; the
    glues the neighbours present are read only on a miss of `bond`, the
    one bond sum over `glues_bind`, and `names` is computed from `bond`.
    """

    def __init__(self, tiles: Mapping[str, TileType], temperature: int):
        self.tiles = tiles
        self.temperature = temperature
        self._names: dict = {}
        self._bonds: dict = {}

    def _facing(self, around_names: tuple) -> tuple:
        """Glue each neighbour presents toward the cell; None where empty."""
        tiles = self.tiles
        return tuple(None if name is None else tiles[name].glues[side]
                     for name, side in zip(around_names, OPPOSITE))

    def names(self, around_names: tuple) -> tuple[str, ...]:
        """Names of the tile types whose bond total meets the temperature
        at a cell with these neighbours, in tile order."""
        cached = self._names.get(around_names)
        if cached is None:
            bond, tau = self.bond, self.temperature
            cached = self._names[around_names] = tuple(
                name for name in self.tiles if bond(name, around_names)[0] >= tau)
        return cached

    def bond(self, name: str, around_names: tuple) -> tuple[int, int]:
        """(total strength, bitmask of the sides that bind) for tile type
        `name` at a cell with these neighbours; bit i is direction i."""
        key = (name, around_names)
        cached = self._bonds.get(key)
        if cached is None:
            own = self.tiles[name].glues
            total = sides = 0
            for i, g in enumerate(self._facing(around_names)):
                s = 0 if g is None else glues_bind(own[i], g)
                if s > 0:
                    total += s
                    sides |= 1 << i
            cached = self._bonds[key] = (total, sides)
        return cached


def attachments(cfg: Configuration, tiles: Mapping[str, TileType],
                temperature: int) -> dict:
    """Map of frontier location -> tuple of attachable tile names.

    Frontier locations are empty (window-clipped) neighbors of occupied
    cells, read along the window's neighbour rows (`neighbor_reader`); for
    temperature <= 0 every empty cell qualifies, so a window is required to
    keep the answer finite.
    """
    if temperature <= 0:
        if cfg.window is None:
            raise ValueError("attachments at temperature <= 0 need a window to stay finite")
        names = tuple(tiles)
        return {v: names for v in cfg.window.vertices() if v not in cfg}
    names_of = AttachableTypes(tiles, temperature).names
    cells = cfg.cells()
    get = cells.get
    row = neighbor_reader(cfg.window)
    seen = set()
    out: dict[Point, tuple[str, ...]] = {}
    for v in cells:
        for w in row(v):
            if w is None or w in seen or w in cells:
                continue
            seen.add(w)
            names = names_of(tuple(map(get, row(w))))
            if names:
                out[w] = names
    return out


@dataclass(frozen=True)
class TileAssemblySystem:
    """Finite tile set, finite stable seed, and a temperature threshold."""

    tiles: Mapping[str, TileType]
    seed: Configuration
    temperature: int

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be a nonnegative integer")
        ks = {t.k for t in self.tiles.values()}
        if len(ks) > 1:
            raise ValueError("tile set mixes dimensions")
        for name, t in self.tiles.items():
            if name != t.name:
                raise ValueError(f"tile registered under {name!r} but named {t.name!r}")
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"tile name {name!r} must be nonempty without whitespace "
                                 "(trace records are space-separated)")
        for v, name in self.seed.items():
            if name not in self.tiles:
                raise ValueError(f"seed references undefined tile type {name!r} at {v}")
        if not is_tau_stable(self.seed, self.tiles, self.temperature):
            raise ValueError("seed assembly is not stable at the system temperature")

    @property
    def k(self) -> int:
        if self.tiles:
            return next(iter(self.tiles.values())).k
        return self.seed.k

    @property
    def colors(self) -> int:
        return max((t.color for t in self.tiles.values()), default=1)
