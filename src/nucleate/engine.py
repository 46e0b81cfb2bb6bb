"""Assembly dynamics: sequences of single-tile additions from a seed.

Each stage attaches one tile at a frontier location, chosen uniformly at
random over all legal (location, tile type) pairs; the model itself leaves
the choice nondeterministic, so runs are driven by a recorded 64-bit seed
and are exactly reproducible.

The local-determinism checker verifies the three conditions that guarantee
a unique terminal assembly: every tile binds with total input strength
exactly equal to the temperature; no competing tile type can claim an
occupied location once the tile there and the neighbors that grew off it
are deleted; and the final frontier is empty.  It replays the sequence
once: that pass refuses a malformed or under-bound addition, reads
condition 1 off each bond total and records the input sides that
condition 2 reads.  Condition 2 is answered once per neighbourhood
pattern (the tile, its neighbours' final names and their input-side
masks): a large assembly of a small tile set repeats a handful of
patterns, tstar's 16,383 additions at 128 x 128 only 22.

Every neighbour loop here reads one row per cell from
`lattice.neighbor_reader`: the window's `neighbor_rows` entry, whose None
slots lie off the window, or `around` for a windowless run.  A frontier
cell is an empty in-window cell, so on a window whose every cell is
occupied condition 3 holds without a scan; that is exact because a
sequence's seed and additions all lie inside its window.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .lattice import OPPOSITE, Mesh, Point, neighbor_reader
from .tiles import AttachableTypes, Configuration, TileAssemblySystem, attachments
# not called here any more; the benchmark's tracer counts calls through these bindings
from .lattice import add  # noqa: F401
from .tiles import glues_bind  # noqa: F401


@dataclass(frozen=True, slots=True)
class Addition:
    stage: int
    location: Point
    tile: str


def _require_seed_inside(seed: Configuration, window: Optional[Mesh]) -> None:
    if window is not None:
        for v, _ in seed.items():
            if not window.contains(v):
                raise ValueError(f"seed location {v} lies outside the window")


@dataclass(frozen=True)
class AssemblySequence:
    """Replayable record of one run: the system plus its ordered additions.

    The seed configuration is stage 0; additions are stages 1, 2, ...
    A seed cell outside the window is refused, as `run` refuses it: the
    checks read the window's neighbour rows, which hold no cell off it.
    """

    system: TileAssemblySystem
    window: Optional[Mesh]
    additions: tuple[Addition, ...]

    def __post_init__(self):
        _require_seed_inside(self.system.seed, self.window)
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
    sequence: AssemblySequence


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
        master_seed: int = 0, max_stages: Optional[int] = None) -> AssemblyResult:
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
    rng = random.Random(master_seed)
    _require_seed_inside(system.seed, window)
    if max_stages is None:
        max_stages = (window.size + 1) if window is not None else 10_000

    tiles = system.tiles
    temperature = system.temperature
    order = {name: i for i, name in enumerate(tiles)}
    cells: dict[Point, str] = system.seed.cells()
    names_of = AttachableTypes(tiles, temperature).names
    get = cells.get
    row = neighbor_reader(window)

    candidates = attachments(Configuration(cells, window, system.k), tiles, temperature)
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
        for w in row(v):
            if w is None or w in cells:
                continue
            old = candidates.get(w, ())
            names = names_of(tuple(map(get, row(w))))
            if names == old:
                continue
            i = bisect_left(pairs, (w,))
            pairs[i:i + len(old)] = [(w, order[n], n) for n in names]
            if names:
                candidates[w] = names
            else:
                del candidates[w]

    return AssemblyResult(
        configuration=Configuration(cells, window, system.k),
        terminal=not pairs,
        stages=stage + 1,
        master_seed=master_seed,
        sequence=AssemblySequence(system, window, tuple(additions)),
    )


@dataclass(frozen=True)
class DeterminismReport:
    passed: bool
    failed_condition: Optional[int] = None
    witness: Optional[tuple] = None
    message: str = ""


#: a condition-2 pattern not yet answered (None is an answer: no rival)
_UNSEEN = object()


def check_local_determinism(seq: AssemblySequence) -> DeterminismReport:
    """Verify the three unique-terminal-assembly conditions on one sequence.

    Condition 2 deletes, besides the tile at the examined location, the
    neighbors that used that tile as a binding input (they only exist
    because of it); every other placed tile keeps its glues available to a
    would-be competitor.  Its answer depends only on the addition's
    pattern -- its tile, its neighbours' final names and their input-side
    masks -- so it is computed once per pattern; the additions are still
    walked in order, so a failure names the first failing addition.

    A malformed sequence raises ValueError: an undefined tile, an addition
    off the window, or one bound below the temperature, wherever it lies,
    even after an addition that already fails condition 1.
    """
    system = seq.system
    tiles = system.tiles
    temperature = system.temperature
    attachable = AttachableTypes(tiles, temperature)
    bond = attachable.bond
    cells = system.seed.cells()
    get = cells.get
    row_of = neighbor_reader(seq.window)
    # bit i of input_sides[v] is set when side i bound as the tile at v attached
    input_sides: dict[Point, int] = {}
    overbound = None
    for a in seq.additions:
        if a.tile not in tiles:
            raise ValueError(f"addition at {a.location} names undefined tile {a.tile!r}")
        row = row_of(a.location)
        if row is None:
            raise ValueError(f"addition at {a.location} lies outside the window")
        total, sides = bond(a.tile, tuple(map(get, row)))
        if total < temperature:
            raise ValueError(
                f"stage {a.stage}: {a.tile!r} at {a.location} binds with strength "
                f"{total} < temperature {temperature}"
            )
        if total > temperature and overbound is None:
            overbound = DeterminismReport(
                False, 1, (a.location, a.tile),
                f"{a.tile!r} at {a.location} bound with strength "
                f"{total} != temperature {temperature}",
            )
        cells[a.location] = a.tile
        input_sides[a.location] = sides
    if overbound is not None:
        return overbound

    grown = input_sides.get
    # (tile, neighbour names, neighbour input sides) -> rival name or None
    rivals: dict = {}
    for a in seq.additions:
        m = a.location
        row = row_of(m)
        pattern = (a.tile, tuple(map(get, row)), tuple(map(grown, row)))
        rival = rivals.get(pattern, _UNSEEN)
        if rival is _UNSEEN:
            # a neighbour that grew off the tile at m is deleted with it
            key = tuple([None if sides is not None and sides >> j & 1 else name
                         for name, sides, j in zip(pattern[1], pattern[2], OPPOSITE)])
            rival = rivals[pattern] = next(
                (name for name in attachable.names(key) if name != a.tile), None)
        if rival is not None:
            return DeterminismReport(
                False, 2, (m, rival),
                f"competing type {rival!r} can also bind at {m}",
            )

    # a full window has no empty cell, so no frontier
    if seq.window is None or len(cells) < seq.window.size:
        leftover = attachments(Configuration(cells, seq.window, system.k), tiles,
                               temperature)
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
