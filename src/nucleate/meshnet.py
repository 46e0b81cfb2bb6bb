"""Synchronous mesh-of-processors simulation of an agent model.

One processor per surface location, n^k in all.  A processor holds d input
and d output buffers (each one <glue, message> pair or empty), a COLOR
variable, and a local state that is either an agent type or EMPTY.  Rounds
are synchronized and two-phase: messages posted in round r-1 are delivered
at the start of round r, then every processor computes against that
snapshot, so no partial-round interleaving is representable.

Processors that hear nothing do nothing: an EMPTY processor stays EMPTY and
an occupied one keeps re-posting its pairs.  Everything else samples the
model's one-round transition law.  An occupant posts the pairs that the
same law object gives for its inputs (`TransitionLaw.posts`, shared with the
model dynamics), which checks every rule output against the model's declared
bounds.  Per-processor randomness is derived from
(master seed, coordinates, round), and each update reads only its own
inputs and state, so a round's outcome does not depend on the order in
which processors are evaluated.

A processor hears its neighbors through post ids.  The law interns every
posted pairs tuple to a small int (`TransitionLaw.post_id`), the network
keeps each occupant's id next to its pairs, and `neighbor_rows` lists each
processor's 2k neighbors in canonical direction order (None off the mesh)
as the window's own vertex tuples.  A round first reads every evaluated
processor's key, the tuple of post ids along its row, before any update;
its delivered inputs, its law entry and its posts are then memo hits keyed
by that key (`TransitionLaw.slot`, `step`, `keyed_post`).  The model
dynamics (`agents.model_step`) keep their own delivery over
`neighbor_table`, so the two codings check each other.

Round 0 starts from a template shared by every network of one model on one
side (`_round0`): the seed cells, validated and in sorted order, their ids
under use_ids, and the (pairs, post id) each posts from silent inputs.  No
master seed changes any of it, so `init_round0` copies it in and then wakes,
enters and posts the nucleated cells; it is built by the first
`init_round0` that needs it, so a seed outside the mesh or a seed rule that
breaks its bounds still raises there, not at construction.

Rounds are event-driven: a processor is re-evaluated only when a neighbor's
posts changed last round (it entered, detached, or its rule posted different
pairs), when its own state changed, or when its last law was unforced.  Any
other processor hears the pairs it heard at its last evaluation, holds the
same state, and last saw a forced law, so it would draw nothing, keep its
state and, since rules are memoryless and an occupant keeps its id, post the
same pairs; the skip changes no state, trace, id or buffer.  With no
detachment and no message rules, occupants never change and post fixed
pairs, so only EMPTY processors are ever re-evaluated (the static regime,
`TransitionLaw.static`).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional

from .agents import AgentModel, TransitionLaw, law_for, neighbor_rows, nucleation_sites, pick
# perfbench/tracer.py wraps this module's message_rule binding by name; the
# rules run in TransitionLaw.rule_output.
from .agents import message_rule  # noqa: F401
from .coloring import Coloring
from .lattice import Mesh, Point
# perfbench/tracer.py wraps this module's derive_seed and derived_rng
# bindings by name; the draws go through the rng kernel.
from .rng import derive_seed, derived_rng  # noqa: F401
from .rng import drawer, window_keys
from .tiles import Configuration


class TraceEvent(NamedTuple):
    round: int
    coordinates: Point
    old: Optional[str]
    new: Optional[str]


@dataclass(frozen=True)
class ProcessorView:
    """Snapshot of one processor's buffers and registers."""

    coordinates: Point
    state: Optional[str]  # agent type name, or None for EMPTY
    color: Optional[int]
    inputs: tuple
    outputs: tuple


class AccessProbe:
    """Records which processor's data each update read, for locality audits."""

    def __init__(self):
        self.reads: list[tuple[Point, Point]] = []

    def log(self, reader: Point, source: Point) -> None:
        self.reads.append((reader, source))

    def log_key(self, reader: Point, row: tuple, key: tuple) -> None:
        """Log a round's reads by `reader`: each neighbor in its row whose
        post id it read in `key` (None: no post there), then its own state."""
        for source, pid in zip(row, key):
            if pid is not None:
                self.log(reader, source)
        self.log(reader, reader)

    def violations(self, mesh: Mesh) -> list[tuple[Point, Point]]:
        out = []
        for reader, source in self.reads:
            if source != reader and source not in mesh.neighbors(reader):
                out.append((reader, source))
        return out


class _Setup(NamedTuple):
    """What every network of one model on one side shares."""

    mesh: Mesh
    rows: dict  # neighbor_rows(k, side)
    law: TransitionLaw
    keys: dict  # window_keys(k, side): the cells' rng key bytes


@lru_cache(maxsize=32)
def _setup(model: AgentModel, side: int) -> _Setup:
    k = model.k
    return _Setup(Mesh(k, side), neighbor_rows(k, side), law_for(model), window_keys(k, side))


class _Round0(NamedTuple):
    """The seed cells' share of round 0 on one model and side.  Shared, so
    `init_round0` copies each dict before it adds to it."""

    states: dict  # seed cell -> type, in sorted location order
    ids: dict  # seed cell -> id in that order under use_ids, else empty
    outputs: dict  # seed cell -> the pairs it posts from silent inputs
    post_ids: dict  # seed cell -> the post id of those pairs


@lru_cache(maxsize=32)
def _round0(model: AgentModel, side: int) -> _Round0:
    """The round-0 template: ValueError for a seed cell outside the mesh,
    MessageBoundError for a seed rule that breaks its bounds (neither is
    cached, so every `init_round0` raises it)."""
    setup = _setup(model, side)
    states = {}
    for v in sorted(model.seed):
        if not setup.mesh.contains(v):
            raise ValueError(f"seed location {v} lies outside the mesh")
        states[v] = model.seed[v]
    ids = {v: i for i, v in enumerate(states)} if model.use_ids else {}
    nobody = (None,) * model.d  # the key of a processor that hears nothing
    outputs, post_ids = {}, {}
    for v, name in states.items():
        outputs[v], post_ids[v] = _pairs(setup.law, name, nobody, ids.get(v))
    return _Round0(states, ids, outputs, post_ids)


def _pairs(law: TransitionLaw, name: str, key: tuple, my_id: Optional[int]) -> tuple:
    """(pairs, post id) that an agent of type `name` with id `my_id` (None
    without use_ids) posts after hearing its neighbors' post ids `key`: its
    glue plus its rule's message on each side."""
    fixed = law.fixed_keyed.get(name)
    if fixed is not None:
        return fixed
    if my_id is None:
        return law.keyed_post(name, key)
    pairs = law.posts(name, *law.heard(key), my_id)
    return pairs, law.post_id(pairs)


class MeshNetwork:
    """n^k processors wired as a k-dimensional mesh, simulating a model."""

    def __init__(self, model: AgentModel, side: int, master_seed: int = 0,
                 record_trace: bool = True):
        setup = _setup(model, side)
        self.model = model
        self.mesh = setup.mesh
        self.master_seed = master_seed
        self.law = setup.law
        self.round = 0
        self.states: dict[Point, str] = {}
        self.outputs: dict[Point, tuple] = {}
        #: v -> law.post_id(outputs[v]), for every occupant
        self.post_ids: dict[Point, int] = {}
        self.inputs: dict[Point, tuple] = {}
        self.ids: dict[Point, int] = {}
        self.next_id = 0
        self.trace: list[TraceEvent] = [] if record_trace else None
        self._rows = setup.rows
        self._keys = setup.keys
        self._started = False
        self._static_occupants = setup.law.static
        # The processors the next round evaluates.  Static regime: EMPTY
        # ones only, plus the cells that entered last round, whose inputs
        # it drops.  General regime: the next round first adds the
        # neighbors of the cells whose posts changed last round.
        self._pending: set = set()
        self._entered: list = []
        self._posted: list = []

    # -- round 0 -------------------------------------------------------

    def init_round0(self) -> None:
        """Place the seed assembly (ids in sorted location order; copied
        from the `_round0` template), then wake every other processor with
        probability pi_nu into a uniformly random non-EMPTY state
        (`nucleation_sites`).  Every occupant posts from silent inputs."""
        if self._started:
            raise ValueError("network already initialized")
        self._started = True
        model = self.model
        seeded = _round0(model, self.mesh.side)
        states = self.states
        states.update(seeded.states)
        self.ids.update(seeded.ids)
        self.next_id = len(seeded.ids)
        self.outputs.update(seeded.outputs)
        self.post_ids.update(seeded.post_ids)
        woken = nucleation_sites(model, self._keys, self.master_seed, states)
        if woken:
            nobody = (None,) * model.d  # the key of a processor that hears nothing
            for v, name in woken:
                self._enter(v, name)
                self.outputs[v], self.post_ids[v] = _pairs(self.law, name, nobody,
                                                           self.ids.get(v))
        if self.trace is not None:
            self.trace.extend([TraceEvent(0, v, None, name)
                               for v, name in sorted(states.items())])
        if self._static_occupants:
            self._pending = self._empty_neighbors(self.states)
        else:
            self._posted = list(self.states)

    def _empty_neighbors(self, cells) -> set:
        near = set(chain.from_iterable(map(self._rows.__getitem__, cells)))
        near.discard(None)
        return near.difference(self.states)

    def _enter(self, v: Point, name: str) -> None:
        self.states[v] = name
        if self.model.use_ids:
            self.ids[v] = self.next_id
            self.next_id += 1

    # -- rounds >= 1 ---------------------------------------------------

    def run_round(self, probe: Optional[AccessProbe] = None) -> None:
        """Deliver last round's pairs, then update every processor that
        received at least one.  Only processors whose inputs or state
        changed or whose last law was unforced are re-evaluated (see the
        module docstring); the others would keep their state and posts and
        draw nothing."""
        if not self._started:
            raise ValueError("call init_round0 first")
        self.round += 1
        if self._static_occupants:
            self._static_round(probe)
        else:
            self._general_round(probe)

    def _static_round(self, probe: Optional[AccessProbe]) -> None:
        """A round with no detachment and no rules: occupants never change,
        so only the pending EMPTY processors are evaluated.  Each reads its
        neighbors' post ids before any of them is updated."""
        r = self.round
        rows = self._rows
        inputs = self.inputs
        for v in self._entered:
            del inputs[v]  # occupied now, so it hears nothing
        targets = sorted(self._pending)
        read = self.post_ids.get
        keys = [tuple(map(read, rows[v])) for v in targets]

        law = self.law
        slots, steps = law.slots, law.steps
        fixed_keyed = law.fixed_keyed
        outputs, post_ids = self.outputs, self.post_ids
        draw = drawer(self.master_seed, self._keys, r)
        pending = set()
        entered = []
        for v, key in zip(targets, keys):
            if probe is not None:
                probe.log_key(v, rows[v], key)
            inputs[v] = slots.get(key) or law.slot(key)
            new, cdf = steps.get((None, key)) or law.step(None, key)
            if cdf is not None:
                new = pick(cdf, draw(v))
                if new is None:
                    pending.add(v)  # the next round's draw may attach it
            if new is not None:
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, None, new))
                self._enter(v, new)
                outputs[v], post_ids[v] = fixed_keyed[new]
                entered.append(v)
        pending |= self._empty_neighbors(entered)
        self._pending = pending
        self._entered = entered

    def _general_round(self, probe: Optional[AccessProbe]) -> None:
        """A round with detachment or rules: only the pending processors
        (see the module docstring) are evaluated.  Each reads its
        neighbors' post ids before any of them is updated."""
        r = self.round
        rows = self._rows
        states = self.states
        inputs = self.inputs
        targets = self._pending
        targets.update(chain.from_iterable(map(rows.__getitem__, self._posted)))
        targets.discard(None)
        targets = sorted(targets)
        read = self.post_ids.get
        keys = [tuple(map(read, rows[v])) for v in targets]

        law = self.law
        slots, steps, keyed = law.slots, law.steps, law.keyed_posts
        outputs, post_ids = self.outputs, self.post_ids
        draw = drawer(self.master_seed, self._keys, r)
        ruled, inert = law.ruled, law.inert
        ids_on = self.model.use_ids
        nobody = (None,) * self.model.d
        pending = set()
        posted = []
        for v, key in zip(targets, keys):
            if key == nobody:
                inputs.pop(v, None)  # its last neighbor left: it idles
                continue
            if probe is not None:
                probe.log_key(v, rows[v], key)
            inputs[v] = slots.get(key) or law.slot(key)
            old = states.get(v)
            if old in inert:
                continue  # nothing can change
            new, cdf = steps.get((old, key)) or law.step(old, key)
            if cdf is not None:
                new = pick(cdf, draw(v))
                pending.add(v)  # the next round's draw may differ
            if new != old:
                pending.add(v)
                posted.append(v)
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, old, new))
                if new is None:
                    del states[v]
                    self.ids.pop(v, None)
                    del outputs[v]
                    del post_ids[v]
                    continue
                if old is None:
                    self._enter(v, new)
                else:
                    states[v] = new
                outputs[v], post_ids[v] = _pairs(law, new, key, self.ids.get(v))
            elif new in ruled:
                # state kept, but the rule may emit different messages now
                pairs, pid = (_pairs(law, new, key, self.ids.get(v)) if ids_on
                              else keyed.get((new, key)) or law.keyed_post(new, key))
                if pid != post_ids[v]:
                    outputs[v] = pairs
                    post_ids[v] = pid
                    posted.append(v)
        self._pending = pending
        self._posted = posted

    def run(self, rounds: int, probe: Optional[AccessProbe] = None) -> list[TraceEvent]:
        """Execute `rounds` synchronized rounds; returns the trace so far."""
        for _ in range(rounds):
            self.run_round(probe=probe)
        return list(self.trace) if self.trace is not None else []

    # -- observation ---------------------------------------------------

    def processor(self, v: Point) -> ProcessorView:
        self.mesh.require(v)
        d = self.model.d
        state = self.states.get(v)
        return ProcessorView(
            coordinates=v,
            state=state,
            color=None if state is None else self.model.types[state].color,
            inputs=self.inputs.get(v, (None,) * d),
            outputs=self.outputs.get(v, (None,) * d),
        )

    def extract_configuration(self) -> tuple[Configuration, Coloring]:
        """Read the simulated surface back out of the processor states."""
        cfg = Configuration(dict(self.states), self.mesh, self.model.k)
        types = self.model.types
        col = Coloring({v: types[name].color for v, name in self.states.items()},
                       self.mesh, self.model.colors)
        return cfg, col
