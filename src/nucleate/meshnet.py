"""Synchronous mesh-of-processors simulation of an agent model.

One processor per surface location, n^k in all.  A processor holds d input
and d output buffers (each one <glue, message> pair or empty), a COLOR
variable, and a local state that is either an agent type or EMPTY.  Rounds
are synchronized and two-phase: messages posted in round r-1 are delivered
at the start of round r, then every processor computes against that
snapshot, so no partial-round interleaving is representable.  Each
register is read in one place: the states in `states`, the input buffers
in `inputs`, the output buffers in `outputs` and the colors in
`coloring()`.

The network runs on vertex numbers (`agents.Plan`): vertex i is the i-th
of the mesh in sorted order, so number order is sorted location order.
Its registers are lists by number (`cells` for the states, `pids` for the
post ids), each with one more slot, N, that stands for every neighbor off
the mesh and stays None; nothing else holds a copy of them, and its round
sets hold numbers.  What it shows is keyed by location: `states` and
`outputs` are snapshots of the registers in sorted order (`count`, the
number of occupants, builds none), and `ids`, the trace, `inputs`,
`coloring()` and the locality probe's reads are keyed by location too.

Processors that hear nothing do nothing: an EMPTY processor stays EMPTY and
an occupied one keeps re-posting its pairs.  Everything else samples the
model's one-round transition law.  An occupant posts the pairs that the
same law object gives for its inputs and id (`TransitionLaw.keyed_post`,
which returns their post id; the law is shared with the model dynamics),
which checks every rule output against the model's declared bounds; the
network builds no pairs itself.
Per-processor randomness is derived from (master seed, coordinates, round),
and each update reads only its own inputs and state, so a round's outcome
does not depend on the order in which processors are evaluated.  Every
round still walks its targets in one order, number order (see
`run_round`).

A processor hears its neighbors through post ids.  The law interns every
posted pairs tuple to a small int (`TransitionLaw.post_id`), the network
keeps only each occupant's post id (`pids`; its output buffers,
`outputs`, are read from it through `TransitionLaw.pairs_of`), and the
plan's `rows` list each processor's 2k neighbors' numbers in canonical
direction order (N off the mesh).  A round first reads every evaluated
processor's key, the tuple of post ids along its row (one call of its
`Plan.readers` entry), before any update; its law entry and its id-free
post id are then memo hits keyed by that key (`TransitionLaw.step`,
`keyed_post`).  The model dynamics (`agents.model_step`) read the same
rows on locations (`lattice.neighbor_rows`) and keep their own delivery,
from occupant glues and posts rather than post ids, so the two codings
check each other; their step plan (`agents.stepper`) delivers once per
start state, and fidelity builds that plan once for all its model
samples.

Every network of one model on one side reads one plan
(`TransitionLaw.plan`, kept on the model's law `AgentModel.law`): the mesh,
its numbering, rows and rng keys, the key of a processor that hears
nothing, whether round 0 can wake a cell (pi_nu > 0) and whether occupants
carry ids, and the round-0 template (`Plan.round0`): the registers with
the seed cells, validated, their ids (in sorted order) under use_ids, and
the post id of the pairs each posts from silent inputs.  No master seed
changes any of it, so `init_round0` copies the template's registers and
then wakes, enters and posts the nucleated cells, running no wake-up draw
at pi_nu = 0; the template is built by the first `init_round0` that needs
it, so a seed outside the mesh or a seed rule that breaks its bounds still
raises there, not at construction.  Round 0 wakes only cells off the seed, so it woke nobody
exactly when the network holds as many cells as the template; then it
holds just the template, and round 1 takes its sorted targets, their keys,
occupants and law entries from the plan's round-1 list (`Plan.round1`)
instead of gathering and looking them up, so it only draws, picks and
applies; every other round gathers its own.  A round builds its drawer at
its first unforced law, so one whose laws are all forced hashes no
master-seed prefix.

Rounds are event-driven: a processor is re-evaluated only when a neighbor's
posts changed last round (it entered, detached, or its rule posted different
pairs), when its own state changed, or when its last law was unforced.  Any
other processor hears the pairs it heard at its last evaluation, holds the
same state, and last saw a forced law, so it would draw nothing, keep its
state and, since rules are memoryless and an occupant keeps its id, post the
same pairs; the skip changes no state, trace, id or buffer.  An inert
occupant (`TransitionLaw.inert`: no rule, in a model where no occupant can
detach) can neither detach nor change its posts, so it is never evaluated,
nor kept pending once it enters: a round reads each cell's type from
`cells` and drops the inert ones from its targets and its pending set.
A processor's input buffers (`inputs`, a live `InputBuffers` view of the
network) are read from the post ids as they stood at the start of the
last round, whether or not that round evaluated it.  Looking up one
processor reads its row of 2k neighbors only; the view's `len` and
iteration scan every poster.
"""

from collections.abc import Mapping
from itertools import chain, repeat
from typing import NamedTuple, Optional

from .agents import AgentModel, nucleation_sites, pick
# perfbench/tracer.py wraps this module's message_rule binding by name; the
# rules run in TransitionLaw.rule_output.
from .agents import message_rule  # noqa: F401
from .coloring import Coloring
from .lattice import Mesh, Point, neighbor_rows
# perfbench/tracer.py wraps this module's derive_seed and derived_rng
# bindings by name; the draws go through the rng kernel.
from .rng import derive_seed, derived_rng  # noqa: F401
from .rng import drawer


class TraceEvent(NamedTuple):
    round: int
    coordinates: Point
    old: Optional[str]
    new: Optional[str]


class InputBuffers(Mapping):
    """Live read-only map v -> the input buffers the last round delivered
    to v, for each processor that heard at least one pair (none before
    round 1).  Like `dict.keys()`, it holds only its network and reads it
    on each access, so it always shows the network's last round;
    `dict(net.inputs)` takes a snapshot.  Neighbor w's post id at the
    start of that round is `_posted[w]` if w's posts changed in it, else
    `pids[w]`.  A lookup (`[v]`, `get`, `in`) reads v's row of 2k
    neighbors only; `len` and iteration scan every poster on each call."""

    def __init__(self, net: "MeshNetwork"):
        self._net = net

    def __getitem__(self, v: Point) -> tuple:
        net = self._net
        plan = net._plan
        posted, pids = net._posted, net.pids
        key = tuple([posted[w] if w in posted else pids[w]
                     for w in plan.rows[plan.index[v]]])
        if key.count(None) == len(key):
            raise KeyError(v)
        return net.law.slot(key)

    def _heard(self) -> set:
        """The numbers of the processors that heard a pair: the neighbors
        of every processor that posted at the start of the last round."""
        net = self._net
        posted = net._posted
        before = [i for i, pid in enumerate(net.pids) if pid is not None and i not in posted]
        before += [i for i, pid in posted.items() if pid is not None]
        heard = set(chain.from_iterable(map(net._plan.rows.__getitem__, before)))
        heard.discard(net._plan.off)
        return heard

    def __iter__(self):
        return map(self._net._plan.verts.__getitem__, sorted(self._heard()))

    def __len__(self) -> int:
        return len(self._heard())


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


class MeshNetwork:
    """n^k processors wired as a k-dimensional mesh, simulating a model."""

    # fidelity builds tens of thousands of small networks: slots make each
    # cheaper to build and its rounds cheaper to read
    __slots__ = ("model", "mesh", "master_seed", "law", "round", "cells", "pids", "count",
                 "ids", "next_id", "trace", "_plan", "_started", "_pending", "_posted")

    def __init__(self, model: AgentModel, side: int, master_seed: int = 0,
                 record_trace: bool = True):
        plan = model.law.plan(side)
        self.model = model
        self.mesh = plan.mesh
        self.master_seed = master_seed
        self.law = plan.law
        self.round = 0
        #: the registers, by vertex number, with one more slot (`Plan.off`)
        #: for every off-mesh neighbor, always None: each processor's type
        #: (None: EMPTY) and the post id of the pairs it posts (None: no
        #: posts; every occupant posts), and the number of occupants.
        #: `init_round0` replaces the shared empty ones with lists.
        self.cells = self.pids = plan.vacant
        self.count = 0
        self.ids: dict[Point, int] = {}
        self.next_id = 0
        self.trace: list[TraceEvent] = [] if record_trace else None
        self._plan = plan
        self._started = False
        # The numbers of the processors the next round evaluates, besides
        # the neighbors of the cells whose posts changed last round: the
        # ones whose state changed or whose law was unforced, inert
        # occupants excepted.
        self._pending: set = set()
        #: i -> processor i's post id at the start of the last round (None:
        #: no posts), for each i whose posts changed in it
        self._posted: dict = {}

    @property
    def states(self) -> dict:
        """A snapshot: v -> the type of occupant v, in sorted order."""
        return {v: name for v, name in zip(self._plan.verts, self.cells) if name is not None}

    # -- round 0 -------------------------------------------------------

    def init_round0(self) -> None:
        """Place the seed assembly (ids in sorted location order; copied
        from the plan's `round0` template), then wake every other processor
        with probability pi_nu into a uniformly random non-EMPTY state
        (`nucleation_sites`, never called at pi_nu = 0).  Every occupant
        posts from silent inputs.  The network counts as started only
        once all of this has run, so a seed or a rule that raises here
        raises again on the next call, and `run_round` still refuses to
        run."""
        if self._started:
            raise ValueError("network already initialized")
        plan = self._plan
        cells, pids, seed_ids, seeded = plan.round0
        self.cells = cells = cells.copy()
        self.pids = pids = pids.copy()
        posted = dict.fromkeys(seeded)
        if plan.use_ids:
            self.ids.update(seed_ids)
            self.next_id = len(seed_ids)
        if plan.wakes:
            for i, name in nucleation_sites(self.model, plan.keys, self.master_seed, seeded):
                cells[i] = name
                my_id = None
                if plan.use_ids:
                    my_id = self.ids[plan.verts[i]] = self.next_id
                    self.next_id += 1
                pids[i] = self.law.keyed_post(name, plan.nobody, my_id)
                posted[i] = None
        self.count = len(posted)
        if self.trace is not None:
            self.trace.extend([TraceEvent(0, v, None, name)
                               for v, name in zip(plan.verts, cells) if name is not None])
        self._posted = posted
        self._started = True

    # -- rounds >= 1 ---------------------------------------------------

    def run_round(self, probe: Optional[AccessProbe] = None) -> None:
        """Deliver last round's pairs, then update every processor that
        received at least one.  Only processors whose inputs or state
        changed or whose last law was unforced are re-evaluated, and inert
        occupants never are (see the module docstring); the others would
        keep their state and posts and draw nothing.  Each evaluated
        processor reads its neighbors' post ids before any of them is
        updated.  An occupant's law offers only itself or EMPTY, so a
        processor that changes state either enters or detaches.  The
        round's drawer is built at its first unforced law, so a round
        whose laws are all forced hashes no master-seed prefix.

        The targets are walked in number order, which is sorted location
        order: the trace and the ids (numbered in that order within a
        round) record it, and a rule that raises mid-round stops the round
        at the same cell with or without a trace."""
        if not self._started:
            raise ValueError("call init_round0 first")
        self.round += 1
        r = self.round
        plan = self._plan
        rows = plan.rows
        cells, pids = self.cells, self.pids
        law = self.law
        ruled, inert = law.ruled, law.inert
        trace = self.trace
        ids_on = plan.use_ids
        if r == 1 and self.count == plan.seeded:
            # round 0 woke nobody (it wakes only cells off the seed), so
            # the network holds just the template: the plan knows each
            # target's key, occupant and law entry
            targets, keys, entries = plan.round1
        else:
            targets = self._pending
            targets.update(chain.from_iterable(map(rows.__getitem__, self._posted)))
            targets.discard(plan.off)
            if inert:
                targets = [i for i in targets if cells[i] not in inert]
            targets = sorted(targets)
            readers = plan.readers
            keys = [readers[i](pids) for i in targets]
            entries = repeat(None)

        steps, keyed, fixed = law.steps, law.keyed_posts, law.fixed_posts
        draw = None
        verts = plan.verts
        nobody = plan.nobody
        ids = self.ids
        if probe is not None:
            near = neighbor_rows(self.mesh.k, self.mesh.side)
        count = self.count
        pending = set()
        posted = {}
        try:
            for i, key, entry in zip(targets, keys, entries):
                if entry is None:
                    if key == nobody:
                        continue  # its last neighbor left: it idles
                    old = cells[i]
                    new, cdf = steps.get((old, key)) or law.step(old, key)
                else:
                    old, new, cdf = entry
                if probe is not None:
                    probe.log_key(verts[i], near[verts[i]], key)
                if cdf is not None:
                    if draw is None:
                        draw = drawer(self.master_seed, plan.keys, r)
                    new = pick(cdf, draw(i))
                if (cdf is not None or new != old) and new not in inert:
                    pending.add(i)  # its state or its next draw may differ
                if new != old:
                    if trace is not None:
                        trace.append(TraceEvent(r, verts[i], old, new))
                    cells[i] = new
                    if new is None:
                        count -= 1
                        if ids_on:
                            ids.pop(verts[i], None)
                        posted[i] = pids[i]
                        pids[i] = None
                        continue
                    count += 1  # it enters
                    if ids_on:
                        ids[verts[i]] = self.next_id
                        self.next_id += 1
                elif new not in ruled:
                    continue  # it stays EMPTY, or keeps a type whose posts never vary
                # it entered, or it kept a type whose rule may post differently now
                pid = fixed.get(new)
                if pid is None and not ids_on:
                    pid = keyed.get((new, key))
                if pid is None:
                    pid = law.keyed_post(new, key, ids[verts[i]] if ids_on else None)
                was = pids[i]
                if pid != was:
                    posted[i] = was
                    pids[i] = pid
        finally:
            self.count = count
        self._pending = pending
        self._posted = posted

    def run(self, rounds: int, probe: Optional[AccessProbe] = None) -> list[TraceEvent]:
        """Execute `rounds` synchronized rounds; returns the trace so far."""
        for _ in range(rounds):
            self.run_round(probe=probe)
        return list(self.trace) if self.trace is not None else []

    # -- observation ---------------------------------------------------

    @property
    def outputs(self) -> dict:
        """v -> the pairs occupant v posts, read from its post id."""
        pairs_of = self.law.pairs_of
        return {v: pairs_of[pid] for v, pid in zip(self._plan.verts, self.pids)
                if pid is not None}

    @property
    def inputs(self) -> InputBuffers:
        """Live view: v -> v's input buffers as the last round delivered
        them."""
        return InputBuffers(self)

    def coloring(self) -> Coloring:
        """The simulated surface as a coloring: each occupant's type color."""
        color = {name: t.color for name, t in self.model.types.items()}
        return Coloring({v: color[name] for v, name in zip(self._plan.verts, self.cells)
                         if name is not None}, self.mesh, self.model.colors)
