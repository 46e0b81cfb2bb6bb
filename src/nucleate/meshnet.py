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

Processors that hear nothing do nothing: an EMPTY processor stays EMPTY and
an occupied one keeps re-posting its pairs.  Everything else samples the
model's one-round transition law.  An occupant posts the pairs that the
same law object gives for its inputs and id (`TransitionLaw.keyed_post`,
which returns their post id; the law is shared with the model dynamics),
which checks every rule output against the model's declared bounds; the
network builds no pairs itself.
Per-processor randomness is derived from (master seed, coordinates, round),
and each update reads only its own inputs and state, so a round's outcome
does not depend on the order in which processors are evaluated.  A round
therefore sorts its targets only when a trace or ids record that order,
and otherwise walks them as gathered (see `run_round`).

A processor hears its neighbors through post ids.  The law interns every
posted pairs tuple to a small int (`TransitionLaw.post_id`), the network
keeps only each occupant's post id (`post_ids`; its output buffers,
`outputs`, are read from it through `TransitionLaw.pairs_of`), and
`neighbor_rows` lists each processor's 2k neighbors in canonical
direction order (None off the mesh) as the window's own vertex tuples.
A round first reads every evaluated processor's key, the tuple of post
ids along its row, before any update; its law entry and its id-free post
id are then memo hits keyed by that key (`TransitionLaw.step`,
`keyed_post`).  The model dynamics (`agents.model_step`) read the same
rows but keep their own delivery, from occupant glues and posts rather
than post ids, so the two codings check each other; their step plan
(`agents.stepper`) delivers once per start state, and fidelity builds
that plan once for all its model samples.

Every network of one model on one side reads one plan
(`TransitionLaw.plan`, kept on the model's law `AgentModel.law`): the mesh,
its rows and rng keys, the key of a processor that hears nothing, whether
round 0 can wake a cell (pi_nu > 0) and whether occupants carry ids, and
the round-0 template (`Plan.round0`): the seed cells, validated and in
sorted order, their ids under use_ids, and the post id of the pairs each
posts from silent inputs.  No master seed changes any of it, so
`init_round0` copies the template in and then wakes, enters and posts the
nucleated cells, running no wake-up draw at pi_nu = 0; the template is
built by the first `init_round0` that needs it, so a seed outside the mesh
or a seed rule that breaks its bounds still raises there, not at
construction.  Round 0 wakes only cells off the seed, so it woke nobody
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
`states` and drops the inert ones from its targets and its pending set.
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
from .lattice import Mesh, Point
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
    `post_ids.get(w)`.  A lookup (`[v]`, `get`, `in`) reads v's row of 2k
    neighbors only; `len` and iteration scan every poster on each call."""

    def __init__(self, net: "MeshNetwork"):
        self._net = net

    def __getitem__(self, v: Point) -> tuple:
        net = self._net
        posted, read = net._posted, net.post_ids.get
        key = tuple([posted[w] if w in posted else read(w) for w in net._plan.rows[v]])
        if key.count(None) == len(key):
            raise KeyError(v)
        return net.law.slot(key)

    def _heard(self) -> set:
        """The processors that heard a pair: the neighbors of every
        processor that posted at the start of the last round."""
        net = self._net
        posted = net._posted
        before = [v for v in net.post_ids if v not in posted]
        before += [v for v, pid in posted.items() if pid is not None]
        heard = set(chain.from_iterable(map(net._plan.rows.__getitem__, before)))
        heard.discard(None)
        return heard

    def __iter__(self):
        return iter(sorted(self._heard()))

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

    def __init__(self, model: AgentModel, side: int, master_seed: int = 0,
                 record_trace: bool = True):
        plan = model.law.plan(side)
        self.model = model
        self.mesh = plan.mesh
        self.master_seed = master_seed
        self.law = plan.law
        self.round = 0
        self.states: dict[Point, str] = {}
        #: v -> the post id of the pairs v posts, for every occupant
        self.post_ids: dict[Point, int] = {}
        self.ids: dict[Point, int] = {}
        self.next_id = 0
        self.trace: list[TraceEvent] = [] if record_trace else None
        self._plan = plan
        self._started = False
        # The processors the next round evaluates, besides the neighbors of
        # the cells whose posts changed last round: the ones whose state
        # changed or whose law was unforced, inert occupants excepted.
        self._pending: set = set()
        #: v -> v's post id at the start of the last round (None: no
        #: posts), for each v whose posts changed in it
        self._posted: dict = {}

    # -- round 0 -------------------------------------------------------

    def init_round0(self) -> None:
        """Place the seed assembly (ids in sorted location order; copied
        from the plan's `round0` template), then wake every other processor
        with probability pi_nu into a uniformly random non-EMPTY state
        (`nucleation_sites`, never called at pi_nu = 0).  Every occupant
        posts from silent inputs."""
        if self._started:
            raise ValueError("network already initialized")
        self._started = True
        plan = self._plan
        seeded, seed_ids, seed_post_ids = plan.round0
        states = self.states
        states.update(seeded)
        if plan.use_ids:
            self.ids.update(seed_ids)
            self.next_id = len(seed_ids)
        self.post_ids.update(seed_post_ids)
        if plan.wakes:
            for v, name in nucleation_sites(self.model, plan.keys, self.master_seed, states):
                self._enter(v, name)
                self.post_ids[v] = self.law.keyed_post(name, plan.nobody, self.ids.get(v))
        if self.trace is not None:
            self.trace.extend([TraceEvent(0, v, None, name)
                               for v, name in sorted(states.items())])
        self._posted = dict.fromkeys(states)

    def _enter(self, v: Point, name: str) -> None:
        self.states[v] = name
        if self.model.use_ids:
            self.ids[v] = self.next_id
            self.next_id += 1

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

        The targets are sorted only when the order is recorded: with a
        trace, or under use_ids (ids are numbered in sorted location order
        within a round).  Otherwise they are walked as gathered: an update
        reads only its own pre-gathered key and state, and a draw depends
        on (seed, v, r), never on the position in the loop.  Only the
        insertion order of `states` and `post_ids` then differs, and every
        reader that shows an order canonicalizes it: the colouring check
        and `formats.coloring_text` go through `lattice.sorted_vertices`,
        `formats.ascii_snapshot` walks the grid, and fidelity compares
        frozensets.  A rule that raises mid-round may raise at a different
        cell."""
        if not self._started:
            raise ValueError("call init_round0 first")
        self.round += 1
        r = self.round
        plan = self._plan
        rows = plan.rows
        states = self.states
        law = self.law
        ruled, inert = law.ruled, law.inert
        post_ids = self.post_ids
        if r == 1 and len(states) == plan.seeded:
            # round 0 woke nobody (it wakes only cells off the seed), so
            # the network holds just the template: the plan knows each
            # target's key, occupant and law entry
            targets, keys, entries = plan.round1
        else:
            targets = self._pending
            targets.update(chain.from_iterable(map(rows.__getitem__, self._posted)))
            targets.discard(None)
            if inert:
                targets = [v for v in targets if states.get(v) not in inert]
            if self.trace is not None or plan.use_ids:
                targets = sorted(targets)
            read = post_ids.get
            keys = [tuple(map(read, rows[v])) for v in targets]
            entries = repeat(None)

        steps, keyed, fixed = law.steps, law.keyed_posts, law.fixed_posts
        draw = None
        ids_on = plan.use_ids
        nobody = plan.nobody
        pending = set()
        posted = {}
        for v, key, entry in zip(targets, keys, entries):
            if entry is None:
                if key == nobody:
                    continue  # its last neighbor left: it idles
                old = states.get(v)
                new, cdf = steps.get((old, key)) or law.step(old, key)
            else:
                old, new, cdf = entry
            if probe is not None:
                probe.log_key(v, rows[v], key)
            if cdf is not None:
                if draw is None:
                    draw = drawer(self.master_seed, plan.keys, r)
                new = pick(cdf, draw(v))
            if (cdf is not None or new != old) and new not in inert:
                pending.add(v)  # its state or its next draw may differ
            if new != old:
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, old, new))
                if new is None:
                    del states[v]
                    self.ids.pop(v, None)
                    posted[v] = post_ids.pop(v)
                    continue
                states[v] = new  # it enters
                if ids_on:
                    self.ids[v] = self.next_id
                    self.next_id += 1
            elif new not in ruled:
                continue  # it stays EMPTY, or keeps a type whose posts never vary
            # it entered, or it kept a type whose rule may post differently now
            pid = fixed.get(new)
            if pid is None and not ids_on:
                pid = keyed.get((new, key))
            if pid is None:
                pid = law.keyed_post(new, key, self.ids.get(v))
            was = post_ids.get(v)
            if pid != was:
                posted[v] = was
                post_ids[v] = pid
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
        return {v: pairs_of[pid] for v, pid in self.post_ids.items()}

    @property
    def inputs(self) -> InputBuffers:
        """Live view: v -> v's input buffers as the last round delivered
        them."""
        return InputBuffers(self)

    def coloring(self) -> Coloring:
        """The simulated surface as a coloring: each occupant's type color."""
        types = self.model.types
        return Coloring({v: types[name].color for v, name in self.states.items()},
                        self.mesh, self.model.colors)
