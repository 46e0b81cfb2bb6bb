"""Synchronous mesh-of-processors simulation of an agent model.

One processor per surface location, n^k in all.  A processor holds d input
and d output buffers (each one <glue, message> pair or empty), a COLOR
variable, and a local state that is either an agent type or EMPTY.  Rounds
are synchronized and two-phase: messages posted in round r-1 are delivered
at the start of round r, then every processor computes against that
snapshot, so no partial-round interleaving is representable.

Processors that hear nothing do nothing: an EMPTY processor stays EMPTY and
an occupied one keeps re-posting its pairs.  Everything else samples the
model's one-round transition law.  Per-processor randomness is derived from
(master seed, coordinates, round), and each update reads only its own
inputs and state, so a round's outcome does not depend on the order in
which processors are evaluated.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .agents import AgentModel, law_for, message_rule, neighbor_table
from .coloring import Coloring
from .lattice import Mesh, Point
from .rng import derive_seed, uniform
# perfbench/tracer.py wraps this module's derived_rng binding by name; no
# draw here builds a generator.
from .rng import derived_rng  # noqa: F401
from .tiles import Configuration

#: What a processor posts per side: (glue label or None, message or None).
Pair = tuple[Optional[str], Optional[str]]


class TraceEvent(NamedTuple):
    round: int
    coordinates: Point
    old: Optional[str]
    new: Optional[str]


class MessageBoundError(AssertionError):
    """A posted payload escaped the model's declared finite sets."""


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
        self.model = model
        self.mesh = Mesh(model.k, side)
        self.master_seed = master_seed
        self.law = law_for(model)
        self.round = 0
        self.states: dict[Point, str] = {}
        self.colors: dict[Point, int] = {}
        self.outputs: dict[Point, tuple] = {}
        self.inputs: dict[Point, tuple] = {}
        self.ids: dict[Point, int] = {}
        self.next_id = 0
        self.trace: list[TraceEvent] = [] if record_trace else None
        self._table = neighbor_table(self.mesh)
        self._started = False
        # An occupied processor with no detachment and no message rule can
        # never change state nor vary its posts, so rounds only need to feed
        # processors that can react: EMPTY ones next to the occupied
        # boundary.  _boundary holds every occupied cell that may still have
        # an empty neighbor; delivery drops those found to have none.
        self._static_occupants = (not model.kinetics.detach) and all(
            t.rule is None for t in model.types.values())
        self._boundary: set = set()
        # Posts of a type without a rule never vary.  Rules are memoryless,
        # so without ids a rule type's posts depend only on its inputs.
        self._silent_posts = {
            name: tuple((g, None) for g in t.glues)
            for name, t in model.types.items() if t.rule is None}
        self._post_memo: Optional[dict] = None if model.use_ids else {}

    # -- round 0 -------------------------------------------------------

    def init_round0(self) -> None:
        """Place the seed assembly (ids in sorted location order), then wake
        every other processor with probability pi_nu into a uniformly
        random non-EMPTY state."""
        if self._started:
            raise ValueError("network already initialized")
        self._started = True
        model = self.model
        for v in sorted(model.seed):
            if not self.mesh.contains(v):
                raise ValueError(f"seed location {v} lies outside the mesh")
            self._enter(v, model.seed[v])
        names = model.type_names
        pi_nu = model.pi_nu
        seed = self.master_seed
        if pi_nu > 0:
            for v in self.mesh.vertices():
                if v in self.states:
                    continue
                # the type pick hashes its own path: reusing the wake-up
                # draw, which is below pi_nu, would bias it to names[0]
                if uniform(seed, v, 0) < pi_nu:
                    self._enter(v, names[derive_seed(seed, v, 0, 1) % len(names)])
        for v in sorted(self.states):
            self.outputs[v] = self._post(v, self.states[v],
                                         (None,) * model.d, (None,) * model.d)
            if self.trace is not None:
                self.trace.append(TraceEvent(0, v, None, self.states[v]))
        if self._static_occupants:
            self._boundary.update(self.states)

    def _enter(self, v: Point, name: str) -> None:
        self.states[v] = name
        self.colors[v] = self.model.types[name].color
        if self.model.use_ids:
            self.ids[v] = self.next_id
            self.next_id += 1

    def _post(self, v: Point, name: str, glues_in: tuple, msgs_in: tuple) -> tuple:
        """Pairs an agent posts on each side: its glue plus its rule's message."""
        pairs = self._silent_posts.get(name)
        if pairs is not None:
            return pairs
        memo = self._post_memo
        if memo is None:
            return self._rule_posts(name, glues_in, msgs_in, self.ids.get(v))
        key = (name, glues_in, msgs_in)
        pairs = memo.get(key)
        if pairs is None:
            pairs = memo[key] = self._rule_posts(name, glues_in, msgs_in, None)
        return pairs

    def _rule_posts(self, name: str, glues_in: tuple, msgs_in: tuple,
                    my_id: Optional[int]) -> tuple:
        """Run the type's rule and check its messages against the model's bounds."""
        model = self.model
        t = model.types[name]
        result = message_rule(t.rule)(name, glues_in, msgs_in, my_id)
        msgs_out = tuple(result.messages)
        if len(msgs_out) != model.d:
            raise MessageBoundError(
                f"rule {t.rule!r} emitted {len(msgs_out)} messages, expected {model.d}")
        for msg in msgs_out:
            if msg is not None and msg not in model.messages:
                raise MessageBoundError(f"message {msg!r} escapes the declared alphabet")
        return tuple(zip(t.glues, msgs_out))

    # -- rounds >= 1 ---------------------------------------------------

    def run_round(self, probe: Optional[AccessProbe] = None) -> None:
        """Deliver last round's pairs, then update every processor that
        received at least one."""
        if not self._started:
            raise ValueError("call init_round0 first")
        self.round += 1
        r = self.round
        d = self.model.d
        table = self._table
        states = self.states
        static = self._static_occupants

        outputs = self.outputs
        delivered: dict[Point, list] = {}
        enclosed = []
        senders = self._boundary if static else outputs
        for v in senders:
            pairs = outputs[v]
            heard = False
            for i, w, j in table[v]:
                if static and w in states:
                    continue  # occupied cells cannot react in this regime
                heard = True
                slot = delivered.get(w)
                if slot is None:
                    slot = [None] * d
                    delivered[w] = slot
                slot[j] = pairs[i]
                if probe is not None:
                    probe.log(w, v)
            if static and not heard:
                enclosed.append(v)  # every neighbor is occupied for good
        self._boundary.difference_update(enclosed)
        self.inputs = {v: tuple(slot) for v, slot in delivered.items()}

        law = self.law
        seed = self.master_seed
        detach_on = self.model.kinetics.detach
        types = self.model.types
        # with an empty alphabet every posted message is None
        silent = None if self.model.messages else (None,) * d
        # Each update reads only v's own state and delivered inputs, so
        # applying it before visiting the next target changes nothing.
        for v in sorted(delivered):
            if probe is not None:
                probe.log(v, v)
            old = states.get(v)
            if old is not None and not detach_on and types[old].rule is None:
                continue  # nothing can change
            slot = delivered[v]
            glues = tuple([p[0] if p is not None else None for p in slot])
            msgs = silent if silent is not None else tuple(
                [p[1] if p is not None else None for p in slot])
            if law.forced(old, glues, msgs):
                new = law.sample(old, glues, msgs, None)
            else:
                new = law.sample(old, glues, msgs, uniform(seed, v, r))
            if new != old:
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, old, new))
                if new is None:
                    del states[v]
                    del self.colors[v]
                    self.ids.pop(v, None)
                    outputs.pop(v, None)
                    continue
                if old is None:
                    self._enter(v, new)
                else:
                    states[v] = new
                    self.colors[v] = types[new].color
                outputs[v] = self._post(v, new, glues, msgs)
                if static:
                    self._boundary.add(v)
            elif new is not None and types[new].rule is not None:
                # state kept, but the rule may emit different messages now
                outputs[v] = self._post(v, new, glues, msgs)

    def run(self, rounds: int, probe: Optional[AccessProbe] = None) -> list[TraceEvent]:
        """Execute `rounds` synchronized rounds; returns the trace so far."""
        for _ in range(rounds):
            self.run_round(probe=probe)
        return list(self.trace) if self.trace is not None else []

    # -- observation ---------------------------------------------------

    def processor(self, v: Point) -> ProcessorView:
        self.mesh.require(v)
        d = self.model.d
        return ProcessorView(
            coordinates=v,
            state=self.states.get(v),
            color=self.colors.get(v),
            inputs=self.inputs.get(v, (None,) * d),
            outputs=self.outputs.get(v, (None,) * d),
        )

    def extract_configuration(self) -> tuple[Configuration, Coloring]:
        """Read the simulated surface back out of the processor states."""
        cfg = Configuration(dict(self.states), self.mesh, self.model.k)
        col = Coloring(dict(self.colors), self.mesh, self.model.colors)
        return cfg, col
