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

Rounds are event-driven: a processor is re-evaluated only when a neighbor's
posts changed last round (it entered, detached, or its rule posted different
pairs), when its own state changed, or when its last law was unforced.  Any
other processor hears the pairs it heard at its last evaluation, holds the
same state, and last saw a forced law, so it would draw nothing, keep its
state and, since rules are memoryless and an occupant keeps its id, post the
same pairs; the skip changes no state, trace, id or buffer.  With no
detachment and no message rules, occupants never change and post fixed
pairs, so only EMPTY processors are ever re-evaluated (the static regime).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .agents import AgentModel, law_for, message_rule, neighbor_table, pick
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


@lru_cache(maxsize=32)
def _model_constants(model: AgentModel) -> tuple[bool, dict]:
    """(static, silent posts) for a model, shared by all its networks.

    Static: no detachment and no message rule, so an occupied processor can
    never change state nor vary its posts.  Silent posts: the fixed pairs
    of each type without a rule."""
    static = (not model.kinetics.detach) and all(
        t.rule is None for t in model.types.values())
    silent_posts = {name: tuple((g, None) for g in t.glues)
                    for name, t in model.types.items() if t.rule is None}
    return static, silent_posts


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
        self.outputs: dict[Point, tuple] = {}
        self.inputs: dict[Point, tuple] = {}
        self.ids: dict[Point, int] = {}
        self.next_id = 0
        self.trace: list[TraceEvent] = [] if record_trace else None
        self._table = neighbor_table(self.mesh)
        self._started = False
        self._static_occupants, self._silent_posts = _model_constants(model)
        # The processors the next round evaluates.  Static regime: EMPTY
        # ones only, plus the cells that entered last round, whose inputs
        # it drops.  General regime: the next round first adds the
        # neighbors of the cells whose posts changed last round.
        self._pending: set = set()
        self._entered: list = []
        self._posted: list = []
        # Rules are memoryless, so without ids a rule type's posts depend
        # only on its inputs.
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
            self._pending = self._empty_neighbors(self.states)
        else:
            self._posted = list(self.states)

    def _empty_neighbors(self, cells) -> set:
        table, states = self._table, self.states
        return {w for v in cells for _, w, _ in table[v] if w not in states}

    def _enter(self, v: Point, name: str) -> None:
        self.states[v] = name
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
        so only the pending EMPTY processors are evaluated.  Each pulls its
        inputs from its occupied neighbors before any of them is updated."""
        r = self.round
        d = self.model.d
        table = self._table
        outputs = self.outputs
        inputs = self.inputs
        for v in self._entered:
            del inputs[v]  # occupied now, so it hears nothing
        targets = sorted(self._pending)
        for v in targets:
            slot = [None] * d
            for i, w, j in table[v]:
                pairs = outputs.get(w)
                if pairs is not None:
                    slot[i] = pairs[j]
                    if probe is not None:
                        probe.log(v, w)
            inputs[v] = tuple(slot)

        law = self.law
        seed = self.master_seed
        # every posted message is None: no type has a rule
        msgs = (None,) * d
        pending = set()
        entered = []
        for v in targets:
            if probe is not None:
                probe.log(v, v)
            glues = tuple([p[0] if p is not None else None for p in inputs[v]])
            new, cdf = law.lookup(None, glues, msgs)
            if cdf is not None:
                new = pick(cdf, uniform(seed, v, r))
                if new is None:
                    pending.add(v)  # the next round's draw may attach it
            if new is not None:
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, None, new))
                self._enter(v, new)
                outputs[v] = self._silent_posts[new]
                entered.append(v)
        pending |= self._empty_neighbors(entered)
        self._pending = pending
        self._entered = entered

    def _general_round(self, probe: Optional[AccessProbe]) -> None:
        """A round with detachment or rules: only the pending processors
        (see the module docstring) are evaluated.  Each pulls its inputs
        from its neighbors' posts before any of them is updated."""
        r = self.round
        d = self.model.d
        table = self._table
        states = self.states
        outputs = self.outputs
        inputs = self.inputs
        targets = self._pending
        targets.update([w for v in self._posted for _, w, _ in table[v]])
        heard = []
        for v in sorted(targets):
            slot = [None] * d
            hears = False
            for i, w, j in table[v]:
                pairs = outputs.get(w)
                if pairs is not None:
                    slot[i] = pairs[j]
                    hears = True
                    if probe is not None:
                        probe.log(v, w)
            if hears:
                inputs[v] = tuple(slot)
                heard.append(v)
            else:
                inputs.pop(v, None)  # its last neighbor left: it idles

        law = self.law
        seed = self.master_seed
        detach_on = self.model.kinetics.detach
        types = self.model.types
        # with an empty alphabet every posted message is None
        silent = None if self.model.messages else (None,) * d
        pending = set()
        posted = []
        for v in heard:
            if probe is not None:
                probe.log(v, v)
            old = states.get(v)
            if old is not None and not detach_on and types[old].rule is None:
                continue  # nothing can change
            slot = inputs[v]
            glues = tuple([p[0] if p is not None else None for p in slot])
            msgs = silent if silent is not None else tuple(
                [p[1] if p is not None else None for p in slot])
            new, cdf = law.lookup(old, glues, msgs)
            if cdf is not None:
                new = pick(cdf, uniform(seed, v, r))
                pending.add(v)  # the next round's draw may differ
            if new != old:
                pending.add(v)
                posted.append(v)
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, old, new))
                if new is None:
                    del states[v]
                    self.ids.pop(v, None)
                    outputs.pop(v, None)
                    continue
                if old is None:
                    self._enter(v, new)
                else:
                    states[v] = new
                outputs[v] = self._post(v, new, glues, msgs)
            elif new is not None and types[new].rule is not None:
                # state kept, but the rule may emit different messages now
                pairs = self._post(v, new, glues, msgs)
                if pairs != outputs[v]:
                    outputs[v] = pairs
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
