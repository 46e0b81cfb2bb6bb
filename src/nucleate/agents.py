"""d-regular self-assembling agents with binding rules and messages.

Agents generalize tiles: each type carries d glue labels (canonical
direction order), a color, and a memoryless rule that may emit one bounded
message per side and may signal a detach intent.  Binding is governed by a
relation over glue-label pairs with an integer strength assignment; bonds
stabilize an agent when their total meets the temperature.

The model induces a one-round local transition law: given a cell's occupant
and its d neighbor glues and messages, it yields a probability distribution
over the next occupant.  Kinetics are controlled by three parameters:

* lambda_on -- total attachment probability at a cell where some agent type
  could bind stably, split uniformly over those types;
* epsilon   -- error rate: with this probability the candidate set widens to
  every agent type (errors strike only where some legal attachment exists);
* p_off     -- detachment probability for an occupant whose realized bond
  total is below the temperature (or whose rule signals detach), applied
  only when detachment is enabled.

Irreversible, error-free tile assembly is the special case
p_off = epsilon = 0.  Multiple nucleation places agents uniformly at random
with probability pi_nu per location, at stage 0 only.

The model's one law (`AgentModel.law`) is shared by the model dynamics here
and the mesh simulation in `meshnet`, and it is the one place where either
runs a message rule: `TransitionLaw.rule_output` raises `MessageBoundError`
unless the rule emits d messages from the declared alphabet.  What no master
seed changes on an n^k mesh is computed once per side and kept on the law
(`TransitionLaw.plan`), so a model, its law and its plans are freed together.
"""

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .lattice import OPPOSITE, Mesh, Point, index_rows, neighbor_rows
# perfbench/tracer.py counts calls through this module's add binding by name.
from .lattice import add  # noqa: F401
# perfbench/tracer.py wraps this module's derive_seed binding by name; the
# draws go through the rng kernel.
from .rng import derive_seed  # noqa: F401
from .rng import drawer, wakeups, window_keys
from .tiles import TileAssemblySystem


def neighbor_table(window: Mesh) -> dict:
    """window vertex -> tuple of (direction index, neighbor, opposite index)
    for the in-window neighbors, in canonical direction order.  Built from
    `neighbor_rows` on every call, so it shares their vertex tuples; the
    dynamics read the rows themselves."""
    return {v: tuple([(i, w, OPPOSITE[i]) for i, w in enumerate(row) if w is not None])
            for v, row in neighbor_rows(window.k, window.side).items()}


MAX_SYMBOL_LENGTH = 8


class RuleOutput(NamedTuple):
    messages: tuple
    detach: bool = False


#: A memoryless message rule: (agent name, d neighbor glues, d incoming
#: messages, agent id or None) -> RuleOutput.  Entries are None when empty.
#: Only `TransitionLaw.rule_output` calls a rule in the dynamics.  Posts get
#: the agent's id under use_ids; the detach intent is always read with id
#: None, so the law stays a function of (occupant, glues, messages).
MessageRule = Callable[..., RuleOutput]


class MessageBoundError(ValueError):
    """A rule's output escaped the model's declared bounds: it must be d
    messages, each None or a symbol of the declared alphabet."""


_RULES: dict[str, MessageRule] = {}


def register_rule(name: str):
    def deco(fn: MessageRule) -> MessageRule:
        if name in _RULES:
            raise ValueError(f"message rule {name!r} already registered")
        _RULES[name] = fn
        return fn
    return deco


def message_rule(name: str) -> MessageRule:
    try:
        return _RULES[name]
    except KeyError:
        raise KeyError(f"unknown message rule {name!r}; registered: {sorted(_RULES)}")


@register_rule("ping")
def _ping_rule(agent: str, glues, messages, my_id=None) -> RuleOutput:
    """Emit the symbol "p" on every side, unconditionally."""
    return RuleOutput(tuple("p" for _ in glues))


@dataclass(frozen=True)
class AgentType:
    """A finite-state unit: d glue labels, a color, an optional message rule."""

    name: str
    glues: tuple[Optional[str], ...]
    color: int = 1
    rule: Optional[str] = None

    def __post_init__(self):
        if len(self.glues) not in (4, 6):
            raise ValueError(f"agent {self.name!r} needs 4 or 6 glues, got {len(self.glues)}")
        if self.color < 1:
            raise ValueError(f"agent {self.name!r} color must be >= 1")

    @property
    def d(self) -> int:
        return len(self.glues)


class BindingRules:
    """Symmetric relation over glue labels with integer strengths.

    Strengths may be negative to model error-prone bonds; negative values
    only ever lower a bond total, never a probability.
    """

    def __init__(self, rules: Mapping[tuple[str, str], int]):
        self._strengths: dict[tuple[str, str], int] = {}
        for (a, b), s in rules.items():
            key = (a, b) if a <= b else (b, a)
            if key in self._strengths and self._strengths[key] != s:
                raise ValueError(f"conflicting strengths for rule {key}")
            self._strengths[key] = int(s)

    def bond(self, a: Optional[str], b: Optional[str]) -> int:
        if a is None or b is None:
            return 0
        key = (a, b) if a <= b else (b, a)
        return self._strengths.get(key, 0)

    def pairs(self) -> dict[tuple[str, str], int]:
        return dict(self._strengths)

    def __eq__(self, other) -> bool:
        return isinstance(other, BindingRules) and self._strengths == other._strengths


@dataclass(frozen=True)
class Kinetics:
    lambda_on: float = 1.0
    detach: bool = False
    p_off: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lambda_on <= 1.0:
            raise ValueError(f"lambda_on must lie in (0, 1], got {self.lambda_on}")
        if not 0.0 <= self.p_off < 1.0:
            raise ValueError(f"p_off must lie in [0, 1), got {self.p_off}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str
    path: str = ""

    def as_dict(self) -> dict:
        return {"severity": self.severity, "code": self.code,
                "message": self.message, "path": self.path}


class ModelValidationError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


@dataclass(frozen=True, eq=False)
class AgentModel:
    """Agent types, binding rules, temperature, seed, nucleation, kinetics.

    Compares and hashes by identity (it holds mappings); a model is built
    once and shared.
    """

    types: Mapping[str, AgentType]
    rules: BindingRules
    temperature: int
    seed: Mapping[Point, str] = field(default_factory=dict)
    pi_nu: float = 0.0
    kinetics: Kinetics = Kinetics()
    messages: tuple[str, ...] = ()
    use_ids: bool = False
    k: int = 2

    def __post_init__(self):
        errors = [d for d in _structure_diagnostics(self) if d.severity == "error"]
        if errors:
            raise ModelValidationError(errors)

    @property
    def d(self) -> int:
        return 2 * self.k

    @property
    def type_names(self) -> tuple[str, ...]:
        return tuple(self.types)

    @property
    def glue_labels(self) -> set:
        out = set()
        for t in self.types.values():
            out |= {g for g in t.glues if g is not None}
        return out

    @property
    def colors(self) -> int:
        return max((t.color for t in self.types.values()), default=1)

    @cached_property
    def law(self) -> "TransitionLaw":
        """The model's one transition law, built on first use and shared by
        every dynamics that runs the model, so its memos are reused."""
        return TransitionLaw(self)


def validate_model(model: AgentModel, strict: bool = False) -> list[Diagnostic]:
    """Machine-readable diagnostics; severity "error" makes a model unusable.

    Besides the structure the constructor checks, each rule type is run
    once through the model's law on silent inputs (no neighbour glue, no
    message, no id), as a lone seed cell posts at round 0.  An output that
    leaves the declared bounds there is a `rule-out-of-bounds` error: the
    model still constructs, but its dynamics stop on that post.
    """
    diags = _structure_diagnostics(model, strict)
    law = model.law
    silent = (None,) * model.d
    for name, t in model.types.items():
        if t.rule is None:
            continue
        try:
            law.rule_output(name, silent, silent, None)
        except MessageBoundError as e:
            diags.append(Diagnostic("error", "rule-out-of-bounds", f"agent {name!r}: {e}",
                                    f"agents.{name}.rule"))
    return diags


def _structure_diagnostics(model: AgentModel, strict: bool = False) -> list[Diagnostic]:
    """The diagnostics a model is constructed against: every field on its
    own and their cross-references, without running any rule."""
    diags: list[Diagnostic] = []

    def err(code, message, path=""):
        diags.append(Diagnostic("error", code, message, path))

    def warn(code, message, path=""):
        diags.append(Diagnostic("warning", code, message, path))

    if model.k not in (2, 3):
        err("bad-dimension", f"dimension {model.k} unsupported; only 2 and 3", "k")
    if not model.types:
        err("no-agents", "model declares no agent types", "agents")
    if not 0.0 <= model.pi_nu <= 1.0:
        err("bad-pi-nu", f"pi_nu {model.pi_nu} outside [0, 1]", "pi_nu")
    if model.temperature < 0:
        err("bad-temperature", "temperature must be nonnegative", "temperature")
    elif model.temperature == 0:
        warn("temperature-zero", "temperature 0: every location accepts every type",
             "temperature")
    for name, t in model.types.items():
        if name != t.name:
            err("name-mismatch", f"agent registered as {name!r} but named {t.name!r}",
                f"agents.{name}")
        if not name or any(c.isspace() for c in name):
            err("bad-name", f"agent name {name!r} must be nonempty without whitespace "
                "(trace records are space-separated)", f"agents.{name}")
        if t.d != model.d:
            err("bad-glue-count",
                f"agent {name!r} has {t.d} glues; dimension {model.k} needs {model.d}",
                f"agents.{name}.glues")
        if t.rule is not None and t.rule not in _RULES:
            err("unknown-rule", f"agent {name!r} names unknown message rule {t.rule!r}",
                f"agents.{name}.rule")
    agent_labels = model.glue_labels
    for (a, b), s in model.rules.pairs().items():
        for label in (a, b):
            if label not in agent_labels:
                err("dangling-rule",
                    f"binding rule ({a!r}, {b!r}) uses label {label!r} carried by no agent",
                    "rules")
        if s < 0 and strict:
            warn("negative-strength",
                 f"rule ({a!r}, {b!r}) has negative strength {s}; "
                 "strict nonnegativity was requested", "rules")
    for v, name in model.seed.items():
        if len(v) != model.k:
            err("bad-seed-location", f"seed location {v} is not {model.k}-dimensional",
                "seed")
        if name not in model.types:
            err("bad-seed-type", f"seed names undefined agent type {name!r} at {v}", "seed")
    for sym in model.messages:
        if not sym or len(sym) > MAX_SYMBOL_LENGTH:
            err("bad-symbol",
                f"message symbol {sym!r} must be 1..{MAX_SYMBOL_LENGTH} characters",
                "messages")
    return diags


class TransitionLaw:
    """One-round local update law induced by a model's binding rules.

    Maps (occupant or None, d neighbor glues, d neighbor messages) to a
    probability distribution over the next occupant; for every input the
    probabilities sum to one exactly.  It is also the one place where the
    dynamics run a message rule and check its output (`rule_output`,
    `posts`), shared by the mesh and the model dynamics as `AgentModel.law`.

    The mesh rounds read the law through post ids: every posted pairs
    tuple is interned to a small int (`post_id`), and a processor's *key*
    is the tuple of post ids its neighbors hold in canonical direction
    order, None where a neighbor posts nothing or lies off the mesh.
    `step` and `keyed_post` answer per key from the memos `steps` and
    `keyed_posts` (and `fixed_posts` for the types without a rule), which
    the rounds read directly; on a miss they read `slot`, `lookup` and
    `posts`, which stay the definitions.  `keyed_post` is the one source of
    a round's posts, with or without an id, and returns their post id;
    `pairs_of` turns it back into pairs.  `plan(side)` is what the
    dynamics share on one mesh side.
    """

    def __init__(self, model: AgentModel):
        self.model = model
        #: side -> plan(side)
        self.plans: dict = {}
        self._post_ids: dict = {}
        #: post id -> the pairs tuple it stands for
        self.pairs_of: list = []
        #: (occupant, key) -> step(occupant, key); (rule type, key) ->
        #: keyed_post(rule type, key) without an id
        self.steps: dict = {}
        self.keyed_posts: dict = {}
        #: type without a rule -> the post id of the pairs it posts
        #: whatever it hears
        self.fixed_posts = {name: self.post_id(tuple((g, None) for g in t.glues))
                            for name, t in model.types.items() if t.rule is None}
        #: whether an occupant can ever detach: detachment on, at p_off > 0
        self._detaching = model.kinetics.detach and model.kinetics.p_off > 0
        #: the types with a rule, and the occupants that can neither detach
        #: nor vary their posts
        self.ruled = frozenset(model.types.keys() - self.fixed_posts.keys())
        self.inert = frozenset() if self._detaching else frozenset(self.fixed_posts)

    def bond_total(self, type_name: str, glues: Sequence[Optional[str]]) -> int:
        return sum(map(self.model.rules.bond, self.model.types[type_name].glues, glues))

    def candidates(self, glues: Sequence[Optional[str]]) -> tuple[str, ...]:
        """Agent types whose bond total against these glues meets the temperature."""
        tau = self.model.temperature
        return tuple(
            name for name in self.model.types
            if self.bond_total(name, glues) >= tau
        )

    def rule_output(self, name: str, glues: tuple, messages: tuple,
                    my_id: Optional[int]) -> RuleOutput:
        """Run the rule of type `name` (which must have one) once, with its
        messages as a tuple; MessageBoundError unless it emits d messages
        from the declared alphabet."""
        model = self.model
        rule = model.types[name].rule
        result = message_rule(rule)(name, glues, messages, my_id)
        out = tuple(result.messages)
        if len(out) != model.d:
            raise MessageBoundError(f"rule {rule!r} emitted {len(out)} messages; "
                                    f"expected {model.d}")
        for sym in out:
            if sym is not None and sym not in model.messages:
                raise MessageBoundError(f"rule {rule!r} emitted {sym!r}, "
                                        "not in the declared message alphabet")
        return RuleOutput(out, result.detach)

    def posts(self, name: str, glues: tuple, messages: tuple,
              my_id: Optional[int]) -> tuple:
        """The (glue, message) pairs an agent of type `name` posts per side
        after hearing (glues, messages)."""
        fixed = self.fixed_posts.get(name)
        if fixed is not None:
            return self.pairs_of[fixed]
        return tuple(zip(self.model.types[name].glues,
                         self.rule_output(name, glues, messages, my_id).messages))

    def post_id(self, pairs: tuple) -> int:
        """The small int that stands for a posted pairs tuple; equal tuples
        get one id, in order of first post."""
        pid = self._post_ids.get(pairs)
        if pid is None:
            pid = self._post_ids[pairs] = len(self.pairs_of)
            self.pairs_of.append(pairs)
        return pid

    def slot(self, key: tuple) -> tuple:
        """What a processor hears when its neighbors hold the post ids
        `key`: per side i, the pair that neighbor posts on its side
        OPPOSITE[i] facing back, or None."""
        pairs_of = self.pairs_of
        return tuple([None if p is None else pairs_of[p][OPPOSITE[i]]
                      for i, p in enumerate(key)])

    def heard(self, key: tuple) -> tuple:
        """(glues, messages) of `slot(key)`: per side, the heard glue label
        and message, or None."""
        slot = self.slot(key)
        return (tuple([None if pair is None else pair[0] for pair in slot]),
                tuple([None if pair is None else pair[1] for pair in slot]))

    def step(self, occupant: Optional[str], key: tuple) -> tuple:
        """`lookup` of this occupant at the inputs heard from `key`.
        Memoized in `steps`."""
        entry = self.steps.get((occupant, key))
        if entry is None:
            entry = self.steps[(occupant, key)] = self.lookup(occupant, *self.heard(key))
        return entry

    def keyed_post(self, name: str, key: tuple, my_id: Optional[int] = None) -> int:
        """The post id of `posts(name, glues, messages, my_id)` at the
        inputs heard from `key`, for an agent with id `my_id` (None without
        use_ids).  A type without a rule reads its `fixed_posts` entry; an
        id-free post is memoized in `keyed_posts`, so its rule runs on a
        miss only; a post with an id runs the rule every time."""
        pid = self.fixed_posts.get(name)
        if pid is not None:
            return pid
        if my_id is not None:
            return self.post_id(self.posts(name, *self.heard(key), my_id))
        pid = self.keyed_posts.get((name, key))
        if pid is None:
            pid = self.keyed_posts[(name, key)] = self.post_id(
                self.posts(name, *self.heard(key), None))
        return pid

    def distribution(self, occupant: Optional[str], glues, messages) -> dict:
        """Exact next-occupant distribution for one cell; keys are agent
        names plus None for empty."""
        glues, messages = tuple(glues), tuple(messages)
        kin = self.model.kinetics
        if occupant is not None:
            if occupant not in self.model.types:
                raise KeyError(f"unknown occupant type {occupant!r}")
            unstable = self.bond_total(occupant, glues) < self.model.temperature
            if self._detaching and (unstable or (
                    self.model.types[occupant].rule is not None
                    and self.rule_output(occupant, glues, messages, None).detach)):
                return {occupant: 1.0 - kin.p_off, None: kin.p_off}
            return {occupant: 1.0}
        stable = self.candidates(glues)
        if not stable:
            return {None: 1.0}
        dist: dict[Optional[str], float] = {}
        stable_set = set(stable)
        share_stable = (1.0 - kin.epsilon) * kin.lambda_on / len(stable)
        share_any = kin.epsilon * kin.lambda_on / len(self.model.types)
        attach_mass = 0.0
        for name in self.model.types:
            p = share_any + (share_stable if name in stable_set else 0.0)
            if p > 0.0:
                dist[name] = p
                attach_mass += p
        if kin.lambda_on < 1.0:
            dist[None] = 1.0 - attach_mass
        return dist

    def lookup(self, occupant: Optional[str], glues: tuple, messages: tuple) -> tuple:
        """(outcome, None) when the law at this input is forced (a single
        outcome), else (None, cdf) for `pick` to draw from: the running
        sums of the distribution in its order, as (sum, outcome) pairs.
        Not memoized: the mesh rounds keep their entries in `steps`, and a
        model step in its plan (`stepper`)."""
        dist = self.distribution(occupant, glues, messages)
        if len(dist) == 1:
            return next(iter(dist)), None
        acc = 0.0
        cdf = []
        for outcome, p in dist.items():
            acc += p
            cdf.append((acc, outcome))
        return None, tuple(cdf)

    def sample(self, occupant: Optional[str], glues, messages,
               u: Optional[float]) -> Optional[str]:
        """The next occupant for a uniform draw u in [0, 1), found by
        inverse CDF over the distribution; u may be None when forced."""
        outcome, cdf = self.lookup(occupant, tuple(glues), tuple(messages))
        return outcome if cdf is None else pick(cdf, u)

    def forced(self, occupant: Optional[str], glues, messages) -> bool:
        """True when the next state is deterministic (a single-outcome law)."""
        return self.lookup(occupant, tuple(glues), tuple(messages))[1] is None

    def plan(self, side: int) -> "Plan":
        """The model's `Plan` on the n^k mesh of this side, built once and
        kept in `plans`."""
        plan = self.plans.get(side)
        if plan is None:
            plan = self.plans[side] = Plan(self, side)
        return plan


class Plan:
    """What every mesh network and every model step of one model on one
    mesh side share; no master seed changes any of it.

    The mesh rounds run on vertex numbers: `verts` lists the mesh's
    vertices in sorted (row-major) order, so vertex i is `verts[i]`,
    `rows[i]` is the tuple of its 2k neighbors' numbers in canonical
    direction order (`lattice.index_rows`, with `off` = N, the number of
    vertices, off the mesh), `readers[i]` reads a register along that row
    and `keys[i]` is its rng key bytes (`rng.window_keys`).  `index` maps
    a vertex back to its number; it is built on first use, and no round
    reads it.  The plan also holds the key of a processor that hears
    nothing (`nobody`), whether round 0 can wake a cell (`wakes`: pi_nu >
    0) and whether occupants carry ids (`use_ids`), and, built on first
    use, the round-0 template (`round0`, of `seeded` cells) and the
    round-1 list (`round1`), which a network reads when its round 0 woke
    nobody.  Everything is built here, once per plan, so it is freed with
    the model.  Shared, so callers copy before they add."""

    def __init__(self, law: TransitionLaw, side: int):
        model = law.model
        self.law = law
        self.mesh = Mesh(model.k, side)
        self.verts = list(neighbor_rows(model.k, side))
        self.rows = index_rows(model.k, side)
        #: i -> register -> the tuple of register entries along rows[i]:
        #: a processor's key, read from the post id register in one call
        self.readers = [itemgetter(*row) for row in self.rows]
        self.keys = window_keys(model.k, side)  # the cells' rng key bytes
        #: the number of every off-mesh neighbor: one past the last
        #: vertex, a slot every register of a network keeps at None
        self.off = len(self.verts)
        #: a network's registers before round 0: every slot None
        self.vacant = (None,) * (self.off + 1)
        self.nobody = (None,) * model.d
        self.wakes = model.pi_nu > 0
        self.use_ids = model.use_ids

    @cached_property
    def index(self) -> dict:
        """vertex -> its number, the inverse of `verts`."""
        return dict(zip(self.verts, range(self.off)))

    @cached_property
    def round0(self) -> tuple:
        """The seed cells' share of round 0, as (cells, post_ids, ids,
        seeded).  `cells` and `post_ids` are registers, lists of N + 1
        entries by vertex number: each seed cell's type, and the post id
        of the pairs it posts from silent inputs, None elsewhere.  `ids`
        maps each seed cell to its id, in sorted location order, under
        use_ids, and is empty otherwise; `seeded` is the frozenset of the
        seed cells' numbers.  ValueError for a seed cell outside the mesh,
        MessageBoundError for a seed rule that breaks its bounds; neither
        is kept, so every `init_round0` raises it."""
        model = self.law.model
        index = self.index
        cells = [None] * (self.off + 1)
        post_ids = cells.copy()
        seeded = []
        for v in sorted(model.seed):
            i = index.get(v)
            if i is None:
                raise ValueError(f"seed location {v} lies outside the mesh")
            cells[i] = model.seed[v]
            seeded.append(i)
        ids = {self.verts[i]: n for n, i in enumerate(seeded)} if model.use_ids else {}
        for i in seeded:
            post_ids[i] = self.law.keyed_post(cells[i], self.nobody, ids.get(self.verts[i]))
        return cells, post_ids, ids, frozenset(seeded)

    @cached_property
    def seeded(self) -> int:
        """The number of cells in the `round0` template."""
        return len(self.round0[3])

    @cached_property
    def round1(self) -> tuple:
        """What round 1 evaluates when round 0 woke nobody, as three
        tuples: (targets, keys, entries).  The targets are the numbers of
        the neighbors of every `round0` seed cell, less `off` and the inert
        seed cells, in sorted order; a target's key is the tuple of post
        ids along its row, and its entry is (occupant, new, cdf): its seed
        occupant (None off the seed) and that occupant's law entry at the
        key, `law.step(occupant, key)`.  Every network whose round 0 added
        no cell to the template reads it, so its round 1 only draws."""
        cells, post_ids, _, seeded = self.round0
        law = self.law
        near = {w for i in seeded for w in self.rows[i]}
        near.discard(self.off)
        targets = tuple(sorted(i for i in near if cells[i] not in law.inert))
        keys = tuple(self.readers[i](post_ids) for i in targets)
        olds = map(cells.__getitem__, targets)
        return targets, keys, tuple((old, *law.step(old, key))
                                    for old, key in zip(olds, keys))


def pick(cdf: tuple, u: float) -> Optional[str]:
    """Inverse CDF: the first outcome whose running sum exceeds u, or the
    last outcome when rounding leaves u at or above the final sum."""
    for acc, outcome in cdf:
        if u < acc:
            return outcome
    return cdf[-1][1]


_EMPTY = MappingProxyType({})


class SurfaceState(NamedTuple):
    """Occupancy, per-side outgoing messages, and ids of agents on a window.

    The dynamics never mutate a state's mappings; they build new ones, or
    share one that no dynamics can change.  The defaults are one shared
    read-only empty mapping."""

    occupancy: Mapping[Point, str]
    window: Mesh
    out_messages: Mapping[Point, tuple] = _EMPTY
    ids: Mapping[Point, int] = _EMPTY
    stage: int = 0
    next_id: int = 0


def initial_state(model: AgentModel, window: Mesh) -> SurfaceState:
    """Stage-0 state holding just the seed assembly (before any nucleation),
    with ids in sorted location order and the seed's round-0 posts."""
    for v in model.seed:
        if not window.contains(v):
            raise ValueError(f"seed location {v} lies outside the window")
    occupancy = dict(model.seed)
    ids = {v: i for i, v in enumerate(sorted(occupancy))} if model.use_ids else {}
    return SurfaceState(occupancy, window, _round0_posts(model, occupancy, ids), ids,
                        stage=0, next_id=len(ids))


def _inputs(occupancy: Mapping, out_messages: Mapping, types: Mapping, row: tuple):
    """(glues, messages) heard by the location whose neighbor row is
    given, from these occupants (of `types`) and their posts: on side i,
    what the neighbor there shows on its side OPPOSITE[i]."""
    glues = [None] * len(row)
    msgs = [None] * len(row)
    for i, w in enumerate(row):
        occ = occupancy.get(w)  # None off the window: no cell is keyed None
        if occ is not None:
            j = OPPOSITE[i]
            glues[i] = types[occ].glues[j]
            out = out_messages.get(w)
            if out:
                msgs[i] = out[j]
    return tuple(glues), tuple(msgs)


def _round0_posts(model: AgentModel, occupancy: Mapping[Point, str],
                  ids: Mapping[Point, int]) -> dict:
    """Round-0 posts: every occupant's rule hears empty inputs."""
    law = model.law
    silent = (None,) * model.d
    return {v: law.rule_output(name, silent, silent, ids.get(v)).messages
            for v, name in occupancy.items() if model.types[name].rule is not None}


def nucleation_sites(model: AgentModel, keys: list, seed: int, occupied) -> list:
    """Round-0 multiple nucleation on the window whose `window_keys` are
    given: (i, type), in vertex order, for each vertex number i outside
    `occupied` (a collection of numbers) that wakes, i.e. uniform(seed, v,
    0) < pi_nu at its vertex v.  The type is picked uniformly by its own
    hash path (seed, v, 0, 1): reusing the wake-up draw, which is below
    pi_nu, would bias it to the first name."""
    woken = wakeups(seed, keys, model.pi_nu)
    if not woken:
        return woken
    names = model.type_names
    return [(i, names[h % len(names)]) for i, h in woken if i not in occupied]


def nucleate(state: SurfaceState, model: AgentModel, seed: int) -> SurfaceState:
    """Round-0 multiple nucleation (`nucleation_sites`) on the empty
    locations; then every occupant posts."""
    if state.stage != 0:
        raise ValueError("nucleation happens at stage 0 only")
    occupancy = dict(state.occupancy)
    ids = dict(state.ids)
    next_id = state.next_id
    window = state.window
    plan = model.law.plan(window.side)
    occupied = set(map(plan.index.get, state.occupancy))
    for i, name in nucleation_sites(model, plan.keys, seed, occupied):
        v = plan.verts[i]
        occupancy[v] = name
        if model.use_ids:
            ids[v] = next_id
            next_id += 1
    return SurfaceState(occupancy, window, _round0_posts(model, occupancy, ids), ids,
                        stage=0, next_id=next_id)


def model_step(state: SurfaceState, model: AgentModel, seed: int) -> SurfaceState:
    """One synchronous round r = state.stage + 1 of the model dynamics.

    Every location with an occupied neighbor samples its transition law
    from the pre-round state, drawing uniform(seed, v, r) when the law is
    not forced; the others idle, since an attachment needs a bond partner
    and an isolated occupant hears no messages.  An evaluated occupant
    re-posts for this round's inputs, the others keep their posts, and a
    detached cell's posts are dropped.  It is `stepper(state, model)`
    applied to `seed`.
    """
    return stepper(state, model)(seed)


def stepper(state: SurfaceState, model: AgentModel) -> Callable[[int], SurfaceState]:
    """step(seed) -> `model_step(state, model, seed)`, for any seed.

    The step's plan is built here, once: every location with an occupied
    neighbor, in sorted order, with its vertex number (its rng key's index
    in the model's `Plan`), its occupant, its inputs from the pre-round
    state and its law entry.  It delivers along the vertex rows of
    `lattice.neighbor_rows`, not the plan's numbered rows, so the mesh
    rounds and the model dynamics stay two codings that check each
    other.  A location whose law is forced to
    keep its state, and whose state has no rule to re-post, does nothing
    in any round, so the plan leaves it out.  step(seed) only draws the
    unforced laws (it builds no drawer when every law is forced), picks
    and applies.  It never writes to `state`'s mappings: it builds a new
    occupancy on every call, and new posts and ids only when the step can
    change them (the model has a rule or the state has posts; use_ids or
    the state has ids).  Posts or ids that no step changes stay empty, and
    every step shares the read-only empty mapping of the `SurfaceState`
    defaults.  So one stepper serves every seed of a start state.
    """
    window = state.window
    law = model.law
    plan = law.plan(window.side)
    rows = neighbor_rows(model.k, window.side)
    index = plan.index
    ruled = law.ruled
    use_ids = model.use_ids
    r = state.stage + 1
    keys = plan.keys
    before, heard = state.occupancy, state.out_messages
    near = {w for u in before for w in rows[u]}
    near.discard(None)
    cells = []
    for v in sorted(near):
        glues, msgs = _inputs(before, heard, model.types, rows[v])
        old = before.get(v)
        new, cdf = law.lookup(old, glues, msgs)
        if cdf is not None or new != old or new in ruled:
            cells.append((v, index[v], old, new, cdf, glues, msgs))
    unforced = any(cell[4] is not None for cell in cells)
    posting = bool(ruled or heard)  # else every step's posts are empty
    numbering = bool(use_ids or state.ids)  # else every step's ids are empty

    def step(seed: int) -> SurfaceState:
        draw = drawer(seed, keys, r) if unforced else None
        occupancy = dict(before)
        posts = dict(heard) if posting else _EMPTY
        ids = dict(state.ids) if numbering else _EMPTY
        next_id = state.next_id
        for v, i, old, new, cdf, glues, msgs in cells:
            if cdf is not None:
                new = pick(cdf, draw(i))
            if new is None:
                if old is not None:
                    del occupancy[v]
                    if numbering:
                        ids.pop(v, None)
                    if posting:
                        posts.pop(v, None)
                continue
            if old is None:
                occupancy[v] = new
                if use_ids:
                    ids[v] = next_id
                    next_id += 1
            if new in ruled:
                posts[v] = law.rule_output(new, glues, msgs, ids.get(v)).messages
        return SurfaceState(occupancy, window, posts, ids, r, next_id)
    return step


def embed_tile_system(system: TileAssemblySystem) -> AgentModel:
    """Recast a tile assembly system as a model of message-free agents.

    Tile glues become agent glue labels that fold the strength into the
    label, so two sides bind exactly when the original glues were equal;
    each distinct positive glue yields one self-binding rule at its
    strength.  Dynamics are irreversible and error-free, with no
    nucleation: frontier growth matches the tile engine stage for stage.
    """
    label_strength: dict[str, int] = {}
    agents: dict[str, AgentType] = {}
    for name, t in system.tiles.items():
        labels = []
        for g in t.glues:
            if g.strength > 0:
                mangled = f"{g.label}~{g.strength}"
                label_strength[mangled] = g.strength
                labels.append(mangled)
            else:
                labels.append(None)
        agents[name] = AgentType(name, tuple(labels), t.color)
    rules = BindingRules({(lbl, lbl): s for lbl, s in label_strength.items()})
    return AgentModel(
        types=agents,
        rules=rules,
        temperature=system.temperature,
        seed=system.seed.cells(),
        pi_nu=0.0,
        kinetics=Kinetics(lambda_on=1.0, detach=False, p_off=0.0, epsilon=0.0),
        messages=(),
        use_ids=False,
        k=system.k,
    )
