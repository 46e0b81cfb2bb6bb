"""Shared oracles and generators for the test suite.

The oracles here deliberately re-derive answers by definition (exhaustive
enumeration, literal sums) so the production code is checked against an
independent path.
"""

import itertools
import math
import random

from nucleate.agents import (AgentModel, AgentType, BindingRules, Kinetics, RuleOutput,
                             neighbor_table, pick, register_rule)
from nucleate.lattice import OPPOSITE, add, directions
from nucleate.meshnet import MeshNetwork, TraceEvent
from nucleate.rng import uniform
from nucleate.tiles import BindingGraph, Configuration, Glue, TileType, attachments, cut_strength


def exhaustive_binding_strength(g: BindingGraph) -> float:
    """Minimum cut by enumerating every two-sided partition."""
    vertices = sorted(g.vertices)
    if len(vertices) <= 1:
        return math.inf
    anchor, rest = vertices[0], vertices[1:]
    best = None
    for bits in range(2 ** len(rest)):
        side_a = {anchor} | {v for i, v in enumerate(rest) if bits >> i & 1}
        side_b = set(vertices) - side_a
        if not side_b:
            continue
        value = cut_strength(g, (side_a, side_b))
        best = value if best is None else min(best, value)
    return best


def literal_attachment_sum(cfg: Configuration, tiles, t: TileType, v) -> int:
    """The per-type frontier sum evaluated literally: for each direction,
    the tile's own strength there counts iff the neighbor's facing glue is
    equal as a (label, strength) pair."""
    total = 0
    for d in directions(cfg.k):
        w = add(v, d.vector)
        name = cfg.get(w)
        if name is None:
            continue
        facing = tiles[name].glue(OPPOSITE[d.index])
        own = t.glue(d.index)
        if facing == own:
            total += own.strength
    return total


def attachable_at(cfg: Configuration, tiles, temperature: int, t: TileType) -> set:
    """Locations where `attachments` offers tile type t: its per-type view."""
    return {v for v, names in attachments(cfg, tiles, temperature).items() if t.name in names}


def brute_frontier(cfg: Configuration, tiles, temperature: int, t: TileType, window) -> set:
    """Scan every empty window cell and apply the attachment sum directly.
    With no window, scan the bounding box of the occupied cells grown by
    one cell on every side: at temperature >= 1 a frontier cell has an
    occupied neighbour, so it lies in that box."""
    if window is None:
        if temperature < 1:
            raise ValueError("a windowless frontier scan needs temperature >= 1")
        cells = list(cfg.domain)
        if not cells:
            return set()
        box = [range(min(c) - 1, max(c) + 2) for c in zip(*cells)]
        vertices = itertools.product(*box)
    else:
        vertices = window.vertices()
    out = set()
    for v in vertices:
        if cfg.get(v) is not None:
            continue
        if literal_attachment_sum(cfg, tiles, t, v) >= temperature:
            out.add(v)
    return out


def literal_bond_sides(cfg: Configuration, tiles, t: TileType, v) -> int:
    """Bitmask of the directions in which tile type t at v binds: bit i is
    set when the neighbour's facing glue equals t's own glue there as a
    (label, strength) pair and that strength is positive."""
    sides = 0
    for d in directions(cfg.k):
        name = cfg.get(add(v, d.vector))
        if name is None:
            continue
        own = t.glue(d.index)
        if tiles[name].glue(OPPOSITE[d.index]) == own and own.strength > 0:
            sides |= 1 << d.index
    return sides


def brute_local_determinism(seq) -> tuple:
    """(passed, failed condition, witness) of the three unique-terminal
    conditions, recomputed by definition: condition 1 from the literal
    attachment sums met during a replay, condition 2 from `attachable_at`
    on the final assembly with the examined tile and the neighbours that
    grew off it deleted, condition 3 from `brute_frontier`."""
    system = seq.system
    tiles, temperature, k = system.tiles, system.temperature, system.k
    cells = system.seed.cells()
    strength, sides = {}, {}
    for a in seq.additions:
        cfg = Configuration(cells, seq.window, k)
        strength[a.location] = literal_attachment_sum(cfg, tiles, tiles[a.tile], a.location)
        sides[a.location] = literal_bond_sides(cfg, tiles, tiles[a.tile], a.location)
        cells[a.location] = a.tile
    for a in seq.additions:
        if strength[a.location] != temperature:
            return False, 1, (a.location, a.tile)
    for a in seq.additions:
        m = a.location
        deleted = {m}
        for d in directions(k):
            w = add(m, d.vector)
            if sides.get(w, 0) >> OPPOSITE[d.index] & 1:
                deleted.add(w)
        rest = Configuration({v: n for v, n in cells.items() if v not in deleted},
                             seq.window, k)
        for name, t in tiles.items():
            if name != a.tile and m in attachable_at(rest, tiles, temperature, t):
                return False, 2, (m, name)
    final = Configuration(cells, seq.window, k)
    frontier = {name: brute_frontier(final, tiles, temperature, t, seq.window)
                for name, t in tiles.items()}
    spots = set().union(*frontier.values())
    if spots:
        v = min(spots)
        return False, 3, (v, tuple(name for name in tiles if v in frontier[name]))
    return True, None, None


def literal_weak_coloring(col, mode: str) -> tuple:
    """(valid, coverage, violations) of a weak-coloring check written from
    the definition over `Mesh.neighbors`: a colored, non-isolated vertex
    violates when every colored neighbour shares its color, or, in full
    mode, when no neighbour is colored."""
    violations = []
    for v in sorted(col.assignment):
        nbrs = col.mesh.neighbors(v)
        if not nbrs:
            continue
        colored = [col.assignment[w] for w in nbrs if w in col.assignment]
        if (not colored and mode == "full") or (
                colored and all(c == col.assignment[v] for c in colored)):
            violations.append(v)
    coverage = len(col.assignment) == col.mesh.size
    return not violations and (coverage or mode == "induced"), coverage, tuple(violations)


def literal_plus_centers(col) -> list:
    """Vertices with four mesh neighbours that all carry the vertex's color."""
    return [v for v in sorted(col.assignment)
            if len(col.mesh.neighbors(v)) == 4
            and all(col.assignment.get(w) == col.assignment[v] for w in col.mesh.neighbors(v))]


def random_tile_set(rng: random.Random, n_types: int = 5, labels=("a", "b", "c", "g"),
                    k: int = 2) -> dict:
    tiles = {}
    for i in range(n_types):
        glues = tuple(
            Glue(rng.choice(labels), rng.randint(0, 3)) if rng.random() < 0.8 else Glue("", 0)
            for _ in range(2 * k)
        )
        name = f"t{i}"
        tiles[name] = TileType(name, glues, color=rng.randint(1, 3))
    return tiles


def spanning_tree_tile_set(rng: random.Random, window, root, temperature: int,
                           perturb: str = "") -> dict:
    """Tile types "t0", "t1", ... that grow one random spanning tree of
    `window` from "t0" at `root`: each cell has its own type, bound to its
    tree parent alone by a glue of strength `temperature` whose label names
    that edge, so from a seed of "t0" the tree fills the window one way.
    `perturb` "rival" adds a type that can take another's cell; "extra"
    adds a strength-1 bond across one edge outside the tree, so whichever
    of its ends comes second binds above the temperature."""
    k = window.k
    parent = {root: None}  # cell -> (its tree parent, direction from the parent)
    order, open_cells = [root], [root]
    while open_cells:
        v = open_cells.pop(rng.randrange(len(open_cells)))
        for d in directions(k):
            w = add(v, d.vector)
            if window.contains(w) and w not in parent:
                parent[w] = (v, d.index)
                order.append(w)
                open_cells.append(w)
    glues = {v: [Glue("", 0)] * (2 * k) for v in order}
    for n, w in enumerate(order[1:], 1):
        v, i = parent[w]
        glues[v][i] = glues[w][OPPOSITE[i]] = Glue(f"e{n}", temperature)
    if perturb == "extra":
        loose = [(v, d.index) for v in order for d in directions(k)
                 if add(v, d.vector) in glues and glues[v][d.index].strength == 0]
        if loose:
            v, i = rng.choice(loose)
            glues[v][i] = glues[add(v, directions(k)[i].vector)][OPPOSITE[i]] = Glue("x", 1)
    tiles = {f"t{n}": TileType(f"t{n}", tuple(glues[v]), color=rng.randint(1, 3))
             for n, v in enumerate(order)}
    if perturb == "rival" and len(order) > 1:
        copied = tiles[f"t{rng.randrange(1, len(order))}"]
        tiles["r"] = TileType("r", copied.glues, color=copied.color)
    return tiles


def random_configuration(rng: random.Random, tiles, window, fill: float = 0.4) -> Configuration:
    cells = {}
    names = list(tiles)
    for v in window.vertices():
        if rng.random() < fill:
            cells[v] = rng.choice(names)
    return Configuration(cells, window)


@register_rule("relay")
def relay_rule(agent, glues, messages, my_id=None) -> RuleOutput:
    """Pass each heard message on through the opposite side, answer a
    neighbour glue that came without a message with "q", and ask to detach
    on hearing "q" from two sides."""
    out = []
    for j in OPPOSITE[:len(glues)]:
        heard = messages[j]
        out.append(heard if heard is not None else ("q" if glues[j] is not None else None))
    return RuleOutput(tuple(out), detach=messages.count("q") >= 2)


@register_rule("tally")
def tally_rule(agent, glues, messages, my_id=None) -> RuleOutput:
    """Post the parity of (neighbour glues + id) on every side, "p" for
    even; ask to detach when that count reaches 3 and a "p" was heard."""
    n = sum(g is not None for g in glues) + (my_id or 0)
    return RuleOutput(("pq"[n % 2],) * len(glues), detach=n >= 3 and "p" in messages)


def random_agent_model(rng: random.Random, allow_negative: bool = True, k: int = 2,
                       message_rules: tuple = ()) -> AgentModel:
    """A random but valid k-dimensional model, for normalization, probing
    and differential tests.  With `message_rules`, each type draws its rule
    from None plus those names; without, no extra draw is made."""
    n_types = rng.randint(1, 4)
    labels = [f"g{i}" for i in range(rng.randint(1, 4))]
    types = {}
    for i in range(n_types):
        glues = [rng.choice(labels) if rng.random() < 0.8 else None for _ in range(2 * k)]
        if all(g is None for g in glues):
            glues[0] = rng.choice(labels)
        name = f"a{i}"
        rule = rng.choice((None,) + message_rules) if message_rules else None
        types[name] = AgentType(name, tuple(glues), color=rng.randint(1, 3), rule=rule)
    carried = sorted({g for t in types.values() for g in t.glues if g is not None})
    rules = {}
    for i, x in enumerate(carried):
        for y in carried[i:]:
            if rng.random() < 0.7:
                low = -2 if allow_negative else 0
                rules[(x, y)] = rng.randint(low, 3)
    lambda_on = rng.choice([0.25, 0.5, 0.75, 1.0])
    p_off = rng.choice([0.0, 0.1, 0.5])
    return AgentModel(
        types=types,
        rules=BindingRules(rules),
        temperature=rng.randint(1, 3),
        seed={},
        pi_nu=rng.random(),
        kinetics=Kinetics(
            lambda_on=lambda_on,
            detach=p_off > 0,
            p_off=p_off,
            epsilon=rng.choice([0.0, 0.05, 0.3]),
        ),
        messages=("p", "q"),
        k=k,
    )


def random_law_input(rng: random.Random, model: AgentModel):
    """A random (occupant, glues, messages) tuple over the model's domain."""
    occupant = rng.choice([None] + list(model.type_names))
    glue_pool = [None] + sorted(model.glue_labels)
    msg_pool = [None] + list(model.messages)
    glues = tuple(rng.choice(glue_pool) for _ in range(model.d))
    messages = tuple(rng.choice(msg_pool) for _ in range(model.d))
    return occupant, glues, messages


def reachable_by_engine(system, window) -> set:
    """Every configuration reachable by legal single-tile additions (BFS)."""
    from nucleate.tiles import attachments

    start = tuple(sorted(system.seed.cells().items()))
    seen = {start}
    stack = [dict(start)]
    while stack:
        cells = stack.pop()
        cfg = Configuration(cells, window)
        for v, names in attachments(cfg, system.tiles, system.temperature).items():
            for name in names:
                nxt = dict(cells)
                nxt[v] = name
                key = tuple(sorted(nxt.items()))
                if key not in seen:
                    seen.add(key)
                    stack.append(nxt)
    return seen


def heard_inputs(model, table, v, occupancy, posts=None):
    """(glues, messages) that v hears from `occupancy` (location -> type
    name) and `posts` (location -> per-side messages; none by default),
    read off v's `neighbor_table` row: on side i, what the occupant there
    shows on its side j.  None when v has no occupied neighbor, so it
    idles."""
    glues = [None] * model.d
    msgs = [None] * model.d
    heard = False
    for i, w, j in table[v]:
        name = occupancy.get(w)
        if name is not None:
            heard = True
            glues[i] = model.types[name].glues[j]
            if posts and posts.get(w):
                msgs[i] = posts[w][j]
    return (tuple(glues), tuple(msgs)) if heard else None


def graph_distances(table, sources) -> dict:
    """Multi-source BFS over `neighbor_table` rows: vertex -> its graph
    distance to the nearest of `sources`.  Vertices no source reaches
    (every vertex, when there is no source) are absent."""
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    while frontier:
        nxt = []
        for v in frontier:
            for _, w, _ in table[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def synchronous_reachable(model, window, max_states: int = 100_000) -> set:
    """Every occupancy reachable by whole synchronous rounds: successors of
    a state are all combinations of per-cell outcomes with positive
    probability (cells without an occupied neighbor idle).  No occupant
    posts a message."""
    from nucleate.agents import TransitionLaw

    law = TransitionLaw(model)
    table = neighbor_table(window)
    start = tuple(sorted(model.seed.items()))
    seen = {start}
    pending = [start]
    while pending:
        key = pending.pop()
        occupancy = dict(key)
        active = []
        for v in window.vertices():
            heard = heard_inputs(model, table, v, occupancy)
            if heard is None:
                continue
            outcomes = [t for t, p in law.distribution(occupancy.get(v), *heard).items()
                        if p > 0]
            active.append((v, outcomes))
        for combo in itertools.product(*(outs for _, outs in active)):
            nxt = dict(occupancy)
            for (v, _), outcome in zip(active, combo):
                if outcome is None:
                    nxt.pop(v, None)
                else:
                    nxt[v] = outcome
            nkey = tuple(sorted(nxt.items()))
            if nkey not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError("state space too large to enumerate")
                seen.add(nkey)
                pending.append(nkey)
    return seen


def reachable_by_sequential_model(model, window) -> set:
    """Every occupancy reachable with positive probability by single-cell
    attachments of an irreversible, error-free model, one at a time as the
    tile engine grows (BFS)."""
    from nucleate.agents import TransitionLaw

    law = TransitionLaw(model)
    table = neighbor_table(window)
    start = tuple(sorted(model.seed.items()))
    seen = {start}
    stack = [dict(start)]
    while stack:
        occupancy = stack.pop()
        for v in window.vertices():
            heard = None if v in occupancy else heard_inputs(model, table, v, occupancy)
            if heard is None:
                continue
            for name in law.candidates(heard[0]):
                nxt = dict(occupancy)
                nxt[v] = name
                key = tuple(sorted(nxt.items()))
                if key not in seen:
                    seen.add(key)
                    stack.append(nxt)
    return seen


class EvaluateEveryoneNetwork(MeshNetwork):
    """A mesh whose rounds skip no processor: every occupant delivers its
    posts, and every processor that hears a pair samples its law through
    the public `lookup` (one call per cell, read for both the forced test
    and the draw), unless it is an occupant that can neither detach nor
    change its posts.  The oracle for the event-driven round, which must
    match it round for round.  It keeps its own occupancy and posts keyed
    by vertex, the posts as pairs in `pairs`, and `delivered` holds the
    input buffers of the last round.  After each round it writes them into
    the network's registers by vertex number (`cells`, and `pids` from
    `pairs`, plus the occupant count) and rebuilds `_posted` from every
    poster's post id at the start of the round, so what it inherits
    (`states`, `count`, `inputs`, `outputs`) shows its rounds."""

    def init_round0(self):
        super().init_round0()
        self.pairs = self.outputs
        self.table = neighbor_table(self.mesh)

    def run_round(self, probe=None):
        self.round += 1
        r = self.round
        d = self.model.d
        table = self.table
        states = self.states

        outputs = self.pairs
        start = self.pids
        delivered = {}
        for v in outputs:
            pairs = outputs[v]
            for i, w, j in table[v]:
                slot = delivered.get(w)
                if slot is None:
                    slot = [None] * d
                    delivered[w] = slot
                slot[j] = pairs[i]
                if probe is not None:
                    probe.log(w, v)
        self.delivered = {v: tuple(slot) for v, slot in delivered.items()}

        law = self.law
        seed = self.master_seed
        detach_on = self.model.kinetics.detach
        types = self.model.types
        for v in sorted(delivered):
            if probe is not None:
                probe.log(v, v)
            old = states.get(v)
            if old is not None and not detach_on and types[old].rule is None:
                continue  # nothing can change
            slot = delivered[v]
            glues = tuple(p[0] if p is not None else None for p in slot)
            msgs = tuple(p[1] if p is not None else None for p in slot)
            new, cdf = law.lookup(old, glues, msgs)
            if cdf is not None:
                new = pick(cdf, uniform(seed, v, r))
            if new != old:
                if self.trace is not None:
                    self.trace.append(TraceEvent(r, v, old, new))
                if new is None:
                    del states[v]
                    self.ids.pop(v, None)
                    outputs.pop(v, None)
                    continue
                states[v] = new
                if old is None and self.model.use_ids:
                    self.ids[v] = self.next_id
                    self.next_id += 1
                outputs[v] = law.posts(new, glues, msgs, self.ids.get(v))
            elif new is not None and types[new].rule is not None:
                outputs[v] = law.posts(new, glues, msgs, self.ids.get(v))
        index = self._plan.index
        cells, pids = [None] * len(start), [None] * len(start)
        for v, name in states.items():
            cells[index[v]] = name
        for v, pairs in outputs.items():
            pids[index[v]] = law.post_id(pairs)
        self.cells, self.pids, self.count = cells, pids, len(states)
        self._posted = {i: was for i, (was, now) in enumerate(zip(start, pids))
                        if was is not None or now is not None}
