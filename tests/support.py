"""Shared oracles and generators for the test suite.

The oracles here deliberately re-derive answers by definition (exhaustive
enumeration, literal sums) so the production code is checked against an
independent path.
"""

import math
import random

from nucleate.agents import (AgentModel, AgentType, BindingRules, Kinetics, RuleOutput,
                             register_rule)
from nucleate.lattice import OPPOSITE, add, directions, opposite_index
from nucleate.tiles import BindingGraph, Configuration, Glue, TileType, cut_strength


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
        facing = tiles[name].glue(opposite_index(d.index))
        own = t.glue(d.index)
        if facing == own:
            total += own.strength
    return total


def brute_frontier(cfg: Configuration, tiles, temperature: int, t: TileType, window) -> set:
    """Scan every empty window cell and apply the attachment sum directly."""
    out = set()
    for v in window.vertices():
        if cfg.get(v) is not None:
            continue
        if literal_attachment_sum(cfg, tiles, t, v) >= temperature:
            out.add(v)
    return out


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


def synchronous_reachable(model, window, max_states: int = 100_000) -> set:
    """Every occupancy reachable by whole synchronous rounds: successors of
    a state are all combinations of per-cell outcomes with positive
    probability (cells without an occupied neighbor idle)."""
    import itertools

    from nucleate.agents import SurfaceState, TransitionLaw, surface_inputs, neighbor_table

    law = TransitionLaw(model)
    table = neighbor_table(window)
    start = tuple(sorted(model.seed.items()))
    seen = {start}
    frontier = [start]
    while frontier:
        key = frontier.pop()
        occupancy = dict(key)
        state = SurfaceState(occupancy, window)
        active = []
        for v in window.vertices():
            if not any(w in occupancy for _, w, _ in table[v]):
                continue
            glues, msgs = surface_inputs(state, model, v)
            outcomes = [t for t, p in law.distribution(occupancy.get(v), glues, msgs).items()
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
                frontier.append(nkey)
    return seen


def reachable_by_sequential_model(model, window) -> set:
    """Every occupancy reachable with positive probability by single-cell
    attachments of an irreversible, error-free model, one at a time as the
    tile engine grows (BFS)."""
    from nucleate.agents import SurfaceState, TransitionLaw, neighbor_table, surface_inputs

    law = TransitionLaw(model)
    table = neighbor_table(window)
    start = tuple(sorted(model.seed.items()))
    seen = {start}
    stack = [dict(start)]
    while stack:
        occupancy = stack.pop()
        state = SurfaceState(occupancy, window)
        for v in window.vertices():
            if v in occupancy or not any(w in occupancy for _, w, _ in table[v]):
                continue
            glues, _ = surface_inputs(state, model, v)
            for name in law.candidates(glues):
                nxt = dict(occupancy)
                nxt[v] = name
                key = tuple(sorted(nxt.items()))
                if key not in seen:
                    seen.add(key)
                    stack.append(nxt)
    return seen
