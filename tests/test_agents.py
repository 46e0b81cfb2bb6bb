import math
import random
from dataclasses import replace

import pytest

from nucleate.agents import (
    AgentModel,
    AgentType,
    BindingRules,
    Kinetics,
    ModelValidationError,
    RuleOutput,
    SurfaceState,
    TransitionLaw,
    embed_tile_system,
    initial_state,
    model_step,
    neighbor_table,
    nucleate,
    pick,
    register_rule,
    stepper,
    surface_inputs,
    validate_model,
)
from nucleate.engine import run
from nucleate.lattice import OPPOSITE, Mesh, add, around, directions, neighbor_rows
from nucleate.rng import derive_seed, window_keys
from nucleate.systems import checkerboard_tileset
from nucleate.tiles import attachments
from support import (
    random_agent_model,
    random_law_input,
    reachable_by_engine,
    reachable_by_sequential_model,
)


def two_type_model(lambda_on=1.0, epsilon=0.0, p_off=0.0, temperature=1,
                   seed=None, pi_nu=0.0):
    types = {
        "a": AgentType("a", ("ga", "ga", "ga", "ga"), color=1),
        "b": AgentType("b", ("gb", "gb", "gb", "gb"), color=2),
    }
    rules = BindingRules({("ga", "ga"): 1, ("ga", "gb"): 1, ("gb", "gb"): 1})
    return AgentModel(
        types=types,
        rules=rules,
        temperature=temperature,
        seed=seed or {},
        pi_nu=pi_nu,
        kinetics=Kinetics(lambda_on=lambda_on, detach=p_off > 0,
                          p_off=p_off, epsilon=epsilon),
        messages=("p",),
    )


# -- transition law ----------------------------------------------------


def test_empty_cell_with_no_neighbors_stays_empty():
    law = TransitionLaw(two_type_model())
    assert law.distribution(None, (None,) * 4, (None,) * 4) == {None: 1.0}


def test_forced_attachment():
    # only type "a" binds to a "ga" glue, so attachment at rate 1 is forced
    types = {
        "a": AgentType("a", ("ga",) * 4, color=1),
        "b": AgentType("b", ("gb",) * 4, color=2),
    }
    model = AgentModel(
        types=types,
        rules=BindingRules({("ga", "ga"): 1, ("gb", "gb"): 1}),
        temperature=1,
        kinetics=Kinetics(lambda_on=1.0),
    )
    law = TransitionLaw(model)
    assert law.distribution(None, ("ga", None, None, None), (None,) * 4) == {"a": 1.0}


def test_two_candidate_split():
    law = TransitionLaw(two_type_model(lambda_on=0.5))
    dist = law.distribution(None, ("ga", None, None, None), (None,) * 4)
    assert dist == {"a": 0.25, "b": 0.25, None: 0.5}


def test_error_widening_strikes_only_attachable_cells():
    types = {
        "a": AgentType("a", ("ga",) * 4, color=1),
        "b": AgentType("b", ("gb",) * 4, color=2),
    }
    model = AgentModel(
        types=types,
        rules=BindingRules({("ga", "ga"): 1}),
        temperature=1,
        kinetics=Kinetics(lambda_on=0.5, epsilon=0.2),
    )
    law = TransitionLaw(model)
    # next to a "ga" glue: S = {a}; the error branch lets "b" slip in
    dist = law.distribution(None, ("ga", None, None, None), (None,) * 4)
    assert dist["a"] == pytest.approx(0.8 * 0.5 + 0.2 * 0.25)
    assert dist["b"] == pytest.approx(0.2 * 0.25)
    assert dist[None] == pytest.approx(0.5)
    # no legal attachment anywhere: errors do not nucleate from nothing
    assert law.distribution(None, ("gb", None, None, None), (None,) * 4) == {None: 1.0}
    assert law.distribution(None, (None,) * 4, (None,) * 4) == {None: 1.0}


def test_detachment_below_temperature():
    model = two_type_model(p_off=0.3, temperature=2)
    law = TransitionLaw(model)
    dist = law.distribution("a", ("ga", None, None, None), (None,) * 4)  # bonds 1 < 2
    assert dist == {"a": 0.7, None: 0.3}
    dist = law.distribution("a", ("ga", "ga", None, None), (None,) * 4)  # bonds 2
    assert dist == {"a": 1.0}


def test_negative_strengths_reduce_totals_not_probabilities():
    types = {
        "a": AgentType("a", ("ga",) * 4, color=1),
        "b": AgentType("b", ("gb",) * 4, color=2),
    }
    model = AgentModel(
        types=types,
        rules=BindingRules({("ga", "ga"): 2, ("ga", "gb"): -1}),
        temperature=2,
        kinetics=Kinetics(lambda_on=1.0),
    )
    law = TransitionLaw(model)
    assert law.bond_total("a", ("ga", "gb", None, None)) == 1
    dist = law.distribution(None, ("ga", "gb", None, None), (None,) * 4)
    assert dist == {None: 1.0}  # 2 - 1 < temperature
    dist = law.distribution(None, ("ga", "ga", None, None), (None,) * 4)
    assert all(p >= 0 for p in dist.values())
    assert dist == {"a": 1.0}


def test_normalization_on_random_models():
    rng = random.Random(2024)
    for _ in range(30):
        model = random_agent_model(rng)
        law = TransitionLaw(model)
        for _ in range(60):
            occupant, glues, messages = random_law_input(rng, model)
            dist = law.distribution(occupant, glues, messages)
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
            assert all(p >= 0.0 for p in dist.values())
            if occupant is not None:
                # an occupant stays or detaches; the mesh round's one post
                # branch rests on this
                assert set(dist) <= {occupant, None}


def test_law_depends_only_on_local_tuple():
    rng = random.Random(7)
    model = random_agent_model(rng)
    law_a = TransitionLaw(model)
    law_b = TransitionLaw(model)
    for _ in range(50):
        occupant, glues, messages = random_law_input(rng, model)
        assert law_a.distribution(occupant, glues, messages) == \
            law_b.distribution(occupant, glues, messages)


def test_lookup_draws_by_the_literal_inverse_cdf():
    # the memoized (outcome, cdf) entry must pick what a literal running
    # sum over `distribution` picks, with the same float additions in the
    # same order, for every u: the running sums themselves included, and
    # the fallback to the last outcome when u reaches the final sum
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        model = random_agent_model(rng, message_rules=("ping", "relay", "tally"))
        law = TransitionLaw(model)
        for _ in range(40):
            occupant, glues, messages = random_law_input(rng, model)
            dist = law.distribution(occupant, glues, messages)
            outcome, cdf = law.lookup(occupant, glues, messages)
            assert law.forced(occupant, glues, messages) == (cdf is None) == (len(dist) == 1)
            if cdf is None:
                assert [outcome] == list(dist)
                assert law.sample(occupant, glues, messages, None) == outcome
                continue
            sums, acc = [], 0.0
            for p in dist.values():
                acc += p
                sums.append(acc)
            draws = sums + [0.0, math.nextafter(1.0, 0.0)] + [rng.random() for _ in range(5)]
            for u in draws:
                expected = list(dist)[-1]
                for key, total in zip(dist, sums):
                    if u < total:
                        expected = key
                        break
                assert pick(cdf, u) == law.sample(occupant, glues, messages, u) == expected
                checked += 1
    assert checked > 0


def test_neighbor_table_matches_add_and_contains():
    for k in (2, 3):
        for side in range(1, 6):
            window = Mesh(k, side)
            expected = {}
            for v in window.vertices():
                entries = []
                for d in directions(k):
                    w = add(v, d.vector)
                    if window.contains(w):
                        entries.append((d.index, w, OPPOSITE[d.index]))
                expected[v] = tuple(entries)
            table = neighbor_table(window)
            assert list(table.items()) == list(expected.items()), (k, side)


def test_neighbor_rows_match_around_and_reuse_the_window_keys():
    for k in (2, 3):
        for side in range(1, 7):
            window = Mesh(k, side)
            keys = window_keys(k, side)
            rows = neighbor_rows(k, side)
            assert all(v is key for v, key in zip(rows, keys)) and len(rows) == len(keys)
            own = {v: v for v in keys}  # each vertex -> the key object itself
            for v, row in rows.items():
                assert len(row) == 2 * k, (k, side, v)
                for w, expected in zip(row, around(v)):
                    if window.contains(expected):
                        assert w == expected and w is own[expected], (k, side, v)
                    else:
                        assert w is None, (k, side, v)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_ids", [False, True], ids=["no-ids", "ids"])
@pytest.mark.parametrize("alphabet", [False, True], ids=["silent", "alphabet"])
def test_post_id_memos_match_literal_delivery_and_the_law(k, use_ids, alphabet):
    # random neighbor posts, keyed by their post ids: the slot is what each
    # neighbor posts on its side facing back, and the memoized law entry
    # and post ids stand for what a separate law gives at those inputs
    rng = random.Random(1400 + 10 * k + 2 * use_ids + alphabet)
    d = 2 * k
    checked = 0
    for _ in range(30):
        model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
        model = replace(model, use_ids=use_ids)
        if not alphabet:
            model = replace(model, messages=(),
                            types={n: replace(t, rule=None) for n, t in model.types.items()})
        law, reference = TransitionLaw(model), TransitionLaw(model)
        glue_pool = [None] + sorted(model.glue_labels)
        msg_pool = [None] + list(model.messages)
        posted = [tuple((rng.choice(glue_pool), rng.choice(msg_pool)) for _ in range(d))
                  for _ in range(3)]
        for _ in range(20):
            neighbors = [rng.choice(posted) if rng.random() < 0.7 else None for _ in range(d)]
            key = tuple(None if pairs is None else law.post_id(pairs) for pairs in neighbors)
            assert [law.pairs_of[p] for p in key if p is not None] == [
                pairs for pairs in neighbors if pairs is not None]
            delivered = tuple(None if pairs is None else pairs[OPPOSITE[i]]
                              for i, pairs in enumerate(neighbors))
            glues = tuple(None if pair is None else pair[0] for pair in delivered)
            msgs = tuple(None if pair is None else pair[1] for pair in delivered)
            for _ in range(2):  # a miss, then a memo hit
                assert law.slot(key) == delivered
                assert law.heard(key) == (glues, msgs)
                for old in (None,) + model.type_names:
                    assert law.step(old, key) == reference.lookup(old, glues, msgs), old
                for name in model.type_names:
                    pid = law.keyed_post(name, key)
                    pairs = reference.posts(name, glues, msgs, None)
                    assert type(pid) is int, name
                    assert law.pairs_of[pid] == pairs and law.post_id(pairs) == pid, name
                    # a post with an id runs the rule with it and is never memoized
                    my_id = rng.randrange(4) if use_ids else None
                    memo = dict(law.keyed_posts)
                    pid = law.keyed_post(name, key, my_id)
                    pairs = reference.posts(name, glues, msgs, my_id)
                    assert law.pairs_of[pid] == pairs and law.post_id(pairs) == pid, (name, my_id)
                    if my_id is not None:
                        assert law.keyed_posts == memo, (name, my_id)
                    if name in law.fixed_posts:  # no rule: one id whatever the id
                        for any_id in (None, 0, 7):
                            assert law.keyed_post(name, key, any_id) == law.fixed_posts[name]
                    checked += 1
    assert checked > 0
    assert len(law.pairs_of) == len(set(law.pairs_of))


@register_rule("flee-on-p")
def flee(agent, glues, messages, my_id=None):
    return RuleOutput((None,) * len(glues), detach=("p" in messages))


def test_rule_detach_intent_feeds_detachment():
    types = {"a": AgentType("a", ("ga",) * 4, color=1, rule="flee-on-p")}
    model = AgentModel(
        types=types,
        rules=BindingRules({("ga", "ga"): 1}),
        temperature=1,
        kinetics=Kinetics(lambda_on=1.0, detach=True, p_off=0.4),
        messages=("p",),
    )
    law = TransitionLaw(model)
    # stable bond but the rule demands detach on hearing "p"
    dist = law.distribution("a", ("ga", None, None, None), ("p", None, None, None))
    assert dist == {"a": 0.6, None: 0.4}
    dist = law.distribution("a", ("ga", None, None, None), (None,) * 4)
    assert dist == {"a": 1.0}


# -- nucleation --------------------------------------------------------


def test_nucleate_zero_probability_changes_nothing():
    model = two_type_model()
    state = initial_state(model, Mesh(2, 5))
    after = nucleate(state, model, 1)
    assert after.occupancy == state.occupancy == {}


def test_nucleate_full_probability_uniform_types():
    types = {
        "a": AgentType("a", ("ga",) * 4, color=1),
        "b": AgentType("b", ("gb",) * 4, color=2),
    }
    model = AgentModel(types=types, rules=BindingRules({("ga", "gb"): 1}),
                       temperature=1, pi_nu=1.0)
    side = 317  # 317^2 = 100489 cells
    state = initial_state(model, Mesh(2, side))
    after = nucleate(state, model, 3)
    assert len(after.occupancy) == side * side
    freq_a = sum(1 for n in after.occupancy.values() if n == "a") / (side * side)
    assert abs(freq_a - 0.5) <= 0.01


def test_nucleate_binomial_counts():
    types = {"a": AgentType("a", ("ga",) * 4, color=1)}
    model = AgentModel(types=types, rules=BindingRules({("ga", "ga"): 1}),
                       temperature=1, pi_nu=0.1)
    window = Mesh(2, 10)
    state = initial_state(model, window)
    trials = 1000
    counts = [len(nucleate(state, model, derive_seed(11, i)).occupancy)
              for i in range(trials)]
    mean = sum(counts) / trials
    sigma = math.sqrt(100 * 0.1 * 0.9)
    assert abs(mean - 10.0) <= 3 * sigma / math.sqrt(trials)


def test_nucleate_only_at_stage_zero():
    model = two_type_model(seed={(0, 0): "a"})
    state = initial_state(model, Mesh(2, 3))
    stepped = model_step(state, model, 0)
    with pytest.raises(ValueError):
        nucleate(stepped, model, 1)


def test_nucleate_spares_seed_locations():
    model = two_type_model(seed={(1, 1): "a"}, pi_nu=1.0)
    state = initial_state(model, Mesh(2, 3))
    after = nucleate(state, model, 5)
    assert after.occupancy[(1, 1)] == "a"
    assert len(after.occupancy) == 9


# -- model dynamics ----------------------------------------------------


def test_empty_surface_is_a_fixed_point():
    model = two_type_model()
    state = initial_state(model, Mesh(2, 3))
    for _ in range(5):
        state = model_step(state, model, 0)
    assert state.occupancy == {} and state.stage == 5


def test_synchronous_step_on_single_cell_matches_law():
    # a lone seeded cell has no neighbors, so both the simulator and the
    # no-input branch of the law leave it alone
    model = two_type_model(p_off=0.0, seed={(0, 0): "a"})
    state = initial_state(model, Mesh(2, 1))
    for i in range(5):
        after = model_step(state, model, i)
        assert after.occupancy == {(0, 0): "a"}


def sample_distribution(model, samples, master_seed=0):
    window = Mesh(2, 2)
    state = initial_state(model, window)
    counts = {}
    for i in range(samples):
        after = model_step(state, model, derive_seed(master_seed, i))
        key = tuple(sorted(after.occupancy.items()))
        counts[key] = counts.get(key, 0) + 1
    return {k: c / samples for k, c in counts.items()}


def tv(p, q):
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def test_model_step_matches_hand_enumerated_oracle():
    # 2x2 window, seed "a" at (0,0), lambda 0.5: cells (0,1) and (1,0) each
    # stay empty at 1/2 and accept either type at 1/4, independently; the
    # occupied cell and (1,1) have no occupied neighbor and idle.
    model = two_type_model(lambda_on=0.5, seed={(0, 0): "a"})
    cell = {None: 0.5, "a": 0.25, "b": 0.25}
    synchronous_oracle = {}
    for north, p_north in cell.items():
        for east, p_east in cell.items():
            occupied = {(0, 0): "a", (0, 1): north, (1, 0): east}
            key = tuple(sorted((v, n) for v, n in occupied.items() if n is not None))
            synchronous_oracle[key] = p_north * p_east
    assert len(synchronous_oracle) == 9
    samples = 100_000
    assert tv(sample_distribution(model, samples, 1), synchronous_oracle) <= 0.02


def test_irreversible_occupants_persist():
    model = two_type_model(lambda_on=1.0, epsilon=0.0, p_off=0.0, seed={(1, 1): "a"})
    state = initial_state(model, Mesh(2, 4))
    for _ in range(6):
        before = set(state.occupancy)
        state = model_step(state, model, 6)
        assert before <= set(state.occupancy)
    assert len(state.occupancy) == 16



def _mappings(state):
    return (dict(state.occupancy), dict(state.out_messages), dict(state.ids))


@pytest.mark.parametrize("k", [2, 3])
def test_dynamics_leave_their_input_state_alone(k):
    # nucleate and model_step build new mappings; the state they read,
    # which a caller may step again (fidelity steps one start state many
    # times), must keep its occupancy, posts and ids
    from support import random_agent_model

    rng = random.Random(4040 + k)
    side = 4 if k == 2 else 3
    seen = {"ids": 0, "posts": 0, "detached": 0}
    for trial in range(40):
        model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
        cells = rng.sample(list(Mesh(k, side).vertices()), rng.randint(0, 3))
        model = replace(model, seed={v: rng.choice(model.type_names) for v in cells},
                        pi_nu=rng.choice((0.1, 0.3)), use_ids=trial % 2 == 0)
        master = rng.getrandbits(64)
        start = initial_state(model, Mesh(k, side))
        kept = _mappings(start)
        state = nucleate(start, model, master)
        assert _mappings(start) == kept, trial
        for _ in range(4):
            kept = _mappings(state)
            after = model_step(state, model, master)
            assert _mappings(state) == kept, trial
            seen["detached"] += bool(set(state.occupancy) - set(after.occupancy))
            state = after
        seen["ids"] += len(state.ids) > 1
        seen["posts"] += bool(state.out_messages)
    assert all(seen.values()), seen


def test_a_reused_step_equals_a_fresh_model_step():
    # one stepper applied to many seeds, in any order, is model_step at
    # each seed: its plan is built once and no step leaves a trace on it
    # or on the state it was built from
    rng = random.Random(2525)
    dropped = 0
    kinds = set()
    for trial in range(24):
        k = 2 if trial % 2 else 3
        side = 4 if k == 2 else 3
        model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
        cells = rng.sample(list(Mesh(k, side).vertices()), rng.randint(1, 3))
        model = replace(model, seed={v: rng.choice(model.type_names) for v in cells},
                        pi_nu=rng.choice((0.1, 0.3)), use_ids=trial % 4 < 2)
        state = nucleate(initial_state(model, Mesh(k, side)), model, rng.getrandbits(64))
        kept = _mappings(state)
        step = stepper(state, model)
        seeds = [rng.getrandbits(64) for _ in range(30)]
        rng.shuffle(seeds)
        for seed in seeds:
            # equal as tuples: occupancy, window, posts, ids, stage, next_id
            assert step(seed) == model_step(state, model, seed), (trial, seed)
        assert _mappings(state) == kept, trial
        kinds.add((model.use_ids, model.kinetics.detach))
        # cells the plan leaves out: forced to keep a state that has no rule
        law = model.law
        active = {w for v in state.occupancy for _, w, _ in neighbor_table(state.window)[v]}
        for v in active:
            old = state.occupancy.get(v)
            new, cdf = law.lookup(old, *surface_inputs(state, model, v))
            dropped += cdf is None and new == old and new not in law.ruled
    assert len(kinds) == 4, kinds  # ids on and off, detachment on and off
    assert dropped, "no start state had a cell the step plan leaves out"


def test_surface_state_defaults_are_read_only():
    state = SurfaceState({}, Mesh(2, 2))
    assert state.out_messages == {} and state.ids == {}
    assert state.stage == 0 and state.next_id == 0
    with pytest.raises(TypeError):
        state.out_messages[(0, 0)] = (None,) * 4
    with pytest.raises(TypeError):
        state.ids[(0, 0)] = 0
    assert SurfaceState({}, Mesh(2, 2)).ids == {}


# -- embedding ---------------------------------------------------------


def test_embedding_copies_system_parameters():
    system = checkerboard_tileset().system
    model = embed_tile_system(system)
    assert model.temperature == system.temperature
    assert dict(model.seed) == system.seed.cells()
    assert set(model.type_names) == set(system.tiles)
    assert model.pi_nu == 0.0 and not model.kinetics.detach
    assert all(t.rule is None for t in model.types.values())


def test_embedded_agents_emit_no_messages():
    system = checkerboard_tileset().system
    model = embed_tile_system(system)
    state = initial_state(model, Mesh(2, 4))
    for _ in range(8):
        state = model_step(state, model, 8)
    assert all(m is None for msgs in state.out_messages.values() for m in msgs)


def test_embedded_frontiers_match_tile_frontiers():
    system = checkerboard_tileset().system
    model = embed_tile_system(system)
    law = TransitionLaw(model)
    window = Mesh(2, 4)
    rng = random.Random(17)
    for _ in range(100):
        budget = rng.randrange(0, window.size)
        partial = run(system, window, master_seed=rng.getrandbits(32),
                      max_stages=budget)
        cfg = partial.configuration
        tile_options = attachments(cfg, system.tiles, system.temperature)
        state = SurfaceState(cfg.cells(), window)
        for v in window.vertices():
            if v in cfg:
                continue
            glues, _ = surface_inputs(state, model, v)
            agent_side = set(law.candidates(glues))
            tile_side = set(tile_options.get(v, ()))
            assert agent_side == tile_side, (v, agent_side, tile_side)


def test_embedded_reachable_sets_match_exhaustively():
    system = checkerboard_tileset().system
    model = embed_tile_system(system)
    for side in (1, 2, 3):
        window = Mesh(2, side)
        assert reachable_by_engine(system, window) == \
            reachable_by_sequential_model(model, window)


# -- ids and validation -------------------------------------------------


#: Identifiers the `record-id` rule has been called with.
seen_ids = []


@register_rule("record-id")
def record(agent, glues, messages, my_id=None):
    seen_ids.append(my_id)
    return RuleOutput((None,) * len(glues))


def test_my_id_reaches_message_rules_only():
    seen_ids.clear()
    types = {"a": AgentType("a", ("ga",) * 4, color=1, rule="record-id")}
    model = AgentModel(
        types=types,
        rules=BindingRules({("ga", "ga"): 1}),
        temperature=1,
        seed={(0, 0): "a", (1, 0): "a"},
        kinetics=Kinetics(lambda_on=1.0),
        messages=(),
        use_ids=True,
    )
    state = initial_state(model, Mesh(2, 2))
    assert state.ids == {(0, 0): 0, (1, 0): 1}
    assert set(seen_ids) == {0, 1}
    law = TransitionLaw(model)
    seen_ids.clear()
    law.distribution("a", ("ga", None, None, None), (None,) * 4)
    assert seen_ids == []  # the binding law never sees identifiers


def test_validator_diagnostics():
    types = {"a": AgentType("a", ("ga",) * 4, color=1, rule=None)}
    with pytest.raises(ModelValidationError) as err:
        AgentModel(types=types, rules=BindingRules({("ga", "ghost"): 1}), temperature=1)
    assert any(d.code == "dangling-rule" for d in err.value.diagnostics)
    with pytest.raises(ModelValidationError):
        AgentModel(types=types, rules=BindingRules({}), temperature=1, pi_nu=1.5)
    with pytest.raises(ModelValidationError):
        AgentModel(
            types={"a": AgentType("a", ("ga",) * 4, rule="no-such-rule")},
            rules=BindingRules({}), temperature=1)


def test_strict_mode_warns_on_negative_strengths():
    types = {"a": AgentType("a", ("ga",) * 4, color=1)}
    model = AgentModel(types=types, rules=BindingRules({("ga", "ga"): -2}),
                       temperature=1)
    assert not [d for d in validate_model(model) if d.code == "negative-strength"]
    strict = validate_model(model, strict=True)
    assert any(d.code == "negative-strength" and d.severity == "warning" for d in strict)


def test_kinetics_ranges():
    with pytest.raises(ValueError):
        Kinetics(lambda_on=0.0)
    with pytest.raises(ValueError):
        Kinetics(p_off=1.0)
    with pytest.raises(ValueError):
        Kinetics(epsilon=-0.1)
