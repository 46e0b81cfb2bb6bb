import pytest

from nucleate.agents import (AgentModel, AgentType, BindingRules, Kinetics,
                             MessageBoundError, RuleOutput, initial_state, law_for,
                             model_step, neighbor_table, nucleate, register_rule)
from nucleate.coloring import check_weak_coloring
from nucleate.lattice import Mesh
from nucleate.meshnet import AccessProbe, MeshNetwork
from nucleate.rng import derive_seed
from nucleate.systems import checkerboard_tileset, fidelity_model
from nucleate.agents import embed_tile_system


def forced_growth_model(seed=None, side_glue="g"):
    """One agent type that binds to itself at strength 1: with attach rate 1
    every empty cell next to an occupant fills deterministically."""
    types = {"t": AgentType("t", (side_glue,) * 4, color=1)}
    return AgentModel(
        types=types,
        rules=BindingRules({(side_glue, side_glue): 1}),
        temperature=1,
        seed=seed or {},
        kinetics=Kinetics(lambda_on=1.0),
    )


@register_rule("silence")
def silence(agent, glues, messages, my_id=None):
    return RuleOutput((None,) * len(glues))


@register_rule("parity")
def parity(agent, glues, messages, my_id=None):
    return RuleOutput(("eo"[my_id % 2],) * len(glues))


def detachable_pair_model(p_off):
    """Two adjacent agents whose glues never bind: both sit below the
    temperature and are eligible to detach every round."""
    types = {"t": AgentType("t", ("g",) * 4, color=1)}
    return AgentModel(
        types=types,
        rules=BindingRules({}),
        temperature=1,
        seed={(0, 0): "t", (1, 0): "t"},
        kinetics=Kinetics(lambda_on=1.0, detach=True, p_off=p_off),
    )


def test_all_empty_network_is_a_fixed_point():
    model = forced_growth_model()
    net = MeshNetwork(model, 4, master_seed=1)
    net.init_round0()
    events = net.run(5)
    assert events == []
    assert net.states == {}


def test_round0_seed_placement_only():
    model = forced_growth_model(seed={(0, 0): "t"})
    net = MeshNetwork(model, 4, master_seed=1)
    net.init_round0()
    assert net.states == {(0, 0): "t"}
    assert len(net.trace) == 1 and net.trace[0].round == 0


def test_round0_wakeup_frequencies():
    types = {
        "a": AgentType("a", ("ga",) * 4, color=1),
        "b": AgentType("b", ("gb",) * 4, color=2),
    }
    model = AgentModel(types=types, rules=BindingRules({("ga", "gb"): 1}),
                       temperature=1, pi_nu=0.5)
    side = 317  # ~1e5 processors
    net = MeshNetwork(model, side, master_seed=9, record_trace=False)
    net.init_round0()
    cells = side * side
    for name in ("a", "b"):
        freq = sum(1 for s in net.states.values() if s == name) / cells
        assert abs(freq - 0.25) <= 0.01


def test_seed_outside_mesh_is_rejected():
    model = forced_growth_model(seed={(5, 5): "t"})
    net = MeshNetwork(model, 3)
    with pytest.raises(ValueError):
        net.init_round0()


def test_double_init_rejected():
    net = MeshNetwork(forced_growth_model(), 3)
    net.init_round0()
    with pytest.raises(ValueError):
        net.init_round0()


def test_forced_neighbors_fill_after_round_one():
    model = forced_growth_model(seed={(1, 1): "t"})
    net = MeshNetwork(model, 3, master_seed=4)
    net.init_round0()
    net.run_round()
    assert set(net.states) == {(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}


def test_hand_computed_wavefront_after_two_rounds():
    # corner seed on 3x3: round 1 fills (1,0) and (0,1); round 2 fills
    # (2,0), (1,1), (0,2); corners of the L1 ball arrive later
    model = forced_growth_model(seed={(0, 0): "t"})
    net = MeshNetwork(model, 3, master_seed=4)
    net.init_round0()
    net.run(2)
    assert set(net.states) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_growth_respects_speed_of_light():
    model = forced_growth_model(seed={(2, 2): "t"})
    net = MeshNetwork(model, 5, master_seed=4)
    net.init_round0()
    for r in range(1, 5):
        net.run_round()
        for (x, y) in net.states:
            assert abs(x - 2) + abs(y - 2) <= r
    assert len(net.states) == 25


def test_detach_frequency_matches_p_off():
    p_off = 0.3
    model = detachable_pair_model(p_off)
    trials = 100_000
    detached = 0
    for i in range(trials):
        net = MeshNetwork(model, 2, master_seed=derive_seed(1234, i),
                          record_trace=False)
        net.init_round0()
        net.run_round()
        detached += 2 - len(net.states)
    freq = detached / (2 * trials)
    assert abs(freq - p_off) <= 0.01


def test_identical_seeds_give_identical_traces():
    model = fidelity_model().system
    runs = []
    for _ in range(2):
        net = MeshNetwork(model, 3, master_seed=99)
        net.init_round0()
        net.run(6)
        runs.append(net.trace)
    assert runs[0] == runs[1]


def test_round_is_independent_of_evaluation_order():
    # Recompute each round from snapshots of the delivered inputs and the
    # prior states, visiting targets in shuffled order with each target's
    # own derived draw: the outcome must match run_round's sorted sweep.
    import random

    from nucleate.agents import law_for
    from nucleate.rng import uniform

    types = {
        "a": AgentType("a", ("g", "h", "g", "h"), color=1, rule="ping"),
        "b": AgentType("b", ("h", "g", "h", "g"), color=2, rule="ping"),
    }
    model = AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1, ("h", "h"): 2, ("g", "h"): -1}),
        temperature=2,
        pi_nu=0.3,
        kinetics=Kinetics(lambda_on=0.5, detach=True, p_off=0.3, epsilon=0.2),
        messages=("p",),
    )
    law = law_for(model)
    shuffler = random.Random(3)
    seed = 41
    net = MeshNetwork(model, 6, master_seed=seed)
    net.init_round0()
    attached = detached = 0
    for r in range(1, 9):
        before = dict(net.states)
        net.run_round()
        inputs = dict(net.inputs)
        targets = list(inputs)
        shuffler.shuffle(targets)
        expected = dict(before)
        for v in targets:
            glues = tuple(p[0] if p is not None else None for p in inputs[v])
            msgs = tuple(p[1] if p is not None else None for p in inputs[v])
            new = law.sample(before.get(v), glues, msgs, uniform(seed, v, r))
            if new is None:
                expected.pop(v, None)
            else:
                expected[v] = new
        assert net.states == expected, r
        attached += len(expected.keys() - before.keys())
        detached += len(before.keys() - expected.keys())
    assert attached and detached  # both kinds of change were exercised


def test_zero_rounds_leaves_only_round0_events():
    model = forced_growth_model(seed={(0, 0): "t"})
    net = MeshNetwork(model, 3, master_seed=1)
    net.init_round0()
    events = net.run(0)
    assert [e.round for e in events] == [0]


def test_extract_configuration_roundtrip():
    model = forced_growth_model(seed={(0, 0): "t"})
    net = MeshNetwork(model, 3, master_seed=1)
    net.init_round0()
    cfg, coloring = net.extract_configuration()
    assert cfg.cells() == {(0, 0): "t"}
    assert coloring.assignment == {(0, 0): 1}
    net.run(4)
    cfg, coloring = net.extract_configuration()
    assert len(cfg) == 9
    assert check_weak_coloring(coloring).violation_count == 9  # monochrome fill


def test_empty_network_extraction():
    net = MeshNetwork(forced_growth_model(), 3)
    net.init_round0()
    cfg, coloring = net.extract_configuration()
    assert len(cfg) == 0 and coloring.assignment == {}


def test_locality_probe_finds_no_violations():
    model = embed_tile_system(checkerboard_tileset().system)
    net = MeshNetwork(model, 8, master_seed=2, record_trace=False)
    net.init_round0()
    probe = AccessProbe()
    net.run(10, probe=probe)
    assert probe.reads, "probe saw no reads at all"
    assert probe.violations(net.mesh) == []


def _regime_model(rng, k: int, static: bool) -> AgentModel:
    """A random model with a few seed cells: static (no detachment, no
    rules) or general (rules, maybe detachment)."""
    from dataclasses import replace

    from support import random_agent_model

    side = 6 if k == 2 else 4
    model = random_agent_model(rng, k=k, message_rules=() if static else ("ping", "relay"))
    cells = rng.sample(list(Mesh(k, side).vertices()), 3)
    model = replace(model, seed={v: rng.choice(model.type_names) for v in cells},
                    pi_nu=rng.choice((0.1, 0.3)))
    if static:
        return replace(model, kinetics=replace(model.kinetics, detach=False, p_off=0.0))
    if all(t.rule is None for t in model.types.values()):
        name = model.type_names[0]
        types = dict(model.types)
        types[name] = replace(types[name], rule="ping")
        model = replace(model, types=types)
    return model


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("static", [True, False], ids=["static", "general"])
def test_probe_reads_exactly_the_evaluated_neighborhoods(k, static):
    # every round, the probe must log (v, w) for each evaluated processor v
    # and each mesh neighbor w holding posts at the start of the round, and
    # (v, v), and nothing else: a round that stopped logging its neighbor
    # reads, or read beyond them, fails here
    import random

    rng = random.Random(1414 + k + 2 * static)
    side = 6 if k == 2 else 4
    neighbor_reads = 0
    for trial in range(12):
        net = MeshNetwork(_regime_model(rng, k, static), side, master_seed=rng.getrandbits(64))
        net.init_round0()
        assert net._static_occupants == static
        mesh = net.mesh
        for r in range(1, 9):
            posting = set(net.outputs)
            evaluated = set(net._pending)
            if not static:
                evaluated |= {w for v in net._posted for w in mesh.neighbors(v)}
                evaluated = {v for v in evaluated if posting.intersection(mesh.neighbors(v))}
            expected = {(v, v) for v in evaluated} | {
                (v, w) for v in evaluated for w in mesh.neighbors(v) if w in posting}
            probe = AccessProbe()
            net.run_round(probe=probe)
            assert set(probe.reads) == expected, (trial, r)
            assert len(probe.reads) == len(expected), (trial, r)
            neighbor_reads += len(expected) - len(evaluated)
    assert neighbor_reads > 0


def test_mesh_rounds_never_build_the_neighbor_triples():
    # construction, round 0 and two rounds, in both regimes, on fresh
    # models (so nothing comes from a cached set-up) leave the triple
    # table's cache untouched: the mesh reads only the neighbor rows
    import random

    import nucleate.agents as agents

    rng = random.Random(1515)
    for k in (2, 3):
        for static in (True, False):
            model = _regime_model(rng, k, static)
            before = agents._neighbor_table.cache_info()
            net = MeshNetwork(model, 6 if k == 2 else 4, master_seed=k)
            net.init_round0()
            net.run(2)
            assert net._static_occupants == static
            assert agents._neighbor_table.cache_info() == before, (k, static)


def test_ping_messages_are_relayed():
    types = {"t": AgentType("t", ("g",) * 4, color=1, rule="ping")}
    model = AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed={(0, 0): "t", (1, 0): "t"},
        kinetics=Kinetics(lambda_on=1.0),
        messages=("p",),
    )
    net = MeshNetwork(model, 2, master_seed=0)
    net.init_round0()
    net.run_round()
    # (1,0) hears (0,0)'s posted pair on its west buffer: glue g, message p
    view = net.processor((1, 0))
    assert view.inputs[0] == ("g", "p")
    assert view.outputs[0] == ("g", "p")
    assert view.state == "t" and view.color == 1


@register_rule("loud")
def loud(agent, glues, messages, my_id=None):
    return RuleOutput(("offalphabet",) * len(glues))


def test_message_bound_is_enforced():
    types = {"t": AgentType("t", ("g",) * 4, color=1, rule="loud")}
    model = AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed={(0, 0): "t"},
        kinetics=Kinetics(lambda_on=1.0),
        messages=("p",),
    )
    net = MeshNetwork(model, 2, master_seed=0)
    with pytest.raises(MessageBoundError):
        net.init_round0()


@register_rule("one-short")
def one_short(agent, glues, messages, my_id=None):
    return RuleOutput((None,) * (len(glues) - 1))


@pytest.mark.parametrize("rule, match", [("loud", "emitted 'offalphabet'"),
                                         ("one-short", "emitted 3 messages; expected 4")])
def test_both_dynamics_check_each_post_against_the_bounds(rule, match):
    bad = AgentType("a", ("g",) * 4, color=1, rule=rule)
    # round 0: every cell wakes as the rule type
    woken = AgentModel(types={"a": bad}, rules=BindingRules({}), temperature=1,
                       pi_nu=1.0, messages=("p",))
    with pytest.raises(MessageBoundError, match=match):
        nucleate(initial_state(woken, Mesh(2, 2)), woken, 0)
    with pytest.raises(MessageBoundError, match=match):
        MeshNetwork(woken, 2).init_round0()
    # round 1: the seed runs no rule, and only the rule type binds beside it
    seeded = AgentModel(types={"q": AgentType("q", ("h",) * 4, color=2), "a": bad},
                        rules=BindingRules({("g", "h"): 1}), temperature=1,
                        seed={(0, 0): "q"}, messages=("p",))
    with pytest.raises(MessageBoundError, match=match):
        model_step(initial_state(seeded, Mesh(2, 2)), seeded, 0)
    net = MeshNetwork(seeded, 2)
    net.init_round0()
    with pytest.raises(MessageBoundError, match=match):
        net.run_round()


def test_use_ids_detach_intent_is_read_without_the_id():
    # the law is a memoized function of (occupant, glues, messages), so it
    # reads a rule's detach intent with my_id None; posts get the real id
    from support import tally_rule
    model = AgentModel(types={"a": AgentType("a", ("g",) * 4, color=1, rule="tally")},
                       rules=BindingRules({("g", "g"): 1}), temperature=1,
                       kinetics=Kinetics(lambda_on=1.0, detach=True, p_off=0.5),
                       messages=("p", "q"), use_ids=True)
    law = law_for(model)
    glues, msgs = ("g", None, None, None), ("p", None, None, None)
    assert tally_rule("a", glues, msgs, my_id=2).detach
    assert not tally_rule("a", glues, msgs, my_id=None).detach
    assert law.distribution("a", glues, msgs) == {"a": 1.0}
    assert law.posts("a", glues, msgs, 1) == (("g", "p"),) * 4
    assert law.posts("a", glues, msgs, None) == (("g", "q"),) * 4


def test_processor_views_track_anatomy():
    model = fidelity_model().system
    net = MeshNetwork(model, 3, master_seed=7)
    net.init_round0()
    view = net.processor((0, 0))
    assert view.state == "amber" and view.color == 1
    assert len(view.inputs) == 4 and len(view.outputs) == 4
    assert view.outputs[1] == ("g", None)  # posts its glue northward
    empty = net.processor((2, 2))
    assert empty.state is None and empty.color is None


def test_three_dimensional_forced_growth():
    # 6-regular agents on a 3x3x3 mesh: wavefront covers the L1 ball
    types = {"t": AgentType("t", ("g",) * 6, color=1)}
    model = AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed={(1, 1, 1): "t"},
        kinetics=Kinetics(lambda_on=1.0),
        k=3,
    )
    net = MeshNetwork(model, 3, master_seed=2)
    net.init_round0()
    net.run_round()
    assert len(net.states) == 7  # center plus six face neighbors
    net.run(2)
    assert len(net.states) == 27


def test_extracted_states_are_model_reachable():
    # every network state visited by the mesh corresponds to a trajectory of
    # the synchronous model dynamics; on 2x2 the sampled visit set matches
    # the exhaustively enumerated reachable set
    from nucleate.lattice import Mesh
    from support import synchronous_reachable

    model = fidelity_model().system
    reachable = synchronous_reachable(model, Mesh(2, 2))
    visited = set()
    for i in range(2000):
        net = MeshNetwork(model, 2, master_seed=derive_seed(777, i),
                          record_trace=False)
        net.init_round0()
        for _ in range(4):
            net.run_round()
            key = tuple(sorted(net.states.items()))
            assert key in reachable
            visited.add(key)
    assert visited == reachable


def test_static_fast_path_matches_general_path():
    # same model expressed with and without the static-occupant shortcut:
    # the fast side has no rule and an empty message alphabet, and a
    # do-nothing message rule forces the general path.  The nucleating,
    # stochastic runs leave empty cells whose law is forced EMPTY, which
    # the fast path stops re-evaluating until a neighbor enters.
    def variant(rule, seed, **params):
        types = {
            "t": AgentType("t", ("g",) * 4, color=1, rule=rule),
            "u": AgentType("u", ("g", "x", "g", "x"), color=2, rule=rule),
        }
        return AgentModel(
            types=types,
            rules=BindingRules({("g", "g"): 1, ("x", "x"): 1}),
            temperature=1,
            seed=seed,
            messages=() if rule is None else ("p",),
            **params,
        )

    seed = {(2, 2): "t"}
    silent_growth = AgentModel(
        types={"t": AgentType("t", ("g",) * 4, color=1, rule="silence")},
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed=seed,
        kinetics=Kinetics(lambda_on=1.0),
        messages=("p",),
    )
    pairs = [(forced_growth_model(seed=seed), silent_growth, 5, 31, 6)]
    forced = {"kinetics": Kinetics(lambda_on=1.0)}
    pairs.append((variant(None, seed, **forced), variant("silence", seed, **forced),
                  5, 31, 6))
    stochastic = {"pi_nu": 0.2, "kinetics": Kinetics(lambda_on=0.6, epsilon=0.2)}
    for master in (1, 2, 3, 4, 5):
        pairs.append((variant(None, {}, **stochastic),
                      variant("silence", {}, **stochastic), 12, master, 8))
    pruned = 0
    for fast_model, slow_model, side, master, rounds in pairs:
        assert fast_model.messages == ()
        nets = []
        for model in (fast_model, slow_model):
            net = MeshNetwork(model, side, master_seed=master)
            net.init_round0()
            nets.append(net)
        fast, slow = nets
        assert fast._static_occupants and not slow._static_occupants
        for _ in range(rounds):
            evaluated = len(fast._pending)
            fast.run_round()
            slow.run_round()
            # the general path evaluates every processor that hears a pair
            pruned += evaluated < len(slow.inputs)
        assert fast.trace == slow.trace, master
        assert fast.states == slow.states, master
    assert pruned > 0


def test_static_rounds_match_silent_twins_on_random_models():
    # random static models (no detachment, no rules) against twins whose
    # every type runs the do-nothing `silence` rule, which sends them down
    # the general path.  Round by round the two must agree on states, trace,
    # ids and posts, and the static side must hold the inputs the general
    # path delivers to every EMPTY processor with an occupied neighbor (the
    # cells that just entered included), though it re-evaluates fewer.
    import random
    from dataclasses import replace

    from nucleate.lattice import Mesh
    from support import random_agent_model

    rng = random.Random(9009)
    seen = {"k3": 0, "ids": 0, "alphabet": 0, "forced": 0, "stochastic": 0,
            "skipped": 0}
    for trial in range(60):
        k = 2 + trial % 2
        side = 6 if k == 2 else 4
        base = random_agent_model(rng, k=k)
        cells = rng.sample(list(Mesh(k, side).vertices()), rng.randint(0, 3))
        lambda_on = rng.choice((0.5, 1.0))
        epsilon = rng.choice((0.0, 0.2))
        static_model = replace(
            base,
            seed={v: rng.choice(base.type_names) for v in cells},
            pi_nu=rng.choice((0.05, 0.2)),
            kinetics=Kinetics(lambda_on=lambda_on, epsilon=epsilon),
            messages=rng.choice(((), ("p",))),
            use_ids=rng.random() < 0.5,
        )
        twin = replace(
            static_model,
            types={name: replace(t, rule="silence") for name, t in base.types.items()},
            messages=("p",),
        )
        master = rng.getrandbits(64)
        fast = MeshNetwork(static_model, side, master_seed=master)
        slow = MeshNetwork(twin, side, master_seed=master)
        fast.init_round0()
        slow.init_round0()
        assert fast._static_occupants and not slow._static_occupants
        table = neighbor_table(fast.mesh)
        probe = AccessProbe()
        for r in range(1, 9):
            before = set(fast.states)
            evaluated = len(fast._pending)
            fast.run_round(probe=probe)
            slow.run_round()
            assert fast.states == slow.states, (trial, r)
            assert fast.trace == slow.trace, (trial, r)
            assert fast.ids == slow.ids, (trial, r)
            assert fast.outputs == slow.outputs, (trial, r)
            heard = {v for v in table if v not in before
                     and any(w in before for _, w, _ in table[v])}
            assert fast.inputs == {v: slow.inputs[v] for v in heard}, (trial, r)
            seen["skipped"] += evaluated < len(heard)
        assert probe.violations(fast.mesh) == []
        seen["k3"] += k == 3
        seen["ids"] += static_model.use_ids and len(fast.ids) > 1
        seen["alphabet"] += bool(static_model.messages)
        seen["forced"] += lambda_on == 1.0 and epsilon == 0.0
        seen["stochastic"] += lambda_on < 1.0 and epsilon > 0.0
    assert all(seen.values()), seen


def test_general_rounds_match_evaluate_everyone_oracle():
    # random models with detachment or message rules against the oracle
    # that delivers to, and samples, every processor hearing a pair.  Round
    # by round the two must agree on states, trace, ids, posts and held
    # inputs, though the event-driven side evaluates fewer processors.
    import random
    from dataclasses import replace

    from nucleate.lattice import Mesh
    from support import EvaluateEveryoneNetwork, random_agent_model

    rng = random.Random(10010)
    seen = {"k3": 0, "detach": 0, "rules only": 0, "ping": 0, "relay": 0, "tally": 0,
            "ids": 0, "no alphabet": 0, "unforced": 0, "skipped": 0}
    for trial in range(240):
        k = 2 + trial % 2
        side = 6 if k == 2 else 4
        model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
        cells = rng.sample(list(Mesh(k, side).vertices()), rng.randint(0, 3))
        model = replace(
            model,
            seed={v: rng.choice(model.type_names) for v in cells},
            pi_nu=rng.choice((0.05, 0.15, 0.3)),
            use_ids=rng.random() < 0.5,
        )
        if trial % 8 == 0:
            # no rules and an empty alphabet: detachment alone makes it general
            model = replace(
                model,
                types={n: replace(t, rule=None) for n, t in model.types.items()},
                messages=(),
                kinetics=replace(model.kinetics, detach=True, p_off=0.3),
            )
        elif all(t.rule is None for t in model.types.values()):
            name = model.type_names[0]
            types = dict(model.types)
            types[name] = replace(types[name], rule=rng.choice(("ping", "relay", "tally")))
            model = replace(model, types=types)
        master = rng.getrandbits(64)
        fast = MeshNetwork(model, side, master_seed=master)
        oracle = EvaluateEveryoneNetwork(model, side, master_seed=master)
        fast.init_round0()
        oracle.init_round0()
        assert not fast._static_occupants
        table = neighbor_table(fast.mesh)
        probe = AccessProbe()
        for r in range(1, 13):
            evaluated = len(fast._pending.union(
                *({w for _, w, _ in table[v]} for v in fast._posted)))
            fast.run_round(probe=probe)
            oracle.run_round()
            assert fast.states == oracle.states, (trial, r)
            assert fast.trace == oracle.trace, (trial, r)
            assert fast.ids == oracle.ids, (trial, r)
            assert fast.outputs == oracle.outputs, (trial, r)
            assert fast.inputs == oracle.inputs, (trial, r)
            seen["skipped"] += evaluated < len(oracle.inputs)
            seen["unforced"] += bool(fast._pending - set(fast._posted))
        assert probe.violations(fast.mesh) == []
        rules = {t.rule for t in model.types.values()}
        seen["k3"] += k == 3
        seen["detach"] += model.kinetics.detach
        seen["rules only"] += not model.kinetics.detach
        for rule in ("ping", "relay", "tally"):
            seen[rule] += rule in rules
        seen["ids"] += model.use_ids and len(fast.ids) > 1
        seen["no alphabet"] += not model.messages
    assert all(seen.values()), seen


def test_use_ids_rule_posts_per_id_messages():
    # with ids the rule's posts depend on more than its inputs, so two
    # agents of one type with equal inputs must still post their own
    types = {"t": AgentType("t", ("g",) * 4, color=1, rule="parity")}
    model = AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed={(0, 0): "t", (2, 2): "t"},
        kinetics=Kinetics(lambda_on=1.0),
        messages=("e", "o"),
        use_ids=True,
    )
    net = MeshNetwork(model, 3, master_seed=0)
    net.init_round0()
    assert net.processor((0, 0)).outputs == (("g", "e"),) * 4
    assert net.processor((2, 2)).outputs == (("g", "o"),) * 4
    net.run_round()
    for v, my_id in net.ids.items():
        assert net.processor(v).outputs == (("g", "eo"[my_id % 2]),) * 4


def test_nucleation_is_local_to_each_cell():
    # a cell's wake-up and type depend on (seed, coordinates) alone, so a
    # smaller mesh sees exactly the restriction of a larger one
    types = {name: AgentType(name, ("g",) * 4, color=c)
             for name, c in (("a", 1), ("b", 2), ("c", 3))}
    model = AgentModel(types=types, rules=BindingRules({("g", "g"): 1}),
                       temperature=1, pi_nu=0.4)
    small = MeshNetwork(model, 6, master_seed=13)
    small.init_round0()
    large = MeshNetwork(model, 9, master_seed=13)
    large.init_round0()
    assert small.states
    assert len(set(small.states.values())) == 3
    assert small.states == {v: s for v, s in large.states.items() if max(v) < 6}


# -- the model dynamics, step for step ----------------------------------


def test_model_dynamics_match_the_mesh_round_for_round():
    # nucleate + model_step and MeshNetwork are separate codings of one
    # process that share only their keyed draws, so with one seed they
    # must agree exactly: occupancy, ids and posted messages, from round 0
    # on.  Seed cells are listed in reverse order, so ids must follow sorted
    # locations rather than the listing.
    import random
    from dataclasses import replace

    from nucleate.agents import initial_state, model_step, nucleate
    from nucleate.lattice import Mesh
    from support import random_agent_model

    rng = random.Random(6006)
    seen = {"k3": 0, "ids": 0, "detached": 0, "messages": 0}
    for trial in range(300):
        k = 2 + trial % 2
        side = 4 if k == 2 else 3
        model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
        window = Mesh(k, side)
        cells = rng.sample(list(window.vertices()), rng.randint(0, 3))
        model = replace(
            model,
            seed={v: rng.choice(model.type_names) for v in sorted(cells, reverse=True)},
            pi_nu=rng.choice((0.05, 0.15, 0.3)),
            use_ids=rng.random() < 0.5,
        )
        master = rng.getrandbits(64)
        net = MeshNetwork(model, side, master_seed=master)
        net.init_round0()
        state = nucleate(initial_state(model, window), model, master)
        silent = (None,) * model.d
        for r in range(11):
            if r:
                before = set(net.states)
                net.run_round()
                state = model_step(state, model, master)
                seen["detached"] += len(before - set(net.states))
            mesh_side = (net.states, net.ids,
                         {v: tuple(m for _, m in net.outputs[v]) for v in net.states})
            model_side = (state.occupancy, state.ids,
                          {v: state.out_messages.get(v, silent) for v in state.occupancy})
            assert mesh_side == model_side, (trial, r)
            assert set(state.out_messages) <= set(state.occupancy), (trial, r)
            assert state.next_id == net.next_id and state.stage == r
            seen["messages"] += sum(m is not None for ms in mesh_side[2].values() for m in ms)
        seen["k3"] += k == 3
        seen["ids"] += model.use_ids and len(net.ids) > 1
    assert all(seen.values()), seen


# -- the round-0 template -------------------------------------------------


def _round0_view(net):
    """Everything round 0 leaves in a network, as plain copies."""
    return (list(net.states.items()), dict(net.ids), dict(net.outputs),
            dict(net.post_ids), list(net.trace), net.next_id)


def _random_seeded_model(rng, k, side, use_ids):
    from dataclasses import replace

    from support import random_agent_model

    model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
    cells = rng.sample(list(Mesh(k, side).vertices()), rng.randint(0, 3))
    return replace(model, seed={v: rng.choice(model.type_names) for v in cells},
                   pi_nu=rng.choice((0.0, 0.1, 0.3)), use_ids=use_ids)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_ids", [False, True])
def test_round0_template_matches_a_fresh_setup(k, use_ids):
    # a network that starts from the cached template must hold the same
    # round 0 as one built with every shared set-up recomputed
    import random

    import nucleate.meshnet as meshnet

    rng = random.Random(1500 + 10 * k + use_ids)
    side = 5 if k == 2 else 3
    for trial in range(30):
        model = _random_seeded_model(rng, k, side, use_ids)
        master = rng.getrandbits(64)
        MeshNetwork(model, side, master_seed=master + 1).init_round0()  # builds the template
        cached = MeshNetwork(model, side, master_seed=master)
        cached.init_round0()
        meshnet._setup.cache_clear()
        meshnet._round0.cache_clear()
        fresh = MeshNetwork(model, side, master_seed=master)
        fresh.init_round0()
        assert _round0_view(cached) == _round0_view(fresh), trial
        assert [e.coordinates for e in fresh.trace] == sorted(fresh.states), trial


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_ids", [False, True])
def test_running_a_network_leaves_the_template_alone(k, use_ids):
    # the template's dicts are shared: rounds that detach, re-post or
    # enter cells in one network must not show in the next one's round 0
    import random

    rng = random.Random(2500 + 10 * k + use_ids)
    side = 5 if k == 2 else 3
    for trial in range(30):
        model = _random_seeded_model(rng, k, side, use_ids)
        master = rng.getrandbits(64)
        first = MeshNetwork(model, side, master_seed=master)
        first.init_round0()
        start = _round0_view(first)
        first.run(6)
        again = MeshNetwork(model, side, master_seed=master)
        again.init_round0()
        assert _round0_view(again) == start, trial


def test_seed_outside_mesh_raises_in_init_round0_every_time():
    model = forced_growth_model(seed={(0, 0): "t", (3, 1): "t"})
    for _ in range(2):
        net = MeshNetwork(model, 3)  # construction never reads the seed
        with pytest.raises(ValueError, match=r"seed location \(3, 1\) lies outside the mesh"):
            net.init_round0()
