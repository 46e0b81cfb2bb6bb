import pytest

from nucleate.agents import AgentModel, AgentType, BindingRules, Kinetics
from nucleate.coloring import check_weak_coloring
from nucleate.meshnet import AccessProbe, MeshNetwork, MessageBoundError
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
    # own derived stream: the outcome must match run_round's sorted sweep.
    import random

    from nucleate.agents import law_for
    from nucleate.rng import derived_rng

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
            new = law.sample(before.get(v), glues, msgs, derived_rng(seed, v, r))
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


def test_message_bound_is_enforced():
    from nucleate.agents import RuleOutput, register_rule

    @register_rule("loud")
    def loud(agent, glues, messages, my_id=None):
        return RuleOutput(("offalphabet",) * len(glues))

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
    # a do-nothing message rule forces the general path
    from nucleate.agents import RuleOutput, register_rule

    @register_rule("silence")
    def silence(agent, glues, messages, my_id=None):
        return RuleOutput((None,) * len(glues))

    seed = {(2, 2): "t"}
    fast = forced_growth_model(seed=seed)
    slow_types = {"t": AgentType("t", ("g",) * 4, color=1, rule="silence")}
    slow = AgentModel(
        types=slow_types,
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed=seed,
        kinetics=Kinetics(lambda_on=1.0),
        messages=("p",),
    )
    nets = []
    for model in (fast, slow):
        net = MeshNetwork(model, 5, master_seed=31)
        net.init_round0()
        net.run(6)
        nets.append(net)
    assert nets[0].trace == nets[1].trace
    assert nets[0].states == nets[1].states
