import pytest

from nucleate.agents import (AgentModel, AgentType, BindingRules, Kinetics,
                             MessageBoundError, RuleOutput, initial_state,
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


def test_detachment_at_p_off_zero_is_not_live():
    # detachment switched on at p_off 0 can never happen: its law is forced,
    # so the run matches its detach-off twin draw for draw, no occupant is
    # kept pending, and the occupants of types without a rule are inert, so
    # no round evaluates one
    from dataclasses import replace

    from nucleate.systems import nucleation_family

    model = nucleation_family(0.1, "checkerboard-local").system
    assert not model.kinetics.detach
    twin = replace(model, kinetics=replace(model.kinetics, detach=True, p_off=0.0))
    assert twin.law.inert == model.law.inert == {"dark", "light"}
    assert twin.law.distribution("dark", ("c1",) + (None,) * 3, (None,) * 4) == {"dark": 1.0}
    off, on = (MeshNetwork(m, 32, master_seed=3) for m in (model, twin))
    for net in (off, on):
        net.init_round0()
    readers = 0
    for r in range(1, 10):
        occupied = set(on.states)
        probe = AccessProbe()
        off.run_round()
        on.run_round(probe=probe)
        assert on.trace == off.trace and on.states == off.states, r
        assert on._pending == off._pending == set(), r
        assert {reader for reader, _ in probe.reads}.isdisjoint(occupied), r
        readers += len(probe.reads)
    assert readers and on.trace[-1].round > 1  # the rounds evaluated and attached cells


def test_identical_seeds_give_identical_traces():
    model = fidelity_model().system
    runs = []
    for _ in range(2):
        net = MeshNetwork(model, 3, master_seed=99)
        net.init_round0()
        net.run(6)
        runs.append(net.trace)
    assert runs[0] == runs[1]


def churning_ping_model():
    """Two ping-rule types that attach, detach and err: every round changes
    some cells' posts."""
    types = {
        "a": AgentType("a", ("g", "h", "g", "h"), color=1, rule="ping"),
        "b": AgentType("b", ("h", "g", "h", "g"), color=2, rule="ping"),
    }
    return AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1, ("h", "h"): 2, ("g", "h"): -1}),
        temperature=2,
        pi_nu=0.3,
        kinetics=Kinetics(lambda_on=0.5, detach=True, p_off=0.3, epsilon=0.2),
        messages=("p",),
    )


def test_round_is_independent_of_evaluation_order():
    # Recompute each round from snapshots of the delivered inputs and the
    # prior states, visiting targets in shuffled order with each target's
    # own derived draw: the outcome must match run_round's sorted sweep.
    import random

    from nucleate.rng import uniform

    model = churning_ping_model()
    law = model.law
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


def test_coloring_reads_the_occupant_colors():
    model = forced_growth_model(seed={(0, 0): "t"})
    net = MeshNetwork(model, 3, master_seed=1)
    net.init_round0()
    assert net.states == {(0, 0): "t"}
    assert net.coloring().assignment == {(0, 0): 1}
    net.run(4)
    coloring = net.coloring()
    assert len(net.states) == 9 and coloring.assignment == dict.fromkeys(net.states, 1)
    assert coloring.mesh is net.mesh and coloring.c == model.colors
    assert check_weak_coloring(coloring).violation_count == 9  # monochrome fill


def test_empty_network_extraction():
    net = MeshNetwork(forced_growth_model(), 3)
    net.init_round0()
    assert net.states == {} and net.coloring().assignment == {}


def test_locality_probe_finds_no_violations():
    model = embed_tile_system(checkerboard_tileset().system)
    net = MeshNetwork(model, 8, master_seed=2, record_trace=False)
    net.init_round0()
    probe = AccessProbe()
    net.run(10, probe=probe)
    assert probe.reads, "probe saw no reads at all"
    assert probe.violations(net.mesh) == []


def _inert_types(model: AgentModel) -> set:
    """The types whose occupants can neither detach nor change their
    posts: every type without a rule, when no occupant can detach
    (detachment off, or on at p_off 0)."""
    if model.kinetics.detach and model.kinetics.p_off > 0:
        return set()
    return {name for name, t in model.types.items() if t.rule is None}


def _is_static(model: AgentModel) -> bool:
    """No detachment and no rules: every occupant is inert."""
    return _inert_types(model) == set(model.types)


def _next_evaluated(net: MeshNetwork) -> set:
    """The processors net's next round evaluates: the pending ones and the
    neighbors of the cells whose posts changed last round, less the inert
    occupants and the processors that hear no pair."""
    mesh, inert = net.mesh, _inert_types(net.model)
    near = set(net._pending).union(*map(mesh.neighbors, net._posted))
    return {v for v in near if net.states.get(v) not in inert
            and any(w in net.post_ids for w in mesh.neighbors(v))}


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
    from dataclasses import replace

    rng = random.Random(1414 + k + 2 * static)
    side = 6 if k == 2 else 4
    neighbor_reads = 0
    for trial in range(18):
        model = _regime_model(rng, k, static)
        if trial >= 12:
            # round 0 wakes nobody: round 1 reads the plan's target list
            model = replace(model, pi_nu=0.0)
        net = MeshNetwork(model, side, master_seed=rng.getrandbits(64))
        net.init_round0()
        assert _is_static(net.model) == static
        woke = net.states != model.seed
        assert trial < 12 or not woke, trial
        mesh = net.mesh
        for r in range(1, 9):
            posting = set(net.post_ids)
            evaluated = _next_evaluated(net)
            expected = {(v, v) for v in evaluated} | {
                (v, w) for v in evaluated for w in mesh.neighbors(v) if w in posting}
            probe = AccessProbe()
            net.run_round(probe=probe)
            assert set(probe.reads) == expected, (trial, r)
            assert len(probe.reads) == len(expected), (trial, r)
            if r == 1 and not woke:  # round 1 evaluates the plan's targets
                assert evaluated == set(net._plan.round1[0]), trial
            neighbor_reads += len(expected) - len(evaluated)
    assert neighbor_reads > 0


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
    assert net.inputs[(1, 0)][0] == ("g", "p")
    assert net.outputs[(1, 0)][0] == ("g", "p")
    assert net.states[(1, 0)] == "t" and net.coloring().assignment[(1, 0)] == 1


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
    law = model.law
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
    silent = (None,) * 4
    assert net.states[(0, 0)] == "amber" and net.coloring().assignment[(0, 0)] == 1
    assert net.inputs.get((0, 0), silent) == silent  # nothing delivered before round 1
    assert len(net.outputs[(0, 0)]) == 4
    assert net.outputs[(0, 0)][1] == ("g", None)  # posts its glue northward
    assert net.states.get((2, 2)) is None and (2, 2) not in net.coloring().assignment
    assert net.outputs.get((2, 2), silent) == silent
    # the posts are kept as post ids only; `outputs` is read from them
    law = net.law
    assert net.outputs == {v: law.pairs_of[pid] for v, pid in net.post_ids.items()}
    assert set(net.outputs) == set(net.states)
    with pytest.raises(AttributeError):
        net.outputs = {}


def test_processor_views_read_one_row_of_post_ids():
    # a lookup reads v's 2k neighbors' post ids, never the whole map: with
    # every whole-map read of post_ids sealed, inputs[v] gives what it
    # gave before, for every vertex
    class Sealed(dict):
        def _sealed(self, *args):
            raise AssertionError("read the whole post_ids map")
        __iter__ = keys = items = values = copy = _sealed

    net = MeshNetwork(churning_ping_model(), 6, master_seed=41)
    net.init_round0()
    net.run(5)
    assert net._posted  # the last round changed some posts

    def views():
        inputs = net.inputs
        return {v: inputs[v] if v in inputs else None for v in net.mesh.vertices()}

    before = views()
    assert sum(buffers is not None for buffers in before.values()) > 1
    net.post_ids = Sealed(net.post_ids)
    assert views() == before
    with pytest.raises(KeyError):
        net.inputs[(6, 0)]  # off the mesh


def test_a_held_input_view_follows_its_network():
    # `inputs` is a live view, like dict.keys(): one held across rounds
    # always shows the last round; dict(net.inputs) takes a snapshot
    net = MeshNetwork(churning_ping_model(), 6, master_seed=41)
    net.init_round0()
    held = net.inputs
    assert len(held) == 0 and list(held) == []  # nothing delivered before round 1
    changed = 0
    for r in range(1, 7):
        snapshot = dict(held)
        net.run_round()
        fresh = net.inputs
        assert held == fresh and dict(held) == dict(fresh), r
        assert len(held) == len(fresh) and list(held) == sorted(fresh), r
        changed += snapshot != dict(held)
    assert changed


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
    # same model expressed with and without inert occupants: the fast side
    # has no rule and an empty message alphabet, so no round evaluates its
    # occupants, and a do-nothing message rule makes the slow side's
    # occupants live.  The nucleating, stochastic runs leave empty cells
    # whose law is forced EMPTY, which neither side re-evaluates until a
    # neighbor enters.
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
        assert _is_static(fast_model) and not _is_static(slow_model)
        for _ in range(rounds):
            evaluated = len(_next_evaluated(fast))
            fast.run_round()
            slow.run_round()
            # against every processor that hears a pair
            pruned += evaluated < len(slow.inputs)
        assert fast.trace == slow.trace, master
        assert fast.states == slow.states, master
    assert pruned > 0


def test_static_and_general_regimes_report_the_same_input_buffers():
    # a full static mesh and its silent-rule twin: every processor hears
    # the pairs its neighbors posted at the start of the last round, though
    # the static side evaluates no occupant
    from dataclasses import replace

    model = forced_growth_model(seed={(1, 1): "t"})
    twin = replace(model, types={"t": replace(model.types["t"], rule="silence")},
                   messages=("p",))
    nets = []
    for m in (model, twin):
        net = MeshNetwork(m, 3, master_seed=0)
        net.init_round0()
        net.run(3)
        nets.append(net)
    static, general = nets
    assert len(static.states) == 9
    assert static.inputs[(1, 1)] == (("g", None),) * 4
    assert static.inputs == general.inputs
    assert len(static.inputs) == 9


def test_static_rounds_match_silent_twins_on_random_models():
    # random static models (no detachment, no rules) against twins whose
    # every type runs the do-nothing `silence` rule, so that none of their
    # occupants is inert.  Round by round the two must agree on states,
    # trace, ids, posts and input buffers, though the static side
    # re-evaluates fewer processors.  An untraced copy of the static side,
    # which walks its targets unsorted unless ids are on, must agree too.
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
        untraced = MeshNetwork(static_model, side, master_seed=master, record_trace=False)
        for net in (fast, slow, untraced):
            net.init_round0()
        assert _is_static(static_model) and not _is_static(twin)
        table = neighbor_table(fast.mesh)
        probe = AccessProbe()
        for r in range(1, 9):
            before = set(fast.states)
            evaluated = len(_next_evaluated(fast))
            fast.run_round(probe=probe)
            slow.run_round()
            untraced.run_round()
            _assert_same_rounds(untraced, fast, (trial, r))
            assert fast.states == slow.states, (trial, r)
            assert fast.trace == slow.trace, (trial, r)
            assert fast.ids == slow.ids, (trial, r)
            assert fast.outputs == slow.outputs, (trial, r)
            heard = {v for v in table if v not in before
                     and any(w in before for _, w, _ in table[v])}
            assert fast.inputs == slow.inputs, (trial, r)
            seen["skipped"] += evaluated < len(heard)
        assert probe.violations(fast.mesh) == []
        seen["k3"] += k == 3
        seen["ids"] += static_model.use_ids and len(fast.ids) > 1
        seen["alphabet"] += bool(static_model.messages)
        seen["forced"] += lambda_on == 1.0 and epsilon == 0.0
        seen["stochastic"] += lambda_on < 1.0 and epsilon > 0.0
    assert all(seen.values()), seen


def _assert_same_rounds(untraced: MeshNetwork, traced: MeshNetwork, where) -> None:
    """An untraced network agrees with its traced twin on states, ids,
    posts and delivered inputs."""
    assert untraced.trace is None
    assert untraced.states == traced.states, where
    assert untraced.ids == traced.ids, where
    assert untraced.outputs == traced.outputs, where
    assert dict(untraced.inputs) == dict(traced.inputs), where


def _match_evaluate_everyone_oracle(model, side: int, master: int, seen: dict,
                                    tag) -> MeshNetwork:
    """Run `model` for 12 rounds on the event-driven mesh and on the oracle
    that delivers to, and samples, every processor hearing a pair; round by
    round the two must agree on states, trace, ids, posts and delivered
    inputs, and an untraced copy of the mesh, which walks its targets
    unsorted unless ids are on, must agree with it.  The mesh's input
    buffers are also looked up one processor at a time, for the
    processors that heard no pair each round, and for every processor in
    the last round.  Counts in `seen` the rounds where the mesh skipped a
    processor the oracle evaluated, and those that left an unforced cell
    pending.  Returns the event-driven network."""
    from support import EvaluateEveryoneNetwork

    fast = MeshNetwork(model, side, master_seed=master)
    oracle = EvaluateEveryoneNetwork(model, side, master_seed=master)
    untraced = MeshNetwork(model, side, master_seed=master, record_trace=False)
    for net in (fast, oracle, untraced):
        net.init_round0()
    probe = AccessProbe()
    silent = (None,) * model.d
    for r in range(1, 13):
        evaluated = len(_next_evaluated(fast))
        fast.run_round(probe=probe)
        oracle.run_round()
        untraced.run_round()
        _assert_same_rounds(untraced, fast, (tag, r))
        assert fast.states == oracle.states, (tag, r)
        assert fast.trace == oracle.trace, (tag, r)
        assert fast.ids == oracle.ids, (tag, r)
        assert fast.outputs == oracle.pairs, (tag, r)
        delivered = oracle.delivered
        assert fast.inputs == delivered, (tag, r)
        # the comparison above covers every processor that heard a pair
        for v in fast.mesh.vertices():
            if r == 12 or v not in delivered:
                assert fast.inputs.get(v, silent) == delivered.get(v, silent), (tag, r, v)
        seen["skipped"] += evaluated < len(oracle.delivered)
        seen["unforced"] += bool(fast._pending - set(fast._posted))
    assert probe.violations(fast.mesh) == []
    seen["ids"] += model.use_ids and len(fast.ids) > 1
    return fast


def test_evaluate_everyone_views_show_its_rounds():
    # the oracle's inherited views read the post ids it rebuilds from its
    # own pairs each round, so they show its last round, not round 0
    from support import EvaluateEveryoneNetwork

    model = churning_ping_model()
    fast = MeshNetwork(model, 6, master_seed=41)
    oracle = EvaluateEveryoneNetwork(model, 6, master_seed=41)
    fast.init_round0()
    oracle.init_round0()
    for r in range(1, 7):
        fast.run_round()
        oracle.run_round()
        assert dict(oracle.inputs) == oracle.delivered, r
        assert oracle.outputs == oracle.pairs, r
        assert oracle.states == fast.states, r
        assert oracle.outputs == fast.outputs, r
        assert dict(oracle.inputs) == dict(fast.inputs), r


def test_general_rounds_match_evaluate_everyone_oracle():
    # random models with detachment or message rules, then random static
    # models (no detachment, no rules), against the evaluate-everyone
    # oracle: the event-driven side evaluates fewer processors, and skips
    # every inert occupant, yet must match it round for round
    import random
    from dataclasses import replace

    from nucleate.lattice import Mesh
    from support import random_agent_model

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
        assert not _is_static(model)
        _match_evaluate_everyone_oracle(model, side, rng.getrandbits(64), seen, trial)
        rules = {t.rule for t in model.types.values()}
        seen["k3"] += k == 3
        seen["detach"] += model.kinetics.detach
        seen["rules only"] += not model.kinetics.detach
        for rule in ("ping", "relay", "tally"):
            seen[rule] += rule in rules
        seen["no alphabet"] += not model.messages
    assert all(seen.values()), seen

    rng = random.Random(10011)
    seen = {"k3": 0, "ids": 0, "alphabet": 0, "forced": 0, "stochastic": 0,
            "unforced": 0, "skipped": 0}
    for trial in range(60):
        k = 2 + trial % 2
        side = 6 if k == 2 else 4
        model = random_agent_model(rng, k=k)
        cells = rng.sample(list(Mesh(k, side).vertices()), rng.randint(0, 3))
        lambda_on = rng.choice((0.5, 1.0))
        epsilon = rng.choice((0.0, 0.2))
        model = replace(
            model,
            seed={v: rng.choice(model.type_names) for v in cells},
            pi_nu=rng.choice((0.05, 0.2)),
            kinetics=Kinetics(lambda_on=lambda_on, epsilon=epsilon),
            messages=rng.choice(((), ("p",))),
            use_ids=rng.random() < 0.5,
        )
        assert _is_static(model)
        _match_evaluate_everyone_oracle(model, side, rng.getrandbits(64), seen,
                                        ("static", trial))
        seen["k3"] += k == 3
        seen["alphabet"] += bool(model.messages)
        seen["forced"] += lambda_on == 1.0 and epsilon == 0.0
        seen["stochastic"] += lambda_on < 1.0 and epsilon > 0.0
    assert all(seen.values()), seen


@pytest.mark.parametrize("k", [2, 3])
def test_round1_template_matches_evaluate_everyone_oracle(k):
    # seeded networks whose round 0 woke nobody take round 1's targets and
    # keys from the plan (`Plan.round1`); they must still match the oracle
    # round for round.  At pi_nu > 0 only master seeds under which no cell
    # outside the seed wakes are run.
    import random
    from dataclasses import replace

    from nucleate.rng import uniform
    from support import random_agent_model

    rng = random.Random(10012 + k)
    side = 6 if k == 2 else 4
    vertices = list(Mesh(k, side).vertices())
    seen = {"pi_nu 0": 0, "pi_nu > 0": 0, "ids": 0, "no ids": 0, "detach": 0,
            "no detach": 0, "inert seed": 0, "unforced": 0, "skipped": 0}
    for trial in range(24):
        model = random_agent_model(rng, k=k, message_rules=("ping", "relay", "tally"))
        cells = rng.sample(vertices, rng.randint(1, 3))
        model = replace(model, seed={v: rng.choice(model.type_names) for v in cells},
                        pi_nu=rng.choice((0.0, 0.01, 0.03)), use_ids=rng.random() < 0.5)
        master = rng.getrandbits(64)
        while any(uniform(master, v, 0) < model.pi_nu for v in vertices if v not in cells):
            master = rng.getrandbits(64)
        net = MeshNetwork(model, side, master_seed=master)
        net.init_round0()
        assert net.states == model.seed, trial  # round 0 woke nobody
        probe = AccessProbe()
        net.run_round(probe=probe)
        # round 1 evaluates exactly the plan's round-1 targets
        assert {reader for reader, _ in probe.reads} == set(net._plan.round1[0]), trial
        _match_evaluate_everyone_oracle(model, side, master, seen, ("template", trial))
        seen["pi_nu 0"] += model.pi_nu == 0
        seen["pi_nu > 0"] += model.pi_nu > 0
        seen["no ids"] += not model.use_ids
        seen["detach"] += model.kinetics.detach
        seen["no detach"] += not model.kinetics.detach
        seen["inert seed"] += any(name in model.law.inert for name in model.seed.values())
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
    assert net.outputs[(0, 0)] == (("g", "e"),) * 4
    assert net.outputs[(2, 2)] == (("g", "o"),) * 4
    net.run_round()
    assert net.outputs == {v: (("g", "eo"[my_id % 2]),) * 4 for v, my_id in net.ids.items()}


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
            outputs = net.outputs
            mesh_side = (net.states, net.ids,
                         {v: tuple(m for _, m in outputs[v]) for v in net.states})
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


def _round1_view(plan):
    """The plan's round-1 targets, keys and entries, as plain copies."""
    targets, keys, entries = plan.round1
    return list(targets), [list(key) for key in keys], [list(entry) for entry in entries]


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

    rng = random.Random(1500 + 10 * k + use_ids)
    side = 5 if k == 2 else 3
    for trial in range(30):
        model = _random_seeded_model(rng, k, side, use_ids)
        master = rng.getrandbits(64)
        MeshNetwork(model, side, master_seed=master + 1).init_round0()  # builds the template
        cached = MeshNetwork(model, side, master_seed=master)
        cached.init_round0()
        model.law.plans.clear()
        fresh = MeshNetwork(model, side, master_seed=master)
        fresh.init_round0()
        assert _round0_view(cached) == _round0_view(fresh), trial
        assert [e.coordinates for e in fresh.trace] == sorted(fresh.states), trial


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_ids", [False, True])
def test_running_a_network_leaves_the_template_alone(k, use_ids):
    # the template's dicts and the round-1 list are shared: rounds that
    # detach, re-post or enter cells in one network must not show in the
    # next one's round 0 or in the plan's round-1 targets, keys and entries
    import random

    rng = random.Random(2500 + 10 * k + use_ids)
    side = 5 if k == 2 else 3
    for trial in range(30):
        model = _random_seeded_model(rng, k, side, use_ids)
        master = rng.getrandbits(64)
        first = MeshNetwork(model, side, master_seed=master)
        first.init_round0()
        start = _round0_view(first)
        start1 = _round1_view(first._plan)
        first.run(6)
        again = MeshNetwork(model, side, master_seed=master)
        again.init_round0()
        assert _round0_view(again) == start, trial
        assert _round1_view(again._plan) == start1, trial


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("use_ids", [False, True])
def test_plan_round1_entries_are_fresh_law_lookups(k, use_ids):
    # the plan's round-1 entry at a target is its seed occupant (None off
    # the seed) and that occupant's law entry at the target's key; it must
    # equal a fresh, unmemoized `lookup` at the inputs the target hears,
    # read both from the key and, without post ids, from the seed's
    # round-0 posts
    import random

    from nucleate.agents import initial_state
    from support import heard_inputs

    rng = random.Random(3500 + 10 * k + use_ids)
    side = 5 if k == 2 else 3
    table = neighbor_table(Mesh(k, side))
    seen = {"ruled": 0, "detach": 0, "forced": 0, "unforced": 0, "occupied target": 0}
    for trial in range(40):
        model = _random_seeded_model(rng, k, side, use_ids)
        law = model.law
        targets, keys, entries = law.plan(side).round1
        assert len(keys) == len(entries) == len(targets), trial
        start = initial_state(model, Mesh(k, side))
        for v, key, (old, new, cdf) in zip(targets, keys, entries):
            assert old == model.seed.get(v), (trial, v)
            assert (new, cdf) == law.lookup(old, *law.heard(key)), (trial, v)
            heard = heard_inputs(model, table, v, start.occupancy, start.out_messages)
            assert (new, cdf) == law.lookup(old, *heard), (trial, v)
            seen["forced" if cdf is None else "unforced"] += 1
            seen["occupied target"] += old is not None
        seen["ruled"] += bool(targets) and bool(law.ruled)
        seen["detach"] += bool(targets) and model.kinetics.detach
    assert all(seen.values()), seen


def test_a_network_at_pi_nu_zero_never_runs_the_wake_up_kernel(monkeypatch):
    # round 0 can wake a cell only at pi_nu > 0, so a network at pi_nu = 0
    # never calls `nucleation_sites`; one at pi_nu > 0 calls it once
    from dataclasses import replace

    from nucleate.meshnet import nucleation_sites as real

    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("nucleate.meshnet.nucleation_sites", counting)
    base = forced_growth_model(seed={(1, 1): "t"})
    for pi_nu, expected in ((0.0, 0), (0.3, 1)):
        calls.clear()
        net = MeshNetwork(replace(base, pi_nu=pi_nu), 5, master_seed=8)
        net.init_round0()
        assert (net.states != {(1, 1): "t"}) == (pi_nu > 0), pi_nu  # cells woke
        net.run(3)
        assert len(calls) == expected, pi_nu


def test_a_round_builds_its_drawer_at_its_first_unforced_law(monkeypatch):
    # checkerboard-local's laws are all forced, so its rounds build no
    # drawer; fidelity2's round 1 draws, and builds exactly one
    from nucleate.formats import load_agent_model
    from nucleate.meshnet import drawer as real
    from nucleate.systems import shipped_model_path

    rounds = []

    def counting(master, keys, r):
        rounds.append(r)
        return real(master, keys, r)

    monkeypatch.setattr("nucleate.meshnet.drawer", counting)
    local, _ = load_agent_model(shipped_model_path("checkerboard_local"))
    net = MeshNetwork(local, 8, master_seed=3)
    net.init_round0()
    net.run(5)
    assert any(event.round > 0 for event in net.trace)  # the rounds changed cells
    assert rounds == []
    fidelity, _ = load_agent_model(shipped_model_path("fidelity2"))
    net = MeshNetwork(fidelity, 3, master_seed=3, record_trace=False)
    net.init_round0()
    net.run_round()
    assert rounds == [1]


def test_seed_outside_mesh_raises_in_init_round0_every_time():
    model = forced_growth_model(seed={(0, 0): "t", (3, 1): "t"})
    for _ in range(2):
        net = MeshNetwork(model, 3)  # construction never reads the seed
        with pytest.raises(ValueError, match=r"seed location \(3, 1\) lies outside the mesh"):
            net.init_round0()


def test_a_dropped_model_frees_its_law_and_plans():
    # a model's law and plans hang off the model, so no module-level cache
    # keeps a model alive once its callers drop it
    import gc
    import weakref
    from dataclasses import replace

    from nucleate.agents import validate_model

    base = forced_growth_model(seed={(1, 1): "t"})
    ping = {"t": AgentType("t", ("g",) * 4, color=1, rule="ping")}
    variants = ({},  # static regime: no detachment, no rule
                {"kinetics": Kinetics(lambda_on=0.5, detach=True, p_off=0.3)},
                {"types": ping, "messages": ("p",)})
    refs = []
    for i in range(21):
        model = replace(base, pi_nu=0.1 * (i % 4), **variants[i % 3])
        net = MeshNetwork(model, 4, master_seed=i)
        net.init_round0()
        net.run(3)
        assert _is_static(model) == (i % 3 == 0)
        state = nucleate(initial_state(model, Mesh(2, 4)), model, i)
        state = model_step(state, model, i)
        assert validate_model(model) == []
        refs += [weakref.ref(model), weakref.ref(net.law)]
        del model, net, state
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_occupants_stay_in_the_light_cone_of_round_0():
    # the paper's locality lemma: a cell that hears nothing idles, so at
    # round t every occupant lies within graph distance t of a round-0
    # occupant (seed or nucleus), on the mesh and in the model dynamics
    import random
    from dataclasses import replace

    from support import graph_distances, random_agent_model

    rng = random.Random(2718)
    seen = {"k2": 0, "k3": 0, "detach": 0, "no detach": 0, "relay": 0, "tally": 0,
            "ids": 0, "no ids": 0, "seeds and nuclei": 0, "edge reached": 0,
            "beyond": 0}
    for trial in range(48):
        k = 2 + trial % 2
        side = 9 if k == 2 else 5
        window = Mesh(k, side)
        model = random_agent_model(rng, k=k, message_rules=("relay", "tally"))
        cells = rng.sample(list(window.vertices()), rng.randint(0, 2))
        model = replace(model, seed={v: rng.choice(model.type_names) for v in cells},
                        pi_nu=rng.choice((0.0, 0.02, 0.05)), use_ids=trial % 4 < 2)
        master = rng.getrandbits(64)
        net = MeshNetwork(model, side, master_seed=master, record_trace=False)
        net.init_round0()
        state = nucleate(initial_state(model, window), model, master)
        dist = {"mesh": graph_distances(neighbor_table(window), net.states),
                "model": graph_distances(neighbor_table(window), state.occupancy)}
        for t in range(9):
            if t:
                net.run_round()
                state = model_step(state, model, master)
            for side_name, occupied in (("mesh", net.states), ("model", state.occupancy)):
                cone = dist[side_name]
                outside = [v for v in occupied if cone.get(v, t + 1) > t]
                assert outside == [], (trial, side_name, t, outside)
                seen["edge reached"] += t > 0 and any(cone[v] == t for v in occupied)
                seen["beyond"] += len(cone) > 0 and max(cone.values()) > t
        seen[f"k{k}"] += 1
        seen["detach" if model.kinetics.detach else "no detach"] += 1
        rules = {t.rule for t in model.types.values()}
        seen["relay"] += "relay" in rules
        seen["tally"] += "tally" in rules
        seen["ids" if model.use_ids else "no ids"] += 1
        seen["seeds and nuclei"] += bool(model.seed) and model.pi_nu > 0
    assert all(seen.values()), seen
