"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import functools
import random
import time

from nucleate.agents import TransitionLaw, embed_tile_system
from nucleate.coloring import Coloring, check_weak_coloring, find_monochromatic_plus
from nucleate.engine import check_local_determinism, run, terminal_assemblies_equal
from nucleate.experiment import ExperimentSpec, run_experiment, run_fidelity
from nucleate.formats import mesh_trace_text
from nucleate.lattice import Mesh
from nucleate.meshnet import AccessProbe, MeshNetwork
from nucleate.systems import checkerboard_tileset, fidelity_model, nucleation_family
from nucleate.tiles import BindingGraph, binding_strength
from support import (
    attachable_at,
    brute_frontier,
    exhaustive_binding_strength,
    random_agent_model,
    random_configuration,
    random_law_input,
    random_tile_set,
    reachable_by_engine,
    reachable_by_sequential_model,
)


def criterion(number, budget_seconds, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} PASS - {description} "
                  f"({elapsed:.1f}s / budget {budget_seconds}s)")
            assert elapsed <= budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
        return wrapper
    return decorate


def surface_coloring(result, system, window):
    colors = {v: system.tiles[n].color for v, n in result.configuration.items()}
    return Coloring(colors, window, system.colors)


@criterion(1, 10, "seven-type checkerboard anchor: 16x16, 256 stages, "
                  "valid plus-free coloring, 100 identical runs")
def test_criterion_1_checkerboard_anchor():
    named = checkerboard_tileset()
    system = named.system
    assert len(system.tiles) == 7
    window = Mesh(2, 16)

    canonical = None
    first = None
    for seed in range(100):
        result = run(system, window, master_seed=seed)
        assert result.terminal
        assert result.stages == 256
        assert len(result.configuration) == 256
        blob = "\n".join(
            f"{v[0]},{v[1]} {name}" for v, name in sorted(result.configuration.items())
        ).encode()
        if canonical is None:
            canonical, first = blob, result
            coloring = surface_coloring(result, system, window)
            report = check_weak_coloring(coloring)
            assert report.valid and report.violation_count == 0
            assert find_monochromatic_plus(coloring) == []
        else:
            assert blob == canonical
            assert terminal_assemblies_equal(first, result)
        assert check_local_determinism(result.sequence).passed


@criterion(2, 60, "definitional oracles: frontier sums and exhaustive min cuts")
def test_criterion_2_definitional_oracles():
    rng = random.Random(20_02)
    window = Mesh(2, 4)
    for _ in range(1000):
        tiles = random_tile_set(rng)
        cfg = random_configuration(rng, tiles, window, fill=rng.uniform(0.1, 0.7))
        temperature = rng.randint(1, 3)
        for t in tiles.values():
            assert attachable_at(cfg, tiles, temperature, t) == \
                brute_frontier(cfg, tiles, temperature, t, window)

    for i in range(500):
        n = rng.randint(2, 10)
        vertices = [(j, 0) for j in range(n)]
        edges = {}
        order = vertices[:]
        rng.shuffle(order)
        for j in range(1, n):  # random spanning tree keeps the graph connected
            a, b = order[j], order[rng.randrange(j)]
            edges[(a, b) if a <= b else (b, a)] = rng.randint(1, 5)
        for a in vertices:
            for b in vertices:
                if a < b and rng.random() < 0.25:
                    edges.setdefault((a, b), rng.randint(1, 5))
        graph = BindingGraph(frozenset(vertices), edges)
        assert binding_strength(graph) == exhaustive_binding_strength(graph), i


@criterion(3, 10, "transition-law normalization on 10^4 tuples over 20 random models")
def test_criterion_3_normalization():
    rng = random.Random(30_03)
    for m in range(20):
        model = random_agent_model(rng)
        law = TransitionLaw(model)
        for _ in range(500):
            occupant, glues, messages = random_law_input(rng, model)
            dist = law.distribution(occupant, glues, messages)
            total = sum(dist.values())
            assert abs(total - 1.0) <= 1e-9, (m, occupant, glues, total)
            assert all(p >= 0.0 for p in dist.values())


@criterion(4, 120, "mesh-vs-model one-round fidelity at 10^5 samples on 3x3")
def test_criterion_4_simulation_fidelity():
    model = fidelity_model().system
    kin = model.kinetics
    assert (kin.lambda_on, kin.p_off, kin.epsilon, model.temperature) == (0.5, 0.2, 0.1, 1)
    assert len(model.types) == 2
    report = run_fidelity(model, 3, 100_000, master_seed=404)
    assert report.supports_equal, (report.support_exact, report.support_mesh,
                                   report.support_model)
    assert report.tv_mesh_vs_model <= 0.02, report.tv_mesh_vs_model
    assert report.tv_mesh_vs_exact <= 0.02
    assert report.tv_model_vs_exact <= 0.02


@criterion(5, 300, "nucleation cannot weakly color within a constant budget; "
                   "the seeded checkerboard always can")
def test_criterion_5_nucleation_scaling():
    model = nucleation_family(0.1, "checkerboard-local").system
    spec = ExperimentSpec(model, (8, 16, 32, 64), rounds=10, trials=200,
                          master_seed=505)
    result = run_experiment(spec)
    p_hats = [o.p_hat for o in result.outcomes]
    assert all(a >= b for a, b in zip(p_hats, p_hats[1:])), p_hats
    assert p_hats[-1] <= 0.05, p_hats

    system = checkerboard_tileset().system
    for n in (8, 16, 32, 64):
        window = Mesh(2, n)
        for seed in range(3):
            r = run(system, window, master_seed=seed, max_stages=n * n)
            assert r.terminal and len(r.configuration) == n * n
            coloring = surface_coloring(r, system, window)
            assert check_weak_coloring(coloring).valid


@criterion(6, 60, "seeded determinism, locality probe, and message bounds")
def test_criterion_6_determinism_and_locality():
    model = nucleation_family(0.1, "checkerboard-local").system
    traces = []
    for _ in range(2):
        net = MeshNetwork(model, 16, master_seed=606)
        net.init_round0()
        net.run(10)
        traces.append(mesh_trace_text(net.trace, "model", 606).encode())
    assert traces[0] == traces[1]

    probe = AccessProbe()
    net = MeshNetwork(model, 16, master_seed=607, record_trace=False)
    net.init_round0()
    net.run(10, probe=probe)
    assert probe.reads
    assert probe.violations(net.mesh) == []

    # a message-emitting model: every posted payload stays within the
    # declared finite sets (the round loop asserts this as it posts)
    from nucleate.agents import AgentModel, AgentType, BindingRules, Kinetics
    noisy = AgentModel(
        types={"t": AgentType("t", ("g",) * 4, color=1, rule="ping")},
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed={(0, 0): "t"},
        kinetics=Kinetics(lambda_on=1.0),
        messages=("p",),
    )
    net = MeshNetwork(noisy, 8, master_seed=608)
    net.init_round0()
    net.run(10)
    labels = noisy.glue_labels
    for pairs in net.outputs.values():
        for glue, msg in pairs:
            assert glue is None or glue in labels
            assert msg is None or msg in noisy.messages


@criterion(7, 60, "embedded tile system reaches exactly the engine's "
                  "configurations on all windows up to 3x3")
def test_criterion_7_embedding_soundness():
    system = checkerboard_tileset().system
    model = embed_tile_system(system)
    for side in (1, 2, 3):
        window = Mesh(2, side)
        engine_set = reachable_by_engine(system, window)
        model_set = reachable_by_sequential_model(model, window)
        assert engine_set == model_set, side
        assert tuple(sorted(system.seed.cells().items())) in engine_set
