import json

import pytest

from nucleate.coloring import Coloring, check_weak_coloring, find_monochromatic_plus
from nucleate.engine import check_local_determinism, run, terminal_assemblies_equal
from nucleate.formats import agent_model_document, load_agent_model
from nucleate.lattice import Mesh
from nucleate.meshnet import MeshNetwork
from nucleate.systems import checkerboard_tileset, nucleation_family, shipped_model_path


def surface_coloring(result, system, window):
    colors = {v: system.tiles[n].color for v, n in result.configuration.items()}
    return Coloring(colors, window, system.colors)


def test_exactly_seven_tile_types():
    assert len(checkerboard_tileset().system.tiles) == 7


def test_manifest_properties_hold():
    named = checkerboard_tileset()
    system = named.system
    window = Mesh(2, 8)
    results = [run(system, window, master_seed=s) for s in range(3)]
    checks = {
        "tile-types-7": lambda: len(system.tiles) == 7,
        "locally-deterministic": lambda: all(
            check_local_determinism(r.sequence).passed for r in results),
        "unique-terminal-assembly": lambda: all(
            terminal_assemblies_equal(results[0], r) for r in results),
        "weak-coloring-valid": lambda: all(
            check_weak_coloring(surface_coloring(r, system, window)).valid
            for r in results),
        "plus-free": lambda: all(
            find_monochromatic_plus(surface_coloring(r, system, window)) == []
            for r in results),
    }
    assert set(named.manifest) == set(checks)
    for name in named.manifest:
        assert checks[name](), f"manifest property {name} failed"


def test_checkerboard_deterministic_on_50_random_sequences():
    system = checkerboard_tileset().system
    window = Mesh(2, 16)
    for s in range(50):
        result = run(system, window, master_seed=1000 + s)
        assert result.terminal
        report = check_local_determinism(result.sequence)
        assert report.passed, (s, report.message)


def test_nucleation_family_rejects_unknown_rule():
    with pytest.raises(ValueError):
        nucleation_family(0.1, "mystery-rule")


def test_nucleation_family_zero_probability_never_fills():
    model = nucleation_family(0.0, "checkerboard-local").system
    net = MeshNetwork(model, 4, master_seed=3)
    net.init_round0()
    net.run(10)
    assert net.states == {}


def test_nucleation_family_single_vertex_always_valid():
    model = nucleation_family(1.0, "checkerboard-local").system
    for seed in range(20):
        net = MeshNetwork(model, 1, master_seed=seed)
        net.init_round0()
        report = check_weak_coloring(net.coloring())
        assert len(net.states) == 1 and report.valid


def test_nucleation_family_sometimes_fails_at_8():
    model = nucleation_family(0.1, "checkerboard-local").system
    successes = 0
    trials = 30
    for t in range(trials):
        net = MeshNetwork(model, 8, master_seed=5000 + t, record_trace=False)
        net.init_round0()
        net.run(10)
        if len(net.states) == 64 and check_weak_coloring(net.coloring()).valid:
            successes += 1
    assert successes < trials


def test_nucleation_family_validates_and_roundtrips():
    named = nucleation_family(0.1, "checkerboard-local")
    doc = agent_model_document(named.system, name="checkerboard-local")
    model, _ = load_agent_model(doc)
    assert model.pi_nu == 0.1
    assert model.rules == named.system.rules


def test_shipped_checkerboard_local_file_current():
    named = nucleation_family(0.3, "checkerboard-local")
    on_disk = json.loads(shipped_model_path("checkerboard_local").read_text())
    assert on_disk["pi_nu"] == 0.1
    doc = agent_model_document(named.system, name="checkerboard-local")
    assert doc == on_disk | {"pi_nu": 0.3}


def test_shipped_model_path_unknown():
    with pytest.raises(KeyError):
        shipped_model_path("nonexistent")
