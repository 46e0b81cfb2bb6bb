import dataclasses
import pickle
import random

import pytest
from scipy import stats

from nucleate.engine import (
    Addition,
    AssemblySequence,
    check_local_determinism,
    run,
    step,
    terminal_assemblies_equal,
)
from nucleate.lattice import Mesh
from nucleate.systems import checkerboard_tileset
from nucleate.tiles import Configuration, TileAssemblySystem, attachments, is_tau_stable, tile

from support import random_tile_set

E = ("", 0)


def single_glue_system(n_competitors=1, temperature=2):
    """Seed offering one strength-2 east glue; competitors share the same
    single west glue, so any second type breaks determinism."""
    tiles = {"seed": tile("seed", 1, E, E, ("g", 2), E)}
    for i in range(n_competitors):
        name = f"t{i}"
        tiles[name] = tile(name, 2, ("g", 2), E, E, E)
    return TileAssemblySystem(tiles, Configuration({(0, 0): "seed"}), temperature)


def test_step_terminal_on_empty_frontier():
    system = single_glue_system(n_competitors=0)
    assert step(system.seed, system, random.Random(0)) is None


def test_step_single_option_is_forced():
    system = single_glue_system(n_competitors=1)
    for s in range(5):
        cfg, (v, name) = step(system.seed, system, random.Random(s))
        assert (v, name) == ((1, 0), "t0")
        assert cfg.get((1, 0)) == "t0"


def test_step_two_options_are_uniform():
    system = single_glue_system(n_competitors=2)
    rng = random.Random(99)
    counts = {"t0": 0, "t1": 0}
    trials = 10_000
    for _ in range(trials):
        _, (_, name) = step(system.seed, system, rng)
        counts[name] += 1
    assert abs(counts["t0"] / trials - 0.5) <= 0.02


def test_step_choice_is_uniform_chi_square():
    # three legal (location, type) pairs: two types on the shared east glue
    # plus one on the north glue
    tiles = {
        "seed": tile("seed", 1, E, ("h", 2), ("g", 2), E),
        "a": tile("a", 2, ("g", 2), E, E, E),
        "b": tile("b", 2, ("g", 2), E, E, E),
        "c": tile("c", 2, E, E, E, ("h", 2)),
    }
    system = TileAssemblySystem(tiles, Configuration({(0, 0): "seed"}), 2)
    rng = random.Random(7)
    counts = {}
    trials = 100_000
    for _ in range(trials):
        _, pick = step(system.seed, system, rng)
        counts[pick] = counts.get(pick, 0) + 1
    assert len(counts) == 3
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue > 0.01


def test_run_seed_only_is_terminal():
    system = single_glue_system(n_competitors=0)
    result = run(system, Mesh(2, 4), master_seed=1)
    assert result.terminal
    assert result.stages == 1
    assert len(result.sequence.additions) == 0
    assert result.configuration == system.seed


def test_run_checkerboard_fills_window():
    system = checkerboard_tileset().system
    result = run(system, Mesh(2, 8), master_seed=5)
    assert result.terminal
    assert len(result.configuration) == 64
    assert result.stages == 64


def test_run_respects_stage_budget():
    system = checkerboard_tileset().system
    result = run(system, Mesh(2, 8), master_seed=5, max_stages=5)
    assert not result.terminal
    assert len(result.sequence.additions) == 5


def test_run_windowless_uses_stage_budget():
    system = checkerboard_tileset().system
    result = run(system, None, max_stages=3)
    assert len(result.sequence.additions) == 3
    assert not result.terminal


def test_run_rejects_seed_outside_window():
    tiles = {"seed": tile("seed", 1, E, E, E, E)}
    system = TileAssemblySystem(tiles, Configuration({(2, 2): "seed"}), 1)
    with pytest.raises(ValueError):
        run(system, Mesh(2, 2))


def test_intermediate_configurations_stay_stable():
    system = checkerboard_tileset().system
    result = run(system, Mesh(2, 5), master_seed=3)
    cells = system.seed.cells()
    for i, a in enumerate(result.sequence.additions):
        cells[a.location] = a.tile
        if i % 5 == 0:
            assert is_tau_stable(Configuration(cells), system.tiles, system.temperature)


def test_sequence_replay_validates_stages():
    system = checkerboard_tileset().system
    result = run(system, Mesh(2, 4), master_seed=2)
    seq = result.sequence
    assert check_local_determinism(seq).passed
    # tamper: retarget an addition to a detached location
    bad = list(seq.additions)
    bad[3] = type(bad[3])(bad[3].stage, (3, 3), bad[3].tile)
    with pytest.raises(ValueError):
        check_local_determinism(AssemblySequence(system, seq.window, tuple(bad)))


def test_sequence_rejects_duplicates_and_stage_order():
    system = checkerboard_tileset().system
    result = run(system, Mesh(2, 3), master_seed=2)
    a = result.sequence.additions[0]
    with pytest.raises(ValueError):
        AssemblySequence(system, result.sequence.window, (a, a))


def test_local_determinism_passes_on_checkerboard():
    system = checkerboard_tileset().system
    for seed in range(5):
        result = run(system, Mesh(2, 6), master_seed=seed)
        report = check_local_determinism(result.sequence)
        assert report.passed, report.message


def test_local_determinism_fails_on_shared_glue():
    # two distinct types share the same single strength-tau west glue: the
    # first added tile's location admits the other type as well
    system = single_glue_system(n_competitors=2)
    result = run(system, Mesh(2, 2), master_seed=0)
    report = check_local_determinism(result.sequence)
    assert not report.passed
    assert report.failed_condition == 2
    location, competitor = report.witness
    assert location == (1, 0)
    assert competitor in ("t0", "t1")


def test_local_determinism_fails_on_overbinding():
    # L-shaped seed; the tile at (1, 0) binds with west 2 + south 1 = 3 > tau
    tiles = {
        "s1": tile("s1", 1, E, E, ("g", 2), ("a", 2)),
        "s2": tile("s2", 1, E, ("a", 2), ("b", 2), E),
        "s3": tile("s3", 1, ("b", 2), ("v", 1), E, E),
        "t": tile("t", 2, ("g", 2), E, E, ("v", 1)),
    }
    seed = Configuration({(0, 0): "s1", (0, -1): "s2", (1, -1): "s3"})
    system = TileAssemblySystem(tiles, seed, 2)
    result = run(system, None, master_seed=1, max_stages=4)
    assert [a.location for a in result.sequence.additions] == [(1, 0)]
    report = check_local_determinism(result.sequence)
    assert not report.passed
    assert report.failed_condition == 1
    assert report.witness == ((1, 0), "t")


def test_local_determinism_flags_nonterminal_result():
    system = checkerboard_tileset().system
    partial = run(system, Mesh(2, 4), master_seed=1, max_stages=6)
    report = check_local_determinism(partial.sequence)
    assert not report.passed
    assert report.failed_condition == 3


def test_seed_only_empty_frontier_passes():
    system = single_glue_system(n_competitors=0)
    result = run(system, Mesh(2, 3), master_seed=0)
    assert check_local_determinism(result.sequence).passed


def test_terminal_assemblies_equal():
    system = checkerboard_tileset().system
    a = run(system, Mesh(2, 4), master_seed=10)
    b = run(system, Mesh(2, 4), master_seed=77)
    assert terminal_assemblies_equal(a, b)
    assert terminal_assemblies_equal(a, a)
    partial = run(system, Mesh(2, 4), master_seed=1, max_stages=2)
    with pytest.raises(ValueError):
        terminal_assemblies_equal(a, partial)


def test_unique_terminal_assembly_across_seeds():
    system = checkerboard_tileset().system
    results = [run(system, Mesh(2, 4), master_seed=s) for s in range(10)]
    for r in results[1:]:
        assert terminal_assemblies_equal(results[0], r)


def _stepped(system, window, seed, budget):
    """Reference run: repeated `step` calls from the seed, each recomputing
    the full attachment map, until terminal or until the budget is spent.
    Also reports whether some stage offered several names at one cell."""
    cfg = Configuration(system.seed.cells(), window, system.k)
    rng = random.Random(seed)
    picks, several = [], False
    while len(picks) < budget:
        options = attachments(cfg, system.tiles, system.temperature)
        several = several or any(len(names) > 1 for names in options.values())
        nxt = step(cfg, system, rng)
        if nxt is None:
            return picks, True, several
        cfg, pick = nxt
        picks.append(pick)
    return picks, not attachments(cfg, system.tiles, system.temperature), several


@pytest.mark.filterwarnings("ignore:temperature 0")
@pytest.mark.parametrize("k, temperature, side, max_stages", [
    (2, 0, 4, None),
    (2, 1, 6, None),
    (2, 2, 6, None),
    (3, 0, 2, None),
    (3, 1, 3, None),
    (3, 2, 3, None),
    (2, 1, None, 40),
])
def test_run_draws_what_repeated_step_draws(k, temperature, side, max_stages):
    # one glue label makes bonds depend on strength alone: random tile sets
    # then grow far and often offer several names per cell, names that a
    # neighbor's placement changes, so the pair list sees every kind of update
    window = Mesh(k, side) if side is not None else None
    budget = max_stages if max_stages is not None else window.size + 1
    several = 0
    for s in range(20):
        rng = random.Random(100 * k + 10 * temperature + s)
        tiles = random_tile_set(rng, n_types=8, labels=("g",), k=k)
        system = TileAssemblySystem(tiles, Configuration({(1,) * k: "t0"}), temperature)
        result = run(system, window, max_stages=max_stages, rng=random.Random(s))
        picks, terminal, offered = _stepped(system, window, s, budget)
        assert [(a.location, a.tile) for a in result.sequence.additions] == picks
        assert result.terminal == terminal
        several += offered
    assert several > 0


def test_addition_is_a_slotted_value():
    a = Addition(3, (1, 2), "t")
    assert not hasattr(a, "__dict__")
    assert a == Addition(3, (1, 2), "t") and hash(a) == hash(Addition(3, (1, 2), "t"))
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.stage = 4
    seq = run(checkerboard_tileset().system, Mesh(2, 4), master_seed=3).sequence
    assert pickle.loads(pickle.dumps(seq)).additions == seq.additions
