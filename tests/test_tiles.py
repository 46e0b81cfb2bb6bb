import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from nucleate.formats import tile_system_warnings
from nucleate.lattice import Mesh, around
from nucleate.tiles import (
    AttachableTypes,
    BindingGraph,
    Configuration,
    Glue,
    TileAssemblySystem,
    attachments,
    binding_strength,
    build_binding_graph,
    cut_strength,
    is_tau_stable,
    tile,
)
from support import attachable_at, brute_frontier, exhaustive_binding_strength, \
    literal_attachment_sum, literal_bond_sides, random_configuration, random_tile_set

E = ("", 0)


def pair_config(west_tile, east_tile):
    return Configuration({(0, 0): west_tile.name, (1, 0): east_tile.name})


def test_matching_pair_binds():
    a = tile("a", 1, E, E, ("a", 2), E)
    b = tile("b", 1, ("a", 2), E, E, E)
    g = build_binding_graph(pair_config(a, b), {"a": a, "b": b})
    assert len(g.edges) == 1
    assert g.strength((0, 0), (1, 0)) == 2


def test_strength_mismatch_does_not_bind():
    a = tile("a", 1, E, E, ("a", 2), E)
    b = tile("b", 1, ("a", 1), E, E, E)
    g = build_binding_graph(pair_config(a, b), {"a": a, "b": b})
    assert len(g.edges) == 0


def test_block_binds_in_cycle():
    # 2x2 block, every abutting glue pair matches at strength 1: by hand the
    # adjacent pairs are (0,0)-(1,0), (0,0)-(0,1), (1,0)-(1,1), (0,1)-(1,1)
    t = tile("t", 1, ("h", 1), ("v", 1), ("h", 1), ("v", 1))
    cfg = Configuration({(0, 0): "t", (1, 0): "t", (0, 1): "t", (1, 1): "t"})
    g = build_binding_graph(cfg, {"t": t})
    assert set(g.edges) == {
        ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1)),
    }
    assert all(s == 1 for s in g.edges.values())


def test_edge_symmetry_is_orientation_free():
    rng = random.Random(5)
    for _ in range(50):
        tiles = random_tile_set(rng)
        cfg = random_configuration(rng, tiles, Mesh(2, 3))
        g = build_binding_graph(cfg, tiles)
        for (u, v), s in g.edges.items():
            assert g.strength(v, u) == s


def test_unresolved_tile_name():
    cfg = Configuration({(0, 0): "ghost"})
    with pytest.raises(KeyError):
        build_binding_graph(cfg, {})


def test_cut_strength_single_edge():
    g = BindingGraph(frozenset({(0, 0), (1, 0)}), {((0, 0), (1, 0)): 3})
    assert cut_strength(g, ({(0, 0)}, {(1, 0)})) == 3


def test_cut_strength_cycle_isolating_vertex():
    vs = [(0, 0), (1, 0), (1, 1), (0, 1)]
    edges = {((0, 0), (1, 0)): 1, ((1, 0), (1, 1)): 1, ((0, 1), (1, 1)): 1, ((0, 0), (0, 1)): 1}
    g = BindingGraph(frozenset(vs), edges)
    assert cut_strength(g, ({(0, 0)}, set(vs) - {(0, 0)})) == 2


def test_cut_strength_no_crossing_edges():
    g = BindingGraph(frozenset({(0, 0), (5, 5)}), {})
    assert cut_strength(g, ({(0, 0)}, {(5, 5)})) == 0


def test_cut_strength_rejects_bad_partition():
    g = BindingGraph(frozenset({(0, 0), (1, 0)}), {})
    with pytest.raises(ValueError):
        cut_strength(g, ({(0, 0)}, set()))
    with pytest.raises(ValueError):
        cut_strength(g, ({(0, 0)}, {(0, 0), (1, 0)}))


def test_binding_strength_trivial_graphs():
    assert binding_strength(BindingGraph(frozenset(), {})) == math.inf
    assert binding_strength(BindingGraph(frozenset({(0, 0)}), {})) == math.inf


def test_binding_strength_path():
    g = BindingGraph(
        frozenset({(0, 0), (1, 0), (2, 0)}),
        {((0, 0), (1, 0)): 2, ((1, 0), (2, 0)): 5},
    )
    assert binding_strength(g) == 2


def test_binding_strength_cycle():
    # 4-cycle of unit strengths: enumerating all 7 nontrivial cuts gives 2
    vs = [(0, 0), (1, 0), (1, 1), (0, 1)]
    edges = {((0, 0), (1, 0)): 1, ((1, 0), (1, 1)): 1, ((0, 1), (1, 1)): 1, ((0, 0), (0, 1)): 1}
    g = BindingGraph(frozenset(vs), edges)
    assert exhaustive_binding_strength(g) == 2
    assert binding_strength(g) == 2


def test_binding_strength_matches_exhaustive_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 8)
        vs = [(i, 0) for i in range(n)]
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges[(vs[i], vs[j])] = rng.randint(1, 5)
        g = BindingGraph(frozenset(vs), edges)
        assert binding_strength(g) == exhaustive_binding_strength(g)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=7))
def test_binding_strength_of_path_is_weakest_edge(strengths):
    vs = [(i, 0) for i in range(len(strengths) + 1)]
    edges = {(vs[i], vs[i + 1]): s for i, s in enumerate(strengths)}
    g = BindingGraph(frozenset(vs), edges)
    assert binding_strength(g) == min(strengths)


def test_stability_examples():
    t = tile("t", 1, ("g", 2), E, ("g", 2), E)
    tiles = {"t": t}
    assert is_tau_stable(Configuration({}), tiles, 2)
    diagonal = Configuration({(0, 0): "t", (1, 1): "t"})
    assert not is_tau_stable(diagonal, tiles, 1)
    row = Configuration({(0, 0): "t", (1, 0): "t", (2, 0): "t"})
    assert is_tau_stable(row, tiles, 2)


def test_frontier_single_glue():
    seed = tile("seed", 1, E, E, ("g", 1), E)
    t = tile("t", 1, ("g", 1), E, E, E)
    tiles = {"seed": seed, "t": t}
    cfg = Configuration({(0, 0): "seed"})
    assert attachable_at(cfg, tiles, 1, t) == {(1, 0)}
    assert attachable_at(cfg, tiles, 2, t) == set()


def test_frontier_cooperative_corner():
    # two placed tiles each offer strength 1 toward the corner between them;
    # by hand the sum at (1, 1) is 1 + 1 = 2
    west = tile("west", 1, E, E, ("h", 1), E)     # at (0, 1), offers east
    south = tile("south", 1, E, ("v", 1), E, E)   # at (1, 0), offers north
    t = tile("t", 1, ("h", 1), E, E, ("v", 1))
    tiles = {"west": west, "south": south, "t": t}
    cfg = Configuration({(0, 1): "west", (1, 0): "south"})
    assert literal_attachment_sum(cfg, tiles, t, (1, 1)) == 2
    assert attachable_at(cfg, tiles, 2, t) == {(1, 1)}
    assert attachable_at(cfg, tiles, 3, t) == set()


def test_frontier_matches_brute_force():
    rng = random.Random(23)
    window = Mesh(2, 4)
    for _ in range(150):
        tiles = random_tile_set(rng)
        cfg = random_configuration(rng, tiles, window)
        temperature = rng.randint(1, 3)
        for t in tiles.values():
            assert attachable_at(cfg, tiles, temperature, t) == \
                brute_frontier(cfg, tiles, temperature, t, window)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 4),
       st.floats(0.1, 0.9))
def test_name_keyed_attachability_matches_the_literal_sums(seed, k, temperature, fill):
    # one label at strengths 1 and 2 and at strength 0: Glue equality needs
    # both label and strength, and strength 0 never binds
    rng = random.Random(seed)
    tiles = random_tile_set(rng, n_types=4, labels=("a", "b"), k=k)
    for name, strength in (("a1", 1), ("a2", 2), ("a0", 0)):
        tiles[name] = tile(name, 1, *[("a", strength)] * (2 * k))
    window = Mesh(k, 5 if k == 2 else 3)
    cfg = random_configuration(rng, tiles, window, fill)
    attachable = AttachableTypes(tiles, temperature)
    offered = {name: set() for name in tiles}
    for v in window.vertices():
        key = tuple(map(cfg.get, around(v)))
        for name, t in tiles.items():
            total, sides = attachable.bond(name, key)
            assert total == literal_attachment_sum(cfg, tiles, t, v)
            assert sides == literal_bond_sides(cfg, tiles, t, v)
        if v not in cfg:
            names = attachable.names(key)
            assert names == tuple(name for name, t in tiles.items()
                                  if literal_attachment_sum(cfg, tiles, t, v) >= temperature)
            for name in names:
                offered[name].add(v)
    for name, t in tiles.items():
        assert offered[name] == attachable_at(cfg, tiles, temperature, t) \
            == brute_frontier(cfg, tiles, temperature, t, window)


def test_frontier_never_overlaps_domain():
    rng = random.Random(31)
    for _ in range(40):
        tiles = random_tile_set(rng)
        cfg = random_configuration(rng, tiles, Mesh(2, 4))
        assert set(attachments(cfg, tiles, 1)).isdisjoint(cfg.domain)


def test_frontier_monotone_in_temperature():
    rng = random.Random(37)
    for _ in range(40):
        tiles = random_tile_set(rng)
        cfg = random_configuration(rng, tiles, Mesh(2, 4))
        f1 = set(attachments(cfg, tiles, 1))
        f2 = set(attachments(cfg, tiles, 2))
        f3 = set(attachments(cfg, tiles, 3))
        assert f3 <= f2 <= f1


def test_single_tile_extension_preserves_stability():
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        tiles = random_tile_set(rng)
        cfg = random_configuration(rng, tiles, Mesh(2, 4), fill=0.3)
        temperature = rng.randint(1, 2)
        if not is_tau_stable(cfg, tiles, temperature):
            continue
        opts = attachments(cfg, tiles, temperature)
        for v, names in opts.items():
            assert is_tau_stable(cfg.with_tile(v, names[0]), tiles, temperature)
        checked += 1


def test_frontier_at_temperature_zero_needs_window():
    t = tile("t", 1, E, E, E, E)
    cfg = Configuration({(0, 0): "t"})
    with pytest.raises(ValueError):
        attachable_at(cfg, {"t": t}, 0, t)
    windowed = Configuration({(0, 0): "t"}, Mesh(2, 2))
    assert attachable_at(windowed, {"t": t}, 0, t) == {(0, 1), (1, 0), (1, 1)}


def test_system_validation():
    t = tile("t", 1, ("g", 1), E, ("g", 1), E)
    with pytest.raises(ValueError):
        TileAssemblySystem({"t": t}, Configuration({(0, 0): "other"}), 1)
    disconnected = Configuration({(0, 0): "t", (2, 0): "t"})
    with pytest.raises(ValueError):
        TileAssemblySystem({"t": t}, disconnected, 1)


def test_temperature_zero_is_a_diagnostic_not_a_python_warning():
    t = tile("t", 1, E, E, E, E)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system = TileAssemblySystem({"t": t}, Configuration({(0, 0): "t"}), 0)
    assert caught == []
    assert [(d.severity, d.code, d.path) for d in tile_system_warnings(system)] == [
        ("warning", "temperature-zero", "temperature")]


def test_configuration_window_enforced():
    with pytest.raises(ValueError):
        Configuration({(5, 5): "t"}, Mesh(2, 3))
    with pytest.raises(ValueError):
        Configuration({(0, 0): "t"}).with_tile((0, 0), "u")


def test_glue_rejects_negative_strength():
    with pytest.raises(ValueError):
        Glue("g", -1)


def test_three_dimensional_tiles():
    E3 = [E] * 6
    up = tile("up", 1, *E3[:5], ("z", 2))      # glue on its up side
    down = tile("down", 2, *E3[:4], ("z", 2), E)  # glue on its down side
    tiles = {"up": up, "down": down}
    cfg = Configuration({(0, 0, 0): "up", (0, 0, 1): "down"})
    g = build_binding_graph(cfg, tiles)
    assert g.strength((0, 0, 0), (0, 0, 1)) == 2
    seed_only = Configuration({(0, 0, 0): "up"})
    assert attachable_at(seed_only, tiles, 2, down) == {(0, 0, 1)}
    assert is_tau_stable(cfg, tiles, 2)
