"""Property tests of the model and coloring loaders.

Documents written from generated models and systems load back to equal
objects, and mutated documents -- a key dropped, a value retyped, a key or
element injected -- load or fail with a coded `FormatError`, never with any
other exception.
"""

import json
import math

from hypothesis import given, settings, strategies as st

import support  # noqa: F401  (registers the "relay" and "tally" message rules)
from nucleate.agents import MAX_SYMBOL_LENGTH, AgentModel, AgentType, BindingRules, Kinetics
from nucleate.formats import (
    FormatError,
    agent_model_document,
    coloring_document,
    load_agent_model,
    load_coloring,
    load_tile_system,
    tile_system_document,
)
from nucleate.lattice import Mesh
from nucleate.systems import shipped_model_path
from nucleate.tiles import (
    Configuration,
    Glue,
    TileAssemblySystem,
    TileType,
    binding_strength,
    build_binding_graph,
)

NAMES = st.text(st.characters(blacklist_categories=("Cs", "Zs", "Cc")), min_size=1,
                max_size=4).filter(lambda s: not any(c.isspace() for c in s))
LABELS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


def _json(doc: dict) -> dict:
    """The document as a file would hold it."""
    return json.loads(json.dumps(doc))


@st.composite
def tile_systems(draw):
    k = draw(st.sampled_from([2, 3]))
    glue = st.builds(Glue, LABELS, st.integers(0, 3))
    tiles = {}
    for name in draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)):
        glues = tuple(draw(st.lists(glue, min_size=2 * k, max_size=2 * k)))
        tiles[name] = TileType(name, glues, draw(st.integers(1, 3)))
    cells = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * k),
                                 st.sampled_from(sorted(tiles)), min_size=1, max_size=4))
    seed = Configuration(cells, k=k)
    strength = binding_strength(build_binding_graph(seed, tiles))
    if strength < 1:  # only a one-tile seed is stable then
        seed = Configuration(dict([next(seed.items())]), k=k)
        strength = math.inf
    temperature = draw(st.integers(1, min(3, strength)))
    return TileAssemblySystem(tiles, seed, temperature)


@st.composite
def agent_models(draw):
    k = draw(st.sampled_from([2, 3]))
    labels = draw(st.lists(LABELS.filter(bool), min_size=1, max_size=4, unique=True))
    side = st.none() | st.sampled_from(labels)
    types = {}
    for name in draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)):
        glues = tuple(draw(st.lists(side, min_size=2 * k, max_size=2 * k)))
        rule = draw(st.sampled_from([None, "relay", "tally"]))
        types[name] = AgentType(name, glues, draw(st.integers(1, 3)), rule)
    carried = sorted({g for t in types.values() for g in t.glues if g is not None})
    rules = {}
    if carried:
        pair = st.tuples(st.sampled_from(carried), st.sampled_from(carried)).map(
            lambda p: tuple(sorted(p)))
        rules = draw(st.dictionaries(pair, st.integers(-2, 3), max_size=4))
    seed = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * k),
                                st.sampled_from(sorted(types)), max_size=3))
    kinetics = Kinetics(
        lambda_on=draw(st.floats(0, 1, exclude_min=True)),
        detach=draw(st.booleans()),
        p_off=draw(st.floats(0, 1, exclude_max=True)),
        epsilon=draw(st.floats(0, 1, exclude_max=True)),
    )
    messages = draw(st.lists(st.text(min_size=1, max_size=MAX_SYMBOL_LENGTH),
                             max_size=3, unique=True))
    return AgentModel(types=types, rules=BindingRules(rules),
                      temperature=draw(st.integers(0, 3)), seed=seed,
                      pi_nu=draw(st.floats(0, 1)), kinetics=kinetics,
                      messages=tuple(messages), use_ids=draw(st.booleans()), k=k)


@settings(max_examples=50, deadline=None)
@given(tile_systems())
def test_tile_system_documents_round_trip(system):
    doc = _json(tile_system_document(system))
    loaded, _ = load_tile_system(doc)
    assert loaded == system
    assert tile_system_document(loaded) == doc


@settings(max_examples=50, deadline=None)
@given(agent_models())
def test_agent_model_documents_round_trip(model):
    doc = _json(agent_model_document(model))
    loaded, _ = load_agent_model(doc)
    for attr in ("types", "rules", "temperature", "seed", "pi_nu", "kinetics",
                 "messages", "use_ids", "k"):
        assert getattr(loaded, attr) == getattr(model, attr), attr
    assert agent_model_document(loaded) == doc


# -- mutation fuzzing ----------------------------------------------------


def _shipped(name: str) -> dict:
    return json.loads(shipped_model_path(name).read_text())


#: Keys the loaders know, so injected keys are mostly ones they look at.
KEYS = st.sampled_from([
    "name", "tiles", "temperature", "seed", "glues", "color", "label", "strength",
    "north", "east", "south", "west", "up", "down", "x", "y", "z", "tile", "agent",
    "agents", "rules", "rule", "a", "b", "pi_nu", "kinetics", "lambda_on", "p_off",
    "epsilon", "detach", "messages", "use_ids", "k", "side", "c", "colors",
    "0,0", "1,0", "0,0,0",
]) | st.text(max_size=4)

#: JSON scalars; integers beyond float range once escaped the real-field
#: reader as an OverflowError.
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from([2 ** 1100, -2 ** 1100, "", "x", "g", "0,0", "-1,2", "relay"])
           | st.text(max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(KEYS, inner, max_size=3), max_leaves=6)


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def _mutate(data, doc: dict) -> dict:
    """One to three drops, retypes or injections anywhere in a copy of doc."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(_containers(doc, [])))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = data.draw(st.sampled_from(["drop", "retype", "inject"]))
        if op in ("drop", "retype") and keys:
            key = data.draw(st.sampled_from(keys))
            if op == "drop":
                del node[key]
            else:
                node[key] = data.draw(VALUES)
        elif isinstance(node, dict):
            node[data.draw(KEYS)] = data.draw(VALUES)
        else:
            node.insert(data.draw(st.integers(0, len(node))), data.draw(VALUES))
    return doc


def _loads_or_fails_coded(load, doc):
    try:
        load(doc)
    except FormatError as e:
        assert e.diagnostics and all(d.code for d in e.diagnostics)


TILE_BASES = st.sampled_from([_shipped("tstar")]) | tile_systems().map(tile_system_document)
AGENT_BASES = (st.sampled_from([_shipped("fidelity2"), _shipped("checkerboard_local")])
               | agent_models().map(agent_model_document))
COLORING_BASES = st.sampled_from([
    coloring_document({(0, 0): 1, (0, 1): 2, (1, 0): 2}, Mesh(2, 2), 2),
    coloring_document({(0, 0, 1): 1, (1, 1, 1): 3}, Mesh(3, 2), 3),
])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_tile_systems_load_or_fail_coded(data):
    _loads_or_fails_coded(load_tile_system, _mutate(data, data.draw(TILE_BASES)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_agent_models_load_or_fail_coded(data):
    _loads_or_fails_coded(load_agent_model, _mutate(data, data.draw(AGENT_BASES)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_colorings_load_or_fail_coded(data):
    _loads_or_fails_coded(load_coloring, _mutate(data, data.draw(COLORING_BASES)))
