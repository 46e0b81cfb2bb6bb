import json

import pytest

from nucleate.engine import run
from nucleate.formats import (
    FormatError,
    agent_model_document,
    ascii_snapshot,
    assembly_trace_text,
    canonical_json,
    coloring_document,
    content_hash,
    detect_kind,
    lint_document,
    load_agent_model,
    load_coloring,
    load_tile_system,
    mesh_trace_text,
    parse_assembly_trace,
    parse_mesh_trace,
    tile_system_document,
    write_ppm,
)
from nucleate.lattice import Mesh
from nucleate.meshnet import MeshNetwork, TraceEvent
from nucleate.systems import checkerboard_tileset, fidelity_model, shipped_model_path


def test_content_hash_ignores_key_order():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert content_hash(a) == content_hash(b)
    assert canonical_json(a) == canonical_json(b)


def test_tile_system_roundtrip():
    named = checkerboard_tileset()
    doc = tile_system_document(named.system, name=named.identifier)
    system, _ = load_tile_system(doc)
    assert tile_system_document(system, name=named.identifier) == doc


def test_agent_model_roundtrip():
    named = fidelity_model()
    doc = agent_model_document(named.system, name=named.identifier)
    model, _ = load_agent_model(doc)
    assert agent_model_document(model, name=named.identifier) == doc


def test_unknown_keys_rejected():
    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["extra"] = True
    with pytest.raises(FormatError) as err:
        load_tile_system(doc)
    assert any(d.code == "unknown-key" for d in err.value.diagnostics)

    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["tiles"][0]["glues"]["northeast"] = {"label": "x", "strength": 1}
    with pytest.raises(FormatError):
        load_tile_system(doc)

    doc = json.loads(shipped_model_path("fidelity2").read_text())
    doc["kinetics"]["boil"] = 1
    with pytest.raises(FormatError):
        load_agent_model(doc)


@pytest.mark.parametrize("field, value", [
    (("kinetics", "detach"), "false"),
    (("kinetics", "detach"), 0),
    ((None, "use_ids"), "no"),
    ((None, "use_ids"), 1),
])
def test_agent_model_flags_must_be_json_booleans(field, value):
    doc = json.loads(shipped_model_path("fidelity2").read_text())
    section, key = field
    (doc[section] if section else doc)[key] = value
    with pytest.raises(FormatError) as err:
        load_agent_model(doc)
    assert [d.code for d in err.value.diagnostics] == ["bad-boolean"]


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("model, path", [
    ("tstar", ("temperature",)),
    ("tstar", ("tiles", 0, "glues", "east", "strength")),
    ("tstar", ("tiles", 0, "color")),
    ("tstar", ("seed", 0, "x")),
    ("fidelity2", ("temperature",)),
    ("fidelity2", ("rules", 0, "strength")),
    ("fidelity2", ("agents", 0, "color")),
    ("fidelity2", ("seed", 0, "y")),
])
@pytest.mark.parametrize("value", [1.9, 1.0, True, "1"])
def test_integer_fields_must_be_json_integers(model, path, value):
    doc = json.loads(shipped_model_path(model).read_text())
    _set(doc, path, value)
    load = load_tile_system if model == "tstar" else load_agent_model
    with pytest.raises(FormatError) as err:
        load(doc)
    assert [d.code for d in err.value.diagnostics] == ["bad-integer"]


@pytest.mark.parametrize("path", [
    ("pi_nu",),
    ("kinetics", "lambda_on"),
    ("kinetics", "p_off"),
    ("kinetics", "epsilon"),
])
@pytest.mark.parametrize("value", ["0.1", True, None,
                                   pytest.param(10 ** 400, id="beyond-float")])
def test_real_fields_must_be_json_numbers(path, value):
    doc = json.loads(shipped_model_path("fidelity2").read_text())
    _set(doc, path, value)
    with pytest.raises(FormatError) as err:
        load_agent_model(doc)
    assert [d.code for d in err.value.diagnostics] == ["bad-number"]


@pytest.mark.parametrize("messages, code", [
    ("pq", "bad-messages"),
    (["p", 1], "bad-string"),
    ([None], "bad-string"),
])
def test_messages_must_be_a_list_of_strings(messages, code):
    doc = json.loads(shipped_model_path("fidelity2").read_text())
    doc["messages"] = messages
    with pytest.raises(FormatError) as err:
        load_agent_model(doc)
    assert [d.code for d in err.value.diagnostics] == [code]


@pytest.mark.parametrize("model, path, value", [
    ("tstar", ("tiles", 0, "name"), 5),
    ("tstar", ("tiles", 0, "name"), ["x"]),
    ("tstar", ("tiles", 0, "glues", "east", "label"), None),
    ("tstar", ("tiles", 0, "glues", "east", "label"), 1),
    ("tstar", ("seed", 0, "tile"), ["seed"]),
    ("fidelity2", ("agents", 0, "name"), {"x": 1}),
    ("fidelity2", ("agents", 0, "glues", 0), 1),
    ("fidelity2", ("agents", 0, "rule"), 1),
    ("fidelity2", ("rules", 0, "a"), 1),
    ("fidelity2", ("rules", 0, "b"), None),
    ("fidelity2", ("seed", 0, "agent"), ["amber"]),
])
def test_names_and_labels_must_be_json_strings(model, path, value):
    doc = json.loads(shipped_model_path(model).read_text())
    _set(doc, path, value)
    assert [d.code for d in lint_document(doc)] == ["bad-string"]


@pytest.mark.parametrize("model, load", [("tstar", load_tile_system),
                                          ("checkerboard_local", load_agent_model)])
@pytest.mark.parametrize("value", [5, [1], {}, None, True])
def test_top_level_name_must_be_a_json_string(model, load, value):
    doc = json.loads(shipped_model_path(model).read_text())
    doc["name"] = value
    with pytest.raises(FormatError) as err:
        load(doc)
    assert [(d.code, d.path) for d in err.value.diagnostics] == [("bad-string", "name")]


def test_strict_agent_fields_keep_accepting_ints_and_null_glues():
    doc = json.loads(shipped_model_path("fidelity2").read_text())
    doc["pi_nu"] = 1
    doc["kinetics"] |= {"lambda_on": 1, "p_off": 0, "epsilon": 0}
    doc["agents"][0]["glues"][0] = None
    model, _ = load_agent_model(doc)
    assert (model.pi_nu, model.kinetics.lambda_on, model.kinetics.p_off,
            model.kinetics.epsilon) == (1.0, 1.0, 0.0, 0.0)
    assert type(model.pi_nu) is float
    assert model.types["amber"].glues == (None, "g", "g", "g")


@pytest.mark.parametrize("model, path, code", [
    ("tstar", ("tiles", 0, "color"), "bad-tile"),
    ("fidelity2", ("agents", 0, "color"), "bad-agent"),
])
def test_constructor_errors_become_diagnostics(model, path, code):
    doc = json.loads(shipped_model_path(model).read_text())
    _set(doc, path, 0)
    assert [d.code for d in lint_document(doc)] == [code]


@pytest.mark.parametrize("model, key", [("tstar", "tile"), ("fidelity2", "agent")])
def test_repeated_seed_location_is_rejected(model, key):
    doc = json.loads(shipped_model_path(model).read_text())
    doc["seed"].append(dict(doc["seed"][0]))
    load = load_tile_system if model == "tstar" else load_agent_model
    with pytest.raises(FormatError) as err:
        load(doc)
    assert [d.code for d in err.value.diagnostics] == ["duplicate-seed"]


@pytest.mark.parametrize("model, digest", [
    ("tstar", "sha256:86b8d79da3bea8fedf1645228b2a8dad8ef442880e8cab9bda1bdaa83befcb2d"),
    ("checkerboard_local", "sha256:ed8624820a7611996db3f98e4af015033e46a23904edce6da424c2396154030d"),
    ("fidelity2", "sha256:5321f4b46fee3ed4a797271da53dec68b5d139fd313ba2213aba7920d6acd44c"),
])
def test_shipped_models_load_with_frozen_hashes(model, digest):
    path = shipped_model_path(model)
    load = load_tile_system if model == "tstar" else load_agent_model
    _, doc = load(path)
    assert content_hash(doc) == digest


def test_missing_keys_rejected():
    doc = json.loads(shipped_model_path("tstar").read_text())
    del doc["temperature"]
    with pytest.raises(FormatError) as err:
        load_tile_system(doc)
    assert any(d.code == "missing-key" for d in err.value.diagnostics)


def test_duplicate_tile_rejected():
    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["tiles"].append(doc["tiles"][0])
    with pytest.raises(FormatError) as err:
        load_tile_system(doc)
    assert any(d.code == "duplicate-tile" for d in err.value.diagnostics)


@pytest.mark.parametrize("a, b, strength", [("g", "g", 1), ("g", "g", 6), ("h", "g", 1)])
def test_repeated_rule_is_rejected(a, b, strength):
    doc = json.loads(shipped_model_path("fidelity2").read_text())
    doc["agents"][0]["glues"][0] = "h"
    doc["rules"] = [{"a": "g", "b": "h", "strength": 1}, {"a": "g", "b": "g", "strength": 1},
                    {"a": a, "b": b, "strength": strength}]
    with pytest.raises(FormatError) as err:
        load_agent_model(doc)
    assert [(d.code, d.path) for d in err.value.diagnostics] == [("duplicate-rule", "rules[2]")]


def test_bad_seed_reference_rejected():
    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["seed"][0]["tile"] = "phantom"
    with pytest.raises(FormatError) as err:
        load_tile_system(doc)
    assert any(d.code == "bad-seed-type" for d in err.value.diagnostics)


def test_detect_kind():
    assert detect_kind({"tiles": []}) == "tile-system"
    assert detect_kind({"agents": []}) == "agent-model"
    with pytest.raises(FormatError):
        detect_kind({"things": []})


def test_lint_document_collects_diagnostics():
    assert lint_document(shipped_model_path("tstar")) == []
    assert lint_document(shipped_model_path("fidelity2")) == []
    broken = {"agents": [{"name": "a", "glues": ["g", "g", "g", "g"]}],
              "rules": [{"a": "g", "b": "zz", "strength": 1}],
              "temperature": 1}
    diags = lint_document(broken)
    assert any(d.code == "dangling-rule" for d in diags)


def test_ascii_snapshot_layout():
    colors = {(0, 0): 1, (1, 0): 2, (1, 1): 1}
    text = ascii_snapshot(colors, Mesh(2, 2))
    assert text == ".1\n12\n"  # north row first, '.' for empty


def test_ascii_snapshot_3d_layers():
    colors = {(0, 0, 0): 1, (1, 1, 1): 2}
    text = ascii_snapshot(colors, Mesh(3, 2))
    assert "z=0" in text and "z=1" in text


def test_ppm_snapshot(tmp_path):
    colors = {(0, 0): 1, (1, 1): 2}
    path = tmp_path / "snap.ppm"
    write_ppm(path, colors, Mesh(2, 2), scale=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "P3 4 4 255"
    assert len(lines) == 5  # header + 4 pixel rows


def test_assembly_trace_roundtrip():
    system = checkerboard_tileset().system
    result = run(system, Mesh(2, 4), master_seed=9)
    text = assembly_trace_text(result.sequence, "sha256:abc", 9)
    header, additions = parse_assembly_trace(text)
    assert header["system"] == "sha256:abc"
    assert header["seed"] == "9"
    assert header["temperature"] == "2"
    assert additions == list(result.sequence.additions)


def test_mesh_trace_roundtrip():
    model = fidelity_model().system
    net = MeshNetwork(model, 3, master_seed=5)
    net.init_round0()
    net.run(4)
    text = mesh_trace_text(net.trace, "sha256:def", 5)
    header, events = parse_mesh_trace(text)
    assert header["model"] == "sha256:def"
    assert events == net.trace
    assert all(isinstance(e, TraceEvent) for e in events)


def test_mesh_trace_3d_coordinates():
    events = [TraceEvent(1, (0, 1, 2), None, "t"), TraceEvent(2, (0, 1, 2), "t", None)]
    _, parsed = parse_mesh_trace(mesh_trace_text(events, "h", 0))
    assert parsed == events


def test_assembly_trace_keeps_negative_coordinates():
    _, additions = parse_assembly_trace("# seed 0\n0 -1,2 t\n1 0,-3,4 u\n")
    assert [(a.stage, a.location, a.tile) for a in additions] == \
        [(0, (-1, 2), "t"), (1, (0, -3, 4), "u")]


@pytest.mark.parametrize("parse, record", [
    (parse_assembly_trace, "1 a,b t"),
    (parse_assembly_trace, "1 0,0"),
    (parse_assembly_trace, "x 0,0 t"),
    (parse_assembly_trace, "1 0 t"),
    (parse_assembly_trace, "1 0,0,0,0 t"),
    (parse_assembly_trace, "1 0,,0 t"),
    (parse_assembly_trace, "1 0,0 t u"),
    (parse_mesh_trace, "1 0 0 EMPTY"),
    (parse_mesh_trace, "x 0 0 EMPTY t"),
    (parse_mesh_trace, "1 a 0 EMPTY t"),
    (parse_mesh_trace, "1 0 0 0 0 EMPTY t"),
    (parse_mesh_trace, "1 0 EMPTY t"),
    (parse_mesh_trace, "1 0.5 0 EMPTY t"),
])
def test_malformed_trace_records_are_coded(parse, record):
    with pytest.raises(FormatError) as err:
        parse(f"# seed 0\n\n{record}\n")
    assert [(d.code, d.path) for d in err.value.diagnostics] == [("bad-trace", "line 3")]


def test_coloring_document_roundtrip():
    mesh = Mesh(2, 3)
    colors = {v: 1 + (v[0] + v[1]) % 2 for v in mesh.vertices()}
    doc = coloring_document(colors, mesh, 2)
    col = load_coloring(doc)
    assert col.assignment == colors
    assert col.mesh == mesh and col.c == 2


@pytest.mark.parametrize("colors, code", [
    ({"a,b": 1}, "bad-point"),
    ({"1": 1}, "bad-point"),
    ({"0,0,0": 1}, "bad-point"),
    ({"2,0": 1}, "bad-point"),
    ({"-1,0": 1}, "bad-point"),
    ({" 1,0": 1}, "bad-point"),
    ({"1,1": 1, "01,1": 2}, "bad-point"),
    ({"0,0": 3}, "bad-color"),
    ({"0,0": 0}, "bad-color"),
])
def test_coloring_vertices_and_colors_are_coded(colors, code):
    with pytest.raises(FormatError) as err:
        load_coloring({"k": 2, "side": 2, "c": 2, "colors": colors})
    assert [d.code for d in err.value.diagnostics] == [code]


@pytest.mark.parametrize("key, value, code", [
    ("k", 4, "bad-mesh"),
    ("side", 0, "bad-mesh"),
    ("c", 0, "bad-color"),
])
def test_coloring_header_values_are_coded(key, value, code):
    doc = {"k": 2, "side": 2, "c": 2, "colors": {}}
    doc[key] = value
    with pytest.raises(FormatError) as err:
        load_coloring(doc)
    assert [d.code for d in err.value.diagnostics] == [code]


def test_load_from_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tile_system(tmp_path / "nope.json")


def test_load_from_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_agent_model(bad)
