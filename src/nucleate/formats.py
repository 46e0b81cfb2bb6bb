"""File formats: model definition documents, traces, snapshots, reports.

Model files are strict JSON -- unknown keys are rejected at every level, so
a typo fails loudly instead of silently changing a run.  Every CLI artifact
carries the master seed and the model's content hash (sha256 over the
canonical JSON encoding), which together reproduce any run byte for byte.
"""

import hashlib
import json
from pathlib import Path
from typing import Mapping, Optional, Union

from .agents import (
    AgentModel,
    AgentType,
    BindingRules,
    Diagnostic,
    Kinetics,
    ModelValidationError,
    validate_model,
)
from .engine import Addition, AssemblySequence
from .lattice import Mesh, Point, directions
from .meshnet import TraceEvent
from .tiles import Configuration, Glue, TileAssemblySystem, TileType

_AXES = ("x", "y", "z")


class FormatError(ValueError):
    """A document failed schema validation; carries machine-readable diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


def _fail(code: str, message: str, path: str = ""):
    raise FormatError([Diagnostic("error", code, message, path)])


def _require_keys(doc: dict, required: set, optional: set, path: str):
    if not isinstance(doc, dict):
        _fail("not-an-object", f"expected a JSON object at {path or 'top level'}", path)
    unknown = set(doc) - required - optional
    if unknown:
        _fail("unknown-key", f"unknown key(s) {sorted(unknown)} at {path or 'top level'}", path)
    missing = required - set(doc)
    if missing:
        _fail("missing-key", f"missing required key(s) {sorted(missing)} at {path or 'top level'}", path)


def _flag(doc: dict, key: str, default: bool, path: str) -> bool:
    """A boolean field; only JSON true/false is accepted, never a truthy value."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        _fail("bad-boolean", f"{path} must be true or false, got {value!r}", path)
    return value


def _integer(value, path: str) -> int:
    """An integer field; only a JSON integer is accepted -- never a bool,
    a float such as 1.9, or a numeric string."""
    if type(value) is not int:
        _fail("bad-integer", f"{path} must be an integer, got {value!r}", path)
    return value


def _number(value, path: str) -> float:
    """A real field; only a JSON number is accepted -- never a bool, a
    numeric string, or an integer beyond the range of a float."""
    if type(value) not in (int, float):
        _fail("bad-number", f"{path} must be a number, got {value!r}", path)
    try:
        return float(value)
    except OverflowError:
        _fail("bad-number", f"{path} must be a number within floating-point range", path)


def _string(value, path: str) -> str:
    """A name or label; only a JSON string is accepted, so null or 1 never
    becomes the label "None" or "1"."""
    if not isinstance(value, str):
        _fail("bad-string", f"{path} must be a string, got {value!r}", path)
    return value


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_hash(doc: dict) -> str:
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def _read_document(source: Union[str, Path, dict]) -> dict:
    if isinstance(source, dict):
        return source
    text = Path(source).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        _fail("bad-json", f"{source}: {e}")
    if not isinstance(doc, dict):
        _fail("not-an-object", f"{source}: expected a JSON object at top level")
    return doc


def detect_kind(doc: dict) -> str:
    if "tiles" in doc:
        return "tile-system"
    if "agents" in doc:
        return "agent-model"
    _fail("unknown-kind", "document has neither 'tiles' nor 'agents'")


# -- tile systems ------------------------------------------------------


def _seed_entry(entry: dict, key: str, k: int, path: str) -> tuple[Point, str]:
    axes = set(_AXES[:k])
    _require_keys(entry, axes | {key}, set(), path)
    point = tuple(_integer(entry[a], f"{path}.{a}") for a in _AXES[:k])
    return point, _string(entry[key], f"{path}.{key}")


def _seed_cells(entries, key: str, k: int, known=None) -> dict:
    """Seed entries as a location -> name map; a location may appear once,
    and names must be in `known` unless it is None."""
    if not isinstance(entries, list):
        _fail("bad-seed", "'seed' must be a list", "seed")
    cells = {}
    for i, entry in enumerate(entries):
        path = f"seed[{i}]"
        v, name = _seed_entry(entry, key, k, path)
        if known is not None and name not in known:
            _fail("bad-seed-type", f"seed names unknown {key} {name!r}", path)
        if v in cells:
            _fail("duplicate-seed", f"seed location {v} appears twice", path)
        cells[v] = name
    return cells


def load_tile_system(source: Union[str, Path, dict]) -> tuple[TileAssemblySystem, dict]:
    """Parse and validate a tile system document; returns (system, document)."""
    doc = _read_document(source)
    _require_keys(doc, {"tiles", "temperature", "seed"}, {"name"}, "")
    if "name" in doc:
        _string(doc["name"], "name")
    tiles_doc = doc["tiles"]
    if not isinstance(tiles_doc, list) or not tiles_doc:
        _fail("bad-tiles", "'tiles' must be a nonempty list", "tiles")

    k = None
    tiles: dict[str, TileType] = {}
    for i, td in enumerate(tiles_doc):
        path = f"tiles[{i}]"
        _require_keys(td, {"name", "glues"}, {"color"}, path)
        glues_doc = td["glues"]
        names = set(glues_doc) if isinstance(glues_doc, dict) else set()
        this_k = 3 if names & {"down", "up"} else 2
        dirs = directions(this_k)
        _require_keys(glues_doc, {d.name for d in dirs}, set(), f"{path}.glues")
        if k is None:
            k = this_k
        elif k != this_k:
            _fail("mixed-dimensions", "tiles mix 2- and 3-dimensional glue sets", path)
        glues = []
        for d in dirs:
            gd = glues_doc[d.name]
            gpath = f"{path}.glues.{d.name}"
            _require_keys(gd, {"label", "strength"}, set(), gpath)
            label = _string(gd["label"], f"{gpath}.label")
            strength = _integer(gd["strength"], f"{gpath}.strength")
            try:
                glues.append(Glue(label, strength))
            except ValueError as e:
                _fail("bad-glue", f"{gpath}: {e}", gpath)
        name = _string(td["name"], f"{path}.name")
        if name in tiles:
            _fail("duplicate-tile", f"tile name {name!r} appears twice", path)
        color = _integer(td.get("color", 1), f"{path}.color")
        try:
            tiles[name] = TileType(name, tuple(glues), color)
        except ValueError as e:
            _fail("bad-tile", f"{path}: {e}", path)

    seed_cells = _seed_cells(doc["seed"], "tile", k, tiles)
    temperature = _integer(doc["temperature"], "temperature")

    try:
        system = TileAssemblySystem(
            tiles=tiles,
            seed=Configuration(seed_cells, k=k),
            temperature=temperature,
        )
    except ValueError as e:
        _fail("invalid-system", str(e))
    return system, doc


def tile_system_document(system: TileAssemblySystem, name: Optional[str] = None) -> dict:
    dirs = directions(system.k)
    doc = {
        "temperature": system.temperature,
        "tiles": [
            {
                "name": t.name,
                "color": t.color,
                "glues": {
                    d.name: {"label": t.glue(d.index).label, "strength": t.glue(d.index).strength}
                    for d in dirs
                },
            }
            for t in sorted(system.tiles.values(), key=lambda t: t.name)
        ],
        "seed": [
            dict(zip(_AXES[:system.k], v)) | {"tile": tname}
            for v, tname in sorted(system.seed.items())
        ],
    }
    if name is not None:
        doc["name"] = name
    return doc


# -- agent models ------------------------------------------------------


def load_agent_model(source: Union[str, Path, dict]) -> tuple[AgentModel, dict]:
    """Parse and validate an agent model document; returns (model, document)."""
    doc = _read_document(source)
    _require_keys(
        doc,
        {"agents", "rules", "temperature"},
        {"name", "seed", "pi_nu", "kinetics", "messages", "use_ids"},
        "",
    )
    if "name" in doc:
        _string(doc["name"], "name")
    agents_doc = doc["agents"]
    if not isinstance(agents_doc, list) or not agents_doc:
        _fail("bad-agents", "'agents' must be a nonempty list", "agents")

    k = None
    types: dict[str, AgentType] = {}
    for i, ad in enumerate(agents_doc):
        path = f"agents[{i}]"
        _require_keys(ad, {"name", "glues"}, {"color", "rule"}, path)
        glues = ad["glues"]
        if not isinstance(glues, list) or len(glues) not in (4, 6):
            _fail("bad-glues", f"{path}: 'glues' must list 4 or 6 labels (null for none)", path)
        this_k = len(glues) // 2
        if k is None:
            k = this_k
        elif k != this_k:
            _fail("mixed-dimensions", "agents mix 2- and 3-dimensional glue sets", path)
        name = _string(ad["name"], f"{path}.name")
        if name in types:
            _fail("duplicate-agent", f"agent name {name!r} appears twice", path)
        glues = tuple(None if g is None else _string(g, f"{path}.glues[{j}]")
                      for j, g in enumerate(glues))
        color = _integer(ad.get("color", 1), f"{path}.color")
        rule = ad.get("rule")
        if rule is not None:
            _string(rule, f"{path}.rule")
        try:
            types[name] = AgentType(name, glues, color, rule)
        except ValueError as e:
            _fail("bad-agent", f"{path}: {e}", path)

    rules_doc = doc["rules"]
    if not isinstance(rules_doc, list):
        _fail("bad-rules", "'rules' must be a list", "rules")
    rules = {}
    for i, rd in enumerate(rules_doc):
        path = f"rules[{i}]"
        _require_keys(rd, {"a", "b", "strength"}, set(), path)
        a, b = _string(rd["a"], f"{path}.a"), _string(rd["b"], f"{path}.b")
        pair = (a, b) if a <= b else (b, a)  # rules are symmetric
        if pair in rules:
            _fail("duplicate-rule", f"rule ({a!r}, {b!r}) appears twice", path)
        rules[pair] = _integer(rd["strength"], f"{path}.strength")

    seed_cells = _seed_cells(doc.get("seed", []), "agent", k)

    kin_doc = doc.get("kinetics", {})
    _require_keys(kin_doc, set(), {"lambda_on", "p_off", "epsilon", "detach"}, "kinetics")
    lambda_on = _number(kin_doc.get("lambda_on", 1.0), "kinetics.lambda_on")
    p_off = _number(kin_doc.get("p_off", 0.0), "kinetics.p_off")
    epsilon = _number(kin_doc.get("epsilon", 0.0), "kinetics.epsilon")
    detach = _flag(kin_doc, "detach", p_off > 0, "kinetics.detach")
    use_ids = _flag(doc, "use_ids", False, "use_ids")
    temperature = _integer(doc["temperature"], "temperature")
    pi_nu = _number(doc.get("pi_nu", 0.0), "pi_nu")
    messages = doc.get("messages", [])
    if not isinstance(messages, list):
        _fail("bad-messages", "'messages' must be a list of strings", "messages")
    messages = tuple(_string(m, f"messages[{i}]") for i, m in enumerate(messages))
    try:
        kinetics = Kinetics(lambda_on=lambda_on, detach=detach, p_off=p_off, epsilon=epsilon)
        model = AgentModel(
            types=types,
            rules=BindingRules(rules),
            temperature=temperature,
            seed=seed_cells,
            pi_nu=pi_nu,
            kinetics=kinetics,
            messages=messages,
            use_ids=use_ids,
            k=k,
        )
    except ModelValidationError as e:
        raise FormatError(e.diagnostics)
    except ValueError as e:
        _fail("invalid-model", str(e))
    return model, doc


def agent_model_document(model: AgentModel, name: Optional[str] = None) -> dict:
    doc = {
        "agents": [
            {"name": t.name, "color": t.color, "glues": list(t.glues), "rule": t.rule}
            for t in sorted(model.types.values(), key=lambda t: t.name)
        ],
        "rules": [
            {"a": a, "b": b, "strength": s}
            for (a, b), s in sorted(model.rules.pairs().items())
        ],
        "temperature": model.temperature,
        "seed": [
            dict(zip(_AXES[:model.k], v)) | {"agent": n}
            for v, n in sorted(model.seed.items())
        ],
        "pi_nu": model.pi_nu,
        "kinetics": {
            "lambda_on": model.kinetics.lambda_on,
            "detach": model.kinetics.detach,
            "p_off": model.kinetics.p_off,
            "epsilon": model.kinetics.epsilon,
        },
        "messages": list(model.messages),
        "use_ids": model.use_ids,
    }
    if name is not None:
        doc["name"] = name
    return doc


def lint_document(source: Union[str, Path, dict], strict: bool = False) -> list[Diagnostic]:
    """Validate a model document of either kind; returns all diagnostics."""
    try:
        doc = _read_document(source)
        kind = detect_kind(doc)
        if kind == "tile-system":
            load_tile_system(doc)
            return []
        model, _ = load_agent_model(doc)
        return validate_model(model, strict=strict)
    except FormatError as e:
        return e.diagnostics


# -- snapshots ---------------------------------------------------------


def color_char(color: Optional[int]) -> str:
    """One character per color; '.' marks an empty (or unset) cell."""
    if color is None:
        return "."
    if 1 <= color <= 9:
        return str(color)
    return chr(ord("a") + (color - 10) % 26)


def ascii_snapshot(colors: Mapping[Point, int], window: Mesh) -> str:
    """Character grid of a colored surface; for k=3, one z-layer per block."""
    n = window.side
    if window.k == 2:
        rows = []
        for y in reversed(range(n)):
            rows.append("".join(color_char(colors.get((x, y))) for x in range(n)))
        return "\n".join(rows) + "\n"
    blocks = []
    for z in range(n):
        rows = [f"z={z}"]
        for y in reversed(range(n)):
            rows.append("".join(color_char(colors.get((x, y, z))) for x in range(n)))
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


_PALETTE = [
    (230, 230, 230),  # background/empty
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
    (188, 189, 34),
]


def write_ppm(path: Union[str, Path], colors: Mapping[Point, int],
              window: Mesh, scale: int = 8) -> None:
    """Plain-text portable pixmap (P3) of a 2-dimensional surface."""
    if window.k != 2:
        raise ValueError("pixmap snapshots are 2-dimensional only")
    n = window.side
    size = n * scale
    lines = [f"P3 {size} {size} 255"]
    for py in range(size):
        y = n - 1 - py // scale
        row = []
        for px in range(size):
            x = px // scale
            c = colors.get((x, y))
            rgb = _PALETTE[0] if c is None else _PALETTE[1 + (c - 1) % (len(_PALETTE) - 1)]
            row.append(f"{rgb[0]} {rgb[1]} {rgb[2]}")
        lines.append(" ".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- traces ------------------------------------------------------------


def _point_token(v: Point) -> str:
    return ",".join(map(str, v))


def _trace_records(text: str, header: dict, counts: tuple[int, ...], form: str):
    """(path, fields) of each record line of a trace, split on whitespace;
    a record with a field count not in `counts` fails as `bad-trace`.
    Comment lines `# key value` fill `header` instead."""
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            header[key] = value
            continue
        fields = line.split()
        path = f"line {number}"
        if len(fields) not in counts:
            _fail("bad-trace", f"{path}: expected `{form}`, got {line!r}", path)
        yield path, fields


def _trace_int(token: str, path: str) -> int:
    """A decimal integer of a trace record; negative coordinates are legal
    (windowless assemblies grow anywhere)."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        _fail("bad-trace", f"{path}: {token!r} is not an integer", path)
    return int(token)


def assembly_trace_text(seq: AssemblySequence, system_hash: str, master_seed: int) -> str:
    """Line records `stage location tile`, after a commented header."""
    lines = [
        f"# system {system_hash}",
        f"# seed {master_seed}",
        f"# temperature {seq.system.temperature}",
    ]
    for a in seq.additions:
        lines.append(f"{a.stage} {_point_token(a.location)} {a.tile}")
    return "\n".join(lines) + "\n"


def parse_assembly_trace(text: str) -> tuple[dict, list[Addition]]:
    header: dict[str, str] = {}
    additions = []
    for path, (stage, location, name) in _trace_records(
            text, header, (3,), "stage x,y[,z] tile"):
        coords = location.split(",")
        if len(coords) not in (2, 3):
            _fail("bad-trace", f"{path}: location {location!r} needs 2 or 3 coordinates", path)
        point = tuple(_trace_int(c, path) for c in coords)
        additions.append(Addition(_trace_int(stage, path), point, name))
    return header, additions


def mesh_trace_text(events: list[TraceEvent], model_hash: str, master_seed: int) -> str:
    """Line records `round x y [z] old_state new_state` (EMPTY for no agent)."""
    lines = [f"# model {model_hash}", f"# seed {master_seed}"]
    for e in events:
        coords = " ".join(str(c) for c in e.coordinates)
        lines.append(f"{e.round} {coords} {e.old or 'EMPTY'} {e.new or 'EMPTY'}")
    return "\n".join(lines) + "\n"


def parse_mesh_trace(text: str) -> tuple[dict, list[TraceEvent]]:
    header: dict[str, str] = {}
    events = []
    for path, fields in _trace_records(text, header, (5, 6), "round x y [z] old new"):
        rnd, *coords, old, new = fields
        events.append(TraceEvent(
            _trace_int(rnd, path),
            tuple(_trace_int(c, path) for c in coords),
            None if old == "EMPTY" else old,
            None if new == "EMPTY" else new,
        ))
    return header, events


# -- colorings ---------------------------------------------------------


def coloring_document(colors: Mapping[Point, int], window: Mesh, c: int) -> dict:
    return {
        "k": window.k,
        "side": window.side,
        "c": c,
        "colors": {_point_token(v): color for v, color in sorted(colors.items())},
    }


def _vertex(token: str, mesh: Mesh, path: str) -> Point:
    """A coloring key: k comma-separated decimal integers naming a mesh vertex."""
    parts = token.split(",")
    if len(parts) == mesh.k and all(p.isascii() and p.isdigit() for p in parts):
        v = tuple(map(int, parts))
        if mesh.contains(v):
            return v
    _fail("bad-point", f"{token!r} is not a vertex of the {mesh.k}-dimensional mesh "
          f"of side {mesh.side}", path)


def load_coloring(source: Union[str, Path, dict]):
    from .coloring import Coloring

    doc = _read_document(source)
    _require_keys(doc, {"k", "side", "c", "colors"}, set(), "")
    if not isinstance(doc["colors"], dict):
        _fail("not-an-object", "'colors' must map vertices to colors", "colors")
    k, side, c = (_integer(doc[key], key) for key in ("k", "side", "c"))
    try:
        mesh = Mesh(k, side)
    except ValueError as exc:
        _fail("bad-mesh", str(exc))
    if c < 1:
        _fail("bad-color", f"c must be at least 1, got {c}", "c")
    assignment = {}
    for token, color in doc["colors"].items():
        path = f"colors.{token}"
        v = _vertex(token, mesh, path)
        if v in assignment:
            _fail("bad-point", f"{token!r} names vertex {v} a second time", path)
        color = _integer(color, path)
        if not 1 <= color <= c:
            _fail("bad-color", f"{path} must lie in 1..{c}, got {color}", path)
        assignment[v] = color
    return Coloring(assignment, mesh, c)
