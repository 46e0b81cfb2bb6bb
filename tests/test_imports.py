"""Every name a nucleate module imports is used there, re-exported by the
package, or kept as a binding that the benchmark's tracer wraps by name."""

import ast
from pathlib import Path

import nucleate

SRC = Path(nucleate.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_bindings() -> set:
    """(module, attribute) pairs listed in the tracer's SPANS, COUNTERS and
    RULE_LOOKUPS tuples, read from its source without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTERS", "RULE_LOOKUPS"):
                tables[name] = ast.literal_eval(node.value)
    assert sorted(tables) == ["COUNTERS", "RULE_LOOKUPS", "SPANS"]
    pairs = {(mod, attr) for mod, attr, _ in tables["SPANS"] + tables["COUNTERS"]}
    return pairs | {(mod, "message_rule") for mod in tables["RULE_LOOKUPS"]}


def unused_imports(tree: ast.Module) -> list:
    """Names bound by the module's imports that no expression reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_import_is_used_exported_or_traced():
    exported = set(nucleate.__all__)
    traced = tracer_bindings()
    dead = []
    for path in sorted(SRC.glob("*.py")):
        module = f"nucleate.{path.stem}" if path.stem != "__init__" else "nucleate"
        for name in unused_imports(ast.parse(path.read_text())):
            if path.stem == "__init__" and name in exported:
                continue
            if (module, name) not in traced:
                dead.append(f"{module}.{name}")
    assert dead == []


def test_the_check_sees_a_dead_import():
    tree = ast.parse("import os\nfrom x import a, b as c\nfrom y import d\nprint(a, d.e)\n")
    assert unused_imports(tree) == ["os", "c"]
