"""Every name a nucleate module imports is used there, re-exported by the
package, or kept as a binding that the benchmark's tracer wraps by name;
every top-level function, class and assigned name of the package is
referenced somewhere besides its own definition, or registered by a
decorator, or is a dunder name."""

import ast
from collections import defaultdict
from pathlib import Path

import nucleate

SRC = Path(nucleate.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
#: decorators whose call registers the definition, so it needs no other reference
REGISTRARS = {"register_rule"}


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


def definitions(tree: ast.Module) -> list:
    """(name, node) of each top-level function and class, except those a
    registering decorator such as ``@register_rule(...)`` records, and of
    each name a top-level assignment binds, except dunder names such as
    ``__all__``."""
    def registered(node) -> bool:
        return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in REGISTRARS
                   for d in node.decorator_list)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not registered(node):
                found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                      and not (t.id.startswith("__") and t.id.endswith("__"))]
    return found


def references(tree: ast.Module) -> dict:
    """name -> the lines where a name, an attribute, an import or a string
    equal to it (as in the tracer's binding tables) reads it."""
    out = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        out[name].append(node.lineno)
    return out


def dead_definitions(trees: dict, defining) -> list:
    """`module.name` of each definition in the `defining` modules of
    `trees` (module -> parsed source) that no module references outside
    the definition's own lines."""
    refs = {module: references(tree) for module, tree in trees.items()}
    dead = []
    for module in defining:
        for name, node in definitions(trees[module]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(line not in own or other != module
                       for other, found in refs.items() for line in found.get(name, ())):
                dead.append(f"{module}.{name}")
    return dead


def test_every_definition_is_referenced():
    package = {f"nucleate.{path.stem}": ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    others = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
              for folder in (ROOT / "tests", ROOT / "perfbench")
              for path in sorted(folder.glob("*.py"))}
    assert dead_definitions(package | others, package) == []


def test_the_check_sees_a_dead_definition():
    trees = {"m": ast.parse(
        "def used():\n    pass\n"
        "def _dead(key):\n    return _dead(key)\n"
        "@register_rule('x')\ndef _rule():\n    pass\n"
        "class Ghost:\n    pass\n"
        "used()\n"),
             "n": ast.parse("import m\nm.used()\n")}
    assert dead_definitions(trees, ["m"]) == ["m._dead", "m.Ghost"]


def test_the_check_sees_a_dead_assigned_name():
    trees = {"m": ast.parse(
        "__all__ = ['EXPORTED']\n"
        "EXPORTED = 1\n"
        "_DEAD, USED = 2, 3\n"
        "LIMIT: int = 4\n"
        "LOOP = lambda: LOOP()\n"
        "m.ATTRIBUTE = 5\n"
        "print(USED)\n"),
             "n": ast.parse("import m\nprint(m.LIMIT)\n")}
    assert dead_definitions(trees, ["m"]) == ["m._DEAD", "m.LOOP"]


#: decorators that keep results in a cache at module level, for the life of the process
CACHES = {"lru_cache", "cache"}


def module_caches(trees: dict) -> set:
    """`module.name` of each function in `trees` (module -> parsed source)
    decorated with ``lru_cache`` or ``cache``, called or not, bare or as a
    ``functools`` attribute."""
    def caching(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) in CACHES
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(caching, node.decorator_list))}


def test_neighbor_rows_are_the_only_module_cache():
    # whatever a model derives from the rows lives on its plan and is freed
    # with the model; a module-level cache would outlive it
    package = {f"nucleate.{path.stem}": ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    assert module_caches(package) == {"nucleate.lattice.neighbor_rows"}


def test_the_check_sees_every_cache_spelling():
    trees = {"m": ast.parse(
        "@lru_cache(maxsize=32)\ndef a():\n    pass\n"
        "@functools.cache\ndef b():\n    pass\n"
        "@cached_property\ndef c(self):\n    pass\n"
        "class K:\n    @cache\n    def d(self):\n        pass\n")}
    assert module_caches(trees) == {"m.a", "m.b", "m.d"}
