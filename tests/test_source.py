"""The library's surface, read from its source: every definition in
src/fqlab has a caller or a reason to stay, no module of src/fqlab or
tests/ imports a name it never uses, and every such module parses at the
oldest Python that pyproject.toml declares. Acceptance oracles with no
caller in the library live in tests/conftest.py."""

import ast
from collections import Counter
from pathlib import Path
import re

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fqlab"

# Definitions that nothing in src/fqlab calls, kept for the ROADMAP item
# that needs them.
KEPT = {
    "dense_hamiltonian": "items 8, 10, 11 and 18",
    "samples_from_keys": "item 7",
    "pipeline_shadow_experiment": "item 4",
    "exact_1rdm": "item 4",
    "mean_field_1rdm": "item 4",
    "antisymmetrization_gate_estimate": "item 15",
    "interaction_picture_steps": "item 15",
}


# (major, minor) of requires-python's floor, read as text: tomllib is
# newer than some of the versions it may name
FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups())


def modules(directory=PACKAGE):
    """(file name, syntax tree) of every module in ``directory``, by
    default the package."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(directory.glob("*.py"))]


def used_names(node):
    """How often each name is read in ``node``: bare names and attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def definitions(tree):
    """(qualified name, node) of the top-level functions and classes of a
    module and the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_use():
    # a definition that only tests call belongs in tests/conftest.py; one
    # that only such definitions call goes with them
    trees = modules()
    init = dict(trees)["__init__.py"]
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    total = sum((used_names(tree) for module, tree in trees
                 if module != "__init__.py"), Counter())
    inside = {(module, qualname): (node.name, used_names(node))
              for module, tree in trees for qualname, node in definitions(tree)}
    assert set(KEPT) <= {name for name, _ in inside.values()}, "stale KEPT"
    kept = {key for key, (name, _) in inside.items()
            if name in exported or name in KEPT
            or re.search(rf"\b{name}\b", bench)}

    def in_unused_class(key):
        module, qualname = key
        return "." in qualname and (module, qualname.split(".")[0]) in unused

    unused = []
    while True:
        # the uses outside every unused definition (a class holds its methods)
        live = total - sum((inside[key][1] for key in unused
                            if not in_unused_class(key)), Counter())
        found = [key for key, (name, counts) in inside.items()
                 if key not in kept and key not in unused
                 and not in_unused_class(key) and live[name] <= counts[name]]
        if not found:
            break
        unused += found
    assert not unused, [f"{module}: {qualname}" for module, qualname in unused]


def test_no_module_imports_a_name_it_never_uses():
    # the package and the test modules; the package's __init__.py imports
    # to export, and perfbench/ is left to the benchmark
    unused = []
    for module, tree in modules() + modules(ROOT / "tests"):
        if module == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in names if name not in read]
    assert not unused, unused


def test_every_module_parses_at_the_declared_floor():
    # syntax newer than the floor would pass on this interpreter and fail
    # on the oldest one the package claims to support
    failures = []
    for path in [*sorted(PACKAGE.glob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
