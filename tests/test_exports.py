"""Every exported name has a reader in the program.

A name in a module's `__all__` is public API; it stays only while code in
`src/`, `scripts/` or `perfbench/` reads it, outside its own definition and
the export lists (`__all__` entries are strings and `__init__`'s imports are
aliases, so neither counts).  Names kept for callers outside the program are
listed in READERLESS with the reason.
"""

import ast
from pathlib import Path

import wesurf as ws

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(ws.__file__).resolve().parent
READER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

READERLESS = {
    "theta_derivative": "acceptance criterion 6 takes d^n S_theta / d theta^n with it",
    "change_of_variables_action": "the action in the (x, t) chart, kept for the "
                                  "exact-oracle check of the action's value",
    "integrate_path": "one path integral with the grid antiderivative's rule, kept "
                      "for exact oracles of the generated values",
    "surface_from_fg": "the paper's construction of a surface from its F/G data",
}


def _module_exports() -> dict[str, list[str]]:
    exports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exports[path.stem] = ast.literal_eval(node.value)
    return exports


def _reads(tree: ast.AST, skip: ast.AST | None = None):
    """Names read in tree (as a name or an attribute), outside `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _readers() -> dict[str, set[str]]:
    """Per name, the files that read it; a module's own definition of a
    name is skipped for that name only."""
    readers: dict[str, set[str]] = {}
    for directory in READER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text())
            own = {n.name: n for n in tree.body
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            names = set(_reads(tree))
            for name in names:
                if name in own and name not in set(_reads(tree, skip=own[name])):
                    continue  # read only inside its own definition
                readers.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    return readers


def test_every_export_has_a_reader():
    readers = _readers()
    unread = sorted(f"{module}.{name}" for module, names in _module_exports().items()
                    for name in names if name not in readers and name not in READERLESS)
    assert not unread, f"exported with no reader in src/, scripts/ or perfbench/: {unread}"


def test_readerless_names_are_exported_and_unread():
    # an allow-listed name that gains a reader, or is no longer exported,
    # leaves the list
    exported = {name for names in _module_exports().values() for name in names}
    readers = _readers()
    assert set(READERLESS) <= exported
    assert not [name for name in READERLESS if name in readers]


def test_package_reexports_only_exported_names():
    # a name the package re-exports from a module with an `__all__` is in it
    exports = _module_exports()
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    stray = [f"{node.module}.{alias.name}" for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module in exports
             for alias in node.names if alias.name not in exports[node.module]]
    assert not stray
