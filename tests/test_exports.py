"""Every exported name has a reader, and every default a setter.

A name in a module's `__all__` is public API; it stays only while code in
`src/`, `scripts/` or `perfbench/` reads it.  Another file reads a name by
importing it or by attribute access (`ws.name`); a local variable or a
parameter of the same name is not a read.  The defining module reads it by
a load outside its own definition.  The package's `__init__` only
re-exports, and `__all__` entries are strings, so neither counts.  No
name is exempt: a name that only the tests read belongs in
`tests/oracles.py`.

A parameter with a default is a knob; it stays only while some call in the
program or the tests sets it.
"""

import ast
from pathlib import Path

import wesurf as ws

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(ws.__file__).resolve().parent
READER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def _module_exports() -> dict[str, list[str]]:
    exports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exports[path.stem] = ast.literal_eval(node.value)
    return exports


def _loads(tree: ast.AST, skip: ast.AST | None = None):
    """Names loaded in tree, outside `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        stack.extend(ast.iter_child_nodes(node))


def _readers() -> dict[str, set[str]]:
    """Per exported name, the files that read it."""
    home = {name: PACKAGE / f"{module}.py"
            for module, names in _module_exports().items() for name in names}
    readers: dict[str, set[str]] = {}
    for directory in READER_DIRS:
        for path in sorted(p.resolve() for p in directory.rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            own = {n.name: n for n in tree.body
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            loads = set(_loads(tree))
            imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                        for a in n.names}
            attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            for name, defining in home.items():
                if path == defining:
                    read = name in (set(_loads(tree, skip=own[name])) if name in own
                                    else loads)
                else:
                    read = name in imported or name in attributes
                if read:
                    readers.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    return readers


def test_every_export_has_a_reader():
    readers = _readers()
    unread = sorted(f"{module}.{name}" for module, names in _module_exports().items()
                    for name in names if name not in readers)
    assert not unread, f"exported with no reader in src/, scripts/ or perfbench/: {unread}"


def test_package_reexports_only_exported_names():
    # a name the package re-exports from a module with an `__all__` is in it
    exports = _module_exports()
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    stray = [f"{node.module}.{alias.name}" for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module in exports
             for alias in node.names if alias.name not in exports[node.module]]
    assert not stray


def _defaulted_parameters():
    """(callee name, label, positional index or None, keyword) of every
    parameter with a default, of every function and method in the package.
    A method's index counts from its first argument after self; a class is
    called by its own name for its `__init__`."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = methods.get(id(fn))
            positional = fn.args.posonlyargs + fn.args.args
            if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                           for d in fn.decorator_list):
                positional = positional[1:]
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            label = f"{path.stem}.{fn.name}"
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield callee, label, i, arg.arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield callee, label, None, arg.arg


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the program and the tests, by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for directory in READER_DIRS + (ROOT / "tests",):
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, index: int | None, keyword: str) -> bool:
    """The call passes the parameter by keyword or by position; positions
    from a starred argument on are unknown and count as unset."""
    if any(k.arg == keyword for k in call.keywords):
        return True
    positional = call.args
    starred = next((i for i, a in enumerate(positional) if isinstance(a, ast.Starred)),
                   len(positional))
    return index is not None and index < starred


def test_every_default_has_a_setter():
    calls = _calls()
    unset = sorted({f"{label}({keyword})" for callee, label, index, keyword
                    in _defaulted_parameters()
                    if not any(_sets(c, index, keyword) for c in calls.get(callee, ()))})
    assert not unset, f"defaults that no call in src/, scripts/, perfbench/ or tests/ sets: {unset}"
