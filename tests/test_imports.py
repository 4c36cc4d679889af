"""Every name a ``diffcoh`` module imports is used there, or is a
re-export that another module imports from it; every private name a
module binds at top level is read there."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diffcoh"


def _imports(tree: ast.Module) -> dict[str, tuple[str | None, int]]:
    """Bound name -> (diffcoh module it comes from, or None; line)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out[bound] = (None, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module or ""
            if node.level:
                source = module
            elif module.startswith("diffcoh."):
                source = module[len("diffcoh."):]
            else:
                source = None
            for alias in node.names:
                out[alias.asname or alias.name] = (source, node.lineno)
    return out


def _used_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_unused_imports_in_src():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    importers = [ast.parse(p.read_text()) for p in sorted((ROOT / "tests").glob("*.py"))]
    importers += modules.values()
    reexported = set()
    for tree in importers:
        for name, (source, _) in _imports(tree).items():
            if source is not None:
                reexported.add((source, name))
    unused = []
    for stem, tree in modules.items():
        used = _used_names(tree)
        for name, (_, line) in _imports(tree).items():
            if name not in used and (stem, name) not in reexported:
                unused.append(f"{stem}.py:{line} {name}")
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from .linalg import Matrix, rank\n\nrank(None)\n")
    used = _used_names(tree)
    assert [n for n in _imports(tree) if n not in used] == ["Matrix"]


def _dead_private_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Private (single-underscore) names bound at module level by an
    assignment, ``def`` or ``class`` and never read in the module."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        else:
            continue
        out += [
            (name, node.lineno)
            for name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read
        ]
    return out


def test_no_dead_private_names_in_src():
    dead = [
        f"{p.stem}.py:{line} {name}"
        for p in sorted(SRC.glob("*.py"))
        for name, line in _dead_private_names(ast.parse(p.read_text()))
    ]
    assert dead == []


def test_the_scan_sees_a_dead_private_name():
    tree = ast.parse(
        "_USED = 1\n_DEAD, _ALSO = 2, 3\n_NOTED: int = 4\n__version__ = '0'\n"
        "def _helper():\n    return _USED\n\ndef _unused():\n    pass\n\n_helper()\n"
    )
    assert _dead_private_names(tree) == [("_DEAD", 2), ("_ALSO", 2), ("_NOTED", 3), ("_unused", 8)]
