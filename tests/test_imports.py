"""Every name a ``diffcoh`` module imports is used there, or is a
re-export that another module imports from it."""

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
