"""Every name a ``diffcoh`` module imports is used there, or is a
re-export that another module imports from it; every private name a
module binds at top level is read there; every public one is read by
some module or is on the API list, which is the README's Library
section plus every function the benchmark tracer patches by name; and
every method, dunders aside, is read as an attribute by some module or
is on that list."""

import ast
import importlib
import pathlib
import re

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


def _read_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Names bound at module level by an assignment, ``def`` or ``class``."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        else:
            continue
        out += [(name, node.lineno) for name in bound]
    return out


def _dead_private_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Private (single-underscore) names bound at module level by an
    assignment, ``def`` or ``class`` and never read in the module."""
    read = _read_names(tree)
    return [
        (name, line)
        for name, line in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


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


# public names the package itself does not read; README.md's Library
# section names each of them
LIBRARY_API = {
    ("catalog", "cyclic"),
    ("catalog", "inverse_map"),
    ("catalog", "klein_four"),
    ("catalog", "groups_of_each_order"),
    ("group_cohomology", "DifferenceComplex"),
    ("groups", "DifferenceGroup"),
    ("groups", "DifferenceRep"),
    ("groups", "semidirect_product"),
    ("fixtures", "load_fixture"),
    ("fixtures", "format_group_fixture"),
    ("fixtures", "format_lie_fixture"),
    ("linalg", "Matrix"),
    ("programs", "const"),
    ("scalars", "PrimeField"),
    # methods only the tests call
    ("extensions", "AbelianExtension.inject"),
    ("exactness", "CochainSpaceBase.basis_cochain"),
    ("scalars", "JetRing.generator"),
}


def _readme_library_names() -> set[tuple[str, str]]:
    """(module, name) for every name the README's Library section imports
    from ``diffcoh`` or writes as `module.name`."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n")[1].split("\n## ")[0]
    out = {
        (module, name.strip())
        for module, names in re.findall(r"from diffcoh\.(\w+) import ([\w, ]+)", section)
        for name in names.split(",")
    }
    stems = {p.stem for p in SRC.glob("*.py")}
    out |= {(m, n) for m, n in re.findall(r"`(\w+)\.(\w+(?:\.\w+)?)`", section) if m in stems}
    return out


def _traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of every ``SPANS`` entry of the benchmark
    tracer, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in spans.elts]


def test_readme_library_section_is_the_api_list():
    assert _readme_library_names() == LIBRARY_API
    for module, name in LIBRARY_API:
        owner = importlib.import_module(f"diffcoh.{module}")
        for part in name.split("."):
            assert hasattr(owner, part), (module, name)
            owner = getattr(owner, part)


def _dead_public_names(modules: dict[str, ast.Module], api: set) -> list[str]:
    """Public names bound at module level that no module reads or
    imports and that are not on ``api``, a set of (module, name)."""
    read = set()
    for tree in modules.values():
        read |= _read_names(tree)
        read |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
    return [
        f"{stem}.py:{line} {name}"
        for stem, tree in modules.items()
        for name, line in _module_level_names(tree)
        if not name.startswith("_") and name not in read and (stem, name) not in api
    ]


def test_no_dead_public_names_in_src():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    api = LIBRARY_API | {(m, attr.split(".")[0]) for m, attr in _traced_names()}
    assert _dead_public_names(modules, api) == []


def test_the_scan_sees_a_dead_public_name():
    modules = {
        "a": ast.parse("def used():\n    pass\n\ndef listed():\n    pass\n\nDEAD = 1\n"),
        "b": ast.parse("from .a import used as _used\n\n_used()\n"),
    }
    assert _dead_public_names(modules, {("a", "listed")}) == ["a.py:7 DEAD"]


def test_every_traced_name_resolves():
    # Tracer.install patches these by name; a missing one would raise
    # AttributeError in the traced benchmark run
    for module, attr in _traced_names():
        owner = importlib.import_module(f"diffcoh.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert name in vars(owner), f"{module}.{attr}"


def _dead_methods(modules: dict[str, ast.Module], api: set) -> list[str]:
    """Methods of module-level classes, dunders aside, whose name no
    module reads as an attribute and whose (module, "Class.method") is
    not on ``api``."""
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{stem}.py:{item.lineno} {cls.name}.{item.name}"
        for stem, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read
        and (stem, f"{cls.name}.{item.name}") not in api
    ]


def test_no_dead_methods_in_src():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _dead_methods(modules, LIBRARY_API | set(_traced_names())) == []


def test_the_scan_sees_a_dead_method():
    modules = {
        "a": ast.parse(
            "class A:\n    def __init__(self):\n        self.used()\n\n"
            "    def used(self):\n        pass\n\n    def listed(self):\n        pass\n\n"
            "    def _dead(self):\n        pass\n"
        ),
        "b": ast.parse("def dead():\n    pass\n"),
    }
    assert _dead_methods(modules, {("a", "A.listed")}) == ["a.py:11 A._dead"]
