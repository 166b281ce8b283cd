"""Static checks on the package source and on the test oracles, read through
``ast``: every name in a module's ``__all__`` is defined there, and no
imported name goes unused."""

import ast
from pathlib import Path

import pytest

import schrogeo

SOURCES = sorted(Path(schrogeo.__file__).resolve().parent.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_name(alias) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((_bound_name(alias), node.lineno) for alias in node.names)
    return out


def _annotation_strings(tree: ast.Module):
    """String annotations such as ``-> "Jet2 | float"``, parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield ast.parse(ann.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    trees = [tree, *_annotation_strings(tree)]
    return {
        n.id
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", [*SOURCES, ORACLES], ids=lambda p: p.name)
def test_every_dunder_all_entry_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_dunder_all(tree)) - _module_level_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


@pytest.mark.parametrize("path", [*SOURCES, ORACLES], ids=lambda p: p.name)
def test_no_imported_name_goes_unused(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_dunder_all(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_checks_see_an_unused_import_and_an_undefined_export():
    tree = ast.parse(
        "from x import a, b\n"
        "import c.d\n"
        "__all__ = ['f', 'g']\n"
        "def f() -> 'c.D':\n"
        "    return a\n"
    )
    used = _used_names(tree) | set(_dunder_all(tree))
    assert [name for name, _ in _imports(tree) if name not in used] == ["b"]
    assert set(_dunder_all(tree)) - _module_level_names(tree) == {"g"}
