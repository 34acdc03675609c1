"""Static checks over the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fgbo"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> set:
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree: ast.Module) -> set:
    """The names the module reads (an assignment is not a use)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree) - _used_names(tree) - _exported_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def _private_definitions(tree: ast.Module) -> set:
    """Module-level functions, classes and constants whose names start with
    one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_private_name_it_defines(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _private_definitions(tree) - _used_names(tree)
    assert not unused, f"{path.name} defines private names it never uses: {sorted(unused)}"


def _module_imports(path: Path) -> set:
    """The fgbo modules a module imports at load time: its top-level relative
    imports (the package imports itself relatively, and a function's own
    import runs later and closes no cycle)."""
    modules = {p.stem for p in MODULES}
    edges = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                edges.add(node.module.split(".")[0])
            else:  # from . import a, b: submodules, or names of the package
                edges.update(a.name if a.name in modules else "__init__" for a in node.names)
    return edges - {path.stem}


def test_module_imports_are_acyclic():
    graph = {path.stem: _module_imports(path) for path in MODULES}
    assert set().union(*graph.values()) <= set(graph)
    done, stack = set(), []

    def visit(module):
        if module in stack:
            cycle = stack[stack.index(module) :] + [module]
            pytest.fail(f"import cycle: {' -> '.join(cycle)}")
        if module in done:
            return
        stack.append(module)
        for target in sorted(graph[module]):
            visit(target)
        stack.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
