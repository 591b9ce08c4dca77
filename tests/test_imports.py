"""Package structure: the modules' import graph has no cycle, and the oracle
imports nothing it checks."""

import ast
from pathlib import Path

import polymulgen


def _module_imports(tree: ast.Module) -> set:
    """The sibling modules a module imports at module level: its top-level
    statements and the blocks of its module-level if/try statements (an
    import under `if TYPE_CHECKING:` counts), not function or class bodies."""
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
    return out


def _import_graph() -> dict:
    package = Path(polymulgen.__file__).parent
    graph = {path.stem: _module_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))}
    return {mod: sorted(dep for dep in deps if dep in graph) for mod, deps in graph.items()}


def _cycle(graph: dict) -> list:
    """One import loop of graph, as the modules along it, or []."""
    done = set()
    for root in graph:
        stack = [(root, iter(graph[root]))]
        while stack:
            mod, deps = stack[-1]
            for dep in deps:
                path = [m for m, _ in stack]
                if dep in path:
                    return path[path.index(dep):] + [dep]
                if dep not in done:
                    stack.append((dep, iter(graph[dep])))
                    break
            else:
                stack.pop()
                done.add(mod)
    return []


def test_cycle_finder_names_the_loop():
    assert _cycle({"a": ["b"], "b": ["c"], "c": ["a"], "d": []}) == ["a", "b", "c", "a"]
    assert _cycle({"a": ["b", "c"], "b": ["c"], "c": []}) == []


def test_module_imports_include_type_checking_blocks():
    tree = ast.parse("from typing import TYPE_CHECKING\nfrom .ir import Ref\n"
                     "if TYPE_CHECKING:\n    from .models import ArchKind\n"
                     "def f():\n    from .cli import main\n")
    assert _module_imports(tree) == {"ir", "models"}


def test_package_imports_have_no_cycle():
    graph = _import_graph()
    assert "models" in graph and "generators" in graph
    loop = _cycle(graph)
    assert not loop, "import cycle: " + " -> ".join(loop)


def test_oracle_imports_only_errors():
    # numeric is the oracle that the models and the generators are checked
    # against; the Toom interpolation they share lives in models, not here
    assert _import_graph()["numeric"] == ["errors"]
