"""Import hygiene of the package source, checked on the syntax tree alone.

An import that nothing uses, or an ``__all__`` entry that names nothing, is
dead weight that no other test notices: a tool that walks ``__all__`` with
``getattr(module, name, None)`` skips a missing name silently.  The
eigenbasis of a decomposition is read inside ``spectral`` only.
"""

import ast
from pathlib import Path

import pytest

import sobolab

MODULES = sorted(Path(sobolab.__file__).parent.glob("*.py"))
# the package namespace re-exports what it imports
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"]
NOT_SPECTRAL = [p for p in MODULES if p.name != "spectral.py"]


def _imports(nodes) -> dict[str, int]:
    """Name bound by each import among nodes -> its line."""
    bound = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set(_imports(tree.body))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", IMPORTERS, ids=[p.name for p in IMPORTERS])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))
    unused = {name: line for name, line in _imports(ast.walk(tree)).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_all_entry_names_something(path):
    tree = ast.parse(path.read_text())
    missing = sorted(set(_exports(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names nothing for {missing}"


@pytest.mark.parametrize("path", NOT_SPECTRAL, ids=[p.name for p in NOT_SPECTRAL])
def test_only_spectral_reads_the_eigenbasis(path):
    """Other modules go through coefficients/synthesize, so which basis a
    decomposition holds (dense or Fourier) is a matter for spectral alone."""
    tree = ast.parse(path.read_text())
    reads = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "basis"]
    assert not reads, f"{path.name} reads the basis on lines {reads}"
