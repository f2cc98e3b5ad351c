"""Import hygiene of the package source, checked on the syntax tree alone.

An import that nothing uses (in the package, its tests or its tools), or an
``__all__`` entry that names nothing, is dead weight that no other test
notices: a tool that walks ``__all__`` with ``getattr(module, name, None)``
skips a missing name silently.  The eigenbasis of a decomposition is read
inside ``spectral`` only, and its transforms are called there and in the
ensemble projection only.  No CLI job on a torus, sphere or box imports
scipy.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sobolab

MODULES = sorted(Path(sobolab.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))
# the package namespace re-exports what it imports
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"] + SCRIPTS
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


@pytest.mark.parametrize("path", IMPORTERS, ids=[
    p.name if p.parent.name == "sobolab" else f"{p.parent.name}/{p.name}"
    for p in IMPORTERS])
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
    """Other modules reach a decomposition's basis only to call
    forward/native/backward, which every basis has, so which basis it holds
    (the mirror blocks of a dense solve, one block with no mirror, or the
    per-axis columns of a grid) is a matter for spectral alone."""
    tree = ast.parse(path.read_text())
    calls = {id(n.value) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)
             and n.attr in ("forward", "native", "backward")}
    reads = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "basis"
             and id(n) not in calls]
    assert not reads, f"{path.name} reads the basis on lines {reads}"


TRANSFORMERS = {"spectral.py", "constants.py"}
NOT_TRANSFORMERS = [p for p in MODULES if p.name not in TRANSFORMERS]


@pytest.mark.parametrize("path", NOT_TRANSFORMERS,
                         ids=[p.name for p in NOT_TRANSFORMERS])
def test_only_spectral_and_the_ensemble_call_the_transforms(path):
    """Every other f(H) u goes through spectral.apply_functions, which checks
    that each multiplier is finite and transforms u once for many f; only the
    ensemble projection in constants calls forward/native/backward itself."""
    tree = ast.parse(path.read_text())
    calls = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr in ("forward", "native", "backward")]
    assert not calls, f"{path.name} calls a basis transform on lines {calls}"


# ---------------------------------------------------------------------------
# scipy is loaded only where a caller reads a manifold's stiffness as a scipy
# matrix; every torus, sphere and box job, and tau_of_t, run on numpy alone.
# Each check runs in a fresh interpreter, because this one has loaded scipy.

TORUS_JOBS = [
    ["estimate", "--model", "torus:n=2,res=8", "--p", "1.5"],
    ["verify", "--model", "torus:n=2,res=8", "--p", "1.5", "--A", "1",
     "--B", "64"],
    ["heat", "--model", "torus:n=2,res=8", "--fit-window", "0.4,2", "--svg",
     "--spectrum-csv", "--beta-csv"],
    ["riesz", "--model", "torus:n=2,res=8", "--p", "1.5"],
    ["w2p", "--model", "torus:n=3,res=6", "--p", "1.2", "--mu", "3"],
    ["scaling", "--model", "torus:n=3,res=6"],
    ["flow", "--flow", "torus:n=3,res=6", "--times", "0:1:0.5",
     "--theorem", "b3", "--p", "2.5"],
]
OTHER_JOBS = [
    ["heat", "--model", "sphere:r=1,subdiv=1"],
    ["estimate", "--model", "box:n=2,res=6", "--p", "1.5"],
    ["riesz", "--model", "box:n=3,res=4", "--p", "1.5"],
    ["flow", "--flow", "sphere:r0=1,subdiv=1", "--times", "0:0.2:0.1",
     "--theorem", "a2", "--p", "1.5", "--p0", "1.2"],
    ["flow", "--flow", "sphere:r0=1,subdiv=1", "--times", "0:0.2:0.1",
     "--theorem", "b2", "--p", "1.5"],
]
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
import sobolab.cli
seen = {'import': scipy_modules(), 'torus': [], 'other': []}
for side, jobs in zip(('torus', 'other'), map(json.loads, sys.argv[2:])):
    for argv in jobs:
        argv += ['--seed', '1', '--size', '20', '--out', 'out']
        seen[side].append([argv[0], sobolab.cli.main(argv), scipy_modules()])
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def scipy_use(tmp_path_factory):
    src = str(Path(sobolab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, src, json.dumps(TORUS_JOBS),
         json.dumps(OTHER_JOBS)],
        cwd=tmp_path_factory.mktemp("jobs"), check=True, capture_output=True,
        text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(scipy_use):
    assert scipy_use["import"] == []


def test_torus_jobs_load_no_scipy(scipy_use):
    assert [job[:2] for job in scipy_use["torus"]] == [
        [argv[0], 0] for argv in TORUS_JOBS]
    assert all(modules == [] for _, _, modules in scipy_use["torus"])


def test_sphere_and_box_jobs_leave_scipy_unloaded(scipy_use):
    """Dense solves, sphere gradients and flows run on numpy alone."""
    assert [job[:2] for job in scipy_use["other"]] == [
        [argv[0], 0] for argv in OTHER_JOBS]
    assert all(modules == [] for _, _, modules in scipy_use["other"])


TAU_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from sobolab.constants import LogSobolevProfile, beta_from_sobolev, tau_of_t
tau_of_t(0.1, lambda s: beta_from_sobolev(2.0, 3.0, s))
tau_of_t(0.5, LogSobolevProfile(np.geomspace(1e-4, 1.0, 25),
                                np.linspace(3.0, 1.0, 25)))
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


def test_tau_of_t_loads_no_scipy():
    """Both rules of tau_of_t (a callable's and a measured profile's) are
    fixed numpy sums, with no adaptive quadrature."""
    src = str(Path(sobolab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", TAU_SCRIPT, src], check=True,
                          capture_output=True, text=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []
