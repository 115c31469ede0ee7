"""The package's public surface: every exported name exists, and so does every
function the traced benchmark wraps (bench/tracing.py LAYERS), so a deletion
that would break the traced run fails here first. Submodules load on first
use: the import and command tests run in a fresh interpreter each, since this
one has long loaded every module."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eigencliques

MODULES = sorted(info.name for info in pkgutil.iter_modules(eigencliques.__path__))
EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(f"eigencliques.{m}"), "__all__")]
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layers() -> dict:
    """LAYERS read from the source, so the benchmark module is never imported."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


@pytest.mark.parametrize("module", EXPORTING)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"eigencliques.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_every_traced_layer_resolves():
    layers = _layers()
    assert set(layers) <= set(MODULES)
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"eigencliques.{module}"), name, None))
    ]
    assert not missing, missing


SRC = str(Path(eigencliques.__file__).resolve().parent.parent)
# the public names of `import eigencliques` while it still imported every module
EXPORTED = [
    "DegenerateInputError", "Graph", "InputError", "NumericalError", "Spectrum", "ToolkitError", "chowla",
    "clique_union", "complement", "complete", "cuts", "cycle", "densify", "errors", "from_edge_list", "generate",
    "gnp", "graphs", "h_k", "induced_subgraph", "path", "petersen", "read_edge_list", "spectral", "spectrum",
    "structure", "threshold_summary", "turan", "write_edge_list",
]


def _fresh(code: str) -> str:
    """The standard output of code, run in a new interpreter that imports eigencliques from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set[str]:
    report = "import json, sys; print(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] == 'eigencliques')))"
    return set(json.loads(_fresh(f"{code}\n{report}").splitlines()[-1]))


def test_import_loads_only_errors():
    assert _loaded_after("import eigencliques") == {"eigencliques", "eigencliques.errors"}


# every command loads the CLI, graphs, serialize and chowla (bench/tracing.py
# needs chowla in sys.modules; see cli.py), then the module it runs
_BASE = {"eigencliques", "eigencliques.errors", "eigencliques.cli", "eigencliques.graphs",
         "eigencliques.serialize", "eigencliques.chowla"}
_COMMAND_MODULES = {
    "gen": set(),
    "chowla": set(),
    "spectrum": {"spectral"},
    "bisect": {"cuts"},
    "maxcut": {"cuts", "spectral"},
    "clique": {"densify", "spectral"},
    "decompose": {"structure", "densify", "spectral"},
}


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_a_command_loads_only_its_modules(tmp_path, command):
    graph = tmp_path / "g.txt"
    eigencliques.write_edge_list(eigencliques.gnp(20, 0.5, 1), str(graph))
    out = str(tmp_path / "out")
    argv = {
        "gen": ["gen", "--params", "family=Cycle,n=20", "--output", out],
        "chowla": ["chowla", "1,2,5", "--output", out],
    }.get(command, [command, "--input", str(graph), "--output", out])
    loaded = _loaded_after(f"from eigencliques import cli\nassert cli.main({argv!r}) == 0")
    assert loaded == _BASE | {f"eigencliques.{m}" for m in _COMMAND_MODULES[command]}


def test_every_exported_name_still_resolves():
    code = f"""
import eigencliques as ec
from eigencliques import spectrum
assert spectrum is ec.spectral.spectrum and ec.Graph is ec.graphs.Graph
assert ec.__version__ == "0.1.0"
names = {{}}
exec("from eigencliques import *", names)
assert set({EXPORTED!r}) <= set(names) & set(dir(ec)), set({EXPORTED!r}) - (set(names) & set(dir(ec)))
for name in {EXPORTED!r}:
    assert getattr(ec, name) is names[name], name
try:
    ec.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown attribute resolved")
assert not hasattr(ec, "no_such_name")
"""
    _fresh(code)
