"""The package's public surface: every exported name exists, and so does every
function the traced benchmark wraps (bench/tracing.py LAYERS), so a deletion
that would break the traced run fails here first."""

import ast
import importlib
import pkgutil
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
