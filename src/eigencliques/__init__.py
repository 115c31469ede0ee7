"""Spectral graph-structure toolkit.

Dense graphs, threshold spectral sums and their recursive inequality, MaxCut
surplus certificates, a densification pipeline that mines large cliques from
graphs with tame smallest eigenvalue, clique-union decomposition, and the
Cayley-graph route to cosine-polynomial minima.

Importing the package loads only ``errors``. Each submodule, and each name
re-exported here (``Graph``, ``spectrum``, ``read_edge_list``, ...), is
imported on first access, so a process compiles only the modules it uses.
"""

from importlib import import_module as _import_module

from .errors import DegenerateInputError, InputError, NumericalError, ToolkitError

__version__ = "0.1.0"

_SUBMODULES = ("chowla", "cli", "cuts", "densify", "graphs", "serialize", "spectral", "structure")
# re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Graph", "clique_union", "complement", "complete", "cycle", "from_edge_list", "generate", "gnp", "h_k",
         "induced_subgraph", "path", "petersen", "read_edge_list", "turan", "write_edge_list"),
        "graphs",
    ),
    **dict.fromkeys(("Spectrum", "spectrum", "threshold_summary"), "spectral"),
}

__all__ = [
    "chowla", "cuts", "densify", "errors", "graphs", "spectral", "structure",
    "DegenerateInputError", "InputError", "NumericalError", "ToolkitError",
    *_EXPORTS,
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
