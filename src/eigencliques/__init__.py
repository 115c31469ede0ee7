"""Spectral graph-structure toolkit.

Dense graphs, threshold spectral sums and their recursive inequality, MaxCut
surplus certificates, a densification pipeline that mines large cliques from
graphs with tame smallest eigenvalue, clique-union decomposition, and the
Cayley-graph route to cosine-polynomial minima.
"""

__version__ = "0.1.0"

from . import chowla, cuts, densify, graphs, spectral, structure  # noqa: F401
from .errors import (  # noqa: F401
    DegenerateInputError,
    InputError,
    NumericalError,
    ToolkitError,
)
from .graphs import (  # noqa: F401
    Graph,
    clique_union,
    complement,
    complete,
    cycle,
    from_edge_list,
    generate,
    gnp,
    h_k,
    induced_subgraph,
    path,
    petersen,
    read_edge_list,
    turan,
    write_edge_list,
)
from .spectral import Spectrum, spectrum, threshold_summary  # noqa: F401
