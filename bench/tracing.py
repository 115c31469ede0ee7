"""Layer spans for the traced benchmark run, recorded from outside the program.

The tracer replaces the public functions listed in ``LAYERS`` with timing
wrappers in every ``eigencliques`` module namespace that holds them (``spectrum``
is imported by name into ``densify``, ``cuts`` and ``structure``; ``dumps`` and
the edge-list functions into ``cli``), plus ``numpy.linalg.eigh`` and
``eigvalsh``. Spans are kept in memory as ``[name, start, end, parent, job]``
and are only turned into numbers, or written out, after the batch ends.

Self time is a span's duration minus the durations of its direct children.
A direct self-call (``dumps`` serialises nested values by calling itself)
is folded into the outer span rather than recorded, so one report is one span.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# module -> public functions wrapped; span names are "<module>.<function>".
LAYERS = {
    "graphs": ["read_edge_list", "format_edge_list", "induced_subgraph", "complement"],
    "spectral": ["spectrum", "eigen_bound_report", "verify_main_inequality"],
    "densify": ["clique_pipeline", "phase0_neighborhood", "phase1_densify", "phase2_dense_core", "phase3_clique"],
    "structure": ["clique_union_decompose", "cherry_count"],
    "cuts": ["maxcut_exact", "maxcut_local_search", "spectral_surplus_caps", "bisection_exact", "discrepancy"],
    "chowla": ["chowla_certificate", "cayley_graph", "cosine_min"],
    "serialize": ["dumps"],
    "cli": ["main"],
}
KERNELS = ["eigh", "eigvalsh"]  # numpy.linalg, recorded as "kernel.<name>"

DECOMPOSE = "structure.clique_union_decompose"


def _bisection_splits(n: int) -> int:
    # bisection_exact pins vertex 0 for even n and enumerates k-subsets for odd n
    if n <= 1:
        return 0
    k = n // 2
    return math.comb(n - 1, k - 1) if n % 2 == 0 else math.comb(n, k)


def _decompose_counts(counts: Counter, args, out, parent: str | None) -> None:
    n = args[0].n
    peeled = sum(len(c) for c in out.cliques)
    k = len(out.cliques) + (n - peeled)  # merge-step nodes: cliques plus residual singletons
    counts[f"{DECOMPOSE}.merge_pairs"] += k * (k - 1) // 2
    if parent == "cli.main":
        counts[f"{DECOMPOSE}.peels"] += len(out.cliques)


# Exact work counters: span name -> hook(counts, args, result, parent span name).
COUNTERS = {
    "graphs.read_edge_list": lambda c, a, out, p: c.update({"graphs.read_edge_list.edges": out.m}),
    "graphs.induced_subgraph": lambda c, a, out, p: c.update({"graphs.induced_subgraph.calls": 1}),
    "spectral.spectrum": lambda c, a, out, p: c.update({"spectral.spectrum.calls": 1}),
    "kernel.eigh": lambda c, a, out, p: c.update({"kernel.eigh.calls": 1, "kernel.eigh.n3": len(a[0]) ** 3}),
    "kernel.eigvalsh": lambda c, a, out, p: c.update({"kernel.eigvalsh.calls": 1, "kernel.eigvalsh.n3": len(a[0]) ** 3}),
    "densify.clique_pipeline": lambda c, a, out, p: c.update({"densify.clique_pipeline.calls": 1}),
    "densify.phase1_densify": lambda c, a, out, p: c.update({"densify.phase1_densify.rounds": len(out.params["steps"])}),
    DECOMPOSE: _decompose_counts,
    "cuts.maxcut_exact": lambda c, a, out, p: c.update({"cuts.maxcut_exact.patterns": 1 << max(a[0].n - 1, 0) if a[0].n else 0}),
    "cuts.bisection_exact": lambda c, a, out, p: c.update({"cuts.bisection_exact.splits": _bisection_splits(a[0].n)}),
    "chowla.cayley_graph": lambda c, a, out, p: c.update({"chowla.cayley_graph.n": out.n}),
    "serialize.dumps": lambda c, a, out, p: c.update({"serialize.dumps.bytes": len(out)}),
}


COUNT_NAMES = (
    "graphs.read_edge_list.edges",
    "graphs.induced_subgraph.calls",
    "spectral.spectrum.calls",
    "kernel.eigh.calls",
    "kernel.eigh.n3",
    "kernel.eigvalsh.calls",
    "kernel.eigvalsh.n3",
    "densify.clique_pipeline.calls",
    "densify.phase1_densify.rounds",
    f"{DECOMPOSE}.peels",
    f"{DECOMPOSE}.merge_pairs",
    "cuts.maxcut_exact.patterns",
    "cuts.bisection_exact.splits",
    "chowla.cayley_graph.n",
    "serialize.dumps.bytes",
)


class Tracer:
    """Collects spans and exact counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name: str, fn):
        hook = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            if parent >= 0 and self.spans[parent][0] == name:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.job]
            self.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, out, self.spans[parent][0] if parent >= 0 else None)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block, then restore."""
        targets = []  # (original, span name)
        for module, names in LAYERS.items():
            mod = sys.modules[f"eigencliques.{module}"]
            targets += [(getattr(mod, fn), f"{module}.{fn}") for fn in names]
        namespaces = [m for key, m in sys.modules.items() if key == "eigencliques" or key.startswith("eigencliques.")]
        restore = []
        for orig, name in targets:
            wrapped = self._wrap(name, orig)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        restore.append((mod, attr, orig))
        for fn in KERNELS:
            orig = getattr(np.linalg, fn)
            setattr(np.linalg, fn, self._wrap(f"kernel.{fn}", orig))
            restore.append((np.linalg, fn, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(restore):
                setattr(mod, attr, orig)

    def aggregate(self) -> dict:
        """Per-layer times in ms: self time for every span name, plus the inclusive
        time of the ``decompose`` command's own decomposition call."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for module, names in list(LAYERS.items()) + [("kernel", KERNELS)]:
            for fn in names:
                out[f"{module}.{fn}.ms"] = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            out[f"{name}.ms"] += (t1 - t0 - child[i]) * 1e3
        out[f"{DECOMPOSE}.self_ms"] = out.pop(f"{DECOMPOSE}.ms")
        out[f"{DECOMPOSE}.ms"] = sum(
            (t1 - t0) * 1e3
            for name, t0, t1, parent, _ in self.spans
            if name == DECOMPOSE and parent >= 0 and self.spans[parent][0] == "cli.main"
        )
        out["cli.main.self_ms"] = out.pop("cli.main.ms")
        return out

    def exact_counts(self) -> dict:
        return {key: int(self.counts.get(key, 0)) for key in COUNT_NAMES}

    def cli_wall_s(self) -> float:
        return sum(t1 - t0 for name, t0, t1, _, _ in self.spans if name == "cli.main")

