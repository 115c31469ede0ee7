"""Structure recovery: regularity partitions, cherry counting, clique-union
decomposition with exact edit distance, and bipartite pair classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable

import numpy as np

from .densify import peel_cliques
from .errors import InputError, NumericalError
from .graphs import Graph, _vertex_index, degrees_into, triangles_per_vertex
from .spectral import lambda_min, spectrum

__all__ = [
    "RegularPartition",
    "CliqueUnionDecomposition",
    "regular_partition",
    "cherry_count",
    "triangle_count",
    "clique_union_decompose",
    "pair_classify",
]

# Largest closeness (edit distance / n^2) reported as clique-union-like.
_CLIQUE_UNION_LIKE = 0.05
# Factor on 2 lambda_n^2 in pair_classify's Sparse and Dense thresholds.
_PAIR_SLACK = 3.0


# -- regularity partition ---------------------------------------------------------


@dataclass
class RegularPartition:
    parts: list[tuple[int, ...]]
    remainder: tuple[int, ...]
    delta: float
    pairs: list[dict]
    irregular_count: int
    profile: dict

    @property
    def K(self) -> int:
        return len(self.parts)

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "delta": self.delta,
            "pairs": self.pairs,
            "remainder": list(self.remainder),
            "profile": self.profile,
        }


# Bucket width of the scaled profile; unit eigenvectors have typical coordinate
# 1/sqrt(n), i.e. bucket index ~1/beta, so the window h must reach past that.
_SCALED_BETA = 0.1
_SCALED_H = int(math.ceil(2.0 / _SCALED_BETA))


def regular_partition(g: Graph, delta: float, tol: float | None = None) -> RegularPartition:
    """Equipartition from bucketed top eigenvector coordinates, with every part
    pair classified as full, empty, or irregular by its measured density.

    Coordinates of each kept eigenvector are bucketed at width beta/sqrt(n)
    over the window {-h..h}; vertices sharing all r bucket indices form cells,
    cells are chopped into K equal parts (spill goes to the exceptional set,
    which is chopped last). The constants are the scaled profile, worked out
    from n and delta: beta = 0.1, h = 20 and
    K = min(max(floor(1/delta) + 1, 8), max(n // 4, 2)), so n = 1 (K = 2)
    raises InputError. The profile is recorded in the output.
    """
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0,1)")
    n = g.n
    s = spectrum(g, tol)
    eps_target = delta * delta / 100.0 * n * n
    for kappa in [0.5 / 2**i for i in range(12)]:
        # Frobenius error of keeping the eigenvalues >= kappa n: the sum of the dropped ones squared
        keep = s.eigenvalues >= kappa * n
        residual = float((s.eigenvalues[~keep] ** 2).sum())
        if residual <= eps_target:
            break
    idx = np.flatnonzero(keep)
    r = max(int(idx.size), 1)
    beta, h = _SCALED_BETA, _SCALED_H
    big_k = min(max(int(1.0 / delta) + 1, 8), max(n // 4, 2))
    if big_k > n:
        raise InputError(f"K={big_k} parts exceed n={n} vertices")
    size = n // big_k
    buckets = np.floor(s.eigenvectors[:, idx] * math.sqrt(n) / beta).astype(np.int64)
    # all() over no columns is True: with no kept eigenvector every vertex is exceptional
    inside = (np.abs(buckets) <= h).all(axis=1) & bool(idx.size)
    # a cell is a distinct row of buckets[inside]; unique numbers the cells in lexicographic key order
    cell = np.unique(buckets[inside], axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(cell, kind="stable")
    by_cell, cell = np.flatnonzero(inside)[order], cell[order]  # cell by cell, each ascending
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)  # position within the cell
    whole = rank < (np.bincount(cell) // size * size)[cell]  # inside one of the cell's whole parts
    # the whole parts, then every cell's spill, then the exceptional vertices, chopped into
    # floor(n / size) >= K parts of size = floor(n / K); the rest is the remainder
    stream = np.concatenate([by_cell[whole], by_cell[~whole], np.flatnonzero(~inside)])
    parted = stream[: big_k * size]
    parts = [tuple(part) for part in parted.reshape(big_k, size).tolist()]
    remainder = tuple(sorted(stream[big_k * size :].tolist()))
    # every part has size vertices: one gather, summed over each size x size tile
    counts = g.adjacency[np.ix_(parted, parted)].reshape(big_k, size, big_k, size).sum(axis=(1, 3), dtype=np.int64)
    pairs = []
    irregular = 0
    for i in range(big_k):
        for j in range(i + 1, big_k):
            dens = float(counts[i, j]) / (len(parts[i]) * len(parts[j]))
            if dens >= 1.0 - delta:
                cls = "full"
            elif dens <= delta:
                cls = "empty"
            else:
                cls = "irregular"
                irregular += 1
            pairs.append({"i": i, "j": j, "density": dens, "class": cls})
    profile = {"profile": "scaled", "beta": beta, "h": h, "K": big_k, "kappa": kappa, "rank": r,
               "residual": residual, "irregular_bound": delta * big_k * big_k}
    return RegularPartition(
        parts=parts,
        remainder=remainder,
        delta=delta,
        pairs=pairs,
        irregular_count=irregular,
        profile=profile,
    )


# -- cherries ---------------------------------------------------------------------


def triangle_count(g: Graph) -> int:
    """Exact triangle count: the per-vertex counts see each triangle at its three corners."""
    t = int(triangles_per_vertex(g.adjacency).sum())
    if t % 3 != 0:
        raise NumericalError("per-vertex triangle counts not divisible by 3", float(t % 3))
    return t // 3


def cherry_count(g: Graph) -> int:
    """Number of induced paths on 3 vertices: sum C(deg,2) minus 3 triangles."""
    deg = g.degrees.astype(np.int64)
    paths2 = int((deg * (deg - 1) // 2).sum())
    return paths2 - 3 * triangle_count(g)


# -- clique-union decomposition ----------------------------------------------------


@dataclass
class CliqueUnionDecomposition:
    blocks: list[tuple[int, ...]]
    leftover: tuple[int, ...]
    edit_distance: int
    closeness: float
    cliques: list[tuple[int, ...]] = field(default_factory=list)
    clique_union_like: bool = True

    def to_json_dict(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "leftover": list(self.leftover),
            "edit_distance": self.edit_distance,
            "closeness": self.closeness,
        }


def clique_union_decompose(g: Graph, extractor: str = "pipeline") -> CliqueUnionDecomposition:
    """Peel off cliques, merge near-complete pairs, and measure the edit distance.

    The peeling and merging live in densify.peel_cliques, beside the clique
    search they call, at its size floor sqrt(n) and merge threshold n^(-1/6).
    The edit distance, the exact edge flips to the blocks' clique union, comes
    from block sizes and inner edge counts; it upper-bounds the distance to
    the nearest clique union. The two extractors can peel different cliques
    and so disagree: on clique_union([30, 20, 10]) with the pairs where
    pair_uniforms(102, i, j) < 0.03 flipped, "pipeline" returns blocks of 50
    and 10 vertices at edit distance 621, "greedy" the planted 30/20/10
    blocks at edit distance 59.
    """
    n = g.n
    cliques, blocks, leftover = peel_cliques(g, extractor, np.arange(g.n))
    # |E xor M| = m + |M| - 2 |E and M| for the model M of one clique per block
    model_edges = sum(len(b) * (len(b) - 1) // 2 for b in blocks)
    inner_edges = sum(int(degrees_into(g.adjacency, b, b).sum()) for b in blocks) // 2
    edit = g.m + model_edges - 2 * inner_edges
    closeness = edit / (n * n) if n else 0.0
    return CliqueUnionDecomposition(
        blocks=blocks,
        leftover=leftover,
        edit_distance=edit,
        closeness=closeness,
        cliques=cliques,
        clique_union_like=closeness <= _CLIQUE_UNION_LIKE,
    )


# -- pair classification ------------------------------------------------------------


def pair_classify(
    g: Graph,
    x_set: Iterable[int],
    y_set: Iterable[int],
    lambda_n: float | None = None,
    tol: float | None = None,
) -> dict:
    """Classify the bipartite graph between two equal cliques as Sparse, Dense,
    or Mixed, against the thresholds k|X| and |X|^2 - k|X| with k = _PAIR_SLACK * 2 lambda_n^2.

    lambda_n defaults to the measured smallest eigenvalue; pass the hypothesis
    value instead to probe a graph that is expected to violate it. A Mixed
    verdict reports a witness vertex with between 2*lambda_n^2 and
    |X| - 2*lambda_n^2 neighbours on the other side when one exists. A given
    lambda_n that is not finite, or a vertex not an integer in [0, n), is an InputError.
    """
    if lambda_n is not None and not (isinstance(lambda_n, Real) and math.isfinite(lambda_n)):
        raise InputError(f"lambda_n={lambda_n!r} must be a finite number")
    xs = _vertex_index(g.n, x_set)
    ys = _vertex_index(g.n, y_set)
    if np.intersect1d(xs, ys).size:
        raise InputError("X and Y must be disjoint")
    if len(xs) != len(ys):
        raise InputError("X and Y must have equal size")
    if not g.is_clique(xs) or not g.is_clique(ys):
        raise InputError("X and Y must both be cliques")
    if lambda_n is None:
        lambda_n = abs(lambda_min(g, tol))
    k_base = 2.0 * lambda_n * lambda_n
    k_eff = _PAIR_SLACK * k_base
    size = len(xs)
    deg_x = degrees_into(g.adjacency, xs, ys)
    crossing = int(deg_x.sum())
    if crossing <= k_eff * size:
        verdict = "Sparse"
    elif crossing >= size * size - k_eff * size:
        verdict = "Dense"
    else:
        verdict = "Mixed"
    witness = None
    if verdict == "Mixed":  # the first such vertex of X, else of Y
        verts, degs = np.concatenate([xs, ys]), np.concatenate([deg_x, degrees_into(g.adjacency, ys, xs)])
        hits = np.flatnonzero((k_base <= degs) & (degs <= size - k_base))
        if hits.size:
            witness = {"vertex": int(verts[hits[0]]), "neighbors_across": int(degs[hits[0]])}
    return {
        "class": verdict,
        "crossing_edges": crossing,
        "k": k_eff,
        "k_base": k_base,
        "lambda_n": lambda_n,
        "sparse_threshold": k_eff * size,
        "dense_threshold": size * size - k_eff * size,
        "witness": witness,
    }

