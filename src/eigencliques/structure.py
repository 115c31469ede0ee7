"""Structure recovery: low-rank spectral approximation, regularity partitions,
cherry counting, clique-union decomposition with exact edit distance,
bipartite pair classification, and rank-1 Boolean rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .densify import peel_cliques
from .errors import InputError, NumericalError
from .graphs import Graph, block_edge_counts, triangles_per_vertex
from .spectral import Spectrum, spectrum

__all__ = [
    "RegularPartition",
    "CliqueUnionDecomposition",
    "BooleanRank1",
    "low_rank_approx",
    "regular_partition",
    "scaled_regularity_constants",
    "asymptotic_regularity_constants",
    "cherry_count",
    "triangle_count",
    "clique_union_decompose",
    "pair_classify",
    "rank1_boolean_round",
]

# Largest closeness (edit distance / n^2) reported as clique-union-like.
_CLIQUE_UNION_LIKE = 0.05
# Factor on 2 lambda_n^2 in pair_classify's Sparse and Dense thresholds.
_PAIR_SLACK = 3.0


# -- low-rank approximation -----------------------------------------------------


def low_rank_approx(s: Spectrum, kappa: float) -> tuple[np.ndarray, float]:
    """Keep the spectral components with eigenvalue >= kappa*n.

    Returns (B, residual) with residual = sum of the squared dropped
    eigenvalues, computed exactly from the spectrum. The rank of B is at most
    kappa^-2 since each kept eigenvalue contributes (kappa n)^2 to |A|_F^2 <= n^2.
    """
    if not (0.0 < kappa <= 1.0):
        raise InputError("kappa must lie in (0, 1]")
    n = s.n
    keep = s.eigenvalues >= kappa * n
    idx = np.flatnonzero(keep)
    vs = s.eigenvectors[:, idx]
    b = (vs * s.eigenvalues[idx]) @ vs.T if idx.size else np.zeros((n, n))
    residual = float((s.eigenvalues[~keep] ** 2).sum())
    assert idx.size <= 1.0 / kappa**2 + 1e-9
    return b, residual


# -- regularity partition ---------------------------------------------------------


@dataclass
class RegularPartition:
    parts: list[tuple[int, ...]]
    remainder: tuple[int, ...]
    delta: float
    pairs: list[dict]
    irregular_count: int
    profile: dict
    remainder_policy: str = "floor equipartition; n mod (n//K) trailing vertices unassigned"

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


def asymptotic_regularity_constants(r: int, delta: float) -> dict:
    beta = 1e-3 * math.sqrt(delta) * r**-1.5
    h = int(math.ceil(1e4 * r * r / delta))
    big_i = (2 * h + 1) ** r
    return {"profile": "asymptotic", "beta": beta, "h": h, "K": int(math.ceil(big_i / (8.0 * delta)))}


# Bucket width of the scaled profile; unit eigenvectors have typical coordinate
# 1/sqrt(n), i.e. bucket index ~1/beta, so the window h must reach past that.
_SCALED_BETA = 0.1
_SCALED_H = int(math.ceil(2.0 / _SCALED_BETA))


def scaled_regularity_constants(n: int, r: int, delta: float) -> dict:
    k = min(max(int(1.0 / delta) + 1, 8), max(n // 4, 2))
    return {"profile": "scaled", "beta": _SCALED_BETA, "h": _SCALED_H, "K": k}


def regular_partition(
    g: Graph,
    delta: float,
    constants: dict | None = None,
    tol: float | None = None,
) -> RegularPartition:
    """Equipartition from bucketed top eigenvector coordinates, with every part
    pair classified as full, empty, or irregular by its measured density.

    Coordinates of each kept eigenvector are bucketed at width beta/sqrt(n)
    over the window {-h..h}; vertices sharing all r bucket indices form cells,
    cells are chopped into K equal parts (spill goes to the exceptional set,
    which is chopped last). constants default to
    scaled_regularity_constants(n, r, delta); the paper's
    asymptotic_regularity_constants give K far above n at desk scale and
    raise. The profile used is recorded in the output.
    """
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0,1)")
    n = g.n
    s = spectrum(g, tol)
    eps_target = delta * delta / 100.0 * n * n
    for kappa in [0.5 / 2**i for i in range(12)]:
        if low_rank_approx(s, kappa)[1] <= eps_target:
            break
    _, residual = low_rank_approx(s, kappa)
    idx = np.flatnonzero(s.eigenvalues >= kappa * n)
    r = max(int(idx.size), 1)
    if constants is None:
        constants = scaled_regularity_constants(n, r, delta)
    beta, h, big_k = constants["beta"], int(constants["h"]), int(constants["K"])
    if big_k > n:
        raise InputError(
            f"K={big_k} exceeds n={n}; use scaled_regularity_constants for desk-scale runs"
        )
    size = n // big_k
    if size == 0:
        raise InputError("K too large: parts would be empty")
    cells: dict[tuple, list[int]] = {}
    exceptional: list[int] = []
    if idx.size:
        w = s.eigenvectors[:, idx]
        buckets = np.floor(w * math.sqrt(n) / beta).astype(np.int64)
        for v in range(n):
            key = tuple(int(x) for x in buckets[v])
            if all(-h <= x <= h for x in key):
                cells.setdefault(key, []).append(v)
            else:
                exceptional.append(v)
    else:
        exceptional = list(range(n))
    parts: list[tuple[int, ...]] = []
    spill: list[int] = []
    for key in sorted(cells):
        vs = cells[key]
        full = len(vs) // size
        for i in range(full):
            parts.append(tuple(vs[i * size : (i + 1) * size]))
        spill.extend(vs[full * size :])
    stream = spill + exceptional
    for i in range(len(stream) // size):
        parts.append(tuple(stream[i * size : (i + 1) * size]))
    remainder = tuple(stream[(len(stream) // size) * size :])
    if len(parts) < big_k:
        raise InputError("could not assemble K parts; decrease K")
    extra = parts[big_k:]
    parts = parts[:big_k]
    remainder = tuple(sorted(remainder + tuple(v for p in extra for v in p)))
    counts = block_edge_counts(g.adjacency, parts)
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
    profile = dict(constants)
    profile.update({"kappa": kappa, "rank": r, "residual": residual, "irregular_bound": delta * big_k * big_k})
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
    model_adjacency: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "leftover": list(self.leftover),
            "edit_distance": self.edit_distance,
            "closeness": self.closeness,
        }


def clique_union_decompose(
    g: Graph,
    floor: float | None = None,
    merge_threshold: float | None = None,
    extractor: str = "pipeline",
) -> CliqueUnionDecomposition:
    """Peel off cliques, merge near-complete pairs, and measure the edit distance.

    The peeling and merging live in densify.peel_cliques, beside the clique
    search they call; floor, merge_threshold and extractor are passed to it.
    The edit distance counts exact edge flips between the input and the block
    clique-union model; it upper-bounds the distance to the nearest clique
    union. The two extractors can peel different cliques and so disagree: on
    clique_union([30, 20, 10]) with the pairs where pair_uniforms(102, i, j)
    < 0.03 flipped, "pipeline" returns blocks of 50 and 10 vertices at edit
    distance 621, "greedy" the planted 30/20/10 blocks at edit distance 59.
    """
    n = g.n
    cliques, blocks, leftover = peel_cliques(g, extractor, floor, merge_threshold)
    model = np.zeros((n, n), dtype=np.uint8)
    for b in blocks:
        model[np.ix_(b, b)] = 1
    np.fill_diagonal(model, 0)
    edit = int((g.adjacency != model).sum()) // 2
    closeness = edit / (n * n) if n else 0.0
    return CliqueUnionDecomposition(
        blocks=blocks,
        leftover=leftover,
        edit_distance=edit,
        closeness=closeness,
        cliques=cliques,
        clique_union_like=closeness <= _CLIQUE_UNION_LIKE,
        model_adjacency=model,
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
    |X| - 2*lambda_n^2 neighbours on the other side when one exists.
    """
    xs = sorted(set(int(v) for v in x_set))
    ys = sorted(set(int(v) for v in y_set))
    if set(xs) & set(ys):
        raise InputError("X and Y must be disjoint")
    if len(xs) != len(ys):
        raise InputError("X and Y must have equal size")
    if not g.is_clique(xs) or not g.is_clique(ys):
        raise InputError("X and Y must both be cliques")
    if lambda_n is None:
        lambda_n = abs(spectrum(g, tol).lambda_min)
    k_base = 2.0 * lambda_n * lambda_n
    k_eff = _PAIR_SLACK * k_base
    size = len(xs)
    block = g.adjacency[np.ix_(xs, ys)]
    crossing = int(block.sum())
    if crossing <= k_eff * size:
        verdict = "Sparse"
    elif crossing >= size * size - k_eff * size:
        verdict = "Dense"
    else:
        verdict = "Mixed"
    witness = None
    if verdict == "Mixed":
        for verts, degs in ((xs, block.sum(axis=1)), (ys, block.sum(axis=0))):
            for v, dv in zip(verts, degs):
                if k_base <= float(dv) <= size - k_base:
                    witness = {"vertex": int(v), "neighbors_across": int(dv)}
                    break
            if witness:
                break
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


# -- rank-1 Boolean rounding ----------------------------------------------------------


@dataclass
class BooleanRank1:
    x: np.ndarray
    y: np.ndarray
    eta: float
    residual: float
    delta: float
    delta_raised: bool

    def to_json_dict(self) -> dict:
        return {
            "x": self.x.astype(int).tolist(),
            "y": self.y.astype(int).tolist(),
            "eta": self.eta,
            "residual": self.residual,
            "delta": self.delta,
            "delta_raised": self.delta_raised,
        }


def rank1_boolean_round(u: Sequence[float], v: Sequence[float], a: np.ndarray, delta: float) -> BooleanRank1:
    """Round a real rank-1 approximation of a Boolean matrix to a combinatorial
    rectangle by thresholding at eta = delta^(1/6).

    Entries are replaced by absolute values and u, v rescaled to equal norms
    before thresholding. If |A - u v^T|_F^2 exceeds delta n^2 the measured
    value replaces delta and the result is flagged.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise InputError("A must be square")
    if ((a != 0) & (a != 1)).any():
        raise InputError("A must be Boolean")
    u = np.abs(np.asarray(u, dtype=np.float64))
    v = np.abs(np.asarray(v, dtype=np.float64))
    if u.shape != (n,) or v.shape != (n,):
        raise InputError("u, v must be length-n vectors")
    measured = float(((a - np.outer(u, v)) ** 2).sum())
    raised = False
    if measured > delta * n * n:
        delta = measured / (n * n) if n else 0.0
        raised = True
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu > 0 and nv > 0:
        s = math.sqrt(nu * nv)
        u = u * (s / nu)
        v = v * (s / nv)
    eta = delta ** (1.0 / 6.0)
    x = (u >= eta).astype(np.uint8)
    y = (v >= eta).astype(np.uint8)
    residual = float(((a - np.outer(x, y)) ** 2).sum())
    return BooleanRank1(x=x, y=y, eta=eta, residual=residual, delta=delta, delta_raised=raised)
