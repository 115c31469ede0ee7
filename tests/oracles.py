"""Independent brute-force oracles. Everything here recomputes from first
principles (itertools enumeration, bitmask tables) and never calls the code
path it is used to check."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def brute_maxcut(adj: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Maximum cut by plain itertools enumeration; first optimal assignment wins."""
    n = adj.shape[0]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
    best, best_sides = -1, tuple([0] * n)
    for bits in itertools.product([0, 1], repeat=max(n - 1, 0)):
        sides = (0,) + bits
        cut = sum(1 for u, v in edges if sides[u] != sides[v])
        if cut > best:
            best, best_sides = cut, sides
    return max(best, 0), best_sides


def brute_surplus(adj: np.ndarray) -> Fraction:
    m = int(adj.sum()) // 2
    return Fraction(brute_maxcut(adj)[0]) - Fraction(m, 2)


def local_optimum_cuts(adj: np.ndarray) -> list[int]:
    """Cut values of every 1-flip-stable partition (exhaustive)."""
    n = adj.shape[0]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
    out = []
    for bits in itertools.product([0, 1], repeat=n):
        stable = True
        for v in range(n):
            deg = int(adj[v].sum())
            cross = sum(1 for u in range(n) if adj[v, u] and bits[u] != bits[v])
            if deg - cross > cross:
                stable = False
                break
        if stable:
            out.append(sum(1 for u, v in edges if bits[u] != bits[v]))
    return out


def brute_bisection(adj: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Minimum cut over all floor(n/2)-subsets; the first optimal one in
    itertools.combinations order wins (for even n it contains vertex 0)."""
    n = adj.shape[0]
    best, best_set = None, ()
    for combo in itertools.combinations(range(n), n // 2):
        s = set(combo)
        cut = sum(1 for u in range(n) for v in range(u + 1, n) if adj[u, v] and ((u in s) != (v in s)))
        if best is None or cut < best:
            best, best_set = cut, combo
    return best, best_set


def brute_discrepancy(adj: np.ndarray) -> tuple[Fraction, Fraction]:
    n = adj.shape[0]
    m = int(adj.sum()) // 2
    denom = n * (n - 1) // 2
    p = Fraction(m, denom)
    best_p, best_m = Fraction(0), Fraction(0)
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            e = sum(1 for u, v in itertools.combinations(combo, 2) if adj[u, v])
            score = Fraction(e) - p * Fraction(r * (r - 1), 2)
            best_p = max(best_p, score)
            best_m = max(best_m, -score)
    return best_p, best_m


def brute_cherries(adj: np.ndarray) -> int:
    """Induced 2-paths by direct triple enumeration."""
    n = adj.shape[0]
    count = 0
    for trio in itertools.combinations(range(n), 3):
        e = sum(1 for u, v in itertools.combinations(trio, 2) if adj[u, v])
        if e == 2:
            count += 1
    return count


def brute_block_edge_counts(adj: np.ndarray, groups) -> np.ndarray:
    """Ordered adjacent pairs between every two groups, one np.ix_ sum per pair."""
    k = len(groups)
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            out[i, j] = int(adj[np.ix_(list(groups[i]), list(groups[j]))].sum())
    return out


def brute_triangles_per_vertex(adj: np.ndarray) -> list[int]:
    """Triangles through each vertex by direct triple enumeration."""
    n = adj.shape[0]
    count = [0] * n
    for trio in itertools.combinations(range(n), 3):
        if all(adj[u, v] for u, v in itertools.combinations(trio, 2)):
            for v in trio:
                count[v] += 1
    return count


def brute_neighbor_masks(n: int, edges) -> list[int]:
    """Neighbourhood bitmasks set edge by edge."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def brute_independence(adj: np.ndarray) -> int:
    n = adj.shape[0]
    best = 0
    for r in range(n, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(n), r):
            if all(not adj[u, v] for u, v in itertools.combinations(combo, 2)):
                best = r
                break
    return best


def loop_orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Column-by-column sign flip: first entry above 1e-8 * max |entry| made positive."""
    out = vecs.copy()
    for j in range(vecs.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > np.abs(col).max() * 1e-8)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def cosine_grid_min(a_set, points: int) -> float:
    xs = 2.0 * np.pi * np.arange(points) / points
    arr = np.asarray(sorted(a_set), dtype=np.float64)
    return float(np.cos(np.outer(xs, arr)).sum(axis=1).min())


class SevenVertexTables:
    """mc and surplus for every labelled graph on exactly `n` <= 7 vertices,
    indexed by the C(n,2)-bit edge mask."""

    def __init__(self, n: int = 7):
        assert n <= 7
        self.n = n
        self.pairs = list(itertools.combinations(range(n), 2))
        e = len(self.pairs)
        masks = np.arange(1 << e, dtype=np.uint32)
        mc = np.zeros(1 << e, dtype=np.int8)
        for bits in range(1 << (n - 1)):
            sides = [0] + [(bits >> i) & 1 for i in range(n - 1)]
            cm = 0
            for idx, (u, v) in enumerate(self.pairs):
                if sides[u] != sides[v]:
                    cm |= 1 << idx
            np.maximum(mc, np.bitwise_count(masks & np.uint32(cm)), out=mc)
        self.mc = mc
        self.m = np.bitwise_count(masks).astype(np.int16)
        self.masks = masks

    def edge_mask(self, adj: np.ndarray) -> int:
        mask = 0
        for idx, (u, v) in enumerate(self.pairs):
            if adj[u, v]:
                mask |= 1 << idx
        return mask

    def keep_mask(self, v: int) -> int:
        keep = 0
        for idx, (a, b) in enumerate(self.pairs):
            if v not in (a, b):
                keep |= 1 << idx
        return keep
