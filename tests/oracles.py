"""Independent brute-force oracles and test fixtures. Every oracle recomputes
from first principles (itertools enumeration, bitmask tables) and never calls
the code path it is used to check. The fixtures at the end are what the
acceptance criteria call and the package does not ship: the Edwards floor,
two non-abelian groups, rank-1 Boolean rounding and the triple Hadamard
diagnostic. graph_balanced_subgraph is the reference for the index-set
balanced_subgraph: the earlier form, which balanced a Graph it was given.
loop_regular_partition is the reference for the array-built
regular_partition: the earlier form, which built its cells vertex by vertex."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from eigencliques import spectrum
from eigencliques.chowla import FiniteGroup
from eigencliques.densify import PhaseTrace
from eigencliques.errors import InputError
from eigencliques.graphs import block_edge_counts
from eigencliques.structure import _SCALED_BETA, _SCALED_H, RegularPartition


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


def brute_degrees_into(adj: np.ndarray, rows, cols) -> np.ndarray:
    """Neighbours in cols of each vertex in rows, one np.ix_ gather and sum."""
    return adj[np.ix_(list(rows), list(cols))].sum(axis=1, dtype=np.int64)


def union_find_blocks(adj: np.ndarray, cliques, merge_threshold: float):
    """Reference clique-union merge: the peeled cliques and the unpeeled
    vertices (as 1-cliques) are nodes, every pair with crossing density
    >= 1 - merge_threshold is joined in a union-find with path halving, and
    the classes become (sorted blocks of >= 2 vertices, sorted leftover)."""
    peeled = {v for c in cliques for v in c}
    nodes = [tuple(c) for c in cliques] + [(v,) for v in range(adj.shape[0]) if v not in peeled]
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sizes = np.asarray([len(node) for node in nodes], dtype=np.int64)
    dens = brute_block_edge_counts(adj, nodes) / np.outer(sizes, sizes)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if dens[i, j] >= 1.0 - merge_threshold:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i, node in enumerate(nodes):
        groups.setdefault(find(i), []).extend(node)
    merged = sorted(tuple(sorted(verts)) for verts in groups.values())
    return [b for b in merged if len(b) > 1], tuple(b[0] for b in merged if len(b) == 1)


def clique_union_model(n: int, blocks) -> np.ndarray:
    """Adjacency of the clique union with one clique per block, set pair by pair."""
    adj = np.zeros((n, n), dtype=np.uint8)
    for b in blocks:
        for u, v in itertools.combinations(b, 2):
            adj[u, v] = adj[v, u] = 1
    return adj


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


def loop_edge_adjacency(n: int, edges) -> np.ndarray:
    """Adjacency set edge by edge with from_edge_list's checks, in its order:
    per edge the range error, then the self-loop error."""
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        adj[u, v] = 1
        adj[v, u] = 1
    return adj


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


def outer_product_cosine_min(a_set) -> tuple[float, float]:
    """The former cosine_min: a 64*max(A) x |A| cosine outer product over all
    of [0, 2 pi), then ternary refinement to width 1e-12 around the grid argmin."""
    arr = np.asarray(sorted(set(a_set)), dtype=np.float64)
    points = 64 * int(arr[-1])

    def f(x: float) -> float:
        return float(np.cos(arr * x).sum())

    xs = 2.0 * np.pi * np.arange(points) / points
    vals = np.cos(np.outer(xs, arr)).sum(axis=1)
    i = int(np.argmin(vals))
    lo, hi = xs[i] - 2.0 * np.pi / points, xs[i] + 2.0 * np.pi / points
    while hi - lo > 1e-12:
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    x = (lo + hi) / 2.0
    return (float(xs[i]), float(vals[i])) if vals[i] < f(x) else (x, f(x))


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


def loop_escape(s: str) -> str:
    """The former serialize._escape: JSON string escaping one character at a time."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


# -- fixtures -----------------------------------------------------------------


def edwards_floor(m: int) -> float:
    """Edwards' lower bound m/2 + (sqrt(8m + 1) - 1)/8 on the maximum cut of an m-edge graph."""
    return m / 2.0 + (math.sqrt(8.0 * m + 1.0) - 1.0) / 8.0


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m; element a + m*b stands for r^a s^b."""
    n = 2 * m
    t = np.zeros((n, n), dtype=np.int64)
    for a1 in range(m):
        for b1 in range(2):
            for a2 in range(m):
                for b2 in range(2):
                    a = (a1 + (a2 if b1 == 0 else -a2)) % m
                    b = (b1 + b2) % 2
                    t[a1 + m * b1, a2 + m * b2] = a + m * b
    return FiniteGroup(t)


def symmetric_group(k: int) -> FiniteGroup:
    """Symmetric group on k letters via composition (p*q)(x) = p(q(x)); element
    i is the i-th permutation in lexicographic order."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    t = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            t[i, j] = index[tuple(p[q[x]] for x in range(k))]
    return FiniteGroup(t)


@dataclass
class BooleanRank1:
    x: np.ndarray
    y: np.ndarray
    eta: float
    residual: float
    delta: float
    delta_raised: bool


def rank1_boolean_round(u, v, a: np.ndarray, delta: float) -> BooleanRank1:
    """Round a real rank-1 approximation of a Boolean matrix to a combinatorial
    rectangle by thresholding at eta = delta^(1/6).

    Entries are replaced by absolute values and u, v rescaled to equal norms
    before thresholding. If |A - u v^T|_F^2 exceeds delta n^2 the measured
    value replaces delta and the result is flagged.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    u = np.abs(np.asarray(u, dtype=np.float64))
    v = np.abs(np.asarray(v, dtype=np.float64))
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


def triple_hadamard_diagnostic(g) -> dict:
    """Quadratic form of (B + |lambda_n| I)^{o3} at the all-ones vector.

    B is the adjacency matrix with the principal component removed, so
    B + |lambda_n| I is positive semidefinite and the Schur product theorem
    makes the whole cube PSD: the form must be nonnegative. Also returns the
    four-term expansion, which must reproduce the total exactly.
    """
    s = spectrum(g)
    a = g.adjacency.astype(np.float64)
    v1 = s.eigenvectors[:, 0]
    b = a - s.lambda_max * np.outer(v1, v1)
    c = abs(s.lambda_min)
    shifted = b + c * np.eye(g.n)
    total = float((shifted**3).sum())
    diag = np.diagonal(b)
    terms = {
        "cubic": float((b**3).sum()),
        "mixed_square": 3.0 * c * float((diag**2).sum()),
        "mixed_linear": 3.0 * c * c * float(diag.sum()),
        "identity": c**3 * g.n,
    }
    expansion = sum(terms.values())
    return {
        "total": total,
        "terms": terms,
        "expansion": expansion,
        "expansion_residual": abs(total - expansion),
        "shift_min_eig": float(np.linalg.eigvalsh(shifted)[0]),
        "lambda_n_abs": c,
    }


def graph_balanced_subgraph(g) -> PhaseTrace:
    """balanced_subgraph as it read a Graph (the complement is built by the
    caller), with its vertices labelled 0..n-1 and its degrees taken by
    np.ix_ gathers. Phase 3 passed it complement(induced_subgraph(g, S))."""

    def density(deg: np.ndarray) -> float:  # 1 for a single vertex, as densify._density
        k = len(deg)
        return (int(deg.sum()) // 2) / (k * (k - 1) / 2) if k > 1 else float(k == 1)

    def inner_degrees(idx: np.ndarray) -> np.ndarray:
        return g.adjacency[np.ix_(idx, idx)].sum(axis=1, dtype=np.int64)

    p0 = g.density
    if p0 > 0.2:
        raise InputError(f"balanced_subgraph needs density <= 1/5, got {p0:.3f}")
    current, deg, rounds = np.arange(g.n), g.degrees, 0
    while len(current) > 2 and (p_cur := density(deg)) > 0.0:
        r = int(math.ceil(len(current) / math.log2(1.0 / p_cur)))
        trimmed = np.sort(current[np.lexsort((current, -deg))[r:]])
        trimmed_deg = inner_degrees(trimmed)
        if density(trimmed_deg) >= p_cur / 2.0:
            break
        current, deg, rounds = trimmed, trimmed_deg, rounds + 1
    p_k = density(deg)
    if p_k > 0.0 and len(current) > 1:
        keep = deg < (len(current) - 1) * p_k * math.log2(1.0 / p_k)
        if keep.any():
            current = current[keep]
            deg = inner_degrees(current)
    out_p = density(deg)
    measured_c = float(deg.max() / deg.mean()) if deg.any() else None
    claimed_c = 4.0 * math.log2(1.0 / out_p) if out_p > 0 else None
    guarantee = {
        "claimed_balance": claimed_c,
        "measured_balance": measured_c,
        "met": bool(measured_c <= claimed_c) if (measured_c is not None and claimed_c is not None) else None,
        "measured_size": int(len(current)),
        "rounds": rounds,
    }
    return PhaseTrace(
        phase=3,
        vertices_in=tuple(range(g.n)),
        vertices_out=tuple(int(v) for v in current),
        density_in=p0,
        density_out=out_p,
        params={"rounds": rounds},
        guarantee=guarantee,
    )


def loop_regular_partition(g, delta: float, tol: float | None = None) -> RegularPartition:
    """regular_partition with its cells built in a per-vertex loop: a dict from
    each vertex's bucket tuple to its vertices, read in sorted key order, each
    cell's whole parts taken first and the spill and exceptional vertices
    chopped after them, then the parts past K moved to the remainder."""
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0,1)")
    n = g.n
    s = spectrum(g, tol)
    eps_target = delta * delta / 100.0 * n * n
    for kappa in [0.5 / 2**i for i in range(12)]:
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
    profile = {"profile": "scaled", "beta": beta, "h": h, "K": big_k, "kappa": kappa, "rank": r,
               "residual": residual, "irregular_bound": delta * big_k * big_k}
    return RegularPartition(parts=parts, remainder=remainder, delta=delta, pairs=pairs,
                            irregular_count=irregular, profile=profile)
