"""MaxCut, surplus, spectral surplus certificates, bisection width, discrepancy.

Exact routines read one table of subset edge counts and are gated by size
limits; the surplus lower bounds come from closed-form spectral certificates
rather than solving the semidefinite relaxation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, SizeError
from .graphs import Graph, _vertex_index, block_edge_counts, degrees_into, neighbor_masks, pair_uniforms
from .spectral import lambda_min, spectrum

__all__ = [
    "CutReport",
    "SurplusBounds",
    "DiscrepancyReport",
    "EXHAUSTIVE_CUT_LIMIT",
    "EXHAUSTIVE_SUBSET_LIMIT",
    "maxcut_exact",
    "maxcut_local_search",
    "surplus_lb_spectral",
    "spectral_surplus_caps",
    "unbalanced_cut",
    "bisection_exact",
    "discrepancy",
    "cut_size",
]

EXHAUSTIVE_CUT_LIMIT = 24
EXHAUSTIVE_SUBSET_LIMIT = 20
# Constant of the quadratic surplus bound c / sqrt(Delta*+1) * sum lambda^2.
_SURPLUS_C = 1.0 / 60.0
# Slack allowed when unbalanced_cut checks its biased-cut guarantee.
_UNBALANCED_TOL = 1e-12
# Seed of the heuristic discrepancy's disc+ start; disc- starts from the next one.
_DISCREPANCY_SEED = 0
# Subset masks handled per step when the exact routines build or scan the
# subset table: temporaries stay ~1 MiB whatever n is.
_BLOCK = 1 << 16


@dataclass
class CutReport:
    """A cut with its size, surplus (exact rational), and attached certificates."""

    partition: tuple[int, ...]
    cut_size: int
    surplus: Fraction
    method: str
    certificates: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.cut_size,
            "surplus": float(self.surplus),
            "partition": list(self.partition),
            "certificates": self.certificates,
        }


def cut_size(g: Graph, partition: Sequence[int]) -> int:
    """Number of edges crossing the 0/1 assignment; recomputed from scratch in O(n) extra memory."""
    sides = np.asarray(partition)
    if sides.shape != (g.n,):
        raise InputError("partition length must equal n")
    if not np.isin(sides, (0, 1)).all():
        raise InputError("partition entries must be 0 or 1")
    one = sides == 1
    # side-1 neighbour count of every vertex, summed over side 0
    return int(g.adjacency.sum(axis=0, dtype=np.int64, where=one[:, None])[~one].sum())


def _surplus(g: Graph, cut: int) -> Fraction:
    return Fraction(cut) - Fraction(g.m, 2)


def _blocks(lo: int, hi: int):
    """(start, stop) ranges of at most _BLOCK masks that cover lo..hi - 1 in order."""
    for start in range(lo, hi, _BLOCK):
        yield start, min(start + _BLOCK, hi)


def _subset_edge_counts(adj: np.ndarray) -> np.ndarray:
    """e(G[U]) for every subset U, indexed by bitmask (bit i = row i).

    Built by doubling: e[U | {v}] = e[U] + |N(v) & U| for every U below bit v,
    one block of at most _BLOCK masks at a time, so the int16 table is the only
    2^n-sized array. A cut then needs no edge loop: cut(U) = m - e[U] - e[~U],
    where e[~U] over a block lo..hi - 1 is e[2^n - hi : 2^n - lo][::-1].
    Callers refuse n > EXHAUSTIVE_CUT_LIMIT first, which keeps the table at
    32 MiB and every count at most C(24, 2) = 276, so int16 cannot wrap.
    """
    n = adj.shape[0]
    nbr = neighbor_masks(adj)
    e = np.zeros(1 << n, dtype=np.int16)
    for v in range(1, n):
        half = 1 << v
        for lo, hi in _blocks(0, half):
            e[half + lo : half + hi] = e[lo:hi] + np.bitwise_count(np.arange(lo, hi, dtype=np.uint32) & nbr[v])
    return e


def maxcut_exact(g: Graph) -> CutReport:
    """Optimal cut over all 2^(n-1) sign patterns (vertex 0 fixed to side 0).

    Ties break to the lexicographically smallest optimal assignment. Above
    EXHAUSTIVE_CUT_LIMIT vertices it raises SizeError before allocating.
    """
    n = g.n
    if n > EXHAUSTIVE_CUT_LIMIT:
        raise SizeError(f"n={n} exceeds exhaustive limit {EXHAUSTIVE_CUT_LIMIT}; use maxcut_local_search")
    if n == 0:
        return CutReport((), 0, Fraction(0), "exact")
    # vertex v is bit n-1-v: masks with vertex 0 on side 0 form the first half,
    # in lexicographic order of the assignment
    e = _subset_edge_counts(g.adjacency[::-1, ::-1])
    full = 1 << n
    # the cut is m - (e[U] + e[~U]): keep the first minimum of that sum
    best_k, best_inner = 0, g.m + 1
    for lo, hi in _blocks(0, full >> 1):
        inner = e[lo:hi] + e[full - hi : full - lo][::-1]
        k = int(np.argmin(inner))
        if inner[k] < best_inner:
            best_k, best_inner = lo + k, int(inner[k])
    best_cut = g.m - best_inner
    partition = tuple((best_k >> (n - 1 - v)) & 1 for v in range(n))
    return CutReport(partition, best_cut, _surplus(g, best_cut), "exact")


def _hill_climb(adj: np.ndarray, x: np.ndarray, alpha: int, beta: int, c) -> np.ndarray:
    """1-flip ascent of f(x) = alpha e(X) + beta C(|X|, 2) + c.x over 0/1 vectors, X = {v : x_v = 1}.

    h_v = alpha |N(v) & X| + beta |X - {v}| + c_v, so flipping v gains
    h_v (1 - 2 x_v). Vertices are visited in order 0..n-1 and flipped on a
    strictly positive gain until a full pass flips none; a flip moves h by
    +-(alpha adj[v] + beta), except at v itself. Extra memory is O(n).
    """
    x = x.astype(np.int8)
    alpha, beta = np.int64(alpha), np.int64(beta)
    h = alpha * adj.sum(axis=0, dtype=np.int64, where=(x == 1)[:, None]) + beta * (x.sum(dtype=np.int64) - x) + c
    improved = True
    while improved:
        improved = False
        for v in range(len(x)):
            sign = 1 - 2 * int(x[v])
            if sign * int(h[v]) > 0:
                x[v] ^= 1
                h += sign * (alpha * adj[v] + beta)
                h[v] -= sign * beta
                improved = True
    return x


def maxcut_local_search(g: Graph, seed: int = 0) -> CutReport:
    """1-flip local optimum: every vertex has at least half its edges crossing."""
    n = g.n
    if n == 0:
        return CutReport((), 0, Fraction(0), "local-search")
    u = pair_uniforms(seed, np.arange(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64))
    # f = sum of degrees over X - 2 e(X) = e(X, V - X), the cut
    sides = _hill_climb(g.adjacency, u < 0.5, -2, 0, g.degrees)
    cut = cut_size(g, sides)
    return CutReport(tuple(int(x) for x in sides), cut, _surplus(g, cut), "local-search")


@dataclass
class SurplusBounds:
    """Closed-form spectral bounds on the surplus relaxation."""

    lb_linear: float
    lb_quadratic: float
    lb_cubic: float
    ub_lambda: float
    ub_surp_quarter: float
    c: float
    certificate_diag_ok: bool
    diagnostics: dict = field(default_factory=dict)


def surplus_lb_spectral(g: Graph, tol: float | None = None) -> SurplusBounds:
    """Lower bounds on surp* from the negative spectrum, with PSD certificates.

    The linear bound is exact: -<A, X> for X the projector onto the negative
    eigenspace; X has unit-capped diagonal. The cubic bound scales that
    projector by beta = 1/(120 (Delta*+1)) against squared eigenvalues. Both
    certificate matrices are checked for positive semidefiniteness and the
    diagonal cap; a failure flags the result but the values are still reported.
    """
    s = spectrum(g, tol)
    tol = s.tol
    n = g.n
    neg = np.flatnonzero(s.eigenvalues < 0)
    lam_neg = np.abs(s.eigenvalues[neg])
    delta_star = min(g.max_degree, n - 1 - int(g.degrees.min()))  # min(Delta, Delta of the complement)
    beta = 1.0 / (120.0 * (delta_star + 1.0))
    lb_linear = float(lam_neg.sum())
    lb_quadratic = float(_SURPLUS_C / math.sqrt(delta_star + 1.0) * (lam_neg**2).sum())
    lb_cubic = float(beta * (lam_neg**3).sum())
    diag_ok = True
    diagnostics: dict = {"delta_star": delta_star, "beta": beta}
    if neg.size:
        v_neg = s.eigenvectors[:, neg]
        a = g.adjacency.astype(np.float64)
        x1 = v_neg @ v_neg.T
        x3 = beta * (v_neg * (lam_neg**2)) @ v_neg.T
        for name, x in (("X_linear", x1), ("X_cubic", x3)):
            evs = np.linalg.eigvalsh(x)
            psd_ok = bool(evs[0] >= -tol * max(1.0, abs(evs[-1])))
            dcap_ok = bool(np.diagonal(x).max() <= 1.0 + tol)
            diagnostics[name] = {"min_eig": float(evs[0]), "max_diag": float(np.diagonal(x).max()), "psd_ok": psd_ok, "diag_ok": dcap_ok}
            diag_ok = diag_ok and psd_ok and dcap_ok
        pairing = -float((a * x1).sum())
        diagnostics["linear_pairing"] = pairing
        diag_ok = diag_ok and abs(pairing - lb_linear) <= tol * max(1.0, lb_linear)
    lam_n = abs(s.lambda_min)  # ub_surp_quarter is spectral_surplus_caps's cap, from the same spectrum
    return SurplusBounds(
        lb_linear=lb_linear,
        lb_quadratic=lb_quadratic,
        lb_cubic=lb_cubic,
        ub_lambda=lam_n * n,
        ub_surp_quarter=lam_n * n / 4.0,
        c=_SURPLUS_C,
        certificate_diag_ok=diag_ok,
        diagnostics=diagnostics,
    )


def spectral_surplus_caps(g: Graph, tol: float | None = None) -> float:
    """Upper cap |lambda_n| n / 4 on the surplus of every cut.

    An edgeless graph (n = 0 included, which lambda_min refuses) gets 0.0.
    """
    if g.n == 0 or g.m == 0:
        return 0.0
    return abs(lambda_min(g, tol)) * g.n / 4.0


def unbalanced_cut(g: Graph, x_side: Iterable[int]) -> CutReport:
    """Cut guarantee from an unbalanced split (X, Y).

    With a = e(G[X]), b = e(G[X,Y]), c = e(G[Y]): if a <= b/2 the plain cut
    (X, Y) already has surplus (b-a-c)/2. Otherwise the randomized biased cut
    with inclusion probability 1/2 + b/(4a) is derandomized by greedy
    conditional-expectation rounding, meeting surplus b^2/(8a) - c/2.
    """
    xi = _vertex_index(g.n, x_side)
    if not len(xi):
        raise InputError("X must be a nonempty subset of the vertices")
    yi = np.setdiff1d(np.arange(g.n), xi)
    if not len(yi):
        raise InputError("Y = V \\ X must be nonempty")
    xs = xi.tolist()
    counts = block_edge_counts(g.adjacency, [xi, yi])
    a, b, c = int(counts[0, 0]) // 2, int(counts[0, 1]), int(counts[1, 1]) // 2
    certs: dict = {"a": a, "b": b, "c": c}
    if a <= b / 2.0:
        sides = [0] * g.n
        for v in xs:
            sides[v] = 1
        cut = cut_size(g, sides)
        certs.update({"branch": "plain", "guarantee": (b - a - c) / 2.0})
        return CutReport(tuple(sides), cut, _surplus(g, cut), "unbalanced", certs)
    p = min(max(b / (4.0 * a), 0.0), 0.5 - 1e-15)
    q = 0.5 + p
    in_u: dict[int, bool] = {}
    deg_y = dict(zip(xs, degrees_into(g.adjacency, xi, yi).tolist()))
    for v in xs:
        delta = float(deg_y[v])
        for w in xs:
            if w == v or not g.adjacency[v, w]:
                continue
            if w in in_u:
                delta += -1.0 if in_u[w] else 1.0
            else:
                delta += 1.0 - 2.0 * q
        in_u[v] = delta >= 0.0
    sides = [0] * g.n
    for v in xs:
        if in_u[v]:
            sides[v] = 1
    cut = cut_size(g, sides)
    guarantee = b * b / (8.0 * a) - c / 2.0
    certs.update({"branch": "biased", "p": p, "guarantee": guarantee})
    report = CutReport(tuple(sides), cut, _surplus(g, cut), "unbalanced", certs)
    certs["guarantee_met"] = bool(float(report.surplus) >= guarantee - _UNBALANCED_TOL)
    return report


@dataclass
class DiscrepancyReport:
    """Bisection width, deficit, and positive/negative discrepancy with witnesses."""

    bw: int | None = None
    dfc: Fraction | None = None
    disc_plus: Fraction | None = None
    disc_minus: Fraction | None = None
    witnesses: dict = field(default_factory=dict)
    method: str = "exact"

    def to_json_dict(self) -> dict:
        out: dict = {"method": self.method}
        if self.bw is not None:
            out["bw"] = self.bw
            out["dfc"] = float(self.dfc)
        if self.disc_plus is not None:
            out["disc_plus"] = float(self.disc_plus)
            out["disc_minus"] = float(self.disc_minus)
        out["witnesses"] = {k: list(v) for k, v in self.witnesses.items()}
        return out


def bisection_exact(g: Graph) -> DiscrepancyReport:
    """Minimum balanced cut over all floor(n/2) / ceil(n/2) splits, plus deficit.

    There is no heuristic path: above EXHAUSTIVE_CUT_LIMIT vertices it raises
    SizeError before allocating.
    """
    n = g.n
    if n > EXHAUSTIVE_CUT_LIMIT:
        raise SizeError(f"n={n} exceeds the exhaustive bisection limit {EXHAUSTIVE_CUT_LIMIT}")
    if n <= 1:
        return DiscrepancyReport(bw=0, dfc=Fraction(0), witnesses={"bisection": [0] * n})
    # vertex v is bit n-1-v; for even n vertex 0 stays on the k-side (the top
    # half), so each unordered partition appears once
    e = _subset_edge_counts(g.adjacency[::-1, ::-1])
    full = 1 << n
    # the cut is m - (e[U] + e[~U]) over masks U with n // 2 bits; ties go to
    # the largest mask (the k-side that is first in sorted order), so keep the
    # last maximum of that sum
    best_mask, best_inner = -1, 0
    for lo, hi in _blocks(0 if n % 2 else full >> 1, full):
        balanced = np.bitwise_count(np.arange(lo, hi, dtype=np.uint32)) == n // 2
        inner = np.where(balanced, e[lo:hi] + e[full - hi : full - lo][::-1], -1)
        k = hi - lo - 1 - int(np.argmax(inner[::-1]))
        if inner[k] >= best_inner:
            best_mask, best_inner = lo + k, int(inner[k])
    best = g.m - best_inner
    dfc = Fraction(g.m) * (Fraction(1, 2) + Fraction(1, 2 * n - 2)) - best
    sides = [(best_mask >> (n - 1 - v)) & 1 for v in range(n)]
    return DiscrepancyReport(bw=best, dfc=dfc, witnesses={"bisection": sides})


def discrepancy(g: Graph) -> DiscrepancyReport:
    """disc+ and disc- with witness subsets.

    Exact from the subset edge-count table when n <= EXHAUSTIVE_SUBSET_LIMIT,
    1-flip local search otherwise.
    """
    n = g.n
    if n <= 1 or g.m == 0:
        return DiscrepancyReport(disc_plus=Fraction(0), disc_minus=Fraction(0), witnesses={"disc_plus": [], "disc_minus": []})
    denom = n * (n - 1) // 2
    if n <= EXHAUSTIVE_SUBSET_LIMIT:
        # disc+ scaled by C(n,2): e[U] C(n,2) - m C(|U|,2), each term at most
        # 190^2 for n <= 20, so int32 holds it; keep the first argmax and argmin
        e = _subset_edge_counts(g.adjacency)
        k = np.arange(n + 1, dtype=np.int32)
        pair_term = g.m * (k * (k - 1) // 2)
        plus_mask = minus_mask = plus = minus = 0  # the empty set scores 0
        for lo, hi in _blocks(0, 1 << n):
            score = e[lo:hi].astype(np.int32) * denom - pair_term[np.bitwise_count(np.arange(lo, hi, dtype=np.uint32))]
            i, j = int(np.argmax(score)), int(np.argmin(score))
            if score[i] > plus:
                plus_mask, plus = lo + i, int(score[i])
            if score[j] < minus:
                minus_mask, minus = lo + j, int(score[j])
        wit_p = [v for v in range(n) if (plus_mask >> v) & 1]
        wit_m = [v for v in range(n) if (minus_mask >> v) & 1]
        return DiscrepancyReport(
            disc_plus=Fraction(plus, denom),
            disc_minus=Fraction(-minus, denom),
            witnesses={"disc_plus": wit_p, "disc_minus": wit_m},
        )
    # heuristic: 1-flip search from seeded starts on the exact path's scaled
    # score sign * (C(n,2) e(U) - m C(|U|,2)), for both signs
    results = {}
    for sign, key in ((1, "disc_plus"), (-1, "disc_minus")):
        seed = _DISCREPANCY_SEED + (0 if sign == 1 else 1)
        u = pair_uniforms(seed, np.arange(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64))
        idx = np.flatnonzero(_hill_climb(g.adjacency, u < 0.5, sign * denom, -sign * g.m, 0))
        k = len(idx)
        score = sign * (denom * (int(degrees_into(g.adjacency, idx, idx).sum()) // 2) - g.m * (k * (k - 1) // 2))
        if score < 0:
            score, idx = 0, []  # empty set witnesses 0
        results[key] = (Fraction(score, denom), [int(v) for v in idx])
    return DiscrepancyReport(
        disc_plus=results["disc_plus"][0],
        disc_minus=results["disc_minus"][0],
        witnesses={"disc_plus": results["disc_plus"][1], "disc_minus": results["disc_minus"][1]},
        method="local-search",
    )
