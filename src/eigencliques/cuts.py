"""MaxCut, surplus, spectral surplus certificates, bisection width, discrepancy.

The exact routines (MaxCut, bisection width, discrepancy) enumerate every
vertex subset by meet in the middle, in blocks of 2^14 masks (a tracemalloc
peak of at most 0.82 MiB at n = 24), and all stop at one size limit,
EXHAUSTIVE_CUT_LIMIT; only MaxCut has a heuristic above it, a 1-flip local
search. The surplus lower bounds come from closed-form spectral certificates
rather than solving the semidefinite relaxation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, SizeError
from .graphs import Graph, _vertex_index, degrees_into, neighbor_masks, pair_uniforms

__all__ = [
    "CutReport",
    "SurplusBounds",
    "DiscrepancyReport",
    "EXHAUSTIVE_CUT_LIMIT",
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
# Constant of the quadratic surplus bound c / sqrt(Delta*+1) * sum lambda^2.
_SURPLUS_C = 1.0 / 60.0
# Slack allowed when unbalanced_cut checks its biased-cut guarantee.
_UNBALANCED_TOL = 1e-12
# Low mask bits the exact routines enumerate per block (see _optima): one
# block covers up to 14 walked vertices. A block of 2^14 int32s is 64 KiB;
# blocks of 2^16 masks took up to 2.6 times as long for n = 17 to 20.
_LOW_BITS = 14


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


def _optima(adj: np.ndarray, alpha: int, beta: int, c: Sequence[int], signs: tuple[int, ...]) -> list[tuple[int, int]]:
    """(value, mask) minimising sign * f for each sign, ties going to the
    smallest mask, where f(U) = alpha e(U) + beta C(|U|, 2) + c.U and U ranges
    over every subset of the rows of adj (bit i = row i).

    Meet in the middle: a mask is its low L = min(n, _LOW_BITS) bits x and its
    top bits h, and f(U) = f(x) + f(h) + sum over top vertices v in h of
    row_v[x], with row_v[x] = alpha |N(v) & x| + beta |x|. The table of f over
    the low subsets is built by doubling, f(x + {i}) = f(x) + row_i[x] + c_i
    for x below bit i. The top subsets are walked in Gray-code order, so each
    next block of 2^L masks costs one add or subtract of one row; f(h) moves
    by the same rule in Python ints. Extra memory is about (k + 3) 2^L int32s
    for the k = n - L top rows: under 1 MiB at n = 24. The callers' values fit
    int32 for n <= EXHAUSTIVE_CUT_LIMIT.
    """
    n = adj.shape[0]
    low = min(n, _LOW_BITS)
    keep = (1 << low) - 1
    nbr = neighbor_masks(adj)
    c = [int(x) for x in c]
    masks = np.arange(1 << low, dtype=np.min_scalar_type(keep))
    sizes = beta * np.bitwise_count(masks).astype(np.int32) if beta else 0

    def row_of(nbr_low: np.ndarray) -> np.ndarray:
        """alpha |nbr_low & masks| + beta |masks|, counted in place of nbr_low."""
        nbr_low &= masks
        r = np.bitwise_count(nbr_low, out=nbr_low.view(np.int32))
        r *= alpha
        r += sizes
        return r

    # block[x] for x >= 1 first holds the step from x minus its top bit i,
    # row_i[x] + c_i - beta (|x| counts i), then becomes f(x) by doubling
    span = [1] + [1 << i for i in range(low)]
    block = row_of(np.repeat(np.array([0] + [m & keep for m in nbr[:low]], dtype=np.uint32), span))
    block += np.repeat(np.array([0] + [ci - beta for ci in c[:low]], dtype=np.int32), span)
    for i in range(low):
        block[1 << i : 2 << i] += block[: 1 << i]
    rows = [row_of(np.full(masks.shape, m & keep, dtype=np.uint32)) for m in nbr[low:]]
    best: list = [None] * len(signs)
    h = top = 0
    for step in range(1 << (n - low)):
        if step:
            v = (step & -step).bit_length() - 1  # the Gray code flips top vertex v
            h ^= 1 << v
            rest = h & ~(1 << v)
            gain = alpha * ((nbr[low + v] >> low) & rest).bit_count() + beta * rest.bit_count() + c[low + v]
            if h >> v & 1:
                block += rows[v]
                top += gain
            else:
                block -= rows[v]
                top -= gain
        for i, sign in enumerate(signs):
            j = int(block.argmin() if sign > 0 else block.argmax())
            value, mask = int(block[j]) + top, h << low | j
            if best[i] is None or (sign * value, mask) < (sign * best[i][0], best[i][1]):
                best[i] = (value, mask)
    return best


def maxcut_exact(g: Graph) -> CutReport:
    """Optimal cut over all 2^(n-1) sign patterns (vertex 0 fixed to side 0).

    Ties break to the lexicographically smallest optimal assignment. Above
    EXHAUSTIVE_CUT_LIMIT vertices it raises SizeError before allocating.
    """
    n = g.n
    if n > EXHAUSTIVE_CUT_LIMIT:
        raise SizeError(f"n={n} exceeds exhaustive limit {EXHAUSTIVE_CUT_LIMIT}; use maxcut_local_search")
    # vertex v > 0 is bit n-1-v of U, the side-1 set, so masks run in
    # lexicographic order of the assignment; cut(U) = deg(U) - 2 e(U), and the
    # first maximum wins
    [(best_cut, best_k)] = _optima(g.adjacency[:0:-1, :0:-1], -2, 0, g.degrees[:0:-1], (-1,))
    partition = tuple((best_k >> (n - 1 - v)) & 1 for v in range(n))
    return CutReport(partition, best_cut, _surplus(g, best_cut), "exact")


def maxcut_local_search(g: Graph, seed: int = 0) -> CutReport:
    """1-flip local optimum: every vertex has at least half its edges crossing.

    From a seeded random assignment x, vertices are visited in order 0..n-1
    and moved on a strictly positive gain until a full pass moves none.
    With X = {v : x_v = 1} and h_v = deg(v) - 2 |N(v) & X|, moving v gains
    s h_v for s = 1 - 2 x_v, and subtracts 2 s adj[v] from h. Extra memory is O(n).
    """
    n = g.n
    adj = g.adjacency
    x = (pair_uniforms(seed, np.arange(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)) < 0.5).astype(np.int8)
    h = g.degrees - 2 * adj.sum(axis=0, dtype=np.int64, where=(x == 1)[:, None])
    improved = True
    while improved:
        improved = False
        for v in range(n):
            sign = 1 - 2 * int(x[v])
            if sign * int(h[v]) > 0:
                x[v] ^= 1
                h -= np.int64(2 * sign) * adj[v]
                improved = True
    cut = cut_size(g, x)
    return CutReport(tuple(int(s) for s in x), cut, _surplus(g, cut), "local-search")


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
    from .spectral import spectrum  # here, so that bisect does not load spectral

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
        x1 = v_neg @ v_neg.T
        x3 = beta * (v_neg * (lam_neg**2)) @ v_neg.T
        for name, x in (("X_linear", x1), ("X_cubic", x3)):
            evs = np.linalg.eigvalsh(x)
            psd_ok = bool(evs[0] >= -tol * max(1.0, abs(evs[-1])))
            dcap_ok = bool(np.diagonal(x).max() <= 1.0 + tol)
            diagnostics[name] = {"min_eig": float(evs[0]), "max_diag": float(np.diagonal(x).max()), "psd_ok": psd_ok, "diag_ok": dcap_ok}
            diag_ok = diag_ok and psd_ok and dcap_ok
        pairing = -float((g.adjacency * x1).sum())
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
    if g.m == 0:
        return 0.0
    from .spectral import lambda_min

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
    deg_y = degrees_into(g.adjacency, xi, yi)
    a = int(degrees_into(g.adjacency, xi, xi).sum()) // 2
    b = int(deg_y.sum())
    c = g.m - a - b
    certs: dict = {"a": a, "b": b, "c": c}
    sides = np.zeros(g.n, dtype=np.int8)
    if a <= b / 2.0:
        sides[xi] = 1
        certs.update({"branch": "plain", "guarantee": (b - a - c) / 2.0})
    else:
        xs = xi.tolist()
        p = min(max(b / (4.0 * a), 0.0), 0.5 - 1e-15)
        q = 0.5 + p
        in_u: dict[int, bool] = {}
        for v, dy in zip(xs, deg_y.tolist()):
            delta = float(dy)
            for w in xs:
                if w == v or not g.adjacency[v, w]:
                    continue
                if w in in_u:
                    delta += -1.0 if in_u[w] else 1.0
                else:
                    delta += 1.0 - 2.0 * q
            in_u[v] = delta >= 0.0
            sides[v] = in_u[v]
        certs.update({"branch": "biased", "p": p, "guarantee": b * b / (8.0 * a) - c / 2.0})
    cut = cut_size(g, sides)
    surplus = _surplus(g, cut)
    if certs["branch"] == "biased":
        certs["guarantee_met"] = bool(float(surplus) >= certs["guarantee"] - _UNBALANCED_TOL)
    return CutReport(tuple(sides.tolist()), cut, surplus, "unbalanced", certs)


@dataclass
class DiscrepancyReport:
    """Bisection width, deficit, and positive/negative discrepancy with witnesses."""

    bw: int | None = None
    dfc: Fraction | None = None
    disc_plus: Fraction | None = None
    disc_minus: Fraction | None = None
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out: dict = {"method": "exact"}
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
    # vertex v is bit n-1-v. The walk runs over W, the side of n - n // 2
    # vertices, so the k-side is its complement; for even n vertex 0 (bit
    # n-1) is left out of the walk, which keeps it on the k-side and counts
    # each unordered partition once. The cut is deg(W) - 2 e(W), and adding
    # P (|W| - t)^2 with P = m + 1 lifts every unbalanced W above every
    # balanced one. The first minimum of W is the last of its complement (the
    # k-side that is first in sorted order).
    walked, t, penalty = n - 1 + n % 2, n - n // 2, g.m + 1
    c = g.degrees[::-1][:walked] + penalty * (1 - 2 * t)
    [(value, mask)] = _optima(g.adjacency[::-1, ::-1][:walked, :walked], -2, 2 * penalty, c, (1,))
    best = value + penalty * t * t
    best_mask = ((1 << n) - 1) ^ mask
    dfc = Fraction(g.m) * (Fraction(1, 2) + Fraction(1, 2 * n - 2)) - best
    sides = [(best_mask >> (n - 1 - v)) & 1 for v in range(n)]
    return DiscrepancyReport(bw=best, dfc=dfc, witnesses={"bisection": sides})


def discrepancy(g: Graph) -> DiscrepancyReport:
    """disc+ and disc- with witness subsets, exact over every vertex subset.

    There is no heuristic path: above EXHAUSTIVE_CUT_LIMIT vertices it raises
    SizeError before allocating.
    """
    n = g.n
    if n > EXHAUSTIVE_CUT_LIMIT:
        raise SizeError(f"n={n} exceeds the exhaustive discrepancy limit {EXHAUSTIVE_CUT_LIMIT}")
    if g.m == 0:
        return DiscrepancyReport(disc_plus=Fraction(0), disc_minus=Fraction(0), witnesses={"disc_plus": [], "disc_minus": []})
    # disc+ scaled by C(n,2): C(n,2) e(U) - m C(|U|,2), each term at most
    # 276^2 at n = 24, so int32 holds it; keep the first argmax and argmin
    # (the empty set, mask 0, scores 0)
    denom = n * (n - 1) // 2
    (plus, plus_mask), (minus, minus_mask) = _optima(g.adjacency, denom, -g.m, [0] * n, (-1, 1))
    return DiscrepancyReport(
        disc_plus=Fraction(plus, denom),
        disc_minus=Fraction(-minus, denom),
        witnesses={"disc_plus": [v for v in range(n) if (plus_mask >> v) & 1],
                   "disc_minus": [v for v in range(n) if (minus_mask >> v) & 1]},
    )
