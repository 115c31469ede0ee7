"""Finite groups, Cayley graphs, cosine-polynomial minima, and approximate
subgroup recovery.

Over Z/nZ the Cayley graph spectrum is the discrete Fourier transform of the
generating set, which ties the smallest eigenvalue to the minimum of the
cosine polynomial sum cos(a x) over a in A. M_Gamma generalises that minimum
to arbitrary finite groups through the adjacency spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, _check_vertex_count

__all__ = [
    "FiniteGroup",
    "SymmetricSet",
    "CosinePolynomial",
    "ChowlaReport",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "group_from_table",
    "group_to_json",
    "group_from_json",
    "cayley_graph",
    "cosine_min",
    "chowla_certificate",
    "translate_overlap",
    "m_gamma",
    "subgroup_recover",
    "least_prime_above",
]

TABLE_LIMIT = 1024  # largest arithmetic group group_to_json writes out as a table
ASSOC_EXHAUSTIVE_LIMIT = 64


class FiniteGroup:
    """Finite group by explicit multiplication table, or modular arithmetic for Z/nZ.

    Element i*j is table[i][j]. On construction the table is verified to be a
    Latin square with a two-sided identity and inverses; associativity is
    checked exhaustively up to order 64 and on seeded random triples above.
    """

    __slots__ = ("order", "table", "identity", "inverse", "_modulus")

    def __init__(self, table: np.ndarray | None, modulus: int | None = None):
        if table is None:
            if modulus is None or modulus < 1:
                raise InputError("arithmetic groups need a positive modulus")
            self.order = modulus
            self.table = None
            self._modulus = modulus
            self.identity = 0
            self.inverse = (-np.arange(modulus)) % modulus
            return
        self._modulus = None
        t = np.asarray(table, dtype=np.int64)
        n = t.shape[0]
        if t.shape != (n, n):
            raise InputError("multiplication table must be square")
        if (t < 0).any() or (t >= n).any():
            raise InputError("table entries must be element indices")
        ref = np.arange(n)
        if not (np.sort(t, axis=1) == ref[None, :]).all() or not (np.sort(t, axis=0) == ref[:, None]).all():
            raise InputError("table is not a Latin square")
        ident = None
        for e in range(n):
            if (t[e] == ref).all() and (t[:, e] == ref).all():
                ident = e
                break
        if ident is None:
            raise InputError("no two-sided identity element")
        inv = np.argmax(t == ident, axis=1)
        if not (t[ref, inv] == ident).all() or not (t[inv, ref] == ident).all():
            raise InputError("inverse law fails")
        if n <= ASSOC_EXHAUSTIVE_LIMIT:
            lhs = t[t, :]  # lhs[i,j,k] = t[t[i,j], k]
            rhs = np.take(t, t, axis=1)  # rhs[i,j,k] = t[i, t[j,k]]
            if not (lhs == rhs).all():
                raise InputError("multiplication is not associative")
        else:
            rng = np.random.default_rng(12345)
            ii, jj, kk = (rng.integers(0, n, 4096) for _ in range(3))
            if not (t[t[ii, jj], kk] == t[ii, t[jj, kk]]).all():
                raise InputError("multiplication is not associative (sampled)")
        self.order = n
        self.table = t
        self.identity = int(ident)
        self.inverse = inv.astype(np.int64)

    def mul(self, i: int, j: int) -> int:
        if self.table is None:
            return (i + j) % self._modulus
        return int(self.table[i, j])

    def mul_row(self, i: int, js: np.ndarray) -> np.ndarray:
        """Products i * j for a vector of j's."""
        if self.table is None:
            return (i + js) % self._modulus
        return self.table[i, js]

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def is_abelian(self) -> bool:
        if self.table is None:
            return True
        return bool((self.table == self.table.T).all())

    def __repr__(self) -> str:
        kind = "arithmetic" if self.table is None else "table"
        return f"FiniteGroup(order={self.order}, {kind})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("order must be positive")
    return FiniteGroup(None, modulus=n)


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m; element a + m*b stands for r^a s^b."""
    if m < 1:
        raise InputError("m must be positive")
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
    """Symmetric group on k letters via composition (p*q)(x) = p(q(x))."""
    if k < 1 or math.factorial(k) > 256:
        raise InputError("symmetric group supported for factorial(k) <= 256")
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    t = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            t[i, j] = index[tuple(p[q[x]] for x in range(k))]
    return FiniteGroup(t)


def group_from_table(table) -> FiniteGroup:
    return FiniteGroup(np.asarray(table))


def group_to_json(g: FiniteGroup) -> dict:
    if g.table is None:
        if g.order > TABLE_LIMIT:
            raise InputError("group too large to serialise as an explicit table")
    i = np.arange(g.order)
    table = g.table if g.table is not None else (i[:, None] + i[None, :]) % g.order
    return {"order": g.order, "table": table.tolist()}


def group_from_json(doc: dict) -> FiniteGroup:
    if "table" not in doc:
        raise InputError("group document needs a 'table' field")
    g = group_from_table(doc["table"])
    if "order" in doc and int(doc["order"]) != g.order:
        raise InputError("declared order does not match the table")
    return g


@dataclass(frozen=True)
class SymmetricSet:
    """Subset A of a group with A = A^{-1}; identity membership is recorded."""

    group: FiniteGroup
    elements: tuple[int, ...]
    contains_identity: bool

    @staticmethod
    def of(group: FiniteGroup, elements: Iterable[int]) -> "SymmetricSet":
        elems = sorted(set(int(x) for x in elements))
        if any(x < 0 or x >= group.order for x in elems):
            raise InputError("element index out of range")
        inv = sorted(int(group.inv(x)) for x in elems)
        if inv != elems:
            raise InputError("set is not symmetric: A != A^-1")
        return SymmetricSet(group=group, elements=tuple(elems), contains_identity=group.identity in elems)

    def without_identity(self) -> tuple[int, ...]:
        return tuple(x for x in self.elements if x != self.group.identity)


def cayley_graph(group: FiniteGroup, a_set: SymmetricSet | Iterable[int]) -> Graph:
    """Graph on the group with x ~ y iff x y^{-1} lies in A.

    The identity is stripped if present (no loops); the resulting graph is
    |A \\ {1}|-regular.
    """
    if not isinstance(a_set, SymmetricSet):
        a_set = SymmetricSet.of(group, a_set)
    elif a_set.group is not group:
        a_set = SymmetricSet.of(group, a_set.elements)  # re-validate under this group
    n = group.order
    _check_vertex_count(n)
    gens = a_set.without_identity()
    adj = np.zeros((n, n), dtype=np.uint8)
    ys = np.arange(n)
    for a in gens:
        xs = group.mul_row(a, ys)
        adj[xs, ys] = 1
    sym_err = int((adj != adj.T).sum())
    if sym_err:
        raise InputError("generating set is not symmetric")
    return Graph(adj)


# -- cosine minimisation -----------------------------------------------------------


@dataclass(frozen=True)
class CosinePolynomial:
    """f(x) = sum_{a in A} cos(a x) for a finite set of positive integers.

    Evaluation reduces the argument mod 2 pi; f(0) = |A| exactly.
    """

    a_set: tuple[int, ...]

    @staticmethod
    def of(a_set: Sequence[int]) -> "CosinePolynomial":
        a = tuple(sorted(set(int(x) for x in a_set)))
        if not a:
            raise InputError("A must be nonempty")
        if a[0] <= 0:
            raise InputError("A must contain positive integers")
        return CosinePolynomial(a)

    def __call__(self, x: float) -> float:
        x = math.fmod(x, 2.0 * math.pi)
        if x == 0.0:
            return float(len(self.a_set))
        arr = np.asarray(self.a_set, dtype=np.float64)
        return float(np.cos(arr * x).sum())

    def minimum(self, resolution: int | None = None) -> tuple[float, float]:
        return cosine_min(self.a_set, resolution)


def cosine_min(a_set: Sequence[int], resolution: int | None = None) -> tuple[float, float]:
    """Grid minimum of f(x) = sum_{a in A} cos(a x) over [0, 2pi), with ternary
    refinement to interval width 1e-12.

    The returned value is attained at the returned point, so it is a sound
    upper bound on the true minimum. The grid must sample at least 4*max(A)
    points per period (default 64*max(A)).
    """
    a = sorted(set(int(x) for x in a_set))
    if not a:
        raise InputError("A must be nonempty")
    if any(x <= 0 for x in a):
        raise InputError("A must contain positive integers")
    amax = a[-1]
    if resolution is None:
        resolution = 64 * amax
    if resolution < 4 * amax:
        raise InputError(f"resolution {resolution} below Nyquist floor {4 * amax}")
    arr = np.asarray(a, dtype=np.float64)

    def f(x: float) -> float:
        return float(np.cos(arr * x).sum())

    xs = 2.0 * math.pi * np.arange(resolution) / resolution
    vals = np.cos(np.outer(xs, arr)).sum(axis=1)
    i = int(np.argmin(vals))
    lo = xs[i] - 2.0 * math.pi / resolution
    hi = xs[i] + 2.0 * math.pi / resolution
    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    x_star = (lo + hi) / 2.0
    f_star = f(x_star)
    if vals[i] < f_star:
        x_star, f_star = float(xs[i]), float(vals[i])
    return x_star, f_star


def least_prime_above(k: int) -> int:
    """Smallest prime strictly greater than k, by trial division."""
    cand = max(2, k + 1)
    while True:
        is_prime = cand >= 2 and all(cand % d for d in range(2, int(math.isqrt(cand)) + 1))
        if is_prime:
            return cand
        cand += 1


@dataclass
class ChowlaReport:
    a_set: tuple[int, ...]
    n: int
    lambda_min: float
    grid_x: float
    grid_f: float
    fourier_min: float
    residual: float
    bound_target: float

    def holds(self, tol: float = 1e-8) -> bool:
        return self.residual <= tol and self.fourier_min >= self.grid_f - 1e-9

    def to_json_dict(self) -> dict:
        return {
            "A": list(self.a_set),
            "n": self.n,
            "lambda_min": self.lambda_min,
            "grid_min": {"x": self.grid_x, "f": self.grid_f},
            "fourier_min": self.fourier_min,
            "residual": self.residual,
            "bound_target": self.bound_target,
        }


def chowla_certificate(a_set: Sequence[int]) -> ChowlaReport:
    """Certify the eigenvalue/Fourier identity for Cay(Z/nZ, A u -A).

    n is the least prime above 4*max(A). The adjacency spectrum must match the
    multiset {2 sum_a cos(2 pi a xi / n)} and the minimum over Fourier points
    (= lambda_min / 2) can be no smaller than the grid minimum of f. The
    reference line -|A|^(1/10) is recorded for comparison only.
    """
    a = sorted(set(int(x) for x in a_set))
    if not a or any(x <= 0 for x in a):
        raise InputError("A must be a nonempty set of positive integers")
    n = least_prime_above(4 * a[-1])
    group = cyclic_group(n)
    sym = SymmetricSet.of(group, [x % n for x in a] + [(-x) % n for x in a])
    graph = cayley_graph(group, sym)
    eigs = np.linalg.eigvalsh(graph.adjacency.astype(np.float64))
    xi = np.arange(n)
    fourier = 2.0 * np.cos(2.0 * math.pi * np.outer(xi, np.asarray(a)) / n).sum(axis=1)
    residual = float(np.abs(np.sort(eigs) - np.sort(fourier)).max())
    x_star, f_star = cosine_min(a)
    return ChowlaReport(
        a_set=tuple(a),
        n=n,
        lambda_min=float(eigs.min()),
        grid_x=x_star,
        grid_f=f_star,
        fourier_min=float(fourier.min()) / 2.0,
        residual=residual,
        bound_target=-float(len(a)) ** 0.1,
    )


def translate_overlap(s_set: Sequence[int], g: Graph) -> tuple[int, int]:
    """Best nonzero cyclic shift t maximising |(t+S) cap S| over Z/nZ.

    S must be a clique of the supplied Cayley graph (verified) and g must be
    regular. The maximum is guaranteed to reach |S|(|S|-1)/d, d the degree;
    a violation raises NumericalError.
    """
    n = g.n
    s = sorted(set(int(x) % n for x in s_set))
    if not s:
        raise InputError("S must be nonempty")
    if not g.is_clique(s):
        raise InputError("S is not a clique in the supplied graph")
    if not g.is_regular():
        raise InputError("graph must be regular (a Cayley graph)")
    d = int(g.degrees[0]) if g.n else 0
    member = np.zeros(n, dtype=bool)
    member[s] = True
    best_t, best_overlap = 1, -1
    s_arr = np.asarray(s, dtype=np.int64)
    for t in range(1, n):
        overlap = int(member[(s_arr + t) % n].sum())
        if overlap > best_overlap:
            best_t, best_overlap = t, overlap
    bound = len(s) * (len(s) - 1) / d if d > 0 else 0.0
    if best_overlap < bound:
        raise NumericalError(f"translate overlap {best_overlap} below bound {bound}", best_overlap - bound)
    return best_t, best_overlap


def m_gamma(group: FiniteGroup, a_set: SymmetricSet | Iterable[int]) -> float:
    """max(0, max of -lambda) over the Cayley spectrum of A.

    When the identity belongs to A it is stripped before building the loopless
    graph and the eigenvalues are shifted back by +1, so the reported value
    matches the convention in which A keeps the identity. Vanishes when A is a
    subgroup.
    """
    if not isinstance(a_set, SymmetricSet):
        a_set = SymmetricSet.of(group, a_set)
    gens = a_set.without_identity()
    if not gens:
        return 0.0
    graph = cayley_graph(group, a_set)
    eigs = np.linalg.eigvalsh(graph.adjacency.astype(np.float64))
    if a_set.contains_identity:
        eigs = eigs + 1.0
    return float(max(0.0, float((-eigs).max())))


def subgroup_recover(group: FiniteGroup, elements: Iterable[int]) -> dict:
    """Recover a subgroup H close to A when A is almost product-closed.

    epsilon is the fraction of pairs (x,y) in A^2 with xy outside A. The
    stable core B keeps the x in A with |xA symdiff A| <= sqrt(2 epsilon)|A|;
    the candidate is H = B*B, accepted when |B*B| < (3/2)|B| (so it is a
    subgroup by the small-doubling theorem) and exact closure holds. Returns a
    dict with ok, the subgroup, |H symdiff A|, and diagnostics; failure is a
    value, not an exception.
    """
    a = sorted(set(int(x) for x in elements))
    if not a:
        raise InputError("A must be nonempty")
    if any(x < 0 or x >= group.order for x in a):
        raise InputError("element index out of range")
    if group.identity not in a:
        a = sorted(a + [group.identity])
    a_arr = np.asarray(a, dtype=np.int64)
    size = len(a)
    member = np.zeros(group.order, dtype=bool)
    member[a_arr] = True
    violations = 0
    n_of: dict[int, int] = {}
    for x in a:
        xa = group.mul_row(x, a_arr)
        missing = int((~member[xa]).sum())
        violations += missing
        n_of[x] = 2 * missing  # |xA \ A| = |A \ xA| since |xA| = |A|
    epsilon = violations / (size * size)
    delta = math.sqrt(2.0 * epsilon)
    b = [x for x in a if n_of[x] <= delta * size]
    diag = {
        "epsilon": epsilon,
        "delta": delta,
        "A_size": size,
        "B_size": len(b),
        "hypothesis_ok": bool(epsilon < 1e-3),
    }
    if not b:
        return {"ok": False, "reason": "stable core B is empty", **diag}
    b_arr = np.asarray(sorted(b), dtype=np.int64)
    prod = np.zeros(group.order, dtype=bool)
    for x in b:
        prod[group.mul_row(x, b_arr)] = True
    h_arr = np.flatnonzero(prod)
    diag["BB_size"] = int(h_arr.size)
    freiman_ok = h_arr.size < 1.5 * len(b)
    diag["freiman_ok"] = bool(freiman_ok)
    if not freiman_ok:
        return {"ok": False, "reason": "Freiman gate |B.B| < 3|B|/2 fails", **diag}
    closed = True
    h_member = np.zeros(group.order, dtype=bool)
    h_member[h_arr] = True
    for x in h_arr:
        if not h_member[group.mul_row(int(x), h_arr)].all():
            closed = False
            break
    closed = closed and bool(h_member[group.inverse[h_arr]].all()) and bool(h_member[group.identity])
    diag["subgroup_ok"] = bool(closed)
    if not closed:
        return {"ok": False, "reason": "candidate B.B is not a subgroup", **diag}
    sym_diff = int((member ^ h_member).sum())
    return {"ok": True, "H": [int(x) for x in h_arr], "sym_diff": sym_diff, **diag}
