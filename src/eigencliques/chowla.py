"""Finite groups, Cayley graphs, cosine-polynomial minima, and approximate
subgroup recovery.

Over Z/nZ the Cayley graph spectrum is the discrete Fourier transform of the
generating set, which ties the smallest eigenvalue to the minimum of the
cosine polynomial sum cos(a x) over a in A. M_Gamma generalises that minimum
to arbitrary finite groups through the adjacency spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError, SizeError
from .graphs import Graph, _check_vertex_count, _distinct_integers

__all__ = [
    "FiniteGroup",
    "SymmetricSet",
    "CosinePolynomial",
    "ChowlaReport",
    "cyclic_group",
    "cayley_graph",
    "cosine_min",
    "chowla_certificate",
    "translate_overlap",
    "m_gamma",
    "subgroup_recover",
    "least_prime_above",
]

ASSOC_EXHAUSTIVE_LIMIT = 64
MAX_COSINE_DEGREE = 1 << 16  # largest max(A) cosine_min accepts: 64*max(A) grid points, ~40 B each
# Largest max(A) chowla_certificate accepts. Its checks cost O(n |A|) with
# n ~ 4 max(A); A = 1..2^14 (n = 65537) certifies in ~3.5 s.
MAX_CHOWLA_DEGREE = 1 << 14
# Products per membership test in subgroup_recover: one np.isin call covers
# as many rows x*A as fit, so its fixed cost is paid once per block.
_ISIN_BLOCK = 1 << 16


class FiniteGroup:
    """Finite group by explicit multiplication table, or modular arithmetic for Z/nZ.

    Element i*j is table[i][j]. On construction the table is verified to hold
    integers (1.0 is not read as 1) and to be a Latin square with a two-sided
    identity and inverses; associativity is checked exhaustively up to order
    64 and on seeded random triples above.
    An arithmetic group stores no table and no inverse array (inverse is
    None), so building one takes O(1) memory at every order.
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
            self.inverse = None
            return
        self._modulus = None
        t = np.asarray(table)
        n = t.shape[0]
        if t.shape != (n, n):
            raise InputError("multiplication table must be square")
        if t.dtype.kind not in "iu" or (t < 0).any() or (t >= n).any():
            raise InputError("table entries must be element indices")
        t = t.astype(np.int64, copy=False)
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

    def mul_row(self, i, js: np.ndarray) -> np.ndarray:
        """Products i * j for a vector of j's; a column of i's gives one row per i.

        Every factor must be an element index in [0, order): the arithmetic
        path reduces i + j < 2n by one conditional subtraction, not a modulo.
        """
        if self.table is None:
            out = i + js
            np.subtract(out, self._modulus, out=out, where=out >= self._modulus)
            return out
        return self.table[i, js]

    def inv(self, i):
        """The inverse of i, or of each entry of an index array."""
        if self.table is None:
            return -i % self._modulus
        return self.inverse[i]

    def __repr__(self) -> str:
        kind = "arithmetic" if self.table is None else "table"
        return f"FiniteGroup(order={self.order}, {kind})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("order must be positive")
    return FiniteGroup(None, modulus=n)


@dataclass(frozen=True)
class SymmetricSet:
    """Subset A of a group with A = A^{-1}; identity membership is recorded."""

    group: FiniteGroup
    elements: tuple[int, ...]
    contains_identity: bool

    @staticmethod
    def of(group: FiniteGroup, elements: Iterable[int]) -> "SymmetricSet":
        elems = _distinct_integers(elements, "elements")
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
    return Graph(adj)


# -- cosine minimisation -----------------------------------------------------------


@dataclass(frozen=True)
class CosinePolynomial:
    """f(x) = sum_{a in A} cos(a x) for a finite set of positive integers.

    The one check of A and the one point evaluator of f. Evaluation reduces
    the argument mod 2 pi; f(0) = |A| exactly.
    """

    a_set: tuple[int, ...]
    _arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_arr", np.asarray(self.a_set, dtype=np.float64))

    @staticmethod
    def of(a_set: Sequence[int]) -> "CosinePolynomial":
        a = tuple(_distinct_integers(a_set, "elements of A"))
        if not a:
            raise InputError("A must be nonempty")
        if a[0] <= 0:
            raise InputError("A must contain positive integers")
        return CosinePolynomial(a)

    def __call__(self, x: float) -> float:
        x = math.fmod(x, 2.0 * math.pi)
        if x == 0.0:
            return float(len(self.a_set))
        return float(np.cos(self._arr * x).sum())


def _cosine_grid(a_set: tuple[int, ...], r: int) -> np.ndarray:
    """f(2 pi k / r) for k < r: the real part of the length-r DFT of A's
    indicator, valid for r > max(A). O(r) memory."""
    return np.fft.fft(np.bincount(a_set, minlength=r)).real


def cosine_min(a_set: Sequence[int]) -> tuple[float, float]:
    """Grid minimum of f(x) = sum_{a in A} cos(a x), with ternary refinement
    to interval width 1e-12.

    f is symmetric about pi, so the search runs over [0, pi] and the returned
    minimiser lies there. The returned value is f evaluated at the returned
    point, so it is a sound upper bound on the true minimum. The grid samples
    64*max(A) points per period; max(A) above MAX_COSINE_DEGREE is a SizeError.
    """
    f = CosinePolynomial.of(a_set)
    amax = f.a_set[-1]
    if amax > MAX_COSINE_DEGREE:  # refuse before the grid is allocated
        raise SizeError(f"max(A) = {amax} exceeds the cosine_min ceiling {MAX_COSINE_DEGREE} (grid of 64*max(A) points)")
    resolution = 64 * amax
    i = int(np.argmin(_cosine_grid(f.a_set, resolution)[: resolution // 2 + 1]))
    x_grid = 2.0 * math.pi * i / resolution
    lo = x_grid - 2.0 * math.pi / resolution
    hi = min(x_grid + 2.0 * math.pi / resolution, math.pi)
    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    x_star = (lo + hi) / 2.0
    return min((x_star, f(x_star)), (x_grid, f(x_grid)), key=lambda point: point[1])


def least_prime_above(k: int) -> int:
    """Smallest prime strictly greater than k, by trial division."""
    cand = max(2, k + 1)
    while True:
        if all(cand % d for d in range(2, int(math.isqrt(cand)) + 1)):
            return cand
        cand += 1


@dataclass
class ChowlaReport:
    """Certificate of chowla_certificate.

    lambda_min and fourier_min both come from the one FFT spectrum, so
    lambda_min == 2 * fourier_min exactly. residual is the largest absolute
    error of the checks named in checks, the same three at every n (see
    _check_spectrum).
    """

    a_set: tuple[int, ...]
    n: int
    lambda_min: float
    grid_x: float
    grid_f: float
    fourier_min: float
    residual: float
    bound_target: float
    checks: tuple[str, ...]

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
            "checks": list(self.checks),
            "bound_target": self.bound_target,
        }


def _check_spectrum(spectrum: np.ndarray, a: np.ndarray) -> tuple[tuple[str, ...], float]:
    """Check a claimed spectrum of Cay(Z/nZ, A u -A), n = len(spectrum) >
    2 max(A), point by point and without reusing the DFT. Returns the names
    of the checks and the largest of their errors.

    direct_sum: at every xi <= n/2 the gap between lambda_xi and its direct
    sum 2 sum_{a in A} cos(2 pi a xi / n), the circulant eigenvalue itself
    (A and -A are disjoint because n > 2 max(A)). mirror: the largest gap
    |lambda_xi - lambda_(n-xi)|, so every eigenvalue lies within twice the
    residual of its direct sum. min_eigenpair: the residual max|Av - lambda v|
    of the minimising real Fourier mode v(x) = cos(2 pi xi x / n), sup-norm 1,
    with Av the sum over s in A u -A of v(x + s), a numerical check that the
    mode is an eigenvector of the shift operator. Every cosine is read from
    one table at index (a xi mod n). O(n |A|) time and O(n) memory.
    """
    n = spectrum.size
    table = np.cos(2.0 * math.pi * np.arange(2 * n) / n)  # two periods: a sum of two residues indexes it
    # xi = q width + r for q, r < width, so a xi mod n is (a q width mod n) + (a r mod n): one mod per
    # row and per column of the width x width grid of points, not one per point. idx < 2n, so
    # mode="clip" only skips take's bounds check.
    width = math.isqrt(n // 2) + 1
    direct = np.zeros(width * width)
    rows = max(1, (1 << 18) // direct.size)
    for i in range(0, a.size, rows):
        block = a[i : i + rows, None]
        idx = ((block * (width * np.arange(width))) % n)[:, :, None] + ((block * np.arange(width)) % n)[:, None, :]
        direct += table.take(idx.reshape(block.size, -1), mode="clip").sum(axis=0)
    half = n // 2 + 1
    errors = [float(np.abs(2.0 * direct[:half] - spectrum[:half]).max())]
    errors.append(float(np.abs(spectrum[1:] - spectrum[:0:-1]).max()))
    xi = int(np.argmin(spectrum))
    v = table[(xi * np.arange(n)) % n]
    v2 = np.concatenate([v, v])
    av = np.zeros(n)
    for shift in np.concatenate([a, n - a]):
        av += v2[shift : shift + n]
    errors.append(float(np.abs(av - spectrum[xi] * v).max()))
    return ("direct_sum", "mirror", "min_eigenpair"), max(errors)


def chowla_certificate(a_set: Sequence[int]) -> ChowlaReport:
    """Certify the eigenvalue/Fourier identity for Cay(Z/nZ, A u -A).

    n is the least prime above 4*max(A). The spectrum is 2 f at the Fourier
    points 2 pi xi / n, from one length-n FFT of A's indicator; lambda_min and
    fourier_min are read from it, and _check_spectrum compares every
    eigenvalue with its own direct cosine sum and checks the minimising
    eigenpair, with no graph, eigensolver or n x n array. The minimum over
    Fourier points can be no smaller than the grid minimum of f. max(A) above
    MAX_CHOWLA_DEGREE is a SizeError, raised before the prime search. The
    reference line -|A|^(1/10) is recorded for comparison only.
    """
    a = CosinePolynomial.of(a_set).a_set
    if a[-1] > MAX_CHOWLA_DEGREE:  # refuse before the prime search and any n-sized array
        raise SizeError(f"max(A) = {a[-1]} exceeds the chowla ceiling {MAX_CHOWLA_DEGREE}")
    n = least_prime_above(4 * a[-1])
    fourier = _cosine_grid(a, n)
    spectrum = 2.0 * fourier
    checks, residual = _check_spectrum(spectrum, np.asarray(a, dtype=np.int64))
    x_star, f_star = cosine_min(a)
    return ChowlaReport(
        a_set=a,
        n=n,
        lambda_min=float(spectrum.min()),
        grid_x=x_star,
        grid_f=f_star,
        fourier_min=float(fourier.min()),
        residual=residual,
        bound_target=-float(len(a)) ** 0.1,
        checks=checks,
    )


def translate_overlap(s_set: Sequence[int], g: Graph) -> tuple[int, int]:
    """Best nonzero cyclic shift t maximising |(t+S) cap S| over Z/nZ.

    S must be a clique of the supplied Cayley graph (verified) and g must be
    regular. The maximum is guaranteed to reach |S|(|S|-1)/d, d the degree;
    a violation raises NumericalError.
    """
    n = g.n
    if n == 0:
        raise InputError("graph must have a vertex")
    s = sorted({x % n for x in _distinct_integers(s_set, "elements of S")})
    if not s:
        raise InputError("S must be nonempty")
    if not g.is_clique(s):
        raise InputError("S is not a clique in the supplied graph")
    if not g.is_regular():
        raise InputError("graph must be regular (a Cayley graph)")
    d = int(g.degrees[0])
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
    """max(0, -lambda_min) over the Cayley spectrum of A.

    lambda_min comes from spectral.lambda_min, so it carries that function's
    certificate: a Lanczos Ritz value bracketed by Courant-Fischer and one
    Cholesky factorisation or, below 200 vertices and where Lanczos cannot
    certify, an eigvalsh value bracketed by two. When the identity belongs to
    A it is stripped before building the loopless graph and lambda_min is
    shifted back by +1, so the reported value matches the convention in
    which A keeps the identity.
    Vanishes when A is a subgroup.
    """
    if not isinstance(a_set, SymmetricSet):
        a_set = SymmetricSet.of(group, a_set)
    gens = a_set.without_identity()
    if not gens:
        return 0.0
    from .spectral import lambda_min  # here, so that the chowla command does not load spectral

    lam = lambda_min(cayley_graph(group, a_set))
    if a_set.contains_identity:
        lam += 1.0
    return max(0.0, -lam)


def _row_blocks(xs: np.ndarray, width: int):
    """Consecutive slices of xs, each with at most _ISIN_BLOCK // width entries (at least one)."""
    step = max(1, _ISIN_BLOCK // width)
    for lo in range(0, xs.size, step):
        yield xs[lo : lo + step]


def subgroup_recover(group: FiniteGroup, elements: Iterable[int]) -> dict:
    """Recover a subgroup H close to A when A is almost product-closed.

    epsilon is the fraction of pairs (x,y) in A^2 with xy outside A. The
    stable core B keeps the x in A with |xA symdiff A| <= sqrt(2 epsilon)|A|;
    the candidate is H = B*B, accepted when |B*B| < (3/2)|B| (so it is a
    subgroup by the small-doubling theorem) and exact closure holds. Returns a
    dict with ok, the subgroup, |H symdiff A|, and diagnostics; failure is a
    value, not an exception.
    """
    a = _distinct_integers(elements, "elements")
    if not a:
        raise InputError("A must be nonempty")
    if any(x < 0 or x >= group.order for x in a):
        raise InputError("element index out of range")
    if group.identity not in a:
        a = sorted(a + [group.identity])
    a_arr = np.asarray(a, dtype=np.int64)
    size = len(a)
    # membership is tested against sorted arrays, never an order-sized table,
    # a block of rows per call; x -> xy is injective, so each row x*A or x*B
    # holds no repeats and |xA \ A| = |A \ xA|
    missing = np.concatenate(
        [(~np.isin(group.mul_row(xs[:, None], a_arr), a_arr)).sum(axis=1) for xs in _row_blocks(a_arr, size)]
    )
    epsilon = int(missing.sum()) / (size * size)
    delta = math.sqrt(2.0 * epsilon)
    b_arr = a_arr[2 * missing <= delta * size]
    diag = {
        "epsilon": epsilon,
        "delta": delta,
        "A_size": size,
        "B_size": int(b_arr.size),
        "hypothesis_ok": bool(epsilon < 1e-3),
    }
    if not b_arr.size:
        return {"ok": False, "reason": "stable core B is empty", **diag}
    h_arr = b_arr[:0]
    for xs in _row_blocks(b_arr, b_arr.size):
        block = group.mul_row(xs[:, None], b_arr)
        new = block[~np.isin(block, h_arr)]
        if new.size:
            h_arr = np.union1d(h_arr, new)
    diag["BB_size"] = int(h_arr.size)
    freiman_ok = h_arr.size < 1.5 * b_arr.size
    diag["freiman_ok"] = bool(freiman_ok)
    if not freiman_ok:
        return {"ok": False, "reason": "Freiman gate |B.B| < 3|B|/2 fails", **diag}
    # |xH| = |H|, so xH lies in H exactly when the two sorted arrays agree
    rows = (np.sort(group.mul_row(xs[:, None], h_arr), axis=1) for xs in _row_blocks(h_arr, h_arr.size))
    closed = all((block == h_arr).all() for block in rows)
    closed = closed and bool(np.isin(group.inv(h_arr), h_arr).all()) and group.identity in h_arr
    diag["subgroup_ok"] = bool(closed)
    if not closed:
        return {"ok": False, "reason": "candidate B.B is not a subgroup", **diag}
    sym_diff = size + int(h_arr.size) - 2 * int(np.isin(a_arr, h_arr).sum())
    return {"ok": True, "H": [int(x) for x in h_arr], "sym_diff": sym_diff, **diag}
