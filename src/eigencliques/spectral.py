"""Eigendecomposition, threshold spectral sums, and subspace-compression calculus.

The central objects are S_T (the sum of eigenvalues at least T), the subspace
W spanned by Hadamard products of top eigenvectors, and the W-trace
trace(Pi_W M Pi_W). The verifiers turn the toolkit's spectral inequalities
into per-threshold pass/fail records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, neighbor_masks, pair_uniforms, triangles_per_vertex

__all__ = [
    "Spectrum",
    "ThresholdSummary",
    "Subspace",
    "InequalityReport",
    "default_tol",
    "spectrum",
    "lambda_min",
    "threshold_summary",
    "subspace_from_hadamard",
    "w_trace",
    "verify_main_inequality",
    "tail_second_moment_check",
    "eigen_bound_report",
    "exact_independence_number",
]

# Largest n for which the independence number is computed exactly.
_INDEPENDENCE_CUTOFF = 30
# Loosest accepted tol: the default is 1e-9 (1e-7 above n = 500), and a
# larger tolerance would pass eigensolver output that is plainly wrong.
_MAX_TOL = 1e-3
# lambda_min runs Lanczos from this many vertices up. Below it one dense
# eigvalsh is cheaper: 1.5 ms against 2.6 ms on G(128, 1/2), and 3.3 ms
# against 2.3 ms on G(200, 1/2) (1 BLAS thread).
_KRYLOV_MIN_N = 200
# Lanczos step cap, and never more than n/3 steps. G(n, p) for n = 200..400
# and p = 0.05..0.7 stops within 60-80 steps, the seeded benchmark inputs at
# n = 1000 within 110 and G(2000, 1/2) at 100. An input whose bottom
# eigenvalues are too close to separate spends the cap before falling back:
# ~75 ms on C_999, whose dense path takes ~155 ms.
_LANCZOS_STEPS = 150
_RITZ_EVERY = 10  # steps between tridiagonal solves
_RITZ_TOL = 1e-6  # stop when |beta_k s_k| <= _RITZ_TOL max(1, |theta|)


def default_tol(n: int) -> float:
    """Relative tolerance: 1e-9 up to n=500, loosened to 1e-7 above."""
    return 1e-9 if n <= 500 else 1e-7


def _check_tol(tol: float) -> None:
    # written so that NaN fails the comparison too
    if not 0.0 <= tol <= _MAX_TOL:
        raise InputError(f"tol must be a finite number in [0, {_MAX_TOL:g}], got {tol!r}")


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of an adjacency matrix.

    eigenvalues are sorted descending; eigenvectors[:, i] is the unit
    eigenvector for eigenvalues[i], oriented so its first coordinate of
    nonnegligible magnitude is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])


def _orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Flip signs so the first coordinate with |v_i| above a scale cutoff is positive.

    Returns a new C-ordered array. The magnitudes' buffer is reused for the
    result, so orienting allocates one matrix, as a plain copy would.
    """
    out = np.abs(vecs, order="C")
    above = out > out.max(axis=0) * 1e-8
    first = np.argmax(above, axis=0)
    cols = np.arange(vecs.shape[1])
    sign = np.where(above[first, cols] & (vecs[first, cols] < 0), -1.0, 1.0)
    return np.multiply(vecs, sign, out=out)


def spectrum(g: Graph, tol: float | None = None) -> Spectrum:
    """Eigendecompose g's adjacency matrix and verify the decomposition invariants.

    Each call runs one eigh; nothing is cached. Raises InputError unless tol is
    finite and in [0, _MAX_TOL], and NumericalError with the offending residual
    if the eigensolver output fails the residual, orthonormality, or
    trace-identity checks at tol.
    """
    if g.n < 1:
        raise InputError("spectrum requires n >= 1")
    if tol is None:
        tol = default_tol(g.n)
    _check_tol(tol)
    a = g.adjacency.astype(np.float64)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = _orient_columns(vecs[:, order])
    s = Spectrum(eigenvalues=vals, eigenvectors=vecs, tol=tol)
    _validate_spectrum(s, a, g.m)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return s


def _validate_spectrum(s: Spectrum, a: np.ndarray, m: int) -> None:
    tol = s.tol
    scale = 1.0 + 2.0 * m
    _check_moments(s.eigenvalues, (("sum(lambda)=0", 0.0, scale), ("sum(lambda^2)=2m", 2.0 * m, scale)), tol)
    resid = np.abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues).max(axis=0)
    allowed = tol * (1.0 + np.abs(s.eigenvalues))
    if not (resid <= allowed).all():  # a NaN residual fails
        raise NumericalError("eigenpair residual exceeds tolerance", float(resid.max()))
    gram = s.eigenvectors.T @ s.eigenvectors
    gram.flat[:: s.n + 1] -= 1.0  # V^T V - I in place, with no identity matrix
    gram_err = float(np.abs(gram, out=gram).max())
    if not gram_err <= tol:
        raise NumericalError("eigenvector basis not orthonormal", gram_err)


def _check_moments(values: np.ndarray, moments: Sequence[tuple[str, float, float]], tol: float) -> None:
    """NumericalError unless sum(values^k) lies within tol * scale of expected
    for the k-th (name, expected, scale) of moments, k = 1, 2, ...; a NaN sum fails."""
    for k, (name, expected, scale) in enumerate(moments, start=1):
        value = float((values**k).sum())
        if not abs(value - expected) <= tol * scale:
            raise NumericalError(f"trace identity {name} violated", value - expected)


def lambda_min(g: Graph, tol: float | None = None) -> float:
    """Smallest adjacency eigenvalue, certified without eigenvectors of A.

    From _KRYLOV_MIN_N vertices up, lam is the Rayleigh quotient
    rho(y) = y^T A y / y^T y, computed in float64, of the Ritz vector y of a
    float32 Lanczos run, and by Courant-Fischer lambda_n <= rho(y). A is 0/1
    with row sums at most maxdeg, so A y and y^T (A y) each round by at most
    (n + 1) eps maxdeg |y|^2 and y^T y by n eps |y|^2: lam is within
    2 (n + 2) eps (maxdeg + |lam| + delta) of rho(y), and that bound must
    stay below delta = tol (1 + |lam|). One Cholesky factorisation of
    A - (lam - delta) I then proves lambda_n > lam - delta (Sylvester's law
    of inertia), so lambda_n lies in [lam - delta, lam + delta].
    Below _KRYLOV_MIN_N vertices, or when Lanczos hits its step cap, the
    bound reaches delta or the factorisation fails, lam comes from eigvalsh
    on the same float64 copy and two factorisations decide both sides. Raises
    InputError as spectrum does, and NumericalError naming the side that
    fails, or when Cholesky's rounding term n eps (maxdeg + |lam| + delta)
    reaches delta, so tol = 0 fails closed.
    """
    if g.n < 1:
        raise InputError("lambda_min requires n >= 1")
    if tol is None:
        tol = default_tol(g.n)
    _check_tol(tol)
    a = g.adjacency.astype(np.float64)  # both routes' one float64 copy of A
    if g.n >= _KRYLOV_MIN_N:
        y = _lanczos_ritz_vector(g.adjacency.astype(np.float32), min(_LANCZOS_STEPS, g.n // 3))
        if y is not None:
            y = y.astype(np.float64)
            lam = float(y @ (a @ y) / (y @ y))
            del y  # the factorisation below holds two n x n copies; nothing else stays alive
            delta = tol * (1.0 + abs(lam))
            rounding = 2 * (g.n + 2) * np.finfo(np.float64).eps * (g.max_degree + abs(lam) + delta)
            # a NaN quotient fails too; no factorisation: not lambda_n, or a cluster tighter than delta
            if rounding < delta and _factors(a, lam - delta):
                return lam
    lam = float(np.linalg.eigvalsh(a)[0])
    delta = tol * (1.0 + abs(lam))
    rounding = g.n * np.finfo(np.float64).eps * (g.max_degree + abs(lam) + delta)
    if rounding >= delta:
        raise NumericalError(f"inertia bracket cannot decide at tol={tol:g}: rounding {rounding:.3g} >= delta", delta)
    if not _factors(a, lam - delta):
        raise NumericalError("lambda_n bracket: A - (lambda - delta) I is not positive definite", lam)
    if _factors(a, lam + delta):
        raise NumericalError("lambda_n bracket: A - (lambda + delta) I is positive definite", lam)
    return lam


def _factors(a: np.ndarray, shift: float) -> bool:
    """Whether a - shift I is positive definite: one Cholesky with a's zero diagonal set to -shift, then restored."""
    np.fill_diagonal(a, -shift)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(a, 0.0)
    return True


def _lanczos_ritz_vector(a: np.ndarray, cap: int) -> np.ndarray | None:
    """Ritz vector of the smallest Ritz value of the symmetric float32 matrix a.

    Lanczos with full reorthogonalisation (two Gram-Schmidt passes against the
    stored basis per step) from a start vector seeded by pair_uniforms;
    importing numpy.random would add ~6 MB of RSS to every process. Every
    _RITZ_EVERY steps, and at breakdown or the cap, the k x k tridiagonal is
    solved; the run stops once the residual estimate |beta_k s_k| is at most
    _RITZ_TOL max(1, |theta|). None if that has not happened after cap steps.
    """
    n = a.shape[0]
    q = pair_uniforms(0, np.arange(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)) - 0.5
    basis = np.empty((cap + 1, n), dtype=np.float32)
    basis[0] = q / np.linalg.norm(q)
    alpha = np.zeros(cap)
    beta = np.zeros(cap)
    for k in range(1, cap + 1):
        w = a @ basis[k - 1]
        c = basis[:k] @ w
        w -= c @ basis[:k]
        c2 = basis[:k] @ w
        w -= c2 @ basis[:k]
        alpha[k - 1] = c[-1] + c2[-1]
        beta[k - 1] = b = float(np.linalg.norm(w))
        if b <= _RITZ_TOL or k % _RITZ_EVERY == 0 or k == cap:
            t = np.diag(alpha[:k]) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
            theta, s = np.linalg.eigh(t)
            if abs(b * s[-1, 0]) <= _RITZ_TOL * max(1.0, abs(theta[0])):
                return s[:, 0].astype(np.float32) @ basis[:k]
        basis[k] = w / b
    return None


def _complement_eigenvalues(g: Graph, tol: float) -> np.ndarray:
    """The complement's eigenvalues (descending) from eigvalsh alone, checked by
    the trace identities sum(mu) = 0, sum(mu^2) = 2m and sum(mu^3) = 6 triangles.
    J - I - A is held in uint8; only eigvalsh's input is a float64 copy."""
    max_degree = g.n - 1 - int(g.degrees.min())  # the complement's
    c = 1 - g.adjacency  # uint8
    np.fill_diagonal(c, 0)
    mu = np.linalg.eigvalsh(c.astype(np.float64))[::-1]
    two_m = float(g.n * (g.n - 1) - 2 * g.m)
    six_t = 2.0 * float(triangles_per_vertex(c).sum())  # each triangle is counted at its 3 vertices
    moments = (
        ("sum(mu)=0", 0.0, 1.0 + two_m),
        ("sum(mu^2)=2m", two_m, 1.0 + two_m),
        # |sum(mu^3)| <= max|mu| sum(mu^2) <= maxdeg 2m
        ("sum(mu^3)=6 triangles", six_t, 1.0 + two_m * max_degree),
    )
    _check_moments(mu, moments, tol)
    return mu


def _check_spectrum_of(g: Graph, s: Spectrum) -> None:
    """InputError unless s has g's n and meets _validate_spectrum's sum(lambda^2) = 2m (no eigh)."""
    if s.n != g.n:
        raise InputError(f"spectrum has n={s.n} but the graph has n={g.n}")
    if not abs(float((s.eigenvalues**2).sum()) - 2.0 * g.m) <= s.tol * (1.0 + 2.0 * g.m):
        raise InputError(f"spectrum is not the graph's: sum(lambda^2) is not 2m = {2 * g.m}")


@dataclass(frozen=True)
class ThresholdSummary:
    """S_T and N_T: sum and count of eigenvalues at least T (tolerance-adjusted)."""

    T: float
    S: float
    N: int


def _threshold_cut(eigenvalues: np.ndarray, T: float, tol: float) -> np.ndarray:
    # Inclusion at T - tol*(1+|T|) keeps verdicts stable when T hits an eigenvalue.
    return eigenvalues >= T - tol * (1.0 + abs(T))


def threshold_summary(s: Spectrum, T: float) -> ThresholdSummary:
    mask = _threshold_cut(s.eigenvalues, T, s.tol)
    return ThresholdSummary(T=float(T), S=float(s.eigenvalues[mask].sum()), N=int(mask.sum()))


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis (columns) of a subspace of R^n."""

    basis: np.ndarray
    rank_tol: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]


def subspace_from_hadamard(s: Spectrum, T: float) -> Subspace:
    """Orthonormal basis of span{v_i o v_j : lambda_i, lambda_j >= T}.

    Returns the zero subspace if no eigenvalue clears T. The basis is computed
    by SVD with singular values below the recorded rank_tol discarded.
    Degenerate eigenspaces make the generating set basis-dependent; the
    canonical eigenvector orientation fixes the reported answer.
    """
    n = s.n
    mask = _threshold_cut(s.eigenvalues, T, s.tol)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return Subspace(basis=np.zeros((n, 0)), rank_tol=0.0)
    vs = s.eigenvectors[:, idx]
    k = idx.size
    prods = (vs[:, :, None] * vs[:, None, :]).reshape(n, k * k)
    rank_tol = s.tol * math.sqrt(n) * max(1.0, float(np.linalg.norm(prods, axis=0).max()))
    u, sig, _ = np.linalg.svd(prods, full_matrices=False)
    dim = int((sig > rank_tol).sum())
    return Subspace(basis=u[:, :dim], rank_tol=rank_tol)


def w_trace(m: np.ndarray, w: Subspace, tol: float = 1e-9) -> float:
    """trace of the W-compression Pi_W M Pi_W, as sum_i w_i^T M w_i."""
    _check_tol(tol)
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != m.shape[1]:
        raise InputError("matrix must be square")
    if m.shape[0] != w.ambient:
        raise InputError("matrix and subspace dimensions differ")
    sym_err = float(np.abs(m - m.T).max()) if m.size else 0.0
    if sym_err > tol * (1.0 + float(np.abs(m).max())):
        raise InputError("matrix must be symmetric")
    return _w_trace(m, w)


def _w_trace(m: np.ndarray, w: Subspace) -> float:
    """w_trace without its checks: m is square, symmetric and of w's ambient dimension, in any dtype."""
    if w.dim == 0:
        return 0.0
    return float(np.sum((w.basis.T @ m) * w.basis.T))


@dataclass
class InequalityReport:
    """Named family of per-threshold checks, each with lhs, rhs, slack, verdict."""

    name: str
    tol: float
    records: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if any(r["verdict"] == "fails" for r in self.records):
            return "fails"
        return "holds"

    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "tol": self.tol,
            "records": self.records,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }


def _record(key: str, x: float, lhs: float, rhs: float, tol: float, skipped: bool = False, **extra) -> dict:
    if skipped:
        verdict = "skipped"
    else:
        verdict = "holds" if lhs >= rhs - tol * max(1.0, abs(rhs)) else "fails"
    rec = {key: float(x), "lhs": float(lhs), "rhs": float(rhs), "slack": float(lhs - rhs), "verdict": verdict}
    rec.update(extra)
    return rec


def _recursion_record(s: Spectrum, T: float, skipped: bool = False) -> tuple[dict, ThresholdSummary]:
    """Record of the recursive inequality 4n S_K >= S_T^2 at K = T^2/(2n), and
    the summary at K. A record that is not skipped also carries S_T and N_T."""
    st = threshold_summary(s, T)
    low = threshold_summary(s, T * T / (2.0 * s.n))
    extra = {} if skipped else {"S_T": st.S, "N_T": st.N}
    return _record("T", T, 4.0 * s.n * low.S, st.S**2, s.tol, skipped, **extra), low


def _finite_values(values: Sequence[float], name: str) -> list[float]:
    """The values as floats. NaN or inf is an InputError: every comparison
    against NaN is false, so a NaN threshold or kappa would pass the skip or
    range tests and the record would read "holds" with lhs = rhs = 0."""
    out = [float(x) for x in values]
    for x in out:
        if not math.isfinite(x):
            raise InputError(f"{name} {x} is not finite")
    return out


def verify_main_inequality(g: Graph, s: Spectrum, thresholds: Sequence[float] | None = None) -> InequalityReport:
    """Check 4n * S_{T^2/(2n)} >= S_T^2 at every admissible threshold; s must be spectrum(g).

    A threshold is admissible when T >= 2|lambda_n|sqrt(n); below that the
    record is marked skipped, not failed. Each admissible record also carries
    the compression bound trace_W(A) <= S_K + K dim(W) for K = T^2/(2n) and the
    Hadamard lower bound sum lambda_i lambda_j |v_i o v_j|^2 >= S_T^2 / n.
    """
    _check_spectrum_of(g, s)
    tol = s.tol
    n = g.n
    thresholds = auto_threshold_grid(s) if thresholds is None else _finite_values(thresholds, "threshold")
    report = InequalityReport(name="main_spectral_inequality", tol=tol)
    t_min = 2.0 * abs(s.lambda_min) * math.sqrt(n)
    report.diagnostics["admissible_from"] = t_min
    for T in thresholds:
        skipped = T < t_min - tol * (1.0 + t_min) or T <= 0
        rec, low = _recursion_record(s, T, skipped)
        report.records.append(rec)
        if skipped:
            continue
        rhs = rec["rhs"]
        w = subspace_from_hadamard(s, T)
        tr_a = _w_trace(g.adjacency, w)
        comp_rhs = low.S + low.T * w.dim
        rec["dim_W"] = w.dim
        rec["trace_W_A"] = tr_a
        rec["trace_compression_ok"] = bool(tr_a <= comp_rhs + tol * max(1.0, abs(comp_rhs)))
        idx = np.flatnonzero(_threshold_cut(s.eigenvalues, T, tol))
        if idx.size:
            vs = s.eigenvectors[:, idx]
            lam = s.eigenvalues[idx]
            g2 = (vs * vs).T @ (vs * vs)  # |v_i o v_j|_2^2 gram
            hsum = float(lam @ g2 @ lam)
        else:
            hsum = 0.0
        rec["hadamard_sum"] = hsum
        rec["hadamard_lower_ok"] = bool(hsum >= rhs / n - tol * max(1.0, rhs / n))
    return report


def auto_threshold_grid(s: Spectrum) -> list[float]:
    """Doubling grid {2|lambda_n|sqrt(n) 2^i} clipped to the spectral range."""
    n = s.n
    t0 = 2.0 * abs(s.lambda_min) * math.sqrt(n)
    if t0 <= s.tol:
        return [1.0]
    grid = [t0]
    while grid[-1] < s.lambda_max:
        grid.append(grid[-1] * 2.0)
    return grid


def tail_second_moment_check(
    s: Spectrum,
    gamma: float,
    q: float,
    kappas: Sequence[float],
) -> InequalityReport:
    """Check sum_{0 <= lambda_i <= kappa n} lambda_i^2 <= 50 kappa^{1-gamma/q} n^2.

    The two hypotheses (positive spectral mass at most n^{1+gamma}; recursive
    inequality at every T >= 2 n^{1-q}, checked at each distinct eigenvalue in
    range, which dominates all intermediate thresholds) are tested first;
    per-kappa verdicts are issued only when both hold. A NaN or infinite
    kappa is an InputError.
    """
    if not (0.0 < gamma < q < 1.0):
        raise InputError("need 0 < gamma < q < 1")
    kappas = _finite_values(kappas, "kappa")
    tol = s.tol
    n = s.n
    report = InequalityReport(name="tail_second_moment", tol=tol)
    pos_sum = float(s.eigenvalues[s.eigenvalues > 0].sum())
    hyp_mass = pos_sum <= n ** (1.0 + gamma) + tol
    t_floor = 2.0 * n ** (1.0 - q)
    hyp_rec = True
    for lam in np.unique(s.eigenvalues[s.eigenvalues >= t_floor - tol]):
        if _recursion_record(s, float(lam))[0]["verdict"] == "fails":
            hyp_rec = False
            break
    report.diagnostics["hypothesis_positive_mass_ok"] = bool(hyp_mass)
    report.diagnostics["hypothesis_recursion_ok"] = bool(hyp_rec)
    report.diagnostics["positive_mass"] = pos_sum
    applicable = hyp_mass and hyp_rec
    lam2 = s.eigenvalues**2
    for kappa in kappas:
        mask = (s.eigenvalues >= -tol) & (s.eigenvalues <= kappa * n + tol)
        lhs_sum = float(lam2[mask].sum())
        bound = 50.0 * kappa ** (1.0 - gamma / q) * n * n if kappa > 0 else 0.0
        rec = _record("kappa", kappa, bound, lhs_sum, tol, skipped=not applicable)
        # lhs/rhs convention: bound on the left so "holds" means bound >= tail sum.
        report.records.append(rec)
    return report


# -- bundled eigenvalue/eigenvector bounds ------------------------------------


def exact_independence_number(g: Graph) -> int:
    """Exact independence number by branch and bound on bitmasks (n <= _INDEPENDENCE_CUTOFF)."""
    if g.n > _INDEPENDENCE_CUTOFF:
        raise InputError(f"exact independence number limited to n <= {_INDEPENDENCE_CUTOFF}")
    nbr = neighbor_masks(g.adjacency)
    best = 0

    def grow(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        grow(cand & ~((1 << v) | nbr[v]), size + 1)  # take v
        grow(cand & ~(1 << v), size)  # skip v
    grow((1 << g.n) - 1, 0)
    return best


def eigen_bound_report(g: Graph, s: Spectrum) -> InequalityReport:
    """Bundle of eigenvector and eigenvalue bounds with measured slack; s must be spectrum(g).

    Covers: the sup-norm bound |v|_inf <= sqrt(n)/|lambda| for every eigenpair;
    the principal-eigenvector entry bounds when the complement is sparse
    (density <= 1/10, n > 10); the Hoffman independence bound for regular
    graphs with alpha computed exactly for n <= 30; and the Weyl chain
    1 + mu_{i+1} <= -lambda_{n+1-i} against the complement's spectrum, which
    comes from eigvalsh alone and is checked by the trace identities
    sum(mu^k) for k = 1, 2, 3 (NumericalError if one misses).
    """
    _check_spectrum_of(g, s)
    tol = s.tol
    n = g.n
    report = InequalityReport(name="eigen_bounds", tol=tol)
    sqrt_n = math.sqrt(n)
    for i, vinf in enumerate(np.abs(s.eigenvectors).max(axis=0).tolist()):  # each column's sup norm
        lam = float(s.eigenvalues[i])
        if abs(lam) <= tol * (1.0 + sqrt_n):
            continue
        report.records.append(_record("T", lam, sqrt_n / abs(lam), vinf, tol, bound="sup_norm", index=i))
    if n > 10 and (comp_density := (n * (n - 1) // 2 - g.m) / (n * (n - 1) / 2)) <= 0.1:
        v1 = s.eigenvectors[:, 0]
        if v1.sum() < 0:
            v1 = -v1
        bar_delta = n - 1 - int(g.degrees.min())
        low = (1.0 - 3.0 * bar_delta / n) / sqrt_n
        high = (1.0 + 2.0 * comp_density + 2.0 / n) / sqrt_n
        report.records.append(_record("T", 0.0, float(v1.min()), low, tol, bound="principal_entry_lower"))
        report.records.append(_record("T", 0.0, high, float(v1.max()), tol, bound="principal_entry_upper"))
    if g.is_regular() and g.m > 0 and n <= _INDEPENDENCE_CUTOFF:
        d = g.average_degree
        lam_n = abs(s.lambda_min)
        alpha = exact_independence_number(g)
        hoffman = n * lam_n / (lam_n + d)
        report.records.append(_record("T", 0.0, hoffman, float(alpha), tol, bound="hoffman"))
    mu = _complement_eigenvalues(g, tol) if n >= 2 else np.zeros(0)
    for i in range(1, n):
        lhs = -float(s.eigenvalues[n - i])  # -lambda_{n+1-i} in 1-based notation
        rhs = 1.0 + float(mu[i])
        report.records.append(_record("T", float(i), lhs, rhs, tol, bound="weyl_complement", index=i))
    return report

