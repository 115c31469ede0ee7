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
from .graphs import Graph, complement, induced_subgraph, neighbor_masks

__all__ = [
    "Spectrum",
    "ThresholdSummary",
    "Subspace",
    "InequalityReport",
    "default_tol",
    "spectrum",
    "threshold_summary",
    "subspace_from_hadamard",
    "w_trace",
    "verify_main_inequality",
    "verify_maxcut_main_inequality",
    "tail_second_moment_check",
    "eigen_bound_report",
    "exact_independence_number",
]

# Largest n for which the independence number is computed exactly.
_INDEPENDENCE_CUTOFF = 30


def default_tol(n: int) -> float:
    """Relative tolerance: 1e-9 up to n=500, loosened to 1e-7 above."""
    return 1e-9 if n <= 500 else 1e-7


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

    Raises NumericalError with the offending residual if the eigensolver output
    fails the residual, orthonormality, or trace-identity checks at tol.
    """
    if g.n < 1:
        raise InputError("spectrum requires n >= 1")
    if tol is None:
        tol = default_tol(g.n)
    cached = g._memo.get(("spectrum", tol))
    if cached is not None:
        return cached
    a = g.adjacency.astype(np.float64)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = _orient_columns(vecs[:, order])
    s = Spectrum(eigenvalues=vals, eigenvectors=vecs, tol=tol)
    _validate_spectrum(s, a, g.m)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    g._memo[("spectrum", tol)] = s
    return s


def _validate_spectrum(s: Spectrum, a: np.ndarray, m: int) -> None:
    tol = s.tol
    resid = np.abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues).max(axis=0)
    allowed = tol * (1.0 + np.abs(s.eigenvalues))
    if (resid > allowed).any():
        raise NumericalError("eigenpair residual exceeds tolerance", float(resid.max()))
    gram = s.eigenvectors.T @ s.eigenvectors
    gram_err = float(np.abs(gram - np.eye(s.n)).max())
    if gram_err > tol:
        raise NumericalError("eigenvector basis not orthonormal", gram_err)
    scale = 1.0 + 2.0 * m
    if abs(float(s.eigenvalues.sum())) > tol * scale:
        raise NumericalError("trace identity sum(lambda)=0 violated", float(s.eigenvalues.sum()))
    if abs(float((s.eigenvalues**2).sum()) - 2.0 * m) > tol * scale:
        raise NumericalError("trace identity sum(lambda^2)=2m violated")


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

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ x)


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
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != m.shape[1]:
        raise InputError("matrix must be square")
    if m.shape[0] != w.ambient:
        raise InputError("matrix and subspace dimensions differ")
    sym_err = float(np.abs(m - m.T).max()) if m.size else 0.0
    if sym_err > tol * (1.0 + float(np.abs(m).max())):
        raise InputError("matrix must be symmetric")
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
        slack = lhs - rhs
    else:
        slack = lhs - rhs
        verdict = "holds" if lhs >= rhs - tol * max(1.0, abs(rhs)) else "fails"
    rec = {key: float(x), "lhs": float(lhs), "rhs": float(rhs), "slack": float(slack), "verdict": verdict}
    rec.update(extra)
    return rec


def verify_main_inequality(g: Graph, thresholds: Sequence[float] | None = None, tol: float | None = None) -> InequalityReport:
    """Check 4n * S_{T^2/(2n)} >= S_T^2 at every admissible threshold.

    A threshold is admissible when T >= 2|lambda_n|sqrt(n); below that the
    record is marked skipped, not failed. Each admissible record also carries
    the compression bound trace_W(A) <= S_K + K dim(W) for K = T^2/(2n) and the
    Hadamard lower bound sum lambda_i lambda_j |v_i o v_j|^2 >= S_T^2 / n.
    """
    s = spectrum(g, tol)
    tol = s.tol
    n = g.n
    if thresholds is None:
        thresholds = auto_threshold_grid(s)
    report = InequalityReport(name="main_spectral_inequality", tol=tol)
    t_min = 2.0 * abs(s.lambda_min) * math.sqrt(n)
    report.diagnostics["admissible_from"] = t_min
    a = g.adjacency.astype(np.float64)
    for T in thresholds:
        T = float(T)
        st = threshold_summary(s, T)
        if T < t_min - tol * (1.0 + t_min) or T <= 0:
            report.records.append(_record("T", T, 4.0 * n * threshold_summary(s, T * T / (2.0 * n)).S, st.S**2, tol, skipped=True))
            continue
        k_low = T * T / (2.0 * n)
        lhs = 4.0 * n * threshold_summary(s, k_low).S
        rhs = st.S**2
        extra: dict = {"S_T": st.S, "N_T": st.N}
        w = subspace_from_hadamard(s, T)
        tr_a = w_trace(a, w, tol)
        comp_rhs = threshold_summary(s, k_low).S + k_low * w.dim
        extra["dim_W"] = w.dim
        extra["trace_W_A"] = tr_a
        extra["trace_compression_ok"] = bool(tr_a <= comp_rhs + tol * max(1.0, abs(comp_rhs)))
        idx = np.flatnonzero(_threshold_cut(s.eigenvalues, T, tol))
        if idx.size:
            vs = s.eigenvectors[:, idx]
            lam = s.eigenvalues[idx]
            g2 = (vs * vs).T @ (vs * vs)  # |v_i o v_j|_2^2 gram
            hsum = float(lam @ g2 @ lam)
        else:
            hsum = 0.0
        extra["hadamard_sum"] = hsum
        extra["hadamard_lower_ok"] = bool(hsum >= rhs / n - tol * max(1.0, rhs / n))
        report.records.append(_record("T", T, lhs, rhs, tol, **extra))
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


def verify_maxcut_main_inequality(
    g: Graph,
    gamma: float,
    C: float,
    thresholds: Sequence[float] | None = None,
    tol: float | None = None,
) -> InequalityReport:
    """Surplus-side variant: same inequality, admissible for T >= C n^{1 - 1/24 + gamma/4}.

    The semidefinite surplus relaxation is bounded by the spectral cap
    surp_star_upper = |lambda_n| n. Records carry the heavy-diagonal
    cut-off beta = Q^{1/4} n^{7/8} / T and the count |J| of indices above it,
    together with its bound Q / beta.
    """
    if gamma <= 0:
        raise InputError("gamma must be positive")
    s = spectrum(g, tol)
    tol = s.tol
    n = g.n
    q_upper = abs(s.lambda_min) * n
    t_min = C * n ** (1.0 - 1.0 / 24.0 + gamma / 4.0)
    if thresholds is None:
        thresholds = [t_min * 2.0**i for i in range(4)]
    report = InequalityReport(name="maxcut_spectral_inequality", tol=tol)
    report.diagnostics["admissible_from"] = t_min
    report.diagnostics["surp_star_upper"] = q_upper
    report.diagnostics["hypothesis_surp_star_leq_n^{1+gamma}"] = bool(q_upper <= n ** (1.0 + gamma))
    neg = np.flatnonzero(s.eigenvalues < 0)
    e_diag = ((s.eigenvectors[:, neg] ** 2) * np.abs(s.eigenvalues[neg])).sum(axis=1) if neg.size else np.zeros(n)
    for T in thresholds:
        T = float(T)
        st = threshold_summary(s, T)
        lhs = 4.0 * n * threshold_summary(s, T * T / (2.0 * n)).S
        rhs = st.S**2
        if T < t_min - tol * (1.0 + t_min) or T <= 0:
            report.records.append(_record("T", T, lhs, rhs, tol, skipped=True))
            continue
        beta = q_upper ** 0.25 * n ** (7.0 / 8.0) / T if T > 0 else float("inf")
        j_count = int((e_diag > beta).sum())
        extra = {
            "S_T": st.S,
            "N_T": st.N,
            "beta": beta,
            "J_size": j_count,
            "J_bound": (q_upper / beta) if beta > 0 else float("inf"),
            "J_bound_ok": bool(beta <= 0 or j_count <= q_upper / beta + tol),
        }
        report.records.append(_record("T", T, lhs, rhs, tol, **extra))
    return report


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
    per-kappa verdicts are issued only when both hold.
    """
    if not (0.0 < gamma < q < 1.0):
        raise InputError("need 0 < gamma < q < 1")
    tol = s.tol
    n = s.n
    report = InequalityReport(name="tail_second_moment", tol=tol)
    pos_sum = float(s.eigenvalues[s.eigenvalues > 0].sum())
    hyp_mass = pos_sum <= n ** (1.0 + gamma) + tol
    t_floor = 2.0 * n ** (1.0 - q)
    hyp_rec = True
    for lam in np.unique(s.eigenvalues[s.eigenvalues >= t_floor - tol]):
        st = threshold_summary(s, float(lam))
        if st.S**2 > 4.0 * n * threshold_summary(s, float(lam) ** 2 / (2.0 * n)).S + tol * max(1.0, st.S**2):
            hyp_rec = False
            break
    report.diagnostics["hypothesis_positive_mass_ok"] = bool(hyp_mass)
    report.diagnostics["hypothesis_recursion_ok"] = bool(hyp_rec)
    report.diagnostics["positive_mass"] = pos_sum
    applicable = hyp_mass and hyp_rec
    lam2 = s.eigenvalues**2
    for kappa in kappas:
        kappa = float(kappa)
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


def eigen_bound_report(g: Graph, tol: float | None = None) -> InequalityReport:
    """Bundle of eigenvector and eigenvalue bounds with measured slack.

    Covers: the sup-norm bound |v|_inf <= sqrt(n)/|lambda| for every eigenpair;
    the principal-eigenvector entry bounds when the complement is sparse
    (density <= 1/10, n > 10); the Hoffman independence bound for regular
    graphs with alpha computed exactly for n <= 30; and the Weyl chain
    1 + mu_{i+1} <= -lambda_{n+1-i} against the complement's spectrum.
    """
    s = spectrum(g, tol)
    tol = s.tol
    n = g.n
    report = InequalityReport(name="eigen_bounds", tol=tol)
    sqrt_n = math.sqrt(n)
    for i in range(n):
        lam = float(s.eigenvalues[i])
        if abs(lam) <= tol * (1.0 + sqrt_n):
            continue
        vinf = float(np.abs(s.eigenvectors[:, i]).max())
        report.records.append(_record("T", lam, sqrt_n / abs(lam), vinf, tol, bound="sup_norm", index=i))
    comp = complement(g)
    if n > 10 and comp.density <= 0.1:
        v1 = s.eigenvectors[:, 0]
        if v1.sum() < 0:
            v1 = -v1
        bar_delta = comp.max_degree
        low = (1.0 - 3.0 * bar_delta / n) / sqrt_n
        high = (1.0 + 2.0 * comp.density + 2.0 / n) / sqrt_n
        report.records.append(_record("T", 0.0, float(v1.min()), low, tol, bound="principal_entry_lower"))
        report.records.append(_record("T", 0.0, high, float(v1.max()), tol, bound="principal_entry_upper"))
    if g.is_regular() and n >= 1 and g.m > 0 and n <= _INDEPENDENCE_CUTOFF:
        d = g.average_degree
        lam_n = abs(s.lambda_min)
        alpha = exact_independence_number(g)
        hoffman = n * lam_n / (lam_n + d) if lam_n + d > 0 else float(n)
        report.records.append(_record("T", 0.0, hoffman, float(alpha), tol, bound="hoffman"))
    mu = spectrum(comp, tol).eigenvalues if n >= 2 else np.zeros(0)
    for i in range(1, n):
        lhs = -float(s.eigenvalues[n - i])  # -lambda_{n+1-i} in 1-based notation
        rhs = 1.0 + float(mu[i])
        report.records.append(_record("T", float(i), lhs, rhs, tol, bound="weyl_complement", index=i))
    return report


def interlacing_check(g: Graph, tol: float | None = None) -> bool:
    """Deleting any single vertex cannot lower the smallest eigenvalue."""
    s = spectrum(g, tol)
    tol = s.tol
    for v in range(g.n):
        if g.n == 1:
            return True
        sub = induced_subgraph(g, [u for u in range(g.n) if u != v])
        if spectrum(sub, tol).lambda_min < s.lambda_min - tol * (1.0 + abs(s.lambda_min)):
            return False
    return True
