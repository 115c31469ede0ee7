import math
import tracemalloc

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import cuts, densify, spectral
from eigencliques.errors import InputError, NumericalError
from conftest import flipped_union, planted_noisy_union
from oracles import brute_independence, loop_orient_columns

TOL = 1e-8


# every eigen-consumer reads tol through spectrum, lambda_min or s.tol, so their shared check covers them all
_TOL_ENTRY_POINTS = {
    "spectrum": lambda g, tol: ec.spectrum(g, tol),
    "lambda_min": lambda g, tol: spectral.lambda_min(g, tol),
    "clique_pipeline": lambda g, tol: densify.clique_pipeline(g, tol=tol),
    "spectral_surplus_caps": lambda g, tol: cuts.spectral_surplus_caps(g, tol),
    "surplus_lb_spectral": lambda g, tol: cuts.surplus_lb_spectral(g, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 1e6])
@pytest.mark.parametrize("entry", sorted(_TOL_ENTRY_POINTS))
def test_bad_tol_fails_closed_at_library_boundary(entry, tol):
    # NaN switched every spectrum check off (clique_pipeline read verified: True),
    # and -1 raised a misleading eigenpair-residual NumericalError
    with pytest.raises(InputError, match=r"^tol must be a finite number in \[0, 0.001\], got "):
        _TOL_ENTRY_POINTS[entry](ec.gnp(30, 0.5, 1), tol)


def test_loosest_tol_is_accepted():
    assert ec.spectrum(ec.gnp(30, 0.5, 1), spectral._MAX_TOL).tol == 1e-3


def test_complete_graph_spectrum():
    s = ec.spectrum(ec.complete(3))
    assert np.allclose(s.eigenvalues, [2, -1, -1], atol=TOL)


def test_cycle4_spectrum():
    s = ec.spectrum(ec.cycle(4))
    assert np.allclose(s.eigenvalues, [2, 0, 0, -2], atol=TOL)


def test_petersen_spectrum_against_charpoly_oracle():
    import sympy

    s = ec.spectrum(ec.petersen())
    x = sympy.Symbol("x")
    mat = sympy.Matrix(ec.petersen().adjacency.astype(int).tolist())
    poly = mat.charpoly(x).as_expr()
    expected = sympy.expand((x - 3) * (x - 1) ** 5 * (x + 2) ** 4)
    assert sympy.simplify(poly - expected) == 0
    assert np.allclose(s.eigenvalues, [3] + [1] * 5 + [-2] * 4, atol=TOL)


def test_spectrum_invariants_random():
    g = ec.gnp(40, 0.5, 11)
    s = ec.spectrum(g)
    a = g.adjacency.astype(float)
    assert abs(s.eigenvalues.sum()) < TOL * (1 + 2 * g.m)
    assert abs((s.eigenvalues**2).sum() - 2 * g.m) < TOL * (1 + 2 * g.m)
    assert np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(g.n)).max() < TOL
    assert np.abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues).max() < TOL * (1 + abs(s.lambda_max))


def test_orientation_deterministic():
    s1 = ec.spectrum(ec.cycle(8))
    # fresh object, no shared cache
    s2 = ec.spectrum(ec.from_edge_list(8, ec.cycle(8).edges()))
    assert np.allclose(s1.eigenvectors, s2.eigenvectors, atol=1e-12)
    # bit-for-bit the column loop, signed zeros included; the crafted columns
    # are all-zero, below-cutoff-then-negative, and negative-first
    _, vecs = np.linalg.eigh(ec.gnp(40, 0.5, 11).adjacency.astype(float))
    crafted = np.array([[0.0, 1e-12, -2.0], [0.0, -1.0, 1.0], [0.0, 0.5, 0.0]])
    for v in (vecs, crafted):
        assert spectral._orient_columns(v).tobytes() == loop_orient_columns(v).tobytes()


def test_clique_union_lambda_min_is_minus_one():
    for sizes in ([3, 2], [10, 10], [5, 4, 3, 2]):
        s = ec.spectrum(ec.clique_union(sizes))
        assert abs(s.lambda_min + 1.0) < TOL


def test_threshold_summary_examples():
    s = ec.spectrum(ec.complete(4))
    ts = spectral.threshold_summary(s, 1.0)
    assert ts.S == pytest.approx(3.0, abs=TOL) and ts.N == 1
    empty = ec.spectrum(ec.from_edge_list(4, []))
    ts = spectral.threshold_summary(empty, 0.5)
    assert ts.S == 0.0 and ts.N == 0
    pet = ec.spectrum(ec.petersen())
    ts = spectral.threshold_summary(pet, 1.0)
    assert ts.S == pytest.approx(8.0, abs=1e-7) and ts.N == 6


def test_threshold_monotonicity_and_count_bound():
    s = ec.spectrum(ec.gnp(30, 0.6, 3))
    prev = None
    for t in np.linspace(0.1, s.lambda_max + 1, 25):
        ts = spectral.threshold_summary(s, float(t))
        assert ts.N <= ts.S / t + 1e-9
        if prev is not None:
            assert ts.S <= prev + 1e-9
        prev = ts.S


def test_subspace_from_hadamard_k2():
    s = ec.spectrum(ec.complete(2))
    w = spectral.subspace_from_hadamard(s, 0.5)
    assert w.dim == 1
    v = s.eigenvectors[:, 0]
    had = v * v
    assert np.linalg.norm(w.basis @ (w.basis.T @ had) - had) < TOL


def test_subspace_above_top_eigenvalue_is_zero():
    s = ec.spectrum(ec.cycle(6))
    assert spectral.subspace_from_hadamard(s, s.lambda_max + 1).dim == 0


def test_subspace_c4_dimension_one():
    s = ec.spectrum(ec.cycle(4))
    w = spectral.subspace_from_hadamard(s, 1.0)
    assert w.dim == 1
    target = np.full(4, 0.25)
    assert np.linalg.norm(w.basis @ (w.basis.T @ target) - target) < TOL


def test_subspace_projector_idempotent_symmetric():
    s = ec.spectrum(ec.clique_union([4, 4, 4]))
    w = spectral.subspace_from_hadamard(s, 2.0)
    pi = w.basis @ w.basis.T
    assert np.abs(pi - pi.T).max() < TOL
    assert np.abs(pi @ pi - pi).max() < TOL
    assert w.dim <= spectral.threshold_summary(s, 2.0).N ** 2


def test_w_trace_full_space_and_rank_one():
    g = ec.gnp(12, 0.5, 4)
    s = ec.spectrum(g)
    full = spectral.Subspace(basis=np.eye(12), rank_tol=0.0)
    m = g.adjacency.astype(float) + 3 * np.eye(12)
    assert spectral.w_trace(m, full) == pytest.approx(np.trace(m), abs=TOL)
    w = spectral.subspace_from_hadamard(s, 1.0)
    rng = np.random.default_rng(0)
    u = rng.normal(size=12)
    assert spectral.w_trace(np.outer(u, u), w) == pytest.approx(np.linalg.norm(w.basis @ (w.basis.T @ u)) ** 2, abs=1e-9)
    # trace_W(I) = dim W
    assert spectral.w_trace(np.eye(12), w) == pytest.approx(w.dim, abs=1e-9)


def test_w_trace_bound_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(10, 10))
        m = (m + m.T) / 2
        q, _ = np.linalg.qr(rng.normal(size=(10, 4)))
        w = spectral.Subspace(basis=q, rank_tol=0.0)
        assert abs(spectral.w_trace(m, w)) <= math.sqrt(w.dim) * np.linalg.norm(m, "fro") + 1e-9


def test_w_trace_errors():
    w = spectral.Subspace(basis=np.eye(3), rank_tol=0.0)
    with pytest.raises(InputError):
        spectral.w_trace(np.zeros((4, 4)), w)
    with pytest.raises(InputError):
        spectral.w_trace(np.array([[0.0, 1.0], [0.0, 0.0]]), spectral.Subspace(basis=np.eye(2), rank_tol=0.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("m", [np.eye(5), np.arange(25.0).reshape(5, 5)], ids=["symmetric", "nonsymmetric"])
def test_w_trace_rejects_bad_tol(m, tol):
    # a NaN tol would turn the symmetry test into a comparison against NaN, which passes
    w = spectral.Subspace(basis=np.eye(5), rank_tol=0.0)
    with pytest.raises(InputError, match=r"^tol must be a finite number in \[0, 0.001\], got "):
        spectral.w_trace(m, w, tol)


_SPECTRUM_CONSUMERS = {
    "verify_main_inequality": spectral.verify_main_inequality,
    "eigen_bound_report": spectral.eigen_bound_report,
}


@pytest.mark.parametrize("name", sorted(_SPECTRUM_CONSUMERS))
def test_spectrum_of_another_graph_is_rejected(name):
    # K5's spectrum read with another graph would make up a verdict
    f = _SPECTRUM_CONSUMERS[name]
    s = ec.spectrum(ec.complete(5))
    with pytest.raises(InputError, match=r"^spectrum has n=5 but the graph has n=6$"):
        f(ec.cycle(6), s)
    with pytest.raises(InputError, match=r"^spectrum is not the graph's: sum\(lambda\^2\) is not 2m = 10$"):
        f(ec.cycle(5), s)
    f(ec.complete(5), s)


def test_hadamard_identities():
    g = ec.gnp(15, 0.5, 9)
    a = g.adjacency.astype(float)
    assert np.array_equal(a * a, a)
    rng = np.random.default_rng(1)
    x, y, u, v = (rng.normal(size=8) for _ in range(4))
    lhs = np.outer(x, y) * np.outer(u, v)
    rhs = np.outer(x * u, y * v)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_schur_product_psd():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=(9, 9))
        p = a @ a.T
        q = b @ b.T
        assert np.linalg.eigvalsh(p * q)[0] >= -1e-9 * max(1.0, np.abs(p * q).max())


def test_verify_main_inequality_k10():
    g = ec.complete(10)
    r = spectral.verify_main_inequality(g, ec.spectrum(g), [7.0])
    rec = r.records[0]
    assert rec["verdict"] == "holds"
    assert rec["lhs"] == pytest.approx(360.0, abs=1e-6)
    assert rec["rhs"] == pytest.approx(81.0, abs=1e-6)
    assert rec["S_T"] == pytest.approx(9.0, abs=1e-9)
    assert rec["trace_compression_ok"] and rec["hadamard_lower_ok"]


def test_verify_main_inequality_empty_graph():
    g = ec.from_edge_list(5, [])
    r = spectral.verify_main_inequality(g, ec.spectrum(g), [1.0, 2.0])
    assert r.verdict == "holds"
    assert all(rec["lhs"] >= rec["rhs"] for rec in r.records)


def test_verify_main_inequality_skips_inadmissible():
    g = ec.petersen()  # lambda_n = -2, so admissible from 4*sqrt(10) ~ 12.6
    r = spectral.verify_main_inequality(g, ec.spectrum(g), [1.0, 20.0])
    assert r.records[0]["verdict"] == "skipped"
    assert r.records[1]["verdict"] == "holds"


def test_verify_main_inequality_gnp_samples():
    for seed in range(10):
        g = ec.gnp(60, 0.5, seed)
        r = spectral.verify_main_inequality(g, ec.spectrum(g))
        assert r.verdict == "holds"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verify_inequalities_reject_nonfinite_thresholds(bad):
    # a NaN threshold passed both skip tests and read "holds" with lhs = rhs = 0
    g = ec.gnp(30, 0.5, 1)
    with pytest.raises(InputError, match="not finite"):
        spectral.verify_main_inequality(g, ec.spectrum(g), thresholds=[10.0, bad])


def test_threshold_exactly_at_eigenvalue():
    # inclusion is tolerance-adjusted, so T = lambda_i counts lambda_i
    g = ec.clique_union([50, 50])
    s = ec.spectrum(g)
    ts = spectral.threshold_summary(s, 49.0)
    assert ts.N == 2 and ts.S == pytest.approx(98.0, abs=1e-6)
    r = spectral.verify_main_inequality(g, s, [49.0])
    assert r.records[0]["verdict"] == "holds"


def test_tail_second_moment_trivial_kappa_one():
    for g in (ec.gnp(25, 0.4, 1), ec.cycle(9)):
        s = ec.spectrum(g)
        r = spectral.tail_second_moment_check(s, 0.1, 0.25, [1.0])
        rec = r.records[0]
        if rec["verdict"] != "skipped":
            assert rec["verdict"] == "holds"
        assert rec["lhs"] >= 2 * g.m - 1e-6  # 50 n^2 >= sum of squares


def test_tail_second_moment_k50():
    s = ec.spectrum(ec.complete(50))
    r = spectral.tail_second_moment_check(s, 0.1, 0.25, [0.1])
    rec = r.records[0]
    assert rec["rhs"] == pytest.approx(0.0, abs=1e-9)  # no eigenvalue in [0, 5]
    assert rec["verdict"] == "holds"


def test_tail_second_moment_clique_union_sweep():
    s = ec.spectrum(ec.clique_union([10] * 10))
    r = spectral.tail_second_moment_check(s, 0.1, 0.25, [0.05, 0.1, 0.2])
    assert r.diagnostics["hypothesis_positive_mass_ok"]
    assert r.verdict == "holds"


def test_tail_second_moment_bad_parameters():
    s = ec.spectrum(ec.cycle(5))
    with pytest.raises(InputError):
        spectral.tail_second_moment_check(s, 0.3, 0.25, [0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tail_second_moment_rejects_nonfinite_kappa(bad):
    # both hypotheses hold here, so a NaN kappa read "holds" with lhs = rhs = 0
    s = ec.spectrum(ec.clique_union([10] * 6))
    assert spectral.tail_second_moment_check(s, 0.1, 0.5, [0.5]).diagnostics["hypothesis_recursion_ok"]
    with pytest.raises(InputError, match="kappa .* is not finite"):
        spectral.tail_second_moment_check(s, 0.1, 0.5, [0.5, bad])


def test_eigen_bound_report_hoffman_k33():
    g = ec.turan(2, 6)
    assert brute_independence(g.adjacency) == 3
    r = spectral.eigen_bound_report(g, ec.spectrum(g))
    rec = next(x for x in r.records if x.get("bound") == "hoffman")
    assert rec["lhs"] == pytest.approx(3.0, abs=1e-9)
    assert rec["rhs"] == 3.0
    assert rec["verdict"] == "holds"


def test_eigen_bound_report_sup_norm_gnp():
    g = ec.gnp(50, 0.5, 6)
    r = spectral.eigen_bound_report(g, ec.spectrum(g))
    sup = [x for x in r.records if x.get("bound") == "sup_norm"]
    assert sup and all(x["verdict"] == "holds" for x in sup)


def test_eigen_bound_report_weyl_on_c5():
    g = ec.cycle(5)
    r = spectral.eigen_bound_report(g, ec.spectrum(g))
    weyl = [x for x in r.records if x.get("bound") == "weyl_complement"]
    assert len(weyl) == 4
    assert all(x["verdict"] == "holds" for x in weyl)


def test_eigen_bound_report_principal_entry():
    g = ec.complement(ec.gnp(40, 0.95, 3))  # dense graph, sparse complement
    g = ec.complement(g) if g.density < 0.5 else g
    r = spectral.eigen_bound_report(g, ec.spectrum(g))
    if g.n > 10 and ec.complement(g).density <= 0.1:
        kinds = {x.get("bound") for x in r.records}
        assert "principal_entry_lower" in kinds and "principal_entry_upper" in kinds
    assert r.verdict == "holds"


def test_eigen_bound_report_memory_at_n1000():
    # the complement is held in uint8 and only eigvalsh's input is float64; a
    # float64 J - I - A held while counting triangles traced about 2 x 8n^2
    g = ec.gnp(1000, 0.5, 1)
    s = ec.spectrum(g)
    tracemalloc.start()
    try:
        report = spectral.eigen_bound_report(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * g.n**2
    assert report.verdict == "holds"


def test_verify_main_inequality_memory_at_n1000():
    # the W-trace reads the adjacency Graph already checked: no float64 copy of
    # A and no float64 symmetry check, which traced 3 x 8n^2
    g = ec.gnp(1000, 0.5, 1)
    s = ec.spectrum(g)
    tracemalloc.start()
    try:
        report = spectral.verify_main_inequality(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * 8 * g.n**2
    assert report.verdict == "holds"


def test_private_w_trace_on_the_adjacency_matches_w_trace():
    # the inequality's W-trace of the uint8 adjacency is bit for bit the checked
    # w_trace of its float64 copy, at every admissible threshold with dim W > 0
    graphs = [ec.complete(60), ec.clique_union([40, 30]), ec.turan(2, 50), ec.gnp(300, 0.9, 1),
              ec.clique_union([100] * 3), ec.complete(400)]
    checked = 0
    for g in graphs:
        s = ec.spectrum(g)
        for rec in spectral.verify_main_inequality(g, s).records:
            if rec["verdict"] == "skipped" or not rec["dim_W"]:
                continue
            w = spectral.subspace_from_hadamard(s, rec["T"])
            exact = spectral.w_trace(g.adjacency.astype(np.float64), w)
            assert spectral._w_trace(g.adjacency, w) == exact == rec["trace_W_A"], (g, rec["T"])
            checked += 1
    assert checked >= 10


def test_factors_restores_the_zero_diagonal():
    # lambda_min runs every factorisation on its one float64 copy of A, so
    # each must leave A as it found it, whether it factors or not
    g = ec.gnp(30, 0.5, 4)
    a = g.adjacency.astype(np.float64)
    lam = float(np.linalg.eigvalsh(a)[0])
    assert spectral._factors(a, lam - 0.1)
    assert np.array_equal(a, g.adjacency)
    assert not spectral._factors(a, lam + 0.1)
    assert np.array_equal(a, g.adjacency)


def test_lambda_min_needs_a_vertex():
    with pytest.raises(InputError, match="n >= 1"):
        spectral.lambda_min(ec.from_edge_list(0, []))


@pytest.mark.parametrize(
    "g", [ec.from_edge_list(1, []), ec.from_edge_list(4, []), ec.cycle(5), ec.gnp(30, 0.5, 1), ec.gnp(240, 0.5, 1)]
)
def test_lambda_min_zero_tol_fails_closed(g):
    # delta = 0 leaves no room for Cholesky's rounding, so the bracket cannot decide
    with pytest.raises(NumericalError, match="cannot decide at tol=0"):
        spectral.lambda_min(g, 0.0)


def test_lambda_min_refuses_a_delta_below_the_quotient_rounding():
    # delta = 2e-12 lies below the Rayleigh quotient's rounding bound
    # 2 (n + 2) eps (maxdeg + |lam| + delta) ~ 4.3e-12, though the lower-side
    # factorisation alone passes here; the dense path cannot decide either
    with pytest.raises(NumericalError, match="cannot decide at tol=1e-12"):
        spectral.lambda_min(ec.clique_union([40] * 6), 1e-12)


@pytest.mark.parametrize(
    "offset, side",
    [(10.0, r"\(lambda - delta\) I is not positive definite"), (-10.0, r"\(lambda \+ delta\) I is positive definite")],
)
def test_lambda_min_bracket_rejects_a_wrong_eigvalsh(monkeypatch, offset, side):
    # a wrong Ritz vector is refused by the lower-side Cholesky and the dense
    # path answers; when eigvalsh is also off by 10 delta in either direction,
    # the side of the bracket it crosses is caught
    g = ec.turan(4, 200)  # 150-regular; lambda_n = -50
    delta = spectral.default_tol(g.n) * 51.0
    eigvalsh = np.linalg.eigvalsh
    solves = []

    def counted(a):
        solves.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert abs(spectral.lambda_min(g) + 50.0) <= delta and solves == []  # the Krylov path serves
    # the all-ones vector of a regular graph: its Rayleigh quotient is lambda_1 = 150
    monkeypatch.setattr(spectral, "_lanczos_ritz_vector", lambda a, cap: np.ones(len(a), dtype=np.float32))
    assert abs(spectral.lambda_min(g) + 50.0) <= delta and solves == [200]

    def off(a):
        vals = eigvalsh(a)
        vals[0] += offset * spectral.default_tol(len(a)) * (1.0 + abs(vals[0]))
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", off)
    with pytest.raises(NumericalError, match=side):
        spectral.lambda_min(g)


def _kab(a: int, b: int) -> ec.Graph:
    return ec.from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# (graph, path lambda_min takes): "dense" below _KRYLOV_MIN_N vertices, and
# "fallback" where the bottom eigenvalues are too close for the Lanczos cap
_SWEEP = [
    *((ec.gnp(n, p, n + int(100 * p)), "dense" if n < 200 else "krylov") for n in (30, 150, 200, 300, 500) for p in (0.05, 0.5, 0.9)),
    (planted_noisy_union(40, 6, 1), "krylov"),
    (planted_noisy_union(25, 10, 2, 0.05), "krylov"),
    (flipped_union([100, 60, 40], 5, 0.03), "krylov"),
    (planted_noisy_union(10, 5, 3), "dense"),
    (ec.turan(2, 300), "krylov"),  # K_{150,150}
    (_kab(20, 230), "krylov"),
    (_kab(3, 4), "dense"),
    (_kab(1, 299), "krylov"),  # stars
    (_kab(1, 9), "dense"),
    (ec.cycle(200), "fallback"),
    (ec.cycle(301), "fallback"),
    (ec.path(250), "fallback"),
    (ec.cycle(12), "dense"),
    (ec.path(7), "dense"),
    (ec.from_edge_list(300, []), "krylov"),
    (ec.from_edge_list(5, []), "dense"),
    (ec.from_edge_list(1, []), "dense"),
    (ec.complete(2), "dense"),
    (ec.from_edge_list(2, []), "dense"),
]


def test_lambda_min_matches_eigvalsh_on_a_sweep(monkeypatch):
    # every certified lambda_n lies within delta of eigvalsh's, on the path
    # the input's size and spectrum choose
    eigvalsh, lanczos = np.linalg.eigvalsh, spectral._lanczos_ritz_vector
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    monkeypatch.setattr(spectral, "_lanczos_ritz_vector", lambda a, cap: calls.append("lanczos") or lanczos(a, cap))
    paths = {("eigvalsh",): "dense", ("lanczos",): "krylov", ("lanczos", "eigvalsh"): "fallback"}
    assert len(_SWEEP) >= 30
    for g, path in _SWEEP:
        calls.clear()
        lam = spectral.lambda_min(g)
        taken = paths[tuple(calls)]
        exact = float(eigvalsh(g.adjacency.astype(np.float64))[0])
        assert abs(lam - exact) <= spectral.default_tol(g.n) * (1.0 + abs(lam)), (g, lam, exact)
        assert taken == path, (g, taken)


def test_lambda_min_memory_at_n2000():
    # the certificate holds A and its Cholesky factor, two n x n float64
    # arrays, at once; the float32 Lanczos copy and basis are gone by then.
    # The dense path peaked at 2 * 8n^2 + 1.7 KB in a warm process (+2.5 KB cold).
    spectral.lambda_min(ec.gnp(240, 0.5, 1))  # warm the Krylov path's one-time allocations
    g = ec.gnp(2000, 0.5, 1)
    tracemalloc.start()
    try:
        lam = spectral.lambda_min(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * g.n**2 + 2048
    assert lam == pytest.approx(-45.0375485418, abs=1e-9)


@pytest.mark.parametrize(
    "perturb, identity",
    [
        (lambda mu: mu + np.eye(len(mu))[0] * 1e-3, r"sum\(mu\)=0"),  # one eigenvalue moved
        (lambda mu: mu + (np.eye(len(mu))[-1] - np.eye(len(mu))[0]) * 1e-3, r"sum\(mu\^2\)=2m"),  # sum kept
        (lambda mu: -mu[::-1], r"sum\(mu\^3\)=6 triangles"),  # first two moments kept
    ],
)
def test_eigen_bound_report_checks_the_complement_eigenvalues(monkeypatch, perturb, identity):
    # the complement's eigenvalues come from eigvalsh alone; each trace identity
    # catches a perturbation that the ones before it let through
    g = ec.gnp(20, 0.5, 1)
    s = ec.spectrum(g)
    assert spectral.eigen_bound_report(g, s).records
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: perturb(eigvalsh(a)))
    with pytest.raises(NumericalError, match=identity):
        spectral.eigen_bound_report(g, s)


def test_spectrum_fails_closed_on_a_nan_eigenvalue(monkeypatch):
    # the trace identities run first, and are written so that a NaN sum fails them
    eigh = np.linalg.eigh

    def nan_first(a):
        vals, vecs = eigh(a)
        vals[0] = np.nan
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", nan_first)
    with pytest.raises(NumericalError, match=r"^trace identity sum\(lambda\)=0 violated$"):
        ec.spectrum(ec.gnp(20, 0.5, 1))


def test_spectrum_fails_closed_on_a_nan_eigenvector(monkeypatch):
    # a NaN eigenvector entry leaves the eigenvalues' trace identities intact;
    # the residual comparison is written so that a NaN residual fails it
    eigh = np.linalg.eigh

    def nan_entry(a):
        vals, vecs = eigh(a)
        vecs[3, 0] = np.nan
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", nan_entry)
    with pytest.raises(NumericalError, match=r"^eigenpair residual exceeds tolerance$"):
        ec.spectrum(ec.gnp(20, 0.5, 1))


def test_orthonormality_error_is_max_of_gram_minus_identity():
    # the Gram check subtracts I in place; the error it reports stays bit-identical
    # to max |V^T V - I| (one column scaled by 1 + 1e-6 leaves the residuals within tol)
    g = ec.gnp(40, 0.5, 1)
    s = ec.spectrum(g)
    vecs = s.eigenvectors.copy()
    vecs[:, 0] *= 1 + 1e-6
    bad = spectral.Spectrum(eigenvalues=s.eigenvalues, eigenvectors=vecs, tol=1.5e-6)
    with pytest.raises(NumericalError, match=r"^eigenvector basis not orthonormal$") as info:
        spectral._validate_spectrum(bad, g.adjacency.astype(np.float64), g.m)
    assert info.value.residual == float(np.abs(vecs.T @ vecs - np.eye(g.n)).max())


def test_spectrum_memory():
    # the residual check holds A, V and two n x n products (4 * 8n^2); the Gram
    # check, with V^T V, I and their difference, peaked at 5.0 * 8n^2
    g = ec.gnp(500, 0.5, 1)
    ec.spectrum(g)  # warm the solver's one-time allocations
    tracemalloc.start()
    try:
        ec.spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * g.n**2


def test_interlacing_vertex_deletion():
    # deleting a vertex cannot lower the smallest eigenvalue (Cauchy interlacing)
    for g in (ec.petersen(), ec.gnp(18, 0.4, 8), ec.clique_union([4, 3])):
        lam = spectral.lambda_min(g)
        for v in range(g.n):
            sub = ec.induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert spectral.lambda_min(sub) >= lam - TOL


def test_induced_lambda_min_monotone():
    g = ec.gnp(20, 0.5, 12)
    lam = ec.spectrum(g).lambda_min
    rng = np.random.default_rng(3)
    for _ in range(5):
        keep = sorted(rng.choice(20, size=12, replace=False).tolist())
        sub = ec.induced_subgraph(g, keep)
        assert ec.spectrum(sub).lambda_min >= lam - 1e-9


def test_balanced_turan_second_eigenvalue_zero():
    for r, n in ((2, 6), (3, 12), (4, 20), (5, 25)):
        s = ec.spectrum(ec.turan(r, n))
        assert abs(float(s.eigenvalues[1])) < 1e-8


def test_regular_complement_eigenvalue_identity():
    # for d-regular graphs the complement's smallest eigenvalue is -lambda_2 - 1
    for g in (ec.cycle(8), ec.petersen(), ec.turan(3, 12)):
        lam2 = float(ec.spectrum(g).eigenvalues[1])
        comp_min = ec.spectrum(ec.complement(g)).lambda_min
        assert comp_min == pytest.approx(-lam2 - 1.0, abs=1e-8)


def test_trace_compression_any_subspace():
    # trace_W(A) <= S_K + K dim(W) holds for every subspace and K > 0
    rng = np.random.default_rng(17)
    g = ec.gnp(20, 0.5, 14)
    s = ec.spectrum(g)
    a = g.adjacency.astype(float)
    for _ in range(8):
        d = int(rng.integers(1, 8))
        q, _ = np.linalg.qr(rng.normal(size=(20, d)))
        w = spectral.Subspace(basis=q, rank_tol=0.0)
        for k in (0.5, 1.0, 3.0):
            bound = spectral.threshold_summary(s, k).S + k * w.dim
            assert spectral.w_trace(a, w) <= bound + 1e-9


def test_hadamard_sum_lower_bound_any_threshold():
    # sum over lambda_i, lambda_j >= T of lambda_i lambda_j |v_i o v_j|^2 >= S_T^2 / n
    for g in (ec.gnp(15, 0.5, 3), ec.clique_union([6, 5]), ec.petersen()):
        s = ec.spectrum(g)
        for t in (0.5, 1.0, 2.0):
            idx = np.flatnonzero(s.eigenvalues >= t)
            if not idx.size:
                continue
            vs = s.eigenvectors[:, idx]
            lam = s.eigenvalues[idx]
            gram = (vs * vs).T @ (vs * vs)
            hsum = float(lam @ gram @ lam)
            st = float(lam.sum())
            assert hsum >= st * st / g.n - 1e-9


def test_report_json_fields():
    g = ec.complete(10)
    r = spectral.verify_main_inequality(g, ec.spectrum(g), [7.0])
    doc = r.to_json_dict()
    assert set(doc) >= {"name", "tol", "records", "verdict"}
    assert set(doc["records"][0]) >= {"T", "lhs", "rhs", "slack", "verdict"}
