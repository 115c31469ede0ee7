"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import chowla, cuts, densify, spectral, structure
from conftest import flip_edges, planted_noisy_union
from oracles import (
    SevenVertexTables,
    brute_bisection,
    brute_discrepancy,
    brute_maxcut,
    dihedral_group,
    edwards_floor,
    rank1_boolean_round,
    symmetric_group,
    triple_hadamard_diagnostic,
)

TOL = 1e-8

# Frozen by the pre-build calibration oracle: 1000 seeded trials
# (seed 20250809) gave max residual ratio 0.54512; times 1.5.
C_CAL = 0.8176786322127472


def report(num: int, message: str) -> None:
    print(f"criterion {num:02d}: PASS — {message}")


def test_criterion_01_spectral_identities(corpus):
    start = time.perf_counter()
    for name, g in corpus:
        s = ec.spectrum(g)
        a = g.adjacency.astype(np.float64)
        scale = 1.0 + 2.0 * g.m
        resid = np.abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues).max()
        assert resid <= TOL * (1.0 + abs(s.lambda_max)), name
        gram = np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(g.n)).max()
        assert gram <= TOL, name
        assert abs(float(s.eigenvalues.sum())) <= TOL * scale, name
        assert abs(float((s.eigenvalues**2).sum()) - 2.0 * g.m) <= TOL * scale, name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"corpus spectral checks took {elapsed:.1f}s"
    report(1, f"spectrum invariants on {len(corpus)} graphs at tol 1e-8 in {elapsed:.1f}s")


def test_criterion_02_main_inequality(corpus):
    checked = 0
    for name, g in corpus:
        s = ec.spectrum(g)
        t0 = 2.0 * abs(s.lambda_min) * math.sqrt(g.n)
        thresholds = sorted(set(spectral.auto_threshold_grid(s)) | {float(x) for x in s.eigenvalues if x >= t0 > 0})
        rep = spectral.verify_main_inequality(g, s, thresholds)
        for rec in rep.records:
            assert rec["verdict"] != "fails", (name, rec)
            if rec["verdict"] == "holds":
                checked += 1
    report(2, f"recursive inequality holds at all {checked} admissible thresholds across the corpus")


def test_criterion_03_recursion_bound(corpus):
    applicable = 0
    for name, g in corpus:
        s = ec.spectrum(g)
        for gamma, q in ((0.1, 0.25), (0.05, 0.2)):
            rep = spectral.tail_second_moment_check(s, gamma, q, [0.02, 0.05, 0.1, 0.25, 0.5, 1.0])
            for rec in rep.records:
                assert rec["verdict"] != "fails", (name, gamma, q, rec)
                if rec["verdict"] == "holds":
                    applicable += 1
    assert applicable > 0
    report(3, f"tail second-moment bound holds in all {applicable} applicable checks")


def test_criterion_04_hk_obstruction():
    for k in range(1, 65):
        lam = ec.spectrum(ec.h_k(k)).lambda_min
        bound = -math.sqrt(k / 2.0)
        assert lam < bound - TOL, (k, lam, bound)
    report(4, "lambda_min(H_k) < -sqrt(k/2) with positive margin for k = 1..64")


def test_criterion_05_exact_cuts(corpus):
    for g, want in ((ec.cycle(5), 4), (ec.complete(5), 6), (ec.complete(7), 12)):
        rep = cuts.maxcut_exact(g)
        oracle, _ = brute_maxcut(g.adjacency)
        assert rep.cut_size == want == oracle
    # every exact cut in the corpus respects the Edwards floor
    small = [(name, g) for name, g in corpus if g.n <= 16]
    assert small
    for name, g in small:
        rep = cuts.maxcut_exact(g)
        assert rep.cut_size >= edwards_floor(g.m) - 1e-9, name
    # exhaustive over all labelled graphs on 7 vertices: monotonicity + Edwards
    tables = SevenVertexTables(7)
    mc = tables.mc.astype(np.int32)
    m = tables.m.astype(np.int32)
    surp2 = 2 * mc - m  # twice the surplus, integer exact
    for v in range(7):
        keep = np.uint32(tables.keep_mask(v))
        sub = tables.masks & keep
        assert ((2 * mc[sub] - np.bitwise_count(sub).astype(np.int32)) <= surp2).all()
    floor2 = m + (np.sqrt(8.0 * m + 1.0) - 1.0) / 4.0
    assert (2 * mc >= floor2 - 1e-9).all()
    report(5, "named cuts match oracles; Edwards floor and surplus monotonicity exhaustive on n <= 7")


def test_criterion_06_spectral_caps(corpus):
    small = [(name, g) for name, g in corpus if g.n <= 16]
    assert small
    for name, g in small:
        surplus = float(cuts.maxcut_exact(g).surplus)
        assert surplus <= cuts.spectral_surplus_caps(g) + 1e-6, name
        bounds = cuts.surplus_lb_spectral(g)
        for key in ("X_linear", "X_cubic"):
            if key in bounds.diagnostics:
                assert bounds.diagnostics[key]["min_eig"] >= -1e-8, name
                assert bounds.diagnostics[key]["max_diag"] <= 1.0 + 1e-10, name
    report(6, f"surplus caps and PSD certificates verified on {len(small)} corpus graphs with n <= 16")


def test_criterion_07_clique_pipeline_recovery():
    worst_time = 0.0
    for size in (32, 64):
        for seed in range(1, 11):
            g = planted_noisy_union(size, 5, seed, p_noise=0.02)
            t0 = time.perf_counter()
            cert = densify.clique_pipeline(g)
            dt = time.perf_counter() - t0
            worst_time = max(worst_time, dt)
            assert cert.verified
            assert g.is_clique(list(cert.clique))
            assert cert.size >= 0.9 * size, (size, seed, cert.size)
            assert dt < 5.0, (size, seed, dt)
    report(7, f"20/20 planted instances recovered at >= 0.9s, max {worst_time:.2f}s per run")


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_criterion_08_decomposition():
    # exact clique unions
    for sizes in ([30, 20, 10], [16] * 4, [9, 9, 9], [5, 4, 3, 2, 1]):
        d = structure.clique_union_decompose(ec.clique_union(sizes))
        assert d.edit_distance == 0, sizes
    # planted flips, up to 10, exact recovery of the flip count
    rng = np.random.default_rng(20250809)
    base = ec.clique_union([12, 9, 7])
    for k in range(1, 11):
        pairs = set()
        while len(pairs) < k:
            u, v = sorted(rng.integers(0, base.n, 2).tolist())
            if u != v:
                pairs.add((u, v))
        g = flip_edges(base, pairs)
        d = structure.clique_union_decompose(g)
        assert d.edit_distance == k, (k, d.edit_distance)
    # cherry-count <=> edit-distance-0, exhaustively for n <= 7:
    # one representative per isomorphism class (the property is invariant) ...
    from networkx.generators.atlas import graph_atlas_g

    for ng in graph_atlas_g()[1:]:
        n = ng.number_of_nodes()
        g = ec.from_edge_list(n, [(u, v) for u, v in ng.edges()])
        cherry_free = structure.cherry_count(g) == 0
        d = structure.clique_union_decompose(g)
        assert cherry_free == (d.edit_distance == 0), (n, sorted(ng.edges()))
    # ... plus every labelled clique union, whose edit distance must vanish
    count = 0
    for n in range(1, 8):
        for blocks in _set_partitions(list(range(n))):
            edges = [(u, v) for b in blocks for i, u in enumerate(b) for v in b[i + 1 :]]
            g = ec.from_edge_list(n, edges)
            assert structure.clique_union_decompose(g).edit_distance == 0
            count += 1
    report(8, f"edit distances exact; equivalence checked on 1252 classes and {count} labelled unions")


def test_criterion_09_chowla_identity():
    rng = np.random.default_rng(99)
    for trial in range(50):
        size = int(rng.integers(1, 31))
        pool = rng.choice(np.arange(1, 201), size=size, replace=False)
        a = sorted(int(x) for x in pool)
        rep = chowla.chowla_certificate(a)
        assert rep.residual <= 1e-8, (trial, a, rep.residual)
        assert rep.fourier_min >= rep.grid_f - 1e-9, (trial, a)
    _, f = chowla.cosine_min([1, 2])
    assert abs(f + 1.125) <= 1e-9
    report(9, "Cayley spectrum matches the cosine formula on 50 random sets; cosine_min({1,2}) = -1.125")


def test_criterion_10_subgroup_recovery():
    cyclic_cases = [
        (12, 2), (12, 3), (12, 4), (18, 3), (20, 4), (24, 2), (24, 3), (30, 5),
        (36, 6), (40, 8), (42, 7), (48, 6), (50, 10), (54, 9), (56, 8), (60, 2),
        (60, 3), (60, 5), (60, 6), (60, 12),
    ]
    assert len(cyclic_cases) == 20
    for n, d in cyclic_cases:
        grp = chowla.cyclic_group(n)
        sub = list(range(0, n, d))
        out = chowla.subgroup_recover(grp, sub)
        assert out["ok"] and out["sym_diff"] == 0, (n, d, out)
    # two non-abelian table groups of order <= 24
    dih = dihedral_group(6)
    out = chowla.subgroup_recover(dih, list(range(6)))  # the rotation subgroup
    assert out["ok"] and out["sym_diff"] == 0
    s4 = symmetric_group(4)
    perms = sorted(itertools.permutations(range(4)))
    a4 = [
        i
        for i, p in enumerate(perms)
        if sum(1 for x in range(4) for y in range(x + 1, 4) if p[x] > p[y]) % 2 == 0
    ]
    out = chowla.subgroup_recover(s4, a4)
    assert out["ok"] and out["sym_diff"] == 0 and len(out["H"]) == 12
    # perturbed instances with epsilon <= 1e-3
    for n in (4096, 4500):
        grp = chowla.cyclic_group(n)
        a = [x for x in range(0, n, 2) if x not in (2, n - 2)]
        out = chowla.subgroup_recover(grp, a)
        assert out["epsilon"] <= 1e-3, (n, out["epsilon"])
        assert out["ok"], (n, out)
        assert out["sym_diff"] <= 6.0 * math.sqrt(2.0 * out["epsilon"]) * len(a), n
        assert out["sym_diff"] == 2
    report(10, "22 exact recoveries (20 cyclic + dihedral + S4); perturbed instances within 6*sqrt(2eps)|A|")


def _rank1_trial(rng) -> float:
    n = int(rng.integers(20, 61))
    x = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    a = np.outer(x, y)
    flips = int(rng.integers(0, max(1, int(0.15 * n * n))))
    iu = rng.integers(0, n, flips)
    ju = rng.integers(0, n, flips)
    a[iu, ju] = 1 - a[iu, ju]
    sigma = rng.uniform(0.0, 0.3)
    u = np.abs(x + rng.normal(0, sigma, n))
    v = np.abs(y + rng.normal(0, sigma, n))
    delta = max(((a - np.outer(u, v)) ** 2).sum() / (n * n), 1e-12)
    res = rank1_boolean_round(u, v, a, delta)
    return res.residual / (res.delta ** (1.0 / 3.0) * n * n)


def test_criterion_11_rank1_rounding():
    rng = np.random.default_rng(424242)  # distinct from the calibration seed
    worst = 0.0
    for _ in range(1000):
        ratio = _rank1_trial(rng)
        worst = max(worst, ratio)
        assert ratio <= C_CAL, ratio
    report(11, f"1000 rounding trials within c_cal = {C_CAL:.4f} (worst ratio {worst:.4f})")


def test_criterion_12_bisection_and_discrepancy(corpus):
    rep = cuts.bisection_exact(ec.cycle(4))
    assert rep.bw == 2 == brute_bisection(ec.cycle(4).adjacency)[0]
    assert rep.dfc == Fraction(2, 3)
    rep = cuts.bisection_exact(ec.complete(4))
    assert rep.bw == 4 == brute_bisection(ec.complete(4).adjacency)[0]
    assert rep.dfc == 0
    disc = cuts.discrepancy(ec.cycle(4))
    oracle_plus, _ = brute_discrepancy(ec.cycle(4).adjacency)
    assert disc.disc_plus == Fraction(1, 3) == oracle_plus
    solved = 0
    for name, g in corpus:
        if g.n <= 16:
            assert cuts.bisection_exact(g).dfc >= 0, name
            solved += 1
    report(12, f"bw/dfc/disc exact on the named graphs; dfc >= 0 on {solved} exhaustively solved instances")


def test_criterion_13_triple_hadamard(corpus):
    dense = [(name, g) for name, g in corpus if g.density >= 0.4][:20]
    assert len(dense) == 20
    for name, g in dense:
        d = triple_hadamard_diagnostic(g)
        assert d["total"] >= -1e-6 * g.n**3, name
        assert d["expansion_residual"] <= 1e-6 * max(1.0, abs(d["total"])), name
    report(13, "cubic Hadamard form nonnegative and four-term expansion exact on 20 dense graphs")
