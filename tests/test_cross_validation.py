"""Randomized sweeps pitting library routines against the brute-force oracles."""

import tracemalloc

import numpy as np

import eigencliques as ec
from eigencliques import chowla, cuts, densify, structure
from eigencliques.graphs import complement, degrees_into, neighbor_masks, triangles_per_vertex
from oracles import (
    brute_bisection,
    brute_cherries,
    brute_degrees_into,
    brute_discrepancy,
    brute_maxcut,
    brute_neighbor_masks,
    brute_triangles_per_vertex,
    clique_union_model,
    cosine_grid_min,
    table_bisection,
    table_discrepancy,
    table_maxcut,
)


def _random_graph(rng) -> ec.Graph:
    n = int(rng.integers(3, 10))
    p = float(rng.uniform(0.1, 0.9))
    return ec.gnp(n, p, int(rng.integers(0, 10_000)))


# graphs where many cuts tie, so they pin the tie-breaks
_TIED = (ec.from_edge_list(7, []), ec.complete(6), ec.cycle(8), ec.cycle(7), ec.clique_union([3, 3, 2]))


def test_maxcut_exact_sweep():
    rng = np.random.default_rng(101)
    for g in (*_TIED, *(_random_graph(rng) for _ in range(30))):
        rep = cuts.maxcut_exact(g)
        assert (rep.cut_size, rep.partition) == brute_maxcut(g.adjacency)


def test_bisection_sweep():
    rng = np.random.default_rng(102)
    for g in (*_TIED, *(_random_graph(rng) for _ in range(20))):
        rep = cuts.bisection_exact(g)
        bw, k_side = brute_bisection(g.adjacency)
        assert rep.bw == bw
        assert [v for v, side in enumerate(rep.witnesses["bisection"]) if side] == list(k_side)


def test_discrepancy_sweep():
    rng = np.random.default_rng(103)
    for _ in range(15):
        g = _random_graph(rng)
        rep = cuts.discrepancy(g)
        op, om = brute_discrepancy(g.adjacency)
        assert rep.disc_plus == op and rep.disc_minus == om


def _table_graphs(n: int) -> list[ec.Graph]:
    # edgeless and complete graphs tie every cut of a given size, cycles and
    # Turan graphs tie many
    graphs = [ec.from_edge_list(n, []), ec.complete(n), ec.gnp(n, 0.5, n)]
    return graphs + [ec.cycle(n), ec.turan(3, n)] if n >= 3 else graphs


def _check_against_tables(graphs) -> None:
    for g in graphs:
        rep = cuts.maxcut_exact(g)
        assert (rep.cut_size, rep.partition) == table_maxcut(g.adjacency), g.n
        rep = cuts.bisection_exact(g)
        assert (rep.bw, rep.witnesses["bisection"]) == table_bisection(g.adjacency), g.n
        if g.n >= 2:
            rep = cuts.discrepancy(g)
            got = (rep.disc_plus, rep.disc_minus, rep.witnesses["disc_plus"], rep.witnesses["disc_minus"])
            assert got == table_discrepancy(g.adjacency), g.n


def test_exact_cuts_match_table_scans():
    # the meet-in-the-middle walk at its default split against one 2^n table
    # per graph, for all three exact routines through their one limit. The
    # walk covers n vertices (n - 1 for maxcut and for even-n bisection, which
    # fix vertex 0): one block up to 14 of them, then 2^(walked - 14) blocks
    _check_against_tables(g for n in range(1, cuts.EXHAUSTIVE_CUT_LIMIT + 1) for g in _table_graphs(n))


def test_exact_cuts_small_blocks_sweep(monkeypatch):
    # with 2 or 3 low bits per block the Gray walk crosses many blocks from
    # n = 4 on, and values, witnesses and tie-breaks must not change
    rng = np.random.default_rng(106)
    graphs = [*_TIED, *(_random_graph(rng) for _ in range(15)), *(g for n in range(1, 13) for g in _table_graphs(n))]
    for low_bits in (2, 3):
        monkeypatch.setattr(cuts, "_LOW_BITS", low_bits)
        _check_against_tables(graphs)


def test_triangles_per_vertex_sweep():
    # the float32 product is exact; random graphs and their complements up to n = 40
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(3, 41))
        g = ec.gnp(n, float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 10_000)))
        for h in (g, complement(g)):
            tri = triangles_per_vertex(h.adjacency)
            assert tri.dtype == np.int64
            assert np.array_equal(tri, brute_triangles_per_vertex(h.adjacency))


def test_cherry_sweep():
    # also checks the triangle and neighbour-mask primitives that cherry
    # counting and the exact cuts are built on
    rng = np.random.default_rng(104)
    for _ in range(25):
        g = _random_graph(rng)
        assert structure.cherry_count(g) == brute_cherries(g.adjacency)
        assert triangles_per_vertex(g.adjacency).tolist() == brute_triangles_per_vertex(g.adjacency)
        assert neighbor_masks(g.adjacency) == brute_neighbor_masks(g.n, g.edges())


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Both run the merge over G(2000, 1/2)'s 2000 leftover vertices, which must
# hold one bool k x k matrix and no n x n count or density matrix.


def test_clique_union_decompose_peak_at_n2000():
    g = ec.gnp(2000, 0.5, 0)
    dec, peak = _traced_peak(lambda: structure.clique_union_decompose(g))
    assert [len(b) for b in dec.blocks] == [2000] and dec.edit_distance == 998920
    assert peak <= 1.5 * 8 * g.n * g.n, peak / (8 * g.n * g.n)


def test_clique_pipeline_peak_at_n2000():
    # the floor is lambda_min's 2.0 x 8 n^2
    g = ec.gnp(2000, 0.5, 0)
    cert, peak = _traced_peak(lambda: densify.clique_pipeline(g))
    assert cert.verified and cert.size == 14
    assert peak <= 2.1 * 8 * g.n * g.n, peak / (8 * g.n * g.n)


def test_degrees_into_sweep():
    # empty rows or cols, one vertex, the full set, overlapping and disjoint
    # sets, and n = 0 and 1, then random sets on random graphs and complements
    graphs = [ec.from_edge_list(0, []), ec.from_edge_list(1, []), ec.complete(7), ec.cycle(9), ec.gnp(40, 0.5, 3)]
    for g in graphs:
        n, everything = g.n, list(range(g.n))
        cases = [([], everything), (everything, []), ([], []), (everything, everything)]
        if n:
            cases += [([0], [0]), ([0], everything), (everything, [n - 1])]
        if n > 2:
            half = n // 2
            cases += [(everything[:half], everything[half:]), (everything[: half + 1], everything[half - 1 :])]
        for rows, cols in cases:
            deg = degrees_into(g.adjacency, rows, cols)
            assert deg.dtype == np.int64 and deg.shape == (len(rows),)
            assert np.array_equal(deg, brute_degrees_into(g.adjacency, rows, cols)), (n, rows, cols)
    rng = np.random.default_rng(108)
    for _ in range(20):
        g = ec.gnp(int(rng.integers(2, 61)), float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 10_000)))
        for h in (g, complement(g)):
            rows, cols = (np.sort(rng.choice(h.n, size=int(rng.integers(0, h.n + 1)), replace=False)) for _ in range(2))
            assert np.array_equal(degrees_into(h.adjacency, rows, cols), brute_degrees_into(h.adjacency, rows, cols))


def test_decompose_edit_zero_iff_cherry_free_random():
    # beyond the exhaustive n <= 7 check: random graphs up to n = 40
    rng = np.random.default_rng(105)
    for _ in range(20):
        n = int(rng.integers(8, 41))
        g = ec.gnp(n, float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 10_000)))
        d = structure.clique_union_decompose(g)
        assert (structure.cherry_count(g) == 0) == (d.edit_distance == 0)
        # the blocks' clique union is cherry-free and at the stated distance
        model = clique_union_model(g.n, d.blocks)
        assert structure.cherry_count(ec.Graph(model)) == 0
        assert int((g.adjacency != model).sum()) // 2 == d.edit_distance


def test_cosine_min_random_sets_vs_dense_grid():
    rng = np.random.default_rng(106)
    for _ in range(10):
        size = int(rng.integers(1, 9))
        a = sorted(int(x) for x in rng.choice(np.arange(1, 40), size=size, replace=False))
        _, f = chowla.cosine_min(a)
        oracle = cosine_grid_min(a, 500_000)
        assert oracle - 1e-5 <= f <= oracle + 1e-9


def test_unbalanced_cut_guarantee_random_splits():
    rng = np.random.default_rng(107)
    for _ in range(20):
        g = _random_graph(rng)
        if g.n < 3:
            continue
        k = int(rng.integers(1, g.n - 1))
        xs = sorted(rng.choice(g.n, size=k, replace=False).tolist())
        rep = cuts.unbalanced_cut(g, xs)
        assert float(rep.surplus) >= rep.certificates["guarantee"] - 1e-9
        assert cuts.cut_size(g, rep.partition) == rep.cut_size


def test_eigen_bound_report_sweep():
    from eigencliques import spectral

    rng = np.random.default_rng(109)
    for _ in range(12):
        g = ec.gnp(int(rng.integers(4, 26)), float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 999)))
        assert spectral.eigen_bound_report(g, ec.spectrum(g)).verdict == "holds"


def test_local_search_meets_half_degree_condition():
    rng = np.random.default_rng(108)
    for _ in range(10):
        g = ec.gnp(int(rng.integers(5, 40)), 0.4, int(rng.integers(0, 100)))
        rep = cuts.maxcut_local_search(g, seed=int(rng.integers(0, 100)))
        sides = np.asarray(rep.partition)
        for v in range(g.n):
            nbrs = g.adjacency[v].astype(bool)
            cross = int((sides[nbrs] != sides[v]).sum())
            assert 2 * cross >= int(nbrs.sum())


def test_lambda_min_matches_verified_spectrum():
    # the inertia-certified lambda_n from eigvalsh agrees with the verified
    # eigh spectrum to within the bracket's half-width delta
    from eigencliques import spectral

    graphs = [
        ec.from_edge_list(1, []),
        ec.from_edge_list(6, []),
        ec.cycle(5),
        ec.turan(2, 6),  # K_{3,3}
        ec.petersen(),
        *(ec.complete(n) for n in (2, 7, 40)),
        *(ec.clique_union(sizes) for sizes in ([3, 3], [5, 3, 1], [20, 12, 8])),
        *(ec.gnp(n, 0.5, seed) for n, seed in ((30, 1), (64, 2), (200, 3), (500, 4), (500, 5))),
    ]
    for g in graphs:
        lam = ec.spectrum(g).lambda_min
        delta = spectral.default_tol(g.n) * (1.0 + abs(lam))
        assert abs(spectral.lambda_min(g) - lam) <= delta
