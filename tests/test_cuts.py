import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import cuts
from eigencliques.errors import InputError, SizeError
from oracles import (
    brute_bisection,
    brute_discrepancy,
    brute_maxcut,
    brute_surplus,
    local_optimum_cuts,
)


def test_maxcut_exact_named_values():
    assert cuts.maxcut_exact(ec.cycle(5)).cut_size == 4
    assert cuts.maxcut_exact(ec.cycle(5)).surplus == Fraction(3, 2)
    assert cuts.maxcut_exact(ec.complete(5)).cut_size == 6
    assert cuts.maxcut_exact(ec.complete(7)).cut_size == 12


def test_maxcut_exact_matches_brute_oracle():
    graphs = [ec.cycle(5), ec.complete(5), ec.petersen(), ec.gnp(10, 0.5, 1), ec.gnp(11, 0.3, 2), ec.h_k(3), ec.turan(3, 9)]
    for g in graphs:
        mine = cuts.maxcut_exact(g)
        oracle, _ = brute_maxcut(g.adjacency)
        assert mine.cut_size == oracle
        assert cuts.cut_size(g, mine.partition) == mine.cut_size


def test_maxcut_exact_lexicographic_tiebreak():
    g = ec.from_edge_list(4, [(0, 1), (2, 3)])
    rep = cuts.maxcut_exact(g)
    _, oracle_sides = brute_maxcut(g.adjacency)
    assert rep.partition == oracle_sides  # both scan ascending, first optimum


def test_maxcut_bipartite_cuts_everything():
    for g in (ec.turan(2, 10), ec.cycle(8), ec.path(7)):
        rep = cuts.maxcut_exact(g)
        assert rep.cut_size == g.m
        assert rep.surplus == Fraction(g.m, 2)


def test_maxcut_exact_size_error():
    with pytest.raises(SizeError):
        cuts.maxcut_exact(ec.gnp(30, 0.2, 1))


def test_k5_edwards_sharp():
    rep = cuts.maxcut_exact(ec.complete(5))
    assert rep.cut_size == pytest.approx(ec.complete(5).m / 2 + (81**0.5 - 1) / 8)


def test_edwards_floor_sample():
    for g in (ec.cycle(5), ec.complete(6), ec.gnp(12, 0.4, 3), ec.petersen()):
        rep = cuts.maxcut_exact(g)
        assert rep.cut_size >= cuts.edwards_floor(g.m) - 1e-9


def test_local_search_empty():
    rep = cuts.maxcut_local_search(ec.from_edge_list(4, []))
    assert rep.cut_size == 0 and rep.surplus == 0


def test_local_search_k5_all_local_optima_global():
    vals = set(local_optimum_cuts(ec.complete(5).adjacency))
    assert vals == {6}
    for seed in range(5):
        assert cuts.maxcut_local_search(ec.complete(5), seed).cut_size == 6


def test_local_search_guarantee_gnp200():
    g = ec.gnp(200, 0.5, 9)
    rep = cuts.maxcut_local_search(g, 9)
    assert rep.cut_size >= g.m / 2
    assert cuts.cut_size(g, rep.partition) == rep.cut_size


def test_local_search_visiting_order_pinned():
    # partitions recorded from the per-vertex masked-sum search: the hill
    # climb must visit 0..n-1 and flip only on a strictly positive gain
    rep = cuts.maxcut_local_search(ec.gnp(60, 0.3, 5), 3)
    assert rep.cut_size == 341
    assert "".join(map(str, rep.partition)) == "100111001000111111100000101001100010111010001010101100101010"
    rep = cuts.maxcut_local_search(ec.gnp(200, 0.5, 9), 9)
    assert rep.cut_size == 5472
    assert hashlib.sha256(bytes(rep.partition)).hexdigest().startswith("f8ec9c67bc88716c")


def test_hill_climb_needs_no_square_array():
    g = ec.gnp(600, 0.5, 4)
    x = np.arange(g.n) % 2
    tracemalloc.start()
    try:
        cuts._hill_climb(g.adjacency, x, g.n * (g.n - 1) // 2, -g.m, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n // 4  # an n x n uint8 copy alone would take 4x this


def test_cut_size_needs_no_square_array():
    g = ec.gnp(600, 0.5, 4)
    sides = np.arange(g.n) % 2
    tracemalloc.start()
    try:
        cut = cuts.cut_size(g, sides)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n // 4  # an n x n bool mask alone would take 4x this
    assert cut == int(g.adjacency[np.ix_(sides == 0, sides == 1)].sum())


def test_cut_size_rejects_non_binary_sides():
    g = ec.cycle(4)
    assert cuts.cut_size(g, [0, 1, 0, 1]) == 4
    with pytest.raises(InputError):
        cuts.cut_size(g, [0, 2, 0, 2])
    with pytest.raises(InputError):
        cuts.cut_size(g, [0, 1, 0])


def test_surplus_monotone_under_deletion():
    # deleting one vertex never increases surplus; chains give all induced subgraphs
    for g in (ec.gnp(12, 0.5, 21), ec.clique_union([5, 4, 3]), ec.h_k(4)):
        s = brute_surplus(g.adjacency)
        for v in range(g.n):
            sub = ec.induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert brute_surplus(sub.adjacency) <= s


def test_surplus_lb_spectral_k3():
    b = cuts.surplus_lb_spectral(ec.complete(3))
    assert b.lb_linear == pytest.approx(2.0, abs=1e-8)
    assert b.certificate_diag_ok


def test_surplus_lb_spectral_empty():
    b = cuts.surplus_lb_spectral(ec.from_edge_list(5, []))
    assert b.lb_linear == 0 and b.lb_quadratic == 0 and b.lb_cubic == 0


def test_surplus_lb_spectral_petersen():
    b = cuts.surplus_lb_spectral(ec.petersen())
    assert b.lb_linear == pytest.approx(8.0, abs=1e-7)
    assert b.certificate_diag_ok
    assert b.diagnostics["X_linear"]["max_diag"] <= 1 + 1e-10
    assert b.diagnostics["X_cubic"]["max_diag"] <= 1 + 1e-10


def test_surplus_caps_examples():
    b = cuts.spectral_surplus_caps(ec.complete(5))
    assert b.ub_surp_quarter == pytest.approx(1.25, abs=1e-8)
    assert float(cuts.maxcut_exact(ec.complete(5)).surplus) <= b.ub_surp_quarter + 1e-9
    assert cuts.spectral_surplus_caps(ec.from_edge_list(3, [])).ub_surp_quarter == 0
    b = cuts.spectral_surplus_caps(ec.cycle(5))
    assert b.ub_surp_quarter == pytest.approx(abs(2 * np.cos(4 * np.pi / 5)) * 5 / 4, abs=1e-8)
    assert b.ub_surp_quarter >= 1.5


def test_unbalanced_cut_star():
    g = ec.from_edge_list(6, [(0, i) for i in range(1, 6)])
    rep = cuts.unbalanced_cut(g, [1, 2, 3, 4, 5])
    assert rep.certificates["branch"] == "plain"
    assert float(rep.surplus) == pytest.approx(2.5)


def test_unbalanced_cut_k4():
    g = ec.complete(4)
    rep = cuts.unbalanced_cut(g, [0, 1])
    # a=1, b=4, c=1: plain branch applies since a <= b/2
    assert rep.certificates == pytest.approx(rep.certificates)
    assert rep.certificates["a"] == 1 and rep.certificates["b"] == 4 and rep.certificates["c"] == 1
    assert rep.certificates["branch"] == "plain"
    assert float(rep.surplus) >= rep.certificates["guarantee"] - 1e-9
    assert float(brute_surplus(g.adjacency)) >= float(rep.surplus)


def test_unbalanced_cut_biased_branch():
    # dense X, few crossing edges: b < 2a forces the biased branch
    g = ec.clique_union([6, 2])
    adj = g.adjacency.copy()
    adj.setflags(write=True)
    adj[0, 6] = adj[6, 0] = 1
    g = ec.Graph(adj)
    rep = cuts.unbalanced_cut(g, range(6))
    assert rep.certificates["branch"] == "biased"
    assert 0 <= rep.certificates["p"] < 0.5
    assert float(rep.surplus) >= rep.certificates["guarantee"] - 1e-9
    assert cuts.cut_size(g, rep.partition) == rep.cut_size


def test_unbalanced_cut_disjoint_triangles():
    g = ec.clique_union([3, 3])
    rep = cuts.unbalanced_cut(g, [0, 1, 2])
    assert rep.certificates["b"] == 0
    assert float(rep.surplus) >= rep.certificates["guarantee"] - 1e-9


def test_unbalanced_cut_errors():
    with pytest.raises(InputError):
        cuts.unbalanced_cut(ec.cycle(4), [])
    with pytest.raises(InputError):
        cuts.unbalanced_cut(ec.cycle(4), [0, 1, 2, 3])


def test_bisection_examples():
    rep = cuts.bisection_exact(ec.cycle(4))
    assert rep.bw == 2 and rep.dfc == Fraction(2, 3)
    rep = cuts.bisection_exact(ec.complete(4))
    assert rep.bw == 4 and rep.dfc == 0
    rep = cuts.bisection_exact(ec.from_edge_list(6, []))
    assert rep.bw == 0 and rep.dfc == 0


def test_bisection_matches_oracle():
    tied = (ec.from_edge_list(6, []), ec.complete(5), ec.cycle(8), ec.clique_union([3, 3, 2]))
    for g in (ec.cycle(7), ec.gnp(8, 0.5, 3), ec.petersen(), ec.h_k(3), *tied):
        rep = cuts.bisection_exact(g)
        bw, k_side = brute_bisection(g.adjacency)
        assert rep.bw == bw
        assert [v for v, side in enumerate(rep.witnesses["bisection"]) if side] == list(k_side)


def test_bisection_size_error():
    with pytest.raises(SizeError):
        cuts.bisection_exact(ec.gnp(30, 0.1, 1))


def test_exhaustive_limit_ignores_larger_cutoff():
    # a cutoff above EXHAUSTIVE_CUT_LIMIT cannot lift it: the subset table
    # refuses n = 25 before it allocates its 2^25 entries
    g = ec.gnp(cuts.EXHAUSTIVE_CUT_LIMIT + 1, 0.3, 1)
    for routine in (cuts.maxcut_exact, cuts.bisection_exact, cuts.discrepancy):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="maxcut_local_search"):
                routine(g, cutoff=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, routine.__name__


def test_discrepancy_c4():
    rep = cuts.discrepancy(ec.cycle(4))
    assert rep.disc_plus == Fraction(1, 3)
    wit = rep.witnesses["disc_plus"]
    assert len(wit) == 2 and ec.cycle(4).adjacency[wit[0], wit[1]] == 1


def test_discrepancy_complete_and_empty():
    assert cuts.discrepancy(ec.complete(7)).disc_plus == 0
    rep = cuts.discrepancy(ec.from_edge_list(5, []))
    assert rep.disc_plus == 0 and rep.disc_minus == 0


def test_discrepancy_matches_oracle():
    for g in (ec.cycle(5), ec.gnp(7, 0.5, 5), ec.h_k(2), ec.turan(2, 6)):
        rep = cuts.discrepancy(g)
        op, om = brute_discrepancy(g.adjacency)
        assert rep.disc_plus == op
        assert rep.disc_minus == om


def test_discrepancy_witnesses_reproduce_values():
    g = ec.gnp(9, 0.4, 8)
    rep = cuts.discrepancy(g)
    p = Fraction(g.m, g.n * (g.n - 1) // 2)
    wit = rep.witnesses["disc_plus"]
    k = len(wit)
    idx = np.asarray(wit, dtype=int)
    e = int(g.adjacency[np.ix_(idx, idx)].sum()) // 2 if k else 0
    assert Fraction(e) - p * Fraction(k * (k - 1), 2) == rep.disc_plus


def test_discrepancy_exact_at_exhaustive_limit():
    # the exact branch at n = 24 (int32 scores over 2^24 subsets); the values
    # and witnesses were recorded from the int64 implementation
    rep = cuts.discrepancy(ec.gnp(24, 0.5, 1), cutoff=24)
    assert rep.method == "exact"
    assert rep.disc_plus == Fraction(1715, 92)
    assert rep.disc_minus == Fraction(1781, 92)
    assert rep.witnesses == {
        "disc_plus": [2, 3, 5, 6, 7, 8, 9, 11, 13, 14, 15, 18, 21, 22, 23],
        "disc_minus": [1, 4, 5, 6, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 21],
    }


def test_discrepancy_heuristic_mode():
    g = ec.gnp(25, 0.5, 2)
    rep = cuts.discrepancy(g)
    assert rep.method == "local-search"
    assert rep.disc_plus == Fraction(484, 25)
    assert rep.disc_minus == Fraction(811, 50)
    assert rep.witnesses == {
        "disc_plus": [0, 1, 5, 7, 8, 11, 12, 13, 15, 16, 17, 18, 20, 21, 22, 23, 24],
        "disc_minus": [1, 3, 6, 7, 8, 9, 10, 12, 13, 19, 20, 23, 24],
    }


def test_dfc_nonnegative_small():
    for g in (ec.cycle(6), ec.gnp(9, 0.5, 7), ec.turan(3, 9), ec.clique_union([4, 4])):
        assert cuts.bisection_exact(g).dfc >= 0


def test_cut_report_json():
    doc = cuts.maxcut_exact(ec.cycle(5)).to_json_dict()
    assert set(doc) == {"method", "value", "surplus", "partition", "certificates"}
