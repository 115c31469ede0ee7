import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import cuts
from eigencliques.errors import InputError, SizeError
from eigencliques.graphs import pair_uniforms
from oracles import (
    brute_bisection,
    brute_discrepancy,
    brute_maxcut,
    brute_surplus,
    edwards_floor,
    local_optimum_cuts,
    table_discrepancy,
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
    for g in (ec.turan(2, 10), ec.cycle(8), ec.path(7), ec.from_edge_list(0, [])):
        rep = cuts.maxcut_exact(g)
        assert rep.cut_size == g.m and len(rep.partition) == g.n
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
        assert rep.cut_size >= edwards_floor(g.m) - 1e-9


def test_local_search_empty():
    for n in (4, 0):
        rep = cuts.maxcut_local_search(ec.from_edge_list(n, []))
        assert rep.cut_size == 0 and rep.surplus == 0 and len(rep.partition) == n
        assert rep.method == "local-search"


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
    tracemalloc.start()
    try:
        cuts.maxcut_local_search(g, 4)
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
    assert b.diagnostics["delta_star"] == 0  # Delta* = min(Delta, Delta of the complement)


def test_surplus_lb_spectral_empty():
    b = cuts.surplus_lb_spectral(ec.from_edge_list(5, []))
    assert b.lb_linear == 0 and b.lb_quadratic == 0 and b.lb_cubic == 0


def test_surplus_lb_spectral_petersen():
    b = cuts.surplus_lb_spectral(ec.petersen())
    assert b.lb_linear == pytest.approx(8.0, abs=1e-7)
    assert b.certificate_diag_ok
    assert b.diagnostics["X_linear"]["max_diag"] <= 1 + 1e-10
    assert b.diagnostics["X_cubic"]["max_diag"] <= 1 + 1e-10
    assert b.diagnostics["delta_star"] == 3
    # the star K(1,7): Delta = 7, and the complement's largest degree is 8 - 1 - 1 = 6
    star = ec.from_edge_list(8, [(0, i) for i in range(1, 8)])
    assert cuts.surplus_lb_spectral(star).diagnostics["delta_star"] == 6


def test_surplus_caps_examples():
    cap = cuts.spectral_surplus_caps(ec.complete(5))
    assert cap == pytest.approx(1.25, abs=1e-8)
    assert float(cuts.maxcut_exact(ec.complete(5)).surplus) <= cap + 1e-9
    assert cuts.spectral_surplus_caps(ec.from_edge_list(3, [])) == 0.0
    cap = cuts.spectral_surplus_caps(ec.cycle(5))
    assert cap == pytest.approx(abs(2 * np.cos(4 * np.pi / 5)) * 5 / 4, abs=1e-8)
    assert cap >= 1.5


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
    # the partitions and certificates (keys in order) of both branches on every
    # prefix split and one seeded split of each size, pinned by their hash
    lines, branches = [], set()
    for n, p in ((7, 0.3), (10, 0.5), (13, 0.8)):
        g = ec.gnp(n, p, n)
        for k in range(1, n):
            chosen = np.argsort(pair_uniforms(k, np.arange(n, dtype=np.uint64), np.full(n, n, dtype=np.uint64)))[:k]
            for xs in (range(k), chosen.tolist()):
                rep = cuts.unbalanced_cut(g, xs)
                branches.add(rep.certificates["branch"])
                lines.append(repr((rep.partition, rep.cut_size, rep.surplus, list(rep.certificates.items()))))
    assert branches == {"plain", "biased"}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == "05ce47b1c4b4b62832c7784aa8e81bf4668a55a9b41f729e61c11e5176ca18b3"


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


def test_exhaustive_limit_refuses_before_allocating():
    # n = 25 is refused before any enumeration array is allocated: the cap is
    # one block of the walk (2^14 int32s), which peaks at 0.82 MiB at n = 24.
    # Only MaxCut has a local search to point to
    g = ec.gnp(cuts.EXHAUSTIVE_CUT_LIMIT + 1, 0.3, 1)
    for routine in (cuts.maxcut_exact, cuts.bisection_exact, cuts.discrepancy):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="exceeds") as info:
                routine(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, routine.__name__
        assert ("maxcut_local_search" in str(info.value)) == (routine is cuts.maxcut_exact)


# Values and witnesses recorded from the implementation that built whole-table
# temporaries, keyed by (n, graph): maxcut value and partition, then bisection
# width, deficit and witness. At each of these n every walk spans several
# blocks of 2^14 masks, and the edgeless and complete graphs tie across all of
# them.
_ACROSS_BLOCKS = {
    (18, "edgeless"): (0, "000000000000000000", 0, 0, "111111111000000000"),
    (18, "complete"): (81, "000000000111111111", 81, 0, "111111111000000000"),
    (18, "gnp"): (56, "000001011011101111", 30, Fraction(210, 17), "101010000111100011"),
    (20, "edgeless"): (0, "00000000000000000000", 0, 0, "11111111110000000000"),
    (20, "complete"): (100, "00000000001111111111", 100, 0, "11111111110000000000"),
    (20, "gnp"): (64, "01010101011110100001", 36, 14, "10100001001111000111"),
    (22, "edgeless"): (0, "0000000000000000000000", 0, 0, "1111111111100000000000"),
    (22, "complete"): (121, "0000000000011111111111", 121, 0, "1111111111100000000000"),
    (22, "gnp"): (82, "0101100110000011101101", 47, Fraction(122, 7), "1001010111011000101010"),
    (24, "edgeless"): (0, "000000000000000000000000", 0, 0, "111111111111000000000000"),
    (24, "complete"): (144, "000000000000111111111111", 144, 0, "111111111111000000000000"),
    (24, "gnp"): (92, "010000011000010011101011", 53, Fraction(425, 23), "110100100110101111100000"),
}


def _graph(n: int, kind: str) -> ec.Graph:
    if kind == "edgeless":
        return ec.from_edge_list(n, [])
    return ec.complete(n) if kind == "complete" else ec.gnp(n, 0.5, n)


def _bits(sides) -> str:
    return "".join(str(int(x)) for x in sides)


@pytest.mark.parametrize("n, kind", sorted(_ACROSS_BLOCKS))
def test_exact_cuts_ties_across_blocks(n, kind):
    value, partition, bw, dfc, bisection = _ACROSS_BLOCKS[n, kind]
    g = _graph(n, kind)
    rep = cuts.maxcut_exact(g)
    assert (rep.cut_size, _bits(rep.partition)) == (value, partition)
    rep = cuts.bisection_exact(g)
    assert (rep.bw, rep.dfc, _bits(rep.witnesses["bisection"])) == (bw, dfc, bisection)


@pytest.mark.parametrize(
    "n, kind, disc_plus, disc_minus, witnesses",
    [
        (18, "complete", 0, 0, ([], [])),
        (
            18, "gnp", Fraction(433, 51), Fraction(196, 17),
            ([0, 1, 2, 3, 4, 6, 10, 11, 12, 13, 14, 16], [5, 7, 8, 10, 11, 12, 14, 15, 16, 17]),
        ),
        (20, "complete", 0, 0, ([], [])),
        (
            20, "gnp", Fraction(23, 2), 12,
            ([0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 18, 19], [0, 1, 2, 3, 4, 5, 6, 10, 12, 13, 15, 16, 17]),
        ),
        # checked once against oracles.table_discrepancy
        (
            23, "gnp", Fraction(376, 23), Fraction(3678, 253),
            ([0, 1, 2, 5, 9, 14, 15, 16, 18, 20, 21, 22], [0, 1, 2, 3, 4, 5, 7, 10, 11, 12, 13, 14, 17, 18, 19]),
        ),
        (24, "complete", 0, 0, ([], [])),
        (
            24, "gnp", Fraction(1645, 92), Fraction(5015, 276),
            ([2, 3, 5, 7, 8, 10, 11, 13, 15, 17, 18, 19, 20, 22, 23], [0, 1, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 19, 21]),
        ),
    ],
)
def test_discrepancy_ties_across_blocks(n, kind, disc_plus, disc_minus, witnesses):
    # the complete graph scores 0 on every subset, so both witnesses are the first: the empty set
    rep = cuts.discrepancy(_graph(n, kind))
    assert rep.to_json_dict()["method"] == "exact"
    assert (rep.disc_plus, rep.disc_minus) == (disc_plus, disc_minus)
    assert (rep.witnesses["disc_plus"], rep.witnesses["disc_minus"]) == witnesses


def test_exact_cuts_peak_memory():
    # the meet-in-the-middle walk holds a few blocks of 2^14 int32s and one
    # row per top vertex, at the largest exact n (measured 0.69, 0.76 and 0.82 MiB)
    g = ec.gnp(cuts.EXHAUSTIVE_CUT_LIMIT, 0.5, 24)
    for routine in (cuts.maxcut_exact, cuts.bisection_exact, cuts.discrepancy):
        tracemalloc.start()
        try:
            routine(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (routine.__name__, peak)


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
    # int32 scores over all 2^n subsets at n = 20 (values recorded from the
    # implementation that still took a cutoff, at its default) and at
    # n = EXHAUSTIVE_CUT_LIMIT = 24 (checked once against oracles.table_discrepancy)
    for n, disc_plus, disc_minus, witnesses in (
        (20, Fraction(1279, 95), Fraction(1227, 95), (
            [2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 18],
            [1, 4, 5, 9, 10, 11, 12, 15, 16, 17, 18, 19],
        )),
        (cuts.EXHAUSTIVE_CUT_LIMIT, Fraction(1715, 92), Fraction(1781, 92), (
            [2, 3, 5, 6, 7, 8, 9, 11, 13, 14, 15, 18, 21, 22, 23],
            [1, 4, 5, 6, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 21],
        )),
    ):
        rep = cuts.discrepancy(ec.gnp(n, 0.5, 1))
        assert (rep.disc_plus, rep.disc_minus) == (disc_plus, disc_minus), n
        assert (rep.witnesses["disc_plus"], rep.witnesses["disc_minus"]) == witnesses, n


def test_discrepancy_exact_where_local_search_fell_short():
    # the n = 22 bisect graph of the benchmark's dense_random workload at seed
    # 7919: its third small graph, the half of all pairs with the smallest
    # keys at hash seed 7919 * 3 + 2. The 1-flip search that served n = 21 to
    # 24 reported disc+ 15.294... and disc- 13.857... on it
    n = 22
    iu, ju = np.triu_indices(n, 1)
    keep = np.argsort(pair_uniforms(7919 * 3 + 2, iu, ju), kind="stable")[: n * (n - 1) // 4]
    g = ec.from_edge_list(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
    rep = cuts.discrepancy(g)
    assert (float(rep.disc_plus), float(rep.disc_minus)) == (16.727272727272727, 16.857142857142858)
    assert (rep.disc_plus, rep.disc_minus, rep.witnesses["disc_plus"], rep.witnesses["disc_minus"]) == table_discrepancy(g.adjacency)


def test_dfc_nonnegative_small():
    for g in (ec.cycle(6), ec.gnp(9, 0.5, 7), ec.turan(3, 9), ec.clique_union([4, 4])):
        assert cuts.bisection_exact(g).dfc >= 0


def test_cut_report_json():
    doc = cuts.maxcut_exact(ec.cycle(5)).to_json_dict()
    assert set(doc) == {"method", "value", "surplus", "partition", "certificates"}
