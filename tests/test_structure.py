import itertools
import math

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import structure
from eigencliques.errors import InputError
from conftest import flip_edges, planted_noisy_union
from oracles import brute_cherries, clique_union_model, loop_regular_partition, rank1_boolean_round


def test_regular_partition_two_blocks():
    g = ec.clique_union([50, 50])
    rp = structure.regular_partition(g, 0.2)
    assert rp.K == 8
    total = rp.K * (rp.K - 1) // 2
    homogeneous = sum(1 for p in rp.pairs if p["class"] != "irregular")
    assert homogeneous >= 0.9 * total
    # classifications re-verified by independent density recomputation
    for p in rp.pairs:
        pi = np.asarray(rp.parts[p["i"]], dtype=int)
        pj = np.asarray(rp.parts[p["j"]], dtype=int)
        dens = float(g.adjacency[np.ix_(pi, pj)].sum()) / (len(pi) * len(pj))
        assert dens == pytest.approx(p["density"], abs=1e-12)


def test_regular_partition_complete_all_full():
    rp = structure.regular_partition(ec.complete(40), 0.05)
    assert rp.K == 10 and all(p["class"] == "full" for p in rp.pairs)


def test_regular_partition_empty_all_empty():
    rp = structure.regular_partition(ec.from_edge_list(40, []), 0.05)
    assert rp.K == 10 and all(p["class"] == "empty" for p in rp.pairs)


def test_regular_partition_paper_constants_error():
    # the paper's constants asked for K = 250002 parts of n = 60 vertices; the
    # scaled constants are worked out from n and delta, and the one n they
    # cannot serve, n = 1 (K = 2), is an InputError
    rp = structure.regular_partition(ec.clique_union([30, 30]), 0.1)
    assert rp.profile["profile"] == "scaled" and rp.K == 11 and rp.irregular_count == 0
    assert (rp.profile["beta"], rp.profile["h"], rp.profile["K"]) == (0.1, 20, 11)
    with pytest.raises(InputError, match=r"^K=2 parts exceed n=1 vertices$"):
        structure.regular_partition(ec.from_edge_list(1, []), 0.1)


def test_regular_partition_parts_partition_vertices():
    g = ec.gnp(45, 0.5, 2)
    rp = structure.regular_partition(g, 0.2)
    assert rp.K == 8
    seen = [v for part in rp.parts for v in part] + list(rp.remainder)
    assert sorted(seen) == list(range(45))
    assert len({len(p) for p in rp.parts}) == 1


_PARTITION_CASES = [
    *[(f"gnp({n}, {p})", lambda n=n, p=p: ec.gnp(n, p, n)) for n in (8, 30, 101, 200) for p in (0.1, 0.5, 0.9)],
    ("clique_union([50, 50])", lambda: ec.clique_union([50, 50])),
    ("clique_union([40, 30, 20, 7])", lambda: ec.clique_union([40, 30, 20, 7])),
    ("clique_union([3] * 12)", lambda: ec.clique_union([3] * 12)),
    ("edgeless(40)", lambda: ec.from_edge_list(40, [])),  # no kept eigenvector: every vertex is exceptional
    ("edgeless(2)", lambda: ec.from_edge_list(2, [])),
    ("complete(2)", lambda: ec.complete(2)),
]


@pytest.mark.parametrize("name, make", _PARTITION_CASES, ids=[c[0] for c in _PARTITION_CASES])
def test_regular_partition_matches_the_loop_reference(name, make):
    # the array-built cells, parts and remainder are the per-vertex loop's, at every delta
    g = make()
    for delta in (0.05, 0.1, 0.2, 0.3, 0.6):
        got, want = structure.regular_partition(g, delta), loop_regular_partition(g, delta)
        assert (got.parts, got.remainder, got.irregular_count) == (want.parts, want.remainder, want.irregular_count)
        assert got.to_json_dict() == want.to_json_dict()
        assert all(type(v) is int for part in got.parts for v in part) and all(type(v) is int for v in got.remainder)


def test_regular_partition_one_vertex_matches_the_loop_reference():
    for f in (structure.regular_partition, loop_regular_partition):
        with pytest.raises(InputError, match=r"^K=2 parts exceed n=1 vertices$"):
            f(ec.from_edge_list(1, []), 0.1)


def test_cherry_count_examples():
    assert structure.cherry_count(ec.path(3)) == 1
    assert structure.cherry_count(ec.clique_union([5, 3, 2])) == 0
    assert structure.cherry_count(ec.cycle(4)) == 4


def test_cherry_count_matches_brute():
    for g in (ec.cycle(6), ec.gnp(10, 0.4, 3), ec.h_k(3), ec.petersen(), ec.turan(3, 9)):
        assert structure.cherry_count(g) == brute_cherries(g.adjacency)


def test_triangle_count():
    assert structure.triangle_count(ec.complete(5)) == 10
    assert structure.triangle_count(ec.cycle(5)) == 0


def test_decompose_exact_union():
    d = structure.clique_union_decompose(ec.clique_union([30, 20, 10]))
    assert [len(b) for b in d.blocks] == [30, 20, 10]
    assert d.edit_distance == 0 and d.closeness == 0.0
    assert d.clique_union_like


def test_decompose_one_cross_edge():
    g = flip_edges(ec.clique_union([30, 30]), [(0, 30)])
    d = structure.clique_union_decompose(g)
    assert len(d.blocks) == 2
    assert d.edit_distance == 1


def test_decompose_turan_flagged():
    d = structure.clique_union_decompose(ec.turan(3, 30))
    assert d.edit_distance > 0
    assert not d.clique_union_like


def test_decompose_interior_deletion_merges_back():
    g = flip_edges(ec.clique_union([12, 9]), [(0, 1)])
    d = structure.clique_union_decompose(g)
    assert d.edit_distance == 1
    assert [len(b) for b in d.blocks] == [12, 9]


def test_decompose_model_is_clique_union():
    g = ec.gnp(20, 0.5, 5)
    d = structure.clique_union_decompose(g)
    model = clique_union_model(g.n, d.blocks)
    mg = ec.Graph(model)
    assert structure.cherry_count(mg) == 0
    recount = int((g.adjacency != model).sum()) // 2
    assert recount == d.edit_distance


def test_decompose_edgeless():
    d = structure.clique_union_decompose(ec.from_edge_list(5, []))
    assert d.blocks == [] and len(d.leftover) == 5 and d.edit_distance == 0


@pytest.mark.parametrize("n", [0, 5])
def test_decompose_unknown_extractor_fails_before_peeling(n):
    with pytest.raises(InputError, match="unknown extractor 'bogus'"):
        structure.clique_union_decompose(ec.from_edge_list(n, []), extractor="bogus")


def test_decompose_pipeline_peels_read_no_spectrum(monkeypatch):
    # the peels run the four-phase search without its spectral certificate;
    # the expected values were recorded when every peel still ran the full
    # clique_pipeline, with its eigendecomposition, on the residual graph
    from eigencliques import densify, spectral

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum or lambda_min called during the peels")

    for mod in (spectral, densify, structure):
        for name in ("spectrum", "lambda_min"):
            if hasattr(mod, name):  # densify imports lambda_min only
                monkeypatch.setattr(mod, name, refuse)
    g = planted_noisy_union(40, 5, 11)
    d = structure.clique_union_decompose(g)
    planted = [tuple(range(40 * i, 40 * (i + 1))) for i in range(5)]
    assert d.cliques == [planted[2], planted[0], planted[1], planted[3], planted[4]]
    assert d.blocks == planted
    assert d.leftover == ()
    assert d.edit_distance == 305
    assert d.closeness == 0.007625


def test_pair_classify_sparse_and_dense():
    g = ec.clique_union([20, 20])
    out = structure.pair_classify(g, range(20), range(20, 40))
    assert out["class"] == "Sparse" and out["crossing_edges"] == 0
    k40 = ec.complete(40)
    out = structure.pair_classify(k40, range(20), range(20, 40))
    assert out["class"] == "Dense" and out["crossing_edges"] == 400


def test_pair_classify_half_join_mixed_with_witness():
    g = ec.clique_union([40, 40])
    adj = g.adjacency.copy()
    adj.setflags(write=True)
    for x in range(40):
        for y in range(40, 60):  # every X-vertex joined to the same half of Y
            adj[x, y] = adj[y, x] = 1
    g = ec.Graph(adj)
    out = structure.pair_classify(g, range(40), range(40, 80), lambda_n=1.0)
    assert out["class"] == "Mixed"
    assert out["witness"] is not None
    v = out["witness"]["vertex"]
    other = np.arange(40, 80) if v < 40 else np.arange(40)
    assert int(g.adjacency[v, other].sum()) == out["witness"]["neighbors_across"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2"])
def test_pair_classify_rejects_nonfinite_lambda_n(bad):
    # NaN read "Mixed" and inf read "Sparse" on two disjoint 20-cliques
    g = ec.clique_union([20, 20])
    with pytest.raises(InputError, match="lambda_n=.* must be a finite number"):
        structure.pair_classify(g, range(20), range(20, 40), lambda_n=bad)


def test_pair_classify_validation():
    g = ec.clique_union([5, 5])
    with pytest.raises(InputError):
        structure.pair_classify(g, [0, 1, 2], [5, 6])
    with pytest.raises(InputError):
        structure.pair_classify(ec.cycle(8), [0, 1, 2, 3], [4, 5, 6, 7])


@pytest.mark.parametrize(
    "cross, witness",
    [
        # X reads 2, 4, 1, 0 neighbours across: vertex 0 is inside [1/2, 7/2]
        ([(0, 4), (0, 5)] + [(1, 4 + j) for j in range(4)] + [(2, 4)], {"vertex": 0, "neighbors_across": 2}),
        # X reads 4, 4, 0, 0, all outside; each Y vertex reads 2
        ([(i, 4 + j) for i in range(2) for j in range(4)], {"vertex": 4, "neighbors_across": 2}),
    ],
)
def test_pair_classify_mixed_witness(cross, witness):
    # k_base = 2 lambda_n^2 = 1/2; the witness is the first vertex of X, else
    # of Y, with between k_base and |X| - k_base neighbours on the other side
    g = ec.from_edge_list(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i < 4) == (j < 4)] + cross)
    rep = structure.pair_classify(g, range(4), range(4, 8), lambda_n=0.5)
    assert (rep["class"], rep["witness"]) == ("Mixed", witness)


@pytest.mark.parametrize("xs,ys", [([-3, -2, -1], [3, 4, 5]), ([0, 1, 2], [3, 4, 99])])
def test_pair_classify_rejects_out_of_range_vertices(xs, ys):
    # -3..-1 wrapped round to 3..5 and read "Mixed" against the same three
    # vertices; 99 raised a bare IndexError
    with pytest.raises(InputError, match="vertex out of range"):
        structure.pair_classify(ec.clique_union([3, 3]), xs, ys, lambda_n=0.1)


def test_rank1_round_exact():
    rng = np.random.default_rng(1)
    x = (rng.random(30) < 0.5).astype(float)
    y = (rng.random(30) < 0.5).astype(float)
    a = np.outer(x, y)
    res = rank1_boolean_round(x, y, a, 0.01)
    assert res.residual == 0.0


def test_rank1_round_allones_with_flips():
    n = 50
    a = np.ones((n, n))
    rng = np.random.default_rng(2)
    for _ in range(10):
        i, j = rng.integers(0, n, 2)
        a[i, j] = 0.0
    ones = np.ones(n)
    res = rank1_boolean_round(ones, ones, a, 10 / (n * n))
    assert res.residual <= 10


def test_rank1_round_zero_vectors():
    a = (np.random.default_rng(3).random((20, 20)) < 0.5).astype(float)
    np.fill_diagonal(a, 0)
    res = rank1_boolean_round(np.zeros(20), np.zeros(20), a, 1.0)
    assert not res.x.any() and not res.y.any()
    assert res.residual == float((a**2).sum())


def test_rank1_round_delta_raised_flag():
    a = np.eye(10)
    res = rank1_boolean_round(np.zeros(10), np.zeros(10), a, 1e-9)
    assert res.delta_raised
    assert res.delta == pytest.approx(10 / 100)


def test_cherry_bound_for_planted_close_graphs():
    # delta-close to a union of cliques => at most 3 delta n^3 cherries
    base = ec.clique_union([15, 10, 5])
    rng = np.random.default_rng(4)
    flips = set()
    while len(flips) < 12:
        u, v = sorted(rng.integers(0, 30, 2).tolist())
        if u != v:
            flips.add((u, v))
    g = flip_edges(base, flips)
    delta = len(flips) / base.n**2
    assert structure.cherry_count(g) <= 3 * delta * base.n**3


def test_three_part_surplus_obstruction():
    # (X,Y),(Y,Z) full and (X,Z) empty forces surplus >= (1/4 - 3 delta)|X|^2
    from oracles import brute_surplus

    for size in (3, 5, 7):
        n = 3 * size
        adj = np.zeros((n, n), dtype=np.uint8)
        x = range(size)
        y = range(size, 2 * size)
        z = range(2 * size, 3 * size)
        for u in x:
            for v in y:
                adj[u, v] = adj[v, u] = 1
        for u in y:
            for v in z:
                adj[u, v] = adj[v, u] = 1
        g = ec.Graph(adj)
        assert float(brute_surplus(g.adjacency)) >= 0.25 * size * size - 1e-9


def test_decompose_json_fields():
    d = structure.clique_union_decompose(ec.clique_union([4, 3]))
    doc = d.to_json_dict()
    assert set(doc) == {"blocks", "leftover", "edit_distance", "closeness"}
    rp = structure.regular_partition(ec.complete(20), 0.2)
    pdoc = rp.to_json_dict()
    assert set(pdoc) >= {"K", "delta", "pairs"}
    assert set(pdoc["pairs"][0]) == {"i", "j", "density", "class"}
