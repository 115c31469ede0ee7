import itertools

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import densify
from eigencliques.errors import DegenerateInputError, InputError
from conftest import flip_edges, flipped_union, planted_noisy_union
from oracles import graph_balanced_subgraph, triple_hadamard_diagnostic, union_find_blocks


def test_phase0_k11():
    t = densify.phase0_neighborhood(ec.complete(11))
    assert len(t.vertices_out) == 10
    assert t.guarantee["measured_edges"] == 45
    assert t.guarantee["met"]


def test_phase0_two_cliques():
    t = densify.phase0_neighborhood(ec.clique_union([26, 26]))
    assert t.params["d"] == 25
    assert t.guarantee["measured_edges"] == 300
    assert t.guarantee["claimed_edges"] == pytest.approx(156.25)
    assert t.guarantee["met"]


def test_phase0_petersen_not_applicable():
    t = densify.phase0_neighborhood(ec.petersen())
    assert t.guarantee["applicable"] is False
    assert t.guarantee["measured_edges"] == 0  # neighbourhoods are independent sets


def test_phase0_edgeless_error():
    with pytest.raises(DegenerateInputError):
        densify.phase0_neighborhood(ec.from_edge_list(4, []))


def test_phase1_dense_fixed_point():
    g = ec.gnp(40, 0.6, 1)
    t = densify.phase1_densify(g, np.arange(g.n), 0.05, 0.1, 0.06)
    assert t.vertices_out == tuple(range(40))
    assert t.params["steps"] == []


def test_phase1_parameter_validation():
    g, vertices = ec.cycle(6), np.arange(6)
    with pytest.raises(InputError):
        densify.phase1_densify(g, vertices, 0.2, 0.9, 0.1)  # eps + 6 gamma >= 1
    with pytest.raises(InputError):
        densify.phase1_densify(g, vertices, 0.05, 0.1, 0.6)  # rho >= 1/2
    with pytest.raises(InputError):
        densify.phase1_densify(g, vertices, 0.08, 0.16, 0.15)  # combined constraint


def test_phase1_edgeless_has_no_candidates():
    # no vertex has a neighbour and none is heavy, so the first round stops
    t = densify.phase1_densify(ec.from_edge_list(6, []), np.arange(6), 0.05, 0.1, 0.06)
    assert t.params["steps"] == []
    assert t.vertices_out == tuple(range(6))


def _hubs_on_a_path(n: int = 200, hubs: int = 4) -> ec.Graph:
    # the hubs have degree n - 1 = 199 against an average degree of 9.85
    edges = [(h, v) for h in range(hubs) for v in range(h + 1, n)]
    return ec.from_edge_list(n, edges + [(v, v + 1) for v in range(hubs, n - 1)])


def test_phase1_high_degree_split_keeps_the_hubs():
    # rho/eps = 0.9 favours size: the hubs padded to n/5 = 40 vertices beat
    # every closed neighbourhood, and nothing in them improves further
    t = densify.phase1_densify(_hubs_on_a_path(), np.arange(200), 0.01, 0.1, 0.09)
    assert [(s["move"], s["size"]) for s in t.params["steps"]] == [("heavy-keep", 40)]
    assert t.vertices_out == tuple(range(40))
    assert t.density_out == (6 + 4 * 36 + 35) / (40 * 39 / 2)


def test_phase1_high_degree_split_scores_both_sides(monkeypatch):
    # a potential is read off the inner degrees of a candidate set, the one
    # kind of degrees_into call with rows == cols; the padding of the hubs
    # reads rows 4..199 against the hubs' columns and counts for neither
    scored = []
    degrees_into = densify.degrees_into

    def recording(adj, rows, cols):
        scored.append((tuple(int(v) for v in rows), tuple(int(v) for v in cols)))
        return degrees_into(adj, rows, cols)

    monkeypatch.setattr(densify, "degrees_into", recording)
    densify.phase1_densify(_hubs_on_a_path(), np.arange(200), 0.05, 0.1, 0.06)
    assert (tuple(range(40)),) * 2 in scored  # heavy-keep
    assert (tuple(range(4, 200)),) * 2 in scored  # heavy-drop
    assert (tuple(range(4, 200)), tuple(range(4))) in scored  # the hubs' padding


def test_pad_set_matches_a_sorted_reference():
    # the padded set of a mask over an ascending set: the masked vertices and the
    # others with most edges into them, ties lowest index, in ascending order
    g = ec.gnp(40, 0.4, 5)
    rng = np.random.default_rng(11)
    for _ in range(30):
        current = np.sort(rng.choice(40, size=int(rng.integers(2, 41)), replace=False))
        mask = rng.random(len(current)) < rng.random()
        target = int(rng.integers(0, len(current) + 2))
        base = current[mask].tolist()
        pool = sorted(current[~mask].tolist(), key=lambda v: (-int(g.adjacency[v, base].sum()), v))
        want = sorted(base + pool[: max(target - len(base), 0)])
        assert densify._pad_set(g.adjacency, current, mask, target).tolist() == want


@pytest.mark.parametrize(
    "graph, params, steps",
    [
        (lambda: ec.gnp(120, 0.5, 1), (0.05, 0.1, 0.06), []),
        (
            lambda: ec.gnp(120, 0.5, 1),
            (0.05, 0.2, 0.01),
            [
                ("neighborhood", 60, 0.6780678465286449),
                ("neighborhood", 34, 0.74205571050548),
                ("neighborhood", 22, 0.8134578044048917),
                ("neighborhood", 16, 0.8998137114143442),
                ("neighborhood", 13, 0.9619367135701218),
                ("neighborhood", 11, 1.0043914909769784),
                ("neighborhood", 10, 1.0472172240151658),
            ],
        ),
        (
            lambda: planted_noisy_union(12, 4, 5, p_noise=0.1),
            (0.05, 0.1, 0.06),
            [("neighborhood", 16, 3.6506385531383407), ("neighborhood", 12, 4.44128606984584)],
        ),
        (
            _hubs_on_a_path,
            (0.05, 0.1, 0.06),
            [("neighborhood", 10, 3.0963891043049783), ("neighborhood", 8, 3.109109154629015)],
        ),
        (_hubs_on_a_path, (0.01, 0.1, 0.09), [("heavy-keep", 40, 6.560412054027139)]),
    ],
    ids=["gnp120", "gnp120-dense-bias", "planted", "hubs", "hubs-size-bias"],
)
def test_phase1_move_sequence_is_pinned(graph, params, steps):
    # reports leave phase 1's moves out, so a rewrite that reached the same
    # set by other moves would pass them; every move, size and potential is
    # pinned here, the potentials exactly
    g = graph()
    t = densify.phase1_densify(g, np.arange(g.n), *params)
    assert [(s["move"], s["size"], s["potential"]) for s in t.params["steps"]] == steps


@pytest.mark.parametrize(
    "vertices",
    [np.array([-1]), np.array([3, 2]), np.array([2, 2]), np.array([0, 10]), np.array([0.0, 1.0]), np.array([[0, 1]])],
)
def test_vertex_sets_are_checked(vertices):
    # -1 used to wrap round to vertex 9, and an unsorted set moved every
    # lowest-index tie rule; a set that is not ascending, distinct and in
    # range is an InputError at each entry that takes one
    g = ec.clique_union([5, 5])
    entries = [
        lambda s: densify.phase1_densify(g, s, 0.05, 0.1, 0.06),
        lambda s: densify.phase2_dense_core(g, s),
        lambda s: densify.balanced_subgraph(g, s),
        lambda s: densify.phase3_clique(g, s),
        lambda s: densify.peel_cliques(g, "greedy", s),
        lambda s: densify.greedy_clique(g, s),
        lambda s: densify.extend_clique(g, [], s),
    ]
    for entry in entries:
        with pytest.raises(InputError):
            entry(vertices)


def test_vertex_sets_accept_ascending_lists():
    g = ec.clique_union([5, 5])
    assert densify.greedy_clique(g, [5, 6, 7]) == [5, 6, 7]
    assert densify.greedy_clique(g, []) == []
    assert densify.extend_clique(g, [6, 5], [0, 7, 8]) == [5, 6, 7, 8]
    with pytest.raises(InputError):
        densify.extend_clique(g, [-1], np.arange(10))


def test_phase1_planted_blocks_with_noise():
    g = planted_noisy_union(30, 10, seed=7, p_noise=0.01)
    t = densify.phase1_densify(g, np.arange(g.n), 0.05, 0.1, 0.06)
    assert len(t.vertices_out) >= 30
    assert t.density_out >= 0.8


def test_phase1_potential_monotone():
    g = ec.gnp(300, 0.3, 1)
    t = densify.phase1_densify(g, np.arange(g.n), 0.05, 0.1, 0.06)
    pots = [s["potential"] for s in t.params["steps"]]
    assert all(b > a for a, b in zip(pots, pots[1:]))
    start = g.n ** 0.6 * g.density
    if pots:
        assert pots[0] > start


def test_phase2_two_blocks():
    t = densify.phase2_dense_core(ec.clique_union([60, 40]), np.arange(100))
    assert len(t.vertices_out) == 60
    assert t.density_out == 1.0


def test_phase2_damaged_block():
    g = ec.clique_union([60, 40])
    rng = np.random.default_rng(3)
    pairs = set()
    while len(pairs) < 20:
        u, v = sorted(rng.integers(0, 60, 2).tolist())
        if u != v:
            pairs.add((u, v))
    g = flip_edges(g, pairs)  # delete 20 edges inside the 60-block
    t = densify.phase2_dense_core(g, np.arange(100))
    assert len(t.vertices_out) >= 50
    assert t.density_out >= 0.95


def test_phase2_complete_graph():
    t = densify.phase2_dense_core(ec.complete(100), np.arange(100))
    assert len(t.vertices_out) == 100 and t.density_out == 1.0


def test_balanced_subgraph_matching_unchanged():
    g = ec.from_edge_list(50, [(2 * i, 2 * i + 1) for i in range(25)])
    t = densify.balanced_subgraph(ec.complement(g), np.arange(g.n))
    assert t.vertices_out == tuple(range(50))
    assert t.guarantee["met"]


def test_balanced_subgraph_star():
    g = ec.from_edge_list(100, [(0, i) for i in range(1, 100)])
    t = densify.balanced_subgraph(ec.complement(g), np.arange(g.n))
    assert 0 not in t.vertices_out  # the centre is stripped
    assert t.density_out <= g.density


def test_balanced_subgraph_gnp():
    g = ec.gnp(400, 0.05, 2)
    t = densify.balanced_subgraph(ec.complement(g), np.arange(g.n))
    assert t.guarantee["measured_balance"] is not None
    assert t.guarantee["measured_balance"] <= t.guarantee["claimed_balance"]
    assert t.guarantee["met"]


def test_balanced_subgraph_density_gate():
    with pytest.raises(InputError):
        densify.balanced_subgraph(ec.complement(ec.gnp(30, 0.5, 1)), np.arange(30))


def test_balanced_subgraph_matches_the_graph_reference():
    # balancing the complement of G[S] on index sets of g gives what the
    # Graph-based form gives on complement(G[S]), relabelled through S
    rng = np.random.default_rng(26)
    cases = [
        (flipped_union([30, 20, 10], 101, 0.03), [30, 20, 10]),
        (planted_noisy_union(12, 4, 5, p_noise=0.1), [12] * 4),
        (ec.clique_union([7, 7]), [7, 7]),
    ]
    checked = trimmed = 0
    for g, sizes in cases:
        starts = np.cumsum([0] + sizes)
        subsets = [np.arange(0), np.array([g.n - 1])]
        for _ in range(40):
            b = int(rng.integers(len(sizes)))
            inside = rng.choice(np.arange(starts[b], starts[b + 1]), size=int(rng.integers(1, sizes[b] + 1)), replace=False)
            outside = rng.choice(g.n, size=int(rng.integers(0, 3)), replace=False)
            subsets.append(np.unique(np.concatenate([inside, outside])))
        for s in subsets:
            h = ec.complement(ec.induced_subgraph(g, s))
            if h.density > 0.2:
                continue
            t, ref = densify.balanced_subgraph(g, s), graph_balanced_subgraph(h)
            assert t.vertices_in == tuple(s.tolist())
            assert t.vertices_out == tuple(int(s[v]) for v in ref.vertices_out)
            assert (t.density_in, t.density_out, t.params, t.guarantee) == (ref.density_in, ref.density_out, ref.params, ref.guarantee)
            checked += 1
            trimmed += len(t.vertices_out) < len(s)
    assert checked >= 60 and trimmed >= 10, (checked, trimmed)


def test_balanced_robustness_exhaustive_small():
    # C-balanced graphs keep density >= p/2 after deleting any floor(n/(4C)) vertices
    for g in (ec.cycle(14), ec.clique_union([7, 7])):
        sub_c = g.max_degree / g.average_degree
        k = int(g.n // (4 * sub_c))
        p = g.density
        for drop in itertools.combinations(range(g.n), k):
            keep = [v for v in range(g.n) if v not in drop]
            assert ec.induced_subgraph(g, keep).density >= p / 2 - 1e-12


def test_extend_clique_pinned():
    # recorded from the masked-row maximalisation: one ascending pass that
    # adds each vertex adjacent to every member so far
    g = ec.gnp(40, 0.5, 1)
    assert densify.extend_clique(g, [], np.arange(40)) == [0, 1, 15]
    assert densify.extend_clique(g, [7], np.arange(40)) == [2, 3, 4, 7, 10, 39]
    assert densify.extend_clique(g, [39], np.arange(40)) == [1, 2, 3, 15, 21, 23, 39]


def test_phase3_complete():
    cert = densify.phase3_clique(ec.complete(50), np.arange(50))
    assert cert.size == 50 and cert.verified


def test_phase3_k50_minus_matching():
    g = flip_edges(ec.complete(50), [(2 * i, 2 * i + 1) for i in range(25)])
    cert = densify.phase3_clique(g, np.arange(50))
    assert cert.verified
    assert cert.size >= 25  # n / (dbar+1) with a 1-regular complement


def test_phase3_k100_minus_gnp():
    noise = ec.gnp(100, 0.02, 5)
    g = flip_edges(ec.complete(100), noise.edges())
    cert = densify.phase3_clique(g, np.arange(100))
    assert cert.verified
    trace = cert.phases[0]
    assert cert.size >= trace.guarantee["claimed_size"]


def test_phase3_greedy_floor_recorded():
    cert = densify.phase3_clique(ec.turan(4, 16), np.arange(16))
    assert cert.verified
    assert cert.size >= cert.phases[0].guarantee["claimed_size"]


def test_pipeline_trivial_cases():
    assert densify.clique_pipeline(ec.complete(1)).clique == (0,)
    cert = densify.clique_pipeline(ec.from_edge_list(10, []))
    assert cert.clique == (0,) and cert.verified


def test_pipeline_exact_unions():
    cert = densify.clique_pipeline(ec.clique_union([64, 64, 64]))
    assert cert.size == 64 and cert.verified
    cert = densify.clique_pipeline(ec.clique_union([30, 20, 10]))
    assert cert.size == 30 and cert.verified


def test_pipeline_planted_noisy():
    g = planted_noisy_union(40, 5, seed=11, p_noise=0.02)
    cert = densify.clique_pipeline(g)
    assert cert.verified
    assert cert.size >= 36


def test_pipeline_surplus_mode():
    cert = densify.clique_pipeline(ec.clique_union([32, 32]), mode="surplus")
    assert cert.verified and cert.size == 32
    assert cert.target["mode"] == "surplus"
    assert "hypothesis" in cert.target


def test_pipeline_surplus_mode_noisy():
    g = planted_noisy_union(32, 4, seed=6, p_noise=0.02)
    cert = densify.clique_pipeline(g, mode="surplus")
    assert cert.verified and cert.size >= 29


def test_pipeline_certificate_pairwise():
    g = planted_noisy_union(32, 5, seed=4)
    cert = densify.clique_pipeline(g)
    idx = list(cert.clique)
    assert g.is_clique(idx)
    for u, v in itertools.combinations(idx, 2):
        assert g.adjacency[u, v] == 1


def test_pipeline_traces_use_original_labels():
    g = ec.clique_union([12, 20])  # big block second: labels must map back
    cert = densify.clique_pipeline(g)
    assert cert.size == 20
    assert set(cert.clique) == set(range(12, 32))
    for trace in cert.phases:
        assert set(trace.vertices_out) <= set(range(32))
        assert set(trace.vertices_out) <= set(trace.vertices_in) or trace.phase == 3


def test_pipeline_mode_validation():
    with pytest.raises(InputError):
        densify.clique_pipeline(ec.cycle(5), mode="nope")


def test_triple_hadamard_identity_and_psd():
    for g in (ec.turan(4, 20), ec.gnp(30, 0.7, 2), ec.clique_union([10, 10])):
        d = triple_hadamard_diagnostic(g)
        assert d["shift_min_eig"] >= -1e-8 * max(1.0, d["lambda_n_abs"] ** 3)
        assert d["total"] >= -1e-6 * g.n**3
        assert d["expansion_residual"] <= 1e-6 * max(1.0, abs(d["total"]))


def test_default_parameters_satisfy_constraints():
    for g in (ec.gnp(50, 0.3, 1), ec.clique_union([20, 20]), ec.petersen(), ec.cycle(12)):
        gamma, eps, rho = densify.default_parameters(g, ec.spectrum(g).lambda_min)
        densify.check_phase1_parameters(gamma, eps, rho)


def test_densify_imports_nothing_from_structure():
    # the peel-and-merge loop lives in densify, so densify needs no import of
    # structure (which imports densify) and no function-local import
    import ast
    from pathlib import Path

    tree = ast.parse(Path(densify.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [a.name for a in node.names]
            assert not any(name.split(".")[-1] == "structure" for name in names), names
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node)), node.name


def test_peel_cliques_merge_matches_union_find_oracle():
    # components of the thresholded density matrix must equal the classes of
    # the union-find reference applied to the same peeled cliques, at the
    # merge threshold n^(-1/6) that peel_cliques works out
    graphs = [
        ec.from_edge_list(0, []),
        ec.from_edge_list(1, []),
        ec.gnp(40, 0.05, 3),
        ec.gnp(50, 0.5, 8),
        planted_noisy_union(8, 5, 11, p_noise=0.1),
        planted_noisy_union(10, 4, 12, p_noise=0.3),
        # the decompose_cu302010_flip3 golden's graph: a 21- and an 8-vertex
        # clique merge at crossing density < 1
        flipped_union([30, 20, 10], 101, 0.03),
    ]
    kinds = set()
    for g in graphs:
        threshold = g.n ** (-1.0 / 6.0) if g.n > 1 else 0.5
        for extractor in ("pipeline", "greedy"):
            cliques, blocks, leftover = densify.peel_cliques(g, extractor, np.arange(g.n))
            assert (blocks, leftover) == union_find_blocks(g.adjacency, cliques, threshold)
            k = len(cliques) + g.n - sum(map(len, cliques))
            components = len(blocks) + len(leftover)
            if k >= 2:
                kinds.add("one" if components == 1 else "singletons" if components == k else "many")
            multi = [set(c) for c in cliques if len(c) > 1]
            if any(sum(c <= set(b) for c in multi) >= 2 for b in blocks):
                kinds.add("cliques merged")
    assert kinds == {"one", "singletons", "many", "cliques merged"}


def test_index_sets_match_induced_subgraphs():
    # peeling and the four-phase search inside a vertex set S of g give what
    # the same runs on G[S] give, relabelled through S: cliques, blocks,
    # leftover, and every phase trace's vertex sets, densities and guarantees
    graphs = [
        flipped_union([30, 20, 10], 101, 0.03),  # the decompose_cu302010_flip3 golden's graph
        planted_noisy_union(12, 4, 5, p_noise=0.1),
        ec.gnp(60, 0.1, 1),
        ec.from_edge_list(20, []),
    ]
    rng = np.random.default_rng(109)
    single_vertex_phase1 = False
    for g in graphs:
        subsets = [np.arange(g.n), np.array([g.n - 1])]
        subsets += [np.sort(rng.choice(g.n, size=int(rng.integers(2, g.n)), replace=False)) for _ in range(4)]
        for s in subsets:
            h = ec.induced_subgraph(g, s)

            def label(vs):
                return tuple(int(s[v]) for v in vs)

            for extractor in ("pipeline", "greedy"):
                cliques, blocks, leftover = densify.peel_cliques(g, extractor, s)
                sub_cliques, sub_blocks, sub_leftover = densify.peel_cliques(h, extractor, np.arange(h.n))
                assert cliques == [label(c) for c in sub_cliques]
                assert blocks == [label(b) for b in sub_blocks]
                assert leftover == label(sub_leftover)
            cert = densify._clique_search(g, s)
            sub_cert = densify._clique_search(h, np.arange(h.n))
            assert cert.clique == label(sub_cert.clique) and cert.verified
            assert len(cert.phases) == len(sub_cert.phases)
            for t, sub_t in zip(cert.phases, sub_cert.phases):
                relabelled = {"vertices_in": list(label(sub_t.vertices_in)), "vertices_out": list(label(sub_t.vertices_out))}
                assert t.to_json_dict() == {**sub_t.to_json_dict(), **relabelled}
                # Graph.density of the phase's input: 0, not 1, on a single vertex
                assert t.density_in == ec.induced_subgraph(g, t.vertices_in).density
                single_vertex_phase1 |= t.phase == 1 and len(t.vertices_in) == 1
    # some search reaches phase 1 with one vertex, where the input density reads 0
    assert single_vertex_phase1
