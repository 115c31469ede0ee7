import itertools

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import densify
from eigencliques.errors import DegenerateInputError, InputError
from conftest import flip_edges, planted_noisy_union
from oracles import union_find_blocks


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
    t = densify.phase1_densify(g, 0.05, 0.1, 0.06)
    assert t.vertices_out == tuple(range(40))
    assert t.params["steps"] == []


def test_phase1_parameter_validation():
    g = ec.cycle(6)
    with pytest.raises(InputError):
        densify.phase1_densify(g, 0.2, 0.9, 0.1)  # eps + 6 gamma >= 1
    with pytest.raises(InputError):
        densify.phase1_densify(g, 0.05, 0.1, 0.6)  # rho >= 1/2
    with pytest.raises(InputError):
        densify.phase1_densify(g, 0.08, 0.16, 0.15)  # combined constraint


def test_phase1_planted_blocks_with_noise():
    g = planted_noisy_union(30, 10, seed=7, p_noise=0.01)
    t = densify.phase1_densify(g, 0.05, 0.1, 0.06)
    assert len(t.vertices_out) >= 30
    assert t.density_out >= 0.8


def test_phase1_potential_monotone():
    g = ec.gnp(300, 0.3, 1)
    t = densify.phase1_densify(g, 0.05, 0.1, 0.06)
    pots = [s["potential"] for s in t.params["steps"]]
    assert all(b > a for a, b in zip(pots, pots[1:]))
    start = g.n ** 0.6 * g.density
    if pots:
        assert pots[0] > start


def test_phase2_two_blocks():
    t = densify.phase2_dense_core(ec.clique_union([60, 40]))
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
    t = densify.phase2_dense_core(g)
    assert len(t.vertices_out) >= 50
    assert t.density_out >= 0.95


def test_phase2_complete_graph():
    t = densify.phase2_dense_core(ec.complete(100))
    assert len(t.vertices_out) == 100 and t.density_out == 1.0


def test_balanced_subgraph_matching_unchanged():
    g = ec.from_edge_list(50, [(2 * i, 2 * i + 1) for i in range(25)])
    t = densify.balanced_subgraph(g)
    assert t.vertices_out == tuple(range(50))
    assert t.guarantee["met"]


def test_balanced_subgraph_star():
    g = ec.from_edge_list(100, [(0, i) for i in range(1, 100)])
    t = densify.balanced_subgraph(g)
    assert 0 not in t.vertices_out  # the centre is stripped
    assert t.density_out <= g.density


def test_balanced_subgraph_gnp():
    g = ec.gnp(400, 0.05, 2)
    t = densify.balanced_subgraph(g)
    assert t.guarantee["measured_balance"] is not None
    assert t.guarantee["measured_balance"] <= t.guarantee["claimed_balance"]
    assert t.guarantee["met"]


def test_balanced_subgraph_density_gate():
    with pytest.raises(InputError):
        densify.balanced_subgraph(ec.gnp(30, 0.5, 1))


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
    assert densify.extend_clique(g, []) == [0, 1, 15]
    assert densify.extend_clique(g, [7]) == [2, 3, 4, 7, 10, 39]
    assert densify.extend_clique(g, [39]) == [1, 2, 3, 15, 21, 23, 39]


def test_phase3_complete():
    cert = densify.phase3_clique(ec.complete(50))
    assert cert.size == 50 and cert.verified


def test_phase3_k50_minus_matching():
    g = flip_edges(ec.complete(50), [(2 * i, 2 * i + 1) for i in range(25)])
    cert = densify.phase3_clique(g)
    assert cert.verified
    assert cert.size >= 25  # n / (dbar+1) with a 1-regular complement


def test_phase3_k100_minus_gnp():
    noise = ec.gnp(100, 0.02, 5)
    g = flip_edges(ec.complete(100), noise.edges())
    cert = densify.phase3_clique(g)
    assert cert.verified
    trace = cert.phases[0]
    assert cert.size >= trace.guarantee["claimed_size"]


def test_phase3_greedy_floor_recorded():
    cert = densify.phase3_clique(ec.turan(4, 16))
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


def test_pipeline_partial_parameters():
    cert = densify.clique_pipeline(ec.clique_union([20, 20]), gamma=0.05)
    assert cert.target["params"] == {"gamma": 0.05, "eps": 0.1, "rho": pytest.approx(0.06), "delta": 0.1}
    assert cert.size == 20


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
        d = densify.triple_hadamard_diagnostic(g)
        assert d["shift_min_eig"] >= -1e-8 * max(1.0, d["lambda_n_abs"] ** 3)
        assert d["total"] >= -1e-6 * g.n**3
        assert d["expansion_residual"] <= 1e-6 * max(1.0, abs(d["total"]))


def test_default_parameters_satisfy_constraints():
    for g in (ec.gnp(50, 0.3, 1), ec.clique_union([20, 20]), ec.petersen(), ec.cycle(12)):
        gamma, eps, rho = densify.default_parameters(g)
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
    # the union-find reference applied to the same peeled cliques
    graphs = [
        ec.from_edge_list(0, []),
        ec.from_edge_list(1, []),
        ec.gnp(40, 0.05, 3),
        ec.gnp(50, 0.5, 8),
        planted_noisy_union(8, 5, 11, p_noise=0.1),
        planted_noisy_union(10, 4, 12, p_noise=0.3),
    ]
    kinds = set()
    for g in graphs:
        for extractor in ("pipeline", "greedy"):
            for floor in (None, g.n + 1):
                for threshold in (None, 0.0, 0.05, 0.3, 0.6, 1.0):
                    cliques, blocks, leftover = densify.peel_cliques(g, extractor, floor, threshold)
                    if threshold is None:
                        threshold = g.n ** (-1.0 / 6.0) if g.n > 1 else 0.5
                    assert (blocks, leftover) == union_find_blocks(g.adjacency, cliques, threshold)
                    k = len(cliques) + g.n - sum(map(len, cliques))
                    components = len(blocks) + len(leftover)
                    if k >= 2:
                        kinds.add("one" if components == 1 else "singletons" if components == k else "many")
    assert kinds == {"one", "singletons", "many"}
