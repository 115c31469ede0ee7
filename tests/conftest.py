import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import eigencliques as ec
from eigencliques.graphs import pair_uniforms


def build_corpus() -> list[tuple[str, ec.Graph]]:
    """The 200-graph acceptance corpus: Gnp, clique unions, Turan, cycles,
    Petersen, H_k."""
    corpus: list[tuple[str, ec.Graph]] = []
    for n in range(20, 201, 20):
        for p in (0.2, 0.5, 0.8):
            for seed in (1, 2, 3):
                corpus.append((f"gnp({n},{p},{seed})", ec.gnp(n, p, seed)))
    for n in range(25, 195, 10):
        for p in (0.35, 0.65):
            corpus.append((f"gnp({n},{p},4)", ec.gnp(n, p, 4)))
    unions = [
        [5, 5, 5], [10, 10], [20, 10, 5], [3] * 10, [16], [2, 2, 2, 2],
        [30, 20, 10], [8, 8, 8, 8], [50, 50], [12, 6, 3], [40, 30, 20, 10],
        [7] * 7, [4] * 5, [25, 25, 25], [60, 40], [9, 9, 9], [6] * 8,
        [15, 15, 15, 15], [11, 5], [13, 13],
    ]
    for sizes in unions:
        corpus.append((f"cu{sizes}", ec.clique_union(sizes)))
    turans = [
        (2, 6), (2, 10), (3, 9), (3, 12), (4, 12), (4, 16), (5, 15), (2, 20),
        (3, 30), (5, 25), (6, 24), (2, 16), (7, 21), (4, 20), (8, 24),
        (3, 18), (2, 30), (6, 30), (10, 30), (5, 40),
    ]
    for r, n in turans:
        corpus.append((f"turan({r},{n})", ec.turan(r, n)))
    for n in range(3, 23):
        corpus.append((f"cycle({n})", ec.cycle(n)))
    corpus.append(("petersen", ec.petersen()))
    for k in range(1, 16):
        corpus.append((f"hk({k})", ec.h_k(k)))
    assert len(corpus) == 200
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def planted_noisy_union(size: int, blocks: int, seed: int, p_noise: float = 0.02) -> ec.Graph:
    """Clique union with cross-block noise edges added at rate p_noise."""
    g = ec.clique_union([size] * blocks)
    adj = g.adjacency.copy()
    adj.setflags(write=True)
    iu, ju = np.triu_indices(g.n, 1)
    cross = (iu // size) != (ju // size)
    u = pair_uniforms(seed, iu.astype(np.uint64), ju.astype(np.uint64))
    hit = cross & (u < p_noise)
    adj[iu[hit], ju[hit]] = 1
    adj[ju[hit], iu[hit]] = 1
    return ec.Graph(adj)


def flip_edges(g: ec.Graph, pairs) -> ec.Graph:
    adj = g.adjacency.copy()
    adj.setflags(write=True)
    for u, v in pairs:
        adj[u, v] ^= 1
        adj[v, u] ^= 1
    return ec.Graph(adj)


def flipped_union(sizes, seed: int, rate: float) -> ec.Graph:
    """Clique union with every vertex pair flipped where pair_uniforms(seed, i, j) < rate."""
    g = ec.clique_union(sizes)
    iu, ju = np.triu_indices(g.n, 1)
    hit = pair_uniforms(seed, iu, ju) < rate
    return flip_edges(g, zip(iu[hit].tolist(), ju[hit].tolist()))
