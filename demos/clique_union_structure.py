"""Decompose a graph into cliques and measure how far it is from a clean union.

A graph is a disjoint union of cliques exactly when it has no induced cherry
(path on three vertices). The decomposition peels off cliques, merges
near-complete pairs, and reports the exact edit distance to the resulting
model.
"""

import numpy as np

import eigencliques as ec
from eigencliques import structure

# a clean union: edit distance 0
g = ec.clique_union([30, 20, 10])
d = structure.clique_union_decompose(g)
print(f"clean union: blocks {[len(b) for b in d.blocks]}, edit distance {d.edit_distance}")

# damage it: delete two edges inside the 30-block, add one cross edge
adj = g.adjacency.copy()
adj.setflags(write=True)
for u, v in [(0, 1), (5, 9)]:
    adj[u, v] = adj[v, u] = 0
adj[3, 35] = adj[35, 3] = 1
damaged = ec.Graph(adj)
d = structure.clique_union_decompose(damaged)
print(f"damaged:     blocks {[len(b) for b in d.blocks]}, edit distance {d.edit_distance} (planted 3)")
print(f"cherries: {structure.cherry_count(damaged)} (zero iff a clean union)")

# a complete tripartite graph is as far from a clique union as it gets
t = ec.turan(3, 30)
d = structure.clique_union_decompose(t)
print(f"Turan(3,30): closeness {d.closeness:.2f}, clique-union-like: {d.clique_union_like}")

# pair classification: between two planted cliques the bipartite graph is
# near-empty or near-complete unless the smallest eigenvalue is large
g2 = ec.clique_union([20, 20])
out = structure.pair_classify(g2, range(20), range(20, 40))
print(f"two blocks: {out['class']} with {out['crossing_edges']} crossing edges")

# regularity partition from the low-rank spectral approximation
rp = structure.regular_partition(ec.clique_union([50, 50]), 0.1)
kinds = [p["class"] for p in rp.pairs]
print(f"regularity partition: K={rp.K}, {kinds.count('full')} full / "
      f"{kinds.count('empty')} empty / {kinds.count('irregular')} irregular pairs")
