"""From cosine polynomials to Cayley graphs and back.

For a set A of positive integers, the eigenvalues of Cay(Z/nZ, A u -A) are
exactly 2 sum_a cos(2 pi a xi / n); the smallest eigenvalue is twice the
minimum of f over the Fourier points. Subgroup-like sets keep the minimum
bounded; spread-out sets push it down.
"""

import numpy as np

import eigencliques as ec
from eigencliques import chowla

for a in ([1], [1, 2], [1, 2, 3, 4, 5], [2, 4, 6, 8], [1, 4, 9, 16, 25]):
    rep = chowla.chowla_certificate(a)
    print(
        f"A = {a}: prime n = {rep.n}, lambda_min = {rep.lambda_min:8.4f}, "
        f"grid min f = {rep.grid_f:8.4f} at x = {rep.grid_x:.4f}, "
        f"residual = {rep.residual:.2e}, reference -|A|^0.1 = {rep.bound_target:.3f}"
    )

# -min f against |A| up to the certificate's ceiling on max(A): progressions
# 1..k (a Dirichlet kernel, -min f grows like k) and seeded random k-subsets of
# 1..ceiling, next to the paper's lower bound |A|^(1/10)
top = chowla.MAX_CHOWLA_DEGREE
rng = np.random.default_rng(2025)
print(f"\n{'|A|':>6} {'-min f, 1..k':>14} {'-min f, random':>15} {'|A|^(1/10)':>11}")
for k in (10, 100, 1000, 4000, top // 2):
    _, f_prog = chowla.cosine_min(range(1, k + 1))
    _, f_rand = chowla.cosine_min(rng.choice(np.arange(1, top + 1), size=k, replace=False).tolist())
    print(f"{k:>6} {-f_prog:>14.3f} {-f_rand:>15.3f} {k ** 0.1:>11.3f}")
rep = chowla.chowla_certificate(range(1, top + 1))
print(f"A = 1..{top}: certified over Z/{rep.n}Z by {', '.join(rep.checks)}; residual {rep.residual:.1e}")

# inside a clique of a Cayley graph, some translate overlaps heavily
grp = chowla.cyclic_group(23)
g = chowla.cayley_graph(grp, [1, 2, 3, 4, 19, 20, 21, 22])
t, overlap = chowla.translate_overlap([0, 1, 2, 3, 4], g)
print(f"\nclique {{0..4}} in Cay(Z/23, ±{{1..4}}): shift t={t} overlaps in {overlap} points")

# M_Gamma vanishes exactly on subgroups, and near-subgroups are recoverable
grp = chowla.cyclic_group(24)
print(f"\nM_Gamma(subgroup {{0,6,12,18}}) = {chowla.m_gamma(grp, [0, 6, 12, 18]):.2e}")
out = chowla.subgroup_recover(grp, [0, 6, 12, 18, 3, 21])
print(f"perturbed set {{0,6,12,18,3,21}} -> recovered H = {out['H']}, |H symdiff A| = {out['sym_diff']}")
