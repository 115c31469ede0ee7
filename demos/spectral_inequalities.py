"""Walk through the spectral toolkit on a few concrete graphs.

The star of the show is the recursive inequality 4n * S_{T^2/2n} >= S_T^2,
which holds whenever T >= 2|lambda_n|sqrt(n). On a union of two 50-cliques
the top eigenvalues are 49, 49 and the inequality is comfortably true; on a
dense random graph the admissible range starts above lambda_1, so every
record is trivial.
"""

import eigencliques as ec
from eigencliques import spectral

for name, g in [
    ("two 50-cliques", ec.clique_union([50, 50])),
    ("G(100, 0.5)", ec.gnp(100, 0.5, seed=1)),
    ("Petersen", ec.petersen()),
]:
    s = ec.spectrum(g)
    print(f"== {name}: n={g.n}, m={g.m}")
    print(f"   lambda_1 = {s.lambda_max:.3f}, lambda_n = {s.lambda_min:.3f}")
    rep = spectral.verify_main_inequality(g, s)
    print(f"   admissible from T = {rep.diagnostics['admissible_from']:.2f}")
    for rec in rep.records:
        print(
            f"   T = {rec['T']:8.2f}: 4n S_(T^2/2n) = {rec['lhs']:10.1f} "
            f">= S_T^2 = {rec['rhs']:10.1f}  [{rec['verdict']}]"
        )

# the tail bound: almost all of the second moment lives on the big eigenvalues
g = ec.clique_union([10] * 10)
s = ec.spectrum(g)
rep = spectral.tail_second_moment_check(s, gamma=0.1, q=0.25, kappas=[0.02, 0.05, 0.1])
print("== tail second moment on ten 10-cliques")
for rec in rep.records:
    print(f"   kappa = {rec['kappa']:.2f}: tail = {rec['rhs']:8.1f} <= bound = {rec['lhs']:8.1f}  [{rec['verdict']}]")

# eigenvector bounds, including Hoffman on a regular bipartite graph
g = ec.turan(2, 6)
rep = spectral.eigen_bound_report(g, ec.spectrum(g))
hoffman = next(r for r in rep.records if r.get("bound") == "hoffman")
print(f"== K(3,3): Hoffman bound {hoffman['lhs']:.1f} vs independence number {hoffman['rhs']:.0f}")
