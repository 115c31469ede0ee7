"""MaxCut surplus and its spectral certificates on small graphs.

The surplus mc(G) - m/2 is sandwiched between closed-form functions of the
negative spectrum: the sum of |lambda_i| over negative eigenvalues certifies
a lower bound for the relaxation, and |lambda_n| n / 4 caps the true surplus.
"""

import eigencliques as ec
from eigencliques import cuts

for name, g in [
    ("C5", ec.cycle(5)),
    ("K7", ec.complete(7)),
    ("Petersen", ec.petersen()),
    ("two 8-cliques", ec.clique_union([8, 8])),
]:
    rep = cuts.maxcut_exact(g)
    cap = cuts.spectral_surplus_caps(g)
    lbs = cuts.surplus_lb_spectral(g)
    print(
        f"{name:14s} m={g.m:3d}  mc={rep.cut_size:3d}  surplus={float(rep.surplus):6.2f}  "
        f"cap |l_n|n/4 = {cap:6.2f}  lb_linear(surp*) = {lbs.lb_linear:6.2f}"
    )
    assert float(rep.surplus) <= cap + 1e-9

# unbalanced splits force surplus: a star cut at the leaves
star = ec.from_edge_list(8, [(0, i) for i in range(1, 8)])
rep = cuts.unbalanced_cut(star, range(1, 8))
print(f"\nstar K(1,7), X = leaves: cut {rep.cut_size}, surplus {float(rep.surplus):.1f} "
      f"(guarantee {rep.certificates['guarantee']:.1f}, branch {rep.certificates['branch']})")

# bisection width and discrepancy, exactly
for name, g in [("C4", ec.cycle(4)), ("K4", ec.complete(4)), ("C8", ec.cycle(8))]:
    b = cuts.bisection_exact(g)
    d = cuts.discrepancy(g)
    print(f"{name}: bw = {b.bw}, deficit = {float(b.dfc):.3f}, "
          f"disc+ = {float(d.disc_plus):.3f}, disc- = {float(d.disc_minus):.3f}")
