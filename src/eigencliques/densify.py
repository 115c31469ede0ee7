"""Four-phase densification: from a sparse graph with tame smallest eigenvalue
(or small surplus) down to a verified clique.

Phase 0 moves into a max-degree neighbourhood, phase 1 runs a monotone
potential-improvement loop (neighbourhood step + high-degree split), phase 2
picks the densest block of a clique-union decomposition, and phase 3
regularises the complement and greedily builds a clique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InputError
from .graphs import Graph, block_edge_counts, complement, induced_subgraph, triangles_per_vertex
from .spectral import spectrum

__all__ = [
    "PhaseTrace",
    "CliqueCertificate",
    "phase0_neighborhood",
    "phase1_densify",
    "phase2_dense_core",
    "balanced_subgraph",
    "phase3_clique",
    "clique_pipeline",
    "greedy_clique",
    "extend_clique",
    "peel_cliques",
    "default_parameters",
    "triple_hadamard_diagnostic",
]


@dataclass
class PhaseTrace:
    phase: int
    vertices_in: tuple[int, ...]
    vertices_out: tuple[int, ...]
    density_in: float
    density_out: float
    params: dict = field(default_factory=dict)
    guarantee: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "vertices_in": list(self.vertices_in),
            "vertices_out": list(self.vertices_out),
            "density_in": self.density_in,
            "density_out": self.density_out,
            "guarantee": self.guarantee,
        }


@dataclass
class CliqueCertificate:
    clique: tuple[int, ...]
    size: int
    phases: list[PhaseTrace]
    verified: bool
    target: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "clique": list(self.clique),
            "size": self.size,
            "phases": [t.to_json_dict() for t in self.phases],
            "verified": self.verified,
            "target": self.target,
        }


def _remap(trace: PhaseTrace, labels: np.ndarray) -> PhaseTrace:
    """Translate a trace's local vertex indices back to original labels."""
    trace.vertices_in = tuple(int(labels[v]) for v in trace.vertices_in)
    trace.vertices_out = tuple(int(labels[v]) for v in trace.vertices_out)
    return trace


def _density_of(edges: int, k: int) -> float:
    """Edge density of a k-vertex set with the given edge count; 1 for a single vertex."""
    if k <= 1:
        return 1.0 if k == 1 else 0.0
    return edges / (k * (k - 1) / 2)


def _density(g: Graph, idx: np.ndarray) -> float:
    return _density_of(int(g.adjacency[np.ix_(idx, idx)].sum()) // 2, len(idx))


# -- phase 0 ------------------------------------------------------------------


def _phase0_search(g: Graph) -> PhaseTrace:
    """Phase 0's vertex choice: d = floor(avg degree) neighbours of a
    maximum-degree vertex. Reads no spectrum and leaves the guarantee empty."""
    if g.m == 0:
        raise DegenerateInputError("phase 0 needs at least one edge")
    d = max(1, int(g.average_degree))
    x = int(np.argmax(g.degrees))
    s_idx = g.neighbors(x)[:d]
    return PhaseTrace(
        phase=0,
        vertices_in=tuple(range(g.n)),
        vertices_out=tuple(int(v) for v in s_idx),
        density_in=g.density,
        density_out=_density(g, s_idx),
        params={"d": d, "apex": x},
    )


def _certify_phase0(g: Graph, trace: PhaseTrace, lam_n: float) -> PhaseTrace:
    """Fill in phase 0's edge guarantee d^2 / (4 |lambda_n|) from g's smallest eigenvalue."""
    d = trace.params["d"]
    s_idx = np.asarray(trace.vertices_out, dtype=int)
    e_s = int(g.adjacency[np.ix_(s_idx, s_idx)].sum()) // 2
    applicable = lam_n * lam_n <= d / 2.0
    claimed = d * d / (4.0 * abs(lam_n)) if lam_n != 0 else 0.0
    trace.params["lambda_n"] = lam_n
    trace.guarantee = {
        "claimed_edges": claimed if applicable else None,
        "measured_edges": e_s,
        "met": bool(e_s >= claimed) if applicable else None,
        "applicable": bool(applicable),
    }
    return trace


def phase0_neighborhood(g: Graph, tol: float | None = None) -> PhaseTrace:
    """Restrict to d neighbours of a maximum-degree vertex, d = floor(avg degree).

    The induced subgraph has at least d^2 / (4 |lambda_n|) edges whenever
    lambda_n^2 <= d/2; outside that regime the subgraph is still returned with
    the guarantee marked not applicable.
    """
    return _certify_phase0(g, _phase0_search(g), spectrum(g, tol).lambda_min)


# -- phase 1 ------------------------------------------------------------------


def check_phase1_parameters(gamma: float, eps: float, rho: float) -> None:
    if not (gamma > 0 and eps > 0 and rho > 0):
        raise InputError("gamma, eps, rho must be positive")
    if rho >= 0.5:
        raise InputError("need rho < 1/2")
    if eps + 6.0 * gamma >= 1.0:
        raise InputError("need eps + 6*gamma < 1")
    if rho / eps + 2.0 * gamma / (1.0 - eps - 4.0 * gamma) >= 1.0:
        raise InputError("need rho/eps + 2*gamma/(1-eps-4*gamma) < 1")


_FALLBACK_GAMMA = 0.05
# Phase 1 stops when no move improves the potential by a factor above
# 1 + _PHASE1_TOL_POTENTIAL, or after _PHASE1_MAX_STEPS moves.
_PHASE1_TOL_POTENTIAL = 1e-6
_PHASE1_MAX_STEPS = 1000
# Phase 0 runs only on inputs with edge density at most this.
_SPARSE_THRESHOLD = 0.125


def default_parameters(g: Graph, tol: float | None = None) -> tuple[float, float, float]:
    """Infer (gamma, eps, rho) from the measured smallest eigenvalue.

    gamma is log_d |lambda_n| clamped into [0.01, 0.08] (_FALLBACK_GAMMA when
    the spectrum gives no logarithm); with eps = 2 gamma and rho = 1.2 gamma
    the phase-1 parameter constraints hold on the whole range.
    """
    gamma = _FALLBACK_GAMMA
    if g.m > 0:
        d = g.average_degree
        lam = abs(spectrum(g, tol).lambda_min)
        if d > 1.0 and lam > 1.0:
            gamma = math.log(lam) / math.log(d)
    gamma = min(max(gamma, 0.01), 0.08)
    return gamma, 2.0 * gamma, 1.2 * gamma


def _pad_set(adj: np.ndarray, base: np.ndarray, pool: np.ndarray, target: int) -> np.ndarray:
    """Grow base to the target size using pool vertices with most edges into base."""
    need = target - len(base)
    if need <= 0 or len(pool) == 0:
        return base
    scores = adj[np.ix_(pool, base)].sum(axis=1, dtype=np.int64)
    order = np.lexsort((pool, -scores))  # most edges into base, ties lowest index
    return np.sort(np.concatenate([base, pool[order[:need]]]))


def phase1_densify(
    g: Graph,
    gamma: float,
    eps: float,
    rho: float,
) -> PhaseTrace:
    """Monotone local improvement of the potential v(H)^(rho/eps) * p(H).

    Two moves are tried each round: restricting to a vertex's closed
    neighbourhood (candidates ranked by triangle count through the vertex,
    padded back up to max(p*v, |X|) by best-connected vertices), and the
    high-degree split that either keeps the heavy vertices (padded to v/5) or
    drops them. The loop stops when no move improves the potential by a
    factor above 1 + _PHASE1_TOL_POTENTIAL, or after _PHASE1_MAX_STEPS moves.
    """
    try:
        check_phase1_parameters(gamma, eps, rho)
    except InputError as exc:
        raise InputError(f"phase 1: {exc}") from None
    expo = rho / eps
    n0 = g.n
    current = np.arange(n0)
    steps: list[dict] = []

    def potential(idx: np.ndarray) -> float:
        return len(idx) ** expo * _density(g, idx)

    phi = potential(current)
    for _ in range(_PHASE1_MAX_STEPS):
        sub = g.adjacency[np.ix_(current, current)]
        k = len(current)
        if k <= 2:
            break
        deg = sub.sum(axis=1, dtype=np.int64)
        d_avg = deg.mean()
        p_cur = _density(g, current)
        candidates: list[tuple[float, str, np.ndarray]] = []
        # (b) closed-neighbourhood step. The triangle count guarantees some
        # vertex has a dense neighbourhood; score them all by the potential of
        # the unpadded closed neighbourhood and evaluate the best few exactly.
        tri = triangles_per_vertex(sub)
        sizes = deg + 1
        e_closed = tri + deg
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.where(sizes > 1, e_closed / (sizes * (sizes - 1) / 2.0), 0.0)
        score = sizes**expo * dens
        shortlist = np.argsort(-score, kind="stable")[:10]
        if int(np.argmax(tri)) not in shortlist:
            shortlist = np.append(shortlist, int(np.argmax(tri)))
        for v_star in shortlist:
            nbr_local = np.flatnonzero(sub[v_star])
            if not len(nbr_local):
                continue
            closed = np.sort(np.append(nbr_local, v_star))
            target = max(int(math.ceil(p_cur * k)), len(closed))
            rest = np.setdiff1d(np.arange(k), closed, assume_unique=False)
            padded = _pad_set(sub, closed, rest, target)
            cand = current[padded]
            candidates.append((potential(cand), "neighborhood", cand))
        # (a) high-degree split with C = 5
        heavy = np.flatnonzero(deg > 5.0 * d_avg)
        if heavy.size:
            target = max(int(math.ceil(k / 5.0)), heavy.size)
            rest = np.setdiff1d(np.arange(k), heavy)
            padded = _pad_set(sub, heavy, rest, target)
            cand = current[padded]
            candidates.append((potential(cand), "heavy-keep", cand))
            light = np.setdiff1d(np.arange(k), heavy)
            if light.size:
                cand2 = current[light]
                candidates.append((potential(cand2), "heavy-drop", cand2))
        if not candidates:
            break
        best_phi, move, best = max(candidates, key=lambda t: (t[0], t[1]))
        if best_phi <= phi * (1.0 + _PHASE1_TOL_POTENTIAL):
            break
        steps.append({"move": move, "size": int(len(best)), "potential": best_phi})
        current = best
        phi = best_phi
    guarantee = {
        "claimed_size": n0 ** (1.0 - eps),
        "measured_size": int(len(current)),
        "met": bool(len(current) >= n0 ** (1.0 - eps)),
        "measured_density": _density(g, current),
        "potential_monotone": True,
    }
    return PhaseTrace(
        phase=1,
        vertices_in=tuple(range(n0)),
        vertices_out=tuple(int(v) for v in current),
        density_in=g.density,
        density_out=_density(g, current),
        params={"gamma": gamma, "eps": eps, "rho": rho, "steps": steps},
        guarantee=guarantee,
    )


# -- phase 2 ------------------------------------------------------------------


def phase2_dense_core(g: Graph, delta: float = 0.1) -> PhaseTrace:
    """Densest block of the clique-union decomposition, aiming for size >= p*n/2.

    The blocks come from peel_cliques with the greedy extractor, so the
    peeling does not recurse back into the four-phase search.
    """
    p = g.density
    blocks = [np.asarray(b, dtype=int) for b in peel_cliques(g, "greedy")[1]]
    chosen: np.ndarray
    if not blocks:
        chosen = np.arange(g.n)
        out_density = _density(g, chosen)
        note = "no blocks recovered; returning the input"
    else:
        inner = np.diagonal(block_edge_counts(g.adjacency, blocks)) // 2
        dens = [_density_of(int(e), len(b)) for e, b in zip(inner, blocks)]
        floor_size = p * g.n / 2.0
        qualifying = [i for i, b in enumerate(blocks) if len(b) >= floor_size]
        dense_enough = [i for i in qualifying if dens[i] >= 1.0 - delta]
        if dense_enough:
            # all meet the density target: take the largest
            pick = max(dense_enough, key=lambda i: (len(blocks[i]), -int(blocks[i][0])))
            note = "largest block meeting the density target"
        else:
            pool = qualifying if qualifying else range(len(blocks))
            pick = max(pool, key=lambda i: (dens[i], len(blocks[i]), -int(blocks[i][0])))
            note = "qualifying block" if qualifying else "densest block below size target"
        chosen, out_density = blocks[pick], dens[pick]
    guarantee = {
        "claimed_size": p * g.n / 2.0,
        "claimed_density": 1.0 - delta,
        "measured_size": int(len(chosen)),
        "measured_density": out_density,
        "met": bool(len(chosen) >= p * g.n / 2.0 and out_density >= 1.0 - delta),
        "note": note,
    }
    return PhaseTrace(
        phase=2,
        vertices_in=tuple(range(g.n)),
        vertices_out=tuple(int(v) for v in chosen),
        density_in=p,
        density_out=out_density,
        params={"delta": delta},
        guarantee=guarantee,
    )


# -- balanced subgraphs (used by phase 3) --------------------------------------


def balanced_subgraph(g: Graph) -> PhaseTrace:
    """Shrink to an induced subgraph whose maximum degree is a small multiple
    of its average degree (C-balanced with C <= 4 log2(1/p')).

    Iteratively removes the prescribed fraction of highest-degree vertices
    while that halves the density, then strips the remaining heavy vertices.
    Requires input density at most 1/5.
    """
    p0 = g.density
    if p0 > 0.2:
        raise InputError(f"balanced_subgraph needs density <= 1/5, got {p0:.3f}")
    current = np.arange(g.n)
    rounds = 0
    while True:
        k = len(current)
        p_cur = _density(g, current)
        if p_cur <= 0.0 or k <= 2:
            break
        r = int(math.ceil(k / math.log2(1.0 / p_cur)))
        if r >= k:
            break
        sub_deg = g.adjacency[np.ix_(current, current)].sum(axis=1).astype(np.int64)
        order = np.lexsort((current, -sub_deg))
        trimmed = np.sort(current[order[r:]])
        if _density(g, trimmed) < p_cur / 2.0:
            current = trimmed
            rounds += 1
            continue
        break
    k = len(current)
    p_k = _density(g, current)
    if p_k > 0.0 and k > 1:
        cutoff = (k - 1) * p_k * math.log2(1.0 / p_k)
        sub_deg = g.adjacency[np.ix_(current, current)].sum(axis=1).astype(np.int64)
        keep = sub_deg < cutoff
        if keep.any():
            current = current[keep]
    out_p = _density(g, current)
    sub_deg = g.adjacency[np.ix_(current, current)].sum(axis=1).astype(np.int64) if len(current) else np.zeros(0, dtype=np.int64)
    d_out = float(sub_deg.mean()) if len(current) else 0.0
    delta_out = int(sub_deg.max()) if len(current) else 0
    measured_c = delta_out / d_out if d_out > 0 else None
    claimed_c = 4.0 * math.log2(1.0 / out_p) if out_p > 0 else None
    guarantee = {
        "claimed_balance": claimed_c,
        "measured_balance": measured_c,
        "met": bool(measured_c <= claimed_c) if (measured_c is not None and claimed_c is not None) else None,
        "measured_size": int(len(current)),
        "rounds": rounds,
    }
    return PhaseTrace(
        phase=3,
        vertices_in=tuple(range(g.n)),
        vertices_out=tuple(int(v) for v in current),
        density_in=p0,
        density_out=out_p,
        params={"rounds": rounds},
        guarantee=guarantee,
    )


# -- greedy clique machinery ----------------------------------------------------


def greedy_clique(g: Graph, candidates: np.ndarray | None = None) -> list[int]:
    """Grow a clique by repeatedly taking the candidate with most neighbours
    among the remaining candidates (minimum complement degree), then
    restricting to its neighbourhood."""
    cand = np.arange(g.n) if candidates is None else np.asarray(sorted(candidates), dtype=int)
    out: list[int] = []
    while len(cand):
        sub = g.adjacency[np.ix_(cand, cand)]
        deg = sub.sum(axis=1).astype(np.int64)
        pick = int(np.argmax(deg))  # argmax returns the lowest index on ties
        v = int(cand[pick])
        out.append(v)
        cand = cand[sub[pick].astype(bool)]
    return sorted(out)


def extend_clique(g: Graph, clique: list[int]) -> list[int]:
    """Greedy maximalisation: single ascending pass adding universally adjacent vertices."""
    s = sorted(clique)
    # neighbours of each vertex in s; with no self-loops a member never counts all of s
    count = g.adjacency[s].sum(axis=0, dtype=np.int64)
    for v in range(g.n):
        if count[v] == len(s):
            s.append(v)
            count += g.adjacency[v]
    return sorted(s)


# -- phase 3 ------------------------------------------------------------------


def phase3_clique(g: Graph) -> CliqueCertificate:
    """Balance the complement, then greedily build a clique in the balanced core.

    The greedy step is the Turan guarantee run on the complement: the clique
    found has size at least n3 / (dbar3 + 1), where n3 and dbar3 are the core's
    size and the core's average complement degree.
    """
    comp = complement(g)
    note = None
    if comp.density <= 0.2:
        bal = balanced_subgraph(comp)
        core = np.asarray(bal.vertices_out, dtype=int)
        if len(core) == 0:
            core = np.arange(g.n)
            note = "balanced core empty; using the whole graph"
    else:
        core = np.arange(g.n)
        note = "complement density above 1/5; balancing skipped, guarantee informational"
    clique = greedy_clique(g, core)
    n3 = len(core)
    comp_deg = comp.adjacency[np.ix_(core, core)].sum(axis=1).astype(np.int64) if n3 else np.zeros(0)
    dbar3 = float(comp_deg.mean()) if n3 else 0.0
    claimed = math.ceil(n3 / (dbar3 + 1.0)) if n3 else 0
    verified = g.is_clique(clique)
    trace = PhaseTrace(
        phase=3,
        vertices_in=tuple(range(g.n)),
        vertices_out=tuple(clique),
        density_in=g.density,
        density_out=1.0,
        params={"core_size": n3, "core_complement_avg_degree": dbar3, "note": note},
        guarantee={
            "claimed_size": claimed,
            "measured_size": len(clique),
            "met": bool(len(clique) >= claimed),
        },
    )
    return CliqueCertificate(clique=tuple(clique), size=len(clique), phases=[trace], verified=verified)


# -- the pipeline ----------------------------------------------------------------


def _clique_search(
    g: Graph,
    gamma: float = _FALLBACK_GAMMA,
    eps: float = 2.0 * _FALLBACK_GAMMA,
    rho: float = 1.2 * _FALLBACK_GAMMA,
    delta: float = 0.1,
) -> CliqueCertificate:
    """The four-phase vertex search on a graph with at least one edge.

    Phase 0's vertex choice (sparse inputs only), phases 1-3, greedy
    maximalisation and the pairwise check; it reads no spectrum, so the
    phase-0 guarantee is left empty and there is no target. The defaults are
    the parameters default_parameters falls back to without a spectrum;
    phase 1 reads gamma, eps and rho only through rho/eps = 0.6.
    """
    traces: list[PhaseTrace] = []
    current = np.arange(g.n)
    if g.density <= _SPARSE_THRESHOLD:
        t0 = _phase0_search(g)
        traces.append(t0)
        current = np.asarray(t0.vertices_out, dtype=int)
    h1 = induced_subgraph(g, current)
    if h1.n >= 1:
        t1 = phase1_densify(h1, gamma, eps, rho)
        keep = np.asarray(t1.vertices_out, dtype=int)
        traces.append(_remap(t1, current))
        current = current[keep]
    h2 = induced_subgraph(g, current)
    t2 = phase2_dense_core(h2, delta)
    keep = np.asarray(t2.vertices_out, dtype=int)
    traces.append(_remap(t2, current))
    current = current[keep]
    h3 = induced_subgraph(g, current)
    cert3 = phase3_clique(h3)
    traces.append(_remap(cert3.phases[0], current))
    clique = extend_clique(g, sorted(int(current[v]) for v in cert3.clique))
    return CliqueCertificate(clique=tuple(clique), size=len(clique), phases=traces, verified=g.is_clique(clique))


# -- clique peeling ----------------------------------------------------------------


def peel_cliques(
    g: Graph,
    extractor: str,
    floor: float | None = None,
    merge_threshold: float | None = None,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], tuple[int, ...]]:
    """Peel cliques off g, then merge near-complete pairs into blocks.

    Cliques are extracted from the residual graph until one falls under the
    size floor (default sqrt(n)). The cliques and the leftover vertices (as
    1-cliques) become nodes of an auxiliary graph joining pairs with crossing
    density >= 1 - merge_threshold (default n^(-1/6)), all read off one k x k
    block edge-count matrix; its connected components are the blocks.
    Returns (cliques in peel order, sorted blocks, sorted leftover vertices).

    The extractor picks each peeled clique. "pipeline" runs _clique_search,
    the four-phase search of clique_pipeline without its spectral
    certificate, so no peel eigendecomposes its residual graph. "greedy"
    maximalises (extend_clique) the clique that greedy_clique grows by
    repeatedly taking the candidate with most neighbours among the others.
    """
    if extractor not in ("pipeline", "greedy"):
        raise InputError(f"unknown extractor {extractor!r}")
    n = g.n
    if floor is None:
        floor = math.sqrt(n)
    if merge_threshold is None:
        merge_threshold = n ** (-1.0 / 6.0) if n > 1 else 0.5
    residual = np.arange(n)
    cliques: list[tuple[int, ...]] = []
    while len(residual):
        sub = induced_subgraph(g, residual)
        if extractor == "greedy":
            local = extend_clique(sub, greedy_clique(sub))
        else:
            local = list(_clique_search(sub).clique) if sub.m else [0]
        if len(local) < floor:
            break
        cliques.append(tuple(int(v) for v in residual[local]))
        residual = np.delete(residual, local)
    nodes: list[tuple[int, ...]] = list(cliques) + [(int(v),) for v in residual]
    sizes = np.asarray([len(node) for node in nodes], dtype=np.int64)
    near = block_edge_counts(g.adjacency, nodes) / np.outer(sizes, sizes) >= 1.0 - merge_threshold
    # components by frontier expansion: each node enters exactly one frontier
    k = len(nodes)
    label = np.full(k, -1)
    for start in range(k):
        if label[start] >= 0:
            continue
        frontier = np.arange(k) == start
        while frontier.any():
            label[frontier] = start
            frontier = near[frontier].any(axis=0) & (label < 0)
    groups: dict[int, list[int]] = {}
    for node, root in zip(nodes, label.tolist()):
        groups.setdefault(root, []).extend(node)
    merged = sorted(tuple(sorted(verts)) for verts in groups.values())
    return cliques, [b for b in merged if len(b) > 1], tuple(b[0] for b in merged if len(b) == 1)


def clique_pipeline(
    g: Graph,
    mode: str = "eigen",
    gamma: float | None = None,
    eps: float | None = None,
    rho: float | None = None,
    delta: float = 0.1,
    tol: float | None = None,
) -> CliqueCertificate:
    """Compose phase 0 (sparse inputs only), phase 1, phase 2, and phase 3.

    The returned clique is verified pairwise against the original adjacency
    and greedily maximalised inside the input graph. Guarantees are recorded
    per phase as (claimed, measured, met) with all hidden constants set to 1.
    The spectral certificate (lambda_n, the default gamma, phase 0's edge
    guarantee, the hypothesis and the target) wraps _clique_search, which
    finds the clique without reading the spectrum.
    """
    if mode not in ("eigen", "surplus"):
        raise InputError("mode must be 'eigen' or 'surplus'")
    if g.n == 0:
        raise InputError("empty vertex set")
    if g.m == 0:
        return CliqueCertificate(clique=(0,), size=1, phases=[], verified=True, target={"note": "edgeless input"})
    if gamma is None:
        gamma, _, _ = default_parameters(g, tol)
    if eps is None:
        eps = 2.0 * gamma
    if rho is None:
        rho = 1.2 * gamma
    check_phase1_parameters(gamma, eps, rho)
    lam_n = spectrum(g, tol).lambda_min
    lam = abs(lam_n)
    d_floor = max(1, int(g.average_degree))
    cert = _clique_search(g, gamma, eps, rho, delta)
    used_phase0 = cert.phases[0].phase == 0
    if used_phase0:
        _certify_phase0(g, cert.phases[0], lam_n)
    if mode == "eigen":
        if used_phase0:
            target_value = d_floor ** (1.0 - 4.0 * gamma)
            target_formula = "d^(1-4*gamma)"
        else:
            target_value = g.n ** (1.0 - eps - 2.0 * gamma)
            target_formula = "n^(1-eps-2*gamma)"
        hypothesis = {"claimed": d_floor**gamma, "measured": lam, "met": bool(lam <= d_floor**gamma)}
    else:
        target_value = g.n ** (1.0 - 2.0 * gamma - eps)
        target_formula = "n^(1-2*gamma-eps)"
        surp_cap = lam * g.n / 4.0
        hypothesis = {"claimed": g.n ** (1.0 + gamma), "measured": surp_cap, "met": bool(surp_cap <= g.n ** (1.0 + gamma))}
    cert.target = {
        "mode": mode,
        "formula": target_formula,
        "value": target_value,
        "achieved": cert.size,
        "met": bool(cert.size >= target_value),
        "hypothesis": hypothesis,
        "params": {"gamma": gamma, "eps": eps, "rho": rho, "delta": delta},
    }
    return cert


# -- triple Hadamard diagnostic ---------------------------------------------------


def triple_hadamard_diagnostic(g: Graph, tol: float | None = None) -> dict:
    """Quadratic form of (B + |lambda_n| I)^{o3} at the all-ones vector.

    B is the adjacency matrix with the principal component removed, so
    B + |lambda_n| I is positive semidefinite and the Schur product theorem
    makes the whole cube PSD: the form must be nonnegative. Also returns the
    four-term expansion, which must reproduce the total exactly.
    """
    s = spectrum(g, tol)
    a = g.adjacency.astype(np.float64)
    v1 = s.eigenvectors[:, 0]
    b = a - s.lambda_max * np.outer(v1, v1)
    c = abs(s.lambda_min)
    shifted = b + c * np.eye(g.n)
    total = float((shifted**3).sum())
    diag = np.diagonal(b)
    terms = {
        "cubic": float((b**3).sum()),
        "mixed_square": 3.0 * c * float((diag**2).sum()),
        "mixed_linear": 3.0 * c * c * float(diag.sum()),
        "identity": c**3 * g.n,
    }
    expansion = sum(terms.values())
    min_eig = float(np.linalg.eigvalsh(shifted)[0])
    return {
        "total": total,
        "terms": terms,
        "expansion": expansion,
        "expansion_residual": abs(total - expansion),
        "shift_min_eig": min_eig,
        "lambda_n_abs": c,
    }
