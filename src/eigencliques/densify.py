"""Four-phase densification: from a sparse graph with tame smallest eigenvalue
(or small surplus) down to a verified clique.

Phase 0 moves into a max-degree neighbourhood, phase 1 runs a monotone
potential-improvement loop (neighbourhood step + high-degree split), phase 2
picks the densest block of a clique-union decomposition, and phase 3
regularises the complement and greedily builds a clique.

Each phase and the peel loop take an ascending, distinct, in-range index array
into the one input graph (else an InputError) and report vertices in its
labels; the order keeps every lowest-index tie rule on the vertex G[set] picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InputError
from .graphs import Graph, _index_set, _vertex_index, block_edge_counts, degrees_into, triangles_per_vertex
from .spectral import lambda_min

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


def _density_of(edges: int, k: int) -> float:
    """Edge density of a k-vertex set with the given edge count; 1 for a single vertex."""
    if k <= 1:
        return 1.0 if k == 1 else 0.0
    return edges / (k * (k - 1) / 2)


def _density(deg: np.ndarray) -> float:
    """Edge density of a vertex set from its inner degrees."""
    return _density_of(int(deg.sum()) // 2, len(deg))


def _graph_density(deg: np.ndarray) -> float:
    """Graph.density of the induced subgraph: 0 on one vertex, where _density reads 1."""
    return _density(deg) if len(deg) > 1 else 0.0


# -- phase 0 ------------------------------------------------------------------


def _phase0_search(g: Graph, vertices: np.ndarray, deg: np.ndarray) -> PhaseTrace:
    """Phase 0's vertex choice in G[vertices], whose inner degrees are deg:
    d = floor(avg degree) neighbours of a maximum-degree vertex. Reads no
    spectrum and leaves the guarantee empty."""
    if not deg.any():
        raise DegenerateInputError("phase 0 needs at least one edge")
    d = max(1, int(int(deg.sum()) / len(vertices)))
    x = int(vertices[np.argmax(deg)])
    s_idx = vertices[g.adjacency[x, vertices].astype(bool)][:d]
    e_s = int(degrees_into(g.adjacency, s_idx, s_idx).sum()) // 2
    return PhaseTrace(
        phase=0,
        vertices_in=tuple(vertices.tolist()),
        vertices_out=tuple(s_idx.tolist()),
        density_in=_density(deg),
        density_out=_density_of(e_s, len(s_idx)),
        params={"d": d, "apex": x, "edges": e_s},
    )


def _certify_phase0(trace: PhaseTrace, lam_n: float) -> PhaseTrace:
    """Fill in phase 0's edge guarantee d^2 / (4 |lambda_n|) from the input's smallest eigenvalue."""
    d, e_s = trace.params["d"], trace.params["edges"]
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
    return _certify_phase0(_phase0_search(g, np.arange(g.n), g.degrees), lambda_min(g, tol))


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
# Phase 2's slack: it aims for a block of density at least 1 - _PHASE2_DELTA.
_PHASE2_DELTA = 0.1


def default_parameters(g: Graph, lam_n: float) -> tuple[float, float, float]:
    """Infer (gamma, eps, rho) from g's smallest eigenvalue lam_n.

    gamma is log_d |lambda_n| clamped into [0.01, 0.08] (_FALLBACK_GAMMA when
    d or |lambda_n| is at most 1, so there is no logarithm); with eps = 2 gamma
    and rho = 1.2 gamma the phase-1 parameter constraints hold on the whole range.
    """
    gamma = _FALLBACK_GAMMA
    d, lam = g.average_degree, abs(lam_n)
    if d > 1.0 and lam > 1.0:
        gamma = math.log(lam) / math.log(d)
    gamma = min(max(gamma, 0.01), 0.08)
    return gamma, 2.0 * gamma, 1.2 * gamma


def _pad_set(adj: np.ndarray, current: np.ndarray, base_mask: np.ndarray, target: int) -> np.ndarray:
    """Grow base = current[base_mask] to the target size using the other vertices
    of the ascending set current with most edges into base; ascending, as current is."""
    base, pool = current[base_mask], np.flatnonzero(~base_mask)
    need = target - len(base)
    if need <= 0 or len(pool) == 0:
        return base
    scores = degrees_into(adj, current[pool], base)
    mask = base_mask.copy()
    mask[pool[np.lexsort((pool, -scores))[:need]]] = True  # most edges into base, ties lowest index
    return current[mask]


def phase1_densify(g: Graph, vertices: np.ndarray, gamma: float, eps: float, rho: float) -> PhaseTrace:
    """Monotone local improvement of the potential v(H)^(rho/eps) * p(H),
    starting from H = G[vertices].

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
    vertices = _index_set(g.n, vertices)
    expo = rho / eps
    n0 = len(vertices)
    current = vertices
    steps: list[dict] = []

    def potential(idx: np.ndarray) -> tuple[float, np.ndarray]:
        deg = degrees_into(g.adjacency, idx, idx)
        return len(idx) ** expo * _density(deg), deg

    phi, deg_in = potential(vertices)
    deg = deg_in
    for _ in range(_PHASE1_MAX_STEPS):
        k = len(current)
        if k <= 2:
            break
        p_cur = _density(deg)
        candidates: list[tuple[float, np.ndarray, str, np.ndarray]] = []
        # (b) closed-neighbourhood step. The triangle count guarantees some
        # vertex has a dense neighbourhood; score them all by the potential of
        # the unpadded closed neighbourhood and evaluate the best few exactly.
        tri = triangles_per_vertex(g.adjacency[current][:, current])
        sizes = deg + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.where(sizes > 1, (tri + deg) / (sizes * (sizes - 1) / 2.0), 0.0)
        score = sizes**expo * dens
        shortlist = np.argsort(-score, kind="stable")[:10]
        if int(np.argmax(tri)) not in shortlist:
            shortlist = np.append(shortlist, int(np.argmax(tri)))
        for i in shortlist:
            closed = g.adjacency[current[i], current].astype(bool)  # a new mask: i's neighbours in current
            if not closed.any():
                continue
            closed[i] = True
            target = max(int(math.ceil(p_cur * k)), int(closed.sum()))
            cand = _pad_set(g.adjacency, current, closed, target)
            candidates.append((*potential(cand), "neighborhood", cand))
        # (a) high-degree split with C = 5
        is_heavy = deg > 5.0 * deg.mean()
        if is_heavy.any():
            rest = current[~is_heavy]
            cand = _pad_set(g.adjacency, current, is_heavy, max(int(math.ceil(k / 5.0)), int(is_heavy.sum())))
            candidates.append((*potential(cand), "heavy-keep", cand))
            if rest.size:
                candidates.append((*potential(rest), "heavy-drop", rest))
        if not candidates:
            break
        best_phi, best_deg, move, best = max(candidates, key=lambda t: (t[0], t[2]))
        if best_phi <= phi * (1.0 + _PHASE1_TOL_POTENTIAL):
            break
        steps.append({"move": move, "size": int(len(best)), "potential": best_phi})
        current, phi, deg = best, best_phi, best_deg
    p_out = _density(deg)
    guarantee = {
        "claimed_size": n0 ** (1.0 - eps),
        "measured_size": int(len(current)),
        "met": bool(len(current) >= n0 ** (1.0 - eps)),
        "measured_density": p_out,
        "potential_monotone": True,
    }
    return PhaseTrace(
        phase=1,
        vertices_in=tuple(vertices.tolist()),
        vertices_out=tuple(current.tolist()),
        density_in=_graph_density(deg_in),
        density_out=p_out,
        params={"gamma": gamma, "eps": eps, "rho": rho, "steps": steps},
        guarantee=guarantee,
    )


# -- phase 2 ------------------------------------------------------------------


def phase2_dense_core(g: Graph, vertices: np.ndarray) -> PhaseTrace:
    """Densest block of the clique-union decomposition of G[vertices], aiming
    for size >= p*n/2 and density >= 1 - _PHASE2_DELTA.

    The blocks come from peel_cliques with the greedy extractor, so the
    peeling does not recurse back into the four-phase search.
    """
    vertices = _index_set(g.n, vertices)
    deg = degrees_into(g.adjacency, vertices, vertices)
    p = _graph_density(deg)
    floor_size = p * len(vertices) / 2.0
    blocks = [np.asarray(b, dtype=np.intp) for b in peel_cliques(g, "greedy", vertices)[1]]
    if not blocks:
        chosen, out_density, note = vertices, _density(deg), "no blocks recovered; returning the input"
    else:
        dens = [_density(degrees_into(g.adjacency, b, b)) for b in blocks]
        qualifying = [i for i, b in enumerate(blocks) if len(b) >= floor_size]
        dense_enough = [i for i in qualifying if dens[i] >= 1.0 - _PHASE2_DELTA]
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
        "claimed_size": floor_size,
        "claimed_density": 1.0 - _PHASE2_DELTA,
        "measured_size": int(len(chosen)),
        "measured_density": out_density,
        "met": bool(len(chosen) >= floor_size and out_density >= 1.0 - _PHASE2_DELTA),
        "note": note,
    }
    return PhaseTrace(
        phase=2,
        vertices_in=tuple(vertices.tolist()),
        vertices_out=tuple(chosen.tolist()),
        density_in=p,
        density_out=out_density,
        params={"delta": _PHASE2_DELTA},
        guarantee=guarantee,
    )


# -- balanced subgraphs (used by phase 3) --------------------------------------


def balanced_subgraph(g: Graph, vertices: np.ndarray) -> PhaseTrace:
    """Shrink the complement of G[vertices] to an induced subgraph that is
    C-balanced (maximum degree <= C times average degree, C <= 4 log2(1/p')).

    Iteratively removes the prescribed fraction of highest-degree vertices
    while that halves the density, then strips the remaining heavy vertices.
    Requires complement density at most 1/5; no complement graph is built.
    """
    vertices = _index_set(g.n, vertices)
    deg = len(vertices) - 1 - degrees_into(g.adjacency, vertices, vertices)
    p0 = _graph_density(deg)
    if p0 > 0.2:
        raise InputError(f"balanced_subgraph needs complement density <= 1/5, got {p0:.3f}")
    # deg: the complement degrees inside current. The density stays at most
    # 1/5, so log2(1/p) > 2 and a trim of r vertices leaves some.
    current, rounds = vertices, 0
    while len(current) > 2 and (p_cur := _density(deg)) > 0.0:
        r = int(math.ceil(len(current) / math.log2(1.0 / p_cur)))
        trimmed = np.sort(current[np.lexsort((current, -deg))[r:]])
        trimmed_deg = len(trimmed) - 1 - degrees_into(g.adjacency, trimmed, trimmed)
        if _density(trimmed_deg) >= p_cur / 2.0:
            break
        current, deg, rounds = trimmed, trimmed_deg, rounds + 1
    p_k = _density(deg)
    if p_k > 0.0 and len(current) > 1:
        keep = deg < (len(current) - 1) * p_k * math.log2(1.0 / p_k)
        if keep.any():
            current = current[keep]
            deg = len(current) - 1 - degrees_into(g.adjacency, current, current)
    out_p = _density(deg)
    measured_c = float(deg.max() / deg.mean()) if deg.any() else None
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
        vertices_in=tuple(vertices.tolist()),
        vertices_out=tuple(current.tolist()),
        density_in=p0,
        density_out=out_p,
        params={"rounds": rounds},
        guarantee=guarantee,
    )


# -- greedy clique machinery ----------------------------------------------------


def greedy_clique(g: Graph, candidates: np.ndarray) -> list[int]:
    """Grow a clique inside the ascending index array candidates by repeatedly
    taking the candidate with most neighbours among the remaining candidates
    (minimum complement degree), then restricting to its neighbourhood."""
    out: list[int] = []
    candidates = _index_set(g.n, candidates)
    while len(candidates):
        v = int(candidates[np.argmax(degrees_into(g.adjacency, candidates, candidates))])  # lowest index on ties
        out.append(v)
        candidates = candidates[g.adjacency[v, candidates].astype(bool)]
    return sorted(out)


def extend_clique(g: Graph, clique: list[int], candidates: np.ndarray) -> list[int]:
    """Greedy maximalisation: single pass over the ascending index array
    candidates, adding each one adjacent to every member so far."""
    s = _vertex_index(g.n, clique).tolist()
    # neighbours of each vertex in s; with no self-loops a member never counts all of s
    count = g.adjacency[s].sum(axis=0, dtype=np.int64)
    for v in _index_set(g.n, candidates).tolist():
        if count[v] == len(s):
            s.append(v)
            count += g.adjacency[v]
    return sorted(s)


# -- phase 3 ------------------------------------------------------------------


def phase3_clique(g: Graph, vertices: np.ndarray) -> CliqueCertificate:
    """Balance the complement of G[vertices], then greedily build a clique in
    the balanced core.

    The greedy step is the Turan guarantee run on the complement: the clique
    found has size at least n3 / (dbar3 + 1), where n3 and dbar3 are the core's
    size and the core's average complement degree.
    """
    vertices = _index_set(g.n, vertices)
    n = len(vertices)
    deg = degrees_into(g.adjacency, vertices, vertices)
    # the complement's density (0 for n <= 1); a nonempty set's balanced core is nonempty
    if _graph_density(n - 1 - deg) <= 0.2:
        core, note = np.asarray(balanced_subgraph(g, vertices).vertices_out, dtype=np.intp), None
    else:
        core, note = vertices, "complement density above 1/5; balancing skipped, guarantee informational"
    clique = greedy_clique(g, core)
    n3 = len(core)
    dbar3 = float((n3 - 1 - degrees_into(g.adjacency, core, core)).mean()) if n3 else 0.0
    claimed = math.ceil(n3 / (dbar3 + 1.0)) if n3 else 0
    trace = PhaseTrace(
        phase=3,
        vertices_in=tuple(vertices.tolist()),
        vertices_out=tuple(clique),
        density_in=_graph_density(deg),
        density_out=1.0,
        params={"core_size": n3, "core_complement_avg_degree": dbar3, "note": note},
        guarantee={
            "claimed_size": claimed,
            "measured_size": len(clique),
            "met": bool(len(clique) >= claimed),
        },
    )
    return CliqueCertificate(clique=tuple(clique), size=len(clique), phases=[trace], verified=g.is_clique(clique))


# -- the pipeline ----------------------------------------------------------------


def _clique_search(
    g: Graph,
    vertices: np.ndarray,
    gamma: float = _FALLBACK_GAMMA,
    eps: float = 2.0 * _FALLBACK_GAMMA,
    rho: float = 1.2 * _FALLBACK_GAMMA,
) -> CliqueCertificate:
    """The four-phase vertex search in G[vertices], for a nonempty vertex set.

    Phase 0's vertex choice (sparse inputs only), phases 1-3, greedy
    maximalisation inside the vertex set and the pairwise check; it reads no
    spectrum, so the phase-0 guarantee is left empty and there is no target.
    An edgeless set gives its lowest vertex and no phases. The defaults are
    the parameters default_parameters falls back to without a spectrum.
    Phase 1 checks all three, moves by rho/eps = 0.6 and claims the size n0^(1-eps).
    """
    deg = degrees_into(g.adjacency, vertices, vertices)
    if not deg.any():
        return CliqueCertificate(clique=(int(vertices[0]),), size=1, phases=[], verified=True)
    traces = [_phase0_search(g, vertices, deg)] if _density(deg) <= _SPARSE_THRESHOLD else []
    traces.append(phase1_densify(g, traces[-1].vertices_out if traces else vertices, gamma, eps, rho))
    traces.append(phase2_dense_core(g, traces[-1].vertices_out))
    cert3 = phase3_clique(g, traces[-1].vertices_out)
    clique = extend_clique(g, list(cert3.clique), vertices)
    return CliqueCertificate(clique=tuple(clique), size=len(clique), phases=traces + cert3.phases, verified=g.is_clique(clique))


# -- clique peeling ----------------------------------------------------------------


def peel_cliques(
    g: Graph, extractor: str, vertices: np.ndarray
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], tuple[int, ...]]:
    """Peel cliques off G[vertices], then merge near-complete pairs into blocks.

    Cliques are extracted from the ascending residual vertex set until one
    falls under the size floor sqrt(n), n = len(vertices). The cliques and the
    leftover vertices (as 1-cliques) become nodes of an auxiliary graph
    joining pairs with crossing density >= 1 - n^(-1/6) (1/2 for n <= 1), all
    read off one k x k block edge-count matrix; its connected components are
    the blocks. Returns (cliques in peel order, sorted blocks, sorted leftover
    vertices).

    The extractor picks each peeled clique. "pipeline" runs _clique_search,
    the four-phase search of clique_pipeline without its spectral
    certificate, so no peel eigendecomposes its residual graph. "greedy"
    takes the clique that greedy_clique grows by repeatedly taking the
    candidate with most neighbours among the others; it stops only when no
    vertex is adjacent to every pick, so that clique is already maximal.
    """
    if extractor not in ("pipeline", "greedy"):
        raise InputError(f"unknown extractor {extractor!r}")
    vertices = _index_set(g.n, vertices)
    n = len(vertices)
    floor = math.sqrt(n)
    merge_threshold = n ** (-1.0 / 6.0) if n > 1 else 0.5
    residual = vertices
    cliques: list[tuple[int, ...]] = []
    while len(residual):
        clique = greedy_clique(g, residual) if extractor == "greedy" else list(_clique_search(g, residual).clique)
        if len(clique) < floor:
            break
        cliques.append(tuple(clique))
        residual = np.delete(residual, np.searchsorted(residual, clique))
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


def clique_pipeline(g: Graph, mode: str = "eigen", tol: float | None = None) -> CliqueCertificate:
    """Compose phase 0 (sparse inputs only), phase 1, phase 2, and phase 3.

    The returned clique is verified pairwise against the original adjacency
    and greedily maximalised inside the input graph. Guarantees are recorded
    per phase as (claimed, measured, met) with all hidden constants set to 1.
    The spectral certificate (lambda_n, the gamma, eps and rho that
    default_parameters reads off it, phase 0's edge guarantee, the hypothesis
    and the target) wraps _clique_search, which finds the clique without
    reading the spectrum.
    """
    if mode not in ("eigen", "surplus"):
        raise InputError("mode must be 'eigen' or 'surplus'")
    if g.n == 0:
        raise InputError("empty vertex set")
    if g.m == 0:
        return CliqueCertificate(clique=(0,), size=1, phases=[], verified=True, target={"note": "edgeless input"})
    lam_n = lambda_min(g, tol)
    gamma, eps, rho = default_parameters(g, lam_n)
    lam = abs(lam_n)
    d_floor = max(1, int(g.average_degree))
    cert = _clique_search(g, np.arange(g.n), gamma, eps, rho)
    used_phase0 = cert.phases[0].phase == 0
    if used_phase0:
        _certify_phase0(cert.phases[0], lam_n)
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
        "params": {"gamma": gamma, "eps": eps, "rho": rho, "delta": _PHASE2_DELTA},
    }
    return cert

