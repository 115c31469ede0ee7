"""Independent checks of the CLI's reports against the benchmark's own inputs.

Each check recomputes a property from the adjacency matrix or the set the
benchmark generated, with plain numpy, and never reads the program's own
``verified`` flags. It returns ``None`` when the report passes and a one-line
reason when it does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPECTRAL_TOL = 1e-8  # relative to 1 + 2m, as the program's own trace identities
CHOWLA_TOL = 1e-8  # the CLI's default certificate tolerance


def _edges(adj: np.ndarray) -> int:
    return int(adj.sum()) // 2


def _cut(adj: np.ndarray, sides: np.ndarray) -> int:
    return int((adj * (sides[:, None] != sides[None, :])).sum()) // 2


def _sides(values, n: int) -> np.ndarray | None:
    sides = np.asarray(values, dtype=np.int64)
    if sides.shape != (n,) or not np.isin(sides, (0, 1)).all():
        return None
    return sides


def gen(data: bytes, expected: bytes) -> str | None:
    return None if data == expected else "gen: edge list differs from the benchmark's own rendering of the graph"


def spectrum(data: bytes, adj: np.ndarray) -> str | None:
    doc = json.loads(data)
    n, m = len(adj), _edges(adj)
    lam = np.asarray(doc["eigenvalues"], dtype=np.float64)
    if doc["n"] != n or doc["m"] != m or lam.shape != (n,):
        return "spectrum: n, m or the number of eigenvalues differs from the input"
    scale = SPECTRAL_TOL * (1.0 + 2.0 * m)
    if abs(float(lam.sum())) > scale:
        return f"spectrum: sum of eigenvalues is {float(lam.sum())!r}, not 0"
    if abs(float((lam**2).sum()) - 2.0 * m) > scale:
        return f"spectrum: sum of squared eigenvalues is {float((lam**2).sum())!r}, not 2m = {2 * m}"
    return None


def clique(data: bytes, adj: np.ndarray) -> str | None:
    doc = json.loads(data)
    members = [int(v) for v in doc["clique"]]
    k = len(members)
    if k < 2 or len(set(members)) != k or doc["size"] != k or not all(0 <= v < len(adj) for v in members):
        return "clique: malformed vertex list"
    if int(adj[np.ix_(members, members)].sum()) != k * (k - 1):
        return "clique: reported vertices are not pairwise adjacent in the input"
    return None


def decompose(data: bytes, adj: np.ndarray) -> str | None:
    doc = json.loads(data)
    n = len(adj)
    listed = sorted([v for b in doc["blocks"] for v in b] + list(doc["leftover"]))
    if listed != list(range(n)):
        return "decompose: blocks and leftover do not partition the vertex set"
    model = np.zeros_like(adj)
    for block in doc["blocks"]:
        model[np.ix_(block, block)] = 1
    np.fill_diagonal(model, 0)
    edit = int((adj != model).sum()) // 2
    if edit != doc["edit_distance"]:
        return f"decompose: edit distance recomputed from blocks is {edit}, report says {doc['edit_distance']}"
    a = adj.astype(np.float64)  # every product entry is an integer below 2^53 at these sizes
    triangles = int(round(float(((a @ a) * a).sum()))) // 6
    deg = adj.sum(axis=1, dtype=np.int64)
    cherries = int((deg * (deg - 1) // 2).sum()) - 3 * triangles
    if cherries != doc["cherries"]:
        return f"decompose: cherry count recomputed is {cherries}, report says {doc['cherries']}"
    return None


def maxcut(data: bytes, adj: np.ndarray) -> str | None:
    doc = json.loads(data)
    m = _edges(adj)
    sides = _sides(doc["partition"], len(adj))
    if sides is None:
        return "maxcut: partition is not a 0/1 vector of length n"
    cut = _cut(adj, sides)
    if cut != doc["value"]:
        return f"maxcut: cut recomputed from the partition is {cut}, report says {doc['value']}"
    if 2 * cut < m:  # exact and 1-flip-optimal cuts both cross at least half the edges
        return f"maxcut: cut {cut} is below m/2"
    if doc["surplus"] != cut - m / 2:
        return "maxcut: surplus is not value - m/2"
    return None


def bisect(data: bytes, adj: np.ndarray) -> str | None:
    doc = json.loads(data)
    n = len(adj)
    sides = _sides(doc["witnesses"]["bisection"], n)
    if sides is None or int(sides.sum()) not in (n // 2, (n + 1) // 2):
        return "bisect: witness is not a balanced 0/1 split"
    cut = _cut(adj, sides)
    if cut != doc["bw"]:
        return f"bisect: cut recomputed from the witness is {cut}, report says {doc['bw']}"
    if not all(math.isfinite(doc[k]) and doc[k] >= 0 for k in ("disc_plus", "disc_minus")):
        return "bisect: discrepancies must be finite and non-negative"
    return None


def _least_prime_above(k: int) -> int:
    sieve = np.ones(2 * k + 2, dtype=bool)  # Bertrand: a prime lies in (k, 2k]
    sieve[:2] = False
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return int(np.flatnonzero(sieve[k + 1 :])[0]) + k + 1


def chowla(data: bytes, a_set: list[int]) -> str | None:
    doc = json.loads(data)
    p = _least_prime_above(4 * max(a_set))
    if doc["A"] != sorted(a_set) or doc["n"] != p:
        return f"chowla: expected A={sorted(a_set)} over Z/{p}Z"
    if not doc["residual"] <= CHOWLA_TOL:
        return f"chowla: eigenvalue/Fourier residual {doc['residual']!r} exceeds {CHOWLA_TOL}"
    xi = np.arange(p)
    fourier = np.cos(2.0 * math.pi * np.outer(xi, a_set) / p).sum(axis=1)
    if abs(float(fourier.min()) - doc["fourier_min"]) > CHOWLA_TOL * len(a_set):
        return "chowla: fourier_min differs from the recomputed minimum over Fourier points"
    if abs(doc["lambda_min"] - 2.0 * doc["fourier_min"]) > CHOWLA_TOL * len(a_set):
        return "chowla: lambda_min is not twice the Fourier minimum"
    return None
