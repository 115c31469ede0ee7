"""Seeded inputs and fixed job lists for the benchmark's workloads.

Every input is derived from the workload seed alone, with the program's
order-independent pair hash ``graphs.pair_uniforms`` (the same hash
``gen --params family=Gnp`` uses), and written by the benchmark's own
edge-list writer. The program receives only the files and command lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from eigencliques.graphs import pair_uniforms

import checks

# dense_random: G(n, 1/2). n=1000 makes one batch ~30 s; at 500 a run still
# holds several batches, density stays 1/2, and the largest clique (~2 log2 n
# = 18) stays below the sqrt(n) = 22.4 peel floor, so decompose peels nothing.
DENSE_N = 500
# planted_union: the paper's regime, 25 disjoint 40-cliques with sparse noise.
PLANTED_SIZES = (40,) * 25
PLANTED_NOISE = 0.02
# The exact small-n jobs, run in dense_random's batch: n=20 runs discrepancy
# exactly, n=22 takes its heuristic. Each graph has exactly half of all pairs,
# so enumeration work does not vary with the seed; likewise each chowla set
# has a fixed max(A) and size.
SMALL_NS = (20, 20, 22)
CHOWLA_MAX = (120, 250, 500)
CHOWLA_SIZE = 8

COMMANDS = ("gen", "spectrum", "clique", "decompose", "maxcut", "bisect", "chowla")


@dataclass
class Job:
    command: str
    argv: list[str]
    output: Path
    check: Callable[[bytes], str | None]


def edge_list_text(adj: np.ndarray) -> str:
    """The documented edge-list format: header "n m", then "u v" with u < v, sorted."""
    iu, ju = np.nonzero(np.triu(adj, 1))
    lines = [f"{len(adj)} {len(iu)}"] + [f"{u} {v}" for u, v in zip(iu.tolist(), ju.tolist())]
    return "\n".join(lines) + "\n"


def _adjacency(n: int, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[iu, ju] = 1
    adj[ju, iu] = 1
    return adj


def _graph_jobs(work: Path, name: str, adj: np.ndarray, commands: tuple[str, ...]) -> list[Job]:
    path = work / f"{name}.txt"
    path.write_text(edge_list_text(adj), encoding="utf-8")
    jobs = []
    for cmd in commands:
        out = work / f"{name}.{cmd}.json"
        argv = [cmd, "--input", str(path), "--output", str(out)]
        jobs.append(Job(cmd, argv, out, partial(getattr(checks, cmd), adj=adj)))
    return jobs


def dense_random(seed: int, work: Path) -> tuple[list[Job], Job]:
    n = DENSE_N
    iu, ju = np.triu_indices(n, 1)
    hit = pair_uniforms(seed, iu, ju) < 0.5
    adj = _adjacency(n, iu[hit], ju[hit])
    jobs = _graph_jobs(work, "dense", adj, ("spectrum", "clique", "decompose", "maxcut"))
    path = work / "dense.txt"  # gen rewrites the very file the other jobs read
    argv = ["gen", "--params", f"family=Gnp,n={n},p=0.5", "--seed", str(seed), "--output", str(path)]
    gen = Job("gen", argv, path, partial(checks.gen, expected=path.read_bytes()))
    return [gen] + jobs + _exact_jobs(seed, work), jobs[0]


def planted_union(seed: int, work: Path) -> tuple[list[Job], Job]:
    block = np.repeat(np.arange(len(PLANTED_SIZES)), PLANTED_SIZES)
    n = len(block)
    iu, ju = np.triu_indices(n, 1)
    hit = (block[iu] == block[ju]) | (pair_uniforms(seed, iu, ju) < PLANTED_NOISE)
    adj = _adjacency(n, iu[hit], ju[hit])
    jobs = _graph_jobs(work, "planted", adj, ("spectrum", "clique", "decompose", "maxcut"))
    return jobs, jobs[0]


def _chowla_set(seed: int, amax: int) -> list[int]:
    # CHOWLA_SIZE - 1 distinct values below amax, ranked by a seeded hash, plus amax
    below = np.arange(1, amax)
    keys = pair_uniforms(seed, below, np.full(len(below), amax))
    return sorted(int(v) for v in below[np.argsort(keys, kind="stable")[: CHOWLA_SIZE - 1]]) + [amax]


def _exact_jobs(seed: int, work: Path) -> list[Job]:
    """Exhaustive cuts on small G(n, 1/2) graphs and chowla on small seeded sets."""
    jobs: list[Job] = []
    for i, n in enumerate(SMALL_NS):
        iu, ju = np.triu_indices(n, 1)
        keys = pair_uniforms(seed * len(SMALL_NS) + i, iu, ju)
        keep = np.argsort(keys, kind="stable")[: math.comb(n, 2) // 2]
        jobs += _graph_jobs(work, f"small{i}", _adjacency(n, iu[keep], ju[keep]), ("maxcut", "bisect"))
    for i, amax in enumerate(CHOWLA_MAX):
        a_set = _chowla_set(seed, amax)
        out = work / f"chowla{i}.json"
        argv = ["chowla", ",".join(map(str, a_set)), "--output", str(out)]
        jobs.append(Job("chowla", argv, out, partial(checks.chowla, a_set=a_set)))
    return jobs


# name -> (builder, why it is in the benchmark); the reasons are also in BENCHMARK.json.
WORKLOADS = {
    "dense_random": (
        dense_random,
        "G(500,1/2) far from a clique union (decompose merges ~500 singletons, phase-1 products, 62k-edge I/O) plus exact cuts at n=20,22 and chowla",
    ),
    "planted_union": (
        planted_union,
        "25 planted 40-cliques plus 2% noise, the paper's regime: phase-0 path, 25 peels each with its own eigh, tiny merge step",
    ),
}


def prepare(name: str, seed: int, work: Path) -> tuple[list[Job], Job]:
    """Write the workload's inputs under ``work``; return its jobs and the warm-up job."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name][0](seed, work)
