"""Dense undirected graphs: representation, deterministic generators, transformations.

All graphs are simple and undirected, stored as a symmetric 0/1 adjacency
matrix with zero diagonal. Vertices are labelled 0..n-1. Values are immutable
after construction and safe to share.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, SizeError

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "from_edge_list",
    "generate",
    "clique_union",
    "turan",
    "gnp",
    "h_k",
    "complete",
    "cycle",
    "path",
    "petersen",
    "complement",
    "induced_subgraph",
    "degrees_into",
    "triangles_per_vertex",
    "neighbor_masks",
    "read_edge_list",
    "write_edge_list",
    "parse_edge_list",
    "format_edge_list",
]


# Largest vertex count the toolkit builds: the float64 adjacency that eigh
# reads is then 2.1 GB. Checked before any n x n array is allocated.
MAX_VERTICES = 1 << 14


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise SizeError(f"n={n} exceeds the vertex ceiling {MAX_VERTICES} (dense n x n adjacency)")


class Graph:
    """Immutable dense graph. Use :func:`from_edge_list` or a generator to build one."""

    __slots__ = ("n", "adjacency", "m", "_degrees")

    def __init__(self, adjacency: np.ndarray):
        adj = np.asarray(adjacency, dtype=np.uint8)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix")
        if adj.size and (adj > 1).any():
            raise InputError("adjacency entries must be 0 or 1")
        if adj.size and np.diagonal(adj).any():
            raise InputError("adjacency must have zero diagonal")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be symmetric")
        adj = adj.copy()
        adj.setflags(write=False)
        self.n: int = adj.shape[0]
        self.adjacency: np.ndarray = adj
        self._degrees = adj.sum(axis=1, dtype=np.int64) if self.n else np.zeros(0, dtype=np.int64)
        self._degrees.setflags(write=False)
        self.m: int = int(self._degrees.sum()) // 2

    # -- basic quantities ---------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        return int(self._degrees.max()) if self.n else 0

    @property
    def density(self) -> float:
        """Edge density m / C(n,2); 0 for n <= 1."""
        if self.n <= 1:
            return 0.0
        return self.m / (self.n * (self.n - 1) / 2)

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(iu.tolist(), ju.tolist()))

    def is_regular(self) -> bool:
        return self.n == 0 or bool((self._degrees == self._degrees[0]).all())

    def is_clique(self, vertices: Iterable[int] | None = None) -> bool:
        """Exact Boolean check that the given vertex set is pairwise adjacent.
        A vertex that is not an integer, or lies outside [0, n), is an InputError."""
        idx = np.arange(self.n) if vertices is None else _vertex_index(self.n, vertices)
        k = len(idx)
        return int(degrees_into(self.adjacency, idx, idx).sum()) == k * (k - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _distinct_integers(values: Iterable[int], what: str) -> list[int]:
    """The distinct values, ascending; one that is not an integer (0.5 is not read as 0) is an InputError."""
    try:
        return sorted({operator.index(v) for v in values})
    except TypeError:
        raise InputError(f"{what} must be integers") from None


def _vertex_index(n: int, vertices: Iterable[int]) -> np.ndarray:
    """The distinct vertices as an ascending index array; one not an integer in [0, n) is an InputError."""
    return _index_set(n, _distinct_integers(vertices, "vertices"))


def _index_set(n: int, vertices: Sequence[int]) -> np.ndarray:
    """The vertex set as an index array, checked in O(k) and never reordered:
    distinct integers in ascending order inside [0, n), else an InputError."""
    idx = np.asarray(vertices)
    if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
        raise InputError("vertex set must be a one-dimensional array of int64 indices")
    if idx.size and (idx[0] < 0 or idx[-1] >= n or (idx[1:] <= idx[:-1]).any()):
        raise InputError("vertex out of range, repeated or out of order")
    return idx.astype(np.intp, copy=False)


# -- construction -----------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse to one edge.

    The pairs are checked as one (m, 2) array. The first offending pair in
    input order is reported, and on one pair the range error comes before the
    self-loop error. A value beyond int64 is out of range like any other.
    """
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    _check_vertex_count(n)
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
    except OverflowError:  # compared as Python ints below, so it is reported as out of range
        pairs = np.asarray(edges, dtype=object)
    except ValueError:  # ragged pairs, or a value with no integer
        raise InputError("edges must be (u, v) pairs of integers") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError("edges must be (u, v) pairs of integers")
    u, v = pairs[:, 0], pairs[:, 1]
    out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = out_of_range | (u == v)
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(u[i]), int(v[i])
        if out_of_range[i]:
            raise InputError(f"edge ({a},{b}) out of range for n={n}")
        raise InputError(f"self-loop at vertex {a}")
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[u, v] = 1
    adj[v, u] = 1
    return Graph(adj)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Counter-based hash; edge samples are order-independent and platform-stable.
    z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def pair_uniforms(seed: int, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0,1) keyed by (seed, i, j), independent of order."""
    with np.errstate(over="ignore"):
        base = _splitmix64(np.asarray([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)]))[0]
        key = _splitmix64(iu.astype(np.uint64) * np.uint64(0x100000001) + base)
        key = _splitmix64(key ^ (ju.astype(np.uint64) + np.uint64(0x9E3779B9)))
    return key.astype(np.float64) / float(2**64)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi sample, bit-identical across runs for a fixed seed."""
    if n < 1:
        raise InputError("n must be positive")
    if not (0.0 <= p <= 1.0):
        raise InputError("p must lie in [0,1]")
    _check_vertex_count(n)
    iu, ju = np.triu_indices(n, 1)
    u = pair_uniforms(seed, iu, ju)
    adj = np.zeros((n, n), dtype=np.uint8)
    hit = u < p
    adj[iu[hit], ju[hit]] = 1
    adj[ju[hit], iu[hit]] = 1
    return Graph(adj)


def clique_union(sizes: Sequence[int]) -> Graph:
    """Vertex-disjoint union of cliques, blocks laid out consecutively."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise InputError("clique sizes must be positive")
    n = sum(sizes)
    _check_vertex_count(n)
    adj = np.zeros((n, n), dtype=np.uint8)
    start = 0
    for s in sizes:
        adj[start : start + s, start : start + s] = 1
        start += s
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def complete(n: int) -> Graph:
    return clique_union([n])


def turan(r: int, n: int, strict: bool = False) -> Graph:
    """Complete r-partite graph with part sizes differing by at most one.

    With strict=True, r must divide n (parts of size exactly n/r).
    """
    if r < 1 or n < 1:
        raise InputError("r and n must be positive")
    if r > n:
        raise InputError("r must not exceed n")
    if strict and n % r != 0:
        raise InputError(f"strict mode requires r | n, got r={r}, n={n}")
    _check_vertex_count(n)
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    adj = np.ones((n, n), dtype=np.uint8)
    start = 0
    for s in sizes:
        adj[start : start + s, start : start + s] = 0
        start += s
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def h_k(k: int) -> Graph:
    """A 2k-clique plus an apex vertex adjacent to exactly k of its vertices.

    Vertices 0..2k-1 form the clique; vertex 2k is the apex, adjacent to 0..k-1.
    """
    if k < 1:
        raise InputError("k must be positive")
    n = 2 * k + 1
    _check_vertex_count(n)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[: 2 * k, : 2 * k] = 1
    adj[2 * k, :k] = 1
    adj[:k, 2 * k] = 1
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs n >= 1")
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, edges)


# family -> (required parameters, optional parameters, builder)
_FAMILIES = {
    "CliqueUnion": (("sizes",), (), lambda args: clique_union(args["sizes"])),
    "Turan": (("r", "n"), ("strict",), lambda args: turan(args["r"], args["n"], args.get("strict", False))),
    "Gnp": (("n", "p"), ("seed",), lambda args: gnp(args["n"], args["p"], args.get("seed", 0))),
    "Hk": (("k",), (), lambda args: h_k(args["k"])),
    "Complete": (("n",), (), lambda args: complete(args["n"])),
    "Cycle": (("n",), (), lambda args: cycle(args["n"])),
    "Path": (("n",), (), lambda args: path(args["n"])),
}


def generate(family: str, **params) -> Graph:
    """Dispatch on a family descriptor name (see _FAMILIES); a key the family does not read is an InputError."""
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    required, optional, build = _FAMILIES[family]
    missing = [key for key in required if key not in params]
    if missing:
        raise InputError(f"family {family!r} requires parameter {', '.join(missing)}")
    unread = sorted(set(params) - set(required) - set(optional))
    if unread:
        raise InputError(f"family {family!r} does not read parameter {', '.join(unread)}")
    return build(params)


# -- transformations --------------------------------------------------------


def complement(g: Graph) -> Graph:
    adj = np.ones((g.n, g.n), dtype=np.uint8) - g.adjacency
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, relabelled 0..|U|-1 in ascending original order."""
    ix = _vertex_index(g.n, vertices)
    return Graph(g.adjacency[np.ix_(ix, ix)])


# -- block algebra ------------------------------------------------------------


def degrees_into(adj: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Neighbours in cols of each vertex in rows, as exact int64: the gathered
    rows times the indicator vector of cols, one float32 product and no 2-D
    gather. Every partial sum is an integer at most n <= MAX_VERTICES < 2^24."""
    indicator = np.zeros(adj.shape[1], dtype=np.float32)
    indicator[np.asarray(cols, dtype=np.intp)] = 1.0
    return (adj[np.asarray(rows, dtype=np.intp)] @ indicator).astype(np.int64)


def triangles_per_vertex(adj: np.ndarray) -> np.ndarray:
    """Triangles through each vertex, ((A A^T) o A) 1 / 2.

    A A^T is one float32 symmetric rank-k product. It is exact: every partial
    sum is an integer at most n <= MAX_VERTICES < 2^24. The row sums, up to
    n^2, are taken in float64.
    """
    a = adj.astype(np.float32)
    return ((a @ a.T) * a).sum(axis=1, dtype=np.float64).astype(np.int64) // 2


def neighbor_masks(adj: np.ndarray) -> list[int]:
    """Neighbourhoods as Python-int bitmasks: bit v of masks[u] is set iff adj[u, v]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# -- edge-list text format ----------------------------------------------------
# First non-comment line: "n m"; then m lines "u v" (0-indexed). '#' starts a
# comment line. format_edge_list emits edges sorted with u < v.
#
# The canonical layout that format_edge_list writes (the header, then exactly m
# lines, each two integers of at most 18 digits split by one space and ended by
# "\n"; an edge endpoint may start with '-') is checked on its ASCII bytes and
# read in one numpy pass; 18 digits cannot overflow int64. Any other text goes
# through _parse_lines, the one definition of the other accepted layouts and
# of every line-numbered error.

# Characters checked per pass, cut after a line end so that the temporaries stay
# a few MiB at any text size. A canonical line has at most 40 characters.
_CHUNK = 1 << 16
_LINE_SEPARATORS = np.frombuffer(b" \n", dtype=np.uint16)[0]  # one line's two separator bytes, read as one


def _canonical_lines(b: np.ndarray, header: bool) -> int | None:
    """The number of lines in b, ASCII bytes that start at a line start, if each
    line is two tokens of 1-18 digits split by ' ' and ended by '\n', where a
    token may start with '-' outside the header line (b's first line when
    header is set); else None."""
    if b[-1] != 10:
        return None
    at = np.flatnonzero((b - 48) > 9)  # every byte that is not a digit: b - 48 wraps below '0'
    seps = b[at]
    minus = seps == 45
    signs = at[minus]
    if signs.size:
        at, seps = at[~minus], seps[~minus]
    if len(at) % 2 or (seps.view(np.uint16) != _LINE_SEPARATORS).any():
        return None
    if signs.size:
        # a '-' is not on the header line and follows a separator (b[-1] is a '\n',
        # so b[0 - 1] reads as the line start it is); a '-' with no digit after it
        # leaves a span of 1 below, and one after another '-' follows no separator
        if header and signs[0] < at[1]:
            return None
        before = b[signs - 1]
        if not ((before == 32) | (before == 10)).all():
            return None
    spans = np.diff(at, prepend=-1)  # each token's length plus its separator, a '-' included
    spans[np.searchsorted(at, signs)] -= 1
    if spans.min() < 2 or spans.max() > 19:
        return None
    return len(at) // 2


def _parse_canonical(text: str) -> tuple[int, np.ndarray] | None:
    """(n, (m, 2) int64 pairs) if text is in the canonical layout, else None."""
    if not text.isascii():
        return None
    lines = start = 0
    while start < len(text):
        stop = len(text) if len(text) - start <= _CHUNK else text.rfind("\n", start, start + _CHUNK) + 1
        if stop <= start:  # no line end in a whole chunk
            return None
        found = _canonical_lines(np.frombuffer(text[start:stop].encode("ascii"), dtype=np.uint8), start == 0)
        if found is None:
            return None
        lines, start = lines + found, stop
    if not lines:
        return None
    n, m = map(int, text[: text.index("\n")].split(" "))
    if lines != m + 1:
        return None
    return n, np.fromstring(text, dtype=np.int64, sep=" ")[2:].reshape(m, 2)


def _parse_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, pairs) from any accepted layout, line by line."""
    header = None
    edges: list[tuple[int, int]] = []
    m_expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected header 'n m'")
            try:
                n, m_expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: expected integers in header") from None
            if n < 0 or m_expected < 0:
                raise InputError(f"line {lineno}: negative header values")
            _check_vertex_count(n)
            header = (n, m_expected)
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected integer endpoints") from None
        edges.append((u, v))
    if header is None:
        raise InputError("line 1: empty input, expected header 'n m'")
    if len(edges) != header[1]:
        raise InputError(f"header declares m={header[1]} but {len(edges)} edge lines found")
    return header[0], edges


def parse_edge_list(text: str) -> Graph:
    parsed = _parse_canonical(text)
    return from_edge_list(*(parsed if parsed is not None else _parse_lines(text)))


def _label_fields(n: int) -> np.ndarray:
    """The text of each label 0..n-1 twice, as (2n,) unsigned ints of 2, 4 or 8
    bytes: entry u holds "u " right-aligned and entry n + v holds "v\n"
    left-aligned, both padded with zero bytes. A line "u v\n" is then entries
    (u, n + v) with its padding in one run: v's tail and the next u's head."""
    width = len(str(max(n - 1, 0)))
    # up to 7 digits: the adjacency of 10^7 vertices would hold 10^14 bytes
    size = 2 if width < 2 else 4 if width < 4 else 8
    labels = np.arange(n)
    lengths = np.ones(n, dtype=np.intp)
    for k in range(1, width):
        lengths += labels >= 10**k
    table = np.zeros((2, n, size), dtype=np.uint8)
    for k in range(width):  # the k-th digit from the right, of each label that has one
        has = np.flatnonzero(lengths > k)
        digit = labels[has] // 10**k % 10 + 48
        table[0, has, size - 2 - k] = digit
        table[1, has, lengths[has] - 1 - k] = digit
    table[0, :, size - 1] = 32
    table[1, labels, lengths] = 10
    return table.view(f"u{size}").reshape(2 * n)


def format_edge_list(g: Graph) -> str:
    """The canonical layout: the header, then each edge u < v in ascending order."""
    head = f"{g.n} {g.m}\n"
    if not g.m:
        return head
    n, adj = g.n, g.adjacency.view(np.bool_)
    fields = np.empty((g.m, 2), dtype=np.intp)  # (u, n + v) of each edge u < v, ascending
    rows, at = max(1, (1 << 22) // n), 0  # bands of 4 MiB of the adjacency at a time
    for top in range(0, n, rows):
        flat = np.flatnonzero(np.triu(adj[top : top + rows], top + 1))  # (u - top) n + v
        band = fields[at : at + len(flat)]
        np.divmod(flat, n, out=(band[:, 0], band[:, 1]))
        band += (top, n)
        at += len(flat)
    del flat, band  # each array is dropped once the next exists: the peak is the lines, their mask and the text
    lines = _label_fields(n)[fields].view(np.uint8)
    del fields
    body = lines[lines != 0]
    del lines
    return head + str(body, "ascii")


def read_edge_list(path_: str) -> Graph:
    """The graph in a UTF-8 edge-list file; bytes that are not UTF-8 are an InputError naming their offset."""
    with open(path_, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"byte {err.start}: not UTF-8 text ({err.reason})") from None
    del data
    # the newlines text-mode reading gives: "\r\n" and a lone "\r" read as "\n"
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_edge_list(text)


def write_edge_list(g: Graph, path_: str) -> None:
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
