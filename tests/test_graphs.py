import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import cuts, graphs, structure
from eigencliques.errors import InputError, ToolkitError
from eigencliques.graphs import format_edge_list, parse_edge_list
from oracles import loop_edge_adjacency, percent_format_edge_list, regex_parse_canonical


def test_from_edge_list_triangle():
    g = ec.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert g == ec.complete(3)


def test_from_edge_list_empty_and_duplicates():
    assert ec.from_edge_list(2, []).m == 0
    g = ec.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_from_edge_list_cycle_degrees():
    g = ec.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert list(g.degrees) == [2, 2, 2, 2]
    assert g.average_degree == 2.0 and g.max_degree == 2
    assert g == ec.cycle(4)


def test_from_edge_list_errors():
    with pytest.raises(InputError):
        ec.from_edge_list(3, [(0, 3)])
    with pytest.raises(InputError):
        ec.from_edge_list(3, [(1, 1)])


def test_generate_families():
    cu = ec.generate("CliqueUnion", sizes=[3, 2])
    assert cu.n == 5 and cu.m == 4
    t = ec.generate("Turan", r=2, n=6)
    assert t.is_regular() and t.degrees[0] == 3 and t.m == 9
    hk = ec.generate("Hk", k=2)
    assert hk.n == 5 and hk.m == 8
    assert ec.generate("Complete", n=4).m == 6
    assert ec.generate("Cycle", n=5).m == 5
    assert ec.generate("Path", n=5).m == 4
    with pytest.raises(InputError):
        ec.generate("Hk", k=0)
    with pytest.raises(InputError):
        ec.generate("Nope", n=3)


def test_turan_strict_mode():
    with pytest.raises(InputError):
        ec.turan(4, 10, strict=True)
    g = ec.turan(4, 10)  # parts 3,3,2,2
    assert sorted(g.degrees.tolist()) == [7] * 6 + [8] * 4


def test_hk_structure():
    for k in (1, 2, 5):
        g = ec.h_k(k)
        assert g.n == 2 * k + 1
        assert g.is_clique(range(2 * k))
        assert int(g.degrees[2 * k]) == k


@pytest.mark.parametrize("vertices", [[0.2, 1.9], [0.5, 1.5], [0, 1.0], np.array([0.0, 1.0])])
def test_is_clique_rejects_non_integer_vertices(vertices):
    # 0.2 and 1.9 (or 0.5 and 1.5) were truncated to the edge (0, 1) and read True
    g = ec.from_edge_list(3, [(0, 1)])
    with pytest.raises(InputError, match="vertices must be integers"):
        g.is_clique(vertices)
    assert g.is_clique([0, 1]) and g.is_clique(np.array([1, 0])) and not g.is_clique([0, 1, 2])


@pytest.mark.parametrize(
    "read",
    [
        # read as X = {0, 1, 2} and classified "Sparse"
        lambda g: structure.pair_classify(g, [0.5, 1.5, 2.9], [3, 4, 5], lambda_n=0.1),
        # read as {0, 1}: Graph(n=2, m=1)
        lambda g: ec.induced_subgraph(g, [0.5, 1.9]),
        # run on X = {0, 1, 2}
        lambda g: cuts.unbalanced_cut(g, [0.5, 1.5, 2.5]),
        lambda g: g.is_clique([0.5, 1.5, 2.5]),
    ],
    ids=["pair_classify", "induced_subgraph", "unbalanced_cut", "is_clique"],
)
def test_vertex_lists_reject_non_integers(read):
    with pytest.raises(InputError, match="vertices must be integers"):
        read(ec.clique_union([3, 3]))


def test_gnp_deterministic_and_order_independent():
    a = ec.gnp(40, 0.3, seed=7)
    b = ec.gnp(40, 0.3, seed=7)
    assert np.array_equal(a.adjacency, b.adjacency)
    c = ec.gnp(40, 0.3, seed=8)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_gnp_extremes():
    assert ec.gnp(10, 0.0, 1).m == 0
    assert ec.gnp(10, 1.0, 1).m == 45


def test_complement_k4_and_involution():
    assert ec.complement(ec.complete(4)).m == 0
    g = ec.gnp(15, 0.4, 2)
    assert ec.complement(ec.complement(g)) == g


def test_complement_c5_self_complementary():
    # pentagram relabelled by the doubling map is again a 5-cycle
    comp = ec.complement(ec.cycle(5))
    perm = [0, 2, 4, 1, 3]
    relabel = comp.adjacency[np.ix_(perm, perm)]
    assert np.array_equal(relabel, ec.cycle(5).adjacency)


def test_induced_subgraph():
    assert ec.induced_subgraph(ec.complete(5), [0, 1, 2]) == ec.complete(3)
    assert ec.induced_subgraph(ec.cycle(4), [0, 1]).m == 1
    with pytest.raises(InputError):
        ec.induced_subgraph(ec.cycle(4), [0, 9])


def test_induced_preserves_order():
    g = ec.path(5)
    sub = ec.induced_subgraph(g, [4, 2, 3])  # sorted to 2,3,4: path of length 2
    assert sub.m == 2 and list(sub.degrees) == [1, 2, 1]


def test_graph_invariants_on_generators():
    for g in [ec.complete(6), ec.cycle(7), ec.turan(3, 10), ec.h_k(3), ec.gnp(25, 0.5, 0), ec.petersen()]:
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not np.diagonal(g.adjacency).any()
        assert set(np.unique(g.adjacency)) <= {0, 1}
        assert g.m * 2 == int(g.adjacency.sum())


def test_edge_list_roundtrip_bit_exact(tmp_path):
    g = ec.gnp(30, 0.4, 5)
    p = tmp_path / "g.txt"
    ec.write_edge_list(g, str(p))
    text = p.read_text()
    assert text == format_edge_list(g)
    again = ec.read_edge_list(str(p))
    assert again == g
    ec.write_edge_list(again, str(tmp_path / "h.txt"))
    assert (tmp_path / "h.txt").read_text() == text


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# a comment\n3 1\n# another\n0 2\n")
    assert g.n == 3 and g.m == 1
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list("")
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("3 1\nnot an edge\n")
    with pytest.raises(InputError):
        parse_edge_list("3 2\n0 1\n")  # missing edge line


ERROR_TEXTS = [
    ("", "line 1: empty input, expected header 'n m'"),
    ("# only a comment\n\n", "line 1: empty input, expected header 'n m'"),
    ("# c\n\n3\n", "line 3: expected header 'n m'"),
    ("3 x\n", "line 1: expected integers in header"),
    ("3 -1\n", "line 1: negative header values"),
    ("-3 1\n", "line 1: negative header values"),
    ("3 1\n0\n", "line 2: expected edge 'u v'"),
    ("3 1\n0 1 2\n", "line 2: expected edge 'u v'"),
    ("3 1\n0 x\n", "line 2: expected integer endpoints"),
    ("3 2\n0 1\n", "header declares m=2 but 1 edge lines found"),
    ("3 0\n0 1\n", "header declares m=0 but 1 edge lines found"),
    ("3 1\n0 3\n", "edge (0,3) out of range for n=3"),
    ("3 1\n-1 0\n", "edge (-1,0) out of range for n=3"),
    ("3 1\n1 1\n", "self-loop at vertex 1"),
    # which error wins: a malformed line beats an earlier out-of-range edge,
    ("3 2\n0 9\n0 x\n", "line 3: expected integer endpoints"),
    # the m-count check comes before the range checks,
    ("3 2\n0 9\n", "header declares m=2 but 1 edge lines found"),
    # and on one edge the range error beats the self-loop error
    ("3 1\n5 5\n", "edge (5,5) out of range for n=3"),
]


@pytest.mark.parametrize("text,message", ERROR_TEXTS)
def test_edge_list_error_texts(text, message):
    with pytest.raises(InputError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (-1, [], "vertex count must be nonnegative"),
        (3, [(0, 3)], "edge (0,3) out of range for n=3"),
        (3, [(2, 2)], "self-loop at vertex 2"),
        (3, [(5, 5)], "edge (5,5) out of range for n=3"),
        # beyond int64: still a range error, not an OverflowError
        (3, [(0, 10**30)], f"edge (0,{10**30}) out of range for n=3"),
        (3, [(-(10**30), 1)], f"edge ({-(10**30)},1) out of range for n=3"),
        # the first offending pair in input order wins
        (3, [(1, 1), (0, 10**30)], "self-loop at vertex 1"),
        (3, [(0, 1), (0, 7), (2, 2)], "edge (0,7) out of range for n=3"),
        (3, [(np.int32(2), np.int64(2))], "self-loop at vertex 2"),
        (3, [(0, 1, 2)], "edges must be (u, v) pairs of integers"),
        (3, [(0, 1), (2,)], "edges must be (u, v) pairs of integers"),
        (3, [(0, float("nan"))], "edges must be (u, v) pairs of integers"),
    ],
)
def test_from_edge_list_error_texts(n, edges, message):
    with pytest.raises(InputError) as err:
        ec.from_edge_list(n, edges)
    assert str(err.value) == message


def test_from_edge_list_takes_numpy_pairs_and_generators():
    triangle = ec.complete(3)
    assert ec.from_edge_list(3, [(np.int64(0), np.int32(1)), (np.uint8(1), 2), (0, np.int16(2))]) == triangle
    assert ec.from_edge_list(3, np.array([[0, 1], [1, 2], [2, 0]], dtype=np.uint16)) == triangle
    assert ec.from_edge_list(3, ((i, (i + 1) % 3) for i in range(3))) == triangle
    assert ec.from_edge_list(0, np.zeros((0, 2), dtype=np.int64)).n == 0


# Layouts for the differential test, each with whether it is canonical (read in
# one numpy pass) or goes through the line loop.
LAYOUTS = [
    ("3 1\n0 1\n", True),
    ("3 3\n0 1\n1 0\n0 1\n", True),  # duplicates collapse
    ("3 0\n", True),
    ("0 0\n", True),
    ("03 1\n00 002\n", True),  # leading zeros
    ("3 1\n-0 1\n", True),
    ("3 2\n1 1\n0 5\n", True),  # self-loop before a later range error
    ("3 2\n0 5\n1 1\n", True),
    ("3 1\n0 999999999999999999\n", True),  # 18 digits
    ("100000000000000000 0\n", True),  # over the vertex ceiling
    ("3 1\n0 1234567890123456789\n", False),  # 19 digits
    ("3 1\n0 99999999999999999999\n", False),  # beyond int64
    ("3 1\n-99999999999999999999 1\n", False),
    ("1000000000000000000 0\n", False),
    ("# c\n3 1\n0 1\n", False),
    ("3 1\n# mid\n0 1\n", False),
    ("3 1\n0 1\n# end\n", False),
    ("\n3 1\n0 1\n", False),
    ("3 1\n\n0 1\n", False),
    ("3 1\n0 1\n\n", False),
    ("3\t1\n0\t1\n", False),
    ("3 1\r\n0 1\r\n", False),
    ("3 1\n0 1", False),  # no final newline
    ("3 0", False),
    ("3 1\n- 1\n", False),
    ("3 1\n+0 1\n", False),
    ("3 1\n0 1_0\n", False),
    ("3 1\n0 \u0661\n", False),  # Arabic-Indic digit one
    ("\uff13 1\n0 1\n", False),  # fullwidth three
    (" 3 1\n0 1\n", False),
    ("3 1 \n0 1\n", False),
    ("3 1\n0 1 \n", False),
    ("3 1\n0  1\n", False),
    ("3  1\n0 1\n", False),
    ("3 1\u20280 1\n", False),  # a line separator splitlines() honours
    ("3 1\n0 1\n\x0c", False),
    ("3 1\n0\n1\n", False),
    ("3 2\n0 1\n1 2", False),
    ("3 1\n0 1\n5", False),  # a token after the last line end
    ("3 1\n0 1\n-", False),
    ("3 1\n 1\n", False),  # an empty token
    ("3 1\n0 \n", False),
    ("3 1\n0 -\n", False),
    ("3 1\n0 1-\n", False),
    ("3 1\n0-1 2\n", False),
    ("3 1\n0 --1\n", False),
    ("3 1\n0 -1-\n", False),
] + [(text, text in ("3 1\n0 3\n", "3 1\n-1 0\n", "3 1\n1 1\n", "3 1\n5 5\n")) for text, _ in ERROR_TEXTS]


def _outcome(parse, text):
    try:
        return "graph", parse(text).adjacency.tobytes()
    except ToolkitError as err:
        return type(err).__name__, str(err)


def _loop_reference(text):
    return ec.Graph(loop_edge_adjacency(*graphs._parse_lines(text)))


def _perturbations(text: str, seed: int) -> list[str]:
    """One changed character, a swapped space and newline, a deleted and an added line."""
    rng = random.Random(seed)
    i = rng.randrange(len(text))
    changed = text[:i] + rng.choice("0123456789 -\n\t\r#x+") + text[i + 1 :]
    spaces = [k for k, c in enumerate(text) if c == " "]
    newlines = [k for k, c in enumerate(text) if c == "\n"]
    a, b = sorted((rng.choice(spaces), rng.choice(newlines)))
    swapped = text[:a] + text[b] + text[a + 1 : b] + text[a] + text[b + 1 :]
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    deleted = "".join(lines[:k] + lines[k + 1 :])
    extra = f"{rng.randint(-2, 12)} {rng.randint(-2, 12)}\n"
    added = "".join(lines[:k] + [extra] + lines[k:])
    return [changed, swapped, deleted, added]


def _same_canonical_parse(text) -> bool:
    """Whether text is canonical, after checking the array pass against the regex reference."""
    parsed, reference = graphs._parse_canonical(text), regex_parse_canonical(text)
    assert (parsed is None) == (reference is None), repr(text)
    if parsed is not None:
        assert parsed[0] == reference[0] and np.array_equal(parsed[1], reference[1]), repr(text)
    return parsed is not None


@pytest.mark.parametrize("text,canonical", LAYOUTS)
def test_edge_list_layouts_match_line_loop(text, canonical):
    assert _same_canonical_parse(text) == canonical
    assert _outcome(parse_edge_list, text) == _outcome(_loop_reference, text)


# Tokens written over a header or an edge token: -0, leading zeros, and 18 and
# 19 digits with and without a sign
TOKENS = ["-0", "00", "007", "-007", "9" * 18, "-" + "9" * 18, "0" * 17 + "1", "1" * 19, "-" + "1" * 19, "0" * 19]
TOKENS += ["--1", "-"]


def _token_variants(text: str, seed: int) -> list[str]:
    """The text with one header token, then one edge token, replaced by a TOKENS entry."""
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    out = []
    for k in (0, rng.randrange(1, len(lines))) if len(lines) > 1 else (0,):
        tokens = lines[k].split(" ")
        side = rng.randrange(2)
        tokens[side] = rng.choice(TOKENS) + ("\n" if side else "")
        out.append("".join(lines[:k] + [" ".join(tokens)] + lines[k + 1 :]))
    return out


@pytest.fixture(scope="module")
def fuzz_texts() -> list[str]:
    graph_texts = [(format_edge_list(ec.gnp(10, 0.4, seed % 4)), seed) for seed in range(40)]
    # multi-digit labels: up to 3 digits, then 4
    graph_texts += [(format_edge_list(ec.gnp(120, 0.05, seed)), seed) for seed in range(10)]
    graph_texts += [(format_edge_list(ec.gnp(1100, 0.002, seed)), seed) for seed in range(5)]
    return [t for text, seed in graph_texts for t in _perturbations(text, seed) + _token_variants(text, seed)]


def test_edge_list_perturbations_match_line_loop(fuzz_texts):
    canonical = 0
    for text in fuzz_texts:
        canonical += _same_canonical_parse(text)
        assert _outcome(parse_edge_list, text) == _outcome(_loop_reference, text), repr(text)
    assert 0 < canonical < len(fuzz_texts)  # both paths are exercised


# 40 characters is the longest canonical line, so the smallest chunk that holds
# one; 97 cuts the texts at varying places within a line
@pytest.mark.parametrize("chunk", [40, 97])
def test_edge_list_chunks_match_regex_reference(monkeypatch, fuzz_texts, chunk):
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    assert sum(map(_same_canonical_parse, fuzz_texts)) > 0
    assert graphs._parse_canonical("3 1\n0 1" + " " * 40 + "\n") is None  # no line end within a chunk


def test_formatted_edge_lists_skip_the_line_loop(monkeypatch):
    def refuse(text):
        raise AssertionError("line loop used for a formatted edge list")

    graph_list = [ec.gnp(60, 0.5, 3), ec.complete(1), ec.from_edge_list(4, []), ec.Graph(np.zeros((0, 0)))]
    texts = [format_edge_list(g) for g in graph_list]
    monkeypatch.setattr(graphs, "_parse_lines", refuse)
    for g, text in zip(graph_list, texts):
        assert parse_edge_list(text) == g


def test_format_edge_list_empty_graphs():
    # byte-identical to the per-edge f-string format for m = 0 and n = 0
    assert format_edge_list(ec.from_edge_list(4, [])) == "4 0\n"
    assert format_edge_list(ec.Graph(np.zeros((0, 0)))) == "0 0\n"
    assert format_edge_list(ec.path(3)) == "3 2\n0 1\n1 2\n"


def _band_graph(n: int, distances) -> SimpleNamespace:
    """u ~ v iff |u - v| is in distances, as the n, m and adjacency that
    format_edge_list reads. The adjacency is a read-only Toeplitz view of one
    2n - 1 byte buffer: a Graph holds n^2 bytes and its checks take 3 n^2
    more (0.8 GB at n = 16384)."""
    buf = np.zeros(2 * n - 1, dtype=np.uint8)
    d = np.asarray(distances, dtype=np.intp)
    buf[n - 1 + d] = 1
    buf[n - 1 - d] = 1
    adj = np.lib.stride_tricks.as_strided(buf[n - 1 :], shape=(n, n), strides=(-1, 1), writeable=False)
    return SimpleNamespace(n=n, m=int((n - d).sum()), adjacency=adj)


# every digit-width boundary of a label, up to the vertex ceiling
@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, 16384])
def test_format_edge_list_matches_percent_format(n):
    if n < 9999:
        graph_list = [ec.Graph(np.zeros((n, n), dtype=np.uint8))]
        if n:
            graph_list += [ec.path(n), ec.gnp(n, min(0.5, 20 / n), n)]
        if 0 < n <= 101:
            graph_list.append(ec.complete(n))
    else:
        far = np.random.default_rng(n).choice(np.arange(2, n), size=3, replace=False)
        graph_list = [_band_graph(n, []), _band_graph(n, [1]), _band_graph(n, [1, *far, n - 1])]
    for g in graph_list:
        assert format_edge_list(g) == percent_format_edge_list(g)


def test_format_edge_list_memory():
    # G(2000, 1/2), 1,000,080 edges: the %-format's tuple of 2m ints peaked at
    # 98.4 MiB; the array pass holds (u, n + v) index pairs, 16 bytes of padded
    # text per edge, its mask and the 8.9 MB of text (39 MiB)
    g = ec.gnp(2000, 0.5, 0)
    tracemalloc.start()
    try:
        text = format_edge_list(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 8891126
    assert peak < 48 * 2**20


def test_canonical_read_memory():
    # G(500, 1/2) as the dense_random benchmark writes it: 62k edges, ~0.5 MB of text.
    # The line loop peaked at about 9 MiB (a tuple and two ints per edge).
    g = ec.gnp(500, 0.5, 1)
    text = format_edge_list(g)
    tracemalloc.start()
    try:
        again = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == g and g.m > 60000
    assert peak < 4 * 2**20


def test_canonical_read_memory_at_n2000():
    # G(2000, 1/2), 8.9 MB of text: the (m, 2) int64 pairs and the adjacency's
    # copies make the 24.9 MiB that the regex check peaked at; the byte checks
    # run in chunks, so their temporaries add nothing to that
    g = ec.gnp(2000, 0.5, 0)
    text = format_edge_list(g)
    tracemalloc.start()
    try:
        again = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == g
    assert peak < 27 * 2**20


def test_read_edge_list_refuses_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"3 1\n0 1\n# caf\xe9\n")
    with pytest.raises(InputError) as err:
        ec.read_edge_list(str(p))
    assert str(err.value) == "byte 13: not UTF-8 text (invalid continuation byte)"


@pytest.mark.parametrize(
    "raw,canonical",
    [
        (b"3 1\r\n0 1\r\n", True),
        (b"3 1\r0 1\r", True),
        (b"3 2\r\n0 1\r1 2\n", True),
        (b"3 1\r\n\r\n0 1", False),
        (b"3 1\r\n0 x\r\n", False),
    ],
)
def test_read_edge_list_reads_newlines_as_text_mode(tmp_path, monkeypatch, raw, canonical):
    p = tmp_path / "g.txt"
    p.write_bytes(raw)
    with open(p, encoding="utf-8") as fh:  # universal newlines: "\r\n" and "\r" read as "\n"
        text = fh.read()
    expected = _outcome(parse_edge_list, text)
    if canonical:  # as text mode gave it, the text is read in the numpy pass
        monkeypatch.setattr(graphs, "_parse_lines", None)
    assert _outcome(lambda _: ec.read_edge_list(str(p)), None) == expected


def test_petersen_shape():
    g = ec.petersen()
    assert g.n == 10 and g.m == 15 and g.is_regular()
