import numpy as np
import pytest

import eigencliques as ec
from eigencliques.errors import InputError
from eigencliques.graphs import format_edge_list, parse_edge_list


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


def test_stats():
    st = ec.cycle(6).stats()
    assert st.average_degree == 2.0
    assert st.max_degree == 2
    assert st.complement_max_degree == 3
    assert st.delta_star == 2


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


@pytest.mark.parametrize(
    "text,message",
    [
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
    ],
)
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
    ],
)
def test_from_edge_list_error_texts(n, edges, message):
    with pytest.raises(InputError) as err:
        ec.from_edge_list(n, edges)
    assert str(err.value) == message


def test_petersen_shape():
    g = ec.petersen()
    assert g.n == 10 and g.m == 15 and g.is_regular()
