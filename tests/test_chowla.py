import math

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import chowla
from eigencliques.errors import InputError, NumericalError
from oracles import cosine_grid_min


def test_cyclic_group_basics():
    g = chowla.cyclic_group(12)
    assert g.order == 12 and g.identity == 0
    assert g.mul(7, 8) == 3
    assert g.inv(5) == 7
    assert g.is_abelian()


def test_cyclic_arithmetic_matches_table():
    i = np.arange(12)
    table = chowla.group_from_table((i[:, None] + i[None, :]) % 12)
    arith = chowla.cyclic_group(12)
    assert table.table is not None and arith.table is None
    for a in range(12):
        assert np.array_equal(table.mul_row(a, i), arith.mul_row(a, i))
    assert np.array_equal(table.inverse, arith.inverse)


def test_large_cyclic_group_is_arithmetic():
    g = chowla.cyclic_group(4096)
    assert g.table is None
    assert g.mul(4000, 200) == 104


def test_dihedral_group():
    g = chowla.dihedral_group(4)
    assert g.order == 8
    assert not g.is_abelian()
    # r * s != s * r  (indices: r = 1, s = 4)
    assert g.mul(1, 4) != g.mul(4, 1)


def test_symmetric_group():
    g = chowla.symmetric_group(4)
    assert g.order == 24
    assert not g.is_abelian()


def test_bad_tables_rejected():
    with pytest.raises(InputError):
        chowla.group_from_table([[0, 0], [1, 1]])  # not a Latin square
    # Latin square without identity: a quasigroup that is no group
    with pytest.raises(InputError):
        chowla.group_from_table([[1, 0], [0, 1]] if False else [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    chowla.group_from_table([[0, 1], [1, 0]])  # Z2 is fine


def test_group_json_roundtrip():
    g = chowla.dihedral_group(3)
    doc = chowla.group_to_json(g)
    assert doc["order"] == 6 and len(doc["table"]) == 6
    g2 = chowla.group_from_json(doc)
    assert np.array_equal(g.table, g2.table)


def test_symmetric_set_validation():
    grp = chowla.cyclic_group(12)
    s = chowla.SymmetricSet.of(grp, [0, 3, 6, 9])
    assert s.contains_identity
    with pytest.raises(InputError):
        chowla.SymmetricSet.of(grp, [1, 2])  # inverse of 1 is 11


def test_cayley_cycle_and_complete():
    c7 = chowla.cayley_graph(chowla.cyclic_group(7), [1, 6])
    assert c7 == ec.cycle(7)
    k6 = chowla.cayley_graph(chowla.cyclic_group(6), range(1, 6))
    assert k6 == ec.complete(6)


def test_cayley_identity_stripped():
    grp = chowla.cyclic_group(8)
    with_id = chowla.cayley_graph(grp, [0, 1, 7])
    without = chowla.cayley_graph(grp, [1, 7])
    assert with_id == without  # loopless either way


def test_cayley_closed_form_z11():
    g = chowla.cayley_graph(chowla.cyclic_group(11), [1, 10])
    lam = ec.spectrum(g).lambda_min
    assert lam == pytest.approx(2 * math.cos(10 * math.pi / 11), abs=1e-9)


def test_cayley_dft_identity_random():
    rng = np.random.default_rng(0)
    n = 37
    half = sorted(rng.choice(range(1, 19), size=5, replace=False).tolist())
    a = half + [(n - x) % n for x in half]
    g = chowla.cayley_graph(chowla.cyclic_group(n), a)
    eigs = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
    xi = np.arange(n)
    fourier = np.sort(np.cos(2 * math.pi * np.outer(xi, np.asarray(a)) / n).sum(axis=1))
    assert np.abs(eigs - fourier).max() < 1e-8


def test_cosine_polynomial_type():
    f = chowla.CosinePolynomial.of([3, 1, 2, 2])
    assert f.a_set == (1, 2, 3)
    assert f(0.0) == 3.0  # exactly |A|
    x = 1.2345
    assert f(x + 2 * math.pi) == pytest.approx(f(x), abs=1e-12)
    assert f(x) == pytest.approx(math.cos(x) + math.cos(2 * x) + math.cos(3 * x), abs=1e-12)
    xs, fs = f.minimum()
    assert fs == pytest.approx(f(xs), abs=1e-9)
    with pytest.raises(InputError):
        chowla.CosinePolynomial.of([])


def test_cosine_min_singleton():
    x, f = chowla.cosine_min([1])
    assert f == pytest.approx(-1.0, abs=1e-12)
    assert x == pytest.approx(math.pi, abs=1e-6)


def test_cosine_min_pair_exact_value():
    x, f = chowla.cosine_min([1, 2])
    assert f == pytest.approx(-1.125, abs=1e-9)
    assert math.cos(x) == pytest.approx(-0.25, abs=1e-6)
    dense = cosine_grid_min([1, 2], 2_000_000)
    assert f <= dense + 1e-9


def test_cosine_min_initial_segments_bounded():
    for k in range(1, 21):
        _, f = chowla.cosine_min(range(1, k + 1))
        oracle = cosine_grid_min(range(1, k + 1), 200_000)
        assert oracle - 1e-6 <= f <= oracle + 1e-9
        # Dirichlet-kernel scale: the minimum sits near -(4k+2)/(6 pi)
        assert f >= -(0.25 * k + 1.0)


def test_cosine_min_validation():
    with pytest.raises(InputError):
        chowla.cosine_min([])
    with pytest.raises(InputError):
        chowla.cosine_min([0, 1])
    with pytest.raises(InputError):
        chowla.cosine_min([5], resolution=10)


def test_least_prime_above():
    assert chowla.least_prime_above(4) == 5
    assert chowla.least_prime_above(13) == 17
    assert chowla.least_prime_above(800) == 809


def test_certificate_singleton():
    r = chowla.chowla_certificate([1])
    assert r.n == 5
    assert r.lambda_min == pytest.approx(2 * math.cos(4 * math.pi / 5), abs=1e-9)
    assert r.residual < 1e-10
    assert r.holds()


def test_certificate_pair():
    r = chowla.chowla_certificate([1, 2])
    assert r.grid_f == pytest.approx(-1.125, abs=1e-9)
    assert r.fourier_min >= r.grid_f - 1e-9
    assert r.holds()


def test_certificate_progression():
    r = chowla.chowla_certificate([5, 10, 15, 20])
    assert r.holds()
    # f(x) = sum cos(5jx) is a compressed 4-term sum: same minimum as {1,2,3,4}
    _, base = chowla.cosine_min([1, 2, 3, 4])
    assert r.grid_f == pytest.approx(base, abs=1e-6)


def test_certificate_json_fields():
    doc = chowla.chowla_certificate([1, 3]).to_json_dict()
    assert set(doc) >= {"A", "n", "lambda_min", "grid_min", "residual", "bound_target"}
    assert set(doc["grid_min"]) == {"x", "f"}


def test_translate_overlap_interval():
    grp = chowla.cyclic_group(23)
    g = chowla.cayley_graph(grp, [1, 2, 3, 4, 19, 20, 21, 22])
    t, overlap = chowla.translate_overlap([0, 1, 2, 3, 4], g)
    assert t == 1 and overlap == 4
    assert overlap >= 5 * 4 / 8


def test_translate_overlap_singleton():
    g = chowla.cayley_graph(chowla.cyclic_group(9), [1, 8])
    t, overlap = chowla.translate_overlap([4], g)
    assert overlap == 0


def test_translate_overlap_coset():
    grp = chowla.cyclic_group(12)
    g = chowla.cayley_graph(grp, [3, 6, 9])
    t, overlap = chowla.translate_overlap([0, 3, 6, 9], g)
    assert overlap == 4  # the subgroup is invariant under t=3


def test_translate_overlap_not_clique():
    g = chowla.cayley_graph(chowla.cyclic_group(9), [1, 8])
    with pytest.raises(InputError):
        chowla.translate_overlap([0, 3], g)


def test_m_gamma_subgroup_zero():
    grp = chowla.cyclic_group(12)
    assert chowla.m_gamma(grp, [0, 3, 6, 9]) == pytest.approx(0.0, abs=1e-9)


def test_m_gamma_complete_and_cycle():
    assert chowla.m_gamma(chowla.cyclic_group(9), range(1, 9)) == pytest.approx(1.0, abs=1e-9)
    assert chowla.m_gamma(chowla.cyclic_group(6), [1, 5]) == pytest.approx(2.0, abs=1e-9)


def test_m_gamma_nonabelian_subgroup():
    grp = chowla.dihedral_group(6)
    rotations = list(range(6))
    assert chowla.m_gamma(grp, rotations) == pytest.approx(0.0, abs=1e-9)


def test_subgroup_recover_exact():
    grp = chowla.cyclic_group(12)
    out = chowla.subgroup_recover(grp, [0, 4, 8])
    assert out["ok"] and out["sym_diff"] == 0 and out["H"] == [0, 4, 8]


def test_subgroup_recover_one_extra():
    out = chowla.subgroup_recover(chowla.cyclic_group(12), [0, 4, 8, 1])
    assert out["ok"] and out["H"] == [0, 4, 8] and out["sym_diff"] == 1


def test_subgroup_recover_failure_on_dense_random():
    rng = np.random.default_rng(6)
    grp = chowla.cyclic_group(40)
    half = rng.choice(range(1, 20), size=12, replace=False).tolist()
    a = sorted(set([0] + half + [(40 - x) % 40 for x in half]))
    out = chowla.subgroup_recover(grp, a)
    assert not out["ok"]
    assert not out["hypothesis_ok"]


def test_subgroup_recover_nonabelian():
    grp = chowla.symmetric_group(4)
    perms = sorted(__import__("itertools").permutations(range(4)))

    def parity(p):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        return inv % 2

    a4 = [i for i, p in enumerate(perms) if parity(p) == 0]
    out = chowla.subgroup_recover(grp, a4)
    assert out["ok"] and out["sym_diff"] == 0 and len(out["H"]) == 12


def test_subgroup_recover_large_perturbed():
    n = 4096
    grp = chowla.cyclic_group(n)
    evens = list(range(0, n, 2))
    a = [x for x in evens if x not in (2, n - 2)]
    out = chowla.subgroup_recover(grp, a)
    assert out["epsilon"] <= 1e-3
    assert out["hypothesis_ok"]
    assert out["ok"]
    assert out["sym_diff"] == 2
    assert out["sym_diff"] <= 6 * math.sqrt(2 * out["epsilon"]) * len(a)
