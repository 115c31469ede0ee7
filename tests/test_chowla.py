import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import eigencliques as ec
from eigencliques import chowla, spectral
from eigencliques.errors import InputError, NumericalError, SizeError
from oracles import cosine_grid_min, dihedral_group, outer_product_cosine_min, symmetric_group


def test_cyclic_group_basics():
    g = chowla.cyclic_group(12)
    assert g.order == 12 and g.identity == 0
    assert g.mul_row(7, np.array([8, 0])).tolist() == [3, 7]
    assert g.inv(5) == 7


def test_cyclic_arithmetic_matches_table():
    i = np.arange(12)
    table = chowla.FiniteGroup((i[:, None] + i[None, :]) % 12)
    arith = chowla.cyclic_group(12)
    assert table.table is not None and arith.table is None
    for a in range(12):
        assert np.array_equal(table.mul_row(a, i), arith.mul_row(a, i))
        assert table.inv(a) == arith.inv(a)
    assert arith.inverse is None
    # an array of elements gives the array of their inverses, in either form
    assert table.inv(i).tolist() == arith.inv(i).tolist() == [int(arith.inv(a)) for a in range(12)]
    # a column of left factors gives one row of products per factor
    rows = np.stack([arith.mul_row(a, i) for a in (3, 5, 11)])
    for grp in (table, arith):
        assert np.array_equal(grp.mul_row(np.array([[3], [5], [11]]), i), rows)


def test_huge_cyclic_group_allocates_no_table():
    # the arithmetic group used to build an order-sized inverse array: 7.28 TiB here
    tracemalloc.start()
    try:
        g = chowla.cyclic_group(10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.inv(1) == 10**12 - 1 and g.inv(0) == 0


def test_large_cyclic_group_is_arithmetic():
    g = chowla.cyclic_group(4096)
    assert g.table is None
    assert g.mul_row(4000, np.array([200])).tolist() == [104]


def test_dihedral_group():
    # the fixture is a checked group table (FiniteGroup validates it)
    g = dihedral_group(4)
    assert g.order == 8
    # r * s != s * r  (indices: r = 1, s = 4)
    assert g.table[1, 4] != g.table[4, 1]


def test_symmetric_group():
    g = symmetric_group(4)
    assert g.order == 24
    assert (g.table != g.table.T).any()


def test_bad_tables_rejected():
    with pytest.raises(InputError):
        chowla.FiniteGroup(np.asarray([[0, 0], [1, 1]]))  # not a Latin square
    # Latin square without identity: a quasigroup that is no group
    with pytest.raises(InputError):
        chowla.FiniteGroup(np.asarray([[0, 1, 2], [2, 0, 1], [1, 2, 0]]))
    chowla.FiniteGroup(np.asarray([[0, 1], [1, 0]]))  # Z2 is fine


@pytest.mark.parametrize(
    "table",
    [np.array([[0, 1.0], [1, 0.2]]), np.array([[0.0, 1.0], [1.0, 0.0]]), [[0, 1.5], [1.5, 0]], np.array([[0, 1], [1, np.nan]])],
)
def test_table_entries_are_read_exactly(table):
    # a cast to int64 read 0.2 as 0 and 1.5 as 1, so these were accepted as Z/2
    with pytest.raises(InputError, match="^table entries must be element indices$"):
        chowla.FiniteGroup(table)


def test_symmetric_set_validation():
    grp = chowla.cyclic_group(12)
    s = chowla.SymmetricSet.of(grp, [0, 3, 6, 9])
    assert s.contains_identity
    with pytest.raises(InputError):
        chowla.SymmetricSet.of(grp, [1, 2])  # inverse of 1 is 11
    # a hand-built set skips that check, and the graph's own symmetry check rejects it
    with pytest.raises(InputError, match="adjacency must be symmetric"):
        chowla.cayley_graph(grp, chowla.SymmetricSet(group=grp, elements=(1, 2), contains_identity=False))


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
    xs, fs = chowla.cosine_min(f.a_set)
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


def test_cosine_min_matches_outer_product_grid():
    # the FFT grid finds the former outer-product minimum; the minimiser is the
    # one in [0, pi] and the value is f evaluated there
    rng = np.random.default_rng(9)
    for _ in range(300):
        amax = int(rng.integers(1, 200))
        size = int(rng.integers(1, min(amax, 20) + 1))
        a = sorted(int(x) for x in rng.choice(np.arange(1, amax + 1), size=size, replace=False))
        x, f = chowla.cosine_min(a)
        assert abs(f - outer_product_cosine_min(a)[1]) <= 1e-9, a
        assert 0.0 <= x <= math.pi, (a, x)
        assert f == chowla.CosinePolynomial.of(a)(x), a


@pytest.mark.parametrize("k,limit_mb,limit_s", [(500, 8, None), (5000, 32, 1.0)])
def test_cosine_min_memory_is_linear_in_max_a(k, limit_mb, limit_s):
    # the former 64*max(A) x |A| grid traced 244 MiB at k = 500 and would need 12.8 GB at k = 5000
    tracemalloc.start()
    try:
        start = time.perf_counter()
        chowla.cosine_min(range(1, k + 1))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb << 20
    assert limit_s is None or elapsed < limit_s


def test_cosine_min_validation():
    with pytest.raises(InputError):
        chowla.cosine_min([])
    with pytest.raises(InputError):
        chowla.cosine_min([0, 1])


@pytest.mark.parametrize("amax", [10**12, 2**16 + 1])
def test_cosine_min_ceiling_fails_closed(amax):
    # max(A) = 10^12 used to ask numpy for a 466 TiB grid and raise MemoryError;
    # 2^16 + 1 allocated ~160 MiB
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=str(chowla.MAX_COSINE_DEGREE)):
            chowla.cosine_min([amax])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_least_prime_above():
    assert chowla.least_prime_above(4) == 5
    assert chowla.least_prime_above(13) == 17
    assert chowla.least_prime_above(800) == 809


def test_certificate_singleton():
    r = chowla.chowla_certificate([1])
    assert r.n == 5
    assert r.lambda_min == pytest.approx(2 * math.cos(4 * math.pi / 5), abs=1e-9)
    assert r.residual < 1e-10
    assert r.checks == CHECKS
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
    assert set(doc) >= {"A", "n", "lambda_min", "grid_min", "residual", "checks", "bound_target"}
    assert set(doc["grid_min"]) == {"x", "f"}
    assert doc["checks"] == list(CHECKS)


CHECKS = ("direct_sum", "mirror", "min_eigenpair")  # the same at every n
# the benchmark's seed-1 sets (bench/workloads.py, _chowla_set(1, amax)): n = 487, 1009, 2003
BENCH_SETS = [
    [11, 33, 41, 51, 74, 92, 116, 120],
    [32, 38, 123, 129, 181, 213, 218, 250],
    [19, 98, 193, 269, 406, 430, 458, 500],
]


def _criterion_09_sets():
    rng = np.random.default_rng(99)  # as test_criterion_09_chowla_identity draws them
    sets = []
    for _ in range(50):
        size = int(rng.integers(1, 31))
        sets.append(sorted(int(x) for x in rng.choice(np.arange(1, 201), size=size, replace=False)))
    return sets


def _support(a, n):
    a = np.asarray(a, dtype=np.int64)
    return np.union1d(a % n, -a % n)


@pytest.mark.parametrize(
    "a",
    [[1], [1, 2], [1, 3], [5, 10, 15, 20], [1, 2, 3, 4, 5], [2, 4, 6, 8], [1, 4, 9, 16, 25]]
    + _criterion_09_sets()
    + BENCH_SETS,
)
def test_fft_spectrum_matches_dense_eigvalsh(a):
    n = chowla.least_prime_above(4 * max(a))
    fft = np.sort(2.0 * chowla._cosine_grid(tuple(a), n))
    graph = chowla.cayley_graph(chowla.cyclic_group(n), _support(a, n).tolist())
    dense = np.linalg.eigvalsh(graph.adjacency.astype(np.float64))
    assert np.abs(fft - dense).max() <= 1e-9
    r = chowla.chowla_certificate(a)
    assert r.lambda_min == 2.0 * r.fourier_min == fft[0]
    assert r.holds()
    assert r.checks == CHECKS


@pytest.mark.parametrize("a", [[1, 2], [1, 4, 9, 16, 25], BENCH_SETS[2], [300, 5000]])
def test_spectrum_checks_fail_closed(a):
    report = chowla.chowla_certificate(a)
    n = report.n
    a_arr = np.asarray(a, dtype=np.int64)
    spectrum = 2.0 * chowla._cosine_grid(tuple(a), n)
    _, ok = chowla._check_spectrum(spectrum, a_arr)
    assert ok <= 1e-10
    # the minimum moved down, or the maximum or lambda_(n//2) moved either way, by 1e-6
    shifts = [(int(np.argmin(spectrum)), -1e-6)]
    shifts += [(i, d) for i in (int(np.argmax(spectrum)), n // 2) for d in (-1e-6, 1e-6)]
    bad_spectra = []
    for i, delta in shifts:
        bad = spectrum.copy()
        bad[i] += delta
        bad_spectra.append((bad, a_arr))
    # a wrong A: max(A) replaced by max(A) + 1, of the same size
    wrong = np.append(a_arr[:-1], max(a) + 1)
    assert max(a) + 1 not in a
    bad_spectra.append((spectrum, wrong))
    for bad, generators in bad_spectra:
        checks, residual = chowla._check_spectrum(bad, generators)
        assert checks == report.checks
        assert residual > 1e-8
        assert not dataclasses.replace(report, residual=residual).holds()


def test_raised_minimum_fails_closed_above_dense_cap():
    # Raising the minimum at xi = 1852 > n/2 by 1e-6 makes its mirror xi = 151
    # the argmin, whose eigenpair and direct sum are exact: the mirror gap sees it.
    a = BENCH_SETS[2]
    report = chowla.chowla_certificate(a)
    spectrum = 2.0 * chowla._cosine_grid(tuple(a), report.n)
    assert report.n == 2003 and int(np.argmin(spectrum)) == 1852
    bad = spectrum.copy()
    bad[1852] += 1e-6
    checks, residual = chowla._check_spectrum(bad, np.asarray(a))
    assert checks == report.checks == CHECKS
    assert residual == pytest.approx(1e-6, rel=1e-6)
    assert not dataclasses.replace(report, residual=residual).holds()


@pytest.mark.parametrize("a", [BENCH_SETS[2], [300, 5000]])
def test_raised_mirror_pair_fails_closed(a, monkeypatch):
    # Raising both mirrors of a non-minimal pair equally keeps the spectrum
    # symmetric and leaves the minimum and its eigenpair alone; only the direct
    # sum at that pair sees it. The certificate reads a spectrum with the pair
    # at n//2 raised by 1e-6.
    n = chowla.least_prime_above(4 * max(a))
    pair = [n // 2, n - n // 2]
    grid = chowla._cosine_grid
    assert int(np.argmin(grid(tuple(a), n))) not in pair

    def raised(a_set, r):
        out = grid(a_set, r)
        if r == n:
            out[pair] += 0.5e-6  # the spectrum is twice this grid
        return out

    monkeypatch.setattr(chowla, "_cosine_grid", raised)
    report = chowla.chowla_certificate(a)
    assert report.n == n
    assert report.residual > 1e-8
    assert not report.holds()


@pytest.mark.parametrize("a", [range(1, 5001), [5000]])
def test_certificate_above_dense_cap_is_linear_in_memory(a):
    # n = 20011: the dense adjacency alone would be 400 MB as uint8 and 3.2 GB as float64
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = chowla.chowla_certificate(a)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.n == 20011 and r.checks == CHECKS and r.holds()
    assert elapsed < 5.0
    assert peak < 32 << 20


def test_certificate_at_ceiling():
    # the ceiling was chosen so that A = 1..ceiling (n = 65537) certifies in ~3.5 s on one core
    start = time.perf_counter()
    r = chowla.chowla_certificate(range(1, chowla.MAX_CHOWLA_DEGREE + 1))
    assert time.perf_counter() - start < 10.0
    assert r.n == 65537 and r.checks == CHECKS and r.holds()
    with pytest.raises(SizeError, match=str(chowla.MAX_CHOWLA_DEGREE)):
        chowla.chowla_certificate([chowla.MAX_CHOWLA_DEGREE + 1])


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: chowla.chowla_certificate([1.5, 2]),
        lambda: chowla.cosine_min([2.9]),
        lambda: chowla.SymmetricSet.of(chowla.cyclic_group(12), [1.5, 11.7]),
        lambda: chowla.subgroup_recover(chowla.cyclic_group(12), [0, 6.5]),
        lambda: chowla.translate_overlap([0.5, 1.2], chowla.cayley_graph(chowla.cyclic_group(12), [1, 11])),
        lambda: chowla.translate_overlap([0], ec.from_edge_list(0, [])),
    ],
    ids=["certificate", "cosine_min", "symmetric_set", "subgroup_recover", "translate_overlap", "translate_overlap-n0"],
)
def test_element_lists_fail_closed(call):
    # int() used to truncate: 1.5 was read as 1, so A = (1, 2) was certified
    # and H = [0, 6] recovered from [0, 6.5]; n = 0 raised ZeroDivisionError
    with pytest.raises(InputError):
        call()


def test_m_gamma_subgroup_zero():
    grp = chowla.cyclic_group(12)
    assert chowla.m_gamma(grp, [0, 3, 6, 9]) == pytest.approx(0.0, abs=1e-9)


def test_m_gamma_complete_and_cycle():
    assert chowla.m_gamma(chowla.cyclic_group(9), range(1, 9)) == pytest.approx(1.0, abs=1e-9)
    assert chowla.m_gamma(chowla.cyclic_group(6), [1, 5]) == pytest.approx(2.0, abs=1e-9)


def test_m_gamma_nonabelian_subgroup():
    grp = dihedral_group(6)
    rotations = list(range(6))
    assert chowla.m_gamma(grp, rotations) == pytest.approx(0.0, abs=1e-9)


def test_subgroup_recover_exact():
    grp = chowla.cyclic_group(12)
    out = chowla.subgroup_recover(grp, [0, 4, 8])
    assert out["ok"] and out["sym_diff"] == 0 and out["H"] == [0, 4, 8]


def test_subgroup_recover_one_extra():
    out = chowla.subgroup_recover(chowla.cyclic_group(12), [0, 4, 8, 1])
    assert out["ok"] and out["H"] == [0, 4, 8] and out["sym_diff"] == 1


def test_subgroup_recover_huge_order():
    # membership used three order-sized boolean arrays: 931 GiB here
    grp = chowla.cyclic_group(10**12)
    tracemalloc.start()
    try:
        out = chowla.subgroup_recover(grp, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert out["ok"] and out["H"] == [0]


def test_subgroup_recover_failure_on_dense_random():
    rng = np.random.default_rng(6)
    grp = chowla.cyclic_group(40)
    half = rng.choice(range(1, 20), size=12, replace=False).tolist()
    a = sorted(set([0] + half + [(40 - x) % 40 for x in half]))
    out = chowla.subgroup_recover(grp, a)
    assert not out["ok"]
    assert not out["hypothesis_ok"]


def test_subgroup_recover_nonabelian():
    grp = symmetric_group(4)
    perms = sorted(__import__("itertools").permutations(range(4)))

    def parity(p):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        return inv % 2

    a4 = [i for i, p in enumerate(perms) if parity(p) == 0]
    out = chowla.subgroup_recover(grp, a4)
    assert out["ok"] and out["sym_diff"] == 0 and len(out["H"]) == 12


def test_subgroup_recover_block_size_invariant(monkeypatch):
    # blocks of at most 7 products put one or two rows in each membership
    # call; every result must equal the one from the default blocks
    rng = np.random.default_rng(6)
    half = rng.choice(range(1, 20), size=12, replace=False).tolist()
    perms = sorted(itertools.permutations(range(4)))
    a4 = [i for i, p in enumerate(perms) if sum(p[x] > p[y] for x in range(4) for y in range(x + 1, 4)) % 2 == 0]
    cases = [
        (chowla.cyclic_group(12), [0, 4, 8]),
        (chowla.cyclic_group(12), [0, 4, 8, 1]),
        (chowla.cyclic_group(60), [x for x in range(0, 60, 3) if x != 27] + [31]),
        (chowla.cyclic_group(40), sorted(set([0] + half + [(40 - x) % 40 for x in half]))),
        (dihedral_group(6), list(range(6))),
        (symmetric_group(4), a4),
        (symmetric_group(4), a4[:-1]),
    ]
    default = [chowla.subgroup_recover(grp, a) for grp, a in cases]
    assert [out["ok"] for out in default] == [True, True, True, False, True, True, True]
    monkeypatch.setattr(chowla, "_ISIN_BLOCK", 7)
    assert [chowla.subgroup_recover(grp, a) for grp, a in cases] == default


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


@pytest.mark.parametrize("n", range(3, 13))
def test_m_gamma_cycle_matches_known_spectrum(n):
    # C_n = Cay(Z/nZ, {1, -1}) has lambda_min = 2 cos(2 pi floor(n/2) / n); with the
    # identity in A the value shifts by +1 (it stays -lambda_min - 1 >= 0 here)
    grp = chowla.cyclic_group(n)
    lam = 2.0 * math.cos(2.0 * math.pi * (n // 2) / n)
    assert chowla.m_gamma(grp, [1, n - 1]) == pytest.approx(-lam, abs=1e-9)
    assert chowla.m_gamma(grp, [0, 1, n - 1]) == pytest.approx(max(0.0, -lam - 1.0), abs=1e-9)


def test_m_gamma_subgroups_still_zero_and_certified(monkeypatch):
    # a subgroup's Cayley graph is a union of cliques (lambda_min = -1), so with
    # the identity shift m_gamma is 0. Z/240 (eight disjoint 30-cliques) takes
    # lambda_min's Krylov path: a wrong Ritz vector is refused there and the
    # dense path answers; a wrong eigvalsh is refused on either path, not reported
    z24 = (chowla.cyclic_group(24), [0, 6, 12, 18])
    z240 = (chowla.cyclic_group(240), list(range(0, 240, 8)))
    for grp, sub in (z24, (chowla.cyclic_group(24), list(range(0, 24, 2))), (dihedral_group(5), list(range(5))), z240):
        assert chowla.m_gamma(grp, sub) == pytest.approx(0.0, abs=1e-9)
    # the all-ones vector of the 29-regular graph: its Rayleigh quotient is lambda_1 = 29
    monkeypatch.setattr(spectral, "_lanczos_ritz_vector", lambda a, cap: np.ones(len(a), dtype=np.float32))
    assert chowla.m_gamma(*z240) == pytest.approx(0.0, abs=1e-9)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 1e-3)
    for grp, sub in (z24, z240):
        with pytest.raises(NumericalError, match="bracket"):
            chowla.m_gamma(grp, sub)
