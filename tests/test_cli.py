import argparse
import json
import tracemalloc

import numpy as np
import pytest

import eigencliques as ec
from conftest import flipped_union, planted_noisy_union
from eigencliques import cli
from eigencliques.chowla import MAX_CHOWLA_DEGREE
from eigencliques.cli import main
from eigencliques.graphs import MAX_VERTICES
from eigencliques.serialize import dumps
from oracles import recursive_dumps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    ec.write_edge_list(g, str(p))
    return str(p)


def test_spectrum_k5(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.txt", ec.complete(5))
    code, out, _ = run(capsys, "spectrum", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_min"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["main_inequality"]["verdict"] == "holds"
    assert doc["version"] == ec.__version__
    assert doc["config"]["command"] == "spectrum"


def test_spectrum_gnp_holds(tmp_path, capsys):
    path = write_graph(tmp_path, "g.txt", ec.gnp(100, 0.5, 9))
    code, out, _ = run(capsys, "spectrum", "--input", path)
    assert code == 0
    assert json.loads(out)["main_inequality"]["verdict"] == "holds"


def test_spectrum_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, _, err = run(capsys, "spectrum", "--input", str(p))
    assert code == 1
    assert "line 1" in err


def test_non_utf8_input_fails_closed(tmp_path, capsys):
    # reading in text mode raised UnicodeDecodeError, a ValueError that main let through as a traceback
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xff3 1\n0 1\n")
    code, out, err = run(capsys, "maxcut", "--input", str(p), "--output", str(tmp_path / "o.json"))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: byte 0: not UTF-8 text (invalid start byte)"]


def test_reports_match_recursive_dumps(tmp_path, monkeypatch):
    # every command's report on the benchmark's two graph shapes (bisect is exact
    # only on small graphs, so it runs on G(20, 1/2)), in both output formats
    docs = []

    def recording(obj, indent=0):
        docs.append(obj)
        return dumps(obj, indent)

    monkeypatch.setattr(cli, "dumps", recording)
    runs = [("chowla", "1,2,5"), ("bisect", write_graph(tmp_path, "small.txt", ec.gnp(20, 0.5, 1)))]
    for name, g in (("dense.txt", ec.gnp(500, 0.5, 1)), ("planted.txt", planted_noisy_union(40, 25, 1))):
        path = write_graph(tmp_path, name, g)
        runs += [(command, path) for command in ("spectrum", "clique", "decompose", "maxcut")]
    for command, arg in runs:
        for fmt in ("json", "text"):
            argv = [command, arg] if command == "chowla" else [command, "--input", arg]
            assert main([*argv, "--format", fmt, "--output", str(tmp_path / "out")]) in (0, 2)
    assert len(docs) > 2 * len(runs)
    for doc in docs:
        for indent in (0, 2):
            assert dumps(doc, indent) == recursive_dumps(doc, indent)


def test_reports_byte_identical(tmp_path):
    path = write_graph(tmp_path, "g.txt", ec.gnp(30, 0.4, 2))
    out = tmp_path / "a.json"
    assert main(["spectrum", "--input", path, "--output", str(out)]) == 0
    first = out.read_bytes()
    assert main(["spectrum", "--input", path, "--output", str(out)]) == 0
    assert out.read_bytes() == first


# n x n eigensolver calls per command: spectrum takes one verified eigh and the
# complement's eigenvalues from one trace-checked eigvalsh; clique and maxcut
# read only lambda_n, from one lambda_min, which at n = 240 is served by
# Lanczos and one Cholesky, with no dense eigensolver
_SOLVER_CALLS = {
    "spectrum": {"spectrum": 1, "eigh": 1, "lambda_min": 0, "eigvalsh": 1},
    "clique": {"spectrum": 0, "eigh": 0, "lambda_min": 1, "eigvalsh": 0},
    "maxcut": {"spectrum": 0, "eigh": 0, "lambda_min": 1, "eigvalsh": 0},
}


@pytest.mark.parametrize("command, results", [("spectrum", 2), ("clique", 1), ("maxcut", 1)])
def test_one_spectrum_per_eigh(tmp_path, monkeypatch, command, results):
    # each command computes what it reads once and passes it on; nothing is
    # cached, so every spectrum call pays one eigh. results counts what the
    # command computes: spectra, lambda_n values and eigenvalue lists. The
    # Lanczos step's small tridiagonal solves are not counted.
    from eigencliques import cuts, densify, spectral, structure

    g = ec.gnp(240, 0.5, 1)
    counts = dict.fromkeys(_SOLVER_CALLS[command], 0)

    def counted(name, fn, n=None):
        def wrapper(*args, **kwargs):
            if n is None or len(args[0]) == n:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("spectrum", "lambda_min"):
        wrapped = counted(name, getattr(spectral, name))
        for mod in (spectral, densify, cuts, structure):
            if hasattr(mod, name):  # densify imports lambda_min only
                monkeypatch.setattr(mod, name, wrapped)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name), g.n))
    path = write_graph(tmp_path, "g.txt", g)
    assert main([command, "--input", path, "--output", str(tmp_path / "out.json")]) == 0
    assert counts == _SOLVER_CALLS[command]
    assert counts["spectrum"] + counts["lambda_min"] + counts["eigvalsh"] == results


_ONE_GRAPH_INPUTS = {
    "union": lambda: ec.clique_union([40] * 10),
    "dense": lambda: ec.gnp(240, 0.5, 1),
    "sparse": lambda: ec.gnp(240, 0.05, 1),
    "small": lambda: ec.gnp(16, 0.5, 1),
}


@pytest.mark.parametrize(
    "command, graph",
    [(c, i) for c in ("spectrum", "clique", "decompose", "maxcut") for i in ("union", "dense", "sparse")] + [("bisect", "small")],
)
def test_one_graph_per_command(tmp_path, monkeypatch, command, graph):
    # a command builds the Graph it reads and no other: the clique search, the
    # peels, phase 3's balancing and the complement's spectrum all read index
    # sets or the adjacency of that one graph
    path = write_graph(tmp_path, "g.txt", _ONE_GRAPH_INPUTS[graph]())
    init, calls = ec.Graph.__init__, []

    def counted(self, adjacency):
        calls.append(np.shape(adjacency))
        init(self, adjacency)

    monkeypatch.setattr(ec.Graph, "__init__", counted)
    assert main([command, "--input", path, "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1, calls


def test_clique_planted(tmp_path, capsys):
    path = write_graph(tmp_path, "cu.txt", ec.clique_union([16, 16, 16]))
    code, out, _ = run(capsys, "clique", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 16 and doc["verified"]
    assert doc["phases"][0]["phase"] in (0, 1)
    # mode is the one key left: it changes the stated target, not the constants
    code, out, _ = run(capsys, "clique", "--input", path, "--params", "mode=surplus")
    surplus = json.loads(out)
    assert code == 0 and surplus["target"]["mode"] == "surplus"
    assert surplus["target"]["params"] == doc["target"]["params"]


def test_clique_edgeless(tmp_path, capsys):
    path = write_graph(tmp_path, "e.txt", ec.from_edge_list(10, []))
    code, out, _ = run(capsys, "clique", "--input", path)
    assert code == 0
    assert json.loads(out)["clique"] == [0]


def test_chowla_singleton(capsys):
    code, out, _ = run(capsys, "chowla", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_min"] == pytest.approx(-1.618, abs=1e-3)


def test_chowla_pair_value(capsys):
    code, out, _ = run(capsys, "chowla", "1,2")
    assert code == 0
    assert json.loads(out)["grid_min"]["f"] == pytest.approx(-1.125, abs=1e-9)


def test_chowla_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "chowla", "0,1")
    assert code == 1
    assert "positive" in err


def test_exit_code_two_on_failed_verification(capsys):
    # tol 0 makes the (tiny) residual a verdict failure: computation fine, check red
    code, out, _ = run(capsys, "chowla", "1,2", "--tol", "0")
    assert code == 2
    assert json.loads(out)["residual"] > 0


def test_maxcut(tmp_path, capsys):
    path = write_graph(tmp_path, "c5.txt", ec.cycle(5))
    code, out, _ = run(capsys, "maxcut", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 4 and doc["surplus"] == pytest.approx(1.5)


def test_decompose(tmp_path, capsys):
    path = write_graph(tmp_path, "cu.txt", ec.clique_union([8, 5]))
    code, out, _ = run(capsys, "decompose", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["edit_distance"] == 0 and doc["cherries"] == 0


def test_bisect(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", ec.cycle(4))
    code, out, _ = run(capsys, "bisect", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["bw"] == 2
    assert doc["dfc"] == pytest.approx(2 / 3)
    assert doc["disc_plus"] == pytest.approx(1 / 3)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    code, _, _ = run(capsys, "gen", "--params", "family=Gnp,n=20,p=0.5", "--seed", "3", "--output", str(out))
    assert code == 0
    assert ec.read_edge_list(str(out)) == ec.gnp(20, 0.5, 3)
    code, _, _ = run(capsys, "gen", "--params", "family=CliqueUnion,sizes=3:2", "--output", str(tmp_path / "cu.txt"))
    assert code == 0
    assert ec.read_edge_list(str(tmp_path / "cu.txt")) == ec.clique_union([3, 2])


def test_unknown_param_rejected(tmp_path, capsys):
    path = write_graph(tmp_path, "g.txt", ec.cycle(4))
    code, _, err = run(capsys, "maxcut", "--input", path, "--params", "bogus=1")
    assert code == 1
    assert "unknown parameter" in err


@pytest.mark.parametrize(
    "argv,bad",
    [
        # clique and decompose work out gamma, eps, rho, delta, the peel floor
        # and the merge threshold from the input, so none of them is a key
        (["clique", "--params", "gamma=0.05"], "unknown parameter 'gamma'"),
        (["decompose", "--params", "floor=3"], "unknown parameter 'floor'"),
        # maxcut and bisect read no --params: the exact path follows from n
        (["maxcut", "--params", "cutoff=3"], "unknown parameter 'cutoff'"),
        (["gen", "--params", "family=Gnp,n=ten,p=0.5"], "n='ten'"),
        (["decompose", "--params", "threshold=0.5"], "unknown parameter 'threshold'"),
        (["clique", "--params", "eps=0.1"], "unknown parameter 'eps'"),
        # infinities do not convert
        (["gen", "--params", "family=Gnp,n=20,p=-inf"], "p='-inf'"),
        # --tol nan passed every spectrum check and exited 2 with a made-up
        # counterexample; --tol 1e6 made every check vacuous and exited 0
        (["spectrum", "--tol", "nan"], "--tol"),
        (["spectrum", "--tol", "inf"], "--tol"),
        (["spectrum", "--tol", "1e6"], "--tol"),
        (["chowla", "1,2", "--tol=-1e-9"], "--tol"),
        (["decompose", "--params", "extractor=bogus"], "extractor 'bogus'"),
        (["clique", "--params", "rho=0.06"], "unknown parameter 'rho'"),
        (["clique", "--params", "delta=0.1"], "unknown parameter 'delta'"),
        (["clique", "--params", "mode=bogus"], "mode must be 'eigen' or 'surplus'"),
        # a kept key does not make a deleted one acceptable
        (["clique", "--params", "mode=surplus,gamma=0.05"], "unknown parameter 'gamma'"),
        (["decompose", "--params", "extractor=greedy,floor=3"], "unknown parameter 'floor'"),
        (["bisect", "--params", "cutoff=3"], "unknown parameter 'cutoff'"),
    ],
)
def test_bad_param_value_fails_closed(tmp_path, capsys, argv, bad):
    if argv[0] not in ("gen", "chowla"):
        argv = argv + ["--input", write_graph(tmp_path, "g.txt", ec.cycle(5))]
    code, _, err = run(capsys, *argv, "--output", str(tmp_path / "out"))
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and bad in lines[0]


@pytest.mark.parametrize(
    "params,bad",
    [
        # each used to print a KeyError traceback
        ("family=Gnp,p=0.5", "'Gnp' requires parameter n"),
        ("family=CliqueUnion", "'CliqueUnion' requires parameter sizes"),
        ("family=Turan,n=6", "'Turan' requires parameter r"),
        ("family=Hk", "'Hk' requires parameter k"),
        # used to be read as false
        ("family=Turan,r=2,n=6,strict=ture", "strict='ture'"),
        # keys the family does not read used to be dropped silently
        ("family=Gnp,n=10,p=0.5,k=3", "'Gnp' does not read parameter k"),
        ("family=Complete,n=5,strict=yes", "'Complete' does not read parameter strict"),
        ("family=Gnp,n=10,p=0.5,m=9", "unknown parameter 'm'"),
    ],
)
def test_gen_bad_family_params_fail_closed(tmp_path, capsys, params, bad):
    code, _, err = run(capsys, "gen", "--params", params, "--output", str(tmp_path / "out"))
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and bad in lines[0]


@pytest.mark.parametrize(
    "source",
    [
        "header:1000000000 0",
        "header:16385 0",
        "gen:family=Gnp,n=16385,p=0.5",
        "gen:family=Cycle,n=1000000000",
    ],
)
def test_vertex_ceiling_fails_closed(tmp_path, capsys, source):
    # a vertex count above graphs.MAX_VERTICES is refused before any n x n
    # array exists (1000000000 0 used to print a numpy allocation traceback)
    kind, arg = source.split(":")
    out = str(tmp_path / "out")
    if kind == "header":
        path = tmp_path / "g.txt"
        path.write_text(arg + "\n")
        argv = ["spectrum", "--input", str(path), "--output", out]
    else:
        argv = ["gen", "--params", arg, "--output", out]
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(MAX_VERTICES) in lines[0]


# the prime search and the order-n group used to run before any ceiling:
# 645 MB RSS at 10^7, and a 29 TiB allocation traceback at 10^12
@pytest.mark.parametrize("amax", [MAX_CHOWLA_DEGREE + 1, 10**7, 10**12])
def test_chowla_ceiling_fails_closed(tmp_path, capsys, amax):
    # max(A) above chowla.MAX_CHOWLA_DEGREE is refused before the prime search
    # and before any n-sized array exists
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "chowla", f"1,{amax}", "--output", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(MAX_CHOWLA_DEGREE) in lines[0]


def test_gen_checks_output_before_building(capsys):
    # G(4000, 1/2) used to be built (366 MB traced) before the missing --output was reported
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "gen", "--params", "family=Gnp,n=4000,p=0.5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0] == "error: gen requires --output"


def test_chowla_takes_no_resolution(capsys):
    # the cosine grid size was settable from the command line, and a large
    # value allocated ~24 B per grid point before any check
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "chowla", "5", "--params", "resolution=1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "resolution" in lines[0]


@pytest.mark.parametrize("command", ["maxcut", "bisect"])
def test_cutoff_above_exhaustive_limit_fails_closed(tmp_path, capsys, command):
    # no cutoff can start a 2^29-pattern (maxcut) or C(29,14)-split (bisect)
    # enumeration on n=30: the key is gone
    path = write_graph(tmp_path, "g.txt", ec.gnp(30, 0.3, 1))
    out = str(tmp_path / "out")
    code, _, err = run(capsys, command, "--input", path, "--params", "cutoff=40", "--output", out)
    assert code == 1
    assert err.splitlines() == [f"error: unknown parameter 'cutoff' for command {command!r}"]
    if command == "bisect":
        # bisection has no heuristic path, so its refusal must not point to MaxCut's
        code, _, err = run(capsys, command, "--input", path, "--output", out)
        assert code == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "maxcut_local_search" not in lines[0]


@pytest.mark.parametrize("n,method", [(24, "exact"), (25, "local-search")])
def test_maxcut_path_follows_exhaustive_limit(tmp_path, capsys, n, method):
    path = write_graph(tmp_path, "g.txt", ec.cycle(n))
    code, out, _ = run(capsys, "maxcut", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == method


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    # main runs many times in one process (the benchmark calls it per job):
    # argparse and its subparsers are constructed on the first call only, and
    # the cached parser keeps --version, prog and the exit 2 on a bad flag
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        path = write_graph(tmp_path, "g.txt", ec.cycle(6))
        for argv in (("maxcut", "--input", path), ("bisect", "--input", path), ("chowla", "1,2"), ("spectrum", "--input", path)):
            assert run(capsys, *argv)[0] == 0
        assert built[0] == "eigencliques" and len(built) == 1 + len(cli._COMMANDS)
        for argv, code, stream in ((("--version",), 0, "out"), (("maxcut", "--format", "xml"), 2, "err")):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            assert info.value.code == code
            out = capsys.readouterr()
            assert (ec.__version__ + "\n" if code == 0 else "usage: eigencliques maxcut") in getattr(out, stream)
        assert len(built) == 1 + len(cli._COMMANDS)
    finally:
        cli._parser.cache_clear()


def test_text_format(tmp_path, capsys):
    path = write_graph(tmp_path, "g.txt", ec.cycle(4))
    code, out, _ = run(capsys, "maxcut", "--input", path, "--format", "text")
    assert code == 0
    assert "value = 4" in out


def test_missing_input(capsys):
    code, _, err = run(capsys, "maxcut")
    assert code == 1 and "requires --input" in err


# (bad value, the text naming it); no --params key of these commands takes
# a number, so their bad value is --tol
_BAD_VALUE = {
    "spectrum": (["--tol", "nan"], "--tol"),
    "maxcut": (["--tol", "nan"], "--tol"),
    "clique": (["--tol", "nan"], "--tol"),
    "decompose": (["--tol", "nan"], "--tol"),
    "bisect": (["--tol", "nan"], "--tol"),
}


@pytest.mark.parametrize("command", sorted(_BAD_VALUE))
def test_error_order(tmp_path, capsys, command):
    # --tol, then a malformed or unknown key, then a missing --input, then a
    # bad value, and only then is the input file read
    bad, names_bad = _BAD_VALUE[command]
    missing = ["--input", str(tmp_path / "missing.txt")]
    cases = [
        (["--tol", "nan", "--params", "junk"], "error: --tol"),
        (["--params", "junk"], "error: malformed --params entry 'junk'"),
        (["--params", "bogus=1"], "error: unknown parameter 'bogus'"),
        (bad, "error: --tol" if bad[0] == "--tol" else f"error: {command} requires --input"),
        (bad + missing, "error:"),
        (missing, "io error:"),
    ]
    for extra, prefix in cases:
        code, out, err = run(capsys, command, *extra)
        lines = err.splitlines()
        assert code == 1 and out == "", extra
        assert len(lines) == 1 and lines[0].startswith(prefix), (extra, lines)
        if extra == bad + missing:
            assert names_bad in lines[0], lines


@pytest.mark.parametrize(
    "command,graph,golden",
    [
        ("maxcut", ec.cycle(5), "maxcut_c5.json"),
        ("decompose", ec.clique_union([5, 3]), "decompose_cu53.json"),
        # the merge step joins two multi-vertex cliques (21 and 8 vertices) at density < 1
        ("decompose", flipped_union([30, 20, 10], 101, 0.03), "decompose_cu302010_flip3.json"),
        # n=10 with many tied bisections; also takes the exact discrepancy branch
        ("bisect", ec.petersen(), "bisect_petersen.json"),
        # density 0.122 takes phase 0 with an applicable guarantee: pins the
        # lambda_n-based phase-0 bound, the default gamma and the target
        ("clique", planted_noisy_union(24, 8, 2, 0.002), "clique_planted_noisy.json"),
        # the greedy extractor recovers the planted 30/20/10 blocks (edit distance 59)
        ("decompose --params extractor=greedy", flipped_union([30, 20, 10], 102, 0.03), "decompose_cu302010_greedy.json"),
        # dense input, phases 1-3: pins phase 2's block choice (clique of 22)
        ("clique", flipped_union([30, 20, 10], 102, 0.03), "clique_cu302010_flip3.json"),
    ],
)
def test_golden_reports(tmp_path, command, graph, golden):
    from pathlib import Path

    path = write_graph(tmp_path, "g.txt", graph)
    out = tmp_path / "out.json"
    assert main([*command.split(), "--input", path, "--output", str(out)]) == 0
    text = out.read_text().replace(path, "GRAPH").replace(str(out), "OUT")
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    assert text == expected
