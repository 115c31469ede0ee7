import json
import tracemalloc

import numpy as np
import pytest

import eigencliques as ec
from conftest import flip_edges, planted_noisy_union
from eigencliques.cli import main
from eigencliques.graphs import MAX_VERTICES, pair_uniforms


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


def test_reports_byte_identical(tmp_path):
    path = write_graph(tmp_path, "g.txt", ec.gnp(30, 0.4, 2))
    out = tmp_path / "a.json"
    assert main(["spectrum", "--input", path, "--output", str(out)]) == 0
    first = out.read_bytes()
    assert main(["spectrum", "--input", path, "--output", str(out)]) == 0
    assert out.read_bytes() == first


def test_clique_planted(tmp_path, capsys):
    path = write_graph(tmp_path, "cu.txt", ec.clique_union([16, 16, 16]))
    code, out, _ = run(capsys, "clique", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 16 and doc["verified"]
    assert doc["phases"][0]["phase"] in (0, 1)


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
        (["clique", "--params", "gamma=abc"], "gamma='abc'"),
        (["decompose", "--params", "floor=x"], "floor='x'"),
        (["maxcut", "--params", "cutoff=1.5"], "cutoff='1.5'"),
        (["gen", "--params", "family=Gnp,n=ten,p=0.5"], "n='ten'"),
        # NaN used to merge nothing; infinities are no better
        (["decompose", "--params", "threshold=nan"], "threshold='nan'"),
        (["clique", "--params", "gamma=inf"], "gamma='inf'"),
        (["gen", "--params", "family=Gnp,n=20,p=-inf"], "p='-inf'"),
        # --tol nan passed every spectrum check and exited 2 with a made-up
        # counterexample; --tol 1e6 made every check vacuous and exited 0
        (["spectrum", "--tol", "nan"], "--tol"),
        (["spectrum", "--tol", "inf"], "--tol"),
        (["spectrum", "--tol", "1e6"], "--tol"),
        (["chowla", "1,2", "--tol=-1e-9"], "--tol"),
        (["decompose", "--params", "extractor=bogus"], "extractor 'bogus'"),
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
        # Cay(Z/16411Z, A u -A); cayley_graph used to allocate the 16411^2 adjacency first
        "chowla:4100",
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
    elif kind == "gen":
        argv = ["gen", "--params", arg, "--output", out]
    else:
        argv = ["chowla", arg, "--output", out]
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
    # a cutoff above the exhaustive limit must not start a 2^29-pattern (maxcut)
    # or C(29,14)-split (bisect) enumeration on n=30
    path = write_graph(tmp_path, "g.txt", ec.gnp(30, 0.3, 1))
    code, _, err = run(capsys, command, "--input", path, "--params", "cutoff=40", "--output", str(tmp_path / "out"))
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "maxcut_local_search" in lines[0]


def test_text_format(tmp_path, capsys):
    path = write_graph(tmp_path, "g.txt", ec.cycle(4))
    code, out, _ = run(capsys, "maxcut", "--input", path, "--format", "text")
    assert code == 0
    assert "value = 4" in out


def test_missing_input(capsys):
    code, _, err = run(capsys, "maxcut")
    assert code == 1 and "requires --input" in err


def _flipped_union(sizes, seed, rate):
    """Clique union with every vertex pair flipped where pair_uniforms(seed, i, j) < rate."""
    g = ec.clique_union(sizes)
    iu, ju = np.triu_indices(g.n, 1)
    hit = pair_uniforms(seed, iu, ju) < rate
    return flip_edges(g, zip(iu[hit].tolist(), ju[hit].tolist()))


@pytest.mark.parametrize(
    "command,graph,golden",
    [
        ("maxcut", ec.cycle(5), "maxcut_c5.json"),
        ("decompose", ec.clique_union([5, 3]), "decompose_cu53.json"),
        # the merge step joins two multi-vertex cliques (21 and 8 vertices) at density < 1
        ("decompose", _flipped_union([30, 20, 10], 101, 0.03), "decompose_cu302010_flip3.json"),
        # n=10 with many tied bisections; also takes the exact discrepancy branch
        ("bisect", ec.petersen(), "bisect_petersen.json"),
        # density 0.122 takes phase 0 with an applicable guarantee: pins the
        # lambda_n-based phase-0 bound, the default gamma and the target
        ("clique", planted_noisy_union(24, 8, 2, 0.002), "clique_planted_noisy.json"),
        # the greedy extractor recovers the planted 30/20/10 blocks (edit distance 59)
        ("decompose --params extractor=greedy", _flipped_union([30, 20, 10], 102, 0.03), "decompose_cu302010_greedy.json"),
        # dense input, phases 1-3: pins phase 2's block choice (clique of 22)
        ("clique", _flipped_union([30, 20, 10], 102, 0.03), "clique_cu302010_flip3.json"),
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
