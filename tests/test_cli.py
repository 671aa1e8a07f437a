import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from egrtools import bounds, cli, constructions, graph_core
from egrtools.bounds import bound_report
from egrtools.cli import EXIT_CLOSED_STDOUT, EXIT_INTERNAL, EXIT_NOT_EGR, EXIT_OK, EXIT_USAGE, main
from egrtools.constructions import FAMILIES, build_pencil_graph, named_degree, named_order, petersen
from egrtools.galois import GF, prime_power
from egrtools.graph_core import Graph, NotEdgeGirthRegular, graph6_encode
from egrtools.spectral import MAX_MOMENT_LENGTH, MAX_MOMENT_VERTICES
from oracles import degree_preserving_switch


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_graph6(capsys):
    code, out, _ = run(capsys, "construct", "--family", "pencil", "--q", "2", "--format", "graph6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["signature"] == {"n": 30, "k": 7, "g": 4, "lambda": 12, "bipartite": True}
    assert isinstance(doc["graph"], str) and doc["graph"][0] == "]"  # n=30 header byte


def test_construct_biaffine_to_file(tmp_path, capsys):
    out_path = tmp_path / "b1.g6"
    code, out, _ = run(
        capsys, "construct", "--family", "biaffine1", "--q", "3", "--out", str(out_path)
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["signature"]["n"] == 18 and doc["signature"]["lambda"] == 4
    text = out_path.read_text().strip()
    from egrtools.graph_core import graph6_decode

    assert graph6_decode(text).n == 18


def test_construct_json_format_carries_labels(capsys):
    code, out, _ = run(capsys, "construct", "--family", "biaffine2", "--q", "3", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    inner = doc["graph"]
    assert inner["labels"] is not None and len(inner["labels"]) == 16
    assert inner["adjacency"] and len(inner["adjacency"]) == 16


def test_construct_ovoid_spread_q8(capsys):
    # the elliptic-quadric ovoid takes the family past q = 4; q = 16
    # (n = 8224) is past the verify cap
    code, out, _ = run(capsys, "construct", "--family", "ovoid_spread", "--q", "8", "--format", "graph6")
    assert code == EXIT_OK
    sig = json.loads(out)["signature"]
    assert sig == {"n": 1040, "k": 8, "g": 8, "lambda": 1764, "bipartite": True}
    code, out, err = run(capsys, "construct", "--family", "ovoid_spread", "--q", "16")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: verification is capped at 4096 vertices (got n = 8224)\n"


def test_construct_invalid_family_and_q(capsys):
    code, _, err = run(capsys, "construct", "--family", "ovoid_spread", "--q", "3")
    assert code == EXIT_USAGE
    assert "ovoid" in err
    code, _, err = run(capsys, "construct", "--family", "nope", "--q", "3")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "construct", "--family", "pencil", "--q", "6")
    assert code == EXIT_USAGE
    assert "prime power" in err


def test_construct_named(capsys):
    code, out, _ = run(capsys, "construct", "--family", "named", "--name", "petersen")
    assert code == EXIT_OK
    assert json.loads(out)["signature"]["lambda"] == 4


def test_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "pet.g6"
    path.write_text(graph6_encode(petersen()) + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["egr"] is True
    assert doc["signature"]["g"] == 5


def test_verify_not_egr(tmp_path, capsys):
    G = petersen()
    adj = [list(a) for a in G.adj]
    adj[0].remove(1)
    adj[1].remove(0)
    path = tmp_path / "broken.g6"
    path.write_text(graph6_encode(Graph(adj)) + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_NOT_EGR
    doc = json.loads(out)
    assert doc["egr"] is False
    assert doc["failure"]["kind"] == "not_regular"


def test_verify_malformed_and_missing(tmp_path, capsys):
    path = tmp_path / "junk.g6"
    path.write_text("~~~\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.g6"))
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify")
    assert code == EXIT_USAGE


def test_verify_file_with_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bytes.g6"
    path.write_bytes(b"C\xff~\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert _one_error_line(err, "malformed graph6 input: non-ASCII byte in graph6 input (byte 1)")


# K_4, two bytes that are not UTF-8, K_4 again with a CRLF ending
_NOT_UTF8_STREAM = b"C~\n\xff\xfe\nC~\r\n"
_NOT_UTF8_RECORDS = [
    '{"egr": true, "line": 1, "signature": {"bipartite": false, "g": 3, "k": 3, "lambda": 2, "n": 4}}',
    '{"error": "non-ASCII byte in graph6 input (byte 0)", "line": 2}',
    '{"egr": true, "line": 3, "signature": {"bipartite": false, "g": 3, "k": 3, "lambda": 2, "n": 4}}',
]


def test_verify_stream_with_a_byte_that_is_not_utf8(capsys, monkeypatch):
    # stdin as Python opens it outside UTF-8 mode: strict, no newline translation
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(_NOT_UTF8_STREAM), encoding="utf-8", newline="\n"))
    code = main(["verify", "--stdin-g6-stream"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out.splitlines() == _NOT_UTF8_RECORDS


def test_verify_stream_with_a_byte_that_is_not_utf8_through_real_stdin():
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}
    cmd = [sys.executable, "-m", "egrtools.cli", "verify", "--stdin-g6-stream"]
    proc = subprocess.run(cmd, input=_NOT_UTF8_STREAM, capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"")
    assert proc.stdout.decode().splitlines() == _NOT_UTF8_RECORDS


def test_verify_stdin_stream(capsys, monkeypatch):
    import io

    lines = graph6_encode(petersen()) + "\n" + graph6_encode(Graph([[1], [0]])) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code = main(["verify", "--stdin-g6-stream"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_NOT_EGR  # second graph is not egr
    first, second = (json.loads(line) for line in out)
    assert first["egr"] is True and second["egr"] is False


def test_verify_stdin_stream_reports_bad_lines_and_continues(capsys, monkeypatch):
    import io

    lines = "\n".join([graph6_encode(petersen()), "D", graph6_encode(Graph([[1], [0]]))]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code = main(["verify", "--stdin-g6-stream"])
    good, bad, not_egr = (json.loads(line) for line in capsys.readouterr().out.strip().splitlines())
    assert code == EXIT_USAGE  # the worst line decides
    assert good["line"] == 1 and good["egr"] is True
    assert bad["line"] == 2 and "adjacency bytes" in bad["error"] and "egr" not in bad
    assert not_egr["line"] == 3 and not_egr["egr"] is False


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "-k", "3", "-g", "5", "-l", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bounds"]["best"] == 10
    assert doc["bounds"]["spectral_odd"] == {"num": 1458, "den": 149, "decimal": "9.785235"}
    code, out, _ = run(capsys, "bounds", "-k", "7", "-g", "4", "-l", "12", "--bipartite")
    assert json.loads(out)["bounds"]["best"] == 30
    code, out, _ = run(capsys, "bounds", "-k", "3", "-g", "6", "-l", "6", "--bipartite")
    doc = json.loads(out)
    assert doc["bounds"]["best"] == 16
    assert doc["bounds"]["contributions"]["dfjr"] == 16


def test_bounds_invalid_triple(capsys):
    code, _, err = run(capsys, "bounds", "-k", "2", "-g", "5", "-l", "1")
    assert code == EXIT_USAGE
    assert _one_error_line(err, "invalid triple: need k >= 3, g >= 3, lambda >= 1")


# CLI-argument probes: each exits 2 with one error line and no traceback.
# "DIR" stands for a directory, which no --out can write.
@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", "--family", "pencil", "--q", "2.5"], "argument --q: invalid int value: '2.5'"),
        (["construct", "--family", "pencil", "--q", "1e3"], "argument --q: invalid int value: '1e3'"),
        (["construct", "--family", "pencil", "--q", ""], "argument --q: invalid int value: ''"),
        (["report", "--family", "biaffine1", "--q", "2.5"], "argument --q: invalid int value: '2.5'"),
        (["report", "--family", "biaffine1", "--q", "1e3"], "argument --q: invalid int value: '1e3'"),
        (["report", "--family", "biaffine1", "--q", ""], "argument --q: invalid int value: ''"),
        (["bounds", "-k", "2", "-g", "5", "-l", "1"], "invalid triple"),
        (["bounds", "-k", "-3", "-g", "5", "-l", "1"], "invalid triple"),
        (["bounds", "-k", "3", "-g", "2", "-l", "1"], "invalid triple"),
        (["bounds", "-k", "3", "-g", "5", "-l", "0"], "invalid triple"),
        (["bounds", "-k", "3", "-g", "5", "-l", "-4"], "invalid triple"),
        (["bounds", "-k", "3", "-g", "5", "-l", "x"], "argument -l/--lam: invalid int value: 'x'"),
        (["bounds", "-k", "3", "-g", "5"], "the following arguments are required: -l/--lam"),
        (["construct", "--family", "named", "--name", "petersen", "--out", "DIR"], "cannot write DIR"),
        (["verify", "petersen.g6", "--out", "DIR"], "cannot write DIR"),
        (["verify", "--stdin-g6-stream", "--out", "DIR"], "cannot write DIR"),
        (["bounds", "-k", "3", "-g", "5", "-l", "4", "--out", "DIR"], "cannot write DIR"),
        (["report", "--family", "named", "--name", "petersen", "--out", "DIR"], "cannot write DIR"),
    ],
)
def test_cli_argument_probes(tmp_path, monkeypatch, capsys, argv, message):
    import io

    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "petersen.g6").write_text(graph6_encode(petersen()) + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(petersen()) + "\n"))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, message) and "Traceback" not in err


def _loads(text):
    """json.loads with Python's int-to-str digit limit (3.10.7 on) lifted,
    for the longest integers of a bounds report."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _bounds_doc(capsys, k, g, *bipartite):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    code, out, err = run(capsys, "bounds", "-k", str(k), "-g", str(g), "-l", "1", *bipartite)
    assert (code, err) == (EXIT_OK, "")
    assert getattr(sys, "get_int_max_str_digits", int)() == limit  # restored
    return _loads(out)["bounds"]


def _check_decimals(doc):
    """Each rational's decimal: float's within the float range, the exact
    value rounded half to even past it."""
    for key in ("spectral_even", "spectral_odd", "vertex_cycle_cap"):
        if doc[key] is not None:
            value = Fraction(doc[key]["num"], doc[key]["den"])
            try:
                decimal = f"{float(value):.6f}"
            except OverflowError:
                assert abs(value) > 2**1023
                decimal = f"{round(value * 10**6)}"
                decimal = f"{decimal[:-6]}.{decimal[-6:]}"
            assert doc[key]["decimal"] == decimal


# At lambda = 1 the first pairs of four degrees whose report passed the
# float range, of k = 3 the first past Python's int-to-str digit limit, and
# the pairs before them; then three pairs far past both.  Each prints.
@pytest.mark.parametrize(
    "k,g",
    [(3, 2046), (3, 2047), (4, 1290), (4, 1291), (10, 644), (10, 645), (100, 306), (100, 307),
     (3, 9013), (3, 9014), (3, 10000), (100000, 200), (1000, 2000)],
)
def test_bounds_past_float_range_print_exact_decimals(capsys, k, g):
    for bipartite in ([], ["--bipartite"]) if g % 2 == 0 else ([],):
        doc = _bounds_doc(capsys, k, g, *bipartite)
        assert doc["best"] == max(doc["contributions"].values()) >= doc["moore"] == bounds.moore_bound(k, g)
        _check_decimals(doc)


@pytest.mark.parametrize("k", [3, 4, 10, 100])
def test_bounds_domain_edge_prints_and_the_next_g_is_capped(capsys, monkeypatch, k):
    g = int(bounds.MAX_BOUND_BITS / math.log2(k))
    g += bounds.in_domain(k, g + 1) - (not bounds.in_domain(k, g))
    assert bounds.in_domain(k, g) and not bounds.in_domain(k, g + 1)
    _check_decimals(_bounds_doc(capsys, k, g))
    monkeypatch.setattr(cli, "bound_report", None)  # the cap answers before any bound
    code, out, err = run(capsys, "bounds", "-k", str(k), "-g", str(g + 1), "-l", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert _one_error_line(err, f"bounds are capped at k**g <= 2**20000 (got k = {k}, g = {g + 1})")


def test_bounds_of_girth_three(capsys):
    # K_4 is egr(4, 3, 3, 2): Moore and dfjr give 4, the rest need g >= 5
    code, out, err = run(capsys, "bounds", "-k", "3", "-g", "3", "-l", "2")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)["bounds"]
    assert doc["contributions"] == {"dfjr": 4, "moore": 4} and doc["best"] == 4
    assert doc["spectral_odd"] is None and doc["vertex_cycle_cap"] is None and len(doc["notes"]) == 2


@pytest.mark.parametrize("g", [20000, 30000])
def test_bounds_past_the_domain_exit_before_bound_report(capsys, monkeypatch, g):
    # the domain cap answers before bound_report runs, whatever its cost
    calls = []

    def counted(*args):
        calls.append(args)
        return bound_report(*args)

    monkeypatch.setattr(cli, "bound_report", counted)
    code, out, err = run(capsys, "bounds", "-k", "3", "-g", str(g), "-l", "1")
    assert code == EXIT_USAGE and out == "" and calls == []
    assert _one_error_line(err, f"bounds are capped at k**g <= 2**20000 (got k = 3, g = {g})")
    # a pair inside the domain does enter it
    assert run(capsys, "bounds", "-k", "3", "-g", "5", "-l", "4")[0] == EXIT_OK and len(calls) == 1


def test_bounds_domain_is_k_to_the_g_in_bits():
    assert bounds.MAX_BOUND_BITS == 20000
    assert bounds.in_domain(4, 10000) and not bounds.in_domain(4, 10001)
    assert bounds.in_domain(3, 12618) and not bounds.in_domain(3, 12619)
    assert bounds.in_domain(2**20000, 1) and not bounds.in_domain(2**20000, 2)
    # no float overflow on an enormous g, and k < 2 is left to bound_report
    assert not bounds.in_domain(3, 10**400) and bounds.in_domain(1, 10**400)


def test_a_bound_past_the_int_to_str_limit_prints(capsys, monkeypatch):
    # a 5001-digit integer is past Python's default int-to-str limit of 4300
    monkeypatch.setattr(cli, "_bounds_json", lambda rep: {"best": 10**5000})
    code, out, err = run(capsys, "bounds", "-k", "3", "-g", "6", "-l", "1")
    assert (code, err) == (EXIT_OK, "")
    assert _loads(out)["bounds"] == {"best": 10**5000}


def test_report_pencil(capsys):
    code, out, _ = run(capsys, "report", "--family", "pencil", "--q", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["extremal"]["certified"] is True
    assert doc["tight_spectrum"]["certified"] is True
    mult = {int(round(v)): m for v, m in doc["spectrum"]["multiplicities"]}
    assert mult == {7: 1, 2: 14, -2: 14, -7: 1}
    assert doc["moments"][2] == 210


def test_report_gap_case(capsys):
    code, out, _ = run(capsys, "report", "--family", "gq_truncation", "--q", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["extremal"]["certified"] is False
    assert doc["extremal"]["gap"] == 18
    assert doc["signature"] == {"n": 54, "k": 3, "g": 8, "lambda": 8, "bipartite": True}


def test_report_named_petersen(capsys):
    code, out, _ = run(capsys, "report", "--family", "named", "--name", "petersen")
    doc = json.loads(out)
    assert doc["extremal"]["certified"] is True
    assert doc["bounds"]["vertex_cycle_cap"] == {"num": 6, "den": 1, "decimal": "6.000000"}


def test_reports_byte_identical_modulo_timestamp_and_timing(capsys):
    _, out1, _ = run(capsys, "report", "--family", "named", "--name", "heawood")
    _, out2, _ = run(capsys, "report", "--family", "named", "--name", "heawood")
    d1, d2 = json.loads(out1), json.loads(out2)
    for d in (d1, d2):
        d.pop("timestamp")
        d.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    assert "egrtools" in capsys.readouterr().out


def test_construct_deterministic_across_processes():
    cmd = [sys.executable, "-m", "egrtools.cli", "construct", "--family", "biaffine1", "--q", "3"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["signature"]["n"] == 18


@pytest.mark.parametrize(
    "q,message",
    [
        (0, "not a prime power"),
        (-3, "not a prime power"),
        (6, "not a prime power"),
        (2**21, "exceeds the field-order cap 1048576"),
        (1048573, "pencil is capped at q <= 29"),
    ],
)
def test_construct_bad_q_is_a_usage_error(capsys, q, message):
    misses = GF.cache_info().misses
    code, out, err = run(capsys, "construct", "--family", "pencil", "--q", str(q))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {err[7:]}" and message in err and len(err.splitlines()) == 1
    assert GF.cache_info().misses == misses  # rejected before any field was built


@pytest.mark.parametrize("family,q", [("biaffine1", 257), ("biaffine2", 257), ("gq_truncation", 71),
                                      ("ovoid_spread", 128), ("pencil", 31)])
def test_report_over_size_cap_is_a_usage_error(capsys, family, q):
    code, out, err = run(capsys, "report", "--family", family, "--q", str(q))
    assert code == EXIT_USAGE
    assert out == "" and "capped at q <=" in err


@pytest.mark.parametrize("command", ["construct", "report"])
@pytest.mark.parametrize(
    "arguments,message",
    [
        (["--family", "biaffine1", "--q", "3", "--name", "petersen"], "--name applies only to the named family, not biaffine1"),
        (["--family", "named", "--name", "petersen", "--q", "7"], "--q does not apply to the named family"),
    ],
    ids=["name-for-a-family", "q-for-named"],
)
def test_an_argument_that_does_not_apply_is_a_usage_error(tmp_path, capsys, command, arguments, message):
    # it would be recorded in the output, as if it had been used
    out_path = tmp_path / "out.json"
    json_format = ["--format", "json"] if command == "construct" else []
    code, out, err = run(capsys, command, *arguments, *json_format, "--out", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, message)
    assert not out_path.exists()


# Size caps are lowered below Petersen's 10 vertices, so no large graph is built.
def _one_error_line(err: str, text: str) -> bool:
    return err.startswith("error: ") and text in err and len(err.splitlines()) == 1


def test_construct_over_vertex_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(graph_core, "MAX_VERIFY_VERTICES", 9)
    code, out, err = run(capsys, "construct", "--family", "named", "--name", "petersen")
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, "verification is capped at 9 vertices (got n = 10)")


def test_report_over_vertex_cap_exits_before_verifying(capsys, monkeypatch):
    def verify_egr(G):
        raise AssertionError("verified a graph over the report cap")

    monkeypatch.setattr(cli, "MAX_MOMENT_VERTICES", 9)
    monkeypatch.setattr(cli, "verify_egr", verify_egr)
    code, out, err = run(capsys, "report", "--family", "named", "--name", "petersen")
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, "report is capped at 9 vertices (got n = 10)")


@pytest.mark.parametrize("command", ["construct", "report"])
def test_a_build_that_fails_its_own_verification_exits_3(tmp_path, capsys, monkeypatch, command):
    # one switch leaves pencil q=2 7-regular of girth 4, with edges on no 4-cycle
    def switched(F):
        return degree_preserving_switch(build_pencil_graph(F))

    monkeypatch.setitem(FAMILIES, "pencil", FAMILIES["pencil"]._replace(build=switched))
    with pytest.raises(NotEdgeGirthRegular) as failure:
        graph_core.verify_egr(switched(GF(2)))
    out_path = tmp_path / "out"
    code, out, err = run(capsys, command, "--family", "pencil", "--q", "2", "--out", str(out_path))
    assert code == EXIT_INTERNAL and out == "" and not out_path.exists()
    assert err == f"internal error: construction failed verification: {failure.value}\n"


@pytest.mark.parametrize("command", ["construct", "report"])
def test_a_build_off_its_closed_form_exits_3(tmp_path, capsys, monkeypatch, command):
    # biaffine1's row building kind 2: an egr graph, but not egr(18, 3, 6, 4)
    monkeypatch.setitem(FAMILIES, "biaffine1", FAMILIES["biaffine1"]._replace(build=FAMILIES["biaffine2"].build))
    out_path = tmp_path / "out"
    code, out, err = run(capsys, command, "--family", "biaffine1", "--q", "3", "--out", str(out_path))
    assert code == EXIT_INTERNAL and out == "" and not out_path.exists()
    assert err == (
        "internal error: ArithmeticError: biaffine1 q=3 verified as egr(16, 3, 6, 6), "
        "not its closed form egr(18, 3, 6, 4)\n"
    )


@pytest.mark.parametrize("command", ["construct", "report"])
@pytest.mark.parametrize(
    "name,cap", [("complete_bipartite(20000)", "complete_bipartite(3000)"), ("cycle(50000000)", "cycle(9000000)")]
)
def test_named_graph_past_its_size_cap_is_a_usage_error(capsys, command, name, cap):
    code, out, err = run(capsys, command, "--family", "named", "--name", name)
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, f"{name} is past the size cap {cap}")


@pytest.mark.parametrize("command", ["construct", "report"])
@pytest.mark.parametrize("name,k", [("cycle(7)", 2), ("complete_bipartite(1)", 1), ("complete_bipartite(2)", 2)])
def test_named_graph_below_degree_3_is_a_usage_error(capsys, monkeypatch, command, name, k):
    # no such graph can verify; the degree comes in closed form, so nothing is built
    monkeypatch.setattr(cli, "named_graph", None)
    code, out, err = run(capsys, command, "--family", "named", "--name", name)
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, f"{name} has degree {k}; verification needs degree k >= 3")


# Each probe with a lowered cap is one vertex past it.
@pytest.mark.parametrize(
    "argv,patch,message",
    [
        (["construct", "--family", "gq_truncation", "--q", "9"], (graph_core, "MAX_VERIFY_VERTICES", 1457),
         "verification is capped at 1457 vertices (got n = 1458)"),
        (["construct", "--family", "pencil", "--q", "9"], (graph_core, "MAX_VERIFY_VERTICES", 1639),
         "verification is capped at 1639 vertices (got n = 1640)"),
        (["report", "--family", "biaffine1", "--q", "193"], None,
         "report is capped at 2048 vertices (got n = 74498)"),
        (["report", "--family", "biaffine2", "--q", "32"], (cli, "MAX_MOMENT_VERTICES", 2045),
         "report is capped at 2045 vertices (got n = 2046)"),
        (["report", "--family", "ovoid_spread", "--q", "4"], (cli, "MAX_MOMENT_VERTICES", 135),
         "report is capped at 135 vertices (got n = 136)"),
    ],
)
def test_vertex_caps_are_checked_before_building(capsys, monkeypatch, argv, patch, message):
    def builder(F):
        raise AssertionError("built a graph over the vertex cap")

    if patch is not None:
        monkeypatch.setattr(*patch)
    for family, row in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, family, row._replace(build=builder))
    misses = GF.cache_info().misses
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, message)
    assert GF.cache_info().misses == misses  # no field was built either


def test_verify_over_vertex_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "pet.g6"
    path.write_text(graph6_encode(petersen()) + "\n")
    monkeypatch.setattr(graph_core, "MAX_VERIFY_VERTICES", 9)
    code, out, err = run(capsys, "verify", str(path))
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, "verification is capped at 9 vertices (got n = 10)")


def test_verify_stream_reports_graph_over_vertex_cap_and_continues(capsys, monkeypatch):
    import io

    K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    lines = "\n".join([graph6_encode(petersen()), graph6_encode(K4)]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    monkeypatch.setattr(graph_core, "MAX_VERIFY_VERTICES", 9)
    code = main(["verify", "--stdin-g6-stream"])
    over, k4 = (json.loads(line) for line in capsys.readouterr().out.strip().splitlines())
    assert code == EXIT_USAGE
    assert over == {"line": 1, "error": "verification is capped at 9 vertices (got n = 10)"}
    assert k4["line"] == 2 and k4["egr"] is True and k4["signature"]["g"] == 3


@pytest.mark.parametrize("argv", [("--family", "gq_truncation", "--q", "3"), ("--family", "named", "--name", "complete_bipartite(6)")])
def test_report_prints_zero_eigenvalues_unsigned(capsys, argv):
    # both graphs have 0 as an eigenvalue; LAPACK may leave it as -0.0
    code, out, _ = run(capsys, "report", *argv)
    assert code == EXIT_OK
    spectrum = json.loads(out)["spectrum"]
    values = [spectrum["min"], spectrum["max"]] + [v for v, _ in spectrum["multiplicities"]]
    zeros = [v for v in values if v == 0]
    assert zeros and all(math.copysign(1.0, v) == 1.0 for v in zeros)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "named", "--name", "petersen"],
        ["construct", "--family", "named", "--name", "petersen", "--format", "json"],
        ["verify", "petersen.g6"],
        ["verify", "--stdin-g6-stream"],
        ["bounds", "-k", "3", "-g", "5", "-l", "4"],
        ["report", "--family", "named", "--name", "petersen"],
    ],
    ids=["construct-graph6", "construct-json", "verify", "verify-stream", "bounds", "report"],
)
def test_unwritable_out_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "petersen.g6").write_text(graph6_encode(petersen()) + "\n")
    code, out, err = run(capsys, *argv, "--out", "missing/x.json")
    assert code == EXIT_USAGE
    assert _one_error_line(err, "cannot write missing/x.json")
    assert out == "" and "Traceback" not in err and not (tmp_path / "missing").exists()


def test_verify_stream_writes_out_file_block_by_block(tmp_path, capsys, monkeypatch):
    import io
    from pathlib import Path

    data = Path(__file__).with_name("data")
    monkeypatch.setattr(graph_core, "MAX_DECODE_BYTES", 400)
    monkeypatch.setattr("sys.stdin", io.StringIO((data / "stream_sample.g6").read_text(encoding="utf-8")))
    out_path = tmp_path / "records.jsonl"
    code, out, err = run(capsys, "verify", "--stdin-g6-stream", "--out", str(out_path))
    assert code == EXIT_USAGE and out == "" and err == ""
    assert out_path.read_text(encoding="utf-8") == (data / "stream_sample.jsonl").read_text(encoding="utf-8")


def test_verify_path_and_stream_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "pet.g6"
    path.write_text(graph6_encode(petersen()) + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(petersen()) + "\n"))
    code, out, err = run(capsys, "verify", str(path), "--stdin-g6-stream")
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, "give a path or --stdin-g6-stream, not both")


def _broken(*args, **kwargs):
    raise RuntimeError("an unexpected fault\nover two lines")


@pytest.mark.parametrize(
    "argv,target",
    [
        (["construct", "--family", "named", "--name", "petersen"], "cli.verify_egr"),
        (["verify", "petersen.g6"], "cli.verify_many"),
        (["verify", "--stdin-g6-stream"], "graph_core._verify_union"),
        (["bounds", "-k", "3", "-g", "5", "-l", "4"], "cli.bound_report"),
        (["report", "--family", "named", "--name", "petersen"], "cli.certify_extremal"),
    ],
    ids=["construct", "verify", "verify-stream", "bounds", "report"],
)
def test_an_escaping_exception_is_an_internal_error(tmp_path, monkeypatch, capsys, argv, target):
    import io

    monkeypatch.chdir(tmp_path)
    (tmp_path / "petersen.g6").write_text(graph6_encode(petersen()) + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(petersen()) + "\n"))
    monkeypatch.setattr(f"egrtools.{target}", _broken)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err == "internal error: RuntimeError: an unexpected fault over two lines\n"
    assert "Traceback" not in err


# Each probe is just past its cap; the cap, not the backstop, must answer it.
@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", "--family", "named", "--name", "complete_bipartite(3001)"],
         "complete_bipartite(3001) is past the size cap complete_bipartite(3000)"),
        (["report", "--family", "named", "--name", "cycle(9000001)"], "cycle(9000001) is past the size cap cycle(9000000)"),
        (["construct", "--family", "biaffine1", "--q", "47"], "verification is capped at 4096 vertices (got n = 4418)"),
        (["report", "--family", "pencil", "--q", "11"], "report is capped at 2048 vertices (got n = 2928)"),
        (["bounds", "-k", "3", "-g", "12619", "-l", "1"], "bounds are capped at k**g <= 2**20000 (got k = 3, g = 12619)"),
    ],
    ids=["named-construct", "named-report", "verify-cap", "report-cap", "bounds-domain"],
)
def test_caps_answer_their_probes_before_the_backstop(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert _one_error_line(err, message) and "Traceback" not in err


# Every parser outcome, each compared with the full tree's: the top-level
# help and version, each command's help, an unknown and a missing command,
# and one usage error per command.
PARSER_CASES = [
    ["--help"],
    ["--version"],
    *[[command, "--help"] for command in cli._COMMANDS],
    ["nope"],
    [],
    ["construct", "--family", "pencil", "--q", "2", "--format", "xml"],
    ["verify", "a.g6", "b.g6"],
    ["bounds", "-k", "2", "-g", "5", "-l", "1"],
    ["report", "--family", "pencil", "--q", "2.5"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-command")
def test_one_command_parser_matches_the_full_parser(monkeypatch, capsys, argv):
    built = []
    for name, (help_line, add_arguments, handler) in cli._COMMANDS.items():
        def counted(p, name=name, add_arguments=add_arguments):
            built.append(name)
            add_arguments(p)

        monkeypatch.setitem(cli._COMMANDS, name, (help_line, counted, handler))
    routed = run(capsys, *argv)
    assert built == (argv[:1] if argv and argv[0] in cli._COMMANDS else list(cli._COMMANDS))
    full = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda command=None: full())
    assert run(capsys, *argv) == routed
    assert routed[0] == (EXIT_OK if {"--help", "--version"} & set(argv) else EXIT_USAGE)


@pytest.mark.parametrize(
    "argv,stdin",
    [
        # a 95 KB report, more than a pipe holds
        (["report", "--family", "biaffine1", "--q", "23"], ""),
        # one block of 5000 records, about 500 KB
        (["verify", "--stdin-g6-stream"], (graph6_encode(petersen()) + "\n") * 5000),
        # one block of 1000 records, about 100 KB
        (["verify", "--stdin-g6-stream"], (graph6_encode(petersen()) + "\n") * 1000),
    ],
    ids=["report", "stream", "stream-1000"],
)
def test_a_closed_stdout_exits_quietly(argv, stdin):
    # the writer is still writing when its reader closes after one line;
    # under PYTHONUNBUFFERED=1 stdout writes through to the pipe, which then
    # takes part of the write that is under way
    cmd = [sys.executable, "-m", "egrtools.cli", *argv]
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"} | unbuffered
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdin.write(stdin.encode())  # 50 KB at most, which the pipe holds
            proc.stdin.close()
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT, unbuffered


# the girths of the named graphs, from the literature
NAMED_GIRTHS = {"petersen": 5, "hoffman_singleton": 5, "heawood": 6, "tutte_coxeter": 8}


def test_no_report_passes_the_float64_moment_bound():
    # report asks eigenvalues for moments up to L = min(g + 1, 16), which
    # refuse k**L past 2**53; from the closed forms alone, every family at
    # every prime power q up to its cap and every named graph that passes
    # the report's vertex cap stays within 2**50 (K_{1024,1024} meets it);
    # a cycle, of degree 2, exits before the spectral stage
    assert set(NAMED_GIRTHS) == set(constructions._NAMED)
    signatures = []
    for family, row in FAMILIES.items():
        for q in range(2, constructions.MAX_ORDER[family] + 1):
            try:
                prime_power(q)
            except ValueError:
                continue
            signatures.append(row.signature(q)[:3])
    signatures += [(named_order(name), named_degree(name), g) for name, g in NAMED_GIRTHS.items()]
    sizes = range(1, constructions.MAX_NAMED_SIZE["complete_bipartite"] + 1)
    signatures += [(named_order(f"complete_bipartite({k})"), k, 4) for k in sizes]
    largest = max(k ** min(g + 1, MAX_MOMENT_LENGTH) for n, k, g in signatures if n <= MAX_MOMENT_VERTICES)
    assert largest == 2**50
