import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from egrtools import cli, graph_core
from egrtools.cli import EXIT_USAGE, main

DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize("block", [None, 1, 7])
def test_stream_sample_output_is_byte_identical(block, capsys, monkeypatch):
    # stream_sample.jsonl was recorded when the stream verified one line at
    # a time; the sample crosses a block boundary and holds blank and
    # malformed lines on both sides of it
    text = (DATA / "stream_sample.g6").read_text(encoding="utf-8")
    assert len(text.splitlines()) > cli.STREAM_BLOCK_LINES
    if block:
        monkeypatch.setattr(cli, "STREAM_BLOCK_LINES", block)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["verify", "--stdin-g6-stream"])
    out = capsys.readouterr().out
    assert out == (DATA / "stream_sample.jsonl").read_text(encoding="utf-8")
    assert code == EXIT_USAGE


def test_stream_blocks_set_no_graph_state(capsys, monkeypatch):
    # a decoded block reaches the block core as a union, with no Graph
    # whose colour classes could be kept
    unions = []
    verify_union = graph_core._verify_union

    def wrapped(u, graphs=()):
        unions.append(isinstance(u, graph_core._Union) and not graphs)
        return verify_union(u, graphs)

    def keep_sides(*args):
        raise AssertionError("a stream block set a Graph's colour classes")

    monkeypatch.setattr(graph_core, "_verify_union", wrapped)
    monkeypatch.setattr(graph_core, "_keep_sides", keep_sides)
    monkeypatch.setattr("sys.stdin", io.StringIO((DATA / "stream_sample.g6").read_text(encoding="utf-8")))
    assert main(["verify", "--stdin-g6-stream"]) == EXIT_USAGE
    assert capsys.readouterr().out == (DATA / "stream_sample.jsonl").read_text(encoding="utf-8")
    assert unions and all(unions)


class Recorder(io.StringIO):
    """stdout that logs each write and flush."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(("write", text.count("\n")))
        return super().write(text)

    def flush(self):
        self.calls.append(("flush", None))


def test_stream_writes_each_block_once_and_flushes(monkeypatch):
    text = (DATA / "stream_sample.g6").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    blocks = [lines[i : i + cli.STREAM_BLOCK_LINES] for i in range(0, len(lines), cli.STREAM_BLOCK_LINES)]
    out = Recorder()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    monkeypatch.setattr("sys.stdout", out)
    main(["verify", "--stdin-g6-stream"])
    # one record per nonblank line of each block
    records = [sum(bool(line.strip()) for line in block) for block in blocks]
    assert out.calls == [call for n in records for call in (("write", n), ("flush", None))]
    assert out.getvalue() == (DATA / "stream_sample.jsonl").read_text(encoding="utf-8")


def test_stream_run_leaves_numpy_ma_unimported():
    # np.unique and np.setdiff1d import numpy.ma: decoding and verifying a
    # stream, malformed lines included, uses neither
    script = (
        "import sys; from egrtools.cli import main; "
        "before = 'numpy.ma' in sys.modules; "
        "code = main(['verify', '--stdin-g6-stream']); "
        "print(code, before, 'numpy.ma' in sys.modules)"
    )
    sample = (DATA / "stream_sample.g6").read_text(encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", script], input=sample, capture_output=True, text=True, check=True)
    code, before, after = proc.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert (code, after) == (str(EXIT_USAGE), "False")


def _hostile_stream():
    """One stream of malformed lines and valid graphs of several orders,
    short and long form, with blank lines and graph6 headers between."""
    from egrtools.constructions import complete_bipartite, cycle_graph, heawood, petersen, tutte_coxeter
    from egrtools.graph_core import GRAPH6_MAX_N, Graph, graph6_encode

    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    good = [graph6_encode(G) for G in (petersen(), k4, heawood(), tutte_coxeter(), complete_bipartite(3))]
    big = GRAPH6_MAX_N + 1
    return [
        good[0],
        "~?",  # truncated long-form vertex count
        "",
        ">>graph6<<" + good[1],
        "~~???",  # truncated very-long-form vertex count
        "Ié" + good[0][2:],  # non-ASCII byte
        good[2] + "\r",
        "A@",  # n = 2: the one data bit is 0, a padding bit is not
        "~~" + "".join(chr(63 + ((big >> s) & 63)) for s in (30, 24, 18, 12, 6, 0)),  # n > GRAPH6_MAX_N
        good[0][:-1],  # a body byte short
        "   ",
        good[3] + "?",  # a body byte too many
        graph6_encode(cycle_graph(63)),  # long form, degree 2
        "I" + "\x7f" * 9,  # byte outside 63..126
        ">>graph6<<",
        graph6_encode(complete_bipartite(32)),  # long form, over the patched vertex cap
        good[4],
        "\t" + good[1] + "  ",
    ]


@pytest.mark.parametrize("block", [1, 3, 256])
def test_hostile_stream_gets_each_line_alone_verdict(block, capsys, monkeypatch):
    # each bad line gets the record of graph6_decode's error, each good line
    # that of verify_egr on it alone, whatever the block boundaries
    from egrtools.graph_core import NotEdgeGirthRegular, graph6_decode, verify_egr

    lines = _hostile_stream()
    monkeypatch.setattr(cli, "STREAM_BLOCK_LINES", block)
    monkeypatch.setattr("egrtools.graph_core.MAX_VERIFY_VERTICES", 63)
    expected, codes = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            sig = verify_egr(graph6_decode(line))
            record, code = {"egr": True, "signature": {"n": sig.n, "k": sig.k, "g": sig.g, "lambda": sig.lam, "bipartite": sig.bipartite}}, 0
        except NotEdgeGirthRegular as exc:
            failure = {"kind": exc.kind, "witness": repr(exc.witness), "message": str(exc)}
            record, code = {"egr": False, "failure": failure}, 1
        except ValueError as exc:  # Graph6Error, or a graph over the vertex cap
            record, code = {"error": str(exc)}, EXIT_USAGE
        expected.append(json.dumps(dict(record, line=lineno), sort_keys=True) + "\n")
        codes.append(code)
    kinds = [json.loads(r) for r in expected]
    assert sum("error" in r for r in kinds) == 10 and sum(r.get("egr") is True for r in kinds) == 5
    assert any(r.get("egr") is False for r in kinds)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["verify", "--stdin-g6-stream"])
    assert capsys.readouterr().out == "".join(expected)
    assert code == max(codes) == EXIT_USAGE
