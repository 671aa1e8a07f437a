import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from egrtools import graph_core
from egrtools.cli import EXIT_USAGE, main

DATA = Path(__file__).with_name("data")


@pytest.mark.parametrize("budget", [2**12, 1, 7, 100], ids=["None", "1", "7", "100B"])
def test_stream_sample_output_is_byte_identical(budget, capsys, monkeypatch):
    # stream_sample.jsonl was recorded when the stream verified one line at
    # a time; the 16 KB sample spans several blocks under each budget (a
    # budget of 1 makes each line a block of its own) and holds blank and
    # malformed lines on both sides of a boundary
    text = (DATA / "stream_sample.g6").read_text(encoding="utf-8")
    monkeypatch.setattr(graph_core, "MAX_DECODE_BYTES", budget)
    assert len(text) > budget
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


class Lines:
    """stdin that logs each line it hands out in a Recorder's calls."""

    def __init__(self, text, calls):
        self.lines, self.calls = text.splitlines(keepends=True), calls

    def __iter__(self):
        for line in self.lines:
            self.calls.append(("read", None))
            yield line


def _calls_by_rule(lines) -> tuple[list, set]:
    """The reads, writes and flushes of a stream, by its rule written out,
    and which rules closed a block.  A block closes once it holds
    MAX_DECODE_BYTES characters ("budget"), and before a line that would
    take it past MAX_DECODE_BYTES ("bytes"); it is written, one record per
    nonblank line, and flushed as soon as it closes."""
    calls, block, closed = [], [], set()

    def close(limit):
        calls.extend([("write", sum(bool(line.strip()) for line in block)), ("flush", None)])
        closed.add(limit)
        block.clear()

    for line in lines:
        calls.append(("read", None))
        if block and sum(map(len, block)) + len(line) > graph_core.MAX_DECODE_BYTES:
            close("bytes")
        block.append(line)
        if sum(map(len, block)) >= graph_core.MAX_DECODE_BYTES:
            close("budget")
    if block:
        close("end")
    return calls, closed


def test_stream_writes_each_block_once_and_flushes(monkeypatch):
    text = (DATA / "stream_sample.g6").read_text(encoding="utf-8")
    # a budget under which the 281-line, 16 KB sample closes blocks by each
    # rule; its longest lines, as long as the budget, are blocks of their own
    monkeypatch.setattr(graph_core, "MAX_DECODE_BYTES", 241)
    expected, closed = _calls_by_rule(text.splitlines(keepends=True))
    assert {"bytes", "budget"} <= closed
    out = Recorder()
    monkeypatch.setattr("sys.stdin", Lines(text, out.calls))
    monkeypatch.setattr("sys.stdout", out)
    main(["verify", "--stdin-g6-stream"])
    assert out.calls == expected
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
    from oracles import degree_preserving_switch

    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    two_k4 = Graph.from_edges(8, [(i + a, j + a) for a in (0, 4) for i in range(4) for j in range(i + 1, 4)])
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
        "?",  # n = 0
        graph6_encode(two_k4),  # disconnected
        graph6_encode(Graph.from_edges(10, petersen().edges()[1:])),  # irregular
        graph6_encode(degree_preserving_switch(petersen())),  # nonuniform counts
        graph6_encode(cycle_graph(900)),  # 67 429 bytes, longer than the default block budget
    ]


@pytest.mark.parametrize("budget", [1, 3, 256, 16, 100, 1000], ids=["1", "3", "256", "16B", "100B", "1000B"])
def test_hostile_stream_gets_each_line_alone_verdict(budget, capsys, monkeypatch):
    # each bad line gets the record of graph6_decode's error, each good line
    # that of verify_egr on it alone, whatever the block boundaries; a
    # budget of 1 makes each line a block of its own
    from egrtools.graph_core import NotEdgeGirthRegular, graph6_decode, verify_egr

    lines = _hostile_stream()
    assert max(map(len, lines)) > graph_core.MAX_DECODE_BYTES
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
    # every failing kind of the verdict table, and the empty graph among them
    failures = [r["failure"] for r in kinds if r.get("egr") is False]
    assert {f["kind"] for f in failures} == {"disconnected", "not_regular", "degree_too_small", "nonuniform_cycle_counts"}
    assert any(f["message"] == "empty graph" for f in failures)
    # the references decode under the default budget
    monkeypatch.setattr(graph_core, "MAX_DECODE_BYTES", budget)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["verify", "--stdin-g6-stream"])
    assert capsys.readouterr().out == "".join(expected)
    assert code == max(codes) == EXIT_USAGE
