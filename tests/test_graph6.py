import io
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

from egrtools.constructions import (
    build_biaffine,
    build_gq_truncation,
    build_pencil_graph,
    cycle_graph,
    petersen,
)
from egrtools import cli, graph_core
from egrtools.galois import GF
from egrtools.graph_core import (
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    graph6_decode,
    graph6_decode_many,
    graph6_encode,
)

nx = pytest.importorskip("networkx")


def random_graph(rng, n):
    p = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_roundtrip_100_random_graphs():
    rng = random.Random(424242)
    for _ in range(100):
        G = random_graph(rng, rng.randint(0, 64))
        assert graph6_decode(graph6_encode(G)) == G


def test_matches_networkx_encoding():
    rng = random.Random(99)
    sizes = [rng.randint(1, 40) for _ in range(50)] + [rng.randint(63, 90) for _ in range(8)]
    for n in sizes:
        G = random_graph(rng, n)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(G.n))
        nxg.add_edges_from(G.edges())
        assert graph6_encode(G) == nx.to_graph6_bytes(nxg, header=False).decode().strip()


def test_roundtrip_constructed_graphs():
    for G in (
        petersen(),
        build_biaffine(GF(3), 1),
        build_biaffine(GF(3), 2),
        build_gq_truncation(GF(3)),
        build_pencil_graph(GF(2)),
    ):
        assert graph6_decode(graph6_encode(G)) == G


def test_known_vectors():
    K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert graph6_encode(K4) == "C~"
    assert graph6_decode("C~") == K4
    empty = Graph([])
    assert graph6_encode(empty) == "?"
    single = Graph([[]])
    assert graph6_encode(single) == "@"


def test_census_form_of_the_pentagon():
    # "DqK" is the 5-cycle as census tools label it
    G = graph6_decode("DqK")
    assert G.n == 5
    assert all(G.degree(v) == 2 for v in range(5))
    assert nx.girth(nx.Graph(G.edges())) == 5
    assert graph6_encode(G) == "DqK"


def test_header_is_stripped():
    s = graph6_encode(cycle_graph(5))
    assert graph6_decode(">>graph6<<" + s) == cycle_graph(5)


def test_long_form_vertex_count():
    G = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    s = graph6_encode(G)
    assert s.startswith("~")
    assert graph6_decode(s) == G


MALFORMED = [
    "",  # empty
    "~",  # truncated long-form count
    "~~~",  # truncated very-long-form count
    chr(62),  # byte below range
    "D",  # n=5 with no adjacency bytes
    "DqKK",  # extra adjacency byte
    "Dq",  # missing adjacency byte
    "D\x7fK",  # byte above range (127)
    "AC",  # nonzero padding bits for n=2
    "Bé",  # non-ASCII
]


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(Graph6Error):
        graph6_decode(bad)


# (input, offset, message) as the decoder reports them
MALFORMED_REPORTS = [
    ("", 0, "empty graph6 input (byte 0)"),
    ("~~~", 3, "truncated very-long-form vertex count (byte 3)"),
    (chr(62), 0, "byte 62 outside graph6 range 63..126 (byte 0)"),
    ("DqKK", 1, "expected 2 adjacency bytes for n=5, got 3 (byte 1)"),
    ("D\x7fK", 1, "byte 127 outside graph6 range 63..126 (byte 1)"),
    ("AC", 1, "nonzero padding bits (byte 1)"),
    ("DqL", 2, "nonzero padding bits (byte 2)"),  # the 5-cycle "DqK" with a padding bit set
    ("Bé", 1, "non-ASCII byte in graph6 input (byte 1)"),
]


@pytest.mark.parametrize("bad,offset,message", MALFORMED_REPORTS)
def test_malformed_inputs_report_offset_and_message(bad, offset, message):
    with pytest.raises(Graph6Error) as info:
        graph6_decode(bad)
    assert info.value.offset == offset
    assert str(info.value) == message


def test_decode_enforces_size_cap():
    # very-long-form vertex count with no adjacency bytes: at the cap the
    # payload length is what fails, one above it the cap fails first
    def header(n):
        return "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))

    with pytest.raises(Graph6Error, match="expected"):
        graph6_decode(header(GRAPH6_MAX_N))
    with pytest.raises(Graph6Error, match="capped") as info:
        graph6_decode(header(GRAPH6_MAX_N + 1))
    assert info.value.offset == 0


def test_malformed_reports_offset():
    try:
        graph6_decode(chr(62))
    except Graph6Error as exc:
        assert exc.offset == 0


def test_decoder_fuzz_never_raises_anything_else():
    rng = random.Random(31337)
    for _ in range(500):
        text = "".join(chr(rng.randint(1, 255)) for _ in range(rng.randint(0, 30)))
        try:
            G = graph6_decode(text)
        except Graph6Error:
            continue
        assert isinstance(G, Graph)


def test_closed_form_column():
    # bit v(v-1)/2 starts column v, at u = 0, and the bit before it ends
    # column v-1, at u = v-2: every v up to 2000, sampled v up to
    # GRAPH6_MAX_N, and v near 2**30, where 2i + 1/4 is rounded in float64
    # and the float root can land one column high; then sampled bits
    rng = np.random.default_rng(2000)
    v = np.concatenate((
        np.arange(2, 2001),
        rng.integers(2001, GRAPH6_MAX_N, 5000),
        [GRAPH6_MAX_N],
        rng.integers(2**30 - 2**20, 2**30, 5000),
    ))
    start = v * (v - 1) // 2
    bits = np.concatenate((start, start - 1, [0], rng.integers(0, GRAPH6_MAX_N * (GRAPH6_MAX_N - 1) // 2, 5000)))
    u, column = graph_core._column(bits)
    assert u.dtype == column.dtype == np.int64
    assert column.tolist() == [(1 + math.isqrt(1 + 8 * i)) // 2 for i in bits.tolist()]
    assert (u == bits - column * (column - 1) // 2).all()
    m = len(v)
    assert (column[:m] == v).all() and not u[:m].any()
    assert (column[m : 2 * m] == v - 1).all() and (u[m : 2 * m] == v - 2).all()
    # the float form alone lands one column high on some of them, never low
    miss = (np.sqrt(2.0 * bits + 0.25) + 0.5).astype(np.int64) - column
    assert set(miss.tolist()) == {0, 1}


def nx_graph6(G) -> str:
    """G's graph6 string as networkx writes it."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(G.n))
    nxg.add_edges_from(G.edges())
    return nx.to_graph6_bytes(nxg, nodes=range(G.n), header=False).decode().strip()


def nx_reference(line: str) -> Graph:
    """The graph of a graph6 line, decoded by networkx and built with
    ``Graph.from_edges``."""
    nxg = nx.from_graph6_bytes(line.encode())
    return Graph.from_edges(nxg.number_of_nodes(), list(nxg.edges()))


def assert_same_csr(G: Graph, H: Graph):
    for name in ("indptr", "indices", "deg"):
        a, b = getattr(G, name), getattr(H, name)
        assert a.dtype == b.dtype == np.int64 and not a.flags.writeable
        assert np.array_equal(a, b), name


def test_block_decoder_matches_networkx_and_from_edges():
    rng = random.Random(2718)
    lines = []
    for n in (0, 1, 2, 62, 63, 100):
        for p in (0.0, 0.05, 0.5, 1.0):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            lines.append(nx_graph6(Graph.from_edges(n, edges)))
    rng.shuffle(lines)
    for line, G in zip(lines, graph6_decode_many(lines)):
        assert_same_csr(G, nx_reference(line))


def test_block_decoder_on_the_stream_sample():
    text = (Path(__file__).with_name("data") / "stream_sample.g6").read_text(encoding="utf-8")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    decoded = graph6_decode_many(lines)
    graphs = [(line, G) for line, G in zip(lines, decoded) if isinstance(G, Graph)]
    assert len(graphs) > 200
    for line, G in graphs:
        assert_same_csr(G, nx_reference(line))


@pytest.mark.parametrize("bad,offset,message", MALFORMED_REPORTS)
def test_malformed_line_inside_a_block(bad, offset, message):
    # the valid neighbours share the malformed line's vertex count where
    # its first byte gives one
    n = ord(bad[0]) - 63 if bad and 63 <= ord(bad[0]) < 126 else 5
    rng = random.Random(n)
    neighbours = [random_graph(rng, n) for _ in range(6)]
    lines = [graph6_encode(G) for G in neighbours]
    decoded = graph6_decode_many(lines[:3] + [bad] + lines[3:])
    error = decoded.pop(3)
    assert isinstance(error, Graph6Error)
    assert error.offset == offset and str(error) == message
    for G, H in zip(decoded, neighbours):
        assert_same_csr(G, H)


def test_block_decoder_memory_stays_near_the_input_size():
    # 64 relabelled cycles on 2000 vertices: 21 MB of graph6 that would
    # unpack to 170 MB of bits at one byte per bit
    rng = random.Random(64)
    n = 2000
    lines = []
    for _ in range(64):
        perm = rng.sample(range(n), n)
        lines.append(graph6_encode(Graph.from_edges(n, [(perm[i], perm[(i + 1) % n]) for i in range(n)])))
    size = sum(map(len, lines))
    tracemalloc.start()
    try:
        graphs = graph6_decode_many(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(G.num_edges() == n and (G.deg == 2).all() for G in graphs)
    assert peak < 2 * size


def _alone(line: str):
    """graph6_decode on one line, its Graph6Error taken as the result."""
    try:
        return graph6_decode(line)
    except Graph6Error as exc:
        return exc


def assert_same_result(got, want):
    if isinstance(want, Graph6Error):
        assert isinstance(got, Graph6Error)
        assert (str(got), got.offset) == (str(want), want.offset)
    else:
        assert_same_csr(got, want)


def mixed_orders(rng) -> list[str]:
    """Graphs on 0, 1, 2, 62 and 63 vertices (the first long-form count),
    twice each, with a malformed line after each."""
    bad = [line for line, _, _ in MALFORMED_REPORTS]
    lines = []
    for i, n in enumerate((0, 1, 2, 62, 63, 63, 62, 2, 1, 0)):
        lines += [graph6_encode(random_graph(rng, n)), bad[i % len(bad)]]
    return lines


def test_one_pass_over_mixed_orders_matches_each_line_alone():
    lines = mixed_orders(random.Random(63))
    assert sum(line.startswith("~") for line in lines[::2]) == 2
    decoded = graph6_decode_many(lines)
    assert [isinstance(G, Graph) for G in decoded] == [True, False] * 10
    for line, got in zip(lines, decoded):
        assert_same_result(got, _alone(line))


@pytest.mark.parametrize("chunk", [1, 5, 7, 100])
def test_decode_chunks_may_end_inside_a_body(chunk, monkeypatch):
    lines = mixed_orders(random.Random(chunk))
    expected = [_alone(line) for line in lines]
    # the bodies on 62 and 63 vertices take 316 and 326 bytes
    monkeypatch.setattr(graph_core, "UNPACK_BYTES", chunk)
    for got, want in zip(graph6_decode_many(lines), expected):
        assert_same_result(got, want)


def test_decode_many_reads_a_list_over_the_budget_block_by_block(monkeypatch):
    # 20 lines, about 1.5 KB, under a 400-byte budget: each block of
    # _blocks is decoded on its own, and each line decodes as it does alone
    lines = mixed_orders(random.Random(400))
    expected = [_alone(line) for line in lines]
    blocks = []
    decode_block = graph_core._decode_block

    def recorded(texts):
        blocks.append(texts)
        return decode_block(texts)

    monkeypatch.setattr(graph_core, "MAX_DECODE_BYTES", 400)
    monkeypatch.setattr(graph_core, "_decode_block", recorded)
    decoded = graph6_decode_many(lines)
    assert len(blocks) > 2 and [line for block in blocks for line in block] == lines
    for block, after in zip(blocks, blocks[1:]):
        # a block closes once it holds the budget or before a line that would pass it
        size = sum(map(len, block))
        assert (size <= 400 or len(block) == 1) and (size >= 400 or size + len(after[0]) > 400)
    assert len(decoded) == len(lines)
    for got, want in zip(decoded, expected):
        assert_same_result(got, want)


def _count(n: int, form: str) -> str:
    """The vertex count n in graph6's short, long or very-long form."""
    if form == "short":
        return chr(63 + n)
    shifts = (12, 6, 0) if form == "long" else (30, 24, 18, 12, 6, 0)
    return "~" * (1 if form == "long" else 2) + "".join(chr(63 + ((n >> s) & 63)) for s in shifts)


def _mutations(rng, line: str, n: int) -> list[str]:
    """Malformed and non-canonical variants of a valid graph6 line."""
    k = rng.randrange(len(line))
    out = chr(rng.choice([*range(0, 63), 127]))
    found = [
        line[:k] + out + line[k + 1 :],  # a byte out of range
        line[:k] + line[k + 1 :],  # one byte missing
        line[:k] + chr(rng.randint(63, 126)) + line[k:],  # one byte extra
        ">>graph6<<" + line,
        line + "\r\n",
        "\t" + line,
        line + "\t",
        "  " + line,
        line[:k] + "é" + line[k:],
        line[:k] + "\u2003" + line[k + 1 :],  # in place of a byte
        line + "\xa0",  # non-ASCII whitespace, stripped
        " " + line,
    ]
    pad = (-(n * (n - 1) // 2)) % 6
    if pad:  # set a padding bit
        found.append(line[:-1] + chr(63 + ((ord(line[-1]) - 63) | 1 << rng.randrange(pad))))
    return found


def differential_corpus(seed: int) -> list[str]:
    """Seeded graph6 lines: valid ones on 0, 1, 2, 62 and 63 vertices and a
    few more, in every count form that holds n, each with its mutations
    (``_mutations``); blank lines; and bare counts at the long-form and
    very-long-form boundaries and at the decoder's cap."""
    rng = random.Random(seed)
    lines = ["", "  ", "\t", "\r"]
    for n in (0, 1, 2, 5, 62, 63, 64, 90):
        for p in (0.0, 0.1, 0.5, 1.0):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            text = nx_graph6(Graph.from_edges(n, edges))
            body = text[len(_count(n, "short" if n <= 62 else "long")) :]
            for form in ("short", "long", "very-long")[n > 62 :]:
                line = _count(n, form) + body
                lines += [line, *_mutations(rng, line, n)]
    for n, forms in ((62, ("short",)), (258047, ("long", "very-long")), (258048, ("very-long",)),
                     (GRAPH6_MAX_N, ("very-long",)), (GRAPH6_MAX_N + 1, ("very-long",))):
        lines += [_count(n, form) for form in forms]
    rng.shuffle(lines)
    return lines


def _reference(line: str):
    """oracles.graph6_line on one line, its Graph6Error taken as the result."""
    try:
        return oracles.graph6_line(line)
    except Graph6Error as exc:
        return exc


def test_block_decoder_matches_the_per_line_reference():
    lines = differential_corpus(29)
    decoded = graph6_decode_many(lines + [line + "\n" for line in lines])
    wanted = [_reference(line) for line in lines] * 2
    assert 100 < sum(isinstance(G, Graph) for G in wanted) < len(wanted) - 100
    for got, want in zip(decoded, wanted):
        assert_same_result(got, want)


@pytest.mark.parametrize("block", [1, 7, None])
def test_stream_blocks_match_the_per_line_reference(block, monkeypatch, capsys):
    # every stream block's decode, line for line, and every malformed line's
    # record, against the reference on the line alone, with blocks of one
    # line (a budget of 1 byte), of a few short lines (7 bytes) and of the
    # default budget; a line with a newline in it would be two stream lines
    lines = [line for line in differential_corpus(block or 0) if "\n" not in line]
    seen = []
    decode_block = graph_core._decode_block

    def recorded(texts):
        errors, union = decode_block(texts)
        graphs = iter(Graph._from_csr(indptr, cols, None) for indptr, cols, _ in graph_core._split(union))
        seen.extend((text, next(graphs) if error is None else error) for text, error in zip(texts, errors))
        return errors, union

    if block:
        monkeypatch.setattr(graph_core, "MAX_DECODE_BYTES", block)
    monkeypatch.setattr(graph_core, "_decode_block", recorded)
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    cli.main(["verify", "--stdin-g6-stream"])
    records = [json.loads(record) for record in capsys.readouterr().out.splitlines()]
    nonblank = [(number, line) for number, line in enumerate(lines, start=1) if line.strip()]
    assert [text for text, _ in seen] == [line + "\n" for _, line in nonblank]
    assert len(records) == len(nonblank)
    for (number, line), (_, got), record in zip(nonblank, seen, records):
        want = _reference(line)
        assert_same_result(got, want)
        if isinstance(want, Graph6Error):
            assert record == {"error": str(want), "line": number}
