import io
import subprocess
import sys
from pathlib import Path

import pytest

from egrtools import cli
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
