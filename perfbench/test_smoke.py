"""Smoke test of the benchmark harness on one tiny case: the petersen
report and a 20-line census stream, untraced and traced.  No timing gate.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import census  # noqa: E402
import run  # noqa: E402

PETERSEN = ("named", None, "petersen")


@pytest.fixture(scope="module")
def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE_PATH) as fh:
        ref = json.load(fh)
    # Independent of egrtools: the networkx labelling of the Petersen graph
    # is the one egrtools builds (outer 5-cycle, spokes, inner pentagram).
    ref["report"]["named_petersen"] = {
        "graph6_sha256": hashlib.sha256(b"IheA@GUAo").hexdigest(),
        "signature": {"n": 10, "k": 3, "g": 5, "lambda": 4, "bipartite": False},
        "tight_spectrum": {"certified": False,
                           "reason": "precondition violated: need bipartite girth 4, got girth 5, non-bipartite"},
    }
    return ref


def metric_names(bench_spec, kind):
    return {m["name"] for m in bench_spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
def test_petersen_report(bench_spec, reference, trace):
    out = run.measure(ROOT, "report-grid", 0, 0, trace, reference, report_items=[PETERSEN])
    assert out["failures"] == []
    assert out["attempted"] == (2 if trace else 1)
    names = set(out["metrics"])
    if trace:
        assert names == metric_names(bench_spec, "per_layer") | {"cli.report.named_petersen_s"}
    else:
        assert names == metric_names(bench_spec, "end_to_end")
        assert out["metrics"]["ok_frac"][0] == 1.0


def test_wrong_report_field_is_a_failure(reference):
    wrong = json.loads(json.dumps(reference))
    wrong["report"]["named_petersen"]["signature"]["lambda"] = 5
    out = run.measure(ROOT, "report-grid", 0, 0, False, wrong, report_items=[PETERSEN])
    assert out["failed"] == 1
    assert out["metrics"]["ok_frac"][0] == 0.0


def test_census_stream_20_lines(bench_spec, reference):
    out = run.measure(ROOT, "census-stream", 3, 0, True, reference, stream_limit=20)
    assert out["failures"] == []
    assert out["info"]["stream"]["lines"] == 20
    # every line and each chunk's exit code, then every line of the traced replay
    assert out["attempted"] == 20 + out["info"]["stream"]["chunks"] + 20
    metrics = {name: value for name, (value, _) in out["metrics"].items()}
    assert set(metrics) == metric_names(bench_spec, "per_layer")
    assert metrics["graph_core.verify_calls"] == 20
    # The traced spans plus cli.other_s make up the untraced wall time.
    spans = sum(metrics[name] for name in run.LAYER_SECONDS) + metrics["cli.other_s"]
    assert spans == pytest.approx(out["info"]["pass_walls_s"][0])


def test_oracle_agrees_with_networkx(reference):
    bases = {name: rec["graph6"] for name, rec in reference["census_bases"].items()}
    for kind, source, n, edges in census.make_stream(5, bases)[:20]:
        verdict = census.expected_verdict(n, edges)
        if kind == "egr_relabel":
            assert verdict == {"egr": True, "signature": reference["census_bases"][source]["signature"]}
        if verdict.get("failure", {}).get("kind") != "disconnected":
            assert census.nb_girth_counts(n, edges) == census.networkx_edge_counts(n, edges)
