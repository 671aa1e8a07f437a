"""Workload process of the benchmark.

    python3 perfbench/worker.py JOB.json

Runs the timed passes of one workload against the egrtools package and
writes what it measured and what the package produced to the result path
named in the job.  It imports only egrtools (and with it numpy), so its
peak RSS is that of the workload, and it runs on one thread.  Checking the
outputs is left to run.py.

A pass is a sequence of timed units: the report items, the stdin chunks
of the census stream, or the construct-grid items.  An untraced unit
drives the CLI in-process (report-grid, census-stream) or the library
builders (construct-grid).  A traced unit replays the same public calls in
the same order, timing each call into its layer; in a traced run it
follows the untraced run of the same unit, so the two see the same CPU
speed.  Every unit starts with cold lru_caches, as a fresh CLI invocation
would.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback

import probe
from grid import CONSTRUCT_FIELD, LAYER_COUNTS, LAYER_SECONDS, WARMUP_ITEM, item_key, prime_power, report_argv, sha256

import egrtools
from egrtools import bounds, cli, constructions, galois, geometry, graph_core, spectral

now = time.perf_counter

BUILDERS = {
    "biaffine1": lambda F: constructions.build_biaffine(F, 1),
    "gq_truncation": constructions.build_gq_truncation,
    "ovoid_spread": constructions.build_ovoid_spread,
    "pencil": constructions.build_pencil_graph,
}
# lru_cached geometry a family's builder needs; called ahead of the builder
# in a traced unit so their cost lands in geometry.s, not constructions.s.
GEOMETRY = {
    "biaffine1": [geometry.pg2_geometry],
    "gq_truncation": [geometry.symplectic_gq],
    "ovoid_spread": [geometry.symplectic_gq],
    "pencil": [lambda F: geometry.pg_points(3, F), geometry.singer_pencil],
}
# Named graphs built from a geometry over GF(2).
NAMED_GEOMETRY = {"tutte_coxeter": geometry.symplectic_gq, "heawood": geometry.pg2_geometry}


def clear_caches() -> None:
    """Empty every lru_cache in the egrtools package."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "egrtools" or mod_name.startswith("egrtools."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def field_digest(F) -> str:
    """Hash of a field's modulus, generator and a fixed sample of products
    and inverses, through the public Field API."""
    sample = [((7919 * i) % F.q, (104729 * i + 1) % F.q) for i in range(1, 257)]
    doc = [F.q, F.modulus, F.generator, [F.mul(a, b) for a, b in sample], [F.inv(b) for _, b in sample if b]]
    return sha256(json.dumps(doc))


def peak_rss_kib() -> int:
    """Peak resident set of this process since exec, from VmHWM.  Not
    ru_maxrss: that keeps the high-water mark of the parent spawned from."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def error_text() -> str:
    return traceback.format_exc(limit=8)


class Trace:
    """Seconds and counts per layer, accumulated around public calls."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYER_SECONDS, 0.0)
        self.counts = dict.fromkeys(LAYER_COUNTS, 0)

    def call(self, layer: str, fn, *args):
        t0 = now()
        try:
            return fn(*args)
        finally:
            self.seconds[layer] += now() - t0

    def field(self, p: int, e: int):
        self.counts["galois.gf_calls"] += 1
        return self.call("galois.gf_s", galois.GF, p, e)

    def build(self, family: str, q: int | None, name: str | None = None):
        if family == "named":
            if name in NAMED_GEOMETRY:
                self.call("geometry.s", NAMED_GEOMETRY[name], self.field(2, 1))
            return self.call("constructions.s", constructions.named_graph, name)
        F = self.field(*prime_power(q))
        for fn in GEOMETRY[family]:
            self.call("geometry.s", fn, F)
        return self.call("constructions.s", BUILDERS[family], F)

    def encode(self, G) -> str:
        text = self.call("graph_core.g6_encode_s", graph_core.graph6_encode, G)
        self.counts["graph_core.g6_bytes"] += len(text)
        return text

    def verify(self, G):
        self.counts["graph_core.verify_calls"] += 1
        self.counts["graph_core.edges_verified"] += G.num_edges()
        return self.call("graph_core.verify_s", graph_core.verify_egr, G)


def signature_json(sig) -> dict:
    return {"n": sig.n, "k": sig.k, "g": sig.g, "lambda": sig.lam, "bipartite": sig.bipartite}


# ----------------------------------------------------------------------
# report-grid: units are report items (family, q, name)
# ----------------------------------------------------------------------


def report_units(job) -> list:
    return [(item_key(*item), item) for item in job["report_items"]]


def report_run(job, item, tag: str):
    out = os.path.join(job["work_dir"], f"report-{tag}-{item_key(*item)}.json")
    rec = {"out": out, "code": None}
    t0 = now()
    try:
        rec["code"] = cli.main(report_argv(*item, out))
    except Exception:
        rec["error"] = error_text()
    return now() - t0, rec


def report_trace(job, item, tr: Trace):
    family, q, name = item
    t0 = now()
    try:
        G = tr.build(family, q, name)
        sig = tr.verify(G)
        text = tr.encode(G)
        moments = tr.call("spectral.moments_s", spectral.walk_moments, G, min(sig.g + 1, 16))
        tr.counts["spectral.eigen_order_sum"] += G.n
        tr.call("spectral.eigen_s", spectral.eigenvalues, G)
        tight = tr.call("spectral.tight_s", spectral.certify_tight_spectrum, G, sig)
        verdict = tr.call("bounds.s", bounds.certify_extremal, sig)
    except Exception:
        return now() - t0, {"error": error_text()}
    wall = now() - t0
    return wall, {
        "signature": signature_json(sig),
        "graph6_sha256": sha256(text),
        "moments": moments,
        "tight_certified": tight.certified,
        "extremal_certified": verdict.certified,
    }


def report_warmup(job) -> None:
    report_run(job, WARMUP_ITEM, "warmup")


# ----------------------------------------------------------------------
# census-stream: units are the chunks of the stream, by index
# ----------------------------------------------------------------------


def census_units(job) -> list:
    return [(f"chunk{i}", i) for i in range(len(job["stream_texts"]))]


def run_stream(text: str, out_path: str):
    """`egrtools verify --stdin-g6-stream` in-process, stdout to a file.
    Returns (wall seconds, exit code or None, error text or None)."""
    saved_stdin = sys.stdin
    code, error = None, None
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        sys.stdin = io.StringIO(text)
        t0 = now()
        try:
            code = cli.main(["verify", "--stdin-g6-stream"])
        except Exception:
            error = error_text()
        finally:
            wall = now() - t0
            sys.stdin = saved_stdin
    return wall, code, error


def census_run(job, chunk: int, tag: str):
    out = os.path.join(job["work_dir"], f"stream-{tag}-{chunk}.jsonl")
    wall, code, error = run_stream(job["stream_texts"][chunk], out)
    return wall, {"out": out, "code": code, **({"error": error} if error else {})}


def census_trace(job, chunk: int, tr: Trace):
    verdicts = []
    t0 = now()
    for line in job["stream_texts"][chunk].splitlines():
        tr.counts["graph_core.g6_bytes"] += len(line)
        try:
            G = tr.call("graph_core.g6_decode_s", graph_core.graph6_decode, line)
            try:
                verdicts.append({"egr": True, "signature": signature_json(tr.verify(G))})
            except graph_core.NotEdgeGirthRegular as exc:
                verdicts.append({"egr": False, "kind": exc.kind, "witness": repr(exc.witness)})
        except Exception:
            verdicts.append({"error": error_text()})
    return now() - t0, verdicts


def census_warmup(job) -> None:
    head = "\n".join(job["stream_texts"][0].splitlines()[:20]) + "\n"
    run_stream(head, os.path.join(job["work_dir"], "warmup.jsonl"))


# ----------------------------------------------------------------------
# construct-grid: units are the CONSTRUCT_FIELD table build (None) and
# the (family, q) builds
# ----------------------------------------------------------------------


def construct_units(job) -> list:
    p, e = CONSTRUCT_FIELD
    return [(f"gf_{p}^{e}", None)] + [(item_key(f, q, None), (f, q)) for f, q in job["construct_items"]]


def construct_run(job, item, tag: str, tr: Trace | None = None):
    t0 = now()
    try:
        if item is None:
            F = tr.field(*CONSTRUCT_FIELD) if tr else galois.GF(*CONSTRUCT_FIELD)
        elif tr:
            text = tr.encode(tr.build(*item))
        else:
            family, q = item
            text = graph_core.graph6_encode(BUILDERS[family](galois.GF(*prime_power(q))))
    except Exception:
        return now() - t0, {"error": error_text()}
    wall = now() - t0
    return wall, {"field_sha256": field_digest(F)} if item is None else {"graph6_sha256": sha256(text)}


def construct_trace(job, item, tr: Trace):
    return construct_run(job, item, "traced", tr)


def construct_warmup(job) -> None:
    construct_run(job, ("biaffine1", 3), "warmup")


WORKLOADS = {
    "report-grid": (report_units, report_run, report_trace, report_warmup),
    "census-stream": (census_units, census_run, census_trace, census_warmup),
    "construct-grid": (construct_units, construct_run, construct_trace, construct_warmup),
}


def run(job: dict) -> dict:
    """Passes over the workload's units until job["seconds"] have passed;
    at least one.  Another pass starts only while at least half of it fits
    in the time left.  With job["trace"], each unit is run untraced and then
    traced.  An untraced unit records its wall time less the probes sampled
    during it, and the median of those probes and of the bursts before and
    after it (see probe.py)."""
    units_of, run_unit, trace_unit, warmup = WORKLOADS[job["workload"]]
    if job.get("stream_paths"):
        job["stream_texts"] = []
        for path in job["stream_paths"]:
            with open(path) as fh:
                job["stream_texts"].append(fh.read())
    units = units_of(job)
    warmup(job)
    passes, traced_passes = [], []
    sampler = probe.Sampler()
    start = now()
    before = probe.burst()
    while True:
        tag = str(len(passes))
        untraced = {"items": {}, "outputs": {}, "probes": {}}
        traced = {"items": {}, "outputs": {}}
        tr = Trace()
        for key, spec in units:
            clear_caches()
            with sampler:
                wall, untraced["outputs"][key] = run_unit(job, spec, tag)
            after = probe.burst()
            untraced["items"][key] = wall - sum(sampler.samples)
            untraced["probes"][key] = statistics.median(before + sampler.samples + after)
            before = after
            if job["trace"]:
                clear_caches()
                traced["items"][key], traced["outputs"][key] = trace_unit(job, spec, tr)
                before = probe.burst()
        untraced["wall"] = sum(untraced["items"].values())
        passes.append(untraced)
        last = untraced["wall"]
        if job["trace"]:
            traced.update(wall=sum(traced["items"].values()), seconds=tr.seconds, counts=tr.counts)
            traced_passes.append(traced)
            last += traced["wall"]
        if now() - start + last / 2 >= job["seconds"]:
            break
    return {
        "passes": passes,
        "traced_passes": traced_passes,
        "peak_rss_kib": peak_rss_kib(),
        "egrtools_version": egrtools.__version__,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: worker.py JOB.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
