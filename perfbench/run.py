"""egrtools benchmark harness: the command that runs one workload.

    python3 perfbench/run.py --workload report-grid --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads: report-grid, census-stream,
construct-grid (see perfbench/README.md).  The timed passes run in a
separate workload process (perfbench/worker.py) on one thread; this
process makes the inputs, measures set-up time, checks every output
against perfbench/reference.json or the census oracle, and prints one
JSON line of machine info followed by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Exits 2 without a result when the egrtools sources are
not under ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import census
from probe import PROBE_REF_S
from grid import CONSTRUCT_ITEMS, LAYER_COUNTS, LAYER_SECONDS, REPORT_ITEMS, item_key, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORKLOADS = ("report-grid", "census-stream", "construct-grid")
SETUP_SPAWNS = 9
# The census stream reaches the CLI as this many stdin streams, each timed
# on its own, so wall_s can be a sum of per-chunk medians over the passes.
CENSUS_CHUNKS = 10
SPECTRUM_TOL = 1e-6


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(src: str) -> tuple[float, float]:
    """Time from spawning a fresh interpreter to its having imported
    egrtools and egrtools.cli, less the child's CPU-speed probes: the median
    over SETUP_SPAWNS spawns (after one untimed spawn that writes the
    bytecode caches) raw, and at the reference CPU speed.  The child reports
    when each step ended: waiting with a timeout polls for its exit at up to
    50 ms intervals, too coarse to time the exit."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py")]
    env = worker_env(src)
    raw, scaled = [], []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.time()
        proc = subprocess.run(cmd, env=env, check=True, timeout=60, capture_output=True, text=True)
        child = json.loads(proc.stdout)
        wall = child["imported"] - t0 - (child["probed"] - child["start"])
        if i:
            raw.append(wall)
            scaled.append(wall / statistics.median(child["probes"]) * PROBE_REF_S)
    return statistics.median(raw), statistics.median(scaled)


def run_worker(job: dict, src: str) -> dict:
    """Write the job, run the workload process on it, return its result."""
    os.makedirs(job["work_dir"], exist_ok=True)
    job_path = os.path.join(job["work_dir"], "job.json")
    job["result_path"] = os.path.join(job["work_dir"], "result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        env=worker_env(src),
        check=True,
        timeout=max(150, 2 * job["seconds"] + 60),
    )
    with open(job["result_path"]) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# output checks: each returns a list of failure messages
# ----------------------------------------------------------------------


def spectrum_matches(got, want) -> bool:
    def close(a, b):
        return isinstance(a, (int, float)) and abs(a - b) <= SPECTRUM_TOL

    try:
        return (
            close(got["min"], want["min"])
            and close(got["max"], want["max"])
            and len(got["multiplicities"]) == len(want["multiplicities"])
            and all(close(g[0], w[0]) and g[1] == w[1] for g, w in zip(got["multiplicities"], want["multiplicities"]))
        )
    except (KeyError, TypeError, IndexError):
        return False


def check_report_doc(key: str, doc: dict, ref: dict) -> list[str]:
    """Compare every field the reference records; graph6 by sha256 and the
    spectrum within SPECTRUM_TOL."""
    bad = []
    for field, want in ref.items():
        if field == "graph6_sha256":
            ok = isinstance(doc.get("graph6"), str) and sha256(doc["graph6"]) == want
        elif field == "spectrum":
            ok = spectrum_matches(doc.get("spectrum"), want)
        else:
            ok = doc.get(field) == want
        if not ok:
            bad.append(field)
    return [f"{key}: report fields {bad} differ from the reference"] if bad else []


def check_report_pass(outputs: dict, reference: dict) -> list[str]:
    bad = []
    for key, rec in outputs.items():
        if rec.get("error") or rec["code"] != 0:
            bad.append(f"{key}: exit code {rec['code']} {rec.get('error', '')}")
            continue
        try:
            with open(rec["out"]) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            bad.append(f"{key}: unreadable report: {exc}")
            continue
        bad += check_report_doc(key, doc, reference[key])
    return bad


def check_report_replay(outputs: dict, reference: dict) -> list[str]:
    bad = []
    for key, rec in outputs.items():
        ref = reference[key]
        want = {
            "signature": ref.get("signature"),
            "graph6_sha256": ref.get("graph6_sha256"),
            "moments": ref.get("moments"),
            "tight_certified": ref.get("tight_spectrum", {}).get("certified"),
            "extremal_certified": ref.get("extremal", {}).get("certified"),
        }
        differ = [f for f, w in want.items() if w is not None and rec.get(f) != w]
        if "error" in rec:
            bad.append(f"{key}: replay raised {rec['error']}")
        elif differ:
            bad.append(f"{key}: replayed {differ} differ from the reference")
    return bad


def check_stream_output(rec: dict, expected: list[dict]) -> list[str]:
    """One failure per wrong, missing or extra line, and one for a wrong
    exit code (1 when any line is not egr, else 0)."""
    expected_code = 0 if all(e["egr"] for e in expected) else 1
    bad = []
    if rec.get("error") or rec["code"] != expected_code:
        bad.append(f"stream: exit code {rec['code']}, expected {expected_code} {rec.get('error', '')}")
    try:
        with open(rec["out"]) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        lines = []
        bad.append(f"stream: unreadable output: {exc}")
    for i, want in enumerate(expected):
        try:
            got = json.loads(lines[i]) if i < len(lines) else None
        except ValueError:
            got = None
        if got != want:
            bad.append(f"stream line {want['line']}: got {lines[i] if i < len(lines) else None!r}, expected {want}")
    bad += [f"stream: extra output line {line!r}" for line in lines[len(expected):]]
    return bad


def check_stream_replay(verdicts: list[dict], expected: list[dict]) -> list[str]:
    bad = []
    for got, want in zip(verdicts, expected):
        if want["egr"]:
            ok = got == {"egr": True, "signature": want["signature"]}
        else:
            fail = want["failure"]
            ok = got == {"egr": False, "kind": fail["kind"], "witness": fail["witness"]}
        if not ok:
            bad.append(f"stream line {want['line']}: replay got {got}")
    bad += ["stream: replay line count differs"] * abs(len(verdicts) - len(expected))
    return bad


def check_construct(outputs: dict, reference: dict) -> list[str]:
    return [f"{key}: {rec.get('error') or 'output differs from the reference'}"
            for key, rec in outputs.items() if rec != reference.get(key)]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def census_inputs(seed: int, bases: dict, work_dir: str, limit: int | None = None):
    """Write the seeded stream, or its first ``limit`` lines, as
    CENSUS_CHUNKS stdin files; return their paths, the expected records of
    each, and the stream's composition."""
    graphs = census.make_stream(seed, bases)[:limit]
    size = -(-len(graphs) // CENSUS_CHUNKS)
    paths, expected = [], []
    for c in range(0, len(graphs), size):
        paths.append(os.path.join(work_dir, f"stream-{seed}-{len(paths)}.g6"))
        expected.append([])
        with open(paths[-1], "w") as fh:
            for line, (_, _, n, edges) in enumerate(graphs[c : c + size], start=1):
                fh.write(census.encode(n, edges) + "\n")
                expected[-1].append(dict(census.expected_verdict(n, edges), line=line))
    kinds = {}
    for kind, _, _, _ in graphs:
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = {"lines": len(graphs), "chunks": len(paths), "kinds": kinds,
               "egr_lines": sum(e["egr"] for chunk in expected for e in chunk),
               "max_n": max(n for _, _, n, _ in graphs)}
    return paths, expected, summary


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool, reference: dict,
            report_items=REPORT_ITEMS, stream_limit: int | None = None) -> dict:
    """One benchmark run: inputs, set-up time, timed passes, output checks.
    Returns {"attempted", "failed", "failures", "metrics", "info"}."""
    src = os.path.join(root, "src")
    work_dir = os.path.join(root, ".perfbench_work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    job = {"workload": workload, "seconds": seconds, "trace": trace, "work_dir": work_dir,
           "report_items": [list(it) for it in report_items],
           "construct_items": [list(it) for it in CONSTRUCT_ITEMS]}
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    graphs_per_pass = {"report-grid": len(report_items), "construct-grid": len(CONSTRUCT_ITEMS)}.get(workload)
    t0 = time.perf_counter()
    if workload == "census-stream":
        bases = {name: rec["graph6"] for name, rec in reference["census_bases"].items()}
        job["stream_paths"], expected, info["stream"] = census_inputs(seed, bases, work_dir, stream_limit)
        graphs_per_pass = info["stream"]["lines"]
    info["input_s"] = time.perf_counter() - t0
    info["setup_raw_s"], setup_s = measure_setup(src)
    result = run_worker(job, src)

    failures, attempted = [], 0
    for p in result["passes"]:
        if workload == "report-grid":
            attempted += len(p["outputs"])
            failures += check_report_pass(p["outputs"], reference["report"])
        elif workload == "census-stream":
            for rec, want in zip(p["outputs"].values(), expected):
                attempted += len(want) + 1
                failures += check_stream_output(rec, want)
        else:
            attempted += len(p["outputs"])
            failures += check_construct(p["outputs"], reference["construct"])
    for p in result["traced_passes"]:
        if workload == "report-grid":
            attempted += len(p["outputs"])
            failures += check_report_replay(p["outputs"], reference["report"])
        elif workload == "census-stream":
            for verdicts, want in zip(p["outputs"].values(), expected):
                attempted += len(want)
                failures += check_stream_replay(verdicts, want)
        else:
            attempted += len(p["outputs"])
            failures += check_construct(p["outputs"], reference["construct"])

    walls = [p["wall"] for p in result["passes"]]
    failed = min(len(failures), attempted)
    if trace:
        metrics = layer_metrics(result, report_items)
    else:
        # Each unit's wall time in probe units, its median over the passes,
        # summed and scaled to the reference speed (see probe.py).
        units = result["passes"][0]["items"]
        wall = PROBE_REF_S * sum(
            statistics.median(p["items"][key] / p["probes"][key] for p in result["passes"]) for key in units)
        metrics = {
            "wall_s": (wall, "s"),
            "graphs_per_s": (graphs_per_pass / wall, "1/s"),
            "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
        }
    probes = [v for p in result["passes"] for v in p["probes"].values()]
    info.update({
        "passes": len(walls),
        "probe_median_s": statistics.median(probes),
        "raw_wall_s": statistics.median(walls),
        "pass_walls_s": walls,
        "traced_pass_walls_s": [p["wall"] for p in result["traced_passes"]],
        "graphs_per_pass": graphs_per_pass,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
        "egrtools_version": result["egrtools_version"],
    })
    return {"attempted": attempted, "failed": failed, "failures": failures, "metrics": metrics, "info": info}


def layer_metrics(result: dict, report_items) -> dict:
    """Per-layer means over the traced passes; cli.* from the untraced
    passes that alternate with them."""
    untraced, traced = result["passes"], result["traced_passes"]
    metrics = {}
    for name in LAYER_SECONDS:
        metrics[name] = (statistics.fmean(p["seconds"][name] for p in traced), "s")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (statistics.fmean(p["counts"][name] for p in traced), unit)
    untraced_wall = statistics.fmean(p["wall"] for p in untraced)
    span_total = sum(metrics[name][0] for name in LAYER_SECONDS)
    metrics["cli.other_s"] = (untraced_wall - span_total, "s")
    keys = dict.fromkeys(item_key(*it) for it in list(REPORT_ITEMS) + list(report_items))
    for key in keys:
        walls = [p["items"].get(key, 0.0) for p in untraced]
        metrics[f"cli.report.{key}_s"] = (statistics.fmean(walls), "s")
    metrics["trace.overhead_s"] = (statistics.fmean(p["wall"] for p in traced) - untraced_wall, "s")
    return metrics


def machine_info(root: str) -> dict:
    src = os.path.join(root, "src", "egrtools")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "egrtools", "__init__.py")):
        print("perfbench: no egrtools sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    try:
        out = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except subprocess.SubprocessError as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 1
    for msg in out["failures"][:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    info = dict(machine_info(root), **out["info"])
    print(json.dumps({"info": info}, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
