"""Record perfbench/reference.json from the egrtools sources under ./src.

    python3 perfbench/record_reference.py

Run from the repository root, on the commit whose outputs are the
reference (a benchmark change that moves the grid, not a change that
claims a gain).  Records:

- report: every report-grid report, less the fields that vary by run
  (timestamp, timing, command), with graph6 replaced by its sha256;
- construct: the sha256 of each construct-grid graph6 string and of a
  sample of GF(2^16) arithmetic;
- census_bases: graph6 and signature of each egr graph the census stream
  relabels and switches, cross-checked against the networkx oracle.
"""

from __future__ import annotations

import json
import os
import sys

import census
import run
from grid import CONSTRUCT_ITEMS, REPORT_ITEMS, sha256

UNCOMPARED_REPORT_FIELDS = ("timestamp", "timing", "command")

CENSUS_BASES = {
    "petersen": ("named", None, "petersen"),
    "heawood": ("named", None, "heawood"),
    "tutte_coxeter": ("named", None, "tutte_coxeter"),
    "hoffman_singleton": ("named", None, "hoffman_singleton"),
    **{f"complete_bipartite_{k}": ("named", None, f"complete_bipartite({k})") for k in (3, 4, 5, 6)},
    **{f"biaffine1_q{q}": ("biaffine1", q, None) for q in (3, 4, 5)},
    "gq_truncation_q3": ("gq_truncation", 3, None),
    "pencil_q2": ("pencil", 2, None),
}


def one_pass(root: str, workload: str) -> dict:
    job = {"workload": workload, "seconds": 0, "trace": False, "work_dir": os.path.join(root, ".perfbench_work"),
           "report_items": REPORT_ITEMS, "construct_items": CONSTRUCT_ITEMS}
    (p,) = run.run_worker(job, os.path.join(root, "src"))["passes"]
    return p["outputs"]


def record_report(root: str) -> dict:
    out = {}
    for key, rec in one_pass(root, "report-grid").items():
        if rec["code"] != 0:
            raise RuntimeError(f"{key}: exit code {rec['code']} {rec.get('error', '')}")
        with open(rec["out"]) as fh:
            doc = json.load(fh)
        for field in UNCOMPARED_REPORT_FIELDS:
            del doc[field]
        doc["graph6_sha256"] = sha256(doc.pop("graph6"))
        out[key] = doc
    return out


def record_census_bases(root: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from egrtools.cli import build_family
    from egrtools.graph_core import graph6_encode, verify_egr
    from worker import signature_json

    out = {}
    for name, (family, q, gname) in CENSUS_BASES.items():
        G = build_family(family, q, gname)
        text = graph6_encode(G)
        n, edges = census.decode(text)
        verdict = census.expected_verdict(n, edges)
        if census.networkx_edge_counts(n, edges) != census.nb_girth_counts(n, edges):
            raise RuntimeError(f"{name}: oracle and networkx cycle counts disagree")
        if verdict != {"egr": True, "signature": signature_json(verify_egr(G))}:
            raise RuntimeError(f"{name}: oracle verdict {verdict} disagrees with verify_egr")
        out[name] = {"graph6": text, "signature": verdict["signature"]}
    return out


def main() -> int:
    root = os.getcwd()
    reference = {
        "report": record_report(root),
        "construct": one_pass(root, "construct-grid"),
        "census_bases": record_census_bases(root),
    }
    with open(run.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
