"""Command-line front end: construct, verify, bounds, report.

Exit codes: 0 success (or verified egr), 1 verified-not-egr, 2 usage or
input error (an argument argparse rejects, a graph over the verify or
report vertex cap, a named graph of degree below 3, a bounds pair (k, g)
past bounds.MAX_BOUND_BITS, or an --out path that cannot be written,
included; each prints one ``error:`` line), 3 internal inconsistency (a
construction failed its own verification or its family's closed form, a
spectrum failed its exact moment check, or the float tight-spectrum
verdict disagreed with the exact one, the girth-4 bound met with equality
on the verified signature) or any other exception that escapes a command,
reported as one ``internal error:`` line without a traceback, and 141
(128 + SIGPIPE, what a shell reports for a writer a closed pipe ends)
when stdout is closed before the output is written, as by ``| head -1``,
with nothing on stderr.  A report
makes one ``eigenvalues`` call: the spectrum it returns carries the exact
moments the report prints, and the tight-spectrum certificate checks them
against the signature.  A stream verify reports each malformed or
oversized line and goes on; it exits with the largest code of any line.
It decodes and verifies a block of lines at a time as one union
(``_verify_block``), in the blocks of ``graph_core._blocks``: at most
graph_core.MAX_DECODE_BYTES characters, a longer line a block of its
own.  It writes each block's records straight from the rows of its
verdict table, each with one % of ints into its kind's template, byte
for byte ``json.dumps(record, sort_keys=True)``, before it reads the
next block (``_write_block``).
Reports are JSON with a frozen field layout (schema_version 1); rationals
are emitted as {num, den, decimal}, never as bare floats.

The subcommands are one table, ``_COMMANDS`` (name: help line, argument
adder, handler).  When the first argument names a command, ``main`` builds
that command's subparser alone under the top level, since argparse's
cost grows with the tree; ``--help``, ``--version`` and a missing or
unknown command build the full tree.  Either way every help, usage and
error text is the same.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from . import __version__, graph_core
from .bounds import MAX_BOUND_BITS, bound_report, certify_extremal, in_domain
from .constructions import FAMILIES, check_order, named_degree, named_graph, named_order
from .galois import GF, prime_power
from .graph_core import (
    EgrSignature,
    Graph,
    Graph6Error,
    NotEdgeGirthRegular,
    graph6_decode,
    graph6_encode,
    verify_egr,
    verify_many,
)
from .spectral import MAX_MOMENT_VERTICES, certify_tight_spectrum, eigenvalues

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NOT_EGR = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141

# stream records, as json.dumps(record, sort_keys=True) writes them
_EGR_LINE = '{"egr": true, "line": %d, "signature": {"bipartite": %s, "g": %d, "k": %d, "lambda": %d, "n": %d}}\n'
_ERROR_LINE = '{"error": %s, "line": %d}\n'

# the fields of a stream block's verdict-table rows, each row followed by its line number
_ROW_FIELDS = (*graph_core._Verdicts._fields, "line")


def _not_egr_line(failure: graph_core._Failure) -> tuple[str, itemgetter]:
    """The stream record of a failing kind, as one % template of ints, and
    the getter of the row fields it reads: the message's, the witness's and
    the line number.  JSON escapes no character of a decimal int, so the
    escaped % templates give the escaped message and witness."""
    template = (
        f'{{"egr": false, "failure": {{"kind": {_json_str(failure.kind)}, "message": {_json_str(failure.message)}, '
        f'"witness": {_json_str(failure.witness)}}}, "line": %d}}\n'
    )
    # with one field alone (the line number) the getter gives an int, which % takes as well
    return template, itemgetter(*map(_ROW_FIELDS.index, (*failure.reads, *failure.shown, "line")))


_NOT_EGR_LINES = {kind: _not_egr_line(failure) for kind, failure in graph_core._FAILURES.items()}
# the exit code of a stream line of each verdict-table kind
_EXIT_CODES = {graph_core.EGR: EXIT_OK, graph_core.OVER_CAP: EXIT_USAGE, **dict.fromkeys(_NOT_EGR_LINES, EXIT_NOT_EGR)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose errors print one ``error:`` line, not a usage block."""

    def error(self, message):
        raise UsageError(message)


def family_order(family: str, q: int | None = None, name: str | None = None) -> int:
    """Vertex count of the graph ``build_family`` builds for these
    arguments, from its closed form, after the argument checks that
    ``build_family`` makes and, for a named graph, a check of its degree
    in closed form: one below 3 can never verify; nothing is built.
    UsageError when a check fails, or when --q is given for the named
    family or --name for another, which would be recorded but not used."""
    if family not in FAMILIES and family != "named":
        raise UsageError(f"unknown family {family!r}; choose from {', '.join([*FAMILIES, 'named'])}")
    if family == "named":
        if name is None:
            raise UsageError("--name is required for the named family")
        if q is not None:
            raise UsageError("--q does not apply to the named family")
    elif q is None:
        raise UsageError(f"--q is required for family {family}")
    elif name is not None:
        raise UsageError(f"--name applies only to the named family, not {family}")
    try:
        if family == "named":
            k = named_degree(name)
            if k < 3:
                raise UsageError(f"{name} has degree {k}; verification needs degree k >= 3")
            return named_order(name)
        prime_power(q)
        check_order(family, q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return FAMILIES[family].signature(q)[0]


def build_family(family: str, q: int | None = None, name: str | None = None) -> Graph:
    family_order(family, q, name)
    try:
        return named_graph(name) if family == "named" else FAMILIES[family].build(GF(*prime_power(q)))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_closed_form(family: str, q: int | None, sig: EgrSignature) -> None:
    """ArithmeticError when a verified (n, k, g, lambda) is not its family's closed form."""
    if family in FAMILIES:
        got, expected = (sig.n, sig.k, sig.g, sig.lam), FAMILIES[family].signature(q)
        if got != expected:
            raise ArithmeticError(f"{family} q={q} verified as egr{got}, not its closed form egr{expected}")


def _rat_json(value) -> dict:
    fr = Fraction(value)
    try:
        decimal = f"{float(fr):.6f}"
    except OverflowError:  # past the float range: rounded exactly, half to even
        whole, frac = divmod(round(abs(fr) * 10**6), 10**6)
        decimal = f"{'-' if fr < 0 else ''}{whole}.{frac:06d}"
    return {"num": fr.numerator, "den": fr.denominator, "decimal": decimal}


def _signature_json(sig) -> dict:
    return {"n": sig.n, "k": sig.k, "g": sig.g, "lambda": sig.lam, "bipartite": sig.bipartite}


def _bounds_json(rep) -> dict:
    return {
        "k": rep.k,
        "g": rep.g,
        "lambda": rep.lam,
        "bipartite": rep.bipartite,
        "moore": rep.moore,
        "dfjr": rep.dfjr,
        "spectral_even": _rat_json(rep.spectral_even) if rep.spectral_even is not None else None,
        "spectral_odd": _rat_json(rep.spectral_odd) if rep.spectral_odd is not None else None,
        "vertex_cycle_cap": _rat_json(rep.vertex_cap) if rep.vertex_cap is not None else None,
        "contributions": dict(sorted(rep.contributions.items())),
        "best": rep.best,
        "notes": list(rep.notes),
    }


def _report_skeleton(argv) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "egrtools", "version": __version__},
        "command": list(argv),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write(path: str, text: str) -> None:
    """Write ``text`` and a newline to ``path``; UsageError when the path
    cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        _write(out_path, text)
    else:
        print(text, flush=True)


def cmd_construct(args, argv) -> int:
    n = family_order(args.family, args.q, args.name)
    if n > graph_core.MAX_VERIFY_VERTICES:
        raise UsageError(str(graph_core._cap_error(n)))
    G = build_family(args.family, args.q, args.name)
    sig = verify_egr(G)
    _check_closed_form(args.family, args.q, sig)
    if args.format == "graph6":
        graph = graph6_encode(G)
    else:
        graph = {
            "schema_version": SCHEMA_VERSION,
            "family": args.family,
            "q": args.q,
            "name": args.name,
            "signature": _signature_json(sig),
            "adjacency": G.adj,
            "labels": None if G.labels is None else list(G.labels),
        }
    summary = {"signature": _signature_json(sig)}
    if args.out:
        _write(args.out, graph if args.format == "graph6" else json.dumps(graph, indent=2, sort_keys=True))
    else:
        summary["graph"] = graph
    print(json.dumps(summary, indent=2, sort_keys=True), flush=True)
    return EXIT_OK


def _record_line(row) -> str:
    """The JSON line of a stream line, from its row of the block's verdict
    table (``graph_core._Verdicts``) followed by its line number."""
    kind = row[0]
    if kind == graph_core.EGR:
        _, n, k, g, lam, bipartite = row[:6]
        return _EGR_LINE % (row[-1], "true" if bipartite else "false", g, k, lam, n)
    if kind == graph_core.OVER_CAP:
        return _error_line(graph_core._cap_error(row[1]), row[-1])
    template, read = _NOT_EGR_LINES[kind]
    return template % read(row)


def _error_line(error: ValueError, line: int) -> str:
    """The JSON line of a stream line that is malformed or over the vertex cap."""
    return _ERROR_LINE % (_json_str(str(error)), line)


def _verify_block(lines: list[str], first: int) -> tuple[int, str]:
    """The largest exit code and the output text of a block of stream lines,
    the first of them line number ``first``: one union from the block
    decoder, one ``graph_core._verify_union`` call on it, and one record
    per nonblank line, from its row of the verdict table, or for a
    malformed line from its decode error."""
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=first) if line.strip()]
    errors, union = graph_core._decode_block([line for _, line in numbered])
    decoded = [lineno for (lineno, _), error in zip(numbered, errors) if error is None]
    table = graph_core._verify_union(union)
    records = [_record_line(row) for row in table.rows(decoded)]
    worst = max(map(_EXIT_CODES.__getitem__, set(table.kind.tolist())), default=EXIT_OK)
    if len(decoded) < len(numbered):  # each malformed line's record goes in its place
        worst, decoded_records = EXIT_USAGE, iter(records)
        records = [
            next(decoded_records) if error is None else _error_line(error, lineno)
            for (lineno, _), error in zip(numbered, errors)
        ]
    return worst, "".join(records)


def _write_block(out, text: str) -> None:
    """Write a block's records to ``out`` and flush.  Under
    PYTHONUNBUFFERED=1 sys.stdout writes through to a raw file, which may
    take part of a write, as a pipe whose reader closes mid-write does, and
    the text layer drops the rest without an error; so over a raw file the
    records' bytes are written until it has taken them all, and a closed
    reader raises BrokenPipeError at the next write."""
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        out.flush()
        return
    data = memoryview(text.encode(out.encoding))
    while data:
        data = data[raw.write(data) :]


def _verify_stream(out) -> int:
    """Verify stdin a block at a time (``graph_core._blocks``), writing
    each block's records to ``out`` before reading the next; the largest
    exit code of any line."""
    # a byte that is not UTF-8 fails its own line, as a lone surrogate
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")
    worst, first = EXIT_OK, 1
    for lines in graph_core._blocks(sys.stdin):
        code, text = _verify_block(lines, first)
        _write_block(out, text)
        worst, first = max(worst, code), first + len(lines)
    return worst


def cmd_verify(args, argv) -> int:
    if args.path and args.stdin_g6_stream:
        raise UsageError("give a path or --stdin-g6-stream, not both")
    if not args.path and not args.stdin_g6_stream:
        raise UsageError("verify needs a path or --stdin-g6-stream")
    if args.stdin_g6_stream:
        if not args.out:
            return _verify_stream(sys.stdout)
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
        with fh:
            return _verify_stream(fh)
    try:
        with open(args.path, errors="surrogateescape") as fh:
            G = graph6_decode(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {args.path}: {exc}") from None
    except Graph6Error as exc:
        raise UsageError(f"malformed graph6 input: {exc}") from None
    verdict = verify_many([G])[0]
    if isinstance(verdict, ValueError):  # over the verify vertex cap
        raise UsageError(str(verdict))
    doc = _report_skeleton(argv)
    if isinstance(verdict, NotEdgeGirthRegular):
        code, doc["egr"] = EXIT_NOT_EGR, False
        doc["failure"] = {"kind": verdict.kind, "witness": repr(verdict.witness), "message": str(verdict)}
    else:
        code, doc["egr"], doc["signature"] = EXIT_OK, True, _signature_json(verdict)
    doc["input"] = args.path
    _emit(doc, args.out)
    return code


def cmd_bounds(args, argv) -> int:
    if not in_domain(args.k, args.g):
        raise UsageError(f"bounds are capped at k**g <= 2**{MAX_BOUND_BITS} (got k = {args.k}, g = {args.g})")
    try:
        rep = bound_report(args.k, args.g, args.lam, args.bipartite)
    except ValueError as exc:
        raise UsageError(f"invalid triple: {exc}") from None
    doc = _report_skeleton(argv)
    # bounds in the domain run past Python's int-to-str digit limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        doc["bounds"] = _bounds_json(rep)
        _emit(doc, args.out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK


def cmd_report(args, argv) -> int:
    timing: dict[str, float] = {}
    doc = _report_skeleton(argv)
    doc["family"] = args.family
    doc["q"] = args.q
    doc["name"] = args.name

    n = family_order(args.family, args.q, args.name)
    if n > MAX_MOMENT_VERTICES:
        raise UsageError(f"report is capped at {MAX_MOMENT_VERTICES} vertices (got n = {n})")
    t0 = time.perf_counter()
    G = build_family(args.family, args.q, args.name)
    timing["construct"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sig = verify_egr(G)
    timing["verify"] = time.perf_counter() - t0
    _check_closed_form(args.family, args.q, sig)
    doc["signature"] = _signature_json(sig)
    doc["graph6"] = graph6_encode(G)

    t0 = time.perf_counter()
    try:
        spec = eigenvalues(G, length=min(sig.g + 1, 16))
        tight = certify_tight_spectrum(G, sig, spectrum=spec)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    timing["spectrum"] = time.perf_counter() - t0
    doc["moments"] = list(spec.moments)
    # + 0.0 prints a zero eigenvalue as 0.0, whichever sign the solver left
    doc["spectrum"] = {
        "min": round(spec.smallest, 9) + 0.0,
        "max": round(spec.largest, 9) + 0.0,
        "multiplicities": [[round(v, 9) + 0.0, m] for v, m in spec.groups],
    }
    doc["tight_spectrum"] = {"certified": tight.certified, "reason": tight.reason}

    t0 = time.perf_counter()
    verdict = certify_extremal(sig)
    timing["bounds"] = time.perf_counter() - t0
    doc["bounds"] = _bounds_json(verdict.report)
    doc["extremal"] = {
        "certified": verdict.certified,
        "gap": verdict.gap,
        "tight_bounds": list(verdict.tight_bounds),
        "statement": verdict.statement,
    }
    doc["timing"] = {k: round(v, 6) for k, v in timing.items()}
    _emit(doc, args.out)
    return EXIT_OK


def _out_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out")


def _family_arguments(p: argparse.ArgumentParser) -> None:
    _out_arguments(p)
    p.add_argument("--family", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--name")


def _construct_arguments(p: argparse.ArgumentParser) -> None:
    _family_arguments(p)
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _out_arguments(p)
    p.add_argument("path", nargs="?")
    p.add_argument("--stdin-g6-stream", action="store_true", help="verify one graph6 string per stdin line")


def _bounds_arguments(p: argparse.ArgumentParser) -> None:
    _out_arguments(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-l", "--lam", type=int, required=True, dest="lam")
    p.add_argument("--bipartite", action="store_true")


# each subcommand: its help line, the function adding its arguments, its handler
_COMMANDS = {
    "construct": ("build a graph family and print its signature", _construct_arguments, cmd_construct),
    "verify": ("verify a graph6 file for edge-girth-regularity", _verify_arguments, cmd_verify),
    "bounds": ("lower-bound report for a (k, g, lambda) triple", _bounds_arguments, cmd_bounds),
    "report": ("end-to-end construct/verify/spectrum/bounds report", _family_arguments, cmd_report),
}


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: the top level with every subcommand of
    _COMMANDS, or with ``command`` alone, which parses that command's
    arguments, and prints its help and errors, as the full tree does."""
    top = _Parser(
        prog="egrtools",
        description="Construct, verify, and certify edge-girth-regular graphs.",
    )
    top.add_argument("--version", action="version", version=f"egrtools {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for name in [command] if command else _COMMANDS:
        help_line, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(fn=handler)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # each command flushes what it writes to stdout, as the parser's help
    # is flushed here, so a closed stdout raises in main, not in the exit flush
    try:
        try:
            args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        except SystemExit:  # the parser's --help or --version
            sys.stdout.flush()
            return EXIT_OK
        return args.fn(args, ["egrtools"] + argv)
    except BrokenPipeError:
        # the reader is gone: point stdout at os.devnull, so that the exit
        # flush of what is still buffered does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotEdgeGirthRegular as exc:  # construct and report verify what they build
        print(f"internal error: construction failed verification: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
