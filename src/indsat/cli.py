"""Command-line entry point.

Subcommands: construct, verify, search, enumerate, encode, formula,
facts, saturate.  Each subcommand returns its output and writes nothing
to stdout: construct/encode return their text file document, the
numeric subcommands return (inputs, result, exit code).  ``main`` is the
one output path: it times the call, wraps a result in the JSON run
report (stable schema: subcommand, inputs, result, wall_time_s,
version), writes the document to --out or stdout, and reports an error
as one stderr line, ``error: <path>: line N: ...`` for a file.  Files
are read by the ``load`` of ``trigraph``, ``dnf`` and ``patterns``,
which share ``textformat``; this module knows no file format.  Exit
codes: 0 success, 1 operation or expectation failure (a bad file or
value included; a reader that closes stdout early ends the run with 1
and no error line), 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, dnf as dnf_mod
from . import patterns as pat_mod
from . import trigraph as tri_mod
from .constructions import (
    VARIANTS,
    construct_alternative,
    construct_tn,
    isat_formula,
    parse_family,
    sat_formula,
)
from .errors import ResourceLimitError
from .facts import run_fact_checks
from .saturation import is_indsat
from .search import enumerate_indsat, isat_min, isat_min_naive
from .textformat import load_file


def _pattern(args) -> tuple[pat_mod.PatternGraph, dict]:
    """The pattern of --pattern or --pattern-file, and its run-report inputs."""
    if args.pattern_file:
        inputs = {"pattern": f"file:{args.pattern_file}", "pattern_file": args.pattern_file}
        return pat_mod.load(args.pattern_file), inputs
    return pat_mod.parse_pattern_id(args.pattern), {"pattern": args.pattern}


def _cmd_construct(args) -> str:
    if args.variant == "alt":
        t = construct_alternative(args.n)
    else:
        t, _ = construct_tn(args.n)
    return tri_mod.dumps(t)


def _cmd_verify(args) -> tuple[dict, dict, int]:
    t = tri_mod.load(args.file)
    h, inputs = _pattern(args)
    report = is_indsat(t, h)
    result = report.to_dict()
    result["n"] = t.n
    result["gray_count"] = t.gray_count
    code = 1 if args.expect_indsat and not report.is_indsat else 0
    return {"file": args.file, **inputs}, result, code


def _print_level(level: dict) -> None:
    """One stderr line per finished gray level of the search."""
    fields = " ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in level.items()
    )
    print(f"search: {fields}", file=sys.stderr, flush=True)


def _cmd_search(args) -> tuple[dict, dict, int]:
    h, inputs = _pattern(args)
    if args.naive:
        res = isat_min_naive(args.n, h, label=inputs["pattern"])
    else:
        progress = _print_level if args.progress else None
        res = isat_min(args.n, h, k_max=args.kmax, label=inputs["pattern"], progress=progress)
    return {"n": args.n, **inputs, "kmax": args.kmax, "naive": args.naive}, res.to_dict(), 0


def _cmd_enumerate(args) -> tuple[dict, dict, int]:
    h, inputs = _pattern(args)
    forms = enumerate_indsat(args.n, h, args.k)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for idx, form in enumerate(forms):
        name = f"indsat_n{args.n}_k{args.k}_{idx:04d}.tri"
        tri_mod.dump(form.to_trigraph(), outdir / name)
        files.append(name)
    inputs = {"n": args.n, "k": args.k, **inputs, "outdir": str(outdir)}
    return inputs, {"count": len(forms), "files": files}, 0


def _cmd_encode(args) -> str:
    h, _ = _pattern(args)
    return dnf_mod.dumps(dnf_mod.encode_pattern(args.n, h))


def _known(formula, family, n: int) -> int | str:
    """formula(family, n), or "unknown" where it has no closed form."""
    try:
        value = formula(family, n)
    except ValueError:
        return "unknown"
    return "unknown" if value is None else value


def _cmd_formula(args) -> tuple[dict, dict, int]:
    family = parse_family(args.family)
    if args.n < family.vertices:
        raise ValueError(f"family {args.family} needs n >= {family.vertices}, got {args.n}")
    sat, isat = _known(sat_formula, family, args.n), _known(isat_formula, family, args.n)
    row = {"family": args.family, "n": args.n}
    return row, {**row, "sat": sat, "isat": isat}, 0


def _cmd_facts(args) -> tuple[dict, dict, int]:
    h, inputs = _pattern(args)
    report = run_fact_checks(args.n, h)
    return {"n": args.n, **inputs}, report.to_dict(), 0 if report.ok else 1


def _cmd_saturate(args) -> tuple[dict, dict, int]:
    formula = dnf_mod.load(args.formula)
    assignment = load_file(args.assignment, dnf_mod.assignment_from_string)
    if assignment.m != formula.m:
        raise ValueError(
            f"assignment has {assignment.m} variables, formula has {formula.m}"
        )
    result = {
        "is_saturated": dnf_mod.is_saturated(formula, assignment),
        "variables": formula.m,
        "clauses": len(formula.clauses),
        "unassigned": assignment.unassigned_count,
    }
    return {"formula": args.formula, "assignment": args.assignment}, result, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="indsat", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pattern = argparse.ArgumentParser(add_help=False)
    pattern.add_argument(
        "--pattern", default="p4", help="pattern id: p3, p4, c4, k3, k4, khminus:h"
    )
    pattern.add_argument("--pattern-file", help="adjacency list file for an arbitrary pattern")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")

    def command(name, func, parents, help):
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(func=func)
        return p

    p = command("construct", _cmd_construct, [out], "write an extremal trigraph in the text format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="paper")

    p = command("verify", _cmd_verify, [pattern, pretty],
                "run the saturation predicate on a trigraph file")
    p.add_argument("--file", required=True)
    p.add_argument("--expect-indsat", action="store_true", help="exit nonzero unless saturated")

    p = command("search", _cmd_search, [pattern, pretty],
                "exact minimum gray count by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None, help="highest gray count to search")
    p.add_argument(
        "--naive",
        action="store_true",
        help="use the unpruned 3^C(n,2) sweep, 2 <= n <= 5 (not with --kmax or --progress)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="print one line per gray level on stderr (not with --naive)",
    )

    p = command("enumerate", _cmd_enumerate, [pattern, pretty],
                "write all saturated trigraphs with k gray pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--outdir", required=True)

    p = command("encode", _cmd_encode, [pattern, out],
                "emit the DNF encoding of a pattern's placements")
    p.add_argument("--n", type=int, required=True)

    p = command("formula", _cmd_formula, [pretty], "closed-form saturation values as a JSON row")
    p.add_argument("--family", required=True, help="p3, p4, p5, ph:h, k3, kh:h, c4, khminus:h")
    p.add_argument("--n", type=int, required=True)

    p = command("facts", _cmd_facts, [pattern, pretty],
                "structural checks over all saturated trigraphs")
    p.add_argument("--n", type=int, required=True)

    p = command("saturate", _cmd_saturate, [pretty],
                "check a partial assignment against a DNF file")
    p.add_argument("--formula", required=True)
    p.add_argument("--assignment", required=True)

    return parser


def _write_stdout(text: str) -> None:
    """Write all of text to stdout, so that a reader that closed it early
    raises BrokenPipeError.

    An unbuffered binary layer (``python -u``) may take part of a write,
    and the text layer drops the count, so the bytes go through
    ``sys.stdout.buffer`` until every one is taken.  A stdout without a
    binary layer (an ``io.StringIO``) takes the text as it is.
    """
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[out.write(data) :]
    out.flush()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "naive", False) and (args.kmax is not None or args.progress):
        parser.error("search: --naive takes neither --kmax nor --progress")
    try:
        started = time.perf_counter()
        output = args.func(args)
        code = 0
        if not isinstance(output, str):  # (inputs, result, exit code) of a run report
            inputs, result, code = output
            report = {
                "subcommand": args.subcommand,
                "inputs": inputs,
                "result": result,
                "wall_time_s": round(time.perf_counter() - started, 6),
                "version": __version__,
            }
            output = json.dumps(report, indent=2 if args.pretty else None) + "\n"
        elif args.out:
            Path(args.out).write_text(output, encoding="utf-8")
            output = ""
        _write_stdout(output)
        return code
    except BrokenPipeError:
        # the reader closed stdout early; the exit-time flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
