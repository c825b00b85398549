"""Command-line entry point.

Subcommands: construct, verify, search, enumerate, encode, formula,
facts, saturate.  Numeric results are emitted as a JSON run report
(stable schema: subcommand, inputs, result, wall_time_s, version);
construct/encode emit their text file formats directly.  Files are read
by the ``load`` of ``trigraph``, ``dnf`` and ``patterns``, which share
``textformat``; this module knows no file format.  A bad file or value
prints one line, ``error: <path>: line N: ...`` for a file, on stderr.
Exit codes: 0 success, 1 operation or expectation failure (a bad file
or value included), 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
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


def _load_pattern(args) -> pat_mod.PatternGraph:
    if getattr(args, "pattern_file", None):
        return pat_mod.load(args.pattern_file)
    return pat_mod.parse_pattern_id(args.pattern)


def _pattern_label(args) -> str:
    if getattr(args, "pattern_file", None):
        return f"file:{args.pattern_file}"
    return args.pattern


def _pattern_inputs(args) -> dict:
    out = {"pattern": _pattern_label(args)}
    if getattr(args, "pattern_file", None):
        out["pattern_file"] = args.pattern_file
    return out


def _emit_report(args, subcommand: str, inputs: dict, result: dict, started: float) -> None:
    report = {
        "subcommand": subcommand,
        "inputs": inputs,
        "result": result,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    indent = 2 if getattr(args, "pretty", False) else None
    print(json.dumps(report, indent=indent))


def _cmd_construct(args) -> int:
    if args.variant == "alt":
        t = construct_alternative(args.n)
    else:
        t, _ = construct_tn(args.n)
    text = tri_mod.dumps(t)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    t = tri_mod.load(args.file)
    h = _load_pattern(args)
    report = is_indsat(t, h)
    result = report.to_dict()
    result["n"] = t.n
    result["gray_count"] = t.gray_count
    _emit_report(args, "verify", {"file": args.file, **_pattern_inputs(args)}, result, started)
    if args.expect_indsat and not report.is_indsat:
        return 1
    return 0


def _print_level(level: dict) -> None:
    """One stderr line per finished gray level of the search."""
    fields = " ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in level.items()
    )
    print(f"search: {fields}", file=sys.stderr, flush=True)


def _cmd_search(args) -> int:
    started = time.perf_counter()
    h = _load_pattern(args)
    if args.naive:
        res = isat_min_naive(args.n, h, label=_pattern_label(args))
    else:
        progress = _print_level if args.progress else None
        res = isat_min(args.n, h, k_max=args.kmax, label=_pattern_label(args), progress=progress)
    _emit_report(
        args,
        "search",
        {"n": args.n, **_pattern_inputs(args), "kmax": args.kmax, "naive": args.naive},
        res.to_dict(),
        started,
    )
    return 0


def _cmd_enumerate(args) -> int:
    started = time.perf_counter()
    h = _load_pattern(args)
    forms = enumerate_indsat(args.n, h, args.k)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for idx, form in enumerate(forms):
        name = f"indsat_n{args.n}_k{args.k}_{idx:04d}.tri"
        tri_mod.dump(form.to_trigraph(), outdir / name)
        files.append(name)
    _emit_report(
        args,
        "enumerate",
        {"n": args.n, "k": args.k, **_pattern_inputs(args), "outdir": str(outdir)},
        {"count": len(forms), "files": files},
        started,
    )
    return 0


def _cmd_encode(args) -> int:
    h = _load_pattern(args)
    text = dnf_mod.dumps(dnf_mod.encode_pattern(args.n, h))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_formula(args) -> int:
    started = time.perf_counter()
    family = parse_family(args.family)
    if args.n < family.vertices:
        raise ValueError(f"family {args.family} needs n >= {family.vertices}, got {args.n}")
    sat_value: int | str | None
    try:
        sat_value = sat_formula(family, args.n)
        if sat_value is None:
            sat_value = "unknown"
    except ValueError:
        sat_value = "unknown"
    try:
        isat_value: int | str = isat_formula(family, args.n)
    except ValueError:
        isat_value = "unknown"
    _emit_report(
        args,
        "formula",
        {"family": args.family, "n": args.n},
        {"family": args.family, "n": args.n, "sat": sat_value, "isat": isat_value},
        started,
    )
    return 0


def _cmd_facts(args) -> int:
    started = time.perf_counter()
    h = _load_pattern(args)
    report = run_fact_checks(args.n, h)
    _emit_report(args, "facts", {"n": args.n, **_pattern_inputs(args)}, report.to_dict(), started)
    return 0 if report.ok else 1


def _cmd_saturate(args) -> int:
    started = time.perf_counter()
    formula = dnf_mod.load(args.formula)
    assignment = load_file(args.assignment, dnf_mod.assignment_from_string)
    if assignment.m != formula.m:
        raise ValueError(
            f"assignment has {assignment.m} variables, formula has {formula.m}"
        )
    saturated = dnf_mod.is_saturated(formula, assignment)
    _emit_report(
        args,
        "saturate",
        {"formula": args.formula, "assignment": args.assignment},
        {
            "is_saturated": saturated,
            "variables": formula.m,
            "clauses": len(formula.clauses),
            "unassigned": assignment.unassigned_count,
        },
        started,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="indsat", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_pattern_flags(p):
        p.add_argument("--pattern", default="p4", help="pattern id: p3, p4, c4, k3, k4, khminus:h")
        p.add_argument("--pattern-file", help="adjacency list file for an arbitrary pattern")

    p = sub.add_parser("construct", help="write an extremal trigraph in the text format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="paper")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run the saturation predicate on a trigraph file")
    p.add_argument("--file", required=True)
    add_pattern_flags(p)
    p.add_argument("--expect-indsat", action="store_true", help="exit nonzero unless saturated")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exact minimum gray count by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    add_pattern_flags(p)
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
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("enumerate", help="write all saturated trigraphs with k gray pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_pattern_flags(p)
    p.add_argument("--outdir", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("encode", help="emit the DNF encoding of a pattern's placements")
    p.add_argument("--n", type=int, required=True)
    add_pattern_flags(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("formula", help="closed-form saturation values as a JSON row")
    p.add_argument("--family", required=True, help="p3, p4, p5, ph:h, k3, kh:h, c4, khminus:h")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("facts", help="structural checks over all saturated trigraphs")
    p.add_argument("--n", type=int, required=True)
    add_pattern_flags(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_facts)

    p = sub.add_parser("saturate", help="check a partial assignment against a DNF file")
    p.add_argument("--formula", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_saturate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "naive", False) and (args.kmax is not None or args.progress):
        parser.error("search: --naive takes neither --kmax nor --progress")
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
