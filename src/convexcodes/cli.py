"""Command-line front end.

Exit code contract: 0 = CONVEX, 1 = NONCONVEX, 2 = UNKNOWN,
3 = realization not covered, 4 = verify found a mismatch (realize prints
only realizations verified as they were built), 5 = input error
(including argument errors; argparse's default of 2 would collide with
the UNKNOWN verdict).  Output is byte-deterministic for fixed inputs and
flags; --meta prepends a commented header that is allowed to vary.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from typing import List, Optional

from . import __version__
from .atlas import (
    DEFAULT_FACET_CAP,
    DEFAULT_NEURON_CAP,
    atlas_rows,
    write_atlas_csv,
)
from .codes import CodeParseError, NeuralCode, format_code, format_word, parse_code
from .decider import Certificate, Verdict, _decide, analyze, decide
from .realize import realization_from_json, render_svg, verify_realization
from .realize.builders import _build
from .topology import CodeStructure
from .wheels import DEFAULT_BUDGET

# not called here: kept importable because the benchmark tracer patches these names
from .realize import build_realization
from .topology import classify_small_complex, nerve

EXIT_CONVEX = 0
EXIT_NONCONVEX = 1
EXIT_UNKNOWN = 2
EXIT_NOT_COVERED = 3
EXIT_VERIFY_FAILED = 4
EXIT_INPUT_ERROR = 5

_VERDICT_EXIT = {
    Verdict.CONVEX: EXIT_CONVEX,
    Verdict.NONCONVEX: EXIT_NONCONVEX,
    Verdict.UNKNOWN: EXIT_UNKNOWN,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _budget_arg(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {budget}")
    return budget


# one parser per process, built on first use so that importing the CLI stays cheap
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="convexcodes", description=__doc__)
    parser.add_argument("--version", action="version", version=f"convexcodes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("code", help="code text, e.g. '123,1246,145,356,12,14,3,5,6'")
        p.add_argument("--budget", type=_budget_arg, default=DEFAULT_BUDGET,
                       help="sprocket search budget (search steps)")
        p.add_argument("--meta", action="store_true", help="prepend a commented header")
        return p

    add_code_cmd("decide", "decide convexity and print certificates")

    p = add_code_cmd("analyze", "print the full structural analysis")
    p.add_argument("--json", action="store_true", help="emit the full report document")

    p = add_code_cmd("realize", "build and verify a convex realization")
    p.add_argument("--svg", metavar="PATH", help="also write an SVG rendering")

    p = sub.add_parser("verify", help="verify a realization JSON file against a code")
    p.add_argument("realization", help="path to a realization JSON document")
    p.add_argument("code", help="target code text")
    p.add_argument("--json", action="store_true", help="emit the verification diff as JSON")
    p.add_argument("--meta", action="store_true", help="prepend a commented header")

    # a nerve is the same at every sprocket budget, so nerve takes no --budget
    p = sub.add_parser("nerve", help="classify the nerve of the maximal codewords")
    p.add_argument("code", help="code text")
    p.add_argument("--json", action="store_true", help="emit the classification as JSON")
    p.add_argument("--meta", action="store_true", help="prepend a commented header")

    p = sub.add_parser("atlas", help="enumerate small codes and their verdicts as CSV")
    p.add_argument("--neurons", type=int, default=DEFAULT_NEURON_CAP,
                   help=f"max neurons (default {DEFAULT_NEURON_CAP})")
    p.add_argument("--facets", type=int, default=DEFAULT_FACET_CAP,
                   help=f"number of maximal codewords (default {DEFAULT_FACET_CAP})")
    p.add_argument("--unsafe", action="store_true",
                   help=f"allow caps beyond {DEFAULT_NEURON_CAP} neurons / "
                        f"{DEFAULT_FACET_CAP} facets")
    p.add_argument("--budget", type=_budget_arg, default=DEFAULT_BUDGET,
                   help="sprocket search budget per code")
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.add_argument("--meta", action="store_true", help="prepend a commented header")
    return parser


def _parse_code_arg(text: str) -> NeuralCode:
    try:
        return parse_code(text)
    except CodeParseError as err:
        print(f"convexcodes: parse error at position {err.position}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _meta_line(args: argparse.Namespace) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# convexcodes {__version__} {args.command} {stamp}"


def _print_verdict(verdict: Verdict, certificates: List[Certificate]) -> None:
    print(verdict.value)
    for cert in certificates:
        print(f"  {cert.text()}")


def _cmd_decide(args: argparse.Namespace) -> int:
    code = _parse_code_arg(args.code)
    if args.meta:
        print(_meta_line(args))
    verdict, certificates = decide(code, budget=args.budget)
    _print_verdict(verdict, certificates)
    return _VERDICT_EXIT[verdict]


def _cmd_analyze(args: argparse.Namespace) -> int:
    code = _parse_code_arg(args.code)
    report = analyze(code, budget=args.budget)
    if args.meta:
        print(_meta_line(args))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return _VERDICT_EXIT[report.verdict]
    print(f"neurons: {report.neurons}")
    print(f"codewords ({len(report.codewords)}): "
          + format_code(code, verbose=True))
    print("facets: " + ",".join(format_word(f) for f in report.facets))
    if report.nerve_class is not None:
        relabeling = ",".join(str(r) for r in report.nerve_relabeling)
        print(f"nerve class: {report.nerve_class} (facet -> vertex: {relabeling})")
    print("mandatory faces: "
          + (",".join(format_word(f) for f in report.mandatory_faces) or "none"))
    if report.minimal_code is not None:
        minimal = NeuralCode(report.minimal_code)
        flag = "equal to this code" if minimal.codewords == code.codewords else "differs"
        print(f"minimal code ({flag}): " + format_code(minimal, verbose=True))
    print("missing max intersections: "
          + (",".join(format_word(f) for f in report.missing_max_intersections) or "none"))
    for row in report.path_of_facets:
        facets = ",".join(str(i) for i in row["facets"])
        witness = row["witness"]
        text = "-".join(str(i) for i in witness) if witness else "none"
        print(f"path of facets ({facets}): {text}")
    if report.sprocket is not None:
        print(f"sprocket: {json.dumps(report.sprocket)}")
    print(f"verdict: {report.verdict.value}")
    for cert in report.certificates:
        print(f"  {cert.text()}")
    if report.realization is not None:
        print(f"realization: {report.realization['construction']} "
              f"(dimension {report.realization['dimension']})")
    return _VERDICT_EXIT[report.verdict]


def _cmd_realize(args: argparse.Namespace) -> int:
    code = _parse_code_arg(args.code)
    if args.meta:
        print(_meta_line(args))
    s = CodeStructure(code, [args.budget])
    verdict, certificates = _decide(s)
    if verdict is not Verdict.CONVEX:
        _print_verdict(verdict, certificates)
        print(f"convexcodes: realization requires a CONVEX code, verdict is "
              f"{verdict.value}", file=sys.stderr)
        return _VERDICT_EXIT[verdict]
    built = _build(s)
    if built is None:
        _print_verdict(verdict, certificates)
        print("realization: not covered by a constructive family", file=sys.stderr)
        return EXIT_NOT_COVERED
    realization, tag = built
    print(json.dumps({**realization.to_json(), "construction": tag}, indent=2))
    if args.svg:
        svg = render_svg(realization)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as err:
            print(f"convexcodes: cannot write SVG: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return EXIT_CONVEX


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _parse_code_arg(args.code)
    try:
        with open(args.realization, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        realization = realization_from_json(doc)
    except (OSError, ValueError) as err:
        print(f"convexcodes: cannot read realization: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.meta:
        print(_meta_line(args))
    ok, diff = verify_realization(realization, code)
    if args.json:
        payload = {"ok": ok}
        payload.update(diff.to_json())
        print(json.dumps(payload, indent=2))
    elif ok:
        print("ok: realization generates exactly the target code")
    else:
        print("mismatch:")
        for label, words in (("missing", diff.missing), ("extra", diff.extra)):
            if words:
                print(f"  {label}: " + ",".join(format_word(w) for w in words))
        for problem in diff.validation:
            print(f"  validation: {problem}")
    return EXIT_CONVEX if ok else EXIT_VERIFY_FAILED


def _cmd_nerve(args: argparse.Namespace) -> int:
    s = CodeStructure(_parse_code_arg(args.code))
    facets, cls = s.facets, s.classified
    m = len(facets)
    if args.meta:
        print(_meta_line(args))
    if args.json:
        print(json.dumps({
            "facets": [sorted(f) for f in facets],
            "count": m,
            "class": cls.class_id if cls else None,
            "relabeling": [list(pair) for pair in cls.relabeling] if cls else None,
            "contractible": cls.contractible if cls else None,
        }, indent=2))
        return EXIT_CONVEX
    print(f"facets ({m}): " + ",".join(format_word(f) for f in facets))
    if cls is None:
        reason = "no nonempty codewords" if m == 0 else "more than 4 maximal codewords"
        print(f"class: unclassified ({reason})")
    else:
        pairs = ", ".join(f"{pos}->{ref}" for pos, ref in cls.relabeling)
        print(f"class: {cls.class_id}")
        print(f"relabeling (facet position -> reference vertex): {pairs}")
        print(f"contractible: {'true' if cls.contractible else 'false'}")
    return EXIT_CONVEX


def _cmd_atlas(args: argparse.Namespace) -> int:
    if (args.neurons > DEFAULT_NEURON_CAP or args.facets > DEFAULT_FACET_CAP) and not args.unsafe:
        print(
            f"convexcodes: --neurons {args.neurons} / --facets {args.facets} exceeds the "
            f"default caps ({DEFAULT_NEURON_CAP}/{DEFAULT_FACET_CAP}); pass --unsafe to proceed",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    if args.neurons < 1 or args.facets < 1:
        print("convexcodes: --neurons and --facets must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rows, skipped = atlas_rows(args.neurons, args.facets, budget=args.budget)
    meta = _meta_line(args)[2:] if args.meta else None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_atlas_csv(rows, fh, skipped=skipped, meta=meta)
        except OSError as err:
            print(f"convexcodes: cannot write CSV: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        write_atlas_csv(rows, sys.stdout, skipped=skipped, meta=meta)
    return EXIT_CONVEX


_COMMANDS = {
    "decide": _cmd_decide,
    "analyze": _cmd_analyze,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "nerve": _cmd_nerve,
    "atlas": _cmd_atlas,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
