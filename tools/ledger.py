"""Record or check the census ledger, tests/ledger/census.tsv.

    python3 tools/ledger.py [--write]

The census is every four-facet minimal code up to twin neurons, and every
superset of one by its missing max-intersection faces (tests/test_census.py
says why that covers them all): 2,757 codes.  The ledger has one line per
code, tab-separated: the code's text (format_code), the verdict of
analyze(code, BUDGET), its first certificate kind ("-" when there is none)
and the first 16 hex digits of the sha256 of
json.dumps(report.to_json(), sort_keys=True).  So a change that moves any
byte of any census report moves a line, and the line names the code.

Without --write the census is analyzed, compared with the recorded file,
and each moved code printed with its old and new verdict and kind; the exit
status is 1 when any moved.  --write records the file anew.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from convexcodes import NeuralCode, analyze, format_code, max_intersection_faces, minimal_code
from convexcodes.atlas import _facet_cells
from convexcodes.codes import sort_words

LEDGER = ROOT / "tests" / "ledger" / "census.tsv"
BUDGET = 10**4
FACETS = 4
# the cells and facet permutations enumerate_facet_antichains uses
CELLS, ORBIT = _facet_cells(FACETS)


def census_patterns() -> tuple:
    """The count of labeled antichain patterns, and the representatives' facets.

    A pattern is a 0/1 vector over CELLS, one neuron per marked cell, the
    neurons numbered in cell order.  It is kept when its facets form an
    antichain, and it represents its orbit when no facet permutation maps
    it onto a lexicographically smaller vector: the rule
    enumerate_facet_antichains applies to count vectors.
    """
    labeled, representatives = 0, []
    for bits in range(1 << len(CELLS)):
        marked = [cell for c, cell in enumerate(CELLS) if bits >> c & 1]
        facets = [
            frozenset(n for n, cell in enumerate(marked, start=1) if i in cell)
            for i in range(FACETS)
        ]
        if any(a <= b for a, b in itertools.permutations(facets, 2)):
            continue
        labeled += 1
        v = tuple(bits >> c & 1 for c in range(len(CELLS)))
        if not any(g(v) < v for g in ORBIT):
            representatives.append(facets)
    return labeled, representatives


def census() -> tuple:
    """(labeled, minimal, supersets): the pattern count, the minimal code of
    each representative, and each superset as (code, index of its minimal
    code), every nonempty set of missing faces in combinations order."""
    labeled, representatives = census_patterns()
    minimal, supersets = [], []
    for facets in representatives:
        code = minimal_code(facets)
        missing = sort_words(max_intersection_faces(facets) - code.codewords)
        for r in range(1, len(missing) + 1):
            for extra in itertools.combinations(missing, r):
                supersets.append((NeuralCode(code.codewords | set(extra)), len(minimal)))
        minimal.append(code)
    return labeled, minimal, supersets


def line(code: NeuralCode, report) -> str:
    """The ledger line of a code and its analyze report."""
    kind = report.certificates[0].kind if report.certificates else "-"
    text = json.dumps(report.to_json(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return "\t".join((format_code(code), report.verdict.value, kind, digest))


def compute() -> list:
    """The ledger lines of the census, minimal codes first."""
    _, minimal, supersets = census()
    codes = minimal + [code for code, _ in supersets]
    return [line(code, analyze(code, BUDGET)) for code in codes]


def moved(recorded: list, got: list) -> list:
    """One message per code whose line differs between the two lists, in
    the order of got, then the recorded codes that got lacks."""
    verdict = lambda fields: " ".join(fields[:2])  # the verdict and the kind
    old = {text: fields for text, *fields in (ln.split("\t") for ln in recorded)}
    out = []
    for text, *new in (ln.split("\t") for ln in got):
        was = old.pop(text, None)
        if was is None:
            out.append(f"{text}: not recorded, now {verdict(new)}")
        elif was[:2] != new[:2]:
            out.append(f"{text}: {verdict(was)} -> {verdict(new)}")
        elif was != new:
            out.append(f"{text}: report moved")
    out += [f"{text}: recorded {verdict(was)}, now absent" for text, was in old.items()]
    return out


def read() -> list:
    """The recorded ledger lines."""
    return LEDGER.read_text().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the ledger anew")
    args = parser.parse_args(argv)
    got = compute()
    if args.write:
        LEDGER.write_text("".join(ln + "\n" for ln in got))
        print(f"wrote {len(got)} lines to {LEDGER.relative_to(ROOT)}")
        return 0
    changes = moved(read(), got)
    for change in changes:
        print(change)
    print(f"{len(changes)} of {len(got)} codes moved")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
