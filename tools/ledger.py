"""Record or check the verdict ledgers, tests/ledger/<set>.tsv.

    python3 tools/ledger.py [--write]

There are four sets of codes:

- census: every four-facet minimal code up to twin neurons, and every
  superset of one by its missing max-intersection faces
  (tests/test_census.py says why that covers them all);
- atlas: the codes of atlas_rows(6, 4) and atlas_rows(5, 5), in row order;
- wide: the codes of the benchmark's wide requests at seeds 0 and 7919,
  from perfbench/gen.py executed from its source, so that nothing is
  written next to it;
- nword: for N = 3..12, the code whose codewords are [N] - {j}, j = 1..N.

A ledger has one line per distinct code text, tab-separated: the code's
text (format_code), the verdict of analyze(code, BUDGET), its first
certificate kind ("-" when there is none) and the first 16 hex digits of
the sha256 of json.dumps(report.to_json(), sort_keys=True).  So a change
that moves any byte of any report moves a line, and the line names the
code.

Without --write every set is analyzed, compared with its recorded file,
and each moved code printed with its set and its old and new verdict and
kind; the exit status is 1 when any moved.  --write records every file
anew.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from convexcodes import NeuralCode, analyze, format_code, max_intersection_faces, minimal_code, parse_code
from convexcodes.atlas import _facet_cells, atlas_rows
from convexcodes.codes import sort_words

LEDGERS = ROOT / "tests" / "ledger"
BUDGET = 10**4
FACETS = 4
# the cells and facet permutations enumerate_facet_antichains uses
CELLS, ORBIT = _facet_cells(FACETS)
ATLAS_SIZES = ((6, 4), (5, 5))
WIDE_SEEDS = (0, 7919)
NWORD_SIZES = range(3, 13)


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


def census_codes() -> list:
    """The census codes, minimal codes first."""
    _, minimal, supersets = census()
    return minimal + [code for code, _ in supersets]


def atlas_codes(rows_of=atlas_rows) -> list:
    """The codes of the atlas rows at ATLAS_SIZES, rows_of(n, k) giving them."""
    return [parse_code(row.code) for n, k in ATLAS_SIZES for row in rows_of(n, k)[0]]


def benchmark_generator() -> types.ModuleType:
    """perfbench/gen.py as a module, executed from its source so that
    nothing is written next to it."""
    path = ROOT / "perfbench" / "gen.py"
    gen = types.ModuleType("perfbench_gen")
    exec(compile(path.read_text(), str(path), "exec"), gen.__dict__)
    return gen


def wide_codes(gen=None) -> list:
    """The codes of the wide requests at WIDE_SEEDS, in request order, from
    gen, perfbench/gen.py as a module (benchmark_generator() by default)."""
    wide = (gen or benchmark_generator()).GENERATORS["wide"]
    return [parse_code(req["code"]) for seed in WIDE_SEEDS for req in wide(seed)]


def nword_codes() -> list:
    """For each N in NWORD_SIZES, the code {[N] - {j} : j = 1..N}."""
    return [
        NeuralCode(frozenset(range(1, n + 1)) - {j} for j in range(1, n + 1))
        for n in NWORD_SIZES
    ]


SETS = {"census": census_codes, "atlas": atlas_codes, "wide": wide_codes, "nword": nword_codes}


def line(code: NeuralCode, report) -> str:
    """The ledger line of a code and its analyze report."""
    kind = report.certificates[0].kind if report.certificates else "-"
    text = json.dumps(report.to_json(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return "\t".join((format_code(code), report.verdict.value, kind, digest))


def lines(codes) -> list:
    """The ledger lines of the codes, one per distinct code text, in the
    order the texts first occur."""
    seen = set()
    out = []
    for code in codes:
        text = format_code(code)
        if text not in seen:
            seen.add(text)
            out.append(line(code, analyze(code, BUDGET)))
    return out


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


def path(name: str) -> Path:
    """The file of the named set's ledger."""
    return LEDGERS / f"{name}.tsv"


def read(name: str) -> list:
    """The recorded lines of the named set's ledger."""
    return path(name).read_text().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record every ledger anew")
    args = parser.parse_args(argv)
    total = 0
    for name, codes in SETS.items():
        got = lines(codes())
        if args.write:
            path(name).write_text("".join(ln + "\n" for ln in got))
            print(f"wrote {len(got)} lines to {path(name).relative_to(ROOT)}")
            continue
        changes = moved(read(name), got)
        for change in changes:
            print(f"{name}: {change}")
        print(f"{name}: {len(changes)} of {len(got)} codes moved")
        total += len(changes)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
