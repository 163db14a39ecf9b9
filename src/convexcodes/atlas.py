"""Population-scale enumeration: small facet configurations and their verdicts.

The atlas enumerates facet antichains up to neuron relabeling, builds each
minimal code, classifies its nerve, runs the decider, and emits one CSV row
per code.  It exists to check the classification theorems against every
small instance rather than a handful of samples.
"""

from __future__ import annotations

import csv
import itertools
from operator import itemgetter
from typing import Iterator, List, NamedTuple, Optional, TextIO, Tuple

from .codes import canonicalize, format_code, sort_words
from .decider import _decide
from .topology import CodeStructure, minimal_code
from .wheels import DEFAULT_BUDGET, _check_budget

# not called here: kept importable because the benchmark tracer patches these names
from .decider import decide
from .topology import classify_small_complex, nerve

DEFAULT_NEURON_CAP = 6
DEFAULT_FACET_CAP = 4


def _facet_cells(k: int) -> Tuple[list, list]:
    """The cells of k facets and the facet permutations acting on them.

    A cell is a nonempty set of facet indices, and the cells are sorted by
    size, then lexicographically, so the first k are the singletons.  Each
    permutation other than the identity is an itemgetter that maps a
    vector indexed by cells to the vector of the permuted family.
    """
    cells = sorted(
        (
            frozenset(s)
            for r in range(1, k + 1)
            for s in itertools.combinations(range(k), r)
        ),
        key=lambda s: (len(s), sorted(s)),
    )
    index = {cell: i for i, cell in enumerate(cells)}
    orbit = [
        itemgetter(*(index[frozenset(p[i] for i in cell)] for cell in cells))
        for p in itertools.islice(itertools.permutations(range(k)), 1, None)
    ]
    return cells, orbit


def enumerate_facet_antichains(max_neurons: int, num_facets: int) -> Iterator[list]:
    """Canonical antichains of exactly num_facets nonempty neuron sets.

    One representative per neuron-relabeling class, with support packed
    into 1..t, t <= max_neurons.  Two facet families are neuron-relabeling
    equivalent iff some facet ordering gives them equal per-cell neuron
    counts, where a cell is a nonempty set of facet indices (the facets
    containing a given neuron).  Families are therefore enumerated as
    count vectors over cells and kept exactly when the vector is minimal
    over facet permutations, which also makes the stream deterministic.

    Each cell carries a bitmask of the ordered facet pairs (i, j) it
    witnesses (i in the cell, j not), and a family is an antichain iff its
    cells' masks cover every pair.  The first k cells are the singletons,
    which facet permutations merely permute, so a minimal vector has
    nondecreasing singleton counts.

    For each total, the nondecreasing cell sequences are walked depth
    first, smallest cell first, which is the lexicographic order of
    itertools.combinations_with_replacement, and a subtree is cut when it
    holds no antichain with nondecreasing singleton counts.  A slot ends at
    the first cell from which the cells still allowed cannot witness every
    uncovered pair (that set only shrinks as the slot's cell grows).  A run
    of singleton i may end only once it is as long as the run of singleton
    i - 1, and, unless i is the last singleton, only at singleton i + 1.
    The last slot tries only the cells
    witnessing the lowest uncovered pair.  Every sequence cut is one the
    antichain or singleton test would reject, so the stream is the one the
    unpruned walk gives; both tests still run on every sequence reached,
    before the orbit check.
    """
    k = num_facets
    cells, orbit = _facet_cells(k)
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    witness = [
        sum(1 << p for p, (i, j) in enumerate(pairs) if i in cell and j not in cell)
        for cell in cells
    ]
    all_pairs = (1 << len(pairs)) - 1
    ncells = len(cells)
    # reach[c]: the pairs witnessed by cell c or a later one
    reach = [0] * (ncells + 1)
    for c in reversed(range(ncells)):
        reach[c] = reach[c + 1] | witness[c]
    # by_pair[p]: the cells witnessing pair p; by_pair[-1], for no pair, all
    by_pair = [
        [c for c, w in enumerate(witness) if w >> p & 1] for p in range(len(pairs))
    ] + [range(ncells)]

    def antichains(combo, start, covered, left, run, prev):
        # combo, ending in run copies of cell start, extended by left more
        # cells from start on to cover all pairs; if start is a singleton,
        # prev counts the singleton before it
        if left == 1:
            # the last cell must witness the lowest uncovered pair
            need = all_pairs & ~covered
            for c in by_pair[(need & -need).bit_length() - 1]:
                if c >= start and covered | witness[c] == all_pairs:
                    yield combo + (c,)
            return
        stop = ncells
        if run and start < k:
            # singleton counts never fall, so a singleton once used is
            # followed by the next one, at least as often
            if run < prev:
                stop = start + 1
            elif start < k - 1:
                stop = start + 2
        for c in range(start, stop):
            if covered | reach[c] != all_pairs:
                return
            counts = (run + 1, prev) if c == start else (1, run)
            yield from antichains(
                combo + (c,), c, covered | witness[c], left - 1, *counts
            )

    for total in range(1, max_neurons + 1):
        for combo in antichains((), 0, 0, total, 0, 0):
            v = [0] * ncells
            for c in combo:
                v[c] += 1
            if v[:k] != sorted(v[:k]):
                continue
            vt = tuple(v)
            if any(g(vt) < vt for g in orbit):
                continue
            facets = [set() for _ in range(k)]
            neuron = 0
            for c, cell in enumerate(cells):
                for _ in range(v[c]):
                    neuron += 1
                    for i in cell:
                        facets[i].add(neuron)
            yield sort_words(frozenset(f) for f in facets)


class AtlasRow(NamedTuple):
    code: str
    neurons: int
    facet_count: int
    nerve_class: str
    minimal: bool
    verdict: str
    certificate: str
    sprocket: str


def atlas_rows(
    max_neurons: int,
    num_facets: int,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[List[AtlasRow], int]:
    """All atlas rows plus the count of skipped configurations.

    Each row's code is the canonically relabeled minimal code of one facet
    configuration, so the text, verdict, and sprocket columns all use the
    same labels.  A configuration is skipped only when its minimal code is
    undecidable (a link too large to classify), which cannot happen within
    the default caps.  Rows are unique by code text and deterministically
    ordered.  Raises ValueError on a negative budget.
    """
    _check_budget(budget)
    rows: List[AtlasRow] = []
    seen = set()
    skipped = 0
    for raw_facets in enumerate_facet_antichains(max_neurons, num_facets):
        try:
            code = canonicalize(minimal_code(raw_facets)).code
        except ValueError:
            skipped += 1
            continue
        s = CodeStructure(code, [budget])
        nerve_class = s.classified.class_id if s.classified is not None else ""
        verdict, certificates = _decide(s)
        certificate = certificates[0].kind if certificates else ""
        sprocket = ""
        for cert in certificates:
            if cert.candidate is not None:
                sprocket = cert.candidate.text()
                break
        text = format_code(code, verbose=True, braced=True)
        if text in seen:
            raise AssertionError(f"duplicate atlas row: {text}")
        seen.add(text)
        row = AtlasRow(
            code=text,
            neurons=code.n,
            facet_count=num_facets,
            nerve_class=nerve_class,
            minimal=True,
            verdict=verdict.value,
            certificate=certificate,
            sprocket=sprocket,
        )
        rows.append(row)
    return rows, skipped


def _class_sort_key(nerve_class: str) -> tuple:
    if nerve_class.startswith("L") and nerve_class[1:].isdigit():
        return (0, int(nerve_class[1:]))
    return (1, nerve_class)


def write_atlas_csv(
    rows: List[AtlasRow],
    stream: TextIO,
    skipped: int = 0,
    meta: Optional[str] = None,
) -> None:
    """CSV with AtlasRow columns followed by a commented summary block."""
    if meta is not None:
        stream.write(f"# {meta}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(AtlasRow._fields)
    counts = {}
    for row in rows:
        writer.writerow(row._replace(minimal="true" if row.minimal else "false"))
        key = (row.nerve_class, row.verdict)
        counts[key] = counts.get(key, 0) + 1
    stream.write("# summary\n")
    for nerve_class, verdict in sorted(
        counts, key=lambda kv: (_class_sort_key(kv[0]), kv[1])
    ):
        stream.write(f"# {nerve_class},{verdict},{counts[(nerve_class, verdict)]}\n")
    if skipped:
        stream.write(f"# skipped-undecided,{skipped}\n")
