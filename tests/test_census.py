"""The four-facet census: every four-facet minimal code up to twin neurons,
and every superset of one by its missing max-intersection faces.

A four-facet family is fixed, up to twin neurons, by which of the 15 cells
hold a neuron; a cell is a nonempty set of facets, the facets that contain
one neuron.  Twins do not change convexity (give a twin the same open set),
and every codeword of a minimal code and every missing max-intersection
face holds twins together.  So the 2^15 patterns with one neuron per cell
cover every four-facet minimal code and every superset of it by missing
max-intersection faces, with no cap on the number of neurons.

The per-class table of (verdict, first certificate kind) is pinned: a
change to it is a change in the mathematics, not in speed.  The same codes
then carry metamorphic soundness checks.
"""

import itertools
import random
from collections import Counter

import pytest

from convexcodes import (
    NeuralCode,
    SimplicialComplex,
    Verdict,
    classify_small_complex,
    decide,
    is_max_intersection_complete,
    is_sprocket,
    max_intersection_faces,
    maximal_codewords,
    minimal_code,
    nerve,
    relabel,
)
from convexcodes.atlas import _facet_cells
from convexcodes.codes import sort_words
from convexcodes.topology import CodeStructure
from convexcodes.wheels import _witnesses_cover_exactly

from conftest import collapse_family
from oracles import reference_max_intersection_faces, reference_maximal_codewords
from test_wheels import _seeded_search_codes

BUDGET = 10**4
FACETS = 4
# the cells and facet permutations enumerate_facet_antichains uses
CELLS, ORBIT = _facet_cells(FACETS)


def census_patterns():
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


def _decided(code, minimal=None):
    verdict, certs = decide(code, budget=BUDGET)
    class_id = classify_small_complex(nerve(maximal_codewords(code))).class_id
    return {
        "code": code,
        "class": class_id,
        "verdict": verdict,
        "certs": certs,
        "minimal": minimal,  # the entry of the minimal code, for a superset
    }


@pytest.fixture(scope="module")
def census():
    labeled, representatives = census_patterns()
    minimal, supersets = [], []
    for facets in representatives:
        code = minimal_code(facets)
        entry = _decided(code)
        minimal.append(entry)
        missing = sort_words(max_intersection_faces(facets) - code.codewords)
        for r in range(1, len(missing) + 1):
            for extra in itertools.combinations(missing, r):
                supersets.append(_decided(NeuralCode(code.codewords | set(extra)), entry))
    return labeled, minimal, supersets


# (nerve class, verdict, first certificate kind) -> codes, over the 1,212
# minimal codes and their 1,545 supersets; recorded when the census was added
CENSUS_TABLE = {
    ("L9", "CONVEX", "MaxIntersectionComplete"): 1,
    ("L10", "CONVEX", "MaxIntersectionComplete"): 1,
    ("L11", "CONVEX", "MaxIntersectionComplete"): 2,
    ("L12", "CONVEX", "MaxIntersectionComplete"): 1,
    ("L13", "CONVEX", "MaxIntersectionComplete"): 3,
    ("L14", "CONVEX", "MaxIntersectionComplete"): 2,
    ("L15", "CONVEX", "MaxIntersectionComplete"): 4,
    ("L16", "CONVEX", "MaxIntersectionComplete"): 8,
    ("L16", "CONVEX", "TheoremNoLocalObstruction"): 2,
    ("L17", "CONVEX", "MaxIntersectionComplete"): 6,
    ("L18", "CONVEX", "MaxIntersectionComplete"): 18,
    ("L18", "CONVEX", "TheoremNoLocalObstruction"): 6,
    ("L19", "CONVEX", "MaxIntersectionComplete"): 6,
    ("L20", "CONVEX", "MaxIntersectionComplete"): 9,
    ("L21", "CONVEX", "MaxIntersectionComplete"): 52,
    ("L21", "CONVEX", "TheoremNoLocalObstruction"): 20,
    ("L22", "CONVEX", "MaxIntersectionComplete"): 62,
    ("L22", "CONVEX", "TheoremNoLocalObstruction"): 50,
    ("L23", "CONVEX", "MaxIntersectionComplete"): 5,
    ("L24", "CONVEX", "MaxIntersectionComplete"): 40,
    ("L24", "NONCONVEX", "L24MinimalPoFSprocket"): 12,
    ("L25", "CONVEX", "MaxIntersectionComplete"): 128,
    ("L25", "UNKNOWN", ""): 144,
    ("L26", "CONVEX", "MaxIntersectionComplete"): 168,
    ("L26", "UNKNOWN", ""): 256,
    ("L27", "CONVEX", "MaxIntersectionComplete"): 90,
    ("L28", "CONVEX", "MaxIntersectionComplete"): 606,
    ("L28", "NONCONVEX", "Sprocket"): 12,
    ("L28", "UNKNOWN", ""): 1043,
}


class TestFourFacetCensus:
    def test_population(self, census):
        labeled, minimal, supersets = census
        assert (labeled, len(minimal), len(supersets)) == (19020, 1212, 1545)

    def test_table_pinned(self, census):
        _, minimal, supersets = census
        got = Counter(
            (e["class"], e["verdict"].value, e["certs"][0].kind if e["certs"] else "")
            for e in minimal + supersets
        )
        assert dict(got) == CENSUS_TABLE
        assert len({cls for cls, _, _ in got}) == 20

    def test_where_the_open_cases_and_theorems_sit(self):
        def classes(verdict_or_kind):
            return {cls for cls, verdict, kind in CENSUS_TABLE if verdict_or_kind in (verdict, kind)}

        assert classes("UNKNOWN") == {"L25", "L26", "L28"}
        assert classes("TheoremNoLocalObstruction") == {"L16", "L18", "L21", "L22"}
        assert classes("Sprocket") == {"L28"}


class TestCensusSoundness:
    """Metamorphic checks on the census codes.  TestRandomSoundness never
    reaches a sprocket; these codes reach every four-facet branch."""

    def test_metamorphic(self, census):
        _, minimal, supersets = census
        rng = random.Random(20261018)
        hits = Counter()
        for e in minimal + supersets:
            code, verdict, certs = e["code"], e["verdict"], e["certs"]
            kinds = [c.kind for c in certs]
            # a random relabeling keeps the verdict and the certificate kinds
            perm = list(range(1, code.n + 1))
            rng.shuffle(perm)
            got, got_certs = decide(relabel(code, tuple(perm)), budget=BUDGET)
            assert (got, [c.kind for c in got_certs]) == (verdict, kinds), (code, perm)
            # a twin of a random neuron, in exactly the same codewords, keeps the verdict
            i, twin = rng.randint(1, code.n), code.n + 1
            twinned = NeuralCode(w | {twin} if i in w else w for w in code.codewords)
            assert decide(twinned, budget=BUDGET)[0] is verdict, (code, i)
            # a code holding a convex code with the same facets is convex
            # (Cruz, Giusti, Itskov & Kronholm, DCG 2019)
            if e["minimal"] is not None and e["minimal"]["verdict"] is Verdict.CONVEX:
                assert verdict is not Verdict.NONCONVEX, code
            for cert in certs:
                if cert.candidate is not None:
                    assert is_sprocket(code, cert.candidate)[0], (code, cert)
                    assert _witnesses_cover_exactly(code, cert.candidate), (code, cert)
                    hits[cert.kind] += 1
            if kinds[:1] != ["MaxIntersectionComplete"]:
                hits[e["class"]] += 1
        for reached in ("L24", "L25", "L26", "L28", "Sprocket", "L24MinimalPoFSprocket"):
            assert hits[reached], reached


def test_mask_faces_match_frozenset_reference(census):
    # the structure finds facets, max-intersection faces and missing faces
    # on its packing; the frozenset scan and closure it replaced must agree
    _, minimal, supersets = census
    codes = [e["code"] for e in minimal + supersets] + _seeded_search_codes(2026, 40)
    codes.append(NeuralCode(collapse_family(7)))  # labels far above their count
    for code in codes:
        s = CodeStructure(code)
        facets = reference_maximal_codewords(code)
        faces = reference_max_intersection_faces(facets)
        missing = sort_words(faces - code.codewords)
        assert s.facets == list(map(s.packed.word, s.facet_masks)) == facets, code
        assert maximal_codewords(code) == facets, code
        assert list(map(s.packed.word, s.missing)) == missing, code
        assert set(map(s.packed.word, s.max_intersections)) == faces, code
        assert max_intersection_faces(facets) == faces, code
        assert is_max_intersection_complete(code) == (not missing, frozenset(missing)), code
        assert SimplicialComplex(code.codewords - {frozenset()}).facets == tuple(facets), code
    # labels that cannot be ordered keep the order _pack found them in
    unordered = [{"a", 1, (2,)}, {1, "b"}, {"a", 1, "b"}, {(2,), "b"}]
    for sets in (unordered, [{1, 2}, {1, 2}, {2, 3}], []):
        assert max_intersection_faces(sets) == reference_max_intersection_faces(sets), sets
