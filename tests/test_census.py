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
change to it is a change in the mathematics, not in speed.  Per code, the
ledger (tools/ledger.py) pins the verdict, the first certificate kind and
a digest of the analyze report.  The same codes then carry metamorphic
soundness checks.
"""

import functools
import itertools
import random
from collections import Counter

import pytest

from convexcodes import (
    NeuralCode,
    Verdict,
    analyze,
    decide,
    is_link_contractible,
    is_max_intersection_complete,
    is_sprocket,
    max_intersection_faces,
    maximal_codewords,
    minimal_code,
    parse_code,
    path_of_facets,
    relabel,
)
from convexcodes.codes import _indices, sort_words
from convexcodes.topology import CodeStructure, _link_contractible
from convexcodes.wheels import _POOL_SUBSET_BOUND, _candidate_pool, _emits, _l24_taus

from conftest import assert_ledger, collapse_family, ledger
from oracles import (
    reference_l24_taus,
    reference_link_rows,
    reference_max_intersection_faces,
    reference_maximal_codewords,
    reference_path_of_facets,
)
from test_wheels import _benchmark_generator, _seeded_search_codes

BUDGET = ledger.BUDGET


def _analyzed(code, minimal=None):
    report = analyze(code, BUDGET)
    return {
        "code": code,
        "class": report.nerve_class,
        "verdict": report.verdict,
        "certs": list(report.certificates),
        "report": report,
        "minimal": minimal,  # the entry of the minimal code, for a superset
    }


@pytest.fixture(scope="module")
def census():
    """The census of tools/ledger.py, each code analyzed once."""
    labeled, minimal, supersets = ledger.census()
    minimal = list(map(_analyzed, minimal))
    supersets = [_analyzed(code, minimal[i]) for code, i in supersets]
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

    def test_ledger(self, census):
        # every census report, byte for byte, against tests/ledger/census.tsv;
        # a change that moves one re-records with tools/ledger.py --write
        _, minimal, supersets = census
        assert_ledger("census", [ledger.line(e["code"], e["report"]) for e in minimal + supersets])

    def test_ledger_names_each_moved_code(self):
        recorded = ["1\tCONVEX\tMaxIntersectionComplete\t00", "2\tUNKNOWN\t-\t11", "3\tCONVEX\t-\t22"]
        got = ["1\tCONVEX\tMaxIntersectionComplete\t01", "2\tNONCONVEX\tSprocket\t12", "4\tCONVEX\t-\t33"]
        assert ledger.moved(recorded, got) == [
            "1: report moved",
            "2: UNKNOWN - -> NONCONVEX Sprocket",
            "4: not recorded, now CONVEX -",
            "3: recorded CONVEX -, now absent",
        ]

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
                    assert _emits(code, cert.candidate), (code, cert)
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
    # labels that cannot be ordered keep the order _pack found them in
    unordered = [{"a", 1, (2,)}, {1, "b"}, {"a", 1, "b"}, {(2,), "b"}]
    for sets in (unordered, [{1, 2}, {1, 2}, {2, 3}], []):
        assert max_intersection_faces(sets) == reference_max_intersection_faces(sets), sets


def test_path_of_facets_matches_frozenset_reference(census):
    # every ordered facet triple of the census codes, through the public
    # call, which packs its facets and runs the mask routine
    _, minimal, supersets = census
    triples = {
        triple
        for e in minimal + supersets
        for triple in itertools.permutations(reference_maximal_codewords(e["code"]), 3)
    }
    assert len(triples) > 20_000
    for triple in triples:
        assert path_of_facets(*triple) == reference_path_of_facets(*triple), triple


def test_candidate_pool_expands_maximal_faces_only(census):
    # the pool once took the small subsets of every max-intersection face;
    # each such subset lies in a maximal one, so the pool is the same set
    def every_face_pool(faces):
        pool = set(faces)
        for face in faces:
            bits = [1 << k for k in _indices(face)]
            for r in range(1, min(len(bits), _POOL_SUBSET_BOUND) + 1):
                pool.update(map(sum, itertools.combinations(bits, r)))
        return pool

    _, minimal, supersets = census
    codes = [e["code"] for e in minimal + supersets] + _seeded_search_codes(2026, 40)
    codes += [NeuralCode(collapse_family(m)) for m in range(5, 13)]
    for code in codes:
        faces = CodeStructure(code).max_intersections
        assert _candidate_pool(faces) == every_face_pool(faces), code


@pytest.fixture(scope="module")
def oracle_codes(census):
    """The codes the fast paths are checked on against their references:
    the census, seeded 4-6-facet codes, the collapse family and the
    benchmark's four-facet and wide analyze and decide requests."""
    _, minimal, supersets = census
    codes = [e["code"] for e in minimal + supersets] + _seeded_search_codes(2026, 40)
    codes += [NeuralCode(collapse_family(m)) for m in range(5, 13)]
    gen = _benchmark_generator()
    codes += [
        parse_code(req["code"])
        for workload in ("four-facet", "wide")
        for seed in (0, 7919)
        for req in gen.GENERATORS[workload](seed)
        if "code" in req
    ]
    return codes


def test_l24_taus_match_nerve_reference(oracle_codes):
    # the facet-trace test admits exactly the taus that the nerve's edge
    # and triangle sets admit
    codes = list(oracle_codes)
    gen = _benchmark_generator()
    # those hold 38 codes that admit a tau; the minimal code of an L24
    # family grown by a random fifth facet, or a superset of it, admits one
    # in more than a quarter of cases, with the fifth facet as hub, spoke
    # or neither
    rng = random.Random(32)
    for _ in range(300):
        facets = gen.l24_family(rng, 8) + [frozenset(rng.sample(range(1, 10), rng.randint(2, 5)))]
        if not any(a <= b for a, b in itertools.permutations(facets, 2)):
            code = minimal_code(facets)
            extra = [f for f in sort_words(max_intersection_faces(facets)) if rng.random() < 0.5]
            codes += [code, NeuralCode(code.codewords | frozenset(extra))]
    admitting = 0
    for code in codes:
        s = CodeStructure(code)
        got = _l24_taus(s)
        assert got == reference_l24_taus(s), code
        admitting += bool(got)
    assert admitting >= 100


def _link_case(facet_masks, sigma):
    """Which branch of _link_contractible settles the link of sigma."""
    holders = [f for f in facet_masks if not sigma & ~f]
    if functools.reduce(int.__and__, holders) != sigma:
        return "cone"
    return "rows" if len(holders) > 4 else max(len(holders), 2)


def test_links_match_row_reference(oracle_codes):
    # the cell-trace link routine answers what the row routine it replaced
    # answers, on the faces the pipeline asks about (facets and
    # max-intersection faces) and on random faces of random antichains,
    # through the structure's cells and through the public entry point
    cases = Counter()
    for code in oracle_codes:
        s = CodeStructure(code)
        for sigma in {*s.facet_masks, *s.max_intersections}:
            got = _link_contractible(s.facet_masks, s.cells, sigma)
            assert got is reference_link_rows(s.facet_masks, sigma), (code, sigma)
            cases[_link_case(s.facet_masks, sigma)] += 1
    # any nonempty face of random facets on at most 8 neurons; a face
    # smaller than the meet of the facets holding it has a cone for its link
    rng = random.Random(34)
    for _ in range(5000):
        facets = [frozenset(rng.sample(range(1, 9), rng.randint(1, 7))) for _ in range(rng.randint(1, 7))]
        s = CodeStructure(NeuralCode(facets))
        f = rng.choice(s.facet_masks)
        sigma = rng.choice([b for b in range(1, f + 1) if not b & ~f])
        got = _link_contractible(s.facet_masks, s.cells, sigma)
        assert got is reference_link_rows(s.facet_masks, sigma), (facets, sigma)
        assert is_link_contractible(s.facets, s.packed.word(sigma)) is got, (facets, sigma)
        cases[_link_case(s.facet_masks, sigma)] += 1
    assert min(cases[case] for case in ("cone", 2, 3, 4, "rows")) >= 50, cases


def test_builder_arrangements_match_reference_sampler(census):
    # every census code the builders cover verifies, and the column sweep
    # finds the reference sampler's patterns on each distinct 2-D arrangement
    from convexcodes.realize import verify_realization
    from convexcodes.realize.builders import _build
    from test_realize import sweep_matches_reference

    _, minimal, supersets = census
    arrangements, tags = {}, set()
    for e in minimal + supersets:
        built = _build(CodeStructure(e["code"])) if e["verdict"] is Verdict.CONVEX else None
        if built is None:
            continue
        r, tag = built
        assert verify_realization(r, e["code"])[0], e["code"]
        if r.dimension == 2:
            tags.add(tag)
            arrangements.setdefault(frozenset(p.integer_form for p in r.regions.values()), r)
    for r in arrangements.values():
        assert sweep_matches_reference(r.regions.values()), r
    assert tags == {"L18Case2", "L21CaseB1", "L21CaseB3", "L22Case2b", "L22Case3b", "L22Case4"}
