"""Full-scale acceptance checks for the public pipeline.

Every class here exercises one end-to-end guarantee: golden verdicts on
the benchmark codes, exhaustive sweeps over small facet families,
soundness on large random populations, and agreement between the exact
geometry kernel and independent brute-force oracles.  Unit-level
behavior lives in the sibling modules; this file only asserts the
externally promised outcomes, at the promised scale, under the promised
time bounds.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from convexcodes import (
    Interval,
    NeuralCode,
    Polygon,
    Realization,
    SimplicialComplex,
    Verdict,
    build_realization,
    canonical_l24_sprocket,
    classify_small_complex,
    code_of_realization,
    decide,
    enumerate_facet_antichains,
    find_sprocket,
    format_code,
    has_local_obstruction,
    is_link_contractible,
    is_max_intersection_complete,
    is_sprocket,
    max_intersection_faces,
    maximal_codewords,
    minimal_code,
    nerve,
    parse_code,
    path_of_facets,
    relabel,
    verify_realization,
)
import oracles
from oracles import REFERENCE_COMPLEXES
from conftest import fs
from test_topology import all_complexes_on


def timed_decide(code, limit=1.0):
    start = time.monotonic()
    verdict, certs = decide(code)
    assert time.monotonic() - start < limit
    return verdict, certs


class TestGoldenVerdicts:
    """The benchmark codes get their known verdicts, each in under a second."""

    def test_two_triangle_code_convex(self, c22):
        verdict, _ = timed_decide(c22)
        assert verdict is Verdict.CONVEX

    def test_filled_triangle_code_nonconvex_with_exact_sprocket(self, c24):
        verdict, certs = timed_decide(c24)
        assert verdict is Verdict.NONCONVEX
        got = certs[0].candidate
        assert got[:4] == (fs("3"), fs("6"), fs("5"), fs("1"))
        assert (got.rho1, got.rho3) == (fs("12"), fs("14"))

    def test_both_square_nerve_codes_convex(self, c18a, c18b):
        assert timed_decide(c18a)[0] is Verdict.CONVEX
        assert timed_decide(c18b)[0] is Verdict.CONVEX

    def test_wheel_code_nonconvex(self, w3):
        verdict, _ = timed_decide(w3)
        assert verdict is Verdict.NONCONVEX

    def test_coned_code_stays_nonconvex(self, d28):
        verdict, _ = timed_decide(d28)
        assert verdict is Verdict.NONCONVEX


class TestIntersectionTables:
    """Facet-intersection inventories and minimal-code closures, exactly."""

    def test_two_triangle_intersections(self, c22):
        got = max_intersection_faces(maximal_codewords(c22))
        assert got == {fs("13"), fs("3"), fs("35"), fs("5"), fs("57")}

    def test_filled_triangle_intersections(self, c24):
        got = max_intersection_faces(maximal_codewords(c24))
        assert got == {fs("1"), fs("12"), fs("14"), fs("3"), fs("6"), fs("5")}

    def test_minimal_code_is_fixed_point_of_benchmark(self, c24):
        assert minimal_code(maximal_codewords(c24)) == c24

    def test_minimal_code_closure(self):
        got = minimal_code([fs("134"), fs("1357"), fs("356")])
        assert got == parse_code("134, 1357, 356, 13, 35")


class TestRealizationRoundTrips:
    """Every covered constructive family builds and verifies byte-exactly.

    Codes whose convexity is already witnessed by intersection
    completeness are outside the builders' scope; for those the builder
    must refuse (return None) and the decision certificate must be the
    completeness one.  Everything else must build, verify with an empty
    diff, and reproduce the target text exactly.
    """

    def _round_trip(self, code):
        built = build_realization(code)
        if built is None:
            verdict, certs = decide(code)
            assert verdict is Verdict.CONVEX
            assert certs[0].kind == "MaxIntersectionComplete"
            return None
        realization, tag = built
        ok, diff = verify_realization(realization, code)
        assert ok
        assert not diff.missing and not diff.extra
        assert format_code(code_of_realization(realization)) == format_code(code)
        return tag

    def test_benchmark_codes_round_trip(self, c22, c18a, c18b):
        assert self._round_trip(c22) == "L22Case2b"
        assert self._round_trip(c18a) == "L18Case1"
        assert self._round_trip(c18b) == "L18Case2"

    def test_all_small_constructive_codes_round_trip(self):
        start = time.monotonic()

        chain_tags = Counter()
        path_free = Counter()
        for facets in enumerate_facet_antichains(7, 3):
            if path_of_facets(*facets) is None:
                # connected path-free triples are complete and refuse;
                # disconnected ones split into coverable pieces and glue
                tag = self._round_trip(minimal_code(facets))
                path_free[tag.split("(")[0] if tag else "refused"] += 1
                continue
            tag = self._round_trip(minimal_code(facets))
            chain_tags[tag or "refused"] += 1
        # a path of facets forces a non-mandatory meet, so refusal is impossible
        assert chain_tags == {"PoFChain1D": 50}
        assert path_free == {"refused": 117, "DisconnectedGlue": 35}

        family_tags = Counter()
        for facets in enumerate_facet_antichains(7, 4):
            class_id = classify_small_complex(nerve(facets)).class_id
            if class_id not in ("L18", "L21", "L22"):
                continue
            code = minimal_code(facets)
            tag = self._round_trip(code)
            family_tags[(class_id, tag or "refused")] += 1
            if tag is not None:
                # verified convex constructions must never admit a sprocket
                assert find_sprocket(code, budget=200) is None
        assert family_tags == {
            ("L18", "L18Case1"): 1,
            ("L18", "L18Case2"): 1,
            ("L18", "L18Case3"): 8,
            ("L18", "refused"): 45,
            ("L21", "L21CaseB1"): 34,
            ("L21", "L21CaseB2"): 1,
            ("L21", "L21CaseB3"): 9,
            ("L21", "refused"): 158,
            ("L22", "L22Case2a"): 6,
            ("L22", "L22Case2b"): 1,
            ("L22", "L22Case3a"): 3,
            ("L22", "L22Case3b"): 8,
            ("L22", "L22Case4"): 9,
            ("L22", "refused"): 50,
        }

        assert time.monotonic() - start < 120


class TestFourVertexClassification:
    """Every complex on exactly four labeled vertices classifies uniquely."""

    def test_exhaustive_with_witness_replay_and_permutation_invariance(self):
        four_vertex_classes = {f"L{i}" for i in range(9, 29)}
        seen = set()
        for family in all_complexes_on(4):
            got = classify_small_complex(SimplicialComplex(family))
            assert got.class_id in four_vertex_classes
            seen.add(got.class_id)

            mapping = dict(got.relabeling)
            relabeled = SimplicialComplex(
                frozenset(mapping[v] for v in f) for f in family
            )
            reference = REFERENCE_COMPLEXES[got.class_id]
            assert set(relabeled.facets) == set(reference.facets)

            for perm in itertools.permutations(range(1, 5)):
                image = dict(zip(range(1, 5), perm))
                permuted = SimplicialComplex(
                    frozenset(image[v] for v in f) for f in family
                )
                assert classify_small_complex(permuted).class_id == got.class_id
        assert seen == four_vertex_classes


class TestContractibilityCrossCheck:
    def test_reference_table_matches_collapsibility_oracle(self):
        for name, sc in REFERENCE_COMPLEXES.items():
            expected = oracles.contractible_small(sc.facets)
            assert classify_small_complex(sc).contractible == expected, name
            if expected:
                # contractible requires connected with Euler characteristic 1
                assert oracles.is_connected(sc.facets), name
                assert oracles.euler_characteristic(sc.facets) == 1, name

    def test_path_of_facets_iff_contractible_meet_link(self):
        """On 1,000 random facet triples the path criterion matches the link."""
        rng = random.Random(2020)
        checked = 0
        while checked < 1000:
            common = frozenset(rng.sample(range(1, 8), rng.randint(1, 2)))
            triple = [
                common | frozenset(i for i in range(1, 8) if rng.random() < 0.4)
                for _ in range(3)
            ]
            if any(a <= b for a, b in itertools.permutations(triple, 2)):
                continue
            # the random extras may coincide, so take the actual meet
            meet = triple[0] & triple[1] & triple[2]
            witness = path_of_facets(*triple)
            contractible = is_link_contractible(triple, meet)
            assert (witness is not None) == (contractible is True)
            checked += 1


class TestFilledTriangleDichotomy:
    """Minimal codes with the one-filled-triangle nerve split exactly in two.

    Over every canonical four-facet family on at most six neurons whose
    nerve has a single filled triangle, the verdict is CONVEX precisely
    when the triangle admits no path of facets, and NONCONVEX through a
    validated canonical sprocket precisely when it does.
    """

    def test_population_scale_dichotomy(self):
        convex = nonconvex = 0
        for facets in enumerate_facet_antichains(6, 4):
            got = classify_small_complex(nerve(facets))
            if got.class_id != "L24":
                continue
            # the relabeling witness names the triangle; the fourth facet
            # is the off-triangle vertex and never takes part
            mapping = dict(got.relabeling)
            triangle = [facets[i - 1] for i in sorted(mapping, key=mapping.get)[:3]]
            has_path = path_of_facets(*triangle) is not None

            code = minimal_code(facets)
            verdict, _ = decide(code)
            if has_path:
                assert verdict is Verdict.NONCONVEX
                candidate = canonical_l24_sprocket(code)
                assert candidate is not None
                assert is_sprocket(code, candidate)[0]
                nonconvex += 1
            else:
                assert verdict is Verdict.CONVEX
                convex += 1
        assert (convex, nonconvex) == (26, 1)


def random_bounded_code(rng):
    """A random code on up to 7 neurons with at most 4 maximal words."""
    n = rng.randint(2, 7)
    facets = set()
    for _ in range(rng.randint(1, 4)):
        f = frozenset(i for i in range(1, n + 1) if rng.random() < 0.6)
        if f:
            facets.add(f)
    if not facets:
        facets = {frozenset({1})}
    maximal = {f for f in facets if not any(f < g for g in facets)}
    words = {frozenset()} | maximal
    for w in sorted({w & f for w in list(words) for f in maximal if w & f}, key=sorted):
        if rng.random() < 0.4:
            words.add(w)
    for f in sorted(maximal, key=sorted):
        sub = frozenset(i for i in f if rng.random() < 0.5)
        if sub and rng.random() < 0.5:
            words.add(sub)
    return NeuralCode(words, n=n)


class TestRandomSoundness:
    """Verdict soundness and label independence on 10,000 random codes."""

    def test_population_scale_invariants(self):
        rng = random.Random(20260815)
        for _ in range(10000):
            code = random_bounded_code(rng)
            assert len(maximal_codewords(code)) <= 4
            verdict, _ = decide(code, budget=2000)

            if has_local_obstruction(code) is not None:
                assert verdict is not Verdict.CONVEX
            if is_max_intersection_complete(code)[0]:
                assert verdict is not Verdict.NONCONVEX

            perm = list(range(1, code.n + 1))
            for _ in range(20):
                rng.shuffle(perm)
                permuted = relabel(code, tuple(perm))
                assert decide(permuted, budget=2000)[0] is verdict


class TestKnownOpenHonesty:
    """The corrected open benchmark is never waved through as convex."""

    def test_printed_variant_has_the_obstruction(self, c26_printed):
        verdict, certs = decide(c26_printed)
        assert verdict is Verdict.NONCONVEX
        assert certs[0].kind == "LocalObstruction"
        assert certs[0].face == fs("3")

    def test_corrected_variant_never_convex(self, c26_corrected):
        verdict, _ = decide(c26_corrected)
        assert verdict in (Verdict.NONCONVEX, Verdict.UNKNOWN)
        assert verdict is not Verdict.CONVEX


class TestGeometryOracleEquivalence:
    """The exact code extractor agrees with brute-force sampling oracles."""

    def test_thousand_interval_families(self):
        rng = random.Random(64901)
        for _ in range(1000):
            regions = {}
            for k in range(1, rng.randint(2, 8)):
                lo = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                hi = lo + Fraction(rng.randint(1, 10), rng.randint(1, 3))
                regions[k] = (lo, hi)
            r = Realization(
                1, {k: Interval(lo, hi) for k, (lo, hi) in regions.items()}
            )
            assert code_of_realization(r).codewords == oracles.interval_code_oracle(
                regions
            )

    def test_two_hundred_rectangle_families(self):
        rng = random.Random(64903)
        for _ in range(200):
            rects = {}
            for k in range(1, rng.randint(2, 4)):
                x1 = Fraction(rng.randint(-6, 6))
                y1 = Fraction(rng.randint(-6, 6))
                rects[k] = (x1, x1 + rng.randint(1, 6), y1, y1 + rng.randint(1, 6))
            r = Realization(
                2,
                {
                    k: Polygon([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])
                    for k, (x1, x2, y1, y2) in rects.items()
                },
            )
            assert code_of_realization(r).codewords == oracles.rectangle_code_oracle(
                rects
            )
