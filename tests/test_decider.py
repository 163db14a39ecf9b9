import itertools
import random
from collections import Counter

import pytest

import convexcodes.topology
from convexcodes import (
    NeuralCode,
    Verdict,
    analyze,
    atlas_rows,
    canonical_l24_sprocket,
    classify_small_complex,
    decide,
    find_sprocket,
    has_local_obstruction,
    is_max_intersection_complete,
    is_sprocket,
    maximal_codewords,
    minimal_code,
    nerve,
    parse_code,
    relabel,
)
from convexcodes.codes import max_intersection_faces, sort_words
from convexcodes.decider import _decide
from convexcodes.topology import CodeStructure

from conftest import collapse_family, fs, support
from oracles import reference_path_of_facets
from test_wheels import _benchmark_generator, _seeded_search_codes


class TestDecideGoldens:
    def test_c22_theorem(self, c22):
        verdict, certs = decide(c22)
        assert verdict is Verdict.CONVEX
        assert [c.kind for c in certs] == ["TheoremNoLocalObstruction"]
        assert certs[0].class_id == "L22"

    def test_c24_sprocket(self, c24):
        verdict, certs = decide(c24)
        assert verdict is Verdict.NONCONVEX
        assert [c.kind for c in certs] == ["L24MinimalPoFSprocket"]
        got = certs[0].candidate
        assert got[:4] == (fs("3"), fs("6"), fs("5"), fs("1"))
        assert (got.rho1, got.rho3) == (fs("12"), fs("14"))

    def test_single_facet(self):
        verdict, certs = decide(parse_code("12"))
        assert verdict is Verdict.CONVEX
        assert certs[0].kind == "MaxIntersectionComplete"

    def test_c26_corrected_never_convex(self, c26_corrected):
        verdict, certs = decide(c26_corrected)
        assert verdict is not Verdict.CONVEX
        if verdict is Verdict.UNKNOWN:
            assert certs == []
        else:
            assert certs[0].kind == "Sprocket"
            assert is_sprocket(c26_corrected, certs[0].candidate)[0]

    def test_c26_printed_obstruction(self, c26_printed):
        verdict, certs = decide(c26_printed)
        assert verdict is Verdict.NONCONVEX
        assert certs[0].kind == "LocalObstruction"
        assert certs[0].face == fs("3")


class TestDecideBranches:
    def test_obstruction_beats_class_theorems(self, c22):
        # delete a mandatory edge from a code whose nerve class is convex
        broken = NeuralCode(c22.codewords - {fs("13")})
        verdict, certs = decide(broken)
        assert verdict is Verdict.NONCONVEX
        assert certs[0].kind == "LocalObstruction"

    def test_three_facets_unobstructed(self):
        code = parse_code("134, 1357, 356, 13, 35")
        verdict, certs = decide(code)
        assert verdict is Verdict.CONVEX
        assert certs[0].kind == "TheoremNoLocalObstruction"
        assert certs[0].class_id == "<=3-maximal"

    def test_l24_minimal_no_pof_convex(self):
        # a minimal L24 code failing the path test is always complete
        # (every max-intersection face is mandatory), so the verdict is
        # CONVEX with the completeness certificate rather than the L24 arm
        from convexcodes import minimal_code, path_of_facets

        facets = [fs("14"), fs("24"), fs("34"), fs("123")]
        assert path_of_facets(fs("14"), fs("24"), fs("34")) is None
        verdict, certs = decide(minimal_code(facets))
        assert verdict is Verdict.CONVEX
        assert certs[0].kind == "MaxIntersectionComplete"

    def test_l24_census(self):
        """Every minimal code of an L24 family with one neuron per cell.

        A cell is a nonempty set of facets, and a neuron sits in the cell of
        the facets holding it.  Twin neurons share a cell and do not change
        convexity, so these 512 labeled patterns stand for every minimal L24
        code.  None of them reaches a Path-of-Facets failure in the L24 arm:
        a triangle failing it makes the minimal code complete.
        """
        cells = [frozenset(c) for r in range(1, 5) for c in itertools.combinations(range(4), r)]
        kinds = Counter()
        for pattern in range(1 << len(cells)):
            occupied = [c for k, c in enumerate(cells) if pattern >> k & 1]
            # neuron k + 1 sits in the k-th occupied cell
            facets = [frozenset(k + 1 for k, c in enumerate(occupied) if j in c) for j in range(4)]
            if not all(facets) or any(f <= g for f, g in itertools.permutations(facets, 2)):
                continue
            if classify_small_complex(nerve(facets)).class_id != "L24":
                continue
            verdict, certs = decide(minimal_code(facets))
            kinds[verdict, certs[0].kind] += 1
        assert kinds == {
            (Verdict.CONVEX, "MaxIntersectionComplete"): 320,
            (Verdict.NONCONVEX, "L24MinimalPoFSprocket"): 192,
        }

    def test_nonminimal_l24_goes_to_search(self, c24):
        # adding the missing face 1 makes the code complete, so the verdict
        # lands at step 2 instead of the L24 dichotomy
        code = NeuralCode(c24.codewords | {fs("1")})
        verdict, certs = decide(code)
        assert verdict is Verdict.CONVEX
        assert certs[0].kind == "MaxIntersectionComplete"

    def test_disconnected_all_convex(self, c22):
        words = c22.codewords | {fs("89")}
        verdict, certs = decide(NeuralCode(words))
        assert verdict is Verdict.CONVEX
        assert certs[0].kind == "DisconnectedDecomposition"
        statuses = dict(certs[0].components)
        assert statuses[(8, 9)] == "CONVEX"
        assert len(statuses) == 2

    def test_disconnected_unknown_propagates(self, c26_corrected):
        words = c26_corrected.codewords | {fs("67")}
        verdict, certs = decide(NeuralCode(words))
        assert verdict is Verdict.UNKNOWN
        assert certs[0].kind == "DisconnectedDecomposition"
        statuses = dict(certs[0].components)
        assert statuses[(6, 7)] == "CONVEX"
        assert "UNKNOWN" in statuses.values()

    def test_disconnected_nonconvex_wins(self, c24):
        words = c24.codewords | {fs("89")}
        verdict, certs = decide(NeuralCode(words))
        assert verdict is Verdict.NONCONVEX
        assert certs[0].kind == "DisconnectedDecomposition"


class TestVerdictInvariants:
    def test_never_convex_with_obstruction(self):
        rng = random.Random(23)
        for _ in range(300):
            code = _random_code(rng)
            verdict, _ = decide(code, budget=2000)
            if has_local_obstruction(code) not in (None,):
                assert verdict is not Verdict.CONVEX

    def test_never_nonconvex_when_complete(self):
        rng = random.Random(29)
        for _ in range(300):
            code = _random_code(rng)
            verdict, _ = decide(code, budget=2000)
            if is_max_intersection_complete(code)[0]:
                assert verdict is not Verdict.NONCONVEX

    def test_relabeling_invariance_spot(self, c22, c24, c26_corrected):
        rng = random.Random(31)
        for code in (c22, c24, c26_corrected):
            base, _ = decide(code, budget=5000)
            perm = list(range(1, code.n + 1))
            for _ in range(5):
                rng.shuffle(perm)
                got, _ = decide(relabel(code, tuple(perm)), budget=5000)
                assert got is base

    def test_certificates_exclusive(self):
        rng = random.Random(37)
        for _ in range(200):
            code = _random_code(rng)
            _, certs = decide(code, budget=2000)
            kinds = {c.kind for c in certs}
            assert not (
                "LocalObstruction" in kinds and "MaxIntersectionComplete" in kinds
            )

    def test_no_neuron_in_three_facets_settled_by_first_scans(self):
        # every max-intersection face is then F_i & F_j alone, with link two
        # disjoint nonempty sets: a missing one is an obstruction, so an
        # unobstructed code is complete and no later branch is reached
        rng = random.Random(41)
        kinds = {decide(_no_triple_code(rng), budget=2000)[1][0].kind for _ in range(300)}
        assert kinds == {"LocalObstruction", "MaxIntersectionComplete"}


def _no_triple_code(rng):
    """5-7 facets, each neuron in one or two, plus some of their intersections."""
    while True:
        m = rng.randint(5, 7)
        facets = [set() for _ in range(m)]
        for i in range(1, rng.randint(m, 12) + 1):
            for f in rng.sample(facets, rng.randint(1, 2)):
                f.add(i)
        facets = {frozenset(f) for f in facets if f}
        if len(facets) >= 5 and not any(f < g for f in facets for g in facets):
            break
    extra = [f for f in sort_words(max_intersection_faces(facets)) if rng.random() < 0.5]
    return NeuralCode(facets | set(extra) | {frozenset()})


def _random_code(rng):
    n = rng.randint(2, 6)
    words = set()
    for _ in range(rng.randint(1, 8)):
        w = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        words.add(w)
    words.add(frozenset())
    return NeuralCode(words)


class TestCertificateReplay:
    """Re-running the operation a certificate names reproduces its payload."""

    def test_local_obstruction(self, c26_printed):
        _, certs = decide(c26_printed)
        assert has_local_obstruction(c26_printed) == certs[0].face

    def test_max_intersection_complete(self, c24):
        code = NeuralCode(c24.codewords | {fs("1")})
        _, certs = decide(code)
        assert certs[0].kind == "MaxIntersectionComplete"
        assert is_max_intersection_complete(code)[0]

    def test_theorem_class(self, c22):
        _, certs = decide(c22)
        cls = classify_small_complex(nerve(maximal_codewords(c22)))
        assert cls.class_id == certs[0].class_id

    def test_l24_sprocket(self, c24):
        _, certs = decide(c24)
        assert canonical_l24_sprocket(c24) == certs[0].candidate
        assert is_sprocket(c24, certs[0].candidate)[0]

    def test_disconnected_components(self, c22):
        code = NeuralCode(c22.codewords | {fs("89")})
        _, certs = decide(code)
        for neurons, status in certs[0].components:
            sub = NeuralCode(
                {w for w in code.codewords if w <= frozenset(neurons)}
            )
            verdict, _ = decide(sub)
            assert verdict.value == status


class TestCertificateText:
    def test_each_kind_renders(self, c24, c26_printed):
        _, certs = decide(c24)
        assert "L24MinimalPoFSprocket" in certs[0].text()
        _, certs = decide(c26_printed)
        assert "{3}" in certs[0].text()


class TestNegativeBudget:
    """A budget counts search steps; every entry point taking one rejects
    a negative value instead of reporting it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda code: decide(code, budget=-3),
            lambda code: analyze(code, budget=-3),
            lambda code: find_sprocket(code, budget=-1),
            lambda code: atlas_rows(3, 2, budget=-1),
        ],
        ids=["decide", "analyze", "find_sprocket", "atlas_rows"],
    )
    def test_rejected(self, c26_corrected, call):
        with pytest.raises(ValueError, match="nonnegative"):
            call(c26_corrected)

    def test_zero_allowed(self, c24, c26_corrected):
        # the closed forms take no steps, so budget 0 still finds C24's sprocket
        assert decide(c24, budget=0)[0] is Verdict.NONCONVEX
        assert analyze(c26_corrected, budget=0).to_json()["sprocket"] == {"found": False, "budget": 0}


class TestOneBudgetPerCall:
    """The nerve components of a code draw on one budget."""

    def test_disjoint_copies_share_the_budget(self, sprocket_spends):
        spent = sprocket_spends
        code = _seeded_search_codes(3, 40)[10]
        assert len(maximal_codewords(code)) == 6
        assert decide(code, budget=10_000) == (Verdict.UNKNOWN, [])
        assert spent == [726]
        top = max(support(code))
        for copies in (2, 3):
            words = {frozenset(i + k * top for i in w) for w in code.codewords for k in range(copies)}
            spent.clear()
            verdict, certs = decide(NeuralCode(words), budget=1000)
            assert verdict is Verdict.UNKNOWN
            assert certs[0].kind == "DisconnectedDecomposition"
            assert len(spent) == copies and sum(spent) <= 1000, spent


class TestAnalyze:
    def test_c24_minimal_code(self, c24):
        report = analyze(c24)
        doc = report.to_json()
        got = {frozenset(w) for w in doc["minimal_code"]}
        assert got == c24.codewords

    def test_c22_nerve_class(self, c22):
        assert analyze(c22).to_json()["nerve_class"] == "L22"

    def test_degenerate_code(self):
        doc = analyze(NeuralCode([frozenset()])).to_json()
        assert doc["facets"] == []
        assert doc["verdict"] == "CONVEX"
        assert doc["realization"] == {
            "dimension": 1, "regions": [], "construction": "PoFChain1D",
        }

    def test_report_key_contract(self, c22):
        doc = analyze(c22).to_json()
        assert set(doc) == {
            "neurons",
            "codewords",
            "facets",
            "nerve_class",
            "nerve_relabeling",
            "mandatory_faces",
            "minimal_code",
            "missing_max_intersections",
            "path_of_facets",
            "sprocket",
            "verdict",
            "certificates",
            "realization",
        }

    def test_silent_neurons_get_a_realization(self):
        # neurons 1, 3 and 4 appear in no codeword, so their regions are
        # empty and the realization lists none for them
        doc = analyze(parse_code("25, 56, 5")).to_json()
        assert (doc["verdict"], doc["neurons"]) == ("CONVEX", 6)
        assert [row["neuron"] for row in doc["realization"]["regions"]] == [2, 5, 6]

    def test_realization_attached_when_buildable(self, c22):
        doc = analyze(c22).to_json()
        assert doc["realization"] is not None
        assert doc["realization"]["dimension"] in (1, 2)

    def test_pipeline_reports_match_decide(self, c26_corrected):
        doc = analyze(c26_corrected).to_json()
        verdict, certs = decide(c26_corrected)
        assert doc["verdict"] == verdict.value
        assert len(doc["certificates"]) == len(certs)

    def test_path_of_facets_rows_match_frozenset_reference(self):
        # analyze runs the test on the facet masks; each row's witness is
        # the frozenset reference's path, as positions of the code's facets
        gen = _benchmark_generator()
        requests = [r for r in gen.four_facet_requests(0) if r["op"] == "analyze"]
        seen = Counter()
        for request in requests:
            doc = analyze(parse_code(request["code"]), budget=gen.SPROCKET_BUDGET).to_json()
            facets = [frozenset(f) for f in doc["facets"]]
            for row in doc["path_of_facets"]:
                triple = [facets[p - 1] for p in row["facets"]]
                path = reference_path_of_facets(*triple)
                witness = None if path is None else [row["facets"][triple.index(f)] for f in path]
                assert row["witness"] == witness, (request["code"], row)
                seen[witness is None] += 1
        assert len(requests) == 408 and min(seen.values()) >= 300, seen

    def test_each_link_computed_once(self, monkeypatch, c22, c24, w3, c26_corrected):
        # the obstruction scan, the mandatory faces, the L24 branch and the
        # builders all read one per-call memo of link contractibility
        counts = Counter()
        real = convexcodes.topology._link_contractible

        def counting(facet_masks, cells, sigma):
            counts[(tuple(facet_masks), sigma)] += 1
            return real(facet_masks, cells, sigma)

        monkeypatch.setattr(convexcodes.topology, "_link_contractible", counting)
        for code in (c22, c24, w3, c26_corrected):
            counts.clear()
            analyze(code)
            assert counts, "analyze computed no link"
            repeated = {key: n for key, n in counts.items() if n > 1}
            assert not repeated, repeated


class TestDecideReadsOnlyWhatItPrints:
    def test_wide_codes_unpack_no_facet(self, c22, c24, c26_corrected):
        # on five or more facets decide prints no facet and needs no
        # mandatory face, so it neither unpacks the one nor scans for the other
        codes = [c for c in _seeded_search_codes(3, 100) if len(maximal_codewords(c)) >= 5]
        codes += [minimal_code(collapse_family(m)) for m in (5, 6)]
        # three whose nerve splits, so the decomposition certificate is built
        codes += [NeuralCode(c22.codewords | {fs("89")}), NeuralCode(c24.codewords | {fs("89")})]
        codes += [NeuralCode(c26_corrected.codewords | {fs("67")})]
        assert len(codes) >= 20
        for code in codes:
            s = CodeStructure(code, [10**4])
            assert _decide(s) == decide(code, budget=10**4), code
            assert not {"facets", "mandatory", "undecided"} & s.__dict__.keys(), code
