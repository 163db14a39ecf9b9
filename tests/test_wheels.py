import itertools
import math
import random

from convexcodes import (
    NeuralCode,
    SprocketCandidate,
    canonical_l24_sprocket,
    canonicalize,
    find_sprocket,
    is_partial_wheel,
    is_sprocket,
    minimal_code,
    parse_code,
    relabel,
)
from convexcodes.codes import (
    _RELABEL_CAP,
    EMPTY,
    _profile_relabeling,
    max_intersection_faces,
    maximal_codewords,
    relabel_word,
    sort_words,
)
from convexcodes.topology import CodeStructure
from convexcodes.wheels import _find_sprocket

from conftest import collapse_family, fs
from oracles import reference_find_sprocket, reference_search_relabeling, reference_tie_groups


def cand(s1, s2, s3, tau, r1, r3):
    return SprocketCandidate(fs(s1), fs(s2), fs(s3), fs(tau), fs(r1), fs(r3))


class TestPartialWheel:
    def test_c24_wheel(self, c24):
        ok, tag = is_partial_wheel(c24, fs("3"), fs("6"), fs("5"), fs("1"))
        assert ok and tag is None

    def test_c24_bad_spoke(self, c24):
        # {2,5} sits inside no facet, so the third spoke is not a face
        ok, tag = is_partial_wheel(c24, fs("3"), fs("6"), fs("5"), fs("2"))
        assert not ok and tag == "P(iii)"

    def test_c24_empty_tau(self, c24):
        ok, tag = is_partial_wheel(c24, fs("3"), fs("6"), fs("5"), frozenset())
        assert not ok and tag == "P(ii)"


class TestSprocket:
    def test_c24_paper_witnesses(self, c24):
        ok, tag = is_sprocket(c24, cand("3", "6", "5", "1", "12", "14"))
        assert ok and tag is None

    def test_c24_degenerate_witnesses(self, c24):
        ok, tag = is_sprocket(c24, cand("3", "6", "5", "1", "1", "1"))
        assert not ok and tag == "S(3)"

    def test_wheel_failure_reported_first(self, c24):
        ok, tag = is_sprocket(c24, cand("3", "6", "5", "2", "12", "14"))
        assert not ok and tag == "P(iii)"

    def test_sprocket_implies_partial_wheel(self, c24, w3, d28):
        for code in (c24, w3, d28):
            got = find_sprocket(code)
            assert got is not None
            assert is_partial_wheel(code, *got.wheel_part())[0]
            assert is_sprocket(code, got)[0]


class TestCanonicalL24Sprocket:
    def test_c24(self, c24):
        got = canonical_l24_sprocket(c24)
        assert got == cand("3", "6", "5", "1", "12", "14")

    def test_w3(self, w3):
        got = canonical_l24_sprocket(w3)
        assert got == cand("2", "6", "4", "1", "13", "15")

    def test_no_pof_returns_none(self):
        # triangle facets all meet in {4}, so all three pairwise
        # differences are empty and the path test fails
        facets = [fs("14"), fs("24"), fs("34"), fs("123")]
        from convexcodes import classify_small_complex, nerve

        assert classify_small_complex(nerve(facets)).class_id == "L24"
        assert canonical_l24_sprocket(minimal_code(facets)) is None

    def test_validates_on_every_small_minimal_l24_pof_code(self):
        from convexcodes import classify_small_complex, nerve, path_of_facets
        from convexcodes.atlas import enumerate_facet_antichains

        hits = 0
        for facets in enumerate_facet_antichains(6, 4):
            sc = nerve(facets)
            got = classify_small_complex(sc)
            if got.class_id != "L24":
                continue
            mapping = got.relabeling_dict()
            triangle = [facets[i - 1] for i in sorted(mapping, key=mapping.get)[:3]]
            if path_of_facets(*triangle) is None:
                continue
            code = minimal_code(facets)
            sp = canonical_l24_sprocket(code)
            assert sp is not None
            assert is_sprocket(code, sp)[0]
            hits += 1
        assert hits >= 1


class TestFindSprocket:
    def test_c24_found_and_valid(self, c24):
        got = find_sprocket(c24)
        assert got is not None
        assert is_sprocket(c24, got)[0]

    def test_c22_none_at_any_budget(self, c22):
        for budget in (10, 1000, 10**6, 10**8):
            assert find_sprocket(c22, budget) is None

    def test_d28_found_via_cone(self, d28):
        # the base code's sprocket validates verbatim after coning, so the
        # cone-stripping recursion returns it apex-free
        got = find_sprocket(d28)
        assert got is not None
        assert is_sprocket(d28, got)[0]

    def test_zero_budget_generic_still_tries_canonical(self, c24):
        assert find_sprocket(c24, budget=0) is not None

    def test_none_is_not_a_nonexistence_proof(self, c26_corrected):
        # nothing is asserted about existence here, only about honesty:
        # whatever the search returns must validate if not None
        got = find_sprocket(c26_corrected)
        if got is not None:
            assert is_sprocket(c26_corrected, got)[0]

    def test_equivariant_under_relabeling(self, c24):
        rng = random.Random(3)
        perm = list(range(1, c24.n + 1))
        for _ in range(10):
            rng.shuffle(perm)
            p = tuple(perm)
            mapped = relabel(c24, p)
            got = find_sprocket(mapped)
            assert got is not None
            assert is_sprocket(mapped, got)[0]

    def test_search_respects_is_sprocket_on_random_relabels(self, w3):
        rng = random.Random(5)
        perm = list(range(1, w3.n + 1))
        for _ in range(6):
            rng.shuffle(perm)
            mapped = relabel(w3, tuple(perm))
            got = find_sprocket(mapped)
            assert got is not None and is_sprocket(mapped, got)[0]


class TestSprocketEquivariance:
    def test_is_sprocket_commutes_with_relabeling(self, c24):
        base = cand("3", "6", "5", "1", "12", "14")
        rng = random.Random(9)
        perm = list(range(1, c24.n + 1))
        for _ in range(12):
            rng.shuffle(perm)
            p = tuple(perm)
            mapped_code = relabel(c24, p)
            mapped_cand = SprocketCandidate(
                *(relabel_word(w, p) for w in base.words())
            )
            assert is_sprocket(mapped_code, mapped_cand) == is_sprocket(c24, base)

    def test_canonical_collapse(self, c24, w3):
        # C24 and W3 are the same code up to relabeling
        assert canonicalize(c24).code == canonicalize(w3).code


def _seeded_search_codes(seed, count):
    """Minimal codes of random 4-6-facet families on <= 7 neurons.

    Every other family also gets a random subset of its max-intersection
    faces, so both minimal and larger codes reach the search.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 7)
        facets = set()
        for _ in range(rng.randint(4, 6)):
            f = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
            if len(f) >= 2:
                facets.add(f)
        facets = [f for f in facets if not any(f < g for g in facets)]
        if not 4 <= len(facets) <= 6:
            continue
        try:
            code = minimal_code(facets)
        except ValueError:  # contractibility unresolved beyond four facets
            continue
        if len(out) % 2:
            extra = [f for f in sort_words(max_intersection_faces(facets)) if rng.random() < 0.5]
            code = NeuralCode(code.codewords | frozenset(extra))
        out.append(code)
    return out


def _shuffled(rng, code):
    """The code with its support relabeled by a random permutation of 1..s."""
    support = sorted(code.support())
    image = dict(zip(support, rng.sample(range(1, len(support) + 1), len(support))))
    return NeuralCode(frozenset(image[i] for i in w) for w in code.codewords)


def _grown(c24, w3):
    """C24 and W3 grown by a fifth facet or a second component.

    The generic search finds their sprocket only after spending budget, so
    the order in which it visits candidates shows in the budget left.
    """
    return [
        NeuralCode(base.codewords | {fs(w) for w in extra})
        for base in (c24, w3)
        for extra in (("89",), ("289",), ("38", "89"))
    ]


def _relabeled(code):
    """The (relabeled code, inverse map) pair reference_search_relabeling returns."""
    label = _profile_relabeling(code)
    relabeled = NeuralCode(frozenset(label[i] for i in w) for w in code.codewords)
    return relabeled, {new: old for old, new in label.items()}


def _run(search, code, budget):
    box = [budget]
    # the bitmask search reads the code's structure, the reference the code
    got = search(CodeStructure(code) if search is _find_sprocket else code, box)
    return (None if got is None else got.words()), box[0]


class TestSearchLabelInvariance:
    """Below the relabeling cap, whether the search finds a sprocket and the
    budget it leaves are properties of the code, not of its labels."""

    def test_outcome_same_for_relabeled_copies(self, c22, c24, c26_corrected, d28, w3):
        rng = random.Random(14)
        full = TestSearchAgainstReference.FULL
        checked = spent_to_find = 0
        goldens = [c22, c24, c26_corrected, d28, w3] + _grown(c24, w3)
        for code in goldens + _seeded_search_codes(2026, 40):
            groups = reference_tie_groups(code)
            if math.prod(math.factorial(len(g)) for g in groups) > _RELABEL_CAP:
                continue
            copies = [_shuffled(rng, code) for _ in range(3)]
            words, left = _run(_find_sprocket, code, full)
            used = full - left
            spent_to_find += words is not None and used > 0
            for budget in {0, 1, used - 1, used, used + 1, full} - {-1}:
                outcomes = set()
                for c in [code] + copies:
                    words, left = _run(_find_sprocket, c, budget)
                    outcomes.add((words is None, left))
                assert len(outcomes) == 1, (sorted(map(sorted, code.codewords)), budget)
                checked += 1
        assert checked > 100 and spent_to_find >= 6


class TestSearchAgainstReference:
    """The bitmask search returns what the frozenset loop returns, and
    leaves the same budget, at every budget."""

    FULL = 10_000

    def _check(self, code, rng):
        words, left = _run(reference_find_sprocket, code, self.FULL)
        used = self.FULL - left
        budgets = {0, 1, used - 1, used, used + 1, self.FULL}
        budgets.update(rng.randint(0, max(used, 1)) for _ in range(3))
        for budget in sorted(b for b in budgets if b >= 0):
            assert _run(_find_sprocket, code, budget) == _run(
                reference_find_sprocket, code, budget
            ), (sorted(map(sorted, code.codewords)), budget)
        return words is not None, used

    def test_every_budget(self, c24, w3):
        """Every budget from 0 to one past the steps spent, not a sample.

        A block of skipped steps charged one step too many or too few can
        change the outcome at only a few budgets, which sampled budgets
        can miss.  The seeded codes are the 5-6-facet ones spending at most
        800 steps, which bounds the quadratic cost of rerunning the
        reference at each budget.
        """
        seeded = [
            c for c in _seeded_search_codes(3, 40) if len(maximal_codewords(c)) >= 5
        ]
        spent = []
        for code in _grown(c24, w3) + seeded:
            _words, left = _run(reference_find_sprocket, code, self.FULL)
            used = self.FULL - left
            if not 0 < used <= 800:
                continue
            for budget in range(used + 2):
                assert _run(_find_sprocket, code, budget) == _run(
                    reference_find_sprocket, code, budget
                ), (sorted(map(sorted, code.codewords)), budget)
            spent.append(used)
        # all six grown codes (44-458 steps) and at least three seeded ones
        assert len(spent) >= 9 and min(spent[:6]) >= 44 and max(spent[:6]) >= 450

    def test_golden_codes(self, c22, c24, c26_corrected, d28, w3):
        rng = random.Random(11)
        for code in (c22, c24, c26_corrected, d28, w3):
            self._check(code, rng)
        for code in _grown(c24, w3):
            hit, used = self._check(code, rng)
            assert hit and used > 0

    def test_seeded_four_to_six_facet_codes(self):
        rng = random.Random(12)
        found = searched = 0
        for code in _seeded_search_codes(2026, 40):
            hit, used = self._check(code, rng)
            found += hit
            searched += used > 0
        # the sample reaches both outcomes of a search that spends budget
        assert found and searched > found

    def test_relabeling_matches_reference(self, c22, c24, d28, w3):
        codes = [c22, c24, d28, w3] + _seeded_search_codes(7, 20)
        rng = random.Random(13)
        # interchangeable neurons: the pruned orders must find the same least code
        for m in range(6, 10):
            code = minimal_code(collapse_family(m))
            coned = NeuralCode(code.codewords | {frozenset({1})})
            codes += [_shuffled(rng, c) for c in (code, code, coned, coned)]
        for n in range(2, 7):
            neurons = range(1, n + 1)
            proper = [frozenset(c) for r in range(n) for c in itertools.combinations(neurons, r)]
            codes += [NeuralCode(proper), NeuralCode([frozenset({i}) for i in neurons] + [EMPTY])]
        for code in codes:
            assert _relabeled(code) == reference_search_relabeling(code)

    def test_relabeling_cap_judged_on_unpruned_count(self, monkeypatch):
        # tie groups of 6 and 4 interchangeable leaves and two non-interchangeable
        # pairs (the ends and the middle of a path): 6!4!2!2! = 69120 orders
        facets = [frozenset({1, 50, 100 + i}) for i in range(6)] + [
            frozenset({1, 60, 300, 301, 302, 303}),
            frozenset({1, 50, 60}),
            frozenset({1, 500, 501}),
            frozenset({1, 501, 502}),
            frozenset({1, 502, 503}),
        ]
        code = minimal_code(facets)
        groups = reference_tie_groups(code)
        total = math.prod(math.factorial(len(g)) for g in groups)
        assert _RELABEL_CAP < total <= 2 * _RELABEL_CAP
        rng = random.Random(5)
        copies = [_shuffled(rng, code) for _ in range(6)]
        capped = [_relabeled(c) for c in copies]
        for copy, got in zip(copies, capped):
            assert got == reference_search_relabeling(copy)
        # judged on the pruned count the search would run, and answer otherwise
        monkeypatch.setattr("convexcodes.codes._RELABEL_CAP", total)
        assert any(_relabeled(c) != got for c, got in zip(copies, capped))
