import contextlib
import functools
import io
import itertools
import math
import random

import convexcodes.cli

from convexcodes import (
    NeuralCode,
    SprocketCandidate,
    Verdict,
    analyze,
    canonical_l24_sprocket,
    canonicalize,
    decide,
    find_sprocket,
    is_sprocket,
    maximal_codewords,
    minimal_code,
    parse_code,
    relabel,
)
from convexcodes.codes import (
    _RELABEL_CAP,
    EMPTY,
    _profile_relabeling,
    max_intersection_faces,
    relabel_word,
    sort_words,
)
from convexcodes.topology import CodeStructure
from convexcodes.wheels import _find_sprocket, _l24_taus, _Pool

from conftest import C26_CORRECTED_TEXT, collapse_family, fs, ledger, support
from oracles import (
    reference_find_sprocket,
    reference_search_relabeling,
    reference_tie_groups,
    reference_wheel_triples,
)


def cand(s1, s2, s3, tau, r1, r3):
    return SprocketCandidate(fs(s1), fs(s2), fs(s3), fs(tau), fs(r1), fs(r3))


def partial_wheel(code, s1, s2, s3, tau):
    """(P(i)-P(iii) hold, the first that fails) as is_sprocket reports them:
    it checks the P conditions first, so its label is a P label exactly
    when one fails.  The witnesses are empty, which S(1)-S(3) may refuse."""
    _ok, tag = is_sprocket(code, SprocketCandidate(s1, s2, s3, tau, EMPTY, EMPTY))
    failed = tag if tag is not None and tag.startswith("P") else None
    return failed is None, failed


class TestPartialWheel:
    def test_c24_wheel(self, c24):
        ok, tag = partial_wheel(c24, fs("3"), fs("6"), fs("5"), fs("1"))
        assert ok and tag is None

    def test_c24_bad_spoke(self, c24):
        # {2,5} sits inside no facet, so the third spoke is not a face
        ok, tag = partial_wheel(c24, fs("3"), fs("6"), fs("5"), fs("2"))
        assert not ok and tag == "P(iii)"

    def test_c24_empty_tau(self, c24):
        ok, tag = partial_wheel(c24, fs("3"), fs("6"), fs("5"), frozenset())
        assert not ok and tag == "P(ii)"

    def test_empty_candidate(self):
        # the empty set is a face iff some codeword is nonempty
        assert is_sprocket(NeuralCode([]), SprocketCandidate(*[EMPTY] * 6)) == (False, "P(i)")
        assert is_sprocket(parse_code("1"), SprocketCandidate(*[EMPTY] * 6)) == (False, "P(ii)")


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
            assert partial_wheel(code, *got[:4])[0]
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
            mapping = dict(got.relabeling)
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

    def test_no_pool_without_missing_face(self, monkeypatch):
        # a max-intersection complete code has no tau to search, before or
        # after its cone is peeled, so no candidate pool is built
        built = _count_pools(monkeypatch)
        box = [100]
        for text in ("123, 12, 13, 23, 1, 2, 3", "12, 23, 2"):
            assert _find_sprocket(CodeStructure(parse_code(text), box)) is None
        assert (built, box) == ([], [100])

    def test_default_box_is_empty(self):
        # a structure built without a box has no budget, so the generic
        # search it needs for this code's sprocket stops at once
        code = _seeded_search_codes(6, 3)[2]
        assert len(maximal_codewords(code)) == 5
        assert decide(code)[1][0].kind == "Sprocket"
        s = CodeStructure(code)
        assert _find_sprocket(s) is None
        assert s.box == [0]
        assert _find_sprocket(CodeStructure(code, [10**6])) == find_sprocket(code)

    def test_no_pool_without_l24_tau(self, sprocket_spends, monkeypatch):
        # C26 (L26) misses max-intersection faces, but none lies inside an
        # induced L24 of its nerve: the search charges every triple of its
        # taus without building the pool
        built = _count_pools(monkeypatch)
        assert decide(parse_code(C26_CORRECTED_TEXT)) == (Verdict.UNKNOWN, [])
        assert (built, sprocket_spends) == ([], [550])

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
                *(relabel_word(w, p) for w in base)
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
    labels = sorted(support(code))
    image = dict(zip(labels, rng.sample(range(1, len(labels) + 1), len(labels))))
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


# The two codes among the first 100 of _seeded_search_codes at each seed
# 0-39 and 2026 whose sprocket only the generic search finds (seed 6 #2 and
# seed 23 #78), with the steps the search spends on each from a budget of
# 10^4 and the sprocket it returns
GENERIC_HITS = {
    "2,6,7,15,17,23,24,27,47,147,156,247,2346,12357": (1615, "((6,3,4,1), rho=(5,17))"),
    "2,4,16,37,56,57,156,237,457,1246,3567": (72, "((4,6,2,7), rho=(57,3))"),
}


def _relabeled(code):
    """The (relabeled code, inverse map) pair reference_search_relabeling returns."""
    label = _profile_relabeling(CodeStructure(code).packed)
    relabeled = NeuralCode(frozenset(label[i] for i in w) for w in code.codewords)
    return relabeled, {new: old for old, new in label.items()}


def _run(search, code, budget):
    box = [budget]
    # the bitmask search reads the code's structure, which holds the box,
    # and the reference reads the code and the box
    got = search(CodeStructure(code, box)) if search is _find_sprocket else search(code, box)
    return (None if got is None else tuple(got)), box[0]


def _outcomes(code) -> list:
    """(budget, _run outcome) at the budgets next to the steps a full search
    spends, and at 0, 1 and the full budget."""
    full = TestSearchAgainstReference.FULL
    _words, left = _run(_find_sprocket, code, full)
    used = full - left
    budgets = sorted({0, 1, used - 1, used, used + 1, full} - {-1})
    return [(b, _run(_find_sprocket, code, b)) for b in budgets]


def _count_pools(monkeypatch) -> list:
    """A list of the structures the sprocket search builds a _Pool for.

    The pools it builds fail the test if _Pool.triples is asked for a tau
    that _l24_taus does not admit.
    """
    import convexcodes.wheels

    built = []

    class Counting(_Pool):
        def __init__(self, s):
            built.append(s)
            super().__init__(s)
            self.admitted = _l24_taus(s)

        def triples(self, tau):
            assert tau in self.admitted
            return super().triples(tau)

    monkeypatch.setattr(convexcodes.wheels, "_Pool", Counting)
    return built


def _count_relabelings(monkeypatch) -> list:
    """A one-item list counting the sprocket search's calls to
    _profile_relabeling, which it makes only to order its second phase."""
    import convexcodes.wheels

    calls = [0]
    relabeling = convexcodes.wheels._profile_relabeling

    def counting(packed):
        calls[0] += 1
        return relabeling(packed)

    monkeypatch.setattr(convexcodes.wheels, "_profile_relabeling", counting)
    return calls


class TestOrderFreePhase:
    """The first phase of the generic search keeps exactly the triples that
    pass P(i)-P(iii) and the hub-and-spoke pattern, by mask tests in no
    particular order."""

    def test_survivors_match_reference(self, c22, c24, c26_corrected, d28, w3):
        hits = 0
        goldens = [c22, c24, c26_corrected, d28, w3] + _grown(c24, w3)
        generic = list(map(parse_code, GENERIC_HITS))
        for code in goldens + _seeded_search_codes(2026, 40) + generic:
            facets = maximal_codewords(code)
            expected = reference_wheel_triples(code)
            for s1, s2, s3, tau in expected:
                u = s1 | s2 | s3
                # the three conditions the first phase tests by masks
                assert not (s1 & tau or s2 & tau or s3 & tau)
                assert not (s1 & s2 or s1 & s3 or s2 & s3)
                assert not any(u <= f and f & tau for f in facets)
            s = CodeStructure(code)
            # the L24 filter admits the tau of every triple reaching the witnesses
            admitted = _l24_taus(s)
            assert {tau for *_s, tau in expected} <= set(map(s.packed.word, admitted))
            pool = _Pool(s)
            got = []
            for mask in s.missing:
                tau = s.packed.word(mask)
                for i1, i2, i3 in pool.triples(mask):
                    got.append((frozenset({pool.words[i1], pool.words[i3]}), pool.words[i2], tau))
            # one of each mirror pair (s1, s2, s3), (s3, s2, s1), none twice
            assert len(got) == len(set(got)) and 2 * len(got) == len(expected)
            assert set(got) == {(frozenset({s1, s3}), s2, tau) for s1, s2, s3, tau in expected}
            hits += len(got)
        assert hits >= 20

    def test_outcome_same_for_any_pool_order(self, c24, w3, monkeypatch):
        # int and frozenset hashes do not follow PYTHONHASHSEED, so the
        # pool's set order is fixed from run to run; shuffle it here instead
        import convexcodes.wheels

        pool_of = convexcodes.wheels._candidate_pool
        codes = _grown(c24, w3) + _seeded_search_codes(2026, 40)
        expected = [_outcomes(code) for code in codes]
        rng = random.Random(15)

        def shuffled_pool(faces):
            masks = sorted(pool_of(faces))
            rng.shuffle(masks)
            return masks

        monkeypatch.setattr(convexcodes.wheels, "_candidate_pool", shuffled_pool)
        for code, outcomes in zip(codes, expected):
            for _ in range(3):
                assert _outcomes(code) == outcomes

    def test_outcome_same_when_filter_admits_every_tau(
        self, c22, c24, c26_corrected, d28, w3, monkeypatch
    ):
        # without the L24 filter every search builds its pool and runs the
        # first phase on each missing tau, as the search did before it
        import convexcodes.wheels

        goldens = [c22, c24, c26_corrected, d28, w3] + _grown(c24, w3)
        codes = goldens + _seeded_search_codes(2026, 40)
        expected = [_outcomes(code) for code in codes]
        structures = map(CodeStructure, codes)
        assert sum(len(_l24_taus(s)) < len(s.missing) for s in structures) >= 20

        def every_tau(s):
            return set(s.missing)

        monkeypatch.setattr(convexcodes.wheels, "_l24_taus", every_tau)
        for code, outcomes in zip(codes, expected):
            assert _outcomes(code) == outcomes


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

    def test_every_budget(self, c24, w3, monkeypatch):
        """Every budget from 0 to one past the steps spent, not a sample.

        A block of skipped steps charged one step too many or too few can
        change the outcome at only a few budgets, which sampled budgets
        can miss.  The seeded codes are the 5-6-facet ones spending at most
        800 steps, which bounds the quadratic cost of rerunning the
        reference at each budget.  The sample holds searches of both
        phases: some end in the order-free charge, which computes no
        relabeling, and some reach the ordered walk, which does.  After
        the grown codes comes the 72-step code of GENERIC_HITS, a
        five-facet code whose sprocket no closed form finds.
        """
        relabelings = _count_relabelings(monkeypatch)
        seeded = [
            c for c in _seeded_search_codes(3, 40) if len(maximal_codewords(c)) >= 5
        ]
        generic = "2,4,16,37,56,57,156,237,457,1246,3567"
        spent, walked = [], []
        for code in _grown(c24, w3) + [parse_code(generic)] + seeded:
            _words, left = _run(reference_find_sprocket, code, self.FULL)
            used = self.FULL - left
            if not 0 < used <= 800:
                continue
            before = relabelings[0]
            _run(_find_sprocket, code, self.FULL)
            walked.append(relabelings[0] > before)
            for budget in range(used + 2):
                assert _run(_find_sprocket, code, budget) == _run(
                    reference_find_sprocket, code, budget
                ), (sorted(map(sorted, code.codewords)), budget)
            spent.append(used)
        # all six grown codes (44-458 steps) and at least three seeded ones
        assert len(spent) >= 9 and min(spent[:6]) >= 44 and max(spent[:6]) >= 450
        # the grown codes find their sprocket on the walk; some seeded code
        # spends its budget in the order-free charge
        assert all(walked[:6]) and not all(walked[6:])
        # the generic hit is checked at each of its 74 budgets, and walks
        assert (spent[6], walked[6]) == (GENERIC_HITS[generic][0], True)

    def test_golden_codes(self, c22, c24, c26_corrected, d28, w3):
        rng = random.Random(11)
        for code in (c22, c24, c26_corrected, d28, w3):
            self._check(code, rng)
        for code in _grown(c24, w3):
            hit, used = self._check(code, rng)
            assert hit and used > 0
        # the codes whose sprocket only the generic search finds, on sampled
        # budgets: every budget of the 1,615-step one would take seconds
        for text, (steps, sprocket) in GENERIC_HITS.items():
            code = parse_code(text)
            assert self._check(code, rng) == (True, steps)
            assert find_sprocket(code, self.FULL).text() == sprocket

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


@functools.cache
def _benchmark_generator():
    """perfbench/gen.py as a module (ledger.benchmark_generator, so that
    nothing is written next to it), one for the session.  Its GENERATORS
    build each request list once: a list is fixed by its workload and seed,
    and building one takes up to 1.6 s."""
    gen = ledger.benchmark_generator()
    gen.GENERATORS = {name: functools.cache(make) for name, make in gen.GENERATORS.items()}
    return gen


class TestStepTotals:
    """The sprocket steps one pass of the benchmark's request lists spends,
    the calls to _profile_relabeling it makes and the candidate pools it
    builds.  A change to how the search counts or orders its steps moves
    the step totals even where no verdict changes.  The pool is built only
    for a search with a tau inside an induced L24 of the nerve, and the
    relabeling only for one with a triple that can reach the witnesses,
    which almost no search of these passes has."""

    @staticmethod
    def _passes(seed, sprocket_spends, monkeypatch):
        relabelings = _count_relabelings(monkeypatch)
        built = _count_pools(monkeypatch)
        gen = _benchmark_generator()
        totals, calls, pools = {}, {}, {}
        for workload in ("four-facet", "wide"):
            sprocket_spends.clear()
            relabelings[0] = 0
            built.clear()
            for req in gen.GENERATORS[workload](seed):
                if req["op"] == "cli":
                    quiet = contextlib.redirect_stdout(io.StringIO())
                    with quiet, contextlib.redirect_stderr(io.StringIO()):
                        convexcodes.cli.main(list(req["argv"]))
                else:
                    call = analyze if req["op"] == "analyze" else decide
                    call(parse_code(req["code"]), budget=gen.SPROCKET_BUDGET)
            totals[workload] = sum(sprocket_spends)
            calls[workload] = relabelings[0]
            pools[workload] = len(built)
        return totals, calls, pools

    def test_seed_zero_passes(self, sprocket_spends, monkeypatch):
        totals, calls, pools = self._passes(0, sprocket_spends, monkeypatch)
        assert totals == {"four-facet": 495_215, "wide": 493_641}
        assert calls == {"four-facet": 0, "wide": 2}
        assert pools == {"four-facet": 0, "wide": 6}

    def test_held_out_seed_passes(self, sprocket_spends, monkeypatch):
        totals, calls, pools = self._passes(7919, sprocket_spends, monkeypatch)
        assert totals == {"four-facet": 493_062, "wide": 521_636}
        assert calls == {"four-facet": 0, "wide": 3}
        assert pools == {"four-facet": 0, "wide": 5}
