import itertools
import random
import sys
import time

import pytest

from convexcodes import (
    CodeParseError,
    NeuralCode,
    canonicalize,
    format_code,
    is_max_intersection_complete,
    max_intersection_faces,
    maximal_codewords,
    parse_code,
    relabel,
    trunk,
)
from convexcodes.atlas import enumerate_facet_antichains
from convexcodes.codes import (
    _CANONICAL_MAX_N,
    CanonicalForm,
    _least_relabeling,
    sort_words,
    word_sort_key,
)
from convexcodes.topology import minimal_code

from conftest import fs, support
from oracles import reference_canonicalize, reference_search_relabeling


class TestParse:
    def test_c22_shape(self, c22):
        assert len(c22.codewords) == 8
        assert frozenset() in c22.codewords
        assert c22.n == 7

    def test_c24_shape(self, c24):
        assert len(c24.codewords) == 10
        assert frozenset() in c24.codewords
        assert c24.n == 6

    def test_braced(self):
        code = parse_code("{1,2},{2}")
        assert code.codewords == {frozenset(), fs("2"), fs("12")}
        assert code.n == 2

    def test_duplicates_collapse(self):
        assert parse_code("12, 12, {1,2}") == parse_code("12")

    def test_mixed_forms_legal_below_ten(self):
        assert parse_code("12, {3,4}").codewords == {frozenset(), fs("12"), fs("34")}

    def test_compact_rejected_with_large_indices(self):
        # "12" would silently mean {12} instead of {1,2} once indices pass 9
        with pytest.raises(CodeParseError):
            parse_code("12, {10}")
        with pytest.raises(CodeParseError):
            parse_code("3, {10}")

    def test_index_zero(self):
        with pytest.raises(CodeParseError):
            parse_code("102")
        with pytest.raises(CodeParseError):
            parse_code("0")

    def test_malformed(self):
        for bad in ["abc", "{1,2", "{}x", "1;;{"]:
            with pytest.raises(CodeParseError):
                parse_code(bad)

    @pytest.mark.parametrize(
        "text, position",
        [("{1,\u0663}", 0), ("1\u06602", 1), ("\u0661\u0662", 0), ("12, {\uff13}", 4)],
    )
    def test_only_ascii_digits(self, text, position):
        # str.isdigit and the regex \d accept Arabic-Indic and fullwidth digits
        with pytest.raises(CodeParseError) as err:
            parse_code(text)
        assert err.value.position == position

    def test_error_carries_position(self):
        with pytest.raises(CodeParseError) as err:
            parse_code("13, abc")
        assert "position" in str(err.value)


class TestNeuralCode:
    @pytest.mark.parametrize("bad", [True, False, 0, -1, 1.0, "1"])
    def test_index_must_be_positive_int(self, bad):
        # bool is an int subclass, so True would otherwise print as "True2"
        with pytest.raises(ValueError, match="neuron index must be a positive integer"):
            NeuralCode([{bad, 2}, {2, 3}])


class TestFormat:
    def test_sorted_by_size_then_lex(self, c22):
        assert format_code(c22) == "13,35,57,134,257,356,1357"

    def test_verbose_prints_empty_word(self, c22):
        assert format_code(c22, verbose=True) == "{},13,35,57,134,257,356,1357"

    def test_braced(self, c22):
        text = format_code(c22, verbose=True, braced=True)
        assert text == "{},{1,3},{3,5},{5,7},{1,3,4},{2,5,7},{3,5,6},{1,3,5,7}"

    def test_large_indices_force_braces(self):
        assert format_code(parse_code("{1,10}")) == "{1,10}"

    def test_round_trip(self, c22, c24, c18a, c18b):
        for code in (c22, c24, c18a, c18b):
            assert parse_code(format_code(code)) == code


class TestMaximalCodewords:
    def test_c22(self, c22):
        assert set(maximal_codewords(c22)) == {fs("134"), fs("1357"), fs("356"), fs("257")}

    def test_empty_code(self):
        assert maximal_codewords(NeuralCode([frozenset()])) == []

    def test_containment_chain(self):
        code = parse_code("1, 12")
        assert maximal_codewords(code) == [fs("12")]

    def test_antichain_and_coverage(self, c24):
        facets = maximal_codewords(c24)
        for f in facets:
            for g in facets:
                assert not (f < g)
        for w in c24.codewords:
            assert any(w <= f for f in facets)


class TestTrunk:
    def test_c24_single(self, c24):
        assert trunk(c24, fs("1")) == {fs("123"), fs("1246"), fs("145"), fs("12"), fs("14")}

    def test_empty_sigma_is_whole_code(self, c24):
        assert trunk(c24, frozenset()) == c24.codewords

    def test_c24_pair(self, c24):
        assert trunk(c24, fs("12")) == {fs("12"), fs("123"), fs("1246")}

    def test_monotone(self, c24):
        assert trunk(c24, fs("12")) <= trunk(c24, fs("1"))


class TestIsFace:
    """A set lies in a facet iff its trunk holds a nonempty codeword, which
    is how the sprocket predicates read faces."""

    def test_non_face(self, c24):
        assert not any(trunk(c24, fs("1356")))
        assert not any(fs("1356") <= f for f in maximal_codewords(c24))

    def test_empty_face(self, c24):
        assert any(trunk(c24, frozenset()))
        assert not any(trunk(NeuralCode([]), frozenset()))

    def test_face(self, c24):
        assert any(trunk(c24, fs("16")))
        assert any(fs("16") <= f for f in maximal_codewords(c24))


class TestMaxIntersectionFaces:
    def test_c22(self, c22):
        faces = max_intersection_faces(maximal_codewords(c22))
        assert faces == {fs("13"), fs("3"), fs("35"), fs("5"), fs("57")}

    def test_c24(self, c24):
        faces = max_intersection_faces(maximal_codewords(c24))
        assert faces == {fs("1"), fs("12"), fs("14"), fs("3"), fs("6"), fs("5")}

    def test_disjoint(self):
        assert max_intersection_faces([fs("12"), fs("34")]) == set()

    def test_single_facet(self):
        assert max_intersection_faces([fs("123")]) == set()


class TestMaxIntersectionComplete:
    def test_c22_missing_singletons(self, c22):
        ok, missing = is_max_intersection_complete(c22)
        assert not ok
        assert missing == {fs("3"), fs("5")}

    def test_c24_missing_one(self, c24):
        ok, missing = is_max_intersection_complete(c24)
        assert not ok
        assert missing == {fs("1")}

    def test_c24_plus_one(self, c24):
        code = NeuralCode(c24.codewords | {fs("1")})
        ok, missing = is_max_intersection_complete(code)
        assert ok and missing == set()


class TestCanonicalize:
    def test_single_neuron_relabel(self):
        # relabeling moves the used neuron to 1 and the silent neuron 1 to 2
        out = canonicalize(parse_code("{2}"))
        assert out == (parse_code("1"), (2, 1), True)

    def test_silent_neurons_do_not_count(self):
        # both codes are the codewords 12,13 up to relabeling, on top index 5 and 3
        forms = {canonicalize(parse_code(text)).code for text in ("25,35", "12,13")}
        assert forms == {parse_code("12,13")}

    def test_symmetric_fixed_point(self):
        code = parse_code("12, 13")
        out = canonicalize(code)
        # the 2<->3 swap fixes the code, so it is its own canonical form
        assert out.code == code
        assert out.exact

    def test_idempotent(self, c24):
        once = canonicalize(c24).code
        assert canonicalize(once).code == once

    def test_permutation_witness_replays(self, c22):
        out = canonicalize(c22)
        assert relabel(c22, out.permutation) == out.code

    def test_relabel_classes_collapse(self, c24, w3):
        assert canonicalize(c24).code == canonicalize(w3).code


class TestRelabel:
    @pytest.mark.parametrize("perm", [(1, 1), (2, 3), (0, 1), (1, 2, 2), (1, 1.5), (2, "1")])
    def test_non_permutation_rejected(self, perm):
        # (1, 1) used to merge neurons 1 and 2 into the code {∅, {1}}
        with pytest.raises(ValueError, match="not a permutation"):
            relabel(NeuralCode([fs("12")]), perm)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            relabel(NeuralCode([fs("12")]), (1,))

    def test_longer_permutation_keeps_n(self):
        assert relabel(NeuralCode([fs("12")]), (2, 1, 3)) == NeuralCode([fs("12")])

    def test_onto_a_larger_index(self):
        # n follows the images: neuron 1 becomes 3, so the code's n is 3
        assert relabel(parse_code("1"), (3, 2, 1)) == parse_code("3")


def _random_code(rng, n):
    """Random code on neurons up to n, sometimes with twins or with one or
    two neurons below n kept silent."""
    silent = rng.sample(range(1, n), rng.randint(1, 2)) if n > 2 and rng.random() < 0.15 else []
    live = [i for i in range(1, n + 1) if i not in silent]
    density = rng.uniform(0.2, 0.7)
    words = [{i for i in live if rng.random() < density} for _ in range(rng.randint(0, 9))]
    if len(live) >= 2 and rng.random() < 0.4:
        # neuron b lies in exactly the codewords of neuron a
        a, b = rng.sample(live, 2)
        words = [(w - {b}) | ({b} if a in w else set()) for w in words]
    return NeuralCode(words)


def _masks(code):
    """The codewords as the masks _least_relabeling takes, bit i - 1 for neuron i."""
    return [sum(1 << (i - 1) for i in w) for w in code.codewords]


def _support_reference(code):
    """The exact canonical form from the n! scan on the support alone.

    The support is renumbered 1..s in index order and scanned; the silent
    neurons below code.n take the labels after s, in index order.
    """
    labels = sorted(support(code))
    rank = {i: k for k, i in enumerate(labels, start=1)}
    small = reference_canonicalize(NeuralCode({rank[i] for i in w} for w in code.codewords))
    label = {i: small.permutation[rank[i] - 1] for i in labels}
    unused = [i for i in range(1, code.n + 1) if i not in rank]
    label.update(zip(unused, itertools.count(len(labels) + 1)))
    perm = tuple(label[i] for i in range(1, code.n + 1))
    return CanonicalForm(relabel(code, perm), perm, True)


def _random_cells(rng, n):
    """A random ordered partition of 1..n."""
    neurons = list(range(1, n + 1))
    rng.shuffle(neurons)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [neurons[a:b] for a, b in zip([0] + cuts, cuts + [n])]


class TestCanonicalizeAgainstReference:
    """The branch-and-bound search returns what the n! scan returned."""

    # codes per neuron bound; the reference scan costs n! per code
    COUNTS = {1: 100, 2: 200, 3: 300, 4: 400, 5: 532, 6: 400, 7: 60, 8: 8}

    def test_seeded_random_codes(self):
        rng = random.Random(20141)
        cell_rng = random.Random(2014)
        checked = twins = silent = 0
        for n, count in self.COUNTS.items():
            for _ in range(count):
                code = _random_code(rng, n)
                if 1 <= code.n <= 7:
                    # one scan gives the least code and the least relabeling
                    # that respects a random ordered partition
                    cells = _random_cells(cell_rng, code.n)
                    want, within = reference_canonicalize(code, cells=cells)
                    assert _least_relabeling(_masks(code), cells) == within, (code, cells)
                else:
                    want = reference_canonicalize(code)
                assert canonicalize(code) == want, code
                checked += 1
                labels = support(code)
                silent += len(labels) < code.n
                twins += any(
                    all((a in w) == (b in w) for w in code.codewords)
                    for a in labels
                    for b in labels
                    if a < b
                )
        assert checked >= 2000
        assert twins >= 200 and silent >= 100

    @pytest.mark.parametrize("max_neurons,num_facets", [(6, 4), (5, 5), (7, 3)])
    def test_atlas_codes_under_random_relabelings(self, max_neurons, num_facets):
        """Each copy gets the exact least relabeling from one n! scan per code.

        The scan runs on the first copy and keeps every optimal relabeling
        q.  Another copy is the first one relabeled by s, so its optimal
        relabelings are exactly the q composed with s^-1, and the least of
        those is what the n! scan on that copy would return.
        """
        rng = random.Random(max_neurons * 10 + num_facets)
        for facets in enumerate_facet_antichains(max_neurons, num_facets):
            code = minimal_code(facets)
            n = code.n
            optima: list = []
            first = None
            for _ in range(3):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                mapped = relabel(code, tuple(images))
                if first is None:
                    first = images
                    want = reference_canonicalize(mapped, optima)
                else:
                    # neuron images[i] of this copy is neuron first[i] of the first
                    back = {images[i]: first[i] for i in range(n)}
                    perm = min(tuple(q[back[j] - 1] for j in range(1, n + 1)) for q in optima)
                    want = want._replace(permutation=perm)
                assert canonicalize(mapped) == want, mapped


class TestCanonicalizeAboveCap:
    """Above 8 used neurons the least relabeling is over its cap, and
    canonicalize uses the support's profile relabeling: still one code per
    relabeling class, with silent neurons on the last labels.  A code on
    neurons up to 9 or 10 but using at most 8 stays exact."""

    def test_nine_and_ten_neurons_under_random_relabelings(self):
        rng = random.Random(9010)
        checked = silent = exact = 0
        for k in range(400):
            n = 9 + k % 2
            code = _random_code(rng, n)
            forms = set()
            for copy_index in range(3):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                copy = relabel(code, tuple(images))
                out = canonicalize(copy)
                labels = support(copy)
                assert out.exact is (len(labels) <= 8)
                assert relabel(copy, out.permutation) == out.code
                s = len(labels)
                assert canonicalize(out.code) == (out.code, tuple(range(1, s + 1)), out.exact)
                if not out.exact:
                    relabeled, _inverse = reference_search_relabeling(copy)
                    assert out.code == relabeled, copy
                elif copy_index == 0 and s <= 7:
                    assert out == _support_reference(copy), copy
                spare = [out.permutation[i - 1] for i in range(1, copy.n + 1) if i not in labels]
                assert spare == list(range(s + 1, copy.n + 1)), copy
                forms.add(out.code)
            assert len(forms) == 1, code
            checked += 1
            silent += len(support(code)) < code.n
            exact += out.exact
        assert checked >= 300 and silent >= 50 and exact >= 50


class TestCanonicalizeLargeLabels:
    """canonicalize packs the support, so label values cost nothing; only
    the largest index n, one permutation entry per neuron, is bounded."""

    def test_sparse_support_is_exact(self):
        code = NeuralCode([{10}, {2}, {1, 2, 5, 6, 10}, {8}])
        out = canonicalize(code)
        assert out.exact
        assert format_code(out.code) == "1,2,3,12456"
        assert out == _support_reference(code)

    def test_random_sparse_supports(self):
        rng = random.Random(1013)
        for _ in range(150):
            n = rng.randint(9, 40)
            support = rng.sample(range(1, n + 1), rng.randint(1, 6))
            words = [
                {i for i in support if rng.random() < 0.4} for _ in range(rng.randint(1, 6))
            ]
            code = NeuralCode(words)
            assert canonicalize(code) == _support_reference(code), code

    @pytest.mark.parametrize("top", [_CANONICAL_MAX_N + 1, 10**7, 10**12])
    def test_larger_n_refused_at_once(self, top):
        # 10**7 took seconds and gigabytes, and 10**12 raised MemoryError
        start = time.perf_counter()
        with pytest.raises(ValueError, match="neuron indices up to"):
            canonicalize(NeuralCode([{top}, {2, top}]))
        assert time.perf_counter() - start < 0.5


class TestLeastRelabelingCells:
    def test_exact_up_to_eight_neurons(self):
        for n, exact in ((8, True), (9, False)):
            code = NeuralCode([range(1, n + 1), {1, 2}, {n}])
            assert canonicalize(code).exact is exact

    def test_singleton_cells_do_not_recurse(self):
        # a path on more neurons than the recursion limit: every neuron is
        # its own cell except one pair, so only the pair's label branches
        n = sys.getrecursionlimit() + 10
        code = NeuralCode([{i, i + 1} for i in range(1, n)] + [{1}])
        pair = (n // 2, n // 2 + 7)
        order = [i for i in range(1, n + 1) if i not in pair]
        cells = [[i] for i in order[: n // 3]] + [list(pair)] + [[i] for i in order[n // 3 :]]

        def option(first, second):
            images = [0] * n
            flat = order[: n // 3] + [first, second] + order[n // 3 :]
            for label, i in enumerate(flat, start=1):
                images[i - 1] = label
            words = (frozenset(images[i - 1] for i in w) for w in code.codewords)
            return sorted(map(word_sort_key, words)), tuple(images)

        want = min(option(*pair), option(*reversed(pair)))[1]
        assert _least_relabeling(_masks(code), cells) == want


def test_sort_words_deterministic():
    words = [fs("21"), fs("3"), fs("1"), fs("123")]
    assert sort_words(words) == [fs("1"), fs("3"), fs("12"), fs("123")]
