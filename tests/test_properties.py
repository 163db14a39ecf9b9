"""Property-based checks over randomly generated codes and complexes."""

import hypothesis.strategies as st
from hypothesis import given, settings

from convexcodes import (
    NeuralCode,
    Verdict,
    canonicalize,
    decide,
    format_code,
    has_local_obstruction,
    is_link_contractible,
    is_max_intersection_complete,
    max_intersection_faces,
    maximal_codewords,
    minimal_code,
    parse_code,
    path_of_facets,
    relabel,
    trunk,
)


def words(n=6, max_words=8):
    word = st.frozensets(st.integers(1, n), max_size=n)
    return st.frozensets(word, min_size=0, max_size=max_words)


def codes(n=6, max_words=8):
    return words(n, max_words).map(NeuralCode)


def permutations(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


@given(codes())
def test_parse_format_round_trip(code):
    assert parse_code(format_code(code, verbose=True)) == code


@given(codes())
def test_format_is_canonical_text(code):
    # formatting is stable under re-parsing, so text equality is code equality
    text = format_code(code, verbose=True)
    assert format_code(parse_code(text), verbose=True) == text


@given(codes(), permutations(6))
def test_canonicalize_collapses_relabelings(code, perm):
    assert canonicalize(relabel(code, perm)).code == canonicalize(code).code


@given(codes())
def test_canonicalize_idempotent(code):
    once = canonicalize(code).code
    assert canonicalize(once).code == once


@given(codes(), st.frozensets(st.integers(1, 6), max_size=6),
       st.frozensets(st.integers(1, 6), max_size=6))
def test_trunk_monotone(code, sigma, tau):
    assert trunk(code, frozenset()) == code.codewords
    union = sigma | tau
    assert trunk(code, union) <= trunk(code, sigma)


@given(codes(), permutations(6))
def test_max_intersection_faces_equivariant(code, perm):
    base = max_intersection_faces(maximal_codewords(code))
    mapped = max_intersection_faces(maximal_codewords(relabel(code, perm)))
    assert mapped == {frozenset(perm[i - 1] for i in w) for w in base}


@given(codes())
def test_complete_codes_are_unobstructed(code):
    if is_max_intersection_complete(code)[0]:
        assert has_local_obstruction(code) is None


@given(codes())
def test_maximal_codewords_antichain_and_cover(code):
    facets = maximal_codewords(code)
    assert not any(a < b for a in facets for b in facets)
    for w in code.codewords:
        assert w == frozenset() or any(w <= f for f in facets)


@given(codes())
def test_minimal_code_is_unobstructed_and_contained(code):
    facets = maximal_codewords(code)
    if not facets:
        return
    cmin = minimal_code(facets)
    assert has_local_obstruction(cmin) is None
    mandatory = set(cmin.codewords) - {frozenset()}
    faces = set(max_intersection_faces(facets)) | set(facets)
    assert mandatory <= faces


@settings(max_examples=60, deadline=None)
@given(codes(n=5, max_words=7), permutations(5))
def test_decide_relabeling_invariant(code, perm):
    base, _ = decide(code, budget=2000)
    got, _ = decide(relabel(code, perm), budget=2000)
    assert got is base


@settings(max_examples=60, deadline=None)
@given(codes(n=5, max_words=7))
def test_verdict_soundness(code):
    verdict, _ = decide(code, budget=2000)
    if has_local_obstruction(code) is not None:
        assert verdict is not Verdict.CONVEX
    if is_max_intersection_complete(code)[0]:
        assert verdict is not Verdict.NONCONVEX


def facet_triples(n=4):
    # one private neuron per facet forces a three-element antichain
    core = st.frozensets(st.integers(1, n), max_size=n)
    return st.tuples(core, core, core).map(
        lambda t: (
            t[0] | {n + 1},
            t[1] | {n + 2},
            t[2] | {n + 3},
        )
    )


@settings(max_examples=150, deadline=None)
@given(facet_triples())
def test_pof_iff_triple_link_contractible(triple):
    """Path-of-Facets holds exactly when the common face has a good link."""
    f1, f2, f3 = triple
    common = f1 & f2 & f3
    if not common:
        return
    witness = path_of_facets(f1, f2, f3)
    contractible = is_link_contractible(list(triple), common)
    assert (witness is not None) == (contractible is True)


@settings(max_examples=80, deadline=None)
@given(facet_triples())
def test_pairwise_intersections_in_no_third_facet_are_mandatory(triple):
    import itertools

    for f, g in itertools.combinations(triple, 2):
        sigma = f & g
        if not sigma:
            continue
        if any(sigma <= h for h in triple if h not in (f, g)):
            continue
        assert is_link_contractible(list(triple), sigma) is False
