import functools
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from convexcodes import (
    INDETERMINATE,
    NeuralCode,
    Verdict,
    analyze,
    atlas_rows,
    canonicalize,
    classify_small_complex,
    decide,
    has_local_obstruction,
    is_link_contractible,
    mandatory_faces,
    max_intersection_faces,
    maximal_codewords,
    minimal_code,
    nerve,
    path_of_facets,
    relabel,
)
import convexcodes.atlas
import convexcodes.cli
import convexcodes.codes
import convexcodes.realize.builders
import convexcodes.topology
from convexcodes.codes import _pack
from convexcodes.topology import (
    _CONTRACTIBLE,
    _REF,
    CodeStructure,
    _acyclic,
    _faces,
    _positions,
    is_collapsible,
)

import oracles
from oracles import REFERENCE_COMPLEXES
from conftest import collapse_family, fs, support


def facets_of(code):
    return maximal_codewords(code)


def _run_script(script, timeout):
    """The stdout of a child Python running script on this package."""
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _shifted(sets, by):
    """The sets with every label increased by `by`."""
    return [frozenset(x + by for x in s) for s in sets]


class TestNerve:
    def test_c22_two_triangles(self, c22):
        sc = nerve(facets_of(c22))
        # facet order 134 < 257 < 356 < 1357 fixes the vertex labels
        order = facets_of(c22)
        t1 = frozenset(order.index(f) + 1 for f in [fs("134"), fs("1357"), fs("356")])
        t2 = frozenset(order.index(f) + 1 for f in [fs("1357"), fs("356"), fs("257")])
        assert set(sc) == {t1, t2}
        assert classify_small_complex(sc).class_id == "L22"

    def test_c24_simplex_plus_edges(self, c24):
        sc = nerve(facets_of(c24))
        assert classify_small_complex(sc).class_id == "L24"
        assert sum(1 for f in sc if len(f) == 3) == 1
        assert sum(1 for f in sc if len(f) == 2) == 3

    def test_single_set(self):
        sc = nerve([fs("12")])
        assert sc == (frozenset({1}),)
        assert classify_small_complex(sc).class_id == "L1"

    def test_empty_input_set_rejected(self):
        with pytest.raises(ValueError):
            nerve([fs("12"), frozenset()])


class TestNerveAgainstReference:
    """The facet-only nerve equals the face-enumerating one, facet tuple included."""

    def test_every_list_of_up_to_three_subsets_of_four(self):
        subsets = [
            frozenset(c) for r in range(1, 5) for c in itertools.combinations(range(1, 5), r)
        ]
        checked = 0
        for size in range(4):
            for sets in itertools.product(subsets, repeat=size):
                assert nerve(sets) == oracles.reference_nerve(sets), sets
                checked += 1
        assert checked == 1 + 15 + 15**2 + 15**3

    def test_seeded_families_of_one_to_twelve_sets(self):
        rng = random.Random(6)
        wide = 0
        for _ in range(3000):
            k = rng.randint(1, 12)
            # at least k-4 neurons keeps the reference's 2^k face list small
            n = rng.randint(max(1, k - 4), 12)
            sets = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
                for _ in range(k)
            ]
            want = oracles.reference_nerve(sets)
            assert nerve(sets) == want, sets
            wide += max(map(len, want)) >= 5
        assert wide >= 300

    def test_labels_shifted_by_a_billion(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 12)
            sets = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
                for _ in range(rng.randint(1, 8))
            ]
            far = _shifted(sets, 10**9)
            assert nerve(far) == oracles.reference_nerve(far) == nerve(sets)

    def test_any_hashable_elements(self):
        # elements that cannot be ordered against each other are fine too
        assert nerve([{"a", 1}, {"a"}, {(2, 3)}]) == (frozenset({3}), frozenset({1, 2}))


class TestLinkFacetSets:
    """The oracle's facet-difference sets."""

    def test_c24_vertex(self, c24):
        assert set(oracles.link_facet_sets(facets_of(c24), fs("1"))) == {
            fs("23"),
            fs("246"),
            fs("45"),
        }

    def test_c22_vertex(self, c22):
        assert set(oracles.link_facet_sets(facets_of(c22), fs("3"))) == {
            fs("14"),
            fs("157"),
            fs("56"),
        }

    def test_link_of_facet_is_empty_difference(self, c24):
        assert oracles.link_facet_sets(facets_of(c24), fs("356")) == [frozenset()]

    def test_non_face_rejected(self, c24):
        with pytest.raises(ValueError):
            oracles.link_facet_sets(facets_of(c24), fs("25"))


class TestClassify:
    def test_hollow_triangle(self):
        got = classify_small_complex([fs("12"), fs("13"), fs("23")])
        assert got.class_id == "L7"
        assert not got.contractible

    def test_filled_triangle(self):
        got = classify_small_complex([fs("123")])
        assert got.class_id == "L8"
        assert got.contractible

    def test_c24_nerve(self, c24):
        got = classify_small_complex(nerve(facets_of(c24)))
        assert got.class_id == "L24"
        assert not got.contractible

    def test_relabeling_witness_replays(self, c22):
        sc = nerve(facets_of(c22))
        got = classify_small_complex(sc)
        mapping = dict(got.relabeling)
        relabeled = {frozenset(mapping[v] for v in f) for f in sc}
        assert relabeled == set(REFERENCE_COMPLEXES[got.class_id])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_small_complex([fs("12345")])
        with pytest.raises(ValueError):
            classify_small_complex([])

    def test_any_family_of_sets(self):
        # a set inside another adds nothing: the edge {1, 2} with its vertex {1}
        assert classify_small_complex([{1, 2}, {1}]) == ("L3", ((1, 1), (2, 2)), True)
        assert classify_small_complex(iter([fs("12"), fs("12"), fs("2")])).class_id == "L3"
        with pytest.raises(ValueError, match="nonempty"):
            classify_small_complex([fs("12"), frozenset()])


class TestContractibleSmall:
    """The contractibility bit of the class table, read through
    classify_small_complex, and the literal set of contractible classes it
    comes from."""

    def test_point(self):
        assert classify_small_complex([fs("1")]).contractible

    def test_two_points(self):
        assert not classify_small_complex([fs("1"), fs("2")]).contractible

    def test_path_on_three(self):
        assert classify_small_complex([fs("12"), fs("23")]).contractible

    def test_table_matches_collapsibility_oracle(self):
        """Every reference class agrees with the independent oracle."""
        for name, sc in REFERENCE_COMPLEXES.items():
            expected = oracles.contractible_small(sc)
            got = classify_small_complex(sc)
            assert (got.class_id, got.contractible) == (name, expected), name
            if got.contractible:
                assert oracles.is_connected(sc)
                assert oracles.euler_characteristic(sc) == 1

    def test_contractible_literal_matches_collapse_and_homology(self):
        """The literal set the import reads in place of running the checks:
        on each of the 28 classes, membership equals the package's collapse
        search, its GF(2) homology test and the oracle, which agree."""
        assert len(_REF) == 28 and _CONTRACTIBLE <= set(_REF)
        for name, facets in _REF.items():
            faces = _faces(_pack(facets).masks)
            collapsible = is_collapsible(map(_positions, faces))
            assert collapsible is (name in _CONTRACTIBLE), name
            assert _acyclic(faces) is collapsible, name
            assert oracles.contractible_small(facets) is collapsible, name

    def test_internal_collapse_search_agrees_with_oracle(self):
        # is_collapsible consumes the full face set, not the facet antichain
        for name, sc in REFERENCE_COMPLEXES.items():
            assert is_collapsible(oracles.face_poset(sc)) == oracles.is_collapsible(sc), name


class TestLinkContractible:
    def test_c24_vertex(self, c24):
        assert is_link_contractible(facets_of(c24), fs("1")) is True

    def test_c24_edge_disconnected(self, c24):
        assert is_link_contractible(facets_of(c24), fs("12")) is False

    def test_c22_vertex(self, c22):
        assert is_link_contractible(facets_of(c22), fs("3")) is True

    def test_facet_link_not_contractible(self, c24):
        assert is_link_contractible(facets_of(c24), fs("1246")) is False

    def test_empty_sigma_rejected(self, c24):
        with pytest.raises(ValueError):
            is_link_contractible(facets_of(c24), frozenset())

    def test_non_face_rejected(self, c24):
        with pytest.raises(ValueError, match=r"^\[2, 5\] is not a face"):
            is_link_contractible(facets_of(c24), fs("25"))

    def test_non_face_with_unorderable_labels_rejected(self):
        # labels of mixed types cannot be sorted; the message must not try
        with pytest.raises(ValueError, match="not a face"):
            is_link_contractible([{"a", 1}], {1, "b"})

    def test_sets_inside_another_are_ignored(self):
        # {1} lies inside {1,2}: the complex is the edge, and the link of
        # vertex 1 is the point 2
        assert is_link_contractible([fs("12"), fs("1")], fs("1")) is True
        assert oracles.reference_is_link_contractible([fs("12")], fs("1")) is True
        assert is_link_contractible([fs("123"), fs("12")], fs("1")) is True

    def test_pairwise_only_intersections(self):
        """Facet pairwise intersections inside no third facet have bad links."""
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            facets = []
            for _ in range(rng.randint(2, 4)):
                f = frozenset(
                    i for i in range(1, 7) if rng.random() < 0.5
                )
                if f:
                    facets.append(f)
            facets = [
                f for f in facets if not any(f < g for g in facets)
            ]
            facets = list(dict.fromkeys(facets))
            if len(facets) < 2 or len(facets) > 4:
                continue
            for f, g in itertools.combinations(facets, 2):
                sigma = f & g
                if not sigma:
                    continue
                if any(sigma <= h for h in facets if h not in (f, g)):
                    continue
                assert is_link_contractible(facets, sigma) is False
                checked += 1


def _random_antichain(rng, size, neurons):
    facets = set()
    while len(facets) < size:
        f = frozenset(i for i in range(1, neurons + 1) if rng.random() < 0.5)
        if f:
            facets.add(f)
    return [f for f in facets if not any(f < g for g in facets)]


class TestLinkContractibleAgainstReference:
    """Strong collapse first answers what the face-enumerating path answers
    wherever that path decides."""

    def _check(self, facets):
        # the structure's own link path, on its facet masks
        structure = CodeStructure(NeuralCode(facets))
        settled = 0
        for sigma in structure.max_intersections:
            face = structure.packed.word(sigma)
            want = oracles.reference_is_link_contractible(facets, face)
            if want is INDETERMINATE:
                continue
            assert is_link_contractible(facets, face) is want, (facets, face)
            assert structure.link_contractible(sigma) is want, (facets, face)
            settled += want and len(oracles.link_facet_sets(facets, face)) > 4
        return settled

    def test_seeded_five_and_six_facet_families(self):
        rng = random.Random(2012)
        families = wide = 0
        while families < 300:
            facets = _random_antichain(rng, rng.randint(5, 6), 8)
            if len(facets) < 5:
                continue
            families += 1
            wide += self._check(facets)
        # contractible links on more than four vertices were reached
        assert wide >= 10

    def test_collapse_family(self):
        for m in range(6, 10):
            assert self._check(collapse_family(m)) >= 1, m

    def test_labels_shifted_by_a_billion(self):
        rng = random.Random(1012)
        for m in range(6, 10):
            assert self._check(_shifted(collapse_family(m), 10**9)) >= 1, m
        for _ in range(40):
            self._check(_shifted(_random_antichain(rng, rng.randint(5, 6), 8), 10**9))


class TestCollapseSearch:
    """is_collapsible runs off an explicit stack, state for state as the
    recursive search did."""

    def test_matches_recursive_search_at_every_budget(self):
        rng = random.Random(3)
        complexes = list(REFERENCE_COMPLEXES.values())
        while len(complexes) < 80:
            complexes.append(_random_antichain(rng, rng.randint(2, 5), rng.randint(4, 5)))
        exhausted = 0
        for facets in complexes:
            faces = oracles.face_poset(facets)
            for budget in (0, 1, 2, 5, 20, 200_000):
                got = is_collapsible(faces, budget)
                assert got == oracles.reference_is_collapsible(faces, budget), (facets, budget)
                exhausted += got is None
            assert is_collapsible(faces) == oracles.is_collapsible(facets), facets
        assert exhausted

    def test_deep_search_needs_no_recursion(self):
        # a star with 300 leaves collapses one leaf at a time: the recursive
        # search was 300 calls deep, over the limit set here
        script = (
            "import sys\n"
            "from convexcodes.topology import is_collapsible\n"
            "faces = [{0}] + [{i} for i in range(1, 301)] + [{0, i} for i in range(1, 301)]\n"
            "sys.setrecursionlimit(150)\n"
            "print(is_collapsible(faces))\n"
        )
        assert _run_script(script, timeout=60) == "True\n"

    @pytest.mark.parametrize("m", [12, 16, 40])
    def test_collapse_family_public_calls(self, m):
        facets = collapse_family(m)
        start = time.perf_counter()
        code = minimal_code(facets)
        assert time.perf_counter() - start < 1.0
        coned = NeuralCode(code.codewords | {frozenset({1})})
        for call in (decide, analyze):
            for c in (code, coned):
                start = time.perf_counter()
                call(c)
                assert time.perf_counter() - start < 1.0, (call.__name__, m)

    def test_hollow_link_settled_on_its_core(self):
        # the link of {1} is a circle: twenty leaves on neuron 50, the first
        # also holding 300, dominate down to the hollow triangle on 300..302,
        # so no face of the 23-set nerve is listed
        facets = [frozenset({1, 50, 100 + i} | ({300} if i == 0 else set())) for i in range(20)]
        facets += [frozenset({1, 300, 301}), frozenset({1, 301, 302}), frozenset({1, 302, 300})]
        start = time.perf_counter()
        assert is_link_contractible(facets, {1}) is False
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        minimal_code(facets)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", range(16, 25))
    def test_sphere_link_lists_no_faces(self, n):
        # the link of {n+1} in the facets [n+1] - {j}, j <= n, is the nerve
        # of the n sets [n] - {j}: the boundary of a simplex, a sphere, read
        # off its nerve facets.  Listing its 2^n faces took 3 s at n = 18; a
        # child process fails at its timeout where the suite would hang
        script = (
            "import time\n"
            "from convexcodes import is_link_contractible\n"
            f"facets = [set(range(1, {n + 2})) - {{j}} for j in range(1, {n + 1})]\n"
            "start = time.perf_counter()\n"
            f"print(is_link_contractible(facets, {{{n + 1}}}), time.perf_counter() - start)\n"
        )
        value, seconds = _run_script(script, timeout=10).split()
        assert value == "False" and float(seconds) < 0.1


class TestLabelsAreNotCosts:
    """Masks are packed from the labels present, so shifting every label
    changes neither an answer nor what it costs."""

    SHIFT = 2 * 10**5

    def _unshift(self, value, key=None):
        # every label of a shifted run is at least SHIFT, and no other number
        # is, except the sprocket budget
        if isinstance(value, dict):
            return {k: self._unshift(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [self._unshift(v) for v in value]
        if isinstance(value, int) and value >= self.SHIFT and key != "budget":
            return value - self.SHIFT
        return value

    @staticmethod
    def _json(call, arg):
        out = call(arg)
        if call is minimal_code:
            return [sorted(w) for w in out]
        if call is decide:
            return [out[0].value] + [c.to_json() for c in out[1]]
        return out.to_json()

    def test_collapse_family_shifted(self):
        facets = collapse_family(6)
        code = minimal_code(facets)
        far = NeuralCode(_shifted(code.codewords, self.SHIFT))
        for call, arg, shifted in (
            (minimal_code, facets, _shifted(facets, self.SHIFT)),
            (decide, code, far),
            (analyze, code, far),
        ):
            want = self._json(call, arg)
            start = time.perf_counter()
            got = self._json(call, shifted)
            assert time.perf_counter() - start < 1.0, call.__name__
            assert self._unshift(got) == want, call.__name__

    def test_canonicalize_far_labels(self):
        # the relabeling search runs on the packed support, not on the
        # label values: these 8 used neurons get the exact form
        code = minimal_code(collapse_family(6))
        far = NeuralCode(_shifted(code.codewords, 10**6))
        start = time.perf_counter()
        out = canonicalize(far)
        assert time.perf_counter() - start < 1.0
        assert len(support(far)) == 8 and out.exact is True
        assert out.code.codewords == canonicalize(code).code.codewords
        assert relabel(far, out.permutation) == out.code


class TestMandatoryFaces:
    def test_c24(self, c24):
        assert set(mandatory_faces(facets_of(c24))) == {
            fs("123"), fs("1246"), fs("145"), fs("356"),
            fs("12"), fs("14"), fs("3"), fs("6"), fs("5"),
        }

    def test_c22_against_oracle(self, c22):
        facets = facets_of(c22)
        got = set(mandatory_faces(facets))
        assert got == {
            fs("134"), fs("1357"), fs("356"), fs("257"),
            fs("13"), fs("35"), fs("57"),
        }
        # recompute: facets plus every max-intersection face with bad link
        from convexcodes import max_intersection_faces

        expected = set(facets)
        for sigma in max_intersection_faces(facets):
            if is_link_contractible(facets, sigma) is False:
                expected.add(sigma)
        assert got == expected

    def test_single_facet(self):
        faces = mandatory_faces([fs("123")])
        assert type(faces) is frozenset and faces == {fs("123")}


class TestMinimalCode:
    def test_c24_is_its_own(self, c24):
        assert minimal_code(facets_of(c24)) == c24

    def test_three_facet_chain(self):
        got = minimal_code([fs("134"), fs("1357"), fs("356")])
        assert got.codewords == {
            fs("134"), fs("1357"), fs("356"), fs("13"), fs("35"), frozenset()
        }

    def test_single_facet(self):
        assert minimal_code([fs("12")]).codewords == {fs("12"), frozenset()}

    def test_never_obstructed(self):
        rng = random.Random(40)
        for _ in range(80):
            facets = set()
            for _ in range(rng.randint(1, 4)):
                f = frozenset(i for i in range(1, 7) if rng.random() < 0.55)
                if f:
                    facets.add(f)
            facets = [f for f in facets if not any(f < g for g in facets)]
            if not facets:
                continue
            assert has_local_obstruction(minimal_code(facets)) is None


class TestLocalObstruction:
    def test_c24_none(self, c24):
        assert has_local_obstruction(c24) is None

    def test_c22_none(self, c22):
        assert has_local_obstruction(c22) is None

    def test_removing_mandatory_face(self, c22):
        cmin = minimal_code(facets_of(c22))
        broken = NeuralCode(cmin.codewords - {fs("13")})
        assert has_local_obstruction(broken) == fs("13")


class TestPathOfFacets:
    def test_c24_triangle(self):
        path = path_of_facets(fs("123"), fs("1246"), fs("145"))
        assert path == (fs("123"), fs("1246"), fs("145"))

    def test_c22_triangle(self):
        path = path_of_facets(fs("134"), fs("1357"), fs("356"))
        assert path == (fs("134"), fs("1357"), fs("356"))

    def test_no_witness(self):
        assert path_of_facets(fs("12"), fs("13"), fs("23")) is None

    def test_not_antichain_rejected(self):
        with pytest.raises(ValueError):
            path_of_facets(fs("1"), fs("12"), fs("13"))

    def test_witness_invariant(self):
        rng = random.Random(11)
        for _ in range(120):
            fac = set()
            while len(fac) < 3:
                f = frozenset(i for i in range(1, 7) if rng.random() < 0.5)
                if f:
                    fac.add(f)
            f1, f2, f3 = sorted(fac, key=sorted)
            if any(a <= b for a in (f1, f2, f3) for b in (f1, f2, f3) if a is not b):
                continue
            path = path_of_facets(f1, f2, f3)
            if path is None:
                continue
            # the facets themselves, the middle second and the ends in
            # argument order; seed 11 puts the middle at each position
            a, b, c = path
            assert sorted(path, key=sorted) == [f1, f2, f3]
            assert [f1, f2, f3].index(a) < [f1, f2, f3].index(c)
            assert (a & b) - c
            assert (b & c) - a
            assert not (a & c) - b


def all_complexes_on(k):
    """Every simplicial complex whose vertex set is exactly 1..k."""
    verts = list(range(1, k + 1))
    subsets = [
        frozenset(s)
        for r in range(1, k + 1)
        for s in itertools.combinations(verts, r)
    ]
    for bits in range(1, 1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if bits >> i & 1]
        if any(f < g for f in family for g in family):
            continue
        if frozenset().union(*family) != frozenset(verts):
            continue
        yield family


class TestClassificationExhaustive:
    def test_small_vertex_counts_hit_l1_to_l8(self):
        seen = set()
        for k in (1, 2, 3):
            for family in all_complexes_on(k):
                cls = classify_small_complex(family).class_id
                assert int(cls[1:]) <= 8
                seen.add(cls)
        assert seen == {f"L{i}" for i in range(1, 9)}

    def test_four_vertices_hit_l9_to_l28(self):
        seen = set()
        for family in all_complexes_on(4):
            cls = classify_small_complex(family).class_id
            assert 9 <= int(cls[1:]) <= 28
            seen.add(cls)
        assert seen == {f"L{i}" for i in range(9, 29)}

    def test_classification_permutation_invariant_on_three_vertices(self):
        for family in all_complexes_on(3):
            base = classify_small_complex(family).class_id
            for perm in itertools.permutations((1, 2, 3)):
                mapped = [frozenset(perm[v - 1] for v in f) for f in family]
                got = classify_small_complex(mapped).class_id
                assert got == base

    def test_table_matches_permutation_scan_under_random_labels(self):
        """All 126 labeled complexes, relabeled at random, agree with the scan."""
        rng = random.Random(2024)
        families = [f for k in (1, 2, 3, 4) for f in all_complexes_on(k)]
        assert len(families) == 126
        for family in families:
            k = len(frozenset().union(*family))
            for _ in range(4):
                labels = rng.sample(range(1, 60), k)
                sc = [frozenset(labels[v - 1] for v in f) for f in family]
                got = classify_small_complex(sc)
                want = oracles.reference_classify_small_complex(sc)
                assert got.class_id == want.class_id, family
                assert got.relabeling == want.relabeling, family
                assert got.contractible == want.contractible, family

    def test_every_face_listed_classifies_as_the_facets(self):
        """Each of the 126 labeled complexes, given by all of its faces."""
        for k in (1, 2, 3, 4):
            for family in all_complexes_on(k):
                faces = sorted(oracles.face_poset(family), key=sorted)
                got = classify_small_complex(faces)
                assert got == classify_small_complex(family), family
                assert got == oracles.reference_classify_small_complex(faces), family


def test_indeterminate_refuses_truth_coercion():
    with pytest.raises(TypeError):
        bool(INDETERMINATE)
    assert INDETERMINATE is not True and INDETERMINATE is not False


def _antichains(n):
    """Every nonempty antichain of nonempty subsets of 1..n, as masks
    (bit i - 1 for vertex i), enumerated recursively."""
    subsets = range(1, 1 << n)

    def extend(start, chosen):
        for i in range(start, len(subsets)):
            s = subsets[i]
            if all(s & c not in (s, c) for c in chosen):
                chosen.append(s)
                yield list(chosen)
                yield from extend(i + 1, chosen)
                chosen.pop()

    yield from extend(0, [])


class TestHomologyDecidesLinks:
    """A link core of more than four sets is decided by GF(2) homology
    before the collapse search."""

    # the link of {6} is the nerve of {1,5}, {2,3,5}, {2,4,5}, {3,4,5},
    # {1,2,3,4}: connected with Euler characteristic 1, but a circle wedged
    # with a 2-sphere
    FACETS = [fs("156"), fs("2356"), fs("2456"), fs("3456"), fs("12346")]

    def test_wedge_link_is_not_contractible(self):
        assert is_link_contractible(self.FACETS, fs("6")) is False
        # connectivity and Euler characteristic alone cannot tell
        assert oracles.reference_is_link_contractible(self.FACETS, fs("6")) is INDETERMINATE

    def test_its_minimal_code_is_decided(self):
        code = minimal_code(self.FACETS)
        assert fs("6") in code
        assert len(code.codewords - {frozenset()}) == 17
        verdict, certs = decide(code)
        assert verdict is Verdict.CONVEX
        assert [c.kind for c in certs] == ["MaxIntersectionComplete"]

    def test_facets_alone_are_obstructed_there(self):
        code = NeuralCode(self.FACETS)
        assert has_local_obstruction(code) == fs("6")
        verdict, certs = decide(code)
        assert verdict is Verdict.NONCONVEX
        assert (certs[0].kind, certs[0].face) == ("LocalObstruction", fs("6"))

    def test_acyclic_matches_reference_on_five_vertices(self):
        checked = 0
        for masks in _antichains(5):
            facets = [frozenset(v + 1 for v in range(5) if m >> v & 1) for m in masks]
            faces = _faces(masks)
            acyclic = _acyclic(faces)
            assert acyclic == oracles.is_acyclic_gf2(facets), facets
            if len(frozenset().union(*facets)) <= 4:
                assert acyclic == classify_small_complex(facets).contractible, facets
            if acyclic:
                assert is_collapsible(map(_positions, faces)), facets
            checked += 1
        assert checked == 7579


# a square-in-square disk: outer square 1..4, inner square 5..8, and these
# triangles.  With neuron i for the i-th triangle and neuron 11 in every
# facet, the facet of vertex v holds the triangles at v, so the link of {11}
# is, up to homotopy, the nerve of those sets: the disk itself.  No vertex of
# the disk is dominated.
_DISK_TRIANGLES = ["125", "256", "236", "367", "347", "478", "148", "158", "567", "578"]
_DISK_FACETS = [
    frozenset({i for i, t in enumerate(_DISK_TRIANGLES, start=1) if str(v) in t} | {11})
    for v in range(1, 9)
]


class TestCollapseDecidesLinks:
    """A link whose strong core keeps more than four sets, connected and
    acyclic, is settled by the collapse search."""

    FACETS = _DISK_FACETS

    def test_strong_core_keeps_every_row(self):
        assert len(convexcodes.topology._strong_core(_pack(f - {11} for f in self.FACETS).masks)) == 8

    def test_link_is_contractible_by_one_collapse_search(self, monkeypatch):
        calls = []
        search = convexcodes.topology.is_collapsible

        def counting(faces, budget=200_000):
            calls.append(budget)
            return search(faces, budget)

        monkeypatch.setattr(convexcodes.topology, "is_collapsible", counting)
        assert is_link_contractible(self.FACETS, {11}) is True
        assert len(calls) == 1

    def test_structure_agrees_with_reference(self):
        s = CodeStructure(NeuralCode(self.FACETS))
        sigma = 1 << s.packed.labels.index(11)
        assert s.link_contractible(sigma) is True
        assert oracles.reference_is_link_contractible(self.FACETS, {11}) is True


def _dunce_triangles() -> list:
    """A dunce hat: a triangle whose three sides are all the edge path
    1, 2, 3, 1, so its boundary cycle is b below, filled by an inner ring
    4..12 and a centre 13."""
    b = [1, 2, 3, 1, 2, 3, 1, 3, 2]
    out = []
    for i in range(9):
        j = (i + 1) % 9
        out += [{b[i], b[j], 4 + i}, {b[j], 4 + i, 4 + j}, {4 + i, 4 + j, 13}]
    return out


# With neuron t for the t-th triangle and neuron 100 in every facet, the
# facet of vertex v holds the triangles at v, so the link of {100} is, up to
# homotopy, the dunce hat: contractible, and so acyclic over GF(2), but no
# edge is free, so the collapse search cannot start.
_DUNCE_FACETS = [
    frozenset({t for t, tri in enumerate(_dunce_triangles(), start=1) if v in tri} | {100})
    for v in range(1, 14)
]


class TestDunceHatLink:
    """A link that neither homology nor the collapse search settles: every
    path that reports an undecided link is reached through it."""

    FACETS = _DUNCE_FACETS
    # the facets and every max-intersection face but {100}, which is missing
    CODE = NeuralCode([*_DUNCE_FACETS, *max_intersection_faces(_DUNCE_FACETS) - {frozenset({100})}])

    def test_strong_core_keeps_every_row(self):
        assert len(convexcodes.topology._strong_core(_pack(f - {100} for f in self.FACETS).masks)) == 13

    def test_link_is_indeterminate(self):
        assert is_link_contractible(self.FACETS, {100}) is INDETERMINATE
        s = CodeStructure(NeuralCode(self.FACETS))
        assert s.undecided == [1 << s.packed.labels.index(100)]
        assert not s.is_minimal

    def test_minimal_code_and_mandatory_faces_refuse(self):
        for call in (minimal_code, mandatory_faces):
            with pytest.raises(ValueError, match=r"unresolved for \[100\]$"):
                call(self.FACETS)

    def test_code_missing_the_face_is_unknown(self):
        assert has_local_obstruction(self.CODE) is INDETERMINATE
        verdict, certs = decide(self.CODE)
        assert verdict is Verdict.UNKNOWN
        assert [c.text() for c in certs] == [
            "IndeterminateContractibility: contractibility unresolved for {100}"
        ]
        report = analyze(self.CODE)
        assert report.minimal_code is None
        assert set(report.mandatory_faces) == set(self.FACETS) | {
            f for f in max_intersection_faces(self.FACETS) if f != frozenset({100})
            and is_link_contractible(self.FACETS, f) is False
        }


class TestMasksOnly:
    """Nerves and faces stay masks: the pipeline never calls the public nerve."""

    def test_pipeline_builds_no_complex(self, monkeypatch, c24, c22, w3):
        built = []

        def counting(sets):
            built.append(sets)
            return nerve(sets)

        # every module that imports nerve holds its own binding of the name
        patched = []
        for module in list(sys.modules.values()):
            if getattr(module, "nerve", None) is nerve and module.__name__.startswith("convexcodes"):
                monkeypatch.setattr(module, "nerve", counting)
                patched.append(module.__name__.split(".", 1)[-1])
        assert sorted(patched) == [
            "atlas", "cli", "convexcodes", "decider", "realize.builders", "topology", "wheels",
        ]
        for code in (c24, c22, w3):
            decide(code)
            analyze(code)
        for m in (6, 9, 12):
            decide(minimal_code(collapse_family(m)))
        atlas_rows(5, 5)
        assert len(built) == 0

    def test_one_packing_per_structure(self, monkeypatch, c22, c24, w3):
        # links are cut from the structure's facet masks: _pack runs once
        # per structure whose packed is read, and never per link
        packs, structures, links = [], [], []
        pack = convexcodes.codes._pack
        packed = CodeStructure.__dict__["packed"]
        link = convexcodes.topology._link_contractible

        def counting_pack(sets):
            packs.append(sets)
            return pack(sets)

        def counting_packed(self):
            structures.append(self)
            return packed.func(self)

        def counting_link(facet_masks, sigma):
            links.append(sigma)
            return link(facet_masks, sigma)

        reading = functools.cached_property(counting_packed)
        reading.__set_name__(CodeStructure, "packed")
        for module in (convexcodes.codes, convexcodes.topology):
            monkeypatch.setattr(module, "_pack", counting_pack)
        monkeypatch.setattr(CodeStructure, "packed", reading)
        monkeypatch.setattr(convexcodes.topology, "_link_contractible", counting_link)
        for code in (c24, c22, w3):
            analyze(code)
        for m in (6, 9, 12):
            decide(NeuralCode(collapse_family(m)))
        assert links and structures
        assert len(packs) == len(structures)
