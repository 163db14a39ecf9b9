import itertools
import json
import re
import time
from fractions import Fraction

import pytest

from convexcodes import (
    Interval,
    NeuralCode,
    Polygon,
    Realization,
    analyze,
    build_realization,
    code_of_realization,
    parse_code,
    realization_from_json,
    render_svg,
    verify_realization,
)
from convexcodes import cli
from convexcodes.realize import VerifyDiff, format_rational, validate

import oracles
from conftest import (
    C18A_TEXT, C18B_TEXT, C22_TEXT, C24_TEXT, C26_CORRECTED_TEXT, C26_PRINTED_TEXT, W3_TEXT, fs,
)

# vertices 0, 2, 4, 1, 3 of the convex pentagon (4,0),(8,3),(6,8),(2,8),(0,3):
# every turn is a left turn, yet the path winds twice
PENTAGRAM = [(4, 0), (6, 8), (0, 3), (8, 3), (2, 8)]


def cells_left_to_right(r):
    """Nonempty codeword per open gap of the 1-D arrangement, in x order."""
    pts = sorted({x for iv in r.regions.values() for x in (iv.lo, iv.hi)})
    out = []
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        word = frozenset(k for k, iv in r.regions.items() if iv.lo < mid < iv.hi)
        if word and (not out or out[-1] != word):
            out.append(word)
    return out


class TestBuildChain:
    def test_three_facet_chain_order(self):
        code = parse_code("134, 1357, 356, 13, 35")
        r, tag = build_realization(code)
        assert tag == "PoFChain1D"
        assert r.dimension == 1
        assert cells_left_to_right(r) == [
            fs("134"), fs("13"), fs("1357"), fs("35"), fs("356"),
        ]
        ok, diff = verify_realization(r, code)
        assert ok and diff.is_empty()

    def test_chain_code_exact(self):
        code = parse_code("134, 1357, 356, 13, 35")
        r, _ = build_realization(code)
        assert code_of_realization(r) == code

    def test_empty_code(self):
        # {∅} decides CONVEX, and its realization has no regions
        code = NeuralCode([])
        r, tag = build_realization(code)
        assert (r, tag) == (Realization(1, {}), "PoFChain1D")
        assert verify_realization(r, code)[0]

    def test_single_facet(self):
        code = parse_code("12")
        r, tag = build_realization(code)
        assert tag == "PoFChain1D"
        assert verify_realization(r, code)[0]

    def test_two_facets(self):
        code = parse_code("12, 23, 2")
        r, tag = build_realization(code)
        assert tag == "PoFChain1D"
        assert cells_left_to_right(r) == [fs("12"), fs("2"), fs("23")]
        assert verify_realization(r, code)[0]

    def test_silent_neurons_get_no_region(self):
        # a neuron in no codeword has the empty region, so none is built for
        # it: here 1, 3 and 4, below the top index 6
        code = parse_code("25, 56, 5")
        r, _ = build_realization(code)
        assert set(r.regions) == {2, 5, 6}
        assert verify_realization(r, code)[0]


class TestBuildFamilies:
    def test_c18a_chain(self, c18a):
        r, tag = build_realization(c18a)
        assert tag == "L18Case1"
        assert r.dimension == 1
        assert cells_left_to_right(r) == [
            fs("12"), fs("2"), fs("234"), fs("34"), fs("345"), fs("35"), fs("356"),
        ]
        assert verify_realization(r, c18a)[0]

    def test_c18b_t_shape(self, c18b):
        r, tag = build_realization(c18b)
        assert tag == "L18Case2"
        assert r.dimension == 2
        assert verify_realization(r, c18b)[0]

    def test_c22_polygons(self, c22):
        r, tag = build_realization(c22)
        assert tag == "L22Case2b"
        assert r.dimension == 2
        ok, diff = verify_realization(r, c22)
        assert ok and diff.is_empty()

    def test_disconnected_glue(self, c22):
        code = NeuralCode(c22.codewords | {fs("89")})
        r, tag = build_realization(code)
        assert tag.startswith("DisconnectedGlue")
        assert verify_realization(r, code)[0]


class TestBuildRefusals:
    def test_nonconvex_precondition(self, c24):
        with pytest.raises(ValueError):
            build_realization(c24)

    def test_mic_only_not_covered(self, c24):
        code = NeuralCode(c24.codewords | {fs("1")})
        assert build_realization(code) is None

    def test_nonminimal_not_covered(self, c22):
        # same facets, one extra word: still CONVEX by the class theorem,
        # but the constructions only cover minimal codes
        code = NeuralCode(c22.codewords | {fs("357")})
        assert build_realization(code) is None


class TestCodeOfRealization:
    def test_disjoint_intervals(self):
        r = Realization(1, {1: Interval(0, 1), 2: Interval(2, 3)})
        assert code_of_realization(r).codewords == {
            frozenset(), fs("1"), fs("2"),
        }

    def test_overlapping_squares(self):
        r = Realization(
            2,
            {
                1: Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
                2: Polygon([(1, 0), (3, 0), (3, 2), (1, 2)]),
            },
        )
        assert code_of_realization(r).codewords == {
            frozenset(), fs("1"), fs("12"), fs("2"),
        }

    def test_empty_word_always_present(self):
        r = Realization(1, {1: Interval(0, 1)})
        assert frozenset() in code_of_realization(r).codewords

    def test_nested_polygons(self):
        outer = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        inner = Polygon([(1, 1), (2, 1), (2, 2), (1, 2)])
        r = Realization(2, {1: outer, 2: inner})
        assert code_of_realization(r).codewords == {
            frozenset(), fs("1"), fs("12"),
        }

    def test_shared_boundary_point_words(self):
        # two triangles touching at one vertex never co-fire: the common
        # point is on neither open region
        a = Polygon([(0, 0), (2, 0), (1, 1)])
        b = Polygon([(0, 2), (1, 1), (2, 2)])
        r = Realization(2, {1: a, 2: b})
        assert code_of_realization(r).codewords == {
            frozenset(), fs("1"), fs("2"),
        }

    def test_pattern_cache_stays_bounded(self):
        from convexcodes.realize.geometry import _PATTERN_CACHE_SIZE, _patterns

        for i in range(1, _PATTERN_CACHE_SIZE + 50):
            # the labels make each code distinct, the widths each arrangement
            r = Realization(1, {i: Interval(0, 2), i + 1: Interval(1, 2 + i)})
            assert code_of_realization(r).codewords == {
                frozenset(), frozenset({i}), frozenset({i, i + 1}), frozenset({i + 1}),
            }
            assert _patterns.cache_info().currsize <= _PATTERN_CACHE_SIZE
        assert _patterns.cache_info().currsize == _PATTERN_CACHE_SIZE


class TestVerify:
    def test_c22_round_trip(self, c22):
        r, _ = build_realization(c22)
        assert verify_realization(r, c22) == (
            True,
            verify_realization(r, c22)[1],
        )

    def test_wrong_target_diff(self, c22):
        chain, _ = build_realization(parse_code("134, 1357, 356, 13, 35"))
        ok, diff = verify_realization(chain, c22)
        assert not ok
        assert set(diff.missing) == {fs("257"), fs("57")}
        assert diff.extra == ()

    def test_clockwise_polygon_rejected(self):
        cw = Polygon([(0, 0), (0, 2), (2, 2), (2, 0)])
        r = Realization(2, {1: cw})
        ok, diff = verify_realization(r, parse_code("{1}"))
        assert not ok
        assert any("orientation" in v or "counterclockwise" in v for v in diff.validation)

    def test_star_polygon_rejected(self):
        r = Realization(2, {1: Polygon(PENTAGRAM)})
        assert validate(r) == ["neuron 1: not strictly convex"]
        ok, diff = verify_realization(r, parse_code("1"))
        assert not ok and diff.validation == ("neuron 1: not strictly convex",)
        pentagon = [PENTAGRAM[i] for i in (0, 3, 1, 4, 2)]
        assert validate(Realization(2, {1: Polygon(pentagon)})) == []

    def test_empty_interval_rejected(self):
        r = Realization(1, {1: Interval(1, 1)})
        ok, diff = verify_realization(r, parse_code("{1}"))
        assert not ok and diff.validation

    def test_each_public_call_validates_once(self, c22, monkeypatch):
        import convexcodes.realize.geometry as geometry

        calls = []

        def counting(r):
            calls.append(r)
            return validate(r)

        monkeypatch.setattr(geometry, "validate", counting)
        r, _ = build_realization(c22)  # the builders verify what they build
        assert len(calls) == 1
        assert verify_realization(r, c22)[0]
        assert len(calls) == 2
        assert code_of_realization(r) == c22
        assert len(calls) == 3


class TestEveryRealizationVerifies:
    """A realization leaves the package only once it has been verified
    against its code: a construction that builds the wrong arrangement is
    a bug, and every public way to a realization raises on it."""

    @pytest.fixture
    def broken_l22(self, monkeypatch):
        import convexcodes.realize.builders as builders

        # one interval: the code {∅, 1}, not C22
        wrong = (Realization(1, {1: Interval(0, 1)}), "L22Case2b")
        monkeypatch.setattr(builders, "_build_l22", lambda s: wrong)

    @pytest.mark.parametrize(
        "call",
        [
            build_realization,
            analyze,
            lambda code: cli.main(["realize", C22_TEXT]),
        ],
        ids=["build_realization", "analyze", "cli realize"],
    )
    def test_a_wrong_construction_raises(self, c22, broken_l22, call, capsys):
        with pytest.raises(AssertionError, match=r"invalid realization \(L22Case2b\)"):
            call(c22)
        assert capsys.readouterr().out == ""

    def test_glued_realizations_are_verified_whole(self, c22, broken_l22):
        code = NeuralCode(c22.codewords | {fs("89")})
        with pytest.raises(AssertionError, match=r"\(DisconnectedGlue\(PoFChain1D,L22Case2b\)\)"):
            build_realization(code)


class TestSharedTemplates:
    """The builders hand out regions built once at import; a region is
    immutable, so realizations share them, and its integer form is a
    field computed once."""

    def test_integer_form_leaves_a_region_immutable(self):
        for region, field in ((Polygon(PENTAGRAM), "vertices"), (Interval(0, 1), "lo")):
            assert region.integer_form is region.integer_form
            assert "integer_form" in vars(region)
            for name in (field, "integer_form"):
                with pytest.raises(AttributeError):
                    setattr(region, name, None)
                with pytest.raises(AttributeError):
                    delattr(region, name)

    def test_every_template_validates(self):
        import convexcodes.realize.builders as builders

        tables = [
            builders._L18_T, builders._L21_HOUSE, builders._L21_TENT,
            builders._L22_CASE2B, builders._L22_CASE3A, builders._L22_CASE3B,
        ]
        regions = [region for table in tables for region in table.values()]
        assert all(isinstance(region, Polygon) for region in regions)
        assert all(isinstance(span, Interval) for span in builders._SPANS.values())
        for dimension, region in [(2, r) for r in regions] + [(1, r) for r in builders._SPANS.values()]:
            assert validate(Realization(dimension, {1: region})) == [], region

    def test_realizations_share_regions_and_each_verifies(self, c22, monkeypatch):
        import convexcodes.realize.builders as builders

        verified = []

        def counting(realization, code):
            verified.append(realization)
            return verify_realization(realization, code)

        monkeypatch.setattr(builders, "verify_realization", counting)
        (first, tag), (second, _) = build_realization(c22), build_realization(c22)
        assert tag == "L22Case2b" and verified == [first, second]
        assert first.regions.keys() == second.regions.keys()
        assert all(first.regions[k] is second.regions[k] for k in first.regions)
        templates = builders._L22_CASE2B.values()
        assert all(any(r is t for t in templates) for r in first.regions.values())


def _random_polygon(rng):
    """A seeded rational vertex list, valid or broken in one of the ways
    validate must tell apart."""
    denominators = rng.choice([
        [1, 2, 3, 4, 6],
        [1, 5, 7, 9],
        # pairwise coprime and large: the least common denominator grows
        [10007, 10009, 10037, 10039, 10061, 10067],
    ])

    def rational():
        d = rng.choice(denominators)
        return Fraction(rng.randint(-9 * d, 9 * d), d)

    hull = oracles.strict_hull([(rational(), rational()) for _ in range(rng.randint(3, 9))])
    if len(hull) < 3:
        return hull
    k = rng.randrange(len(hull))
    vs = hull[k:] + hull[:k]
    kind = rng.choice(["convex", "clockwise", "star", "duplicate", "closing",
                       "collinear", "degenerate", "shuffled"])
    if kind == "clockwise":
        vs.reverse()
    elif kind == "star" and len(vs) >= 5:
        vs = vs[::2] + vs[1::2] if len(vs) % 2 else vs[::3] + vs[1::3] + vs[2::3]
    elif kind == "duplicate":
        i = rng.randrange(len(vs))
        vs.insert(i, vs[i])
    elif kind == "closing":
        vs.append(vs[0])
    elif kind == "collinear":
        i = rng.randrange(len(vs))
        (ax, ay), (bx, by) = vs[i - 1], vs[i]
        t = Fraction(rng.randint(1, 4), 5)
        vs.insert(i, (ax + t * (bx - ax), ay + t * (by - ay)))
    elif kind == "degenerate":
        vs = [vs[0], vs[1], vs[1], vs[0]][: rng.randint(1, 4)]
    elif kind == "shuffled":
        rng.shuffle(vs)
    return vs


class TestIntegerForms:
    def test_validate_matches_fraction_reference(self):
        import random

        rng = random.Random(107)
        seen = set()
        for _ in range(300):
            r = Realization(2, {
                k: Polygon(_random_polygon(rng)) for k in range(1, rng.randint(2, 4))
            })
            got = validate(r)
            assert got == oracles.reference_validate(r)
            seen.update(problem.split(": ", 1)[1] for problem in got)
        assert seen == {
            "fewer than 3 vertices",
            "orientation (vertices are clockwise)",
            "not strictly convex",
        }

    def test_intervals_and_region_types_match_reference(self):
        for r in [
            Realization(1, {1: Interval(Fraction(1, 3), Fraction(2, 5)),
                            2: Interval(Fraction(2, 5), Fraction(1, 3)),
                            3: Interval(Fraction(-7, 10009), Fraction(-7, 10007)),
                            4: Interval(0, 0)}),
            Realization(1, {1: Polygon([(0, 0), (1, 0), (0, 1)])}),
            Realization(2, {1: Interval(0, 1), 2: Polygon(PENTAGRAM)}),
            Realization(3, {}),
        ]:
            assert validate(r) == oracles.reference_validate(r)

    def test_interval_ends_are_read_exactly(self):
        # like polygon vertices, interval ends go through Fraction, so a float
        # end is read exactly and has the numerator and denominator validate reads
        r = Realization(1, {1: Interval(0.5, 1), 2: Interval(Fraction(3, 4), 2)})
        assert r.regions[1] == Interval(Fraction(1, 2), Fraction(1))
        assert type(r.regions[1].hi) is Fraction
        assert code_of_realization(r).codewords == {frozenset(), fs("1"), fs("12"), fs("2")}

    def test_integer_form_is_not_a_field(self):
        p = Polygon([(Fraction(1, 2), 0), (1, Fraction(1, 3)), (0, 1)])
        before = (repr(p), hash(p), p.to_json())
        assert p.integer_form == (6, ((3, 0), (6, 2), (0, 6)))
        assert (repr(p), hash(p), p.to_json()) == before
        assert p == Polygon([(Fraction(1, 2), 0), (1, Fraction(1, 3)), (0, 1)])

    def test_scaled_copies_stay_separate_regions(self):
        half = Polygon([(Fraction(1, 2), 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))])
        whole = Polygon([(1, 0), (2, 0), (1, 1)])
        assert half.integer_form != whole.integer_form
        r = Realization(2, {1: half, 2: whole})
        assert code_of_realization(r).codewords == {frozenset(), fs("1"), fs("2")}
        short, long = Interval(Fraction(1, 2), 1), Interval(1, 2)
        assert short.integer_form == (2, (1, 2)) and long.integer_form == (1, (1, 2))
        r = Realization(1, {1: short, 2: long})
        assert code_of_realization(r).codewords == {frozenset(), fs("1"), fs("2")}

    def test_equal_regions_share_a_signature(self):
        a = Polygon([(Fraction(2, 4), 0), (1, 0), (1, 1)])
        b = Polygon([(Fraction(1, 2), 0), (1, 0), (1, 1)])
        # repeated vertices are dropped once, in the integer form
        c = Polygon([(Fraction(1, 2), 0), (1, 0), (1, 0), (1, 1), (Fraction(1, 2), 0)])
        assert a.integer_form == b.integer_form == c.integer_form == (2, ((1, 0), (2, 0), (2, 2)))
        assert Interval(Fraction(2, 4), 1).integer_form == Interval(
            Fraction(1, 2), Fraction(3, 3)
        ).integer_form
        r = Realization(2, {1: a, 2: b, 3: c})
        assert code_of_realization(r).codewords == {frozenset(), fs("123")}
        r = Realization(1, {1: Interval(Fraction(2, 4), 1), 2: Interval(Fraction(1, 2), 1)})
        assert code_of_realization(r).codewords == {frozenset(), fs("12")}

    def test_signatures_hold_only_ints(self, c22):
        def leaves(t):
            for x in t:
                if isinstance(x, tuple):
                    yield from leaves(x)
                else:
                    yield x

        kinds = set()
        for code in (c22, parse_code(C18A_TEXT)):
            r, _ = build_realization(code)
            for region in r.regions.values():
                kinds.add(type(region))
                assert {type(x) for x in leaves(region.integer_form)} == {int}
        assert kinds == {Interval, Polygon}

    def test_cold_code_equals_warm_on_golden_realizations(self):
        from convexcodes.realize.geometry import _patterns

        built = []
        for text in (C22_TEXT, C24_TEXT, C18A_TEXT, C18B_TEXT, W3_TEXT,
                     C26_PRINTED_TEXT, C26_CORRECTED_TEXT):
            code = parse_code(text)
            try:
                result = build_realization(code)
            except ValueError:  # not CONVEX
                continue
            if result is not None:
                built.append((code, result[0]))
        assert {r.dimension for _code, r in built} == {1, 2}
        for code, r in built:
            _patterns.cache_clear()
            cold = code_of_realization(r)
            hits = _patterns.cache_info().hits
            assert code_of_realization(r) == cold == code
            assert _patterns.cache_info().hits == hits + 1


class TestRigidMotion:
    def test_translate_and_scale_preserve_code(self, c22):
        r, _ = build_realization(c22)
        dx, dy, s = Fraction(7, 3), Fraction(-2, 5), Fraction(3, 2)
        moved = Realization(
            2,
            {
                k: Polygon([(s * x + dx, s * y + dy) for x, y in p.vertices])
                for k, p in r.regions.items()
            },
        )
        assert code_of_realization(moved) == code_of_realization(r)

    def test_interval_shift(self):
        code = parse_code("134, 1357, 356, 13, 35")
        r, _ = build_realization(code)
        moved = Realization(
            1,
            {
                k: Interval(iv.lo * 5 + Fraction(1, 7), iv.hi * 5 + Fraction(1, 7))
                for k, iv in r.regions.items()
            },
        )
        assert code_of_realization(moved) == code


class TestOracleAgreement:
    def test_interval_families(self):
        import random

        rng = random.Random(101)
        for _ in range(120):
            regions = {}
            for k in range(1, rng.randint(2, 8)):
                lo = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                hi = lo + Fraction(rng.randint(1, 10), rng.randint(1, 3))
                regions[k] = (lo, hi)
            r = Realization(1, {k: Interval(lo, hi) for k, (lo, hi) in regions.items()})
            got = code_of_realization(r).codewords
            assert got == oracles.interval_code_oracle(regions)

    def test_rectangles(self):
        import random

        rng = random.Random(103)
        for _ in range(40):
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
            got = code_of_realization(r).codewords
            assert got == oracles.rectangle_code_oracle(rects)


def _lattice_arrangement(rng):
    """One to three strict hulls of lattice points on a 3..6 grid with step
    1, 1/2 or 1/3.  A hull may be glued to an edge of an earlier one from
    outside it, so edges and vertices are shared; the grid makes vertical
    edges and touching corners common too."""
    size, den = rng.randint(3, 6), rng.randint(1, 3)

    def point():
        return (Fraction(rng.randint(0, size * den), den), Fraction(rng.randint(0, size * den), den))

    def right_of(u, v, p):
        return (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0]) < 0

    hulls = []
    for _ in range(rng.randint(1, 3)):
        points = [point() for _ in range(rng.randint(3, 6))]
        if hulls and rng.random() < 0.5:
            hull = rng.choice(hulls)
            i = rng.randrange(len(hull))
            u, v = hull[i - 1], hull[i]
            points = [u, v] + [p for p in points if right_of(u, v, p)]
        hull = oracles.strict_hull(points)
        if len(hull) >= 3:
            hulls.append(hull)
    return [Polygon(hull) for hull in hulls]


def sweep_matches_reference(polygons):
    """The column sweep and the reference sampler find the same patterns."""
    from convexcodes.realize.geometry import _patterns_2d

    forms = sorted({p.integer_form for p in polygons})
    swept = {frozenset(i for i in range(len(forms)) if w >> i & 1) for w in _patterns_2d(forms)}
    return swept == oracles.reference_patterns_2d(forms)


class TestColumnSweep:
    def test_seeded_arrangements_match_reference_sampler(self):
        import random

        def edges(p):
            return set(zip(p.vertices, p.vertices[1:] + p.vertices[:1]))

        rng = random.Random(109)
        seen = dict.fromkeys(["shared edge", "touching vertex", "vertical edge", "fraction"], 0)
        done = 0
        while done < 3000:
            polygons = _lattice_arrangement(rng)
            if not polygons:
                continue
            done += 1
            assert sweep_matches_reference(polygons), polygons
            pairs = list(itertools.combinations(polygons, 2))
            seen["shared edge"] += any(
                edges(a) & {(v, u) for u, v in edges(b)} for a, b in pairs
            )
            seen["touching vertex"] += any(set(a.vertices) & set(b.vertices) for a, b in pairs)
            seen["vertical edge"] += any(u[0] == v[0] for p in polygons for u, v in edges(p))
            seen["fraction"] += any(p.integer_form[0] > 1 for p in polygons)
        assert min(seen.values()) >= 500, seen

    def test_golden_realizations_match_reference_sampler(self):
        c22 = parse_code(C22_TEXT)
        for code in (c22, parse_code(C18B_TEXT), NeuralCode(c22.codewords | {fs("89")})):
            r, _ = build_realization(code)
            assert r.dimension == 2
            assert sweep_matches_reference(r.regions.values())


def _contract_realization(rng):
    """(kind, realization): valid, possibly with coordinates too large for
    floats, or broken in one of the ways validate must report."""
    kind = rng.choice(["valid", "huge", "tiny", "bool key", "zero key", "str key", "mixed keys",
                       "bool dimension", "empty interval", "star", "clockwise", "wrong type",
                       "not a region"])
    dimension = 2 if kind in ("star", "clockwise") else rng.choice([1, 2])
    if kind == "bool dimension":
        dimension = 1

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    def region(dim):
        if dim == 1:
            lo = rational()
            return Interval(lo, lo + Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        hull = oracles.strict_hull([(rational(), rational()) for _ in range(rng.randint(3, 6))])
        return Polygon(hull if len(hull) >= 3 else [(0, 0), (1, 0), (0, 1)])

    key = {"bool key": rng.choice([True, False]), "zero key": 0, "str key": "a",
           "mixed keys": "b"}.get(kind, 1)
    regions = {key: region(dimension)}
    for k in range(2, rng.randint(2, 4) + (kind == "mixed keys")):
        regions[k] = region(dimension)
    if kind in ("huge", "tiny"):
        s = Fraction(10**400) if kind == "huge" else Fraction(1, 10**400)
        if dimension == 1:
            regions[1] = Interval(regions[1].lo * s, regions[1].hi * s)
        else:
            regions[1] = Polygon((x * s, y * s) for x, y in regions[1].vertices)
    elif kind == "empty interval":
        x = rational()
        regions[1] = Interval(x, x - rng.randint(0, 2))
    elif kind == "star":
        regions[1] = Polygon(PENTAGRAM)
    elif kind == "clockwise":
        regions[1] = Polygon(reversed(regions[1].vertices))
    elif kind == "wrong type":
        regions[1] = region(3 - dimension)
    elif kind == "not a region":
        regions[1] = (rational(), rational())
    return kind, Realization(True if kind == "bool dimension" else dimension, regions)


class TestContract:
    def test_realize_layer_returns_or_raises_value_error(self):
        """Every entry point of the realize layer returns, or raises
        ValueError, on valid and broken realizations alike; whatever validate
        accepts round-trips through JSON to an equal realization."""
        import random

        def value_or_none(call, *args):
            try:
                return call(*args)
            except ValueError:
                return None

        rng = random.Random(113)
        kinds = set()
        for _ in range(400):
            kind, r = _contract_realization(rng)
            kinds.add(kind)
            problems = validate(r)
            assert all(type(p) is str for p in problems)
            assert bool(problems) == (kind not in ("valid", "huge", "tiny")), (kind, problems)
            code = value_or_none(code_of_realization, r)
            assert (code is None) == bool(problems)
            ok, diff = verify_realization(r, NeuralCode([]) if code is None else code)
            assert ok == (not problems) and diff.validation == tuple(problems)
            svg = value_or_none(render_svg, r)
            assert (svg is None) == (bool(problems) or kind == "huge")
            doc = value_or_none(r.to_json)
            back = None if doc is None else value_or_none(
                realization_from_json, json.loads(json.dumps(doc))
            )
            if not problems:
                assert back == r and code_of_realization(back) == code
        assert len(kinds) == 13

    @pytest.mark.parametrize("end", ["1e10000000", "1e-10000000"])
    def test_huge_decimal_exponent_refused_at_once(self, end):
        # Fraction would build 10**(10**7) first, which takes seconds
        doc = {"dimension": 1, "regions": [{"neuron": 1, "interval": ["0", end]}]}
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"malformed number {end!r}")):
            realization_from_json(doc)
        assert time.perf_counter() - start < 0.5

    def test_exponent_at_the_bound_accepted(self):
        doc = {"dimension": 1, "regions": [{"neuron": 1, "interval": ["1e-4300", "1e4300"]}]}
        interval = realization_from_json(doc).regions[1]
        assert (interval.lo, interval.hi) == (Fraction(1, 10**4300), Fraction(10**4300))


class TestSerialization:
    def test_json_round_trip(self, c22):
        r, _ = build_realization(c22)
        doc = json.loads(json.dumps(r.to_json()))
        back = realization_from_json(doc)
        assert code_of_realization(back) == code_of_realization(r)

    def test_rationals_as_fraction_strings(self):
        # serialized form is always numerator/denominator
        assert format_rational(Fraction(3, 7)) == "3/7"
        assert format_rational(Fraction(5)) == "5/1"
        doc = {"dimension": 1, "regions": [{"neuron": 1, "interval": ["-4", "3/7"]}]}
        interval = realization_from_json(doc).regions[1]
        assert (interval.lo, interval.hi) == (Fraction(-4), Fraction(3, 7))
        assert interval.to_json() == ["-4/1", "3/7"]

    def test_json_shape(self, c18a):
        r, _ = build_realization(c18a)
        doc = r.to_json()
        assert doc["dimension"] == 1
        for row in doc["regions"]:
            assert set(row) == {"neuron", "interval"}

    def test_json_refuses_what_is_not_a_region(self):
        # a tuple region once raised AttributeError for its missing to_json
        with pytest.raises(ValueError, match="neuron 1: region is neither an Interval nor a Polygon"):
            Realization(1, {1: (0, 1)}).to_json()

    @pytest.mark.parametrize("doc, message", [
        ([], "realization must be a JSON object, got list"),
        ("1", "realization must be a JSON object, got str"),
        ({"regions": []}, "realization has no 'dimension' field"),
        ({"dimension": 1}, "realization has no 'regions' field"),
        ({"dimension": 1, "regions": {}}, "regions must be a JSON list, got dict"),
        ({"dimension": 1, "regions": [3]}, "region must be a JSON object, got int"),
        ({"dimension": 1, "regions": [{"interval": ["0", "1"]}]}, "region has no 'neuron' field"),
        ({"dimension": 1, "regions": [{"neuron": 1}]},
         "region of neuron 1 has no 'interval' or 'polygon' field"),
        ({"dimension": 1, "regions": [{"neuron": 1, "interval": ["0", "1"]},
                                      {"neuron": 1, "interval": ["5", "9"]}]},
         "neuron 1 has more than one region"),
        ({"dimension": 1, "regions": [{"neuron": 1, "interval": "0 1"}]},
         "interval of neuron 1 must be a JSON list, got str"),
        ({"dimension": 1, "regions": [{"neuron": 1, "interval": ["0"]}]},
         "interval of neuron 1 must have 2 entries, got 1"),
        ({"dimension": 1, "regions": [{"neuron": 1, "interval": [None, "1"]}]},
         "malformed number None"),
        ({"dimension": 2, "regions": [{"neuron": 1, "polygon": 5}]},
         "polygon of neuron 1 must be a JSON list, got int"),
        ({"dimension": 2, "regions": [{"neuron": 1, "polygon": [["0", "0"], ["1"]]}]},
         "polygon vertex of neuron 1 must have 2 entries, got 1"),
        ({"dimension": 2, "regions": [{"neuron": 1, "polygon": [{"x": 0}]}]},
         "polygon vertex of neuron 1 must be a JSON list, got dict"),
    ], ids=["list", "string", "no-dimension", "no-regions", "regions-object", "region-int",
            "no-neuron", "no-shape", "duplicate-neuron", "interval-string", "interval-short", "number-null",
            "polygon-int", "vertex-short", "vertex-object"])
    def test_malformed_document_raises_value_error(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            realization_from_json(doc)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_svg_of_no_regions_is_padding(self, dimension):
        # validate accepts a realization with no regions, so it must draw
        r = Realization(dimension, {})
        assert verify_realization(r, NeuralCode([]))[0]
        assert render_svg(r) == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="60" height="60" '
            'viewBox="0 0 60 60">\n</svg>\n'
        )

    @pytest.mark.parametrize("r, problem", [
        (Realization(2, {1: Polygon([])}), "neuron 1: fewer than 3 vertices"),
        (Realization(2, {1: Interval(0, 1)}), "neuron 1: region type does not match dimension"),
        (Realization(1, {2: Polygon([(0, 0), (1, 0), (0, 1)])}),
         "neuron 2: region type does not match dimension"),
        (Realization(2, {1: Polygon(PENTAGRAM)}), "neuron 1: not strictly convex"),
        (Realization(3, {}), "dimension 3 unsupported"),
        (Realization(True, {1: Interval(0, 1)}), "dimension True unsupported"),
        (Realization(1, {0: Interval(0, 1)}), "neuron 0: index is not a positive integer"),
        (Realization(2, {False: Polygon([(0, 0), (1, 0), (0, 1)])}),
         "neuron False: index is not a positive integer"),
        (Realization(1, {"a": Interval(0, 1)}), "neuron 'a': index is not a positive integer"),
        (Realization(1, {1: Interval(0, 1), "b": Interval(2, 3)}),
         "neuron 'b': index is not a positive integer"),
    ], ids=["no-vertices", "interval-in-2d", "polygon-in-1d", "star", "dimension-3",
            "dimension-bool", "neuron-zero", "neuron-bool", "neuron-str", "neuron-mixed"])
    def test_svg_refuses_what_validate_refuses(self, r, problem):
        # each of these once raised ZeroDivisionError, AttributeError or
        # TypeError, or was drawn
        with pytest.raises(ValueError, match=re.escape(problem)):
            render_svg(r)

    @pytest.mark.parametrize("r", [
        Realization(True, {1: Interval(0, 1)}),
        Realization(1, {0: Interval(0, 1)}),
        Realization(1, {"a": Interval(0, 1)}),
        Realization(1, {1: Interval(0, 1), "b": Interval(2, 3)}),
    ], ids=["dimension-bool", "neuron-zero", "neuron-str", "neuron-mixed"])
    def test_what_json_refuses_does_not_verify(self, r):
        # validate once passed all but the mixed keys, whose sort raised TypeError,
        # although realization_from_json refuses each of them
        problems = validate(r)
        assert problems
        assert verify_realization(r, parse_code("1")) == (False, VerifyDiff((), (), tuple(problems)))
        with pytest.raises(ValueError, match="degenerate realization"):
            code_of_realization(r)
        with pytest.raises(ValueError):
            realization_from_json(json.loads(json.dumps(r.to_json())))

    @pytest.mark.parametrize("r", [
        Realization(1, {1: Interval(0, Fraction(10**400))}),
        Realization(2, {1: Polygon([(0, 0), (10**400, 0), (0, 1)])}),
        Realization(2, {1: Polygon([(0, 0), (1, 0), (0, 1)]),
                        2: Polygon([(-(10**13), 0), (0, -1), (0, 1)])}),
    ], ids=["interval", "polygon", "past-the-bound"])
    def test_svg_refuses_coordinates_too_far_to_draw(self, r):
        # these verify, but float() raised OverflowError on the first two
        assert verify_realization(r, code_of_realization(r))[0]
        with pytest.raises(ValueError, match="exceeds 1e\\+12 in magnitude"):
            render_svg(r)

    def test_svg_draws_up_to_the_bound(self):
        r = Realization(1, {1: Interval(-(10**12), 10**12)})
        assert render_svg(r).startswith("<svg")

    def test_svg_smoke(self, c22):
        r, _ = build_realization(c22)
        svg = render_svg(r)
        assert svg.startswith("<svg") or "<svg" in svg
        assert "polygon" in svg
