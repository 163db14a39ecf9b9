import json
import re
from fractions import Fraction

import pytest

from convexcodes import (
    Interval,
    NeuralCode,
    Polygon,
    Realization,
    build_realization,
    code_of_realization,
    parse_code,
    realization_from_json,
    render_svg,
    verify_realization,
)
from convexcodes.realize import format_rational, validate

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

    def test_declared_unused_neuron_rejected(self):
        # an unused declared neuron would need an empty open region
        code = NeuralCode([frozenset(), fs("12")], n=3)
        with pytest.raises(ValueError):
            build_realization(code)


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
        r, _ = build_realization(c22)
        assert verify_realization(r, c22)[0]
        assert len(calls) == 1
        assert code_of_realization(r) == c22
        assert len(calls) == 2


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
        from convexcodes.realize.geometry import _region_signature

        half = Polygon([(Fraction(1, 2), 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))])
        whole = Polygon([(1, 0), (2, 0), (1, 1)])
        assert _region_signature(half) != _region_signature(whole)
        r = Realization(2, {1: half, 2: whole})
        assert code_of_realization(r).codewords == {frozenset(), fs("1"), fs("2")}

    def test_equal_regions_share_a_signature(self):
        from convexcodes.realize.geometry import _region_signature

        a = Polygon([(Fraction(2, 4), 0), (1, 0), (1, 1)])
        b = Polygon([(Fraction(1, 2), 0), (1, 0), (1, 1)])
        assert _region_signature(a) == _region_signature(b)
        assert _region_signature(Interval(Fraction(2, 4), 1)) == _region_signature(
            Interval(Fraction(1, 2), Fraction(3, 3))
        )
        r = Realization(2, {1: a, 2: b})
        assert code_of_realization(r).codewords == {frozenset(), fs("12")}

    def test_signatures_hold_only_ints(self, c22):
        from convexcodes.realize.geometry import _region_signature

        def leaves(t):
            for x in t:
                if isinstance(x, tuple):
                    yield from leaves(x)
                else:
                    yield x

        for code in (c22, parse_code(C18A_TEXT)):
            r, _ = build_realization(code)
            for region in r.regions.values():
                sig = _region_signature(region)
                assert {type(x) for x in leaves(sig[1:])} == {int}

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
    ], ids=["no-vertices", "interval-in-2d", "polygon-in-1d", "star", "dimension-3"])
    def test_svg_refuses_what_validate_refuses(self, r, problem):
        # these raised ZeroDivisionError or AttributeError, or drew a star
        with pytest.raises(ValueError, match=re.escape(problem)):
            render_svg(r)

    def test_svg_smoke(self, c22):
        r, _ = build_realization(c22)
        svg = render_svg(r)
        assert svg.startswith("<svg") or "<svg" in svg
        assert "polygon" in svg
