import json
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
from convexcodes.realize import format_rational, parse_rational, validate

import oracles
from conftest import fs


def cells_left_to_right(r):
    """Nonempty codeword per open gap of the 1-D arrangement, in x order."""
    pts = sorted({x for iv in r.regions.values() for x in (iv.lo, iv.hi)})
    out = []
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        word = frozenset(k for k, iv in r.regions.items() if mid in iv)
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
        assert parse_rational("3/7") == Fraction(3, 7)
        assert parse_rational("-4") == Fraction(-4)

    def test_json_shape(self, c18a):
        r, _ = build_realization(c18a)
        doc = r.to_json()
        assert doc["dimension"] == 1
        for row in doc["regions"]:
            assert set(row) == {"neuron", "interval"}

    def test_svg_smoke(self, c22):
        r, _ = build_realization(c22)
        svg = render_svg(r)
        assert svg.startswith("<svg") or "<svg" in svg
        assert "polygon" in svg
