"""Exact computational geometry for realizations.

Coordinates are rational (fractions.Fraction) in the public types and in
JSON; there is no floating point and no epsilon anywhere.  Codeword
membership is a strict open-set predicate, so an approximate point on a
boundary would corrupt the generated code; exact arithmetic makes the
boundary cases exact instead.  Validation, region signatures and the
arrangement sampler read each polygon in one scaled integer form,
Polygon.integer_form: (q, vertices × q), q the least common denominator
of its coordinates.  Scaling by q > 0 keeps every sign, so each test on
those integers is the same exact test as on the rationals.

The generated-code computation for dimension 2 samples one point per face
of the line arrangement spanned by all polygon edges.  Every face is
constant with respect to every open polygon (polygon boundaries are
arrangement lines), so the sample's membership vector is the face's
codeword.  The sample set is column-based: candidate x values are the
arrangement vertex abscissas plus vertical-line abscissas, refined by
slab midpoints and outer points; per column, candidate y values are the
line crossings refined the same way.  Each cell, edge, and vertex of the
arrangement receives at least one sample by construction.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Tuple, Union

from ..codes import NeuralCode, _Frozen


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Interval(_Frozen):
    """Open interval (lo, hi); the ends are read through Fraction, as
    polygon vertices are."""

    _fields = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", Fraction(lo))
        object.__setattr__(self, "hi", Fraction(hi))

    def to_json(self) -> list:
        return [format_rational(self.lo), format_rational(self.hi)]


class Polygon(_Frozen):
    """Open convex polygon, vertices in counterclockwise order."""

    _fields = ("vertices",)
    vertices: tuple  # ((x, y) Fraction pairs)

    def __init__(self, vertices: Iterable[Tuple]):
        vs = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        object.__setattr__(self, "vertices", vs)

    @functools.cached_property
    def integer_form(self) -> Tuple[int, tuple]:
        """(q, vertices × q), q the least common denominator of the coordinates.

        Computed once per polygon; it is not a field, so equality, hashing,
        repr and JSON read only the Fraction vertices.
        """
        q = lcm(*(c.denominator for v in self.vertices for c in v))
        return q, tuple(
            (x.numerator * (q // x.denominator), y.numerator * (q // y.denominator))
            for x, y in self.vertices
        )

    def to_json(self) -> list:
        return [[format_rational(x), format_rational(y)] for x, y in self.vertices]


Region = Union[Interval, Polygon]


class Realization(NamedTuple):
    dimension: int
    regions: dict  # neuron -> Region

    def to_json(self) -> dict:
        rows = []
        for neuron in sorted(self.regions):
            region = self.regions[neuron]
            if isinstance(region, Interval):
                rows.append({"neuron": neuron, "interval": region.to_json()})
            else:
                rows.append({"neuron": neuron, "polygon": region.to_json()})
        return {"dimension": self.dimension, "regions": rows}


def _json_int(value, name: str) -> int:
    # bool is an int subclass, and int() would truncate 1.9 or parse "1"
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_field(obj, key: str, name: str):
    if type(obj) is not dict:
        raise ValueError(f"{name} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{name} has no {key!r} field")
    return obj[key]


def _json_list(value, name: str, length=None) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} must be a JSON list, got {type(value).__name__}")
    if length not in (None, len(value)):
        raise ValueError(f"{name} must have {length} entries, got {len(value)}")
    return value


def _json_rational(value) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
        raise ValueError(f"malformed number {value!r}: {err}") from err


def realization_from_json(doc) -> Realization:
    """Read a realization document; ValueError on malformed content.

    Malformed: a document that is not an object; a missing field
    (dimension, regions, a region's neuron, or both its interval and its
    polygon); a list of the wrong shape; a zero denominator, a non-finite
    number or a value that is not a number; a neuron below 1 or given two
    regions; or a neuron or dimension that is not a JSON integer (floats,
    strings and booleans are refused, not truncated or converted).
    """
    dimension = _json_int(_json_field(doc, "dimension", "realization"), "dimension")
    regions: Dict[int, Region] = {}
    for row in _json_list(_json_field(doc, "regions", "realization"), "regions"):
        neuron = _json_int(_json_field(row, "neuron", "region"), "neuron index")
        if neuron < 1:
            raise ValueError(f"neuron index must be a positive integer, got {neuron}")
        if neuron in regions:
            raise ValueError(f"neuron {neuron} has more than one region")
        if "interval" in row:
            lo, hi = _json_list(row["interval"], f"interval of neuron {neuron}", 2)
            regions[neuron] = Interval(_json_rational(lo), _json_rational(hi))
        elif "polygon" in row:
            vertices = _json_list(row["polygon"], f"polygon of neuron {neuron}")
            regions[neuron] = Polygon(
                map(_json_rational, _json_list(v, f"polygon vertex of neuron {neuron}", 2))
                for v in vertices
            )
        else:
            raise ValueError(f"region of neuron {neuron} has no 'interval' or 'polygon' field")
    return Realization(dimension=dimension, regions=regions)


def _dedup_vertices(vs: tuple) -> tuple:
    out = []
    for v in vs:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _edges(points: tuple) -> list:
    """(a, b, c) per edge of the closed integer path: a point (x, y) lies
    strictly left of the edge iff a*x + b*y > c."""
    out = []
    for (px, py), (qx, qy) in zip(points, points[1:] + points[:1]):
        a = py - qy
        b = qx - px
        out.append((a, b, a * px + b * py))
    return out


def _convexity_problem(points: tuple) -> str:
    """Why the integer vertex cycle is not a strictly convex counterclockwise
    polygon, or "" when it is.

    Every turn being left is not enough: a pentagram turns left at every
    vertex.  So each vertex must also lie strictly left of every edge it is
    not on, which makes every edge a hull edge, met once, counterclockwise.
    """
    n = len(points)
    edges = _edges(points)
    # the turn at the head of edge i is the side of edge i that vertex i+2 lies on
    turns = [a * x + b * y - c for (a, b, c), (x, y) in zip(edges, points[2:] + points[:2])]
    if all(t < 0 for t in turns):
        return "orientation (vertices are clockwise)"
    if not all(t > 0 for t in turns):
        return "not strictly convex"
    for i, (a, b, c) in enumerate(edges):
        for j in range(i + 3, i + n):
            x, y = points[j % n]
            if a * x + b * y <= c:
                return "not strictly convex"
    return ""


def validate(r: Realization) -> list:
    """Invariant violations as human-readable strings; empty when valid."""
    problems = []
    if r.dimension not in (1, 2):
        problems.append(f"dimension {r.dimension} unsupported")
        return problems
    for neuron in sorted(r.regions):
        region = r.regions[neuron]
        if r.dimension == 1:
            if not isinstance(region, Interval):
                problems.append(f"neuron {neuron}: region type does not match dimension")
            elif not (region.lo.numerator * region.hi.denominator
                      < region.hi.numerator * region.lo.denominator):
                problems.append(f"neuron {neuron}: empty interval")
            continue
        if not isinstance(region, Polygon):
            problems.append(f"neuron {neuron}: region type does not match dimension")
            continue
        points = _dedup_vertices(region.integer_form[1])
        if len(points) < 3:
            problems.append(f"neuron {neuron}: fewer than 3 vertices")
            continue
        problem = _convexity_problem(points)
        if problem:
            problems.append(f"neuron {neuron}: {problem}")
    return problems


def _refine(values: list, one) -> list:
    """Twice each of: the distinct values in order, the midpoint of each
    consecutive pair, and a point one past either end.

    Doubling keeps the midpoints of integer numerators integral; one is the
    numerator of 1 over their common denominator.
    """
    if not values:
        return [0]
    vs = sorted(set(values))
    out = [2 * (vs[0] - one)]
    for a, b in zip(vs, vs[1:]):
        out.append(2 * a)
        out.append(a + b)
    out.append(2 * vs[-1])
    out.append(2 * (vs[-1] + one))
    return out


def _halfplanes(q: int, scaled: tuple) -> list:
    """Primitive (a, b, c) per edge of a polygon in integer form: a point
    (x, y) of the plane lies strictly left of the edge iff a*x + b*y > c.

    An edge (a, b, c) of the scaled vertices bounds a*q*x + b*q*y > c.
    """
    out = []
    for a, b, c in _edges(_dedup_vertices(scaled)):
        a, b = a * q, b * q
        g = gcd(a, b, c)
        out.append((a // g, b // g, c // g))
    return out


def _edge_lines(halfplanes: Iterable[list]) -> list:
    """The lines a*x + b*y = c under the half-planes, deduplicated, each as
    its primitive triple with a > 0, or a == 0 and b > 0."""
    lines = set()
    for hp in halfplanes:
        for a, b, c in hp:
            lines.add((a, b, c) if a > 0 or (a == 0 and b > 0) else (-a, -b, -c))
    return sorted(lines)


def _region_signature(region: Region) -> tuple:
    """Ints that determine the region, so equal regions share one signature."""
    if isinstance(region, Interval):
        lo, hi = region.lo, region.hi
        return ("I", lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return ("P",) + region.integer_form


def _patterns_1d(bounds: List[tuple]) -> frozenset:
    """Membership patterns of the intervals given by the numerators and
    denominators of their ends, sampled over one common denominator."""
    d = lcm(*(den for _ln, ld, _hn, hd in bounds for den in (ld, hd)))
    ends = [(ln * (d // ld), hn * (d // hd)) for ln, ld, hn, hd in bounds]
    patterns = set()
    for x2 in _refine([e for pair in ends for e in pair], d):
        patterns.add(frozenset(i for i, (lo, hi) in enumerate(ends) if 2 * lo < x2 < 2 * hi))
    return frozenset(patterns)


def _patterns_2d(forms: List[tuple]) -> frozenset:
    """Membership patterns over all faces of the edge-line arrangement of
    the polygons given in integer form (q, vertices × q).

    In the column x = px/qx, a line with b != 0 crosses at
    (c*qx - a*px)/(b*qx), which is an integer numerator over big*qx, big
    the lcm of those |b|.  So a column's samples are y = y2/den with
    integer y2 and den = 2*big*qx, and the sample lies strictly inside a
    polygon iff, for every edge half-plane a*x + b*y > c, multiplied by
    qx*den > 0: (a*px - c*qx)*den + b*qx*y2 > 0.  Everything but y2 is
    fixed per column.
    """
    halfplanes = [_halfplanes(q, scaled) for q, scaled in forms]
    lines = _edge_lines(halfplanes)
    big = lcm(*(b for _a, b, _c in lines if b))
    crossings = [(a, c, big // b) for a, b, c in lines if b]

    xs = []
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            xs.append(Fraction(c1 * b2 - c2 * b1, det))
    xs.extend(Fraction(c, a) for a, b, c in lines if b == 0)

    words = set()  # bit i set: the sample lies inside polygon i
    for x2 in _refine(xs, 1):
        px, qx = x2.numerator, 2 * x2.denominator
        scale = big * qx
        den = 2 * scale
        column = [[((a * px - c * qx) * den, b * qx) for a, b, c in hp] for hp in halfplanes]
        for y2 in _refine([(c * qx - a * px) * k for a, c, k in crossings], scale):
            word = 0
            for idx, edges in enumerate(column):
                for u, v in edges:
                    if u + v * y2 <= 0:
                        break
                else:
                    word |= 1 << idx
            words.add(word)
    return frozenset(
        frozenset(idx for idx in range(len(forms)) if word >> idx & 1) for word in words
    )


# Membership patterns depend only on the distinct regions, so they are
# memoized by region signatures; neurons sharing a region are reattached
# afterwards.  The bound keeps a long-running process from growing without
# limit while holding the few dozen arrangements a batch of realizations
# typically revisits.
_PATTERN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _patterns(dimension: int, signatures: tuple) -> frozenset:
    """Membership patterns of the distinct regions named by signatures."""
    patterns_of = _patterns_1d if dimension == 1 else _patterns_2d
    return patterns_of([signature[1:] for signature in signatures])


def code_of_realization(r: Realization) -> NeuralCode:
    """The exact code generated by the regions.

    A codeword is recorded for every point whose membership vector is
    sampled; the sample sets described in the module docstring cover every
    region of constant membership, so the result is the full generated
    code.  The empty codeword is always present (the ambient space is
    unbounded).
    """
    problems = validate(r)
    if problems:
        raise ValueError("degenerate realization: " + "; ".join(problems))
    return _code_of_valid(r)


def _code_of_valid(r: Realization) -> NeuralCode:
    """code_of_realization on regions that validate already passed."""
    neurons = sorted(r.regions)
    if not neurons:
        return NeuralCode({frozenset()})

    groups: Dict[tuple, list] = {}
    for neuron in neurons:
        groups.setdefault(_region_signature(r.regions[neuron]), []).append(neuron)
    signatures = sorted(groups)

    words = {frozenset()}
    for pattern in _patterns(r.dimension, tuple(signatures)):
        word = set()
        for idx in pattern:
            word.update(groups[signatures[idx]])
        words.add(frozenset(word))
    return NeuralCode(words)


class VerifyDiff(NamedTuple):
    missing: tuple  # target codewords the realization fails to generate
    extra: tuple  # generated codewords absent from the target
    validation: tuple  # invariant violations

    def is_empty(self) -> bool:
        return not (self.missing or self.extra or self.validation)

    def to_json(self) -> dict:
        return {
            "missing": [sorted(w) for w in self.missing],
            "extra": [sorted(w) for w in self.extra],
            "validation": list(self.validation),
        }


def verify_realization(r: Realization, target: NeuralCode) -> Tuple[bool, VerifyDiff]:
    """True iff the regions are valid and generate exactly the target code."""
    from ..codes import sort_words

    problems = validate(r)
    if problems:
        return (False, VerifyDiff((), (), tuple(problems)))
    generated = _code_of_valid(r)
    missing = tuple(sort_words(target.codewords - generated.codewords))
    extra = tuple(sort_words(generated.codewords - target.codewords))
    diff = VerifyDiff(missing, extra, ())
    return (diff.is_empty(), diff)
