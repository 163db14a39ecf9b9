"""Exact computational geometry for realizations.

Coordinates are rational (fractions.Fraction) in the public types and in
JSON; there is no floating point and no epsilon anywhere.  Codeword
membership is a strict open-set predicate, so an approximate point on a
boundary would corrupt the generated code; exact arithmetic makes the
boundary cases exact instead.  Validation, the pattern cache and both
samplers read each region in one scaled integer form, integer_form:
(q, ends × q) for an interval and (q, vertices × q) for a polygon, q the
least common denominator of its coordinates.  Scaling by q > 0 keeps
every sign, so each test on those integers is the same exact test as on
the rationals.

One routine reads a line: it sweeps the ends of the open intervals on
it in order, which gives the membership pattern on each end and in each
gap between ends, so every pattern along the line.  That is the whole
1-D code.  In 2-D the plane is swept column by column.  The columns are
the abscissas of the crossings of the polygons' edge lines, the midpoint
of each gap between them and a point past either end, so every face of
the line arrangement meets a column.  On a column each convex polygon is
one open interval or absent, so the line routine gives the column's
patterns, and the columns together give the code.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Tuple, Union

from ..codes import NeuralCode, _Frozen, _cached, sort_words


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

    @_cached
    def integer_form(self) -> Tuple[int, tuple]:
        """(q, (lo × q, hi × q)), q the least common denominator of the ends;
        like Polygon.integer_form, not a field."""
        lo, hi = self.lo, self.hi
        q = lcm(lo.denominator, hi.denominator)
        return q, (lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator))

    def to_json(self) -> list:
        return [format_rational(self.lo), format_rational(self.hi)]


class Polygon(_Frozen):
    """Open convex polygon, vertices in counterclockwise order."""

    _fields = ("vertices",)
    vertices: tuple  # ((x, y) Fraction pairs)

    def __init__(self, vertices: Iterable[Tuple]):
        vs = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        object.__setattr__(self, "vertices", vs)

    @_cached
    def integer_form(self) -> Tuple[int, tuple]:
        """(q, vertices × q), q the least common denominator of the
        coordinates, without repeats: a vertex equal to the one before it,
        or a last vertex equal to the first, is dropped.

        Computed once per polygon; it is not a field, so equality, hashing,
        repr and JSON read only the Fraction vertices.
        """
        q = lcm(*(c.denominator for v in self.vertices for c in v))
        points = []
        for x, y in self.vertices:
            point = (x.numerator * (q // x.denominator), y.numerator * (q // y.denominator))
            if not points or point != points[-1]:
                points.append(point)
        if len(points) > 1 and points[0] == points[-1]:
            points.pop()
        return q, tuple(points)

    def to_json(self) -> list:
        return [[format_rational(x), format_rational(y)] for x, y in self.vertices]


Region = Union[Interval, Polygon]


class Realization(NamedTuple):
    dimension: int
    regions: Dict[int, Region]  # neuron -> its region

    def to_json(self) -> dict:
        """The document realization_from_json reads back; ValueError on a
        neuron index that is not a positive integer or a region that is
        neither an Interval nor a Polygon, which it cannot hold."""
        for neuron in self.regions:
            if not _is_neuron(neuron):
                raise ValueError(f"neuron index must be a positive integer, got {neuron!r}")
        rows = []
        for neuron in sorted(self.regions):
            region = self.regions[neuron]
            if isinstance(region, Interval):
                rows.append({"neuron": neuron, "interval": region.to_json()})
            elif isinstance(region, Polygon):
                rows.append({"neuron": neuron, "polygon": region.to_json()})
            else:
                raise ValueError(f"neuron {neuron}: region is neither an Interval nor a Polygon")
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


# Python refuses a number of more than 4,300 digits; a decimal exponent is
# held to the same bound, since Fraction builds 10**exponent in full
_MAX_EXPONENT = 4300


def _json_rational(value) -> Fraction:
    try:
        if type(value) is str and "e" in value.lower():
            exponent = int(value.lower().rpartition("e")[2])
            if abs(exponent) > _MAX_EXPONENT:
                raise ValueError(f"decimal exponent beyond ±{_MAX_EXPONENT}")
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
        raise ValueError(f"malformed number {value!r}: {err}") from err


def realization_from_json(doc) -> Realization:
    """Read a realization document; ValueError on malformed content.

    Malformed: a document that is not an object; a missing field
    (dimension, regions, a region's neuron, or both its interval and its
    polygon); a list of the wrong shape; a zero denominator, a non-finite
    number, a decimal exponent beyond ±4,300 or a value that is not a
    number; a neuron below 1 or given two regions; or a neuron or dimension
    that is not a JSON integer (floats, strings and booleans are refused,
    not truncated or converted).
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


def _is_neuron(key) -> bool:
    # bool is an int subclass, and realization_from_json refuses true as a neuron
    return type(key) is int and key > 0


def validate(r: Realization) -> list:
    """Invariant violations as human-readable strings; empty when valid.

    As realization_from_json does, it refuses a dimension or neuron index
    that is not an int (a bool is not one) and a neuron index below 1.
    """
    if type(r.dimension) is not int or r.dimension not in (1, 2):
        return [f"dimension {r.dimension!r} unsupported"]
    problems = [
        f"neuron {key!r}: index is not a positive integer"
        for key in r.regions if not _is_neuron(key)
    ]
    for neuron in sorted(filter(_is_neuron, r.regions)):
        region = r.regions[neuron]
        if not isinstance(region, Interval if r.dimension == 1 else Polygon):
            problems.append(f"neuron {neuron}: region type does not match dimension")
            continue
        scaled = region.integer_form[1]
        if r.dimension == 1:
            problem = "empty interval" if scaled[0] >= scaled[1] else ""
        elif len(scaled) < 3:
            problem = "fewer than 3 vertices"
        else:
            problem = _convexity_problem(scaled)
        if problem:
            problems.append(f"neuron {neuron}: {problem}")
    return problems


def _halfplanes(q: int, points: tuple) -> list:
    """Primitive (a, b, c) per edge of a polygon in integer form: a point
    (x, y) of the plane lies strictly left of the edge iff a*x + b*y > c.

    An edge (a, b, c) of the scaled vertices bounds a*q*x + b*q*y > c.
    """
    out = []
    for a, b, c in _edges(points):
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


def _patterns_on_line(ends: list) -> set:
    """Membership words along a line cut by the open intervals (bit, lo,
    hi): the word on each end and in each gap between ends, and 0 past
    them all.  A word has the bit of each interval its points lie in."""
    opens: Dict[int, int] = {}
    closes: Dict[int, int] = {}
    for bit, lo, hi in ends:
        opens[lo] = opens.get(lo, 0) | bit
        closes[hi] = closes.get(hi, 0) | bit
    word, words = 0, {0}
    for t in sorted(opens.keys() | closes.keys()):
        word &= ~closes.get(t, 0)  # t itself lies in no interval ending at t
        words.add(word)
        word |= opens.get(t, 0)  # just right of t, those starting at t hold
        words.add(word)
    return words


def _patterns_1d(forms: List[tuple]) -> set:
    """Membership words (bit i set: inside interval i) of the intervals
    given in integer form (q, ends × q)."""
    d = lcm(*(q for q, _ends in forms))
    return _patterns_on_line(
        [(1 << i, lo * (d // q), hi * (d // q)) for i, (q, (lo, hi)) in enumerate(forms)]
    )


def _patterns_2d(forms: List[tuple]) -> set:
    """Membership words (bit i set: inside polygon i) over all faces of the
    edge-line arrangement of the polygons given in integer form.

    The columns are the abscissas of the pairwise crossings of the edge
    lines (a vertical edge holds two vertices, so its line is among them),
    each gap's midpoint and a point past either end.  In the column
    x = px/qx, a line a*x + b*y = c with b != 0 crosses at
    (c*qx - a*px)/(b*qx), an integer numerator over big*qx, big the lcm
    of those |b|.  A polygon meets the column strictly between its least
    and greatest vertex abscissa, in the interval above its lower edges
    (b > 0) and below its upper edges (b < 0).
    """
    halfplanes = [_halfplanes(q, points) for q, points in forms]
    lines = _edge_lines(halfplanes)
    big = lcm(*(b for _a, b, _c in lines if b))
    polygons = [
        (q, min(x for x, _y in points), max(x for x, _y in points),
         [(a, c, big // b) for a, b, c in hp if b > 0],
         [(a, c, big // b) for a, b, c in hp if b < 0])
        for (q, points), hp in zip(forms, halfplanes)
    ]

    crossings = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            crossings.add(Fraction(c1 * b2 - c2 * b1, det))
    xs = sorted(crossings)
    columns = [xs[0] - 1, xs[-1], xs[-1] + 1]
    for x0, x1 in zip(xs, xs[1:]):
        columns += [x0, (x0 + x1) / 2]

    words = set()
    for x in columns:
        px, qx = x.numerator, x.denominator
        ends = []
        for i, (q, left, right, lower, upper) in enumerate(polygons):
            if left * qx < px * q < right * qx:
                lo = max((c * qx - a * px) * k for a, c, k in lower)
                hi = min((c * qx - a * px) * k for a, c, k in upper)
                ends.append((1 << i, lo, hi))
        words |= _patterns_on_line(ends)
    return words


# Membership patterns depend only on the distinct regions, so they are
# memoized by the regions' integer forms; neurons sharing a region are
# reattached afterwards.  The bound keeps a long-running process from
# growing without limit while holding the few dozen arrangements a batch
# of realizations typically revisits.
_PATTERN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _patterns(dimension: int, forms: tuple) -> frozenset:
    """Membership patterns, as sets of indices into forms, of the distinct
    regions given in integer form."""
    words = (_patterns_1d if dimension == 1 else _patterns_2d)(forms)
    return frozenset(frozenset(i for i in range(len(forms)) if word >> i & 1) for word in words)


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
    if not r.regions:
        return NeuralCode({frozenset()})

    groups: Dict[tuple, list] = {}
    for neuron, region in r.regions.items():
        groups.setdefault(region.integer_form, []).append(neuron)
    forms = sorted(groups)

    words = {frozenset()}
    for pattern in _patterns(r.dimension, tuple(forms)):
        word = set()
        for idx in pattern:
            word.update(groups[forms[idx]])
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
    problems = validate(r)
    if problems:
        return (False, VerifyDiff((), (), tuple(problems)))
    generated = _code_of_valid(r)
    missing = tuple(sort_words(target.codewords - generated.codewords))
    extra = tuple(sort_words(generated.codewords - target.codewords))
    diff = VerifyDiff(missing, extra, ())
    return (diff.is_empty(), diff)
