"""Exact computational geometry for realizations.

Everything is rational (fractions.Fraction); there is no floating point
and no epsilon anywhere.  Codeword membership is a strict open-set
predicate, so an approximate point on a boundary would corrupt the
generated code; exact arithmetic makes the boundary cases exact instead.

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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Tuple, Union

from ..codes import NeuralCode


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __contains__(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def to_json(self) -> list:
        return [format_rational(self.lo), format_rational(self.hi)]


@dataclass(frozen=True)
class Polygon:
    """Open convex polygon, vertices in counterclockwise order."""

    vertices: tuple  # ((x, y) Fraction pairs)

    def __init__(self, vertices: Iterable[Tuple]):
        vs = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        object.__setattr__(self, "vertices", vs)

    def __contains__(self, p: Tuple[Fraction, Fraction]) -> bool:
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            ax, ay = vs[i]
            bx, by = vs[(i + 1) % n]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                return False
        return True

    def to_json(self) -> list:
        return [[format_rational(x), format_rational(y)] for x, y in self.vertices]


Region = Union[Interval, Polygon]


@dataclass(frozen=True)
class Realization:
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


def realization_from_json(doc: dict) -> Realization:
    """Read a realization document; ValueError on malformed content.

    Malformed: a zero denominator, a non-finite number, a neuron below 1,
    or a neuron or dimension that is not a JSON integer (floats, strings
    and booleans are refused, not truncated or converted).
    """
    regions: Dict[int, Region] = {}
    try:
        for row in doc["regions"]:
            neuron = _json_int(row["neuron"], "neuron index")
            if neuron < 1:
                raise ValueError(f"neuron index must be a positive integer, got {neuron}")
            if "interval" in row:
                lo, hi = row["interval"]
                regions[neuron] = Interval(parse_rational(lo), parse_rational(hi))
            else:
                regions[neuron] = Polygon(
                    (parse_rational(x), parse_rational(y)) for x, y in row["polygon"]
                )
        dimension = _json_int(doc["dimension"], "dimension")
    except (ZeroDivisionError, OverflowError) as err:
        raise ValueError(f"malformed number: {err}") from err
    return Realization(dimension=dimension, regions=regions)


def _dedup_vertices(vs: tuple) -> tuple:
    out = []
    for v in vs:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


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
            elif not region.lo < region.hi:
                problems.append(f"neuron {neuron}: empty interval")
            continue
        if not isinstance(region, Polygon):
            problems.append(f"neuron {neuron}: region type does not match dimension")
            continue
        vs = _dedup_vertices(region.vertices)
        if len(vs) < 3:
            problems.append(f"neuron {neuron}: fewer than 3 vertices")
            continue
        crosses = []
        n = len(vs)
        for i in range(n):
            ax, ay = vs[i]
            bx, by = vs[(i + 1) % n]
            cx, cy = vs[(i + 2) % n]
            crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
        if all(c < 0 for c in crosses):
            problems.append(f"neuron {neuron}: orientation (vertices are clockwise)")
        elif not all(c > 0 for c in crosses):
            problems.append(f"neuron {neuron}: not strictly convex")
    return problems


def _refine(values: list) -> list:
    """Sorted values plus midpoints of consecutive pairs and outer points."""
    if not values:
        return [Fraction(0)]
    vs = sorted(set(values))
    out = [vs[0] - 1]
    for a, b in zip(vs, vs[1:]):
        out.append(a)
        out.append((a + b) / 2)
    out.append(vs[-1])
    out.append(vs[-1] + 1)
    return out


def _edge_lines(polygons: Iterable[Polygon]) -> list:
    """Primitive integer triples (a, b, c) with ax + by = c, deduplicated."""
    lines = set()
    for poly in polygons:
        vs = _dedup_vertices(poly.vertices)
        n = len(vs)
        for i in range(n):
            (px, py), (qx, qy) = vs[i], vs[(i + 1) % n]
            a = -(qy - py)
            b = qx - px
            c = a * px + b * py
            scale = a.denominator * b.denominator * c.denominator
            ai = int(a * scale)
            bi = int(b * scale)
            ci = int(c * scale)
            g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
            if g:
                ai, bi, ci = ai // g, bi // g, ci // g
            if ai < 0 or (ai == 0 and bi < 0):
                ai, bi, ci = -ai, -bi, -ci
            lines.add((ai, bi, ci))
    return sorted(lines)


def _region_signature(region: Region) -> tuple:
    if isinstance(region, Interval):
        return ("I", region.lo, region.hi)
    return ("P", region.vertices)


def _patterns_1d(intervals: List[Interval]) -> frozenset:
    endpoints = []
    for iv in intervals:
        endpoints.extend((iv.lo, iv.hi))
    patterns = set()
    for x in _refine(endpoints):
        patterns.add(frozenset(i for i, iv in enumerate(intervals) if x in iv))
    return frozenset(patterns)


def _patterns_2d(polygons: List[Polygon]) -> frozenset:
    """Membership patterns over all faces of the edge-line arrangement.

    Sampling and membership run on integers: polygon vertices are scaled
    by the common denominator, and a sample x = px/q, y = py/q lies
    strictly inside a scaled polygon iff every edge cross product
    (Bx-Ax)(py*s - Ay*q) - (By-Ay)(px*s - Ax*q) is positive.
    """
    lines = _edge_lines(polygons)
    scale = 1
    for poly in polygons:
        for x, y in poly.vertices:
            scale = scale * x.denominator // gcd(scale, x.denominator)
            scale = scale * y.denominator // gcd(scale, y.denominator)
    scaled = [
        [(int(x * scale), int(y * scale)) for x, y in _dedup_vertices(poly.vertices)]
        for poly in polygons
    ]

    xs = []
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            xs.append(Fraction(c1 * b2 - c2 * b1, det))
    xs.extend(Fraction(c, a) for a, b, c in lines if b == 0)

    patterns = set()
    for x0 in _refine(xs):
        px, qx = x0.numerator, x0.denominator
        ys = [Fraction(c * qx - a * px, b * qx) for a, b, c in lines if b != 0]
        for y0 in _refine(ys):
            py, qy = y0.numerator, y0.denominator
            # common denominator q, numerators nx, ny: x0 = nx/q, y0 = ny/q
            q = qx * qy // gcd(qx, qy)
            nx = px * (q // qx)
            ny = py * (q // qy)
            nxs = nx * scale
            nys = ny * scale
            pattern = set()
            for idx, vs in enumerate(scaled):
                n = len(vs)
                for i in range(n):
                    ax, ay = vs[i]
                    bx, by = vs[(i + 1) % n]
                    if (bx - ax) * (nys - ay * q) - (by - ay) * (nxs - ax * q) <= 0:
                        break
                else:
                    pattern.add(idx)
            patterns.add(frozenset(pattern))
    return frozenset(patterns)


# Membership patterns depend only on the distinct regions, so they are
# memoized by region signatures; neurons sharing a region are reattached
# afterwards.  The bound keeps a long-running process from growing without
# limit while holding the few dozen arrangements a batch of realizations
# typically revisits.
_PATTERN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _patterns(dimension: int, signatures: tuple) -> frozenset:
    """Membership patterns of the distinct regions named by signatures."""
    if dimension == 1:
        return _patterns_1d([Interval(lo, hi) for _tag, lo, hi in signatures])
    return _patterns_2d([Polygon(vs) for _tag, vs in signatures])


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


@dataclass(frozen=True)
class VerifyDiff:
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
