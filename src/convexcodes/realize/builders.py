"""Constructive convex realizations for the covered code families.

Each family instantiates a fixed integer-coordinate layout:

- PoFChain1D: five open intervals in a row for a minimal 3-facet code
  whose facets satisfy Path-of-Facets.
- L18Case1/3: a seven-interval row when the pendant facet attaches to an
  end of the triangle chain; L18Case2: a T shape when it attaches to the
  middle.
- L21CaseB1/B2/B3: a tent (pendant meets both chain ends) or a house
  (pendant meets the middle and one end), keyed by the Path-of-Facets
  middle of the triangle.
- L22Case2a/2b/3a/3b/4: the four constructive cases for two filled nerve
  triangles sharing an edge, keyed by which triple intersections are
  codewords.
- DisconnectedGlue: side-by-side translates of recursively built pieces.

Every region is a single interval or convex polygon per neuron: a
neuron's region is looked up by its membership pattern across the four
facets, and each case's pattern table was derived so that the union of
atoms a pattern must cover is itself convex.  Codes outside these
families (including codes convex only via max-intersection completeness
and codes strictly containing their minimal code) get None: no artifact
is emitted that cannot be verified.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..codes import Codeword, NeuralCode, word_sort_key
from ..decider import Verdict, _decide
from ..topology import CodeStructure, path_of_facets
from ..wheels import DEFAULT_BUDGET, _check_budget
from .geometry import Interval, Polygon, Realization

# not called here: kept importable because the benchmark tracer patches these names
from ..decider import decide
from ..topology import classify_small_complex, minimal_code, nerve


def _box(x0, y0, x1, y1) -> list:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _chain(cells: List[Codeword]) -> Realization:
    """One open unit interval per cell; each neuron spans its cells."""
    regions: Dict[int, Interval] = {}
    support = set().union(*cells)
    for neuron in support:
        idxs = [i for i, cell in enumerate(cells) if neuron in cell]
        if idxs[-1] - idxs[0] + 1 != len(idxs):
            raise AssertionError(f"chain cells for neuron {neuron} are not contiguous")
        regions[neuron] = Interval(Fraction(idxs[0]), Fraction(idxs[-1] + 1))
    return Realization(dimension=1, regions=regions)


def _from_patterns(roles: Dict[str, Codeword], table: Dict[frozenset, list]) -> Realization:
    """Assign each neuron the polygon of its facet-membership pattern."""
    regions: Dict[int, Polygon] = {}
    support = set().union(*roles.values())
    for neuron in support:
        pattern = frozenset(role for role, facet in roles.items() if neuron in facet)
        if pattern not in table:
            raise AssertionError(
                f"neuron {neuron} has facet pattern {sorted(pattern)}, "
                "impossible in this case"
            )
        regions[neuron] = Polygon(table[pattern])
    return Realization(dimension=2, regions=regions)


def build_realization(
    code: NeuralCode, budget: int = DEFAULT_BUDGET
) -> Optional[Tuple[Realization, str]]:
    """Build a verified-by-construction realization, or None if not covered.

    Raises ValueError on a negative budget, when the code is not decided
    CONVEX, or when the declared neuron count exceeds the largest index
    actually used (an unused neuron would need an empty region).
    """
    _check_budget(budget)
    s = CodeStructure(code)
    verdict, _ = _decide(s, [budget])
    if verdict is not Verdict.CONVEX:
        raise ValueError(f"realization requires a CONVEX code, verdict is {verdict.value}")
    support = code.support()
    if code.n > (max(support) if support else 0):
        raise ValueError(
            "declared neuron count exceeds the largest used index; "
            "an unused neuron cannot receive a nonempty region"
        )
    return _build(s)


def _build(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    """Realization of a code already decided CONVEX, every declared neuron used."""
    if len(s.components) > 1:
        return _glue(s.components)
    return _build_connected(s)


def _build_connected(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    facets = s.facets
    m = len(facets)
    if not 1 <= m <= 4 or not s.is_minimal:
        return None
    if m == 1:
        return (_chain([facets[0]]), "PoFChain1D")
    if m == 2:
        # two overlapping facets
        f1, f2 = facets
        return (_chain([f1, f1 & f2, f2]), "PoFChain1D")
    if m == 3:
        pof = path_of_facets(*facets)
        if pof is None:
            return None
        fa, fb, fc = facets[pof.a - 1], facets[pof.b - 1], facets[pof.c - 1]
        return (_chain([fa, fa & fb, fb, fb & fc, fc]), "PoFChain1D")
    class_id = s.classified.class_id
    if class_id == "L18":
        return _build_l18(s.by_ref)
    if class_id == "L21":
        return _build_l21(s.by_ref)
    if class_id == "L22":
        return _build_l22(s.code, s.by_ref)
    return None


# --- L18: filled triangle (refs 1,2,3) plus pendant edge {2,4} ---

def _build_l18(by_ref) -> Optional[Tuple[Realization, str]]:
    triangle = (by_ref[1], by_ref[2], by_ref[3])
    attach, f4 = by_ref[2], by_ref[4]
    pof = path_of_facets(*triangle)
    if pof is None:
        return None  # triple intersection is mandatory; code is only
        # max-intersection complete, no figure covers it
    fa, fb, fc = triangle[pof.a - 1], triangle[pof.b - 1], triangle[pof.c - 1]
    if attach == fa:
        return (_chain([f4, f4 & fa, fa, fa & fb, fb, fb & fc, fc]), "L18Case1")
    if attach == fc:
        return (_chain([f4, f4 & fc, fc, fc & fb, fb, fb & fa, fa]), "L18Case3")
    # pendant on the chain middle: T shape, pendant hangs below
    roles = {"a": fa, "b": fb, "c": fc, "p": f4}
    table = {
        frozenset("a"): _box(0, 0, 1, 1),
        frozenset("ab"): _box(0, 0, 4, 1),
        frozenset("abc"): _box(0, 0, 7, 1),
        frozenset("b"): _box(3, 0, 4, 1),
        frozenset("bc"): _box(3, 0, 7, 1),
        frozenset("c"): _box(6, 0, 7, 1),
        # the pendant-only region sits strictly inside the lower reach of
        # the attachment overlap, so their open intersection is the F4 cell
        frozenset("bp"): _box(3, -2, 4, 1),
        frozenset("p"): _box(3, -2, 4, -1),
    }
    return (_from_patterns(roles, table), "L18Case2")


# --- L21: filled triangle (refs 1,2,3), pendant vertex 4 joined to 2 and 3 ---

_L21_HOUSE = {
    frozenset("p"): [(-2, 0), (0, 1), (-2, 1)],
    frozenset("pq"): [(-2, 0), (0, 0), (2, 1), (-2, 1)],
    frozenset("pqr"): [(-2, 0), (4, 0), (4, 1), (-2, 1)],
    frozenset("q"): [(0, 0), (2, 1), (0, 1)],
    frozenset("qr"): [(0, 0), (4, 0), (4, 1), (0, 1)],
    frozenset("r"): [(4, 0), (4, 1), (2, 1)],
    frozenset("qw"): [(0, 0), (4, 2), (0, 2)],
    frozenset("rw"): [(4, 0), (4, 2), (0, 2)],
    frozenset("w"): [(2, 1), (4, 2), (0, 2)],
}

_L21_TENT = {
    frozenset("q"): [(0, 0), (4, 0), (12, 4), (4, 4)],
    frozenset("mq"): [(0, 0), (16, 0), (16, 4), (4, 4)],
    frozenset("mqr"): [(0, 0), (28, 0), (24, 4), (4, 4)],
    frozenset("m"): [(12, 0), (16, 0), (16, 4), (12, 4)],
    frozenset("mr"): [(12, 0), (28, 0), (24, 4), (12, 4)],
    frozenset("r"): [(24, 0), (28, 0), (24, 4), (16, 4)],
    frozenset("qw"): [(0, 0), (4, 0), (20, 8), (8, 8)],
    frozenset("rw"): [(24, 0), (28, 0), (20, 8), (8, 8)],
    frozenset("w"): [(14, 5), (20, 8), (8, 8)],
}


def _build_l21(by_ref) -> Optional[Tuple[Realization, str]]:
    g1, g2, g3, f4 = by_ref[1], by_ref[2], by_ref[3], by_ref[4]
    pof = path_of_facets(g1, g2, g3)
    if pof is None:
        return None
    middle = (g1, g2, g3)[pof.b - 1]
    if middle == g1:
        # pendant meets both chain ends: tent over the chain g2|g1|g3
        roles = {"m": g1, "q": g2, "r": g3, "w": f4}
        return (_from_patterns(roles, _L21_TENT), "L21CaseB1")
    # pendant meets the chain middle and the right end: house
    if middle == g2:
        roles = {"p": g1, "q": g2, "r": g3, "w": f4}
        tag = "L21CaseB2"
    else:
        roles = {"p": g1, "q": g3, "r": g2, "w": f4}
        tag = "L21CaseB3"
    return (_from_patterns(roles, _L21_HOUSE), tag)


# --- L22: filled triangles {1,2,3} and {2,3,4} sharing the edge {2,3} ---

_L22_CASE2B = {
    frozenset({1}): _box(0, 0, 2, 2),
    frozenset({1, 3}): _box(0, 0, 8, 2),
    frozenset({1, 2, 3}): [(0, 0), (8, 0), (10, 2), (0, 2)],
    frozenset({3}): _box(6, 0, 8, 2),
    frozenset({2, 3}): [(6, 0), (8, 0), (10, 2), (6, 2)],
    frozenset({2}): [(9, 1), (10, 2), (9, 2)],
    frozenset({2, 3, 4}): [(6, -2), (10, 2), (6, 2)],
    frozenset({3, 4}): [(6, -2), (8, 0), (8, 2), (6, 2)],
    frozenset({4}): [(6, -2), (7, -1), (6, -1)],
}

_L22_CASE3A = {
    frozenset({1}): [(3, 2), (4, 3), (2, 3)],
    frozenset({1, 2}): [(5, 0), (7, 0), (7, 1), (6, 3), (2, 3)],
    frozenset({1, 3}): [(0, 0), (1, 0), (4, 3), (1, 3), (0, 1)],
    frozenset({1, 2, 3}): [(0, 0), (7, 0), (7, 1), (6, 3), (1, 3), (0, 1)],
    frozenset({2}): [(5, 0), (7, 0), (7, 1), (4, 1)],
    frozenset({2, 3}): _box(0, 0, 7, 1),
    frozenset({2, 4}): [(5, 0), (11, 0), (11, 1), (4, 1)],
    frozenset({2, 3, 4}): _box(0, 0, 11, 1),
    frozenset({3}): [(0, 0), (1, 0), (2, 1), (0, 1)],
    frozenset({4}): _box(9, 0, 11, 1),
}

_L22_CASE3B = {
    frozenset({1}): _box(0, -2, 6, -1),
    frozenset({1, 2, 3}): _box(0, -2, 6, 1),
    frozenset({2}): _box(4, 0, 6, 1),
    frozenset({2, 3}): _box(0, 0, 6, 1),
    frozenset({2, 3, 4}): _box(0, 0, 10, 1),
    frozenset({2, 4}): _box(4, 0, 10, 1),
    frozenset({3}): _box(0, 0, 2, 1),
    frozenset({4}): _box(8, 0, 10, 1),
}


def _pof_middle(end: Codeword, shared: list):
    """Path-of-Facets middle of the triangle (end, shared0, shared1)."""
    triple = (end, shared[0], shared[1])
    pof = path_of_facets(*triple)
    if pof is None:
        return None
    return triple[pof.b - 1]


def _build_l22(code: NeuralCode, by_ref) -> Optional[Tuple[Realization, str]]:
    x, y = by_ref[1], by_ref[4]
    shared = [by_ref[2], by_ref[3]]
    tx = x & shared[0] & shared[1]
    ty = y & shared[0] & shared[1]
    tx_in, ty_in = tx in code.codewords, ty in code.codewords
    if tx_in and ty_in:
        return None  # both triples mandatory; only completeness applies
    if not tx_in and not ty_in:
        f1, f4 = sorted((x, y), key=word_sort_key)
        return _l22_case2(f1, f4, shared)
    if tx_in:
        return _l22_case3(x, y, shared, "L22Case3")
    return _l22_case3(y, x, shared, "L22Case4")


def _l22_case2(f1, f4, shared) -> Optional[Tuple[Realization, str]]:
    m1 = _pof_middle(f1, shared)
    m4 = _pof_middle(f4, shared)
    if m1 not in shared or m4 not in shared:
        raise AssertionError("absent triple forces a shared Path-of-Facets middle")
    f3 = m1
    f2 = shared[1] if f3 == shared[0] else shared[0]
    if m4 == f2:
        cells = [f1, f1 & f3, f3, f2 & f3, f2, f2 & f4, f4]
        return (_chain(cells), "L22Case2a")
    roles = {1: f1, 2: f2, 3: f3, 4: f4}
    return (_from_patterns(roles, _L22_CASE2B), "L22Case2b")


def _l22_case3(f1, f4, shared, base_tag) -> Optional[Tuple[Realization, str]]:
    m4 = _pof_middle(f4, shared)
    if m4 not in shared:
        raise AssertionError("absent triple forces a shared Path-of-Facets middle")
    f2 = m4
    f3 = shared[1] if f2 == shared[0] else shared[0]
    d12 = (f1 & f2) - f3
    d13 = (f1 & f3) - f2
    if d12 and d13:
        table, sub = _L22_CASE3A, "a"
    elif not d12 and not d13:
        table, sub = _L22_CASE3B, "b"
    else:
        raise AssertionError("present triple excludes a one-sided collapse")
    roles = {1: f1, 2: f2, 3: f3, 4: f4}
    tag = base_tag + sub if base_tag == "L22Case3" else base_tag
    return (_from_patterns(roles, table), tag)


# --- disconnected nerves: build pieces, translate into disjoint boxes ---

def _shift_interval(iv: Interval, dx: Fraction) -> Interval:
    return Interval(iv.lo + dx, iv.hi + dx)

def _shift_polygon(poly: Polygon, dx: Fraction) -> Polygon:
    return Polygon((x + dx, y) for x, y in poly.vertices)


def _glue(components: list) -> Optional[Tuple[Realization, str]]:
    # Each component of a CONVEX code decides CONVEX too: the decomposition
    # branch demands it, and every other CONVEX branch holds per component,
    # whose links and missing faces are those of the whole code.  So the
    # pieces are built without deciding again.
    pieces = []
    for sub in components:
        built = _build(sub)
        if built is None:
            return None
        pieces.append(built)
    dimension = 2 if any(r.dimension == 2 for r, _tag in pieces) else 1
    regions: Dict[int, object] = {}
    offset = Fraction(0)
    for piece, _tag in pieces:
        rs = piece.regions
        if dimension == 2 and piece.dimension == 1:
            rs = {k: Polygon(_box(iv.lo, 0, iv.hi, 1)) for k, iv in rs.items()}
        if dimension == 1:
            lo = min(iv.lo for iv in rs.values())
            hi = max(iv.hi for iv in rs.values())
            dx = offset - lo
            regions.update({k: _shift_interval(iv, dx) for k, iv in rs.items()})
        else:
            lo = min(x for poly in rs.values() for x, _y in poly.vertices)
            hi = max(x for poly in rs.values() for x, _y in poly.vertices)
            dx = offset - lo
            regions.update({k: _shift_polygon(poly, dx) for k, poly in rs.items()})
        offset += (hi - lo) + 1
    tag = "DisconnectedGlue(" + ",".join(tag for _r, tag in pieces) + ")"
    return (Realization(dimension=dimension, regions=regions), tag)
