"""Constructive convex realizations for the covered code families.

Each family instantiates a fixed integer-coordinate layout:

- PoFChain1D: open intervals in a row: none for the empty code {∅}, one
  for a single facet, three for two facets, and five for a minimal
  3-facet code whose facets satisfy Path-of-Facets.
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

A row is a chain: its facets in path order, each owning a cell, with one
cell between neighbours for their meet, so k facets make 2k - 1 cells.
Every other region is a single convex polygon per neuron: a neuron's
region is looked up by its membership pattern across the four facets,
and each case's pattern table was derived so that the union of atoms a
pattern must cover is itself convex.  Codes outside these families
(including codes convex only via max-intersection completeness and codes
strictly containing their minimal code) get None.  Every realization is
verified against its code before it leaves this module.

The builders read the structure's facet masks and run the Path-of-Facets
test on them (_path_of_facets); a mask becomes a neuron only where a
region is assigned to it.  The regions are templates built once, when
the module is imported: every pattern table is a table of Polygons, and
a chain's cells take their Intervals from one table of spans.  Regions
are immutable, so the realizations of different codes share them, and
each template's integer_form is computed once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..codes import NeuralCode, _mask_key
from ..decider import Verdict, _decide
from ..topology import CodeStructure, _path_of_facets
from .geometry import Interval, Polygon, Realization, verify_realization

# not called here: kept importable because the benchmark tracer patches these names
from ..decider import decide
from ..topology import classify_small_complex, minimal_code, nerve


def _box(x0, y0, x1, y1) -> list:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _polygons(table: Dict[frozenset, list]) -> Dict[frozenset, Polygon]:
    return {pattern: Polygon(vertices) for pattern, vertices in table.items()}


# the span of cells lo..hi-1 of a chain of at most seven cells
_SPANS = {(lo, hi): Interval(lo, hi) for hi in range(8) for lo in range(hi)}


def _chain(s: CodeStructure, path: List[int]) -> Realization:
    """One open unit interval per cell of the chain of these facet masks,
    in path order: facet i owns cell 2i and the meet of facets i and i + 1
    cell 2i + 1, so a neuron held by facets i..j spans cells 2i..2j."""
    regions: Dict[int, Interval] = {}
    for k, neuron in enumerate(s.packed.labels):
        held = [i for i, facet in enumerate(path) if facet >> k & 1]
        if held[-1] - held[0] + 1 != len(held):
            raise AssertionError(f"chain cells for neuron {neuron} are not contiguous")
        regions[neuron] = _SPANS[2 * held[0], 2 * held[-1] + 1]
    return Realization(dimension=1, regions=regions)


def _from_patterns(s: CodeStructure, roles: Dict, table: Dict[frozenset, Polygon]) -> Realization:
    """Assign each neuron the polygon of its pattern: the roles whose facet
    masks hold it."""
    regions: Dict[int, Polygon] = {}
    for k, neuron in enumerate(s.packed.labels):
        pattern = frozenset(role for role, facet in roles.items() if facet >> k & 1)
        if pattern not in table:
            raise AssertionError(
                f"neuron {neuron} has facet pattern {sorted(pattern)}, "
                "impossible in this case"
            )
        regions[neuron] = table[pattern]
    return Realization(dimension=2, regions=regions)


def build_realization(code: NeuralCode) -> Optional[Tuple[Realization, str]]:
    """A realization of the code, verified against it, and its construction
    tag; None if no constructive family covers the code.

    No CONVEX verdict rests on the sprocket search, so the code is decided
    with none.  Raises ValueError naming the verdict when it is not CONVEX.
    """
    s = CodeStructure(code)
    verdict, _ = _decide(s, [0])
    if verdict is not Verdict.CONVEX:
        raise ValueError(f"realization requires a CONVEX code, verdict with no sprocket search is {verdict.value}")
    return _build(s)


def _build(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    """Realization of a code already decided CONVEX, verified against the
    code by recomputing the code it generates.

    Raises AssertionError naming the construction when the check fails,
    which is a bug in that construction.
    """
    built = _glue(s.components) if len(s.components) > 1 else _build_connected(s)
    if built is not None:
        realization, tag = built
        if not verify_realization(realization, s.code)[0]:
            raise AssertionError(f"builder produced an invalid realization ({tag}); this is a bug")
    return built


def _build_connected(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    facets = s.facet_masks
    m = len(facets)
    if m > 4 or not s.is_minimal:
        return None
    if m <= 2:
        # the empty code {∅} gets no regions, one facet a single interval,
        # and two overlapping facets are a chain in either order
        return (_chain(s, facets), "PoFChain1D")
    if m == 3:
        path = _path_of_facets(*facets)
        if path is None:
            return None
        return (_chain(s, [facets[p] for p in path]), "PoFChain1D")
    class_id = s.classified.class_id
    if class_id == "L18":
        return _build_l18(s)
    if class_id == "L21":
        return _build_l21(s)
    if class_id == "L22":
        return _build_l22(s)
    return None


# --- L18: filled triangle (refs 1,2,3) plus pendant edge {2,4} ---

_L18_T = _polygons({
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
})


def _build_l18(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    triangle, f4 = [s.by_ref[1], s.by_ref[2], s.by_ref[3]], s.by_ref[4]
    path = _path_of_facets(*triangle)
    if path is None:
        return None  # triple intersection is mandatory; code is only
        # max-intersection complete, no figure covers it
    fa, fb, fc = (triangle[p] for p in path)
    # the pendant attaches to reference vertex 2, position 1 of the triangle
    if path[0] == 1:
        return (_chain(s, [f4, fa, fb, fc]), "L18Case1")
    if path[2] == 1:
        return (_chain(s, [f4, fc, fb, fa]), "L18Case3")
    # pendant on the chain middle: T shape, pendant hangs below
    roles = {"a": fa, "b": fb, "c": fc, "p": f4}
    return (_from_patterns(s, roles, _L18_T), "L18Case2")


# --- L21: filled triangle (refs 1,2,3), pendant vertex 4 joined to 2 and 3 ---

_L21_HOUSE = _polygons({
    frozenset("p"): [(-2, 0), (0, 1), (-2, 1)],
    frozenset("pq"): [(-2, 0), (0, 0), (2, 1), (-2, 1)],
    frozenset("pqr"): [(-2, 0), (4, 0), (4, 1), (-2, 1)],
    frozenset("q"): [(0, 0), (2, 1), (0, 1)],
    frozenset("qr"): [(0, 0), (4, 0), (4, 1), (0, 1)],
    frozenset("r"): [(4, 0), (4, 1), (2, 1)],
    frozenset("qw"): [(0, 0), (4, 2), (0, 2)],
    frozenset("rw"): [(4, 0), (4, 2), (0, 2)],
    frozenset("w"): [(2, 1), (4, 2), (0, 2)],
})

_L21_TENT = _polygons({
    frozenset("q"): [(0, 0), (4, 0), (12, 4), (4, 4)],
    frozenset("mq"): [(0, 0), (16, 0), (16, 4), (4, 4)],
    frozenset("mqr"): [(0, 0), (28, 0), (24, 4), (4, 4)],
    frozenset("m"): [(12, 0), (16, 0), (16, 4), (12, 4)],
    frozenset("mr"): [(12, 0), (28, 0), (24, 4), (12, 4)],
    frozenset("r"): [(24, 0), (28, 0), (24, 4), (16, 4)],
    frozenset("qw"): [(0, 0), (4, 0), (20, 8), (8, 8)],
    frozenset("rw"): [(24, 0), (28, 0), (20, 8), (8, 8)],
    frozenset("w"): [(14, 5), (20, 8), (8, 8)],
})


def _build_l21(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    g1, g2, g3, f4 = s.by_ref[1], s.by_ref[2], s.by_ref[3], s.by_ref[4]
    path = _path_of_facets(g1, g2, g3)
    if path is None:
        return None
    if path[1] == 0:
        # pendant meets both chain ends: tent over the chain g2|g1|g3
        roles = {"m": g1, "q": g2, "r": g3, "w": f4}
        return (_from_patterns(s, roles, _L21_TENT), "L21CaseB1")
    # pendant meets the chain middle and the right end: house
    if path[1] == 1:
        roles = {"p": g1, "q": g2, "r": g3, "w": f4}
        tag = "L21CaseB2"
    else:
        roles = {"p": g1, "q": g3, "r": g2, "w": f4}
        tag = "L21CaseB3"
    return (_from_patterns(s, roles, _L21_HOUSE), tag)


# --- L22: filled triangles {1,2,3} and {2,3,4} sharing the edge {2,3} ---

_L22_CASE2B = _polygons({
    frozenset({1}): _box(0, 0, 2, 2),
    frozenset({1, 3}): _box(0, 0, 8, 2),
    frozenset({1, 2, 3}): [(0, 0), (8, 0), (10, 2), (0, 2)],
    frozenset({3}): _box(6, 0, 8, 2),
    frozenset({2, 3}): [(6, 0), (8, 0), (10, 2), (6, 2)],
    frozenset({2}): [(9, 1), (10, 2), (9, 2)],
    frozenset({2, 3, 4}): [(6, -2), (10, 2), (6, 2)],
    frozenset({3, 4}): [(6, -2), (8, 0), (8, 2), (6, 2)],
    frozenset({4}): [(6, -2), (7, -1), (6, -1)],
})

_L22_CASE3A = _polygons({
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
})

_L22_CASE3B = _polygons({
    frozenset({1}): _box(0, -2, 6, -1),
    frozenset({1, 2, 3}): _box(0, -2, 6, 1),
    frozenset({2}): _box(4, 0, 6, 1),
    frozenset({2, 3}): _box(0, 0, 6, 1),
    frozenset({2, 3, 4}): _box(0, 0, 10, 1),
    frozenset({2, 4}): _box(4, 0, 10, 1),
    frozenset({3}): _box(0, 0, 2, 1),
    frozenset({4}): _box(8, 0, 10, 1),
})


def _shared_middle(end: int, shared: list) -> tuple:
    """The two shared facet masks, the middle one first, of the
    Path-of-Facets path through end and both of them."""
    path = _path_of_facets(end, *shared)
    if path is None or path[1] == 0:
        raise AssertionError("absent triple forces a shared Path-of-Facets middle")
    return shared[path[1] - 1], shared[2 - path[1]]


def _build_l22(s: CodeStructure) -> Optional[Tuple[Realization, str]]:
    x, y = s.by_ref[1], s.by_ref[4]
    shared = [s.by_ref[2], s.by_ref[3]]
    tx_in = (x & shared[0] & shared[1]) in s.packed.masks
    ty_in = (y & shared[0] & shared[1]) in s.packed.masks
    if tx_in and ty_in:
        return None  # both triples mandatory; only completeness applies
    if not tx_in and not ty_in:
        f1, f4 = sorted((x, y), key=_mask_key)
        return _l22_case2(s, f1, f4, shared)
    if tx_in:
        return _l22_case3(s, x, y, shared, "L22Case3")
    return _l22_case3(s, y, x, shared, "L22Case4")


def _l22_case2(s: CodeStructure, f1, f4, shared) -> Optional[Tuple[Realization, str]]:
    f3, f2 = _shared_middle(f1, shared)
    if _shared_middle(f4, shared)[0] == f2:
        return (_chain(s, [f1, f3, f2, f4]), "L22Case2a")
    roles = {1: f1, 2: f2, 3: f3, 4: f4}
    return (_from_patterns(s, roles, _L22_CASE2B), "L22Case2b")


def _l22_case3(s: CodeStructure, f1, f4, shared, base_tag) -> Optional[Tuple[Realization, str]]:
    f2, f3 = _shared_middle(f4, shared)
    d12 = f1 & f2 & ~f3
    d13 = f1 & f3 & ~f2
    if d12 and d13:
        table, sub = _L22_CASE3A, "a"
    elif not d12 and not d13:
        table, sub = _L22_CASE3B, "b"
    else:
        raise AssertionError("present triple excludes a one-sided collapse")
    roles = {1: f1, 2: f2, 3: f3, 4: f4}
    tag = base_tag + sub if base_tag == "L22Case3" else base_tag
    return (_from_patterns(s, roles, table), tag)


# --- disconnected nerves: build pieces, translate into disjoint boxes ---

def _glue(components: list) -> Optional[Tuple[Realization, str]]:
    # Each component of a CONVEX code decides CONVEX too: the decomposition
    # branch demands it, and every other CONVEX branch holds per component,
    # whose links and missing faces are those of the whole code.  So the
    # pieces are built without deciding again.  Every component is
    # connected, and the glued whole is verified once.
    pieces = []
    for sub in components:
        built = _build_connected(sub)
        if built is None:
            return None
        pieces.append(built)
    dimension = 2 if any(r.dimension == 2 for r, _tag in pieces) else 1
    regions: Dict[int, object] = {}
    offset = 0
    for piece, _tag in pieces:
        rs = piece.regions
        if dimension == 1:
            lo = min(iv.lo for iv in rs.values())
            hi = max(iv.hi for iv in rs.values())
            dx = offset - lo
            regions.update({k: Interval(iv.lo + dx, iv.hi + dx) for k, iv in rs.items()})
        else:
            # a piece on the line becomes boxes over the unit strip
            polygons: Dict[int, Polygon] = rs if piece.dimension == 2 else {
                k: Polygon(_box(iv.lo, 0, iv.hi, 1)) for k, iv in rs.items()
            }
            lo = min(x for poly in polygons.values() for x, _y in poly.vertices)
            hi = max(x for poly in polygons.values() for x, _y in poly.vertices)
            dx = offset - lo
            regions.update({k: Polygon((x + dx, y) for x, y in poly.vertices) for k, poly in polygons.items()})
        offset += (hi - lo) + 1
    tag = "DisconnectedGlue(" + ",".join(tag for _r, tag in pieces) + ")"
    return (Realization(dimension=dimension, regions=regions), tag)
