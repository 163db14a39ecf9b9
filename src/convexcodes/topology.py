"""Simplicial topology for small complexes.

Links, nerves, the 28-class catalog of complexes on up to four vertices,
contractibility by elementary-collapse search, mandatory faces, minimal
codes, local obstructions, and the Path-of-Facets test.

Classification on at most four vertices is one dictionary lookup: at import
every relabeling of every reference class is expanded into a table of all
126 labeled complexes on 1..k vertices, each entry holding its class, the
lexicographically least witness relabeling and the contractibility bit.

Contractibility of a complex on at most four vertices is exact: the class
catalog is closed under vertex permutation, and per class the collapse
oracle is cross-checked against the necessary condition (connected and
Euler characteristic 1), which is also sufficient at this size because the
only non-contractible homotopy types reachable on four vertices fail one of
the two.  Larger complexes fall back to collapse search plus the necessary
checks and may report INDETERMINATE.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Optional

from .codes import (
    EMPTY,
    Codeword,
    NeuralCode,
    max_intersection_faces,
    maximal_codewords,
    sort_words,
    word_sort_key,
)


class _IndeterminateType:
    """Singleton result for undecidable contractibility queries."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INDETERMINATE"

    def __bool__(self):
        raise TypeError("INDETERMINATE is neither true nor false; compare with 'is'")


INDETERMINATE = _IndeterminateType()


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets (an antichain of nonempty vertex sets)."""

    facets: tuple

    def __init__(self, faces: Iterable[Iterable[int]]):
        fl = [frozenset(f) for f in faces]
        if any(not f for f in fl):
            raise ValueError("faces must be nonempty")
        maximal = [f for f in fl if not any(f < g for g in fl)]
        dedup = sort_words(set(maximal))
        object.__setattr__(self, "facets", tuple(dedup))

    @property
    def vertices(self) -> frozenset:
        out = set()
        for f in self.facets:
            out |= f
        return frozenset(out)

    def all_faces(self) -> frozenset:
        """Every nonempty face."""
        out = set()
        for f in self.facets:
            for r in range(1, len(f) + 1):
                out.update(frozenset(c) for c in itertools.combinations(sorted(f), r))
        return frozenset(out)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(f) - 1) for f in self.all_faces())

    def components(self) -> list:
        """Vertex sets of connected components (via the 1-skeleton)."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self.facets:
            vs = sorted(f)
            for a in vs[1:]:
                ra, rb = find(vs[0]), find(a)
                if ra != rb:
                    parent[ra] = rb
        groups: Dict[int, set] = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        return sorted((frozenset(g) for g in groups.values()), key=word_sort_key)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


def nerve(sets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Nerve of a list of nonempty sets, on vertex labels 1..m.

    A subset S of positions is a face iff the sets indexed by S have a
    common element.  Returned by its facets.
    """
    sl = [frozenset(s) for s in sets]
    if any(not s for s in sl):
        raise ValueError("nerve input sets must be nonempty")
    m = len(sl)
    faces = {}
    for i in range(1, m + 1):
        faces[frozenset([i])] = sl[i - 1]
    frontier = dict(faces)
    while frontier:
        nxt = {}
        for face, inter in frontier.items():
            for j in range(max(face) + 1, m + 1):
                bigger = inter & sl[j - 1]
                if bigger:
                    key = face | {j}
                    if key not in faces:
                        faces[key] = bigger
                        nxt[key] = bigger
        frontier = nxt
    return SimplicialComplex(faces.keys())


# Reference complexes on up to four vertices, one per isomorphism class.
# Keyed L1..L28; facet lists over vertex labels 1..k.
_REF = {
    "L1": [{1}],
    "L2": [{1}, {2}],
    "L3": [{1, 2}],
    "L4": [{1}, {2}, {3}],
    "L5": [{1, 2}, {3}],
    "L6": [{1, 2}, {1, 3}],
    "L7": [{1, 2}, {1, 3}, {2, 3}],
    "L8": [{1, 2, 3}],
    "L9": [{1}, {2}, {3}, {4}],
    "L10": [{1, 2}, {3}, {4}],
    "L11": [{1, 2}, {1, 3}, {4}],
    "L12": [{1, 2}, {3, 4}],
    "L13": [{1, 2}, {1, 3}, {3, 4}],
    "L14": [{1, 2}, {1, 3}, {1, 4}],
    "L15": [{1, 2}, {1, 3}, {2, 3}, {4}],
    "L16": [{1, 2, 3}, {4}],
    "L17": [{1, 2}, {1, 3}, {2, 3}, {2, 4}],
    "L18": [{1, 2, 3}, {2, 4}],
    "L19": [{1, 2}, {1, 3}, {2, 4}, {3, 4}],
    "L20": [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {3, 4}],
    "L21": [{1, 2, 3}, {2, 4}, {3, 4}],
    "L22": [{1, 2, 3}, {2, 3, 4}],
    "L23": [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}],
    "L24": [{1, 2, 3}, {1, 4}, {2, 4}, {3, 4}],
    "L25": [{1, 2, 3}, {1, 3, 4}, {2, 4}],
    "L26": [{1, 2, 3}, {1, 3, 4}, {2, 3, 4}],
    "L27": [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}],
    "L28": [{1, 2, 3, 4}],
}

REFERENCE_COMPLEXES = {name: SimplicialComplex(f) for name, f in _REF.items()}

_CLASSES_BY_SIZE = {
    1: ("L1",),
    2: ("L2", "L3"),
    3: tuple(f"L{i}" for i in range(4, 9)),
    4: tuple(f"L{i}" for i in range(9, 29)),
}


def is_collapsible(faces: Iterable[Codeword], budget: int = 200_000) -> Optional[bool]:
    """Whether the complex collapses to a point by elementary collapses.

    Backtracking over all collapse orders with memoization; None when the
    state budget runs out (possible only for larger inputs, never for
    complexes on at most four vertices).
    """
    start = frozenset(frozenset(f) for f in faces)
    if not start:
        return False
    memo: Dict[frozenset, bool] = {}
    remaining = [budget]

    def rec(state: frozenset) -> Optional[bool]:
        if len(state) == 1:
            (only,) = state
            return len(only) == 1
        cached = memo.get(state)
        if cached is not None:
            return cached
        if remaining[0] <= 0:
            return None
        remaining[0] -= 1
        result = False
        for sigma in state:
            supers = [t for t in state if sigma < t]
            if len(supers) == 1:
                sub = rec(state - {sigma, supers[0]})
                if sub is None:
                    return None
                if sub:
                    result = True
                    break
        memo[state] = result
        return result

    return rec(start)


@dataclass(frozen=True)
class ClassifiedNerve:
    """Classification of a complex on <= 4 vertices.

    relabeling maps each input vertex to its reference label; applying it
    to the input facets yields the reference complex of class_id exactly.
    """

    class_id: str
    relabeling: tuple  # ((input vertex, reference label), ...) sorted by input vertex
    contractible: bool

    def relabeling_dict(self) -> dict:
        return dict(self.relabeling)


def _build_class_table() -> Dict[frozenset, tuple]:
    """Every labeled complex on vertices 1..k (k <= 4), keyed by facet bitmasks.

    Bit i-1 of a mask stands for vertex i.  Each value is (class_id, images,
    contractible), where images[i] is the reference label of vertex i+1.
    Classes are walked in _CLASSES_BY_SIZE order and permutations in lex
    order, and setdefault keeps the first hit, so every entry holds the
    lexicographically least witness.

    Contractibility per class comes from the collapse oracle, cross-checked
    against the necessary condition (connected, Euler characteristic 1); any
    disagreement means the oracle pipeline is broken and raises instead of
    guessing.
    """
    table: Dict[frozenset, tuple] = {}
    for k, class_ids in _CLASSES_BY_SIZE.items():
        for class_id in class_ids:
            sc = REFERENCE_COMPLEXES[class_id]
            coll = is_collapsible(sc.all_faces())
            necessary = sc.is_connected() and sc.euler_characteristic() == 1
            if coll is None or coll != necessary:
                raise AssertionError(
                    f"contractibility oracle disagreement on {class_id}: "
                    f"collapsible={coll}, connected+chi1={necessary}"
                )
            for images in itertools.permutations(range(1, k + 1)):
                # the input vertex that images sends onto reference label r
                bit = {r: 1 << v for v, r in enumerate(images)}
                key = frozenset(sum(bit[r] for r in f) for f in sc.facets)
                table.setdefault(key, (class_id, images, coll))
    return table


_CLASS_TABLE = _build_class_table()


def classify_small_complex(sc: SimplicialComplex) -> ClassifiedNerve:
    """Identify the L1..L28 class of a complex on 1..4 vertices.

    A lookup in a table of all labeled complexes on 1..4 vertices, built once
    at import: the sorted input vertices are relabeled 1..k and the facet set
    is the key.  The witness relabeling is the lexicographically least valid
    one (as the tuple of reference labels assigned to the sorted input
    vertices).
    """
    verts = sorted(sc.vertices)
    k = len(verts)
    if not 1 <= k <= 4:
        raise ValueError(f"classification requires 1..4 vertices, got {k}")
    bit = {v: 1 << i for i, v in enumerate(verts)}
    key = frozenset(sum(bit[v] for v in f) for f in sc.facets)
    hit = _CLASS_TABLE.get(key)
    if hit is None:
        raise AssertionError("complex matched no reference class; catalog is broken")
    class_id, images, contractible = hit
    return ClassifiedNerve(class_id, tuple(zip(verts, images)), contractible)


def is_contractible_small(sc: SimplicialComplex) -> bool:
    """Exact contractibility for complexes on at most four vertices.

    Read from the same import-time table as classify_small_complex.
    """
    return classify_small_complex(sc).contractible


def link_facet_sets(facets: Iterable[Codeword], sigma: Iterable[int]) -> list:
    """The facet-difference sets {F - sigma : sigma <= F}, deduplicated.

    Order-stable by facet position.  Feeding the result to nerve() gives a
    complex homotopy-equivalent to the link of sigma.
    """
    s = frozenset(sigma)
    out = []
    seen = set()
    hit = False
    for f in facets:
        f = frozenset(f)
        if s <= f:
            hit = True
            diff = f - s
            if diff not in seen:
                seen.add(diff)
                out.append(diff)
    if not hit:
        raise ValueError(f"{sorted(s)} is not a face of the complex")
    return out


def is_link_contractible(facets: Iterable[Codeword], sigma: Iterable[int]):
    """True/False for contractibility of the link of sigma, else INDETERMINATE.

    Exact for links whose facet-difference nerve has at most four vertices.
    The link of a facet itself has empty geometric realization and counts as
    non-contractible, which is what makes facets mandatory.
    """
    s = frozenset(sigma)
    if not s:
        raise ValueError("sigma must be a nonempty face")
    diffs = link_facet_sets(facets, s)
    if diffs == [EMPTY]:
        return False
    link_nerve = nerve(diffs)
    if len(link_nerve.vertices) <= 4:
        return is_contractible_small(link_nerve)
    if not link_nerve.is_connected() or link_nerve.euler_characteristic() != 1:
        return False
    coll = is_collapsible(link_nerve.all_faces())
    if coll:
        return True
    # non-collapsible or budget exhausted: cannot conclude at this size
    return INDETERMINATE


class MandatoryFaces(frozenset):
    """Set of mandatory faces, plus any candidates left undecided.

    Behaves as a plain frozenset of the decided mandatory faces; undecided
    is empty whenever the complex has at most four facets.
    """

    undecided: frozenset

    def __new__(cls, faces, undecided=frozenset()):
        self = super().__new__(cls, faces)
        self.undecided = frozenset(undecided)
        return self


@dataclass(frozen=True, eq=False)
class CodeStructure:
    """The facts the pipeline reads about one code, each derived once.

    Built at the top of each public entry point and passed down for that
    call only; it is never stored on the code or in a module-level cache.
    Every field is computed on first read, so an early exit pays only for
    what it read.  Link contractibility is memoized per face and shared by
    the obstruction scan and the mandatory faces.
    """

    code: NeuralCode
    _links: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def facets(self) -> list:
        return maximal_codewords(self.code)

    @cached_property
    def max_intersections(self) -> list:
        return sort_words(max_intersection_faces(self.facets))

    @cached_property
    def missing(self) -> list:
        """Max-intersection faces that are not codewords, in canonical order."""
        return [f for f in self.max_intersections if f not in self.code.codewords]

    @cached_property
    def nerve_complex(self) -> SimplicialComplex:
        return nerve(self.facets)

    @cached_property
    def classified(self) -> Optional[ClassifiedNerve]:
        """The nerve's class for one to four facets, else None."""
        if not 1 <= len(self.facets) <= 4:
            return None
        return classify_small_complex(self.nerve_complex)

    @cached_property
    def by_ref(self) -> dict:
        """Reference vertex label -> facet, for a classified nerve."""
        return {ref: self.facets[pos - 1] for pos, ref in self.classified.relabeling}

    def link_contractible(self, face: Codeword):
        if face not in self._links:
            self._links[face] = is_link_contractible(self.facets, face)
        return self._links[face]

    @cached_property
    def mandatory(self) -> MandatoryFaces:
        """Facets plus every max-intersection face with non-contractible link."""
        out, undecided = set(self.facets), set()
        for face in self.max_intersections:
            res = self.link_contractible(face)
            if res is INDETERMINATE:
                undecided.add(face)
            elif not res:
                out.add(face)
        return MandatoryFaces(out, undecided)

    @cached_property
    def obstruction(self):
        """See has_local_obstruction."""
        saw_undecided = False
        for face in self.missing:
            res = self.link_contractible(face)
            if res is INDETERMINATE:
                saw_undecided = True
            elif not res:
                return face
        return INDETERMINATE if saw_undecided else None

    @cached_property
    def is_minimal(self) -> bool:
        """Whether the code is exactly its mandatory faces plus the empty word."""
        mand = self.mandatory
        return not mand.undecided and self.code.codewords == mand | {EMPTY}

    @cached_property
    def components(self) -> list:
        """Per nerve component, the structure of the codewords below its facets.

        Neuron labels are kept; [self] when the nerve is connected.
        """
        parts = self.nerve_complex.components()
        if len(parts) <= 1:
            return [self]
        out = []
        for part in parts:
            below = [self.facets[p - 1] for p in part]
            words = [w for w in self.code.codewords if w and any(w <= f for f in below)]
            out.append(CodeStructure(NeuralCode(words)))
        return out


def mandatory_faces(facets: Iterable[Codeword]) -> MandatoryFaces:
    """All faces with non-contractible link of the complex with these facets.

    Only facets and max-intersection faces can qualify, so only those are
    scanned.  Facets are always mandatory.
    """
    return CodeStructure(NeuralCode(facets)).mandatory


def minimal_code(facets: Iterable[Codeword]) -> NeuralCode:
    """The code containing exactly the mandatory faces and the empty word."""
    faces = mandatory_faces(facets)
    if faces.undecided:
        raise ValueError(
            "minimal code is undetermined: contractibility unresolved for "
            + ", ".join(str(sorted(f)) for f in sort_words(faces.undecided))
        )
    return NeuralCode(faces)


def has_local_obstruction(code: NeuralCode):
    """The smallest mandatory face missing from the code, None if none.

    Returns INDETERMINATE when no definite obstruction was found but some
    missing candidate's contractibility is unresolved (possible only beyond
    four facets).  Only candidates absent from the code are examined, so
    max-intersection-complete codes short-circuit without link computations.
    """
    return CodeStructure(code).obstruction


@dataclass(frozen=True)
class PathOfFacetsWitness:
    """Witness (a, b, c): positions of the three facets with b the middle.

    (F_a & F_b) - F_c and (F_b & F_c) - F_a are nonempty while
    (F_a & F_c) - F_b is empty; a < c.
    """

    a: int
    b: int
    c: int

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c)


def path_of_facets(f1: Codeword, f2: Codeword, f3: Codeword) -> Optional[PathOfFacetsWitness]:
    """Path-of-Facets test for three facets.

    Returns the witness when exactly one of the three pairwise-difference
    sets is empty, None otherwise.
    """
    fs = [frozenset(f1), frozenset(f2), frozenset(f3)]
    if len(set(fs)) != 3 or any(a < b for a in fs for b in fs):
        raise ValueError("facets must be three distinct incomparable sets")
    # position b is the facet omitted from the empty difference
    empties = []
    for b in (1, 2, 3):
        a, c = [i for i in (1, 2, 3) if i != b]
        if not (fs[a - 1] & fs[c - 1]) - fs[b - 1]:
            empties.append(b)
    if len(empties) != 1:
        return None
    b = empties[0]
    a, c = [i for i in (1, 2, 3) if i != b]
    return PathOfFacetsWitness(a, b, c)
