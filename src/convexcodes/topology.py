"""Simplicial topology for small complexes, and the facts about a code.

Links, nerves, the 28-class catalog of complexes on up to four vertices,
contractibility of links, a code's facets and missing max-intersection
faces, mandatory faces, minimal codes, local obstructions, and the
Path-of-Facets test.  CodeStructure is the one place where a code's facets,
max-intersection faces and link scan are derived; the public helpers on
codes read it.

Nerves and faces are held as position masks (bit p is vertex p + 1); a
complex is its facets.  They become frozensets only where a result leaves
(nerve()) and where is_collapsible, which takes sets, searches a large
link's faces.  Nerves are built from facets only: the maximal occurrence
masks of the input's elements are the nerve's facets, so no face list is
formed on the way.  Every mask here is laid out by codes._pack, one bit per
label present, so its size does not grow with the labels' values.  A
code's own masks (CodeStructure.packed) become sets of neurons where a
result is formed: its facets and reported faces, a sprocket's faces
(wheels) and the neurons the builders give regions (realize.builders).
Besides, each nerve component's codewords become a code of their own,
and the generic sprocket search orders its taus by their words.  The
Path-of-Facets test (_path_of_facets), the builders' cases and the L24
sprocket's triangle read facet masks; only the public path_of_facets
packs its arguments.

Classification on at most four vertices is one dictionary lookup: at import
every relabeling of every reference class is expanded into a table of all
126 labeled complexes on 1..k vertices, each entry holding its class, the
lexicographically least witness relabeling and the contractibility bit.

Contractibility of a complex on at most four vertices is exact: the class
catalog is closed under vertex permutation, and the contractible classes
are a literal set.  The tests check that set on every class against the
collapse search, GF(2) homology (whose vanishing is also sufficient at
this size, as every non-contractible complex on four vertices has a
nonzero reduced homology group) and an independent oracle; the import
runs none of them.

Links are cut from facet masks (rows f & ~sigma) by one routine,
_link_contractible.  More than four rows are first reduced by strong
collapses, which keep the homotopy type; a core of at most four rows is
read from the table.  A larger core whose nerve is the boundary of a
simplex is a sphere, so non-contractible.  Any other larger core lists its
faces, once, as masks: it is non-contractible when disconnected or not
acyclic over GF(2), contractible when an elementary-collapse search (run
from an explicit stack) succeeds, and INDETERMINATE otherwise.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, NamedTuple, Optional

from .codes import (
    Codeword,
    NeuralCode,
    _indices,
    _intersections,
    _mask_key,
    _maximal_masks,
    _pack,
    _Packing,
    _cached,
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


def _occurrences(rows: Iterable[int]) -> Dict[int, int]:
    """For each bit set in some row, the mask of the row positions holding it."""
    occ: Dict[int, int] = {}
    for pos, rest in enumerate(rows):
        while rest:
            low = rest & -rest
            occ[low] = occ.get(low, 0) | 1 << pos
            rest ^= low
    return occ


def _nerve_masks(rows: list) -> list:
    """The facets of the nerve of packed sets, as masks of their positions.

    Each element's occurrence mask (positions of the sets containing it) is
    a face, and every face lies in some occurrence mask, so the maximal
    masks are exactly the facets.
    """
    if not all(rows):
        raise ValueError("nerve input sets must be nonempty")
    return _maximal_masks(_occurrences(rows).values())


def _positions(mask: int) -> frozenset:
    """The vertices of a position mask, bit p standing for vertex p + 1."""
    return frozenset(p + 1 for p in _indices(mask))


def nerve(sets: Iterable[Iterable[int]]) -> tuple:
    """The facets of the nerve of a list of nonempty sets, on vertex labels
    1..m, as a tuple of frozensets in word_sort_key order.

    A subset S of positions is a face iff the sets indexed by S have a
    common element.  Built from the dual without listing faces (see
    _nerve_masks): cost is linear in the input plus a pairwise filter of
    the distinct occurrence masks, where enumerating faces costs 2^m when
    all m sets share a point.
    """
    return tuple(map(_positions, sorted(_nerve_masks(_pack(sets).masks), key=_mask_key)))


def _components(masks: list) -> list:
    """The vertex masks of the connected parts of the complex with these
    facet masks, ordered by word_sort_key of their position sets."""
    parts: list = []
    for m in masks:
        # the parts m meets are disjoint, so their sum is their union
        parts = [p for p in parts if not p & m] + [m | sum(p for p in parts if p & m)]
    return sorted(parts, key=_mask_key)


def _faces(masks: list) -> set:
    """Every nonempty face of the complex with these facet masks, as masks."""
    out: set = set()
    for m in masks:
        sub = m
        while sub:
            out.add(sub)
            sub = (sub - 1) & m
    return out


def _rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the rows, each an int whose bits are its entries."""
    pivots: Dict[int, int] = {}  # leading bit -> the kept row with that lead
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def _acyclic(faces: set) -> bool:
    """Whether the complex with these faces (masks, closed under nonempty
    subsets) has zero reduced homology over GF(2).

    That holds when, for every size k, the number of faces of size k is the
    rank of the boundary map out of them plus that of the map into them
    from size k + 1.  The map out of the vertices is the augmentation onto
    GF(2), of rank 1; the empty complex is not acyclic.  A complex that is
    not acyclic is not contractible.
    """
    by_size: Dict[int, list] = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    ranks = {1: 1, len(by_size) + 1: 0}  # size k -> rank of the boundary out of it
    for k in range(2, len(by_size) + 1):
        index = {f: 1 << i for i, f in enumerate(by_size[k - 1])}
        ranks[k] = _rank(
            sum(index[f ^ 1 << p] for p in range(f.bit_length()) if f >> p & 1)
            for f in by_size[k]
        )
    return bool(faces) and all(len(by_size[k]) == ranks[k] + ranks[k + 1] for k in by_size)


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

# the classes whose complexes are contractible
_CONTRACTIBLE = frozenset({"L1", "L3", "L6", "L8", "L13", "L14", "L18", "L22", "L26", "L28"})


def is_collapsible(faces: Iterable[Codeword], budget: int = 200_000) -> Optional[bool]:
    """Whether the complex collapses to a point by elementary collapses.

    Depth-first backtracking over all collapse orders with memoization,
    driven by an explicit stack so depth is bounded by memory rather than
    the recursion limit.  Each state scans its faces in iteration order and
    descends into the first free pair not yet tried; a state costs one unit
    of budget when first expanded.  None when the budget runs out (possible
    only for larger inputs, never for complexes on at most four vertices).
    """
    start = frozenset(frozenset(f) for f in faces)
    if not start:
        return False
    memo: Dict[frozenset, bool] = {}
    remaining = budget
    frames: list = []  # (state, iterator over its faces) of the expanded states
    state: Optional[frozenset] = start
    value = False
    while True:
        if state is not None:
            # enter a state: settle it at once or expand it
            if len(state) == 1:
                (only,) = state
                value = len(only) == 1
            elif state in memo:
                value = memo[state]
            elif remaining <= 0:
                return None
            else:
                remaining -= 1
                frames.append((state, iter(state)))
                value = False
            state = None
        if not frames:
            return value
        top, untried = frames[-1]
        if not value:
            for sigma in untried:
                supers = [t for t in top if sigma < t]
                if len(supers) == 1:
                    state = top - {sigma, supers[0]}
                    break
            if state is not None:
                continue
        memo[top] = value
        frames.pop()


class ClassifiedNerve(NamedTuple):
    """Classification of a complex on <= 4 vertices.

    relabeling maps each input vertex to its reference label; applying it
    to the input facets yields the reference complex of class_id exactly.
    """

    class_id: str
    relabeling: tuple  # ((input vertex, reference label), ...) sorted by input vertex
    contractible: bool


def _build_class_table() -> Dict[frozenset, tuple]:
    """Every labeled complex on vertices 1..k (k <= 4), keyed by facet bitmasks.

    Bit i-1 of a mask stands for vertex i.  Each value is (class_id, images,
    contractible), where images[i] is the reference label of vertex i+1 and
    contractible is membership in _CONTRACTIBLE.  A key is one labeled
    complex, which lies in one class only, so the order of the classes
    does not matter.  Per class, permutations come in lex order and
    setdefault keeps the first hit, so every entry holds the
    lexicographically least witness.
    """
    table: Dict[frozenset, tuple] = {}
    # per k and permutation, every reference mask (bit r-1 for label r)
    # mapped onto the input vertices that images sends to its labels
    mask_maps: Dict[int, list] = {k: [] for k in range(1, 5)}
    for k, maps in mask_maps.items():
        for images in itertools.permutations(range(1, k + 1)):
            bit = [0] * k
            for v, r in enumerate(images):
                bit[r - 1] = 1 << v
            image = [0] * (1 << k)
            for m in range(1, 1 << k):
                low = m & -m
                image[m] = image[m ^ low] | bit[low.bit_length() - 1]
            maps.append((images, image))
    for class_id, facets in _REF.items():
        labels, masks = _pack(facets)
        for images, image in mask_maps[len(labels)]:
            key = frozenset(map(image.__getitem__, masks))
            table.setdefault(key, (class_id, images, class_id in _CONTRACTIBLE))
    return table


_CLASS_TABLE = _build_class_table()


def classify_small_complex(facets: Iterable[Codeword]) -> ClassifiedNerve:
    """Identify the L1..L28 class of the complex whose faces lie in the
    given nonempty sets, on 1..4 vertices; a set inside another adds
    nothing and is dropped.

    A lookup in a table of all labeled complexes on 1..4 vertices, built once
    at import from the reference catalog and its literal set of contractible
    classes: the sorted input vertices are relabeled 1..k and the set of
    maximal masks is the key.  The witness relabeling is the
    lexicographically least valid one (as the tuple of reference labels
    assigned to the sorted input vertices), and contractible is the class's
    entry in that set.
    """
    labels, masks = _pack(facets)
    if not all(masks):
        raise ValueError("faces must be nonempty")
    if not 1 <= len(labels) <= 4:
        raise ValueError(f"classification requires 1..4 vertices, got {len(labels)}")
    class_id, images, contractible = _CLASS_TABLE[frozenset(_maximal_masks(masks))]
    return ClassifiedNerve(class_id, tuple(zip(labels, images)), contractible)


def _strong_core(rows: list) -> list:
    """The masks left after dominance reduction of packed nonempty sets.

    Repeatedly drop a set contained in another (one copy of equal sets is
    kept) and an element whose occurrence mask is contained in another's
    (one element per mask is kept).  Dropping such an element leaves the
    nerve unchanged, and a set inside another is a dominated vertex of the
    nerve, so each step is a strong collapse (Barmak & Minian, "Strong
    homotopy types, nerves and collapses", DCG 2012).  The nerve of the
    result is therefore homotopy-equivalent to the nerve of the input, and
    a single set left means the input's nerve is collapsible.
    """
    while True:
        rows = _maximal_masks(rows)
        occ = _occurrences(rows)
        owner: Dict[int, int] = {}
        for bit, m in occ.items():
            owner.setdefault(m, bit)
        keep = sum(owner[m] for m in _maximal_masks(owner))
        if len(rows) == 1 or keep.bit_count() == len(occ):
            return rows
        rows = [r & keep for r in rows]


def _link_contractible(facet_masks: list, sigma: int):
    """True/False for contractibility of the link of sigma, else INDETERMINATE.

    facet_masks is an antichain of masks and sigma the mask of one of its
    faces.  The link is homotopy-equivalent to the nerve of the rows
    f & ~sigma over the facets f holding sigma; they are distinct, and
    nonzero unless sigma is itself a facet.  More than four rows are first
    reduced by dominance (see _strong_core), which keeps that homotopy type.
    Exact when at most four rows are left (table lookup).  Otherwise the
    core's nerve is False when its facets are the k sets of k - 1 of its k
    rows (the boundary of a simplex, a sphere), when disconnected or when
    its GF(2) homology is not that of a point (_acyclic), True when an
    elementary-collapse search on its faces succeeds, and INDETERMINATE
    when neither settles it.  The link of a facet has empty geometric
    realization and counts as non-contractible, which is what makes facets
    mandatory.
    """
    rows = [f & ~sigma for f in facet_masks if not sigma & ~f]
    if rows == [0]:
        return False
    if len(rows) > 4:
        rows = _strong_core(rows)
    nerve_masks = _nerve_masks(rows)
    if len(rows) <= 4:
        return _CLASS_TABLE[frozenset(nerve_masks)][2]
    if len(nerve_masks) == len(rows) and all(m.bit_count() == len(rows) - 1 for m in nerve_masks):
        return False
    if len(_components(nerve_masks)) > 1:
        return False
    faces = _faces(nerve_masks)
    if not _acyclic(faces):
        return False
    if is_collapsible(map(_positions, faces)):
        return True
    # acyclic but not collapsible, or budget exhausted: cannot conclude
    return INDETERMINATE


def is_link_contractible(facets: Iterable[Codeword], sigma: Iterable[int]):
    """True/False for contractibility of the link of sigma, else INDETERMINATE.

    The complex is the one whose faces lie in the given sets; a set inside
    another adds nothing and is dropped.  The sets and sigma are packed
    together, so any hashable labels work, and _link_contractible decides
    on the masks.  ValueError when sigma is empty or not a face.
    """
    sigma = frozenset(sigma)
    if not sigma:
        raise ValueError("sigma must be a nonempty face")
    packed = _pack([*facets, sigma])
    *masks, s = packed.masks
    masks = _maximal_masks(masks)
    if not any(s & m == s for m in masks):
        # the packing's label order: sorted when the labels can be ordered
        face = [x for x in packed.labels if x in sigma]
        raise ValueError(f"{face} is not a face of the complex")
    return _link_contractible(masks, s)


class CodeStructure:
    """The facts the pipeline reads about one code, each derived once.

    The only place where a code's facets, max-intersection faces, missing
    faces and link scan are derived: the public maximal_codewords,
    is_max_intersection_complete, mandatory_faces and has_local_obstruction
    read one.  Built at the top of each public entry point and passed down
    for that call only; it is never stored on the code or in a module-level
    cache, so no two threads share one.  Every field is a codes._cached
    attribute, computed without a lock on first read from the fields it
    names, so an early exit pays only for what it read.  The code is packed into
    bitmasks once (packed, laid out by codes._pack), and the facets, the
    max-intersection faces and the missing faces are found on those masks
    (facet_masks, max_intersections, missing); a mask becomes a word
    (facets, packed.word) only where a result leaves the pipeline.
    Links are cut from facet_masks by _link_contractible, memoized per face
    mask and shared by the obstruction scan, mandatory and undecided; the
    sprocket search and its trunks read their masks from there too, the L24
    sprocket and the builders read facet masks (by_ref), and the
    nerve is held only as masks of facet positions (nerve_masks), which the
    class table and the component split read.

    box is the call's one-item sprocket budget, [0] unless the entry point
    gives one (decide, analyze, find_sprocket, atlas_rows and the realize
    command each make one per call).  The structures derived from this one
    (components, and the cone-peeled code of the sprocket search) share
    it, and every search step is taken from it by spend.
    """

    code: NeuralCode

    def __init__(self, code: NeuralCode, box: Optional[list] = None):
        self.code = code
        self.box = [0] if box is None else box
        self._links: dict = {}

    def spend(self, n: int) -> bool:
        """Take n search steps from box; when fewer are left, empty the box
        and return False."""
        left = self.box[0]
        self.box[0] -= min(n, left)
        return n <= left

    @_cached
    def packed(self) -> _Packing:
        """The nonempty codewords packed by codes._pack: packed.labels are
        the neurons in bit order, and packed.masks are the words' masks."""
        return _pack(w for w in self.code.codewords if w)

    @_cached
    def facet_masks(self) -> list:
        """The maximal masks of packed, in the canonical order of their words."""
        return sorted(_maximal_masks(self.packed.masks), key=_mask_key)

    @_cached
    def facets(self) -> list:
        return list(map(self.packed.word, self.facet_masks))

    @_cached
    def max_intersections(self) -> set:
        """The masks of the nonempty intersections of two or more facets."""
        return _intersections(self.facet_masks)

    @_cached
    def missing(self) -> list:
        """The max-intersection masks that are not codewords, in canonical order."""
        return sorted(self.max_intersections - set(self.packed.masks), key=_mask_key)

    @_cached
    def nerve_masks(self) -> list:
        """The nerve's facets as masks of facet positions (bit p is facets[p])."""
        return _nerve_masks(self.facet_masks)

    @_cached
    def classified(self) -> Optional[ClassifiedNerve]:
        """The nerve's class for one to four facets, else None."""
        if not 1 <= len(self.facet_masks) <= 4:
            return None
        class_id, images, contractible = _CLASS_TABLE[frozenset(self.nerve_masks)]
        return ClassifiedNerve(class_id, tuple(enumerate(images, start=1)), contractible)

    @_cached
    def by_ref(self) -> dict:
        """Reference vertex label -> facet mask, for a classified nerve."""
        return {ref: self.facet_masks[pos - 1] for pos, ref in self.classified.relabeling}

    def link_contractible(self, sigma: int):
        """_link_contractible of the face with mask sigma, memoized."""
        if sigma not in self._links:
            self._links[sigma] = _link_contractible(self.facet_masks, sigma)
        return self._links[sigma]

    @_cached
    def mandatory(self) -> set:
        """The masks of the facets and of the max-intersection faces whose
        link is not contractible."""
        faces = self.max_intersections
        return {*self.facet_masks, *[f for f in faces if self.link_contractible(f) is False]}

    @_cached
    def undecided(self) -> list:
        """The max-intersection masks whose link is INDETERMINATE, in
        canonical order.  Empty whenever the code has at most four facets,
        as every link is then read from the class table."""
        faces = self.max_intersections
        return sorted([f for f in faces if self.link_contractible(f) is INDETERMINATE], key=_mask_key)

    @_cached
    def obstruction(self):
        """See has_local_obstruction."""
        saw_undecided = False
        for sigma in self.missing:
            res = self.link_contractible(sigma)
            if res is INDETERMINATE:
                saw_undecided = True
            elif not res:
                return self.packed.word(sigma)
        return INDETERMINATE if saw_undecided else None

    @_cached
    def is_minimal(self) -> bool:
        """Whether the code is exactly its mandatory faces plus the empty word."""
        return not self.undecided and self.mandatory == set(self.packed.masks)

    @_cached
    def components(self) -> List[CodeStructure]:
        """Per nerve component, the structure of the codewords below its facets.

        Neuron labels are kept, and the components share this structure's
        box; [self] when the nerve is connected.
        """
        parts = _components(self.nerve_masks)
        if len(parts) <= 1:
            return [self]
        out = []
        for part in parts:
            below = [self.facet_masks[p] for p in _indices(part)]
            masks = [m for m in self.packed.masks if any(m & ~f == 0 for f in below)]
            out.append(CodeStructure(NeuralCode(map(self.packed.word, masks)), self.box))
        return out


def maximal_codewords(code: NeuralCode) -> list:
    """The inclusion-maximal nonempty codewords, sorted canonically."""
    return CodeStructure(code).facets


def is_max_intersection_complete(code: NeuralCode) -> tuple:
    """(True, empty set) iff every max-intersection face is a codeword, else
    (False, the missing faces)."""
    s = CodeStructure(code)
    return (not s.missing, frozenset(map(s.packed.word, s.missing)))


def mandatory_faces(facets: Iterable[Codeword]) -> frozenset:
    """All faces with non-contractible link of the complex with these facets.

    Only facets and max-intersection faces can qualify, so only those are
    scanned.  Facets are always mandatory.  ValueError, naming the faces,
    when the contractibility of some link is unresolved (possible only
    beyond four facets).
    """
    s = CodeStructure(NeuralCode(facets))
    if s.undecided:
        raise ValueError(
            "mandatory faces are undetermined: contractibility unresolved for "
            + ", ".join(str(sorted(s.packed.word(sigma))) for sigma in s.undecided)
        )
    return frozenset(map(s.packed.word, s.mandatory))


def minimal_code(facets: Iterable[Codeword]) -> NeuralCode:
    """The code containing exactly the mandatory faces and the empty word.

    ValueError as mandatory_faces when some link is unresolved.
    """
    return NeuralCode(mandatory_faces(facets))


def has_local_obstruction(code: NeuralCode):
    """The smallest mandatory face missing from the code, None if none.

    Returns INDETERMINATE when no definite obstruction was found but some
    missing candidate's contractibility is unresolved (possible only beyond
    four facets).  Only candidates absent from the code are examined, so
    max-intersection-complete codes short-circuit without link computations.
    """
    return CodeStructure(code).obstruction


# a Path-of-Facets path as argument positions, keyed by its one empty
# difference: bit 0 for (b & c) - a, bit 1 for (a & c) - b, bit 2 for (a & b) - c
_PATHS = {1: (1, 0, 2), 2: (0, 1, 2), 4: (0, 2, 1)}


def _path_of_facets(a: int, b: int, c: int) -> Optional[tuple]:
    """The Path-of-Facets test on three facet masks: the path as the
    positions of its facets among the arguments (0 for a, 1 for b, 2 for
    c), or None.  See path_of_facets."""
    return _PATHS.get((not b & c & ~a) | (not a & c & ~b) << 1 | (not a & b & ~c) << 2)


def path_of_facets(f1: Codeword, f2: Codeword, f3: Codeword) -> Optional[tuple]:
    """Path-of-Facets test for three facets.

    Returns the facets as the path (F_a, F_b, F_c) when exactly one of the
    three pairwise-difference sets is empty, None otherwise.  The middle
    facet F_b is the one omitted from that difference: (F_a & F_b) - F_c
    and (F_b & F_c) - F_a are nonempty while (F_a & F_c) - F_b is empty.
    F_a comes before F_c among the arguments.  ValueError unless the facets
    are three distinct incomparable sets.  The test runs on their packed
    masks (_path_of_facets), as analyze runs it on a code's facet masks.
    """
    fs = [frozenset(f1), frozenset(f2), frozenset(f3)]
    masks = _pack(fs).masks
    if any(a & ~b == 0 for a, b in itertools.permutations(masks, 2)):
        raise ValueError("facets must be three distinct incomparable sets")
    path = _path_of_facets(*masks)
    return None if path is None else tuple(map(fs.__getitem__, path))
