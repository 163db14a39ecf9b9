"""Core value types for combinatorial neural codes.

A codeword is a finite set of neuron indices (positive integers, 1-based).
A neural code is a finite set of codewords that always contains the empty
codeword.  Everything downstream (nerve classification, obstructions,
realizations) is built over these two types.  A code's facets and missing
faces are derived once, by topology.CodeStructure; this module holds the
bitmask routines it packs and closes codes with (_pack, _maximal_masks,
_intersections), trunks, and the facet intersections of any sets of
labels (max_intersection_faces).

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import Dict, Iterable, Iterator, NamedTuple, Optional

# A codeword is represented as a frozenset of ints.  The empty codeword is
# frozenset().
Codeword = frozenset

EMPTY: Codeword = frozenset()


def word_sort_key(word: Codeword) -> tuple:
    """Canonical order on codewords: by size, then lexicographically."""
    return (len(word), tuple(sorted(word)))


def sort_words(words: Iterable[Codeword]) -> list:
    return sorted(words, key=word_sort_key)


def format_word(word: Codeword, braced: bool = False) -> str:
    """Render one codeword.

    Compact digit form when every index is a single digit and braced was not
    requested; braced form "{1,3,12}" otherwise.  The empty codeword is "{}".
    """
    elems = sorted(word)
    if not elems:
        return "{}"
    if not braced and max(elems) <= 9:
        return "".join(str(i) for i in elems)
    return "{" + ",".join(str(i) for i in elems) + "}"


class CodeParseError(ValueError):
    """Raised on malformed code text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Frozen:
    """Base of the immutable value classes, whose __init__ sets each field
    named in _fields with object.__setattr__.

    Instances compare equal only to instances of the same class with equal
    fields, hash as the tuple of their fields, print as
    Class(field=value, ...), and refuse assignment and deletion.
    """

    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == _Frozen._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NeuralCode(_Frozen):
    """An immutable neural code: a set of codewords on neurons 1..n.

    The empty codeword is added at construction if absent.  n is the
    largest index present (0 for {∅}); a neuron below it that no codeword
    uses is silent, and its region in a realization is empty.
    """

    _fields = ("codewords",)
    codewords: frozenset
    n: int

    def __init__(self, codewords: Iterable[Iterable[int]]):
        words = set()
        for w in codewords:
            word = frozenset(w)
            for i in word:
                if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                    raise ValueError(f"neuron index must be a positive integer, got {i!r}")
            words.add(word)
        words.add(EMPTY)
        object.__setattr__(self, "codewords", frozenset(words))
        object.__setattr__(self, "n", max((max(w) for w in words if w), default=0))

    def __contains__(self, word) -> bool:
        return frozenset(word) in self.codewords

    def __iter__(self) -> Iterator[Codeword]:
        return iter(sort_words(self.codewords))

    def __len__(self) -> int:
        return len(self.codewords)


# token scanner for parse_code: braced lists, compact digit strings, separators
_TOKEN = re.compile(r"(?P<ws>[\s,;]+)|(?P<brace>\{[^{}]*\})|(?P<compact>[0-9]+)|(?P<bad>.)")


def parse_code(text: str) -> NeuralCode:
    """Parse code text into a NeuralCode.

    Grammar: codewords separated by commas, semicolons, or whitespace.  A
    codeword is either a compact digit string such as "1357" (one neuron per
    digit, only legal while every index is at most 9) or a braced list such
    as "{1,3,12}".  Duplicates are deduplicated and the empty codeword is
    always added; n is the maximum index present.

    Mixing compact tokens with braced tokens that hold an index of 10 or
    more is refused as ambiguous, as is any digit 0.
    """
    words = []
    compact_positions = []
    max_braced = 0
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise CodeParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup == "compact":
            token = m.group()
            if "0" in token:
                raise CodeParseError("neuron index 0 is not allowed", m.start() + token.index("0"))
            words.append(frozenset(int(ch) for ch in token))
            compact_positions.append(m.start())
        else:
            inner = m.group()[1:-1].strip()
            if not inner:
                words.append(EMPTY)
                continue
            elems = set()
            for item in inner.split(","):
                item = item.strip()
                if not re.fullmatch(r"[0-9]+", item):
                    raise CodeParseError(f"malformed braced entry {item!r}", m.start())
                idx = int(item)
                if idx < 1:
                    raise CodeParseError("neuron index 0 is not allowed", m.start())
                elems.add(idx)
            max_braced = max(max_braced, max(elems))
            words.append(frozenset(elems))
    if max_braced > 9 and compact_positions:
        raise CodeParseError(
            "compact digit token is ambiguous in a code with indices above 9; use braced form",
            compact_positions[0],
        )
    return NeuralCode(words)


def format_code(code: NeuralCode, verbose: bool = False, braced: bool = False) -> str:
    """Canonical text: codewords sorted by (size, lex), comma-separated.

    The empty codeword prints as "{}" only in verbose mode and is omitted
    otherwise.  braced forces braced form for every codeword (used by CSV).
    """
    use_braces = braced or code.n > 9
    parts = []
    for w in sort_words(code.codewords):
        if not w and not verbose:
            continue
        parts.append(format_word(w, braced=use_braces))
    return ",".join(parts)


def trunk(code: NeuralCode, sigma: Iterable[int]) -> frozenset:
    """All codewords containing sigma."""
    s = frozenset(sigma)
    return frozenset(w for w in code.codewords if s <= w)


def max_intersection_faces(facets: Iterable[Codeword]) -> frozenset:
    """All nonempty intersections of two or more facets (see _intersections)."""
    packed = _pack(facets)
    return frozenset(map(packed.word, _intersections(packed.masks)))


def relabel_word(word: Codeword, perm: tuple) -> Codeword:
    """The word under a neuron permutation; perm[i-1] is the new label of i."""
    return frozenset(perm[i - 1] for i in word)


def relabel(code: NeuralCode, perm: tuple) -> NeuralCode:
    """Apply a neuron permutation; perm[i-1] is the new label of neuron i.

    ValueError unless perm is a permutation of 1..len(perm), so no two
    neurons merge.
    """
    if len(perm) < code.n:
        raise ValueError("permutation too short for this code")
    try:
        # a sorted copy read against 1, 2, ...: sets of len(perm) labels cost
        # several times its memory when n is large
        wrong = any(map(operator.ne, sorted(perm), itertools.count(1)))
    except TypeError:  # labels that cannot be ordered
        wrong = True
    if wrong:
        raise ValueError(f"not a permutation of 1..{len(perm)}: {tuple(perm)}")
    return NeuralCode([relabel_word(w, perm) for w in code.codewords])


class CanonicalForm(NamedTuple):
    code: NeuralCode
    permutation: tuple
    exact: bool


# relabelings one search may cover, judged on the product of its cells'
# factorials; 8! is one cell of up to 8 neurons
_RELABEL_CAP = 40320

# the largest neuron index canonicalize accepts: its permutation has one
# entry per neuron 1..n, so its memory grows with n (about 40 MB at this bound)
_CANONICAL_MAX_N = 2**20


def canonicalize(code: NeuralCode) -> CanonicalForm:
    """Lexicographically least code over neuron relabelings.

    The support is packed (see _pack) and relabeled onto 1..s, and the
    silent neurons below code.n take the next labels in index order.  Exact
    for a support of at most 8 neurons (exact=True): a branch-and-bound
    search over all relabelings of the support (see _least_relabeling)
    returns the least code and, among the relabelings that reach it, the
    lexicographically least permutation.  Beyond that exact=False: the
    support gets _profile_relabeling, which does not depend on the labels
    while its profile cells admit at most 8! assignments.  Idempotent in
    both regimes.  ValueError when code.n, the largest index, exceeds 2**20
    (_CANONICAL_MAX_N).
    """
    if code.n > _CANONICAL_MAX_N:
        raise ValueError(f"canonicalize takes neuron indices up to {_CANONICAL_MAX_N}, got {code.n}")
    packed = _pack(w for w in code.codewords if w)
    images = _least_relabeling(packed.masks)
    if images is None:
        label = _profile_relabeling(packed)
    else:
        label = dict(zip(packed.labels, images))
    spare = itertools.count(len(label) + 1)
    perm = tuple(label[i] if i in label else next(spare) for i in range(1, code.n + 1))
    return CanonicalForm(relabel(code, perm), perm, images is not None)


class _Packing(NamedTuple):
    """Sets packed into bitmasks by _pack: bit k stands for labels[k]."""

    labels: tuple
    masks: list  # the sets' masks, in input order

    def word(self, mask: int) -> frozenset:
        """The set of labels whose bits are set in mask."""
        return frozenset(map(self.labels.__getitem__, _indices(mask)))


def _pack(sets) -> _Packing:
    """Pack sets of labels into bitmasks.

    Each label present gets a consecutive bit, in sorted order, so a mask
    has as many bits as there are labels, whatever their values.  Labels
    that cannot be ordered (nerve takes any hashables) keep the set's order.
    """
    sets = [frozenset(s) for s in sets]
    labels = frozenset().union(*sets)
    try:
        labels = sorted(labels)
    except TypeError:
        pass
    bit = {x: 1 << k for k, x in enumerate(labels)}
    return _Packing(tuple(labels), [sum(map(bit.__getitem__, s)) for s in sets])


def _indices(mask: int):
    """The positions of the bits set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_key(mask: int) -> tuple:
    """word_sort_key of a mask's word when its bits follow its labels' order,
    as _pack lays out labels it can sort: by size, then by bit positions."""
    return (mask.bit_count(), [*_indices(mask)])


def _maximal_masks(masks: Iterable[int]) -> list:
    """The inclusion-maximal members of a set of bitmasks."""
    kept: list = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        # a plain loop, not any() over a generator: every nerve and link runs this
        for k in kept:
            if m & k == m:
                break
        else:
            kept.append(m)
    return kept


def _intersections(masks: list) -> set:
    """All nonzero ANDs of two or more of the masks.

    Computed as the closure of pairwise ANDs under AND with one more mask,
    which is polynomial in the output size.
    """
    found: set = set()
    frontier = {a & b for a, b in itertools.combinations(masks, 2)} - {0}
    while frontier:
        found |= frontier
        frontier = {x & f for x in frontier for f in masks} - found - {0}
    return found


def _profile_relabeling(packed: _Packing) -> Dict[int, int]:
    """Label-invariant map from each packed label onto 1..s.

    packed holds the nonempty codewords of a code, as _pack gives them.
    Labels are partitioned by a two-round occurrence profile and go, as
    their bits, to _least_relabeling with the profile groups as its ordered
    cells: the least relabeled code over profile-respecting assignments
    wins, ties going to the least images.  Above that search's cap (judged
    on the full count of assignments, 8!) the profile order itself, ties by
    label, is used, and the map may depend on the labels.  The generic
    sprocket search visits candidates in this order, and canonicalize falls
    back to it above 8 neurons.
    """
    support, masks = packed
    occurs = [[m for m in masks if m >> k & 1] for k in range(len(support))]
    prof1 = [tuple(sorted(m.bit_count() for m in occ)) for occ in occurs]
    rank1 = {p: r for r, p in enumerate(sorted(set(prof1)))}
    ranks = {
        m: tuple(sorted(rank1[prof1[k]] for k in range(len(support)) if m >> k & 1))
        for m in masks
    }
    prof2 = [(p, tuple(sorted(ranks[m] for m in occ))) for p, occ in zip(prof1, occurs)]
    ordered = sorted(range(len(support)), key=lambda k: (prof2[k], k))
    groups = [[k + 1 for k in g] for _, g in itertools.groupby(ordered, key=prof2.__getitem__)]

    images = _least_relabeling(masks, groups)
    if images is None:
        return {support[k]: label for label, k in enumerate(ordered, start=1)}
    return dict(zip(support, images))


def _least_relabeling(words: list, cells=None) -> Optional[tuple]:
    """The least images tuple among the relabelings that give the least code.

    words are the codewords of a code on neurons 1..n as bitmasks (bit
    i - 1 for neuron i), n being the highest neuron present.  cells is an
    ordered partition of 1..n, None meaning one cell: the first cell's
    neurons take the first labels, and so on.  Returns None when the
    product of the cells' factorials exceeds _RELABEL_CAP.

    Branch and bound over label assignments: labels 1, 2, ... go to one
    neuron at a time, each from the cell that owns the label.  A word's key
    is one int ordered as (size, sorted labels), size * 2**n + 2**n - 1 -
    sum(2**(n - label)), and a code's key is its sorted tuple of word keys.
    A node's bound gives every word its known labels followed by the
    smallest free ones; each word's final key is at least that, so the
    code's key is at least the sorted bounds.  Children are visited in bound
    order and cut once their bound exceeds the best key found.  A label
    whose cell has one free neuron left is forced: it gets no bound and no
    call of its own, so only neurons in cells of two or more deepen the
    recursion.  Two neurons of one cell whose transposition maps the code
    onto itself (twins, which lie in the same codewords, are one case) take
    labels in index order: swapping their labels in any optimum gives an
    optimum with a lex-smaller images tuple, so the lex-least one obeys the
    order.  The result is the least (key, images) pair over the leaves
    reached, which is what a lex-order scan of all cell-respecting
    permutations keeping only strict-< improvements returns.
    """
    n = 0
    for m in words:
        n |= m
    n = n.bit_length()
    if cells is None:
        cells = [range(1, n + 1)]
    # stop at the cap, which any cell of 9 or more neurons passes alone
    counts = itertools.accumulate((math.factorial(min(len(c), 9)) for c in cells), int.__mul__)
    if any(count > _RELABEL_CAP for count in counts):
        return None
    top = 1 << n
    word_set = set(words)
    occurs = [[k for k, m in enumerate(words) if m >> i & 1] for i in range(n)]

    def swapped(m, i, j):
        return m ^ (1 << i | 1 << j) if (m >> i ^ m >> j) & 1 else m

    # owner[d]: the 0-based neurons of the cell that label d + 1 comes from;
    # earlier[i]: neurons j < i of i's cell that must be labeled before i
    owner = []
    earlier = [0] * n
    for cell in cells:
        members = sorted(i - 1 for i in cell)
        owner += [members] * len(members)
        for k, i in enumerate(members[1:], start=1):
            earlier[i] = sum(
                1 << j
                for j in members[:k]
                if all(swapped(m, i, j) in word_set for m in words)
            )
    images = [0] * n
    best = None

    def search(depth, free, rest):
        # per word, rest is its key with only the known labels' terms
        # subtracted; each call owns its list
        nonlocal best
        while depth < n:
            choices = [i for i in owner[depth] if free >> i & 1]
            if len(choices) > 1:
                break
            (i,) = choices
            half = 1 << (n - depth - 1)
            for k in occurs[i]:
                rest[k] -= half
            images[i] = depth + 1
            free ^= 1 << i
            depth += 1
        if depth == n:
            key = tuple(sorted(rest))
            if best is None or (key, images) < best:
                best = (key, images[:])
            return
        half = 1 << (n - depth - 1)
        children = []
        for i in choices:
            if earlier[i] & free:
                continue
            left = free ^ 1 << i
            r2 = rest[:]
            for k in occurs[i]:
                r2[k] -= half
            bound = tuple(
                sorted(r - half + (half >> (m & left).bit_count()) for r, m in zip(r2, words))
            )
            children.append((bound, i, r2))
        children.sort(key=lambda child: child[0])  # stable: ties stay in index order
        for bound, i, r2 in children:
            if best is not None and bound > best[0]:
                break
            images[i] = depth + 1
            search(depth + 1, free ^ 1 << i, r2)

    search(0, top - 1, [m.bit_count() * top + top - 1 for m in words])
    return tuple(best[1])
