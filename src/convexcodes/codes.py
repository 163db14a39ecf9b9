"""Core value types for combinatorial neural codes.

A codeword is a finite set of neuron indices (positive integers, 1-based).
A neural code is a finite set of codewords that always contains the empty
codeword.  Everything downstream (nerve classification, obstructions,
realizations) is built over these two types plus the facet combinatorics
defined here: maximal codewords, trunks, and intersections of facets.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

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


@dataclass(frozen=True, init=False)
class NeuralCode:
    """An immutable neural code: a set of codewords plus a neuron count.

    The empty codeword is added at construction if absent.  n defaults to the
    maximum index present; a larger n may be declared explicitly and is legal
    for all code-level operations, but realization operations reject codes
    whose declared top index appears in no codeword.
    """

    codewords: frozenset
    n: int

    def __init__(self, codewords: Iterable[Iterable[int]], n: Optional[int] = None):
        words = set()
        for w in codewords:
            word = frozenset(w)
            for i in word:
                if not isinstance(i, int) or i < 1:
                    raise ValueError(f"neuron index must be a positive integer, got {i!r}")
            words.add(word)
        words.add(EMPTY)
        top = max((max(w) for w in words if w), default=0)
        if n is None:
            n = top
        elif n < top:
            raise ValueError(f"declared n={n} is below the maximum index {top}")
        object.__setattr__(self, "codewords", frozenset(words))
        object.__setattr__(self, "n", int(n))

    def __contains__(self, word) -> bool:
        return frozenset(word) in self.codewords

    def __iter__(self) -> Iterator[Codeword]:
        return iter(sort_words(self.codewords))

    def __len__(self) -> int:
        return len(self.codewords)

    def support(self) -> Codeword:
        """All neuron indices that appear in some codeword."""
        out = set()
        for w in self.codewords:
            out |= w
        return frozenset(out)

    def facets(self) -> list:
        return maximal_codewords(self)


# token scanner for parse_code: braced lists, compact digit strings, separators
_TOKEN = re.compile(r"(?P<ws>[\s,;]+)|(?P<brace>\{[^{}]*\})|(?P<compact>\d+)|(?P<bad>.)")


def parse_code(text: str) -> NeuralCode:
    """Parse code text into a NeuralCode.

    Grammar: codewords separated by commas, semicolons, or whitespace.  A
    codeword is either a compact digit string such as "1357" (one neuron per
    digit, only legal while every index is at most 9) or a braced list such
    as "{1,3,12}".  Duplicates are deduplicated and the empty codeword is
    always added; n is the maximum index present.

    Mixing compact tokens with braced tokens that declare an index of 10 or
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
                if not re.fullmatch(r"\d+", item):
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
    use_braces = braced or code.support() and max(code.support()) > 9
    parts = []
    for w in sort_words(code.codewords):
        if not w and not verbose:
            continue
        parts.append(format_word(w, braced=bool(use_braces)))
    return ",".join(parts)


def maximal_codewords(code: NeuralCode) -> list:
    """The inclusion-maximal nonempty codewords, sorted canonically."""
    nonempty = [w for w in code.codewords if w]
    out = [w for w in nonempty if not any(w < other for other in nonempty)]
    return sort_words(out)


def trunk(code: NeuralCode, sigma: Iterable[int]) -> frozenset:
    """All codewords containing sigma."""
    s = frozenset(sigma)
    return frozenset(w for w in code.codewords if s <= w)


def is_face(facets: Iterable[Codeword], sigma: Iterable[int]) -> bool:
    """True iff sigma is contained in some facet."""
    s = frozenset(sigma)
    return any(s <= frozenset(f) for f in facets)


def max_intersection_faces(facets: Iterable[Codeword]) -> frozenset:
    """All nonempty intersections of two or more facets.

    Computed as the closure of pairwise intersections under intersecting
    with one more facet, which is polynomial in the output size.
    """
    fl = [frozenset(f) for f in facets]
    found = set()
    frontier = set()
    for a, b in itertools.combinations(fl, 2):
        x = a & b
        if x and x not in found:
            found.add(x)
            frontier.add(x)
    while frontier:
        nxt = set()
        for x in frontier:
            for f in fl:
                y = x & f
                if y and y not in found:
                    found.add(y)
                    nxt.add(y)
        frontier = nxt
    return frozenset(found)


def is_max_intersection_complete(code: NeuralCode) -> tuple:
    """(True, empty set) iff every max-intersection face is a codeword."""
    faces = max_intersection_faces(maximal_codewords(code))
    missing = frozenset(f for f in faces if f not in code.codewords)
    return (not missing, missing)


def relabel(code: NeuralCode, perm: tuple) -> NeuralCode:
    """Apply a neuron permutation; perm[i-1] is the new label of neuron i."""
    if len(perm) < code.n:
        raise ValueError("permutation too short for this code")
    words = [frozenset(perm[i - 1] for i in w) for w in code.codewords]
    return NeuralCode(words, n=code.n)


def relabel_word(word: Codeword, perm: tuple) -> Codeword:
    return frozenset(perm[i - 1] for i in word)


class CanonicalForm(NamedTuple):
    code: NeuralCode
    permutation: tuple
    exact: bool


# relabelings one search may cover, judged on the product of its cells'
# factorials; 8! is one cell of up to 8 neurons
_RELABEL_CAP = 40320


def canonicalize(code: NeuralCode) -> CanonicalForm:
    """Lexicographically least code over all neuron relabelings.

    Exact for n <= 8 (exact=True): a branch-and-bound search over all
    relabelings (see _least_relabeling) returns the least code and, among
    the relabelings that reach it, the lexicographically least permutation.
    Beyond that the search is over its cap, a signature-refinement
    heuristic is used and exact=False.  Idempotent in both regimes.
    """
    n = code.n
    if n == 0:
        return CanonicalForm(code, (), True)
    images = _least_relabeling(code)
    if images is not None:
        return CanonicalForm(relabel(code, images), images, True)
    # heuristic: sort neurons by an occurrence signature, ties by index
    sigs = {}
    for i in range(1, n + 1):
        occ = sorted(word_sort_key(w) for w in code.codewords if i in w)
        sigs[i] = (len(occ), occ)
    order = sorted(range(1, n + 1), key=lambda i: (sigs[i], i))
    images = [0] * n
    for new_label, old in enumerate(order, start=1):
        images[old - 1] = new_label
    perm = tuple(images)
    return CanonicalForm(relabel(code, perm), perm, False)


def _least_relabeling(code_or_masks, cells=None) -> Optional[tuple]:
    """The least images tuple among the relabelings that give the least code.

    code_or_masks is a NeuralCode on neurons 1..n, or its codewords as
    masks (bit i - 1 for neuron i) with n the highest neuron present.
    cells is an ordered partition of 1..n, None meaning one cell: the first
    cell's neurons take the first labels, and so on.  Returns None when the
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
    if isinstance(code_or_masks, NeuralCode):
        n = code_or_masks.n
        words = [sum(1 << (i - 1) for i in w) for w in code_or_masks.codewords]
    else:
        words = list(code_or_masks)
        n = 0
        for m in words:
            n |= m
        n = n.bit_length()
    if cells is None:
        cells = [range(1, n + 1)]
    if math.prod(math.factorial(len(cell)) for cell in cells) > _RELABEL_CAP:
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
