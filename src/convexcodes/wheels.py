"""Partial wheels, sprockets, and the bounded sprocket search.

A sprocket is a combinatorial certificate of non-convexity: four faces
(sigma1, sigma2, sigma3, tau) forming a partial wheel, plus two witness
faces (rho1, rho3) whose trunk conditions force an actual wheel in every
realization.  All predicates here are literal trunk computations over the
code (a face is a set that some nonempty codeword holds), so every
reported candidate can be replayed independently.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Tuple

from .codes import Codeword, NeuralCode, _indices, _maximal_masks, _profile_relabeling, format_word, trunk
from .topology import CodeStructure, _occurrences, _path_of_facets

# not called here: kept importable because the benchmark tracer patches these names
from .topology import classify_small_complex, nerve


class SprocketCandidate(NamedTuple):
    sigma1: Codeword
    sigma2: Codeword
    sigma3: Codeword
    tau: Codeword
    rho1: Codeword
    rho3: Codeword

    def text(self) -> str:
        sig = ",".join(format_word(w) for w in self[:4])
        rho = ",".join(format_word(w) for w in (self.rho1, self.rho3))
        return f"(({sig}), rho=({rho}))"

    def to_json(self) -> dict:
        return {name: sorted(word) for name, word in zip(self._fields, self)}


def is_sprocket(code: NeuralCode, cand: SprocketCandidate) -> Tuple[bool, Optional[str]]:
    """Partial-wheel conditions P(i)-P(iii) plus the trunk-witness
    conditions S(1)-S(3).

    P(i): the union u of the sigmas is a face and every pairwise union has
    the same trunk as u.  P(ii): u with tau is not a face.  P(iii): each
    sigma with tau is a face.  A face is a set some nonempty codeword
    holds, that is one whose trunk holds a nonempty word (any() skips the
    empty one, which is falsy); non-faces are not errors, they just fail.
    Failure reports the first broken condition in the order P(i), P(ii),
    P(iii), S(1), S(2), S(3).
    """
    s1, s2, s3, tau, rho1, rho3 = cand
    u = s1 | s2 | s3
    tu = trunk(code, u)
    if not any(tu) or any(trunk(code, pair) != tu for pair in (s1 | s2, s1 | s3, s2 | s3)):
        failed = "P(i)"
    elif any(trunk(code, u | tau)):
        failed = "P(ii)"
    elif not all(any(trunk(code, sigma | tau)) for sigma in (s1, s2, s3)):
        failed = "P(iii)"
    elif not trunk(code, s1 | tau) <= trunk(code, rho1) or not trunk(code, s3 | tau) <= trunk(code, rho3):
        failed = "S(1)"
    elif not trunk(code, tau) <= trunk(code, rho1) | trunk(code, rho3):
        failed = "S(2)"
    elif not trunk(code, rho1 | rho3 | tau) <= trunk(code, s2):
        failed = "S(3)"
    else:
        failed = None
    return (failed is None, failed)


def _emits(code: NeuralCode, cand: SprocketCandidate) -> bool:
    """Whether the search may return cand: is_sprocket on the code, and both
    witness trunks inside Tk(tau), so S(2) is an equality.

    These are the literal frozenset trunk checks, so they replay the mask
    search independently.  The bare S conditions accept tuples whose
    witnesses reach outside Tk(tau), and such tuples exist even in codes
    with verified convex realizations, so they certify nothing.  Every
    closed-form construction here has tau <= rho1 & rho3, which implies
    the containment, and the nonconvexity argument needs the witness
    trunks to split Tk(tau) into exactly two parts.
    """
    return is_sprocket(code, cand)[0] and (
        trunk(code, cand.rho1) | trunk(code, cand.rho3) <= trunk(code, cand.tau)
    )


def canonical_l24_sprocket(code: NeuralCode) -> Optional[SprocketCandidate]:
    """The closed-form sprocket of a 4-maximal code with L24 nerve.

    After classifying the nerve, the facet playing the off-triangle vertex
    becomes F4 and the triangle facets are ordered so the middle one (under
    the Path-of-Facets witness) is F2.  Then sigma_i = F_i & F4, tau is the
    triple intersection of F1,F2,F3 and the witnesses are rho_1 = F1 & F2,
    rho_3 = F3 & F2.  Returns None when the triangle fails Path-of-Facets
    or when the assembled candidate does not validate against the code
    (possible for codes larger than the minimal one).
    """
    s = CodeStructure(code)
    if len(s.facets) != 4:
        raise ValueError(f"code has {len(s.facets)} maximal codewords, need 4")
    if s.classified.class_id != "L24":
        raise ValueError(f"nerve class is {s.classified.class_id}, need L24")
    return _l24_sprocket(s)


def _l24_sprocket(s: CodeStructure) -> Optional[SprocketCandidate]:
    triangle, f4 = [s.by_ref[1], s.by_ref[2], s.by_ref[3]], s.by_ref[4]
    path = _path_of_facets(*triangle)
    if path is None:
        return None
    f1, f2, f3 = (triangle[p] for p in path)
    faces = (f1 & f4, f2 & f4, f3 & f4, f1 & f2 & f3, f1 & f2, f3 & f2)
    cand = SprocketCandidate(*map(s.packed.word, faces))
    return cand if _emits(s.code, cand) else None


DEFAULT_BUDGET = 10**6


def _check_budget(budget: int) -> None:
    """A budget counts search steps, so it is never negative; 0 is allowed."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


# candidate faces for sigma/rho in the generic search: subsets of facet
# intersections up to this size, plus the intersections themselves
_POOL_SUBSET_BOUND = 3


def _candidate_pool(faces) -> set:
    """The face masks given, and their subsets of at most _POOL_SUBSET_BOUND
    bits.  A subset of a face lies in a maximal face, so only the maximal
    faces are expanded."""
    pool = set(faces)
    for face in _maximal_masks(faces):
        bits = [1 << k for k in _indices(face)]
        for r in range(1, min(len(bits), _POOL_SUBSET_BOUND) + 1):
            pool.update(map(sum, itertools.combinations(bits, r)))
    return pool


def _lookups(masks: list) -> tuple:
    """(holding, meeting): which of a list of masks hold, or meet, a given mask.

    Bit b's column (from _occurrences) is the mask of the positions i whose
    masks[i] has bit b.  So holding(t), the positions whose mask contains
    t, is the AND of t's columns, and meeting(t), the positions whose mask
    meets t, is their OR.  The columns are built on the first lookup, and
    both functions cache their answers.
    """
    everyone = (1 << len(masks)) - 1
    columns = functools.cache(lambda: _occurrences(masks))

    @functools.cache
    def holding(t: int) -> int:
        hit, column = everyone, columns()
        while t:
            low = t & -t
            hit &= column.get(low, 0)
            t ^= low
        return hit

    @functools.cache
    def meeting(t: int) -> int:
        hit, column = 0, columns()
        while t:
            low = t & -t
            hit |= column.get(low, 0)
            t ^= low
        return hit

    return holding, meeting


class _Pool:
    """The generic search's candidate words, and its order-free first phase.

    masks are the sigma and rho candidates (_candidate_pool) over the
    structure's packed bits, in no particular order; words are their
    neuron sets and trunk_masks their trunks.  A trunk is the mask of
    positions in the structure's packed nonempty codewords, so the trunk of
    a mask m is trunks(m) (the codewords holding it), the trunk of a union
    is the AND of the trunks, and trunk containment is a & ~b == 0.
    in_facets[i] is the set of facets holding masks[i] (bit j for facet j),
    so a union of candidates is a face iff the AND of their in_facets is
    nonzero.
    """

    def __init__(self, s: CodeStructure):
        self.facet_masks = s.facet_masks
        self.trunks = _lookups(s.packed.masks)[0]
        self.masks = list(_candidate_pool(s.max_intersections))
        self.words = list(map(s.packed.word, self.masks))
        self.trunk_masks = list(map(self.trunks, self.masks))
        self.in_facets = [
            sum(1 << j for j, f in enumerate(self.facet_masks) if m & ~f == 0)
            for m in self.masks
        ]
        # inside(at): the words held by some facet of the facet set at
        self.inside = _lookups(self.in_facets)[1]
        # holds_trunk(t), meets_trunk(t): the words whose trunk holds, or meets, t
        self.holds_trunk, self.meets_trunk = _lookups(self.trunk_masks)
        # meets(m): the words meeting m
        self.meets = _lookups(self.masks)[1]

    def triples(self, tau: int) -> list:
        """The (i1, i2, i3) whose words pass P(i)-P(iii) and _hub_spoke_pattern
        with tau, one of each mirror pair (i1, i2, i3) and (i3, i2, i1).

        The pattern makes every sigma disjoint from tau and the sigmas
        pairwise disjoint, and puts u = sigma1|sigma2|sigma3 in no facet
        meeting tau (which implies P(ii)), so these and the trunk equalities
        of P(i) are mask tests here, and only the triples passing all of
        them reach the pattern check.  All the conditions are symmetric in
        the sigmas, which are distinct, so each set {a < b < c} of pool
        indices is tested once and stands for its three mirror pairs.
        """
        inside, in_facets, meets = self.inside, self.in_facets, self.meets
        trunk_masks, masks = self.trunk_masks, self.masks
        holds_trunk, meets_trunk = self.holds_trunk, self.meets_trunk
        meet = at_tau = 0
        for j, f in enumerate(self.facet_masks):
            meet |= (f & tau != 0) << j
            at_tau |= (tau & ~f == 0) << j
        clear = ((1 << len(self.facet_masks)) - 1) & ~meet
        # sigma|tau is a face (P(iii)), and a facet missing tau holds sigma
        live = inside(at_tau) & inside(clear)
        out = []
        for i1 in _indices(live):
            at1, tk1 = in_facets[i1], trunk_masks[i1]
            # -(2 << i) keeps the bits above bit i
            live2 = live & ~meets(masks[i1]) & inside(at1 & clear) & -(2 << i1)
            for i2 in _indices(live2):
                at12, tk2 = at1 & in_facets[i2], trunk_masks[i2]
                # u is a face and no facet holding it meets tau; Tk(s3)
                # holds Tk(s1|s2) and misses the rest of Tk(s1) | Tk(s2)
                live3 = (
                    live2
                    & ~meets(masks[i2])
                    & -(2 << i2)
                    & inside(at12 & clear)
                    & ~inside(at12 & meet)
                    & holds_trunk(tk1 & tk2)
                    & ~meets_trunk(tk1 ^ tk2)
                )
                for i3 in _indices(live3):
                    if _hub_spoke_pattern(self.facet_masks, masks[i1], masks[i2], masks[i3], tau):
                        out += [(i2, i1, i3), (i1, i2, i3), (i1, i3, i2)]
        return out


def _hub_spoke_pattern(facets, s1: int, s2: int, s3: int, tau: int) -> bool:
    """Hub facets meet two distinct spoke facets nowhere.

    The closed-form construction lives in a nerve where the facet carrying
    sigma1|sigma2|sigma3 intersects any two of the three facets carrying
    the sigma_j|tau spokes in the empty set.  Candidates violating this
    exist with identical trunk signatures in convex and non-convex codes
    alike (the remaining conditions cannot see the difference), so the
    search only emits candidates matching the pattern the construction is
    actually proven for.  Words and facets are neuron masks.

    A hub facet g and spoke facets fj, fk have g & fj & fk holding both
    sigma_j & sigma_k and g & tau, so for a partial wheel the pattern
    implies that the sigmas are pairwise disjoint and that no facet
    holding the hub meets tau (so no sigma meets tau); _Pool.triples tests
    those by masks before calling this.
    """
    hub = s1 | s2 | s3
    spokes = [[f for f in facets if (sigma | tau) & ~f == 0] for sigma in (s1, s2, s3)]
    for g in facets:
        if hub & ~g:
            continue
        for j, k in ((0, 1), (0, 2), (1, 2)):
            for fj in spokes[j]:
                for fk in spokes[k]:
                    if g & fj & fk:
                        return False
    return True


def _l24_taus(s: CodeStructure) -> set:
    """The masks of the missing taus that sit inside an induced L24 of the nerve.

    A missing tau passes when some facet g disjoint from tau and three
    facets f1, f2, f3 holding tau induce L24 in the nerve: g shares an edge
    with each fj, and no triangle of the nerve passes through g and two of
    them.  The nerve's edges and triangles are read from s.nerve_masks once,
    so each test is a set lookup.

    Only these taus can have a triple that _Pool.triples keeps.  Such a
    triple has a hub facet g holding sigma1|sigma2|sigma3 and disjoint from
    tau (the inside(at12 & clear) test), and each sigma_j has a spoke facet
    fj holding sigma_j|tau (P(iii)).  _hub_spoke_pattern makes g & fj & fk
    empty for j != k.  Pool words are nonempty, so g & fj holds sigma_j and
    g shares an edge with fj; then fj != fk, as g & fj & fj is not empty.
    So g, f1, f2, f3 are distinct (g misses the nonempty tau, which every fj
    holds) and induce L24, with tau in the triangle's intersection.
    """
    edges, triangles = set(), set()
    for face in s.nerve_masks:
        vertices = [1 << p for p in _indices(face)]
        edges.update(a | b for a, b in itertools.combinations(vertices, 2))
        triangles.update(a | b | c for a, b, c in itertools.combinations(vertices, 3))
    facet_masks = s.facet_masks
    out = set()
    for tau in s.missing:
        holding = [1 << j for j, f in enumerate(facet_masks) if tau & ~f == 0]
        for j, g in enumerate(facet_masks):
            if g & tau:  # g would make a triangle with any two spokes
                continue
            g = 1 << j
            spokes = [f for f in holding if g | f in edges]
            if any(
                g | a | b not in triangles
                and g | a | c not in triangles
                and g | b | c not in triangles
                for a, b, c in itertools.combinations(spokes, 3)
            ):
                out.add(tau)
                break
    return out


def find_sprocket(
    code: NeuralCode, budget: int = DEFAULT_BUDGET
) -> Optional[SprocketCandidate]:
    """Bounded sprocket search; None means not found within budget.

    Tries the closed-form L24 construction first, then cone peeling (a
    neuron lying in every nonempty codeword is stripped, the smaller code
    searched, and any hit revalidated against the original code), then a
    generic enumeration: tau over max-intersection faces missing from the
    code, sigmas and rhos over subsets of facet intersections, in canonical
    order on (tau, sigma1, sigma2, sigma3, rho1, rho3).  The words keep the
    code's own labels; the canonical order is that of their images under
    codes._profile_relabeling, so the outcome at a budget does not depend
    on how the neurons are labeled.  That relabeling only sets the order:
    the masks searched use the bits of the code's structure
    (CodeStructure.packed).

    The budget counts search steps: one per (sigma1, sigma2, sigma3)
    triple that passes the mirror filter (sigma3 not before sigma1 in the
    canonical order) and one per (rho1, rho3) pair tried for a partial
    wheel matching _hub_spoke_pattern.  Cone peeling spends from the same
    budget.  The generic enumeration runs in two phases on bitmasks.  Every
    missing tau is a pool word and its own witness rho, so each is searched.
    The first phase, in no particular order, finds for each tau the triples
    that can reach the witnesses (_Pool.triples).  Such a triple has a hub
    facet disjoint from tau and three spoke facets holding tau that induce
    L24 in the nerve (the lemma of _l24_taus), so the phase runs only on
    the taus passing that test of the nerve, and builds the candidate pool
    only when one passes.  If no triple is found, the order cannot matter:
    every triple of every tau is charged at once and the search returns
    None without computing the relabeling.  Otherwise the second phase
    ranks the words and the taus in the canonical order and walks the
    surviving triples in it; the triples skipped before each are charged
    in one step, so the budget spent is that of the step-by-step loop.
    The candidate or None returned at each budget, and the budget left,
    are pinned to a step-by-step frozenset reference search by the oracle
    tests in tests/test_wheels.py, at every budget up to the steps spent
    on a sample of codes, and to the same search with a nerve test that
    admits every tau.

    Emitted candidates satisfy a condition beyond is_sprocket: both
    witness trunks must lie inside Tk(tau) (see _emits).
    Candidates passing the bare S conditions but reaching outside Tk(tau)
    occur even in convex codes, so the search treats them as noise.

    Raises ValueError on a negative budget.
    """
    _check_budget(budget)
    return _find_sprocket(CodeStructure(code), [budget])


def _find_sprocket(s: CodeStructure, box: list) -> Optional[SprocketCandidate]:
    """find_sprocket on a code's structure, spending from box[0] in place."""
    code = s.code
    if len(s.facet_masks) == 4 and s.classified.class_id == "L24":
        cand = _l24_sprocket(s)
        if cand is not None:
            return cand

    nonempty = [w for w in code.codewords if w]
    if nonempty:
        common = frozenset.intersection(*nonempty)
        if common:
            stripped = NeuralCode(w - common for w in code.codewords)
            cand = _find_sprocket(CodeStructure(stripped), box)
            if cand is not None and _emits(code, cand):
                return cand

    if not s.missing:
        return None  # no tau to search, so nothing is charged
    # One budget step per (sigma1, sigma2, sigma3) with sigma3 not before
    # sigma1 (the mirror filter), size * size * (size + 1) / 2 per tau, and
    # one per (rho1, rho3).  Every missing tau is a pool word and its own
    # witness rho, so every one is searched.  Only the taus _l24_taus admits
    # can have a triple, so the pool is built only when there is one.
    admitted = _l24_taus(s)
    pool: Optional[_Pool] = _Pool(s) if admitted else None
    size = len(pool.words) if pool else len(_candidate_pool(s.max_intersections))
    per_tau = size * size * (size + 1) // 2
    triples = {tau: pool.triples(tau) for tau in admitted}
    left = box[0]
    if not any(triples.values()):
        box[0] = left - min(left, len(s.missing) * per_tau)
        return None

    words, masks, pool_trunks, trunks = pool.words, pool.masks, pool.trunk_masks, pool.trunks
    # visit candidates in the order sort_words gives on the canonical relabeling
    label = _profile_relabeling(s.packed)
    order = lambda w: (len(w), sorted(label[i] for i in w))
    rank = [0] * size
    for r, i in enumerate(sorted(range(size), key=lambda i: order(words[i]))):
        rank[i] = r
    # A tau's triples are numbered in the order of the loops over sigma1,
    # sigma2 and sigma3, so a surviving triple charges itself and the
    # skipped triples numbered before it at once, and the tau's remaining
    # triples are charged when it ends.  A block of rho pairs failing S(1)
    # on rho1 is charged at once too.  If the budget cannot cover a charge,
    # the search stops with the budget at 0, where the step-by-step loop
    # would have stopped.
    for tau in sorted(s.missing, key=lambda t: order(s.packed.word(t))):
        tk_tau = trunks(tau)
        rhos = [r for r in range(size) if pool_trunks[r] & ~tk_tau == 0]
        rhos.sort(key=rank.__getitem__)
        walk = []
        for i1, i2, i3 in triples.get(tau, ()):
            if rank[i1] > rank[i3]:
                i1, i3 = i3, i1
            r1 = rank[i1]
            # the tau's triples with sigma1 before words[i1] number
            # size * (size - r) summed over r < r1, and (r2, r3) after them
            # is number r2 * (size - r1) + r3 - r1
            before = size * (r1 * size - r1 * (r1 - 1) // 2)
            number = before + rank[i2] * (size - r1) + rank[i3] - r1
            walk.append((number, i1, i2, i3))
        walk.sort()
        done = 0  # triples of this tau charged so far
        for number, i1, i2, i3 in walk:
            need = number + 1 - done
            if left < need:
                box[0] = min(left, 0)
                return None
            left -= need
            done += need
            t1, t3, t2 = pool_trunks[i1] & tk_tau, pool_trunks[i3] & tk_tau, pool_trunks[i2]
            for r1 in rhos:
                tr1 = pool_trunks[r1]
                if t1 & ~tr1:  # S(1) fails for every rho3
                    if left < len(rhos):
                        box[0] = min(left, 0)
                        return None
                    left -= len(rhos)
                    continue
                for r3 in rhos:
                    if left <= 0:
                        box[0] = left
                        return None
                    left -= 1
                    tr3 = pool_trunks[r3]
                    if (
                        t3 & ~tr3
                        or tk_tau & ~(tr1 | tr3)
                        or trunks(masks[r1] | masks[r3] | tau) & ~t2
                    ):
                        continue
                    box[0] = left
                    cand = SprocketCandidate(
                        words[i1], words[i2], words[i3], s.packed.word(tau), words[r1], words[r3]
                    )
                    if not _emits(code, cand):
                        raise AssertionError("bitmask sprocket failed replay on the code")
                    return cand
        need = per_tau - done
        if left < need:
            box[0] = min(left, 0)
            return None
        left -= need
    box[0] = left
    return None
