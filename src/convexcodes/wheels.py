"""Partial wheels, sprockets, and the bounded sprocket search.

A sprocket is a combinatorial certificate of non-convexity: four faces
(sigma1, sigma2, sigma3, tau) forming a partial wheel, plus two witness
faces (rho1, rho3) whose trunk conditions force an actual wheel in every
realization.  All predicates here are literal trunk/face computations over
the code, so every reported candidate can be replayed independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .codes import (
    Codeword,
    NeuralCode,
    _least_relabeling,
    format_word,
    is_face,
    maximal_codewords,
    trunk,
)
from .topology import CodeStructure, path_of_facets

# not called here: kept importable because the benchmark tracer patches these names
from .topology import classify_small_complex, nerve


@dataclass(frozen=True)
class SprocketCandidate:
    sigma1: Codeword
    sigma2: Codeword
    sigma3: Codeword
    tau: Codeword
    rho1: Codeword
    rho3: Codeword

    def wheel_part(self) -> tuple:
        return (self.sigma1, self.sigma2, self.sigma3, self.tau)

    def words(self) -> tuple:
        return (self.sigma1, self.sigma2, self.sigma3, self.tau, self.rho1, self.rho3)

    def text(self) -> str:
        sig = ",".join(format_word(w) for w in self.wheel_part())
        rho = ",".join(format_word(w) for w in (self.rho1, self.rho3))
        return f"(({sig}), rho=({rho}))"

    def to_json(self) -> dict:
        return {
            "sigma1": sorted(self.sigma1),
            "sigma2": sorted(self.sigma2),
            "sigma3": sorted(self.sigma3),
            "tau": sorted(self.tau),
            "rho1": sorted(self.rho1),
            "rho3": sorted(self.rho3),
        }


def _check_wheel(code: NeuralCode, facets, s1, s2, s3, tau) -> Optional[str]:
    u = s1 | s2 | s3
    if not is_face(facets, u):
        return "P(i)"
    tu = trunk(code, u)
    if trunk(code, s1 | s2) != tu or trunk(code, s1 | s3) != tu or trunk(code, s2 | s3) != tu:
        return "P(i)"
    if is_face(facets, u | tau):
        return "P(ii)"
    if not (is_face(facets, s1 | tau) and is_face(facets, s2 | tau) and is_face(facets, s3 | tau)):
        return "P(iii)"
    return None


def _check_witnesses(code: NeuralCode, cand: SprocketCandidate) -> Optional[str]:
    if not (
        trunk(code, cand.sigma1 | cand.tau) <= trunk(code, cand.rho1)
        and trunk(code, cand.sigma3 | cand.tau) <= trunk(code, cand.rho3)
    ):
        return "S(1)"
    if not trunk(code, cand.tau) <= trunk(code, cand.rho1) | trunk(code, cand.rho3):
        return "S(2)"
    if not trunk(code, cand.rho1 | cand.rho3 | cand.tau) <= trunk(code, cand.sigma2):
        return "S(3)"
    return None


def _witnesses_cover_exactly(code: NeuralCode, cand: SprocketCandidate) -> bool:
    """Both witness trunks sit inside Tk(tau), so S(2) is an equality.

    The search refuses to emit candidates without this property.  The bare
    S conditions accept tuples whose witnesses reach outside Tk(tau), and
    such tuples exist even in codes with verified convex realizations, so
    they certify nothing.  Every closed-form construction here has
    tau <= rho1 & rho3, which implies this containment, and the
    nonconvexity argument needs the witness trunks to split Tk(tau) into
    exactly two parts.
    """
    tk_tau = trunk(code, cand.tau)
    return trunk(code, cand.rho1) <= tk_tau and trunk(code, cand.rho3) <= tk_tau


def is_partial_wheel(
    code: NeuralCode, sigma1, sigma2, sigma3, tau
) -> Tuple[bool, Optional[str]]:
    """Check conditions P(i)-P(iii); report the first failure.

    P(i): the union u of the sigmas is a face and every pairwise union has
    the same trunk as u.  P(ii): u with tau is not a face.  P(iii): each
    sigma with tau is a face.  Non-faces are not errors, they just fail.
    """
    failed = _check_wheel(
        code,
        maximal_codewords(code),
        frozenset(sigma1),
        frozenset(sigma2),
        frozenset(sigma3),
        frozenset(tau),
    )
    return (failed is None, failed)


def is_sprocket(code: NeuralCode, cand: SprocketCandidate) -> Tuple[bool, Optional[str]]:
    """Partial-wheel conditions plus the trunk-witness conditions S(1)-S(3).

    Failure reports the first broken condition in the order P(i), P(ii),
    P(iii), S(1), S(2), S(3).
    """
    failed = _check_wheel(
        code, maximal_codewords(code), cand.sigma1, cand.sigma2, cand.sigma3, cand.tau
    )
    if failed is None:
        failed = _check_witnesses(code, cand)
    return (failed is None, failed)


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
    by_ref = s.by_ref
    triangle = (by_ref[1], by_ref[2], by_ref[3])
    f4 = by_ref[4]
    pof = path_of_facets(*triangle)
    if pof is None:
        return None
    f1, f2, f3 = triangle[pof.a - 1], triangle[pof.b - 1], triangle[pof.c - 1]
    cand = SprocketCandidate(
        sigma1=f1 & f4,
        sigma2=f2 & f4,
        sigma3=f3 & f4,
        tau=f1 & f2 & f3,
        rho1=f1 & f2,
        rho3=f3 & f2,
    )
    ok, _ = is_sprocket(s.code, cand)
    return cand if ok else None


DEFAULT_BUDGET = 10**6

# candidate faces for sigma/rho in the generic search: subsets of facet
# intersections up to this size, plus the intersections themselves
_POOL_SUBSET_BOUND = 3


def _search_relabeling(code: NeuralCode) -> Dict[int, int]:
    """Label-invariant map from each neuron of the support onto 1..s.

    The generic sprocket search enumerates candidates in label order, so a
    budget can run out at different structural points for two relabelings
    of the same code.  Visiting candidates in the order of a canonical
    relabeling instead makes the found/exhausted outcome a property of the
    code, not of its labels.  Neurons are partitioned by a two-round
    occurrence profile, and the support, packed onto 1..s, goes to
    codes._least_relabeling with the profile groups as its ordered cells:
    the least relabeled code over profile-respecting assignments wins, ties
    going to the least images.  Above that search's cap (judged on the full
    count of assignments, 8!) the profile order itself is used.
    """
    support = sorted(code.support())
    # word masks with bit k - 1 for the k-th neuron of the support
    packed = {i: 1 << k for k, i in enumerate(support)}
    masks = [sum(packed[i] for i in w) for w in code.codewords if w]
    occurs = [[m for m in masks if m & bit] for bit in packed.values()]
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


def _candidate_pool(faces) -> set:
    pool = set()
    for face in faces:
        pool.add(face)
        members = sorted(face)
        for r in range(1, min(len(members), _POOL_SUBSET_BOUND) + 1):
            pool.update(frozenset(c) for c in itertools.combinations(members, r))
    return pool


class _Faces(dict):
    """is_face on neuron masks (bit i for neuron i), filled on lookup."""

    def __init__(self, facets: List[int]):
        super().__init__()
        self.facets = facets

    def __missing__(self, m: int) -> bool:
        hit = self[m] = any(m & f == m for f in self.facets)
        return hit


class _Trunks(dict):
    """Trunks on neuron masks, filled on lookup.

    bit maps each neuron to its mask bit.  A trunk is the mask of codeword
    positions in one fixed order of the codewords, so the trunk of a word
    is the AND of its neurons' columns and trunk containment is
    a & ~b == 0.
    """

    def __init__(self, code: NeuralCode, bit: Dict[int, int]):
        super().__init__()
        self.all_words = (1 << len(code.codewords)) - 1
        self.columns: Dict[int, int] = {}
        for j, w in enumerate(code.codewords):
            for i in w:
                self.columns[bit[i]] = self.columns.get(bit[i], 0) | (1 << j)

    def __missing__(self, m: int) -> int:
        hit, rest = self.all_words, m
        while rest:
            bit = rest & -rest
            hit &= self.columns.get(bit, 0)
            rest ^= bit
        self[m] = hit
        return hit


def _hub_spoke_pattern(facets, s1: int, s2: int, s3: int, tau: int) -> bool:
    """Hub facets meet two distinct spoke facets nowhere.

    The closed-form construction lives in a nerve where the facet carrying
    sigma1|sigma2|sigma3 intersects any two of the three facets carrying
    the sigma_j|tau spokes in the empty set.  Candidates violating this
    exist with identical trunk signatures in convex and non-convex codes
    alike (the remaining conditions cannot see the difference), so the
    search only emits candidates matching the pattern the construction is
    actually proven for.  Words and facets are neuron masks.
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
    _search_relabeling, so the outcome at a budget does not depend on how
    the neurons are labeled.

    The budget counts search steps: one per (sigma1, sigma2, sigma3)
    triple that passes the mirror filter (sigma3 not before sigma1 in the
    canonical order) and one per (rho1, rho3) pair tried for a partial
    wheel.  Cone peeling spends from the same budget.  The candidate or
    None returned at each budget, and the budget left, are pinned to a
    step-by-step frozenset reference search by the oracle tests in
    tests/test_wheels.py.

    Emitted candidates satisfy a condition beyond is_sprocket: both
    witness trunks must lie inside Tk(tau) (see _witnesses_cover_exactly).
    Candidates passing the bare S conditions but reaching outside Tk(tau)
    occur even in convex codes, so the search treats them as noise.
    """
    return _find_sprocket(CodeStructure(code), [budget])


def _find_sprocket(s: CodeStructure, box: list) -> Optional[SprocketCandidate]:
    """find_sprocket on a code's structure, spending from box[0] in place."""
    code = s.code
    if len(s.facets) == 4 and s.classified.class_id == "L24":
        cand = _l24_sprocket(s)
        if cand is not None:
            return cand

    nonempty = [w for w in code.codewords if w]
    if nonempty:
        common = frozenset.intersection(*nonempty)
        if common:
            stripped = NeuralCode(w - common for w in code.codewords)
            cand = _find_sprocket(CodeStructure(stripped), box)
            if (
                cand is not None
                and is_sprocket(code, cand)[0]
                and _witnesses_cover_exactly(code, cand)
            ):
                return cand

    # visit candidates in the order sort_words gives on the canonical relabeling
    label = _search_relabeling(code)
    bit = {i: 1 << k for i, k in label.items()}
    order = lambda w: (len(w), sorted(label[i] for i in w))
    facet_masks = [sum(bit[i] for i in f) for f in s.facets]
    faces, trunks = _Faces(facet_masks), _Trunks(code, bit)  # caches for this call
    words = sorted(_candidate_pool(s.max_intersections), key=order)
    pool = [sum(bit[i] for i in w) for w in words]
    pool_trunks = [trunks[m] for m in pool]
    size = len(pool)
    # One budget step per (sigma1, sigma2, sigma3) with sigma3 in
    # pool[i1:] (the mirror filter) and one per (rho1, rho3).  A block
    # whose every step fails on a shared condition is charged at once; if
    # the budget cannot cover it, the search stops with the budget at 0,
    # where the step-by-step loop would have stopped.
    left = box[0]
    for tau_word in sorted(s.missing, key=order):
        tau = sum(bit[i] for i in tau_word)
        tk_tau = trunks[tau]
        rhos = [r for r in range(size) if pool_trunks[r] & ~tk_tau == 0]
        if not rhos:
            continue
        spoke = [faces[m | tau] for m in pool]  # P(iii), per sigma
        for i1, s1 in enumerate(pool):
            row = size - i1
            if not spoke[i1]:
                if left < size * row:
                    box[0] = min(left, 0)
                    return None
                left -= size * row
                continue
            for i2, s2 in enumerate(pool):
                s12 = s1 | s2
                if not (spoke[i2] and faces[s12]):
                    if left < row:
                        box[0] = min(left, 0)
                        return None
                    left -= row
                    continue
                t12 = trunks[s12]
                for i3 in range(i1, size):
                    if left <= 0:
                        box[0] = left
                        return None
                    left -= 1
                    if not spoke[i3]:
                        continue
                    s3 = pool[i3]
                    u = s12 | s3
                    if not faces[u] or faces[u | tau]:
                        continue
                    tu = trunks[u]
                    if t12 != tu or trunks[s1 | s3] != tu or trunks[s2 | s3] != tu:
                        continue
                    if not _hub_spoke_pattern(facet_masks, s1, s2, s3, tau):
                        continue
                    t1, t3, t2 = trunks[s1 | tau], trunks[s3 | tau], pool_trunks[i2]
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
                                or trunks[pool[r1] | pool[r3] | tau] & ~t2
                            ):
                                continue
                            box[0] = left
                            cand = SprocketCandidate(
                                words[i1], words[i2], words[i3], tau_word, words[r1], words[r3]
                            )
                            if not is_sprocket(code, cand)[0] or not _witnesses_cover_exactly(
                                code, cand
                            ):
                                raise AssertionError("bitmask sprocket failed replay on the code")
                            return cand
    box[0] = left
    return None
