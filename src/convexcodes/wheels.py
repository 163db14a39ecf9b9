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
from typing import Dict, Optional, Tuple

from .codes import (
    Codeword,
    NeuralCode,
    _profile_relabeling,
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


def _check_budget(budget: int) -> None:
    """A budget counts search steps, so it is never negative; 0 is allowed."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


# candidate faces for sigma/rho in the generic search: subsets of facet
# intersections up to this size, plus the intersections themselves
_POOL_SUBSET_BOUND = 3


def _candidate_pool(faces) -> set:
    pool = set()
    for face in faces:
        pool.add(face)
        members = sorted(face)
        for r in range(1, min(len(members), _POOL_SUBSET_BOUND) + 1):
            pool.update(frozenset(c) for c in itertools.combinations(members, r))
    return pool


class _Filled(dict):
    """A per-call cache that fills a missing key with fill(key)."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        hit = self[key] = self.fill(key)
        return hit


class _Trunks(dict):
    """Trunks on neuron masks, filled on lookup.

    bit maps each neuron to its mask bit.  A trunk is the mask of codeword
    positions in one fixed order of the codewords, so the trunk of a word
    is the AND of its neurons' columns, the trunk of a union is the AND of
    the trunks (trunk(a | b) == trunk(a) & trunk(b)), and trunk
    containment is a & ~b == 0.
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
    codes._profile_relabeling, so the outcome at a budget does not depend
    on how the neurons are labeled.

    The budget counts search steps: one per (sigma1, sigma2, sigma3)
    triple that passes the mirror filter (sigma3 not before sigma1 in the
    canonical order) and one per (rho1, rho3) pair tried for a partial
    wheel.  Cone peeling spends from the same budget.  The search itself
    runs on bitmasks: a union of candidate words is a face iff the AND of
    their facet-membership masks is nonzero, the trunk of a union is the
    AND of the trunks, and only triples passing the face and trunk-subset
    tests are visited; the triples skipped between them are charged in one
    step, so the budget spent is that of the step-by-step loop.  The
    candidate or None returned at each budget, and the budget left, are
    pinned to a step-by-step frozenset reference search by the oracle
    tests in tests/test_wheels.py, at every budget up to the steps spent
    on a sample of codes.

    Emitted candidates satisfy a condition beyond is_sprocket: both
    witness trunks must lie inside Tk(tau) (see _witnesses_cover_exactly).
    Candidates passing the bare S conditions but reaching outside Tk(tau)
    occur even in convex codes, so the search treats them as noise.

    Raises ValueError on a negative budget.
    """
    _check_budget(budget)
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
    label = _profile_relabeling(code)
    bit = {i: 1 << k for i, k in label.items()}
    order = lambda w: (len(w), sorted(label[i] for i in w))
    facet_masks = [sum(bit[i] for i in f) for f in s.facets]
    trunks = _Trunks(code, bit)  # cache for this call
    words = sorted(_candidate_pool(s.max_intersections), key=order)
    pool = [sum(bit[i] for i in w) for w in words]
    pool_trunks = [trunks[m] for m in pool]
    size = len(pool)
    # in_facets[i] is the set of facets holding pool[i] (bit j for facet j),
    # so a union of pool words is a face iff the AND of their in_facets is
    # nonzero.  inside maps a facet set to the pool indices held by one of
    # its facets, and holding maps a trunk to the pool indices whose trunk
    # contains it.
    in_facets, members = [0] * size, [0] * len(facet_masks)
    for j, f in enumerate(facet_masks):
        for i, m in enumerate(pool):
            if m & ~f == 0:
                in_facets[i] |= 1 << j
                members[j] |= 1 << i

    def held_by(at: int) -> int:
        held = 0
        for j, m in enumerate(members):
            if at >> j & 1:
                held |= m
        return held

    inside = _Filled(held_by)
    holding = _Filled(lambda t: sum(1 << i for i, tk in enumerate(pool_trunks) if t & ~tk == 0))
    # One budget step per (sigma1, sigma2, sigma3) with sigma3 in
    # pool[i1:] (the mirror filter) and one per (rho1, rho3).  A tau's
    # triples are numbered in the order of the loops over i1, i2 and i3, so
    # a triple passing the mask tests charges itself and the skipped
    # triples numbered before it at once, and the tau's remaining triples
    # are charged when it ends.  A block of rho pairs failing S(1) on rho1
    # is charged at once too.  If the budget cannot cover a charge, the
    # search stops with the budget at 0, where the step-by-step loop would
    # have stopped.
    left = box[0]
    for tau_word in sorted(s.missing, key=order):
        tau = sum(bit[i] for i in tau_word)
        tk_tau = trunks[tau]
        rhos = [r for r in range(size) if pool_trunks[r] & ~tk_tau == 0]
        if not rhos:
            continue
        at_tau = sum(1 << j for j, f in enumerate(facet_masks) if tau & ~f == 0)
        spokes = inside[at_tau]  # P(iii), per sigma
        # the spokes sigma3 for which u = s1|s2|s3 is a face but u|tau is
        # not (P(ii)), keyed by the facets holding s1|s2
        wheel_faces = _Filled(lambda at: spokes & inside[at] & ~inside[at & at_tau])
        done = 0  # triples of this tau charged so far
        live1 = spokes
        while live1:
            low = live1 & -live1
            live1 ^= low
            i1 = low.bit_length() - 1
            s1, tk1, at1, row = pool[i1], pool_trunks[i1], in_facets[i1], size - i1
            # triple (i1, i2, i3) is number first1 + i2 * row + i3 of this tau
            first1 = size * (i1 * size - i1 * (i1 - 1) // 2) - i1
            live2 = spokes & inside[at1]  # s1|s2 is a face
            while live2:
                low = live2 & -live2
                live2 ^= low
                i2 = low.bit_length() - 1
                tk2 = pool_trunks[i2]
                tk12 = tk1 & tk2
                # Tk(u) == Tk(s1|s2), u is a face, u|tau is not; bit k is i3 = i1 + k
                live3 = (holding[tk12] & wheel_faces[at1 & in_facets[i2]]) >> i1
                if not live3:
                    continue
                first = first1 + i2 * row
                while live3:
                    low = live3 & -live3
                    live3 ^= low
                    i3 = i1 + low.bit_length() - 1
                    need = first + i3 + 1 - done
                    if left < need:
                        box[0] = min(left, 0)
                        return None
                    left -= need
                    done += need
                    tk3 = pool_trunks[i3]
                    if tk1 & tk3 != tk12 or tk2 & tk3 != tk12:
                        continue
                    s2, s3 = pool[i2], pool[i3]
                    if not _hub_spoke_pattern(facet_masks, s1, s2, s3, tau):
                        continue
                    t1, t3, t2 = tk1 & tk_tau, tk3 & tk_tau, tk2
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
        need = size * size * (size + 1) // 2 - done
        if left < need:
            box[0] = min(left, 0)
            return None
        left -= need
    box[0] = left
    return None
