"""Seeded benchmark inputs and the independent oracles that check them.

Nothing in this module imports convexcodes.  Requests are built from a
seed alone, and the facts the checker compares against (the minimal code
of a facet family, its max-intersection faces, which branch of the decider
must fire) are computed here from first principles.

A facet family is drawn the way the atlas thinks of it: every neuron picks
a nonempty "cell" (the set of facets containing it), and the facets are
read off the cells.  The request code is minimal_code(F) | S, where S is a
seeded subset of the max-intersection faces of F.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# Golden codes from the paper, with the first certificate the decider must
# print for each (None: only the verdict is fixed).
C24_TEXT = "123, 1246, 145, 356, 12, 14, 3, 5, 6"
GOLDEN = [
    ("C22", "134, 1357, 257, 356, 13, 35, 57", "CONVEX", "TheoremNoLocalObstruction: L22"),
    ("C24", C24_TEXT, "NONCONVEX", "L24MinimalPoFSprocket: ((3,6,5,1), rho=(12,14))"),
    ("C18A", "345, 234, 356, 12, 34, 35, 2", "CONVEX", "TheoremNoLocalObstruction: L18"),
    ("C18B", "123, 1346, 145, 67, 13, 14, 6", "CONVEX", "TheoremNoLocalObstruction: L18"),
    ("W3", "123, 145, 246, 1356, 13, 15, 2, 4, 6", "NONCONVEX", None),
    # the cone of C24 over a fresh neuron 7
    ("D28", "1237, 12467, 1457, 3567, 127, 147, 37, 57, 67", "NONCONVEX", None),
    ("C26printed", "2345, 123, 134, 145, 13, 14, 23, 34, 45, 4, 5", "NONCONVEX",
     "LocalObstruction: mandatory face {3} is not a codeword"),
    # open case: any answer but CONVEX is acceptable
    ("C26corrected", "2345, 123, 134, 145, 13, 14, 23, 34, 45, 4, 5, 3", "!CONVEX", None),
]

GOLDEN_COMMANDS = (
    ("decide",),
    ("analyze", "--json"),
    ("realize",),
    ("nerve",),
)

# The three CLI examples of the README, byte for byte: (argv, exit, stdout).
README_EXAMPLES = [
    (["decide", C24_TEXT], 1,
     "NONCONVEX\n  L24MinimalPoFSprocket: ((3,6,5,1), rho=(12,14))\n"),
    (["decide", "134, 1357, 257, 356, 13, 35, 57"], 0,
     "CONVEX\n  TheoremNoLocalObstruction: L22\n"),
    (["nerve", "134, 1357, 257, 356, 13, 35, 57"], 0,
     "facets (4): 134,257,356,1357\n"
     "class: L22\n"
     "relabeling (facet position -> reference vertex): 1->1, 2->4, 3->2, 4->3\n"
     "contractible: true\n"),
]

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # kept out of tuning; re-check claims on it

ATLAS_SIZES = ((6, 4, 287), (5, 5, 48))  # (neurons, facets, expected rows)

# sprocket budget of the seeded requests: a search that exhausts it answers UNKNOWN
SPROCKET_BUDGET = 10_000

# random families per list: (no sprocket search, search within budget, budget exhausted)
FOUR_FACET_RANDOM = (250, 80, 30)
FOUR_FACET_L24 = 24
FOUR_FACET_CONES = 24
WIDE_RANDOM = (110, 40, 40)
WIDE_DISCONNECTED = 24
# collapse-family sizes, each with and without {1}; at 10 facets one
# request takes about 3 s and would be most of a wide pass
COLLAPSE_FACETS = range(6, 10)


# --- oracles ---------------------------------------------------------------

def mi_faces(facets) -> set:
    """Nonempty intersections of two or more facets, by brute force."""
    out = set()
    for r in range(2, len(facets) + 1):
        for combo in itertools.combinations(facets, r):
            x = frozenset.intersection(*combo)
            if x:
                out.add(x)
    return out


def _nerve_faces(sets) -> list:
    """Index sets of the nerve: nonempty subsets with a common element."""
    k = len(sets)
    faces = []
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            if frozenset.intersection(*(sets[i] for i in combo)):
                faces.append(combo)
    return faces


def _connected(sets) -> bool:
    seen = {0}
    todo = [0]
    while todo:
        i = todo.pop()
        for j, s in enumerate(sets):
            if j not in seen and s & sets[i]:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(sets)


def _dominance_reduce(sets) -> list:
    """Drop dominated sets and dominated elements until nothing changes.

    A set contained in another, and an element whose occurrence pattern is
    contained in another element's, can be removed without changing the
    homotopy type of the nerve.  Ends at one set exactly when the nerve is
    strong-collapsible.
    """
    sets = [frozenset(s) for s in sets]
    changed = True
    while changed and len(sets) > 1:
        changed = False
        for i, s in enumerate(sets):
            if any(j != i and (s < t or (s == t and j < i)) for j, t in enumerate(sets)):
                del sets[i]
                changed = True
                break
        if changed:
            continue
        universe = sorted(frozenset().union(*sets))
        cells = {x: frozenset(i for i, s in enumerate(sets) if x in s) for x in universe}
        for x in universe:
            if any(y != x and (cells[x] < cells[y] or (cells[x] == cells[y] and y < x))
                   for y in universe):
                sets = [s - {x} for s in sets]
                changed = True
                break
    return sets


def link_contractible(facets, sigma):
    """Contractibility of the link of sigma: True, False, or None (unknown).

    The link is homotopy equivalent to the nerve of {F - sigma : sigma <= F}.
    On at most four sets "connected with Euler characteristic 1" is exact;
    beyond that those two are only necessary, and dominance reduction to a
    single set is the sufficient test.
    """
    sets = [f - sigma for f in facets if sigma <= f]
    if any(not s for s in sets):
        return False  # sigma is a facet: empty link
    chi = sum((-1) ** (len(face) - 1) for face in _nerve_faces(sets))
    necessary = _connected(sets) and chi == 1
    if len(sets) <= 4 or not necessary:
        return necessary
    return True if len(_dominance_reduce(sets)) == 1 else None


def minimal_code(facets):
    """Codewords of the minimal code of a facet family, or None if unknown."""
    words = {frozenset()} | set(facets)
    for sigma in mi_faces(facets):
        if sigma in words:
            continue
        res = link_contractible(facets, sigma)
        if res is None:
            return None
        if not res:
            words.add(sigma)
    return words


def _nerve_components(facets) -> int:
    parent = list(range(len(facets)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(facets)), 2):
        if facets[i] & facets[j]:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(facets))})


def expected_branch(facets, words):
    """The certificate kind the decider's pipeline order forces, or None.

    Holds for codes containing their minimal code: no local obstruction,
    then max-intersection completeness, then the <=3-facet theorem, then
    (five or more facets) the component split.  The no-2-simplex branch
    cannot fire here: without a face shared by three facets every
    max-intersection face is mandatory, so the code is already complete.
    """
    if mi_faces(facets) <= words:
        return "MaxIntersectionComplete"
    m = len(facets)
    if m <= 3:
        return "TheoremNoLocalObstruction"
    if m >= 5 and _nerve_components(facets) > 1:
        return "DisconnectedDecomposition"
    return None


# --- generators ------------------------------------------------------------

def _word_text(word) -> str:
    return "{" + ",".join(str(i) for i in sorted(word)) + "}"


def code_text(words) -> str:
    """Braced code text, codewords sorted by (size, lex)."""
    nonempty = sorted((w for w in words if w), key=lambda w: (len(w), sorted(w)))
    return ",".join(_word_text(w) for w in nonempty)


def _sorted_words(words) -> list:
    return sorted(words, key=lambda w: (len(w), sorted(w)))


def _is_antichain(facets) -> bool:
    return all(facets) and all(not a <= b for a, b in itertools.permutations(facets, 2))


def _from_cells(rng, k, cells) -> list:
    """Facets 1..k read off one cell per neuron, under shuffled labels."""
    labels = rng.sample(range(1, len(cells) + 1), len(cells))
    return _sorted_words(
        frozenset(labels[n] for n, c in enumerate(cells) if i in c) for i in range(k)
    )


def random_family(rng, k, max_neurons) -> list:
    """k facets forming an antichain, on at most max_neurons packed neurons."""
    proper = [frozenset(c) for r in range(1, k) for c in itertools.combinations(range(k), r)]
    full = frozenset(range(k))
    while True:
        t = rng.randint(k, max_neurons)
        # uniform proper cells, plus rare neurons shared by every facet
        cells = [full if rng.random() < 0.08 else rng.choice(proper) for _ in range(t)]
        facets = _from_cells(rng, k, cells)
        if _is_antichain(facets):
            return facets


def l24_family(rng, max_neurons) -> list:
    """Four facets whose nerve is a filled triangle (facets 0,1,2) plus a cone point 3.

    Every spoke pair {i,3} and the triangle get a neuron; the triangle's
    edge cells are a random subset, which decides Path-of-Facets.
    """
    while True:
        cells = [frozenset({0, 1, 2}), frozenset({0, 3}), frozenset({1, 3}), frozenset({2, 3})]
        cells += [frozenset(e) for e in ((0, 1), (0, 2), (1, 2)) if rng.random() < 0.5]
        while len(cells) < max_neurons and rng.random() < 0.5:
            cells.append(frozenset({rng.randrange(4)}))
        if len(cells) <= max_neurons:
            facets = _from_cells(rng, 4, cells)
            if _is_antichain(facets):
                return facets


def search_space(words) -> float:
    """Size of the generic sprocket search space of a code.

    (missing max-intersection faces) x (candidate faces)^2 x ((candidate
    faces) + 1) / 2, over the code and, when one neuron lies in every
    codeword, its cone-stripped base too.  The candidates are the
    max-intersection faces and their subsets of up to three neurons.
    """
    nonempty = [w for w in words if w]
    facets = [w for w in nonempty if not any(w < o for o in nonempty)]
    mi = mi_faces(facets)
    taus = [t for t in mi if t not in words]
    if not taus:
        return 0.0
    pool = set(mi)
    for f in mi:
        for r in range(1, min(3, len(f)) + 1):
            pool.update(frozenset(c) for c in itertools.combinations(sorted(f), r))
    size = len(taus) * len(pool) ** 2 * (len(pool) + 1) / 2
    common = frozenset.intersection(*nonempty)
    if common:
        size += search_space({w - common for w in words})
    return size


def _searches(facets, words) -> bool:
    """Whether decide reaches the generic sprocket search on this code.

    For codes holding their minimal code: not when max-intersection
    complete or on at most three facets; on four facets only for the
    nerves with every edge and some triangle (L24-L28), minimal L24 codes
    excepted; on five or more only for connected nerves.
    """
    if mi_faces(facets) <= words or len(facets) <= 3:
        return False
    if len(facets) >= 5:
        return _nerve_components(facets) == 1
    if not all(a & b for a, b in itertools.combinations(facets, 2)):
        return False
    triangles = sum(1 for c in itertools.combinations(facets, 3) if frozenset.intersection(*c))
    return triangles > 1 or (triangles == 1 and words != minimal_code(facets))


def search_work(facets, words) -> float:
    """Expected sprocket-search steps: the search space, capped by the budget."""
    if not _searches(facets, words):
        return 0.0
    return min(float(SPROCKET_BUDGET), search_space(words))


def _with_extra_faces(rng, facets, words) -> set:
    """minimal code | S, S a seeded subset of the max-intersection faces.

    Half the requests keep the minimal code itself, which is where the
    theorem branches and the builders apply.
    """
    if rng.random() < 0.5:
        return set(words)
    optional = _sorted_words(mi_faces(facets) - words)
    return set(words) | {w for w in optional if rng.random() < 0.5}


def _request(op, facets, minimal, words, expect=None) -> dict:
    missing = mi_faces(facets) - words
    return {
        "op": op,
        "code": code_text(words),
        "facets": [sorted(f) for f in facets],
        "minimal": code_text(minimal),
        "expect": expected_branch(facets, words) or expect,
        "large_link": any(sum(1 for f in facets if s <= f) > 4 for s in missing),
    }


def _family_request(rng, draw, op, minimal_expect=None) -> dict:
    while True:
        facets = draw()
        words = minimal_code(facets)
        if words is not None:
            break
    code = _with_extra_faces(rng, facets, words)
    return _request(op, facets, words, code, minimal_expect if code == words else None)


def _stratified(rng, draw_request, quotas, oversample=4) -> list:
    """Requests in fixed numbers per search class, sampled systematically.

    quotas counts requests that do not search, that search less than the
    budget, and that exhaust it.  Candidates are drawn until each class
    has oversample times its quota, ranked by search_work (then code size),
    and every oversample-th is kept.  Fixed class sizes and the ranking
    keep the amount of search work nearly the same for every seed, so
    run-to-run spread reflects the program, not the draw.
    """
    groups = tuple([] for _ in quotas)
    while any(len(g) < oversample * q for g, q in zip(groups, quotas)):
        req = draw_request()
        words = set(_parse_braced(req["code"])) | {frozenset()}
        work = search_work([frozenset(f) for f in req["facets"]], words)
        cls = 0 if work == 0 else (2 if work >= SPROCKET_BUDGET else 1)
        if len(groups[cls]) < oversample * quotas[cls]:
            groups[cls].append((work, len(words), rng.random(), req))
    out = []
    for group, quota in zip(groups, quotas):
        group.sort(key=lambda row: row[:3])
        offset = rng.randrange(oversample)
        out += [group[offset + i * oversample][3] for i in range(quota)]
    return out


def _parse_braced(text) -> list:
    return [frozenset(int(x) for x in w.split(",")) for w in text[1:-1].split("},{")] if text else []


def collapse_family(rng, m):
    """A relabeled link-collapse family: {1,50,100+i} (i<m), {1,60,200}, {1,50,60}."""
    raw = [frozenset({1, 50, 100 + i}) for i in range(m)]
    raw += [frozenset({1, 60, 200}), frozenset({1, 50, 60})]
    neurons = sorted(frozenset().union(*raw))
    image = dict(zip(neurons, rng.sample(range(1, len(neurons) + 1), len(neurons))))
    return _sorted_words(frozenset(image[i] for i in f) for f in raw), image[1]


def _disconnected_family(rng) -> list:
    """A 4-facet family plus one or two facets on fresh neurons (<= 7 in all)."""
    base = random_family(rng, 4, 5)
    top = max(frozenset().union(*base))
    fresh = list(range(top + 1, 8))
    if len(fresh) >= 3 and rng.random() < 0.5:
        a, b, c = fresh[:3]
        extra = [frozenset({a, b}), frozenset({b, c})]
    else:
        extra = [frozenset(fresh[: rng.randint(1, min(2, len(fresh)))])]
    return _sorted_words(base + extra)


def four_facet_requests(seed: int) -> list:
    rng = random.Random(f"four-facet:{seed}")
    golden = [
        {"op": "cli", "argv": [cmd[0], text, *cmd[1:]], "golden": name}
        for name, text, _verdict, _cert in GOLDEN
        for cmd in GOLDEN_COMMANDS
    ]
    # mostly four facets, one family in five has three
    random_part = _stratified(
        rng,
        lambda: _family_request(
            rng, lambda: random_family(rng, 3 if rng.random() < 0.2 else 4, 8), "analyze"
        ),
        FOUR_FACET_RANDOM,
    )
    l24 = [
        _family_request(rng, lambda: l24_family(rng, 8), "analyze", "L24MinimalPoFSprocket")
        for _ in range(FOUR_FACET_L24)
    ]
    # cone of an L24 family over a fresh neuron: found by cone peeling
    cones = [
        _family_request(rng, lambda: _cone(l24_family(rng, 7)), "analyze", "Sprocket")
        for _ in range(FOUR_FACET_CONES)
    ]
    seeded = random_part + l24 + cones
    rng.shuffle(seeded)
    return golden + seeded


def _cone(facets) -> list:
    apex = max(frozenset().union(*facets)) + 1
    return _sorted_words(f | {apex} for f in facets)


def wide_requests(seed: int) -> list:
    rng = random.Random(f"wide:{seed}")
    out = _stratified(
        rng,
        lambda: _family_request(rng, lambda: random_family(rng, rng.choice((5, 6)), 7), "decide"),
        WIDE_RANDOM,
    )
    out += [
        _family_request(rng, lambda: _disconnected_family(rng), "decide")
        for _ in range(WIDE_DISCONNECTED)
    ]
    rng.shuffle(out)
    # the collapse family goes first: its collapse search sets the peak
    # memory, which then does not depend on what ran before it
    collapse = []
    for size in COLLAPSE_FACETS:
        for with_cone_point in (False, True):
            facets, apex = collapse_family(rng, size - 2)
            minimal = minimal_code(facets)
            words = minimal | {frozenset({apex})} if with_cone_point else minimal
            collapse.append(_request("decide", facets, minimal, words))
    return collapse + out


def atlas_requests(seed: int) -> list:
    # the atlas is fixed; the seed only orders the two runs
    out = [{"op": "atlas", "neurons": n, "facets": k, "rows": rows} for n, k, rows in ATLAS_SIZES]
    random.Random(f"atlas:{seed}").shuffle(out)
    return out


GENERATORS = {
    "four-facet": four_facet_requests,
    "wide": wide_requests,
    "atlas": atlas_requests,
}


def requests_digest(requests) -> str:
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
