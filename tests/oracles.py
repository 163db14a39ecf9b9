"""Independent oracles the golden values are checked against.

Everything here recomputes from first principles: full face posets,
exhaustive elementary-collapse search, GF(2) homology by elimination on
face sets, and pointwise membership sampling with exact rationals.
Nothing imports the package's classification table or the arrangement
code under test, with the exceptions below.  Two reference searches reuse
package data: the classification scan reads the L1..L28 reference catalog
(not the lookup table built from it, nor its set of contractible classes;
REFERENCE_COMPLEXES holds the catalog as sorted facet tuples), and the
sprocket search reuses the package's predicates (nerve classification,
the canonical L24 construction and is_sprocket) around the search loop
it checks.  The
face-enumerating nerve, the recursive collapse search and the link test
built on them (facet-difference sets, then connected with Euler
characteristic 1, then the collapse search) are the code the mask-only
versions replaced; the link test decides links on at most four vertices
with contractible_small, not with the package's class table.
The canonical-form and atlas-enumeration references and the realization
validator reuse only the package's value types, and the atlas one its
codeword order.  The facet scan and the max-intersection closure are the
frozenset versions that the mask routines of codes replaced, and the
reference sprocket searches read their facets and max-intersection faces
from these two; the frozenset Path-of-Facets test is the one the mask
routine of topology replaced, and the nerve test of the sprocket search's
taus is the one the facet-trace test of wheels replaced: it reads the
facets, missing faces and nerve of the package's CodeStructure.  The
validator is the Fraction code that the integer forms of realize.geometry
replaced, with its own star rule.
The 2-D arrangement sampler is the one the column sweep replaced: it
tests each sample against every edge of every polygon.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd, lcm


def face_poset(facets):
    """All nonempty faces of the complex generated by the given facets."""
    faces = set()
    for f in facets:
        f = frozenset(f)
        for r in range(1, len(f) + 1):
            for s in combinations(sorted(f), r):
                faces.add(frozenset(s))
    return faces


def euler_characteristic(facets):
    return sum((-1) ** (len(f) - 1) for f in face_poset(facets))


def is_connected(facets):
    facets = [frozenset(f) for f in facets if f]
    if not facets:
        return False
    verts = set().union(*facets)
    seen = set(facets[0])
    grew = True
    while grew:
        grew = False
        for f in facets:
            if f & seen and not f <= seen:
                seen |= f
                grew = True
    return seen == verts


def gf2_rank(rows):
    """Rank over GF(2) of rows given as sets of column keys, by elimination
    on each row's least key (keys compared as sorted lists)."""
    rows = [set(r) for r in rows]
    rank = 0
    while rows:
        row = rows.pop()
        if row:
            pivot = min(row, key=sorted)
            rows = [r ^ row if pivot in r else r for r in rows]
            rank += 1
    return rank


def is_acyclic_gf2(facets):
    """Whether every reduced homology group over GF(2) vanishes.

    Per face size k, the reduced Betti number is the number of faces of
    size k minus the ranks of the boundary out of and into them; the
    boundary out of the vertices is the augmentation, of rank 1.  The empty
    complex has nonzero reduced homology in degree -1.
    """
    faces = face_poset(facets)
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)

    def boundary_rank(k):
        if k == 1:
            return 1
        return gf2_rank([{f - {v} for v in f} for f in by_size.get(k, ())])

    return bool(faces) and all(
        len(by_size[k]) == boundary_rank(k) + boundary_rank(k + 1) for k in by_size
    )


def is_collapsible(facets):
    """Exhaustive search for a sequence of elementary collapses to a point.

    A free pair is a face contained in exactly one other face, that other
    face being exactly one element larger.  Backtracking over all free
    pairs; complexes here are tiny (<= 4 vertices) so this terminates fast.
    """
    faces = frozenset(face_poset(facets))
    if not faces:
        return False

    seen = set()

    def rec(state):
        if len(state) == 1:
            return True
        if state in seen:
            return False
        seen.add(state)
        by_size = {}
        for f in state:
            by_size.setdefault(len(f), []).append(f)
        for f in state:
            supers = [g for g in by_size.get(len(f) + 1, ()) if f < g]
            if len(supers) == 1 and not any(
                f < g for k, gs in by_size.items() if k > len(f) + 1 for g in gs
            ):
                if rec(state - {f, supers[0]}):
                    return True
        return False

    return rec(faces)


def contractible_small(facets):
    """Contractibility for complexes on <= 4 vertices.

    On so few vertices contractible and collapsible coincide, but that
    equivalence is itself part of what is being certified: any complex that
    passes the necessary conditions (connected, reduced Euler characteristic
    zero) yet fails to collapse would be a counterexample to the whole
    reduction and must abort the test run rather than return a guess.
    """
    verts = set().union(*(frozenset(f) for f in facets)) if facets else set()
    if len(verts) > 4:
        raise ValueError("oracle limited to 4 vertices")
    collapsible = is_collapsible(facets)
    necessary = is_connected(facets) and euler_characteristic(facets) == 1
    if necessary and not collapsible:
        raise AssertionError(
            f"connected chi=1 complex failed to collapse: {sorted(map(sorted, facets))}"
        )
    return collapsible


def reference_nerve(sets):
    """Nerve of a list of nonempty sets, on vertex labels 1..m.

    A subset S of positions is a face iff the sets indexed by S have a
    common element.  Every face is listed; the maximal ones are returned,
    as a tuple in word_sort_key order.
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
    return _maximal_sorted(faces)


def _maximal_sorted(sets):
    """The inclusion-maximal members of a collection of frozensets, as a
    tuple in word_sort_key order."""
    from convexcodes.codes import sort_words

    sets = set(sets)
    return tuple(sort_words(f for f in sets if not any(f < g for g in sets)))


def reference_is_collapsible(faces, budget=200_000):
    """Whether the complex collapses to a point by elementary collapses.

    Backtracking over all collapse orders with memoization; None when the
    state budget runs out (possible only for larger inputs, never for
    complexes on at most four vertices).
    """
    start = frozenset(frozenset(f) for f in faces)
    if not start:
        return False
    memo = {}
    remaining = [budget]

    def rec(state):
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


def link_facet_sets(facets, sigma):
    """The facet-difference sets {F - sigma : sigma <= F}, deduplicated.

    Order-stable by facet position.  Feeding the result to a nerve gives a
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


def reference_is_link_contractible(facets, sigma):
    """True/False for contractibility of the link of sigma, else INDETERMINATE.

    Exact for links whose facet-difference nerve has at most four vertices.
    The link of a facet itself has empty geometric realization and counts as
    non-contractible, which is what makes facets mandatory.
    """
    from convexcodes.topology import INDETERMINATE

    s = frozenset(sigma)
    if not s:
        raise ValueError("sigma must be a nonempty face")
    diffs = link_facet_sets(facets, s)
    if diffs == [frozenset()]:
        return False
    link_nerve = reference_nerve(diffs)
    if len(frozenset().union(*link_nerve)) <= 4:
        return contractible_small(link_nerve)
    if not is_connected(link_nerve) or euler_characteristic(link_nerve) != 1:
        return False
    coll = reference_is_collapsible(face_poset(link_nerve))
    if coll:
        return True
    # non-collapsible or budget exhausted: cannot conclude at this size
    return INDETERMINATE


def _reference_complexes():
    from convexcodes.topology import _REF

    return {name: _maximal_sorted(map(frozenset, facets)) for name, facets in _REF.items()}


# the L1..L28 reference catalog of convexcodes.topology, one complex per class
REFERENCE_COMPLEXES = _reference_complexes()


def reference_classify_small_complex(faces):
    """Permutation-scan classification of the complex whose faces lie in
    the given sets, on 1..4 vertices.

    The loop convexcodes.topology.classify_small_complex replaced with a
    table lookup: every reference class on as many vertices times every
    relabeling in lex order, so the first hit is the least witness.
    Contractibility comes from contractible_small on the reference facets.
    """
    from convexcodes.topology import ClassifiedNerve

    input_facets = frozenset(_maximal_sorted(map(frozenset, faces)))
    verts = sorted(frozenset().union(*input_facets))
    k = len(verts)
    if not 1 <= k <= 4:
        raise ValueError(f"classification requires 1..4 vertices, got {k}")
    for class_id, reference in REFERENCE_COMPLEXES.items():
        if len(frozenset().union(*reference)) != k:
            continue
        ref = frozenset(reference)
        for images in permutations(range(1, k + 1)):
            mapping = dict(zip(verts, images))
            mapped = frozenset(frozenset(mapping[v] for v in f) for f in input_facets)
            if mapped == ref:
                # permutations() yields images in lex order, so the first
                # valid assignment is the least witness
                return ClassifiedNerve(
                    class_id,
                    tuple(sorted(mapping.items())),
                    contractible_small(ref),
                )
    raise AssertionError("complex matched no reference class; catalog is broken")


def interval_code_oracle(regions):
    """Generated code of open intervals by brute pointwise sampling.

    regions maps neuron -> (lo, hi) Fractions.  Sample points are every
    endpoint, every midpoint between consecutive distinct endpoints, and one
    point beyond each end of the configuration.
    """
    endpoints = sorted({x for lo_hi in regions.values() for x in lo_hi})
    samples = [endpoints[0] - 1, endpoints[-1] + 1]
    samples.extend(endpoints)
    for a, b in zip(endpoints, endpoints[1:]):
        samples.append((a + b) / 2)
    words = set()
    for x in samples:
        words.add(frozenset(k for k, (lo, hi) in regions.items() if lo < x < hi))
    return words


def rectangle_code_oracle(rects):
    """Generated code of open axis-parallel rectangles by grid sampling.

    rects maps neuron -> (x1, x2, y1, y2) with x1 < x2, y1 < y2.  The grid
    refines every rectangle coordinate on each axis, so each grid cell, grid
    edge, and grid vertex is sampled and membership is constant on each.
    """

    def axis_samples(coords):
        coords = sorted(set(coords))
        out = [coords[0] - 1, coords[-1] + 1]
        out.extend(coords)
        for a, b in zip(coords, coords[1:]):
            out.append(Fraction(a + b, 2))
        return out

    xs = axis_samples([c for r in rects.values() for c in r[:2]])
    ys = axis_samples([c for r in rects.values() for c in r[2:]])
    words = set()
    for x in xs:
        for y in ys:
            words.add(
                frozenset(
                    k
                    for k, (x1, x2, y1, y2) in rects.items()
                    if x1 < x < x2 and y1 < y < y2
                )
            )
    return words


def strict_hull(points):
    """Counterclockwise strict convex hull (no collinear points) by monotone
    chain, starting at the least point."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def reference_validate(r):
    """validate on Fractions, as before the integer forms.

    A polygon whose turns are all left must also be its own strict hull:
    the monotone-chain hull holds all of its vertices, in the given cyclic
    order.  That rules out stars, which turn left at every vertex.
    """
    from convexcodes import Interval, Polygon

    problems = []
    if r.dimension not in (1, 2):
        return [f"dimension {r.dimension} unsupported"]
    for neuron in sorted(r.regions):
        region = r.regions[neuron]
        if r.dimension == 1:
            if not isinstance(region, Interval):
                problems.append(f"neuron {neuron}: region type does not match dimension")
            elif not region.lo < region.hi:
                problems.append(f"neuron {neuron}: empty interval")
            continue
        if not isinstance(region, Polygon):
            problems.append(f"neuron {neuron}: region type does not match dimension")
            continue
        vs = []
        for v in region.vertices:
            if not vs or v != vs[-1]:
                vs.append(v)
        if len(vs) > 1 and vs[0] == vs[-1]:
            vs.pop()
        if len(vs) < 3:
            problems.append(f"neuron {neuron}: fewer than 3 vertices")
            continue
        n = len(vs)
        crosses = []
        for i in range(n):
            ax, ay = vs[i]
            bx, by = vs[(i + 1) % n]
            cx, cy = vs[(i + 2) % n]
            crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
        hull = strict_hull(vs)
        own_hull = len(hull) == n and any(hull == vs[k:] + vs[:k] for k in range(n))
        if all(c < 0 for c in crosses):
            problems.append(f"neuron {neuron}: orientation (vertices are clockwise)")
        elif not all(c > 0 for c in crosses) or not own_hull:
            problems.append(f"neuron {neuron}: not strictly convex")
    return problems


# ---------------------------------------------------------------------------
# Reference arrangement sampler: the sample-by-edge loop the column sweep of
# convexcodes.realize.geometry replaced, unchanged, with the helpers it called
# (vertex dedup, edge half-planes, line normalization) copied in.


def _reference_refine(values, one):
    if not values:
        return [0]
    vs = sorted(set(values))
    out = [2 * (vs[0] - one)]
    for a, b in zip(vs, vs[1:]):
        out.append(2 * a)
        out.append(a + b)
    out.append(2 * vs[-1])
    out.append(2 * (vs[-1] + one))
    return out


def _reference_halfplanes(q, scaled):
    vs = []
    for v in scaled:
        if not vs or v != vs[-1]:
            vs.append(v)
    if len(vs) > 1 and vs[0] == vs[-1]:
        vs.pop()
    out = []
    for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1]):
        a, b = (py - qy) * q, (qx - px) * q
        c = (py - qy) * px + (qx - px) * py
        g = gcd(a, b, c)
        out.append((a // g, b // g, c // g))
    return out


def reference_patterns_2d(forms):
    """Membership patterns over all faces of the edge-line arrangement of
    the polygons given in integer form (q, vertices × q), as frozensets of
    polygon indices.

    Every line crossing of every column is a sample, and each sample is
    tested against every edge half-plane a*x + b*y > c of every polygon.
    """
    halfplanes = [_reference_halfplanes(q, scaled) for q, scaled in forms]
    lines = sorted({
        (a, b, c) if a > 0 or (a == 0 and b > 0) else (-a, -b, -c)
        for hp in halfplanes for a, b, c in hp
    })
    big = lcm(*(b for _a, b, _c in lines if b))
    crossings = [(a, c, big // b) for a, b, c in lines if b]

    xs = []
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            xs.append(Fraction(c1 * b2 - c2 * b1, det))
    xs.extend(Fraction(c, a) for a, b, c in lines if b == 0)

    words = set()  # bit i set: the sample lies inside polygon i
    for x2 in _reference_refine(xs, 1):
        px, qx = x2.numerator, 2 * x2.denominator
        scale = big * qx
        den = 2 * scale
        column = [[((a * px - c * qx) * den, b * qx) for a, b, c in hp] for hp in halfplanes]
        for y2 in _reference_refine([(c * qx - a * px) * k for a, c, k in crossings], scale):
            word = 0
            for idx, edges in enumerate(column):
                for u, v in edges:
                    if u + v * y2 <= 0:
                        break
                else:
                    word |= 1 << idx
            words.add(word)
    return frozenset(
        frozenset(idx for idx in range(len(forms)) if word >> idx & 1) for word in words
    )


# ---------------------------------------------------------------------------
# Reference sprocket search: the frozenset loop the bitmask kernel in
# convexcodes.wheels replaced, kept step for step so the kernel can be
# checked against it at every budget.  Face and trunk queries are plain
# frozenset comprehensions over the code, cached per call.


def reference_tie_groups(code):
    """The support split by two-round occurrence profile, in profile order."""
    support = sorted(frozenset().union(*code.codewords))
    words = [w for w in code.codewords if w]
    prof1 = {
        i: tuple(sorted(len(w) for w in words if i in w)) for i in support
    }
    rank1 = {p: r for r, p in enumerate(sorted(set(prof1.values())))}
    prof2 = {
        i: (
            prof1[i],
            tuple(sorted(tuple(sorted(rank1[prof1[j]] for j in w)) for w in words if i in w)),
        )
        for i in support
    }
    ordered = sorted(support, key=lambda i: (prof2[i], i))
    groups = []
    for i in ordered:
        if groups and prof2[groups[-1][0]] == prof2[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def reference_search_relabeling(code):
    """Profile-respecting lex-least relabeling onto 1..s, plus its inverse.

    Among the assignments that reach the least code, the one whose images
    of the sorted support form the least tuple wins.
    """
    from convexcodes.codes import _RELABEL_CAP, NeuralCode, sort_words, word_sort_key

    if not frozenset().union(*code.codewords):
        return code, {}
    groups = reference_tie_groups(code)
    total = 1
    for g in groups:
        for size in range(2, len(g) + 1):
            total *= size
    if total > _RELABEL_CAP:
        pools = [[tuple(g)] for g in groups]
    else:
        pools = [list(permutations(g)) for g in groups]

    support = sorted(frozenset().union(*code.codewords))
    best = None
    for combo in product(*pools):
        mapping = {}
        next_label = 1
        for g in combo:
            for i in g:
                mapping[i] = next_label
                next_label += 1
        relabeled = sort_words(frozenset(mapping[i] for i in w) for w in code.codewords)
        key = tuple(word_sort_key(w) for w in relabeled)
        images = tuple(mapping[i] for i in support)
        if best is None or (key, images) < best[:2]:
            best = (key, images, relabeled, mapping)
    _key, _images, best_words, best_mapping = best
    inverse = {new: old for old, new in best_mapping.items()}
    return NeuralCode(best_words), inverse


def reference_maximal_codewords(code):
    """The inclusion-maximal nonempty codewords, sorted canonically, by the
    pairwise frozenset scan that the mask routine replaced."""
    from convexcodes.codes import sort_words

    nonempty = [w for w in code.codewords if w]
    return sort_words(w for w in nonempty if not any(w < other for other in nonempty))


def reference_max_intersection_faces(facets):
    """All nonempty intersections of two or more facets, by the frozenset
    closure that the mask routine replaced: pairwise intersections, then
    intersections with one more facet until nothing new appears."""
    fl = [frozenset(f) for f in facets]
    found = set()
    frontier = set()
    for a, b in combinations(fl, 2):
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


def reference_path_of_facets(f1, f2, f3):
    """The Path-of-Facets test on frozensets, which the mask routine of
    topology replaced: the path (F_a, F_b, F_c) of the arguments whose
    difference (F_a & F_c) - F_b alone is empty, else None; ValueError
    unless the facets are three distinct incomparable sets."""
    fs = [frozenset(f1), frozenset(f2), frozenset(f3)]
    if len(set(fs)) != 3 or any(a < b for a in fs for b in fs):
        raise ValueError("facets must be three distinct incomparable sets")
    f1, f2, f3 = fs
    paths = [(a, b, c) for a, b, c in ((f2, f1, f3), (f1, f2, f3), (f1, f3, f2)) if not (a & c) - b]
    return paths[0] if len(paths) == 1 else None


def reference_l24_taus(s):
    """The masks of the missing taus of structure s that sit inside an
    induced L24 of the nerve, by the edge and triangle sets of the nerve
    (s.nerve_masks) that the facet-trace test of wheels._l24_taus replaced:
    some facet g disjoint from tau shares an edge with three facets
    holding tau, and no triangle of the nerve passes through g and two of
    them."""
    from convexcodes.codes import _indices

    edges, triangles = set(), set()
    for face in s.nerve_masks:
        vertices = [1 << p for p in _indices(face)]
        edges.update(a | b for a, b in combinations(vertices, 2))
        triangles.update(a | b | c for a, b, c in combinations(vertices, 3))
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
                for a, b, c in combinations(spokes, 3)
            ):
                out.add(tau)
                break
    return out


def _reference_queries(c):
    """The facets of code c, and its is_face and trunk, cached per call."""
    words = c.codewords
    fl = reference_maximal_codewords(c)
    faces, trunks = {}, {}

    def is_face(sigma):
        hit = faces.get(sigma)
        if hit is None:
            hit = any(sigma <= f for f in fl)
            faces[sigma] = hit
        return hit

    def trunk(sigma):
        hit = trunks.get(sigma)
        if hit is None:
            hit = frozenset(w for w in words if sigma <= w)
            trunks[sigma] = hit
        return hit

    return fl, is_face, trunk


def _reference_pool(facets):
    """The search's sigma and rho candidates: facet intersections and their
    subsets of at most _POOL_SUBSET_BOUND neurons."""
    from convexcodes.wheels import _POOL_SUBSET_BOUND

    pool = set()
    for face in reference_max_intersection_faces(facets):
        pool.add(face)
        members = sorted(face)
        for r in range(1, min(len(members), _POOL_SUBSET_BOUND) + 1):
            pool.update(frozenset(c) for c in combinations(members, r))
    return pool


def reference_wheel_tests(c):
    """The reference search's wheel tests on code c, as two functions of
    (s1, s2, s3, tau): check_wheel returns the first of P(i), P(ii) and
    P(iii) that fails, or None, and hub_spoke_pattern is True when no facet
    holding s1|s2|s3 meets two spoke facets (holding sj|tau and sk|tau,
    j != k) in a common neuron."""
    canon_facets, is_face, trunk = _reference_queries(c)

    def check_wheel(s1, s2, s3, tau):
        u = s1 | s2 | s3
        if not is_face(u):
            return "P(i)"
        tu = trunk(u)
        if trunk(s1 | s2) != tu or trunk(s1 | s3) != tu or trunk(s2 | s3) != tu:
            return "P(i)"
        if is_face(u | tau):
            return "P(ii)"
        if not (is_face(s1 | tau) and is_face(s2 | tau) and is_face(s3 | tau)):
            return "P(iii)"
        return None

    def hub_spoke_pattern(s1, s2, s3, tau):
        hub = s1 | s2 | s3
        hub_facets = [f for f in canon_facets if hub <= f]
        spokes = [[f for f in canon_facets if (sigma | tau) <= f] for sigma in (s1, s2, s3)]
        for g in hub_facets:
            for j in range(3):
                for k in range(j + 1, 3):
                    for fj in spokes[j]:
                        for fk in spokes[k]:
                            if g & fj & fk:
                                return False
        return True

    return check_wheel, hub_spoke_pattern


def reference_wheel_triples(code):
    """Every (s1, s2, s3, tau) of the search's words that passes check_wheel
    and hub_spoke_pattern, with tau a missing max-intersection face, in the
    code's own labels: the triples that can reach the witness loop."""
    facets = reference_maximal_codewords(code)
    check_wheel, hub_spoke_pattern = reference_wheel_tests(code)
    pool = _reference_pool(facets)
    taus = [f for f in reference_max_intersection_faces(facets) if f not in code.codewords]
    return {
        (s1, s2, s3, tau)
        for tau in taus
        for s1, s2, s3 in product(pool, repeat=3)
        if check_wheel(s1, s2, s3, tau) is None and hub_spoke_pattern(s1, s2, s3, tau)
    }


def reference_find_sprocket(code, box):
    """Bounded sprocket search, one budget step per condition evaluation.

    Same contract as convexcodes.wheels._find_sprocket, whose structure
    holds the box: box is a one-item list holding the remaining budget and
    is decremented in place.
    """
    from convexcodes.codes import NeuralCode, sort_words, word_sort_key
    from convexcodes.topology import classify_small_complex, nerve
    from convexcodes.wheels import SprocketCandidate, canonical_l24_sprocket, is_sprocket

    def covers_exactly(c, cand):
        _fl, _is_face, trunk = _reference_queries(c)
        tk_tau = trunk(cand.tau)
        return trunk(cand.rho1) <= tk_tau and trunk(cand.rho3) <= tk_tau

    facets = reference_maximal_codewords(code)

    if len(facets) == 4:
        cls = classify_small_complex(nerve(facets))
        if cls.class_id == "L24":
            cand = canonical_l24_sprocket(code)
            if cand is not None:
                return cand

    nonempty = [w for w in code.codewords if w]
    if nonempty:
        common = frozenset.intersection(*nonempty)
        if common:
            stripped = NeuralCode(w - common for w in code.codewords)
            cand = reference_find_sprocket(stripped, box)
            if (
                cand is not None
                and is_sprocket(code, cand)[0]
                and covers_exactly(code, cand)
            ):
                return cand

    canon, inverse = reference_search_relabeling(code)
    canon_facets, _is_face, trunk = _reference_queries(canon)
    check_wheel, hub_spoke_pattern = reference_wheel_tests(canon)

    def check_witnesses(cand):
        if not (
            trunk(cand.sigma1 | cand.tau) <= trunk(cand.rho1)
            and trunk(cand.sigma3 | cand.tau) <= trunk(cand.rho3)
        ):
            return "S(1)"
        if not trunk(cand.tau) <= trunk(cand.rho1) | trunk(cand.rho3):
            return "S(2)"
        if not trunk(cand.rho1 | cand.rho3 | cand.tau) <= trunk(cand.sigma2):
            return "S(3)"
        return None

    pool = sort_words(_reference_pool(canon_facets))
    taus = [
        f
        for f in sort_words(reference_max_intersection_faces(canon_facets))
        if f not in canon.codewords
    ]
    for tau in taus:
        tk_tau = trunk(tau)
        rho_pool = [r for r in pool if trunk(r) <= tk_tau]
        if not rho_pool:
            continue
        for s1 in pool:
            k1 = word_sort_key(s1)
            for s2 in pool:
                for s3 in pool:
                    if word_sort_key(s3) < k1:
                        continue  # mirror symmetry (s1,rho1) <-> (s3,rho3)
                    if box[0] <= 0:
                        return None
                    box[0] -= 1
                    if check_wheel(s1, s2, s3, tau) is not None:
                        continue
                    if not hub_spoke_pattern(s1, s2, s3, tau):
                        continue
                    for r1 in rho_pool:
                        for r3 in rho_pool:
                            if box[0] <= 0:
                                return None
                            box[0] -= 1
                            cand = SprocketCandidate(s1, s2, s3, tau, r1, r3)
                            if check_witnesses(cand) is None:
                                mapped = SprocketCandidate(
                                    *(frozenset(inverse[i] for i in w) for w in cand)
                                )
                                ok, _tag = is_sprocket(code, mapped)
                                if not ok or not covers_exactly(code, mapped):
                                    raise AssertionError(
                                        "relabeled sprocket failed replay on the original code"
                                    )
                                return mapped
    return None


# ---------------------------------------------------------------------------
# Reference canonical form and atlas enumeration: the n! relabeling scan
# and the per-vector antichain filter that convexcodes.codes.canonicalize
# and convexcodes.atlas.enumerate_facet_antichains replaced, kept
# exhaustive so the fast versions can be checked for equal outputs.


def reference_canonicalize(code, optima=None, cells=None):
    """Least code over all n! relabelings, first strict-< hit in lex order.

    When a list is passed as optima, it is filled with every relabeling
    that reaches the least code, in lex order.  When an ordered partition
    of 1..n is passed as cells, the same scan also keeps the first strict-<
    hit among the relabelings that give the first cell's neurons the first
    labels, and so on, and the result is the pair (form, that relabeling).
    """
    from convexcodes.codes import CanonicalForm, NeuralCode

    n = code.n
    if n > 8:
        raise ValueError("reference scan limited to 8 neurons")
    block = {}  # neuron -> the labels its cell owns
    first = 1
    for cell in cells or ():
        labels = range(first, first + len(cell))
        block.update((i, labels) for i in cell)
        first += len(cell)
    # A code's key is its words sorted by (size, sorted labels).  Relabeling
    # keeps every word's size, so all the keys have the same sizes in the
    # same places, and they compare as the relabeled words sorted within
    # each size, one size after the other.
    by_size = {}
    for w in code.codewords:
        by_size.setdefault(len(w), []).append([i - 1 for i in w])
    groups = [by_size[size] for size in sorted(by_size)]
    best_key = best = None
    cell_key = cell_best = None
    ties = []
    for images in permutations(range(1, n + 1)):
        image = images.__getitem__
        key = []
        for group in groups:
            key += sorted(tuple(sorted(map(image, w))) for w in group)
        if best_key is None or key < best_key:
            best_key = key
            best = images
            ties = [images]
        elif key == best_key:
            ties.append(images)
        if cells is not None and (cell_key is None or key < cell_key) and all(
            images[i - 1] in block[i] for i in block
        ):
            cell_key = key
            cell_best = images
    if optima is not None:
        optima[:] = ties
    words = (frozenset(best[i - 1] for i in w) for w in code.codewords)
    form = CanonicalForm(NeuralCode(words), tuple(best), True)
    return form if cells is None else (form, tuple(cell_best))


def reference_enumerate_facet_antichains(max_neurons, num_facets):
    """Count vectors over facet cells, kept when minimal over facet orders."""
    from convexcodes.codes import sort_words

    k = num_facets
    cells = sorted(
        (
            frozenset(s)
            for r in range(1, k + 1)
            for s in combinations(range(k), r)
        ),
        key=lambda s: (len(s), sorted(s)),
    )
    index = {cell: i for i, cell in enumerate(cells)}
    orbit = [
        tuple(index[frozenset(p[i] for i in cell)] for cell in cells)
        for p in permutations(range(k))
    ][1:]
    # cells witnessing that facet i is not contained in facet j
    private = [
        frozenset(c for c, cell in enumerate(cells) if i in cell and j not in cell)
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    ncells = len(cells)
    for total in range(1, max_neurons + 1):
        for combo in combinations_with_replacement(range(ncells), total):
            if any(cs.isdisjoint(combo) for cs in private):
                continue
            v = [0] * ncells
            for c in combo:
                v[c] += 1
            vt = tuple(v)
            if any(tuple(vt[p[i]] for i in range(ncells)) < vt for p in orbit):
                continue
            facets = [set() for _ in range(k)]
            neuron = 0
            for c, cell in enumerate(cells):
                for _ in range(v[c]):
                    neuron += 1
                    for i in cell:
                        facets[i].add(neuron)
            yield sort_words(frozenset(f) for f in facets)
