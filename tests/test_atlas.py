import functools
import hashlib
import io
import itertools

import pytest

from convexcodes import parse_code
from convexcodes.atlas import atlas_rows, enumerate_facet_antichains, write_atlas_csv

from conftest import W3_TEXT, assert_ledger, fs, ledger, support
from oracles import reference_enumerate_facet_antichains


@pytest.fixture(scope="module")
def rows_of():
    """atlas_rows, each size built once for the module's tests."""
    return functools.cache(atlas_rows)


def antichain_classes_bruteforce(max_neurons, k):
    """Relabeling classes of k-facet antichains, computed the slow way.

    Every family of k distinct nonempty subsets with packed support 1..t is
    canonicalized by minimizing over all t! neuron permutations; the result
    is the set of canonical forms, independent of the enumeration under test.
    """
    classes = set()
    for t in range(1, max_neurons + 1):
        subs = [
            frozenset(s)
            for r in range(1, t + 1)
            for s in itertools.combinations(range(1, t + 1), r)
        ]
        for family in itertools.combinations(subs, k):
            if any(a < b for a in family for b in family):
                continue
            if frozenset().union(*family) != frozenset(range(1, t + 1)):
                continue
            canon = min(
                tuple(
                    sorted(
                        tuple(sorted(perm[v - 1] for v in f)) for f in family
                    )
                )
                for perm in itertools.permutations(range(1, t + 1))
            )
            classes.add(canon)
    return classes


def class_key(facets):
    best = None
    verts = sorted(frozenset().union(*facets))
    t = len(verts)
    relabeled = {v: i + 1 for i, v in enumerate(verts)}
    packed = [frozenset(relabeled[v] for v in f) for f in facets]
    for perm in itertools.permutations(range(1, t + 1)):
        key = tuple(sorted(tuple(sorted(perm[v - 1] for v in f)) for f in packed))
        if best is None or key < best:
            best = key
    return best


class TestEnumeration:
    def test_matches_bruteforce_small(self):
        for n, k in [(4, 2), (4, 3), (3, 4), (4, 4), (5, 2), (5, 3)]:
            expected = antichain_classes_bruteforce(n, k)
            got = list(enumerate_facet_antichains(n, k))
            assert len(got) == len(expected), (n, k)
            assert {class_key(f) for f in got} == expected, (n, k)

    def test_representatives_are_packed_antichains(self):
        for facets in enumerate_facet_antichains(5, 3):
            assert not any(a < b for a in facets for b in facets)
            support = sorted(frozenset().union(*facets))
            assert support == list(range(1, len(support) + 1))

    def test_deterministic_stream(self):
        a = list(enumerate_facet_antichains(6, 4))
        b = list(enumerate_facet_antichains(6, 4))
        assert a == b

    @pytest.mark.parametrize(
        "max_neurons,num_facets",
        [(6, 2), (6, 3), (6, 4), (5, 5), (7, 3), (4, 4), (7, 4), (6, 5)],
    )
    def test_stream_equals_reference(self, max_neurons, num_facets):
        got = list(enumerate_facet_antichains(max_neurons, num_facets))
        assert got == list(reference_enumerate_facet_antichains(max_neurons, num_facets))

    def test_population_sizes(self):
        # regression counts, cross-checked at small sizes by the brute oracle
        assert len(list(enumerate_facet_antichains(6, 2))) == 22
        assert len(list(enumerate_facet_antichains(6, 3))) == 84
        assert len(list(enumerate_facet_antichains(6, 4))) == 287
        assert len(list(enumerate_facet_antichains(7, 4))) == 1321
        assert len(list(enumerate_facet_antichains(6, 5))) == 787
        assert len(list(enumerate_facet_antichains(8, 4))) == 5094

    def test_edge_streams(self):
        # three facets need three neurons; no facets or no neurons give
        # nothing; one facet has no pair to witness, so every total is kept
        assert list(enumerate_facet_antichains(2, 3)) == []
        assert list(enumerate_facet_antichains(0, 3)) == []
        assert list(enumerate_facet_antichains(4, 0)) == []
        assert list(enumerate_facet_antichains(3, 1)) == [
            [fs("1")], [fs("12")], [fs("123")]
        ]


class TestAtlasRows:
    def test_two_facets_all_convex(self):
        rows, skipped = atlas_rows(4, 2)
        assert skipped == 0
        assert rows
        assert all(r.verdict == "CONVEX" for r in rows)

    def test_row_texts_unique_and_minimal(self):
        rows, _ = atlas_rows(5, 3)
        texts = [r.code for r in rows]
        assert len(texts) == len(set(texts))
        assert all(r.minimal for r in rows)
        for r in rows:
            code = parse_code(r.code)
            assert code.n == r.neurons or not support(code)

    def test_single_nonconvex_row_is_the_literature_code(self, rows_of):
        rows, skipped = rows_of(6, 4)
        assert skipped == 0
        assert len(rows) == 287
        bad = [r for r in rows if r.verdict == "NONCONVEX"]
        assert len(bad) == 1
        row = bad[0]
        assert row.nerve_class == "L24"
        assert row.certificate == "L24MinimalPoFSprocket"
        assert row.sprocket
        # the row is the relabeling class of the literature code
        from convexcodes import maximal_codewords

        got = maximal_codewords(parse_code(row.code))
        literature = [fs("123"), fs("145"), fs("246"), fs("1356")]
        assert class_key(got) == class_key(literature)

    def test_w3_collapses_onto_that_row(self, rows_of):
        from convexcodes import canonicalize, format_code, minimal_code, maximal_codewords

        rows, _ = rows_of(6, 4)
        bad = next(r for r in rows if r.verdict == "NONCONVEX")
        w3 = parse_code(W3_TEXT)
        canonical = canonicalize(minimal_code(maximal_codewords(w3))).code
        assert format_code(canonical, verbose=True, braced=True) == bad.code

    def test_l9_to_l23_rows_all_convex(self, rows_of):
        rows, _ = rows_of(6, 4)
        for r in rows:
            if 9 <= int(r.nerve_class[1:]) <= 23:
                assert r.verdict == "CONVEX", r.code

    def test_ledger(self, rows_of):
        # every 6x4 and 5x5 row's analyze report at the ledger's budget,
        # byte for byte, against tests/ledger/atlas.tsv
        assert_ledger("atlas", ledger.lines(ledger.atlas_codes(rows_of)))


class TestCsv:
    def test_byte_deterministic(self):
        rows, skipped = atlas_rows(4, 3)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_atlas_csv(rows, buf, skipped=skipped)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_header_and_braced_codewords(self):
        rows, skipped = atlas_rows(4, 2)
        buf = io.StringIO()
        write_atlas_csv(rows, buf, skipped=skipped)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "code,neurons,facet_count,nerve_class,minimal,verdict,certificate,sprocket"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert all(line.startswith('"{') for line in data)

    def test_meta_line_prepended(self):
        rows, skipped = atlas_rows(4, 2)
        buf = io.StringIO()
        write_atlas_csv(rows, buf, skipped=skipped, meta="generated for tests")
        assert buf.getvalue().startswith("# generated for tests\n")

    def test_summary_block_counts(self, rows_of):
        rows, skipped = rows_of(6, 4)
        buf = io.StringIO()
        write_atlas_csv(rows, buf, skipped=skipped)
        text = buf.getvalue()
        assert "# L24,NONCONVEX,1" in text
        assert "# L9,CONVEX," in text

    @pytest.mark.parametrize("max_neurons,num_facets,digest", [
        (6, 4, "15d8e4b2021f51e1bbb8b21c47704c84a76aaef12df072e5aaa61d5310e2a8c4"),
        (5, 5, "986dc8954592e5d8ba4d9c3b2c01443fe6639bf5f4f1d62b3dd0e39fa28840f3"),
        (6, 5, "79399714cb4b0607e4f170dbd38123bae33c1587c50fb374eebebe42e8de4880"),
    ])
    def test_csv_bytes_pinned(self, max_neurons, num_facets, digest, rows_of):
        # sha256 of the CSV as first written by the n! canonical-form scan;
        # 6x5 as first written with no configuration skipped
        rows, skipped = rows_of(max_neurons, num_facets)
        buf = io.StringIO()
        write_atlas_csv(rows, buf, skipped=skipped)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest
