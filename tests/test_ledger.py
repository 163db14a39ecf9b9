"""The wide and N-word ledgers of tools/ledger.py, recomputed.

The census ledger is checked by tests/test_census.py and the atlas ledger
by tests/test_atlas.py, on the codes those modules already build.
"""

from conftest import assert_ledger, ledger
from test_wheels import _benchmark_generator


def test_one_file_per_set():
    # --write records exactly the sets the tool knows
    assert sorted(p.stem for p in ledger.LEDGERS.glob("*.tsv")) == sorted(ledger.SETS)


def test_wide_ledger():
    # the request lists are the ones TestStepTotals builds and replays
    assert_ledger("wide", ledger.lines(ledger.wide_codes(_benchmark_generator())))


def test_nword_ledger():
    assert_ledger("nword", ledger.lines(ledger.nword_codes()))
