import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from convexcodes import NeuralCode, parse_code

# running examples used across test modules
C22_TEXT = "134, 1357, 257, 356, 13, 35, 57"
C24_TEXT = "123, 1246, 145, 356, 12, 14, 3, 5, 6"
C18A_TEXT = "345, 234, 356, 12, 34, 35, 2"
C18B_TEXT = "123, 1346, 145, 67, 13, 14, 6"
W3_TEXT = "123, 145, 246, 1356, 13, 15, 2, 4, 6"
C26_PRINTED_TEXT = "2345, 123, 134, 145, 13, 14, 23, 34, 45, 4, 5"
C26_CORRECTED_TEXT = C26_PRINTED_TEXT + ", 3"


def fs(compact: str) -> frozenset:
    """frozenset of single-digit neuron labels, fs('134') == {1,3,4}."""
    return frozenset(int(ch) for ch in compact)


def collapse_family(m: int) -> list:
    """m facets {1,50,100+i} (i < m-2), {1,60,200}, {1,50,60}.

    Neuron 1 is in every facet, so the nerve is one simplex on m vertices,
    and the link of {1} is the nerve of m sets, m-1 of them sharing neuron
    50.  The 100+i are m-2 interchangeable neurons.
    """
    raw = [frozenset({1, 50, 100 + i}) for i in range(m - 2)]
    return raw + [frozenset({1, 60, 200}), frozenset({1, 50, 60})]


@pytest.fixture
def sprocket_spends(monkeypatch) -> list:
    """Steps spent by each sprocket search the decider starts, in call order."""
    import convexcodes.decider

    spent = []
    search = convexcodes.decider._find_sprocket

    def counting(s, box):
        before = box[0]
        try:
            return search(s, box)
        finally:
            spent.append(before - box[0])

    monkeypatch.setattr(convexcodes.decider, "_find_sprocket", counting)
    return spent


@pytest.fixture(scope="session")
def c22() -> NeuralCode:
    return parse_code(C22_TEXT)


@pytest.fixture(scope="session")
def c24() -> NeuralCode:
    return parse_code(C24_TEXT)


@pytest.fixture(scope="session")
def c18a() -> NeuralCode:
    return parse_code(C18A_TEXT)


@pytest.fixture(scope="session")
def c18b() -> NeuralCode:
    return parse_code(C18B_TEXT)


@pytest.fixture(scope="session")
def w3() -> NeuralCode:
    return parse_code(W3_TEXT)


@pytest.fixture(scope="session")
def c26_printed() -> NeuralCode:
    return parse_code(C26_PRINTED_TEXT)


@pytest.fixture(scope="session")
def c26_corrected() -> NeuralCode:
    return parse_code(C26_CORRECTED_TEXT)


@pytest.fixture(scope="session")
def d28(c24) -> NeuralCode:
    # cone: a fresh neuron added to every nonempty codeword
    return NeuralCode(frozenset(w | {7} for w in c24.codewords if w) | {frozenset()})


def pytest_terminal_summary(terminalreporter):
    """One line with the session's CPU time: user plus system seconds of
    this process and of the children it waited for.  On a shared machine
    it moves less between runs than the wall time does."""
    t = os.times()
    cpu = t.user + t.system + t.children_user + t.children_system
    terminalreporter.write_line(f"cpu time: {cpu:.1f} s (user+system, waited children included)")
