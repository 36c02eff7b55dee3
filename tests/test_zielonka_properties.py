"""Property-based differential tests of the Zielonka solver on generated
tiny games: its regions equal the oracle's, and its extracted signature
validates and equals the stage-sequence reference."""

import pytest

from paritytree.game_core import ADAM, EVE, ParityGame
from paritytree.oracle import solve_bruteforce
from paritytree.progress_measure import validate_signature
from paritytree.universal_tree import TOP, signature_to_tree
from paritytree.zielonka import extract_signature, solve_zielonka
from signature_reference import reference_signature

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def tiny_games(draw):
    """Up to 4 vertices, d <= 6, 1-3 successors per vertex (repeats allowed,
    as the PGSolver format allows them)."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from((2, 4, 6)))
    vertex = st.tuples(
        st.sampled_from((EVE, ADAM)), st.integers(0, d),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple))
    rows = draw(st.lists(vertex, min_size=n, max_size=n))
    return ParityGame(d, *(tuple(col) for col in zip(*rows)))


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(tiny_games())
def test_zielonka_matches_oracle_and_signature_validates(g):
    assert solve_zielonka(g) == solve_bruteforce(g)
    mu = extract_signature(g)
    tree, codes = signature_to_tree(mu, g.n, g.d)
    ok, why = validate_signature(
        g, tree, [TOP if mu[v] == TOP else codes[v] for v in g.vertices()])
    assert ok, why


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(tiny_games())
def test_signature_matches_stage_reference(g):
    assert repr(extract_signature(g)) == repr(reference_signature(g))
