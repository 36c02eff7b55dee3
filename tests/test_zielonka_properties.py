"""Property-based differential tests of the Zielonka solver on generated
games: on tiny ones its regions equal the oracle's, and its extracted
signature validates and equals the stage-sequence reference; on games of
up to 40 vertices, ladders and chains, its region, Eve's strategy and the
signature equal those of the recursive solve it replaced."""

import pytest

from paritytree.game_core import ADAM, EVE, ParityGame
from paritytree.oracle import solve_bruteforce
from paritytree.progress_measure import validate_signature
from paritytree.universal_tree import TOP, signature_to_tree
from paritytree.zielonka import eve_winning_strategy, extract_signature, solve_zielonka
from families import chain, ladder
from signature_reference import reference_signature
from zielonka_reference import reference_results

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


@st.composite
def games(draw):
    """Up to 40 vertices, d <= 12, 1-3 successors per vertex, three in four
    vertices Eve's.  Ids are drawn uniformly: a set orders its vertices
    other than by id only past its table's size, so only games of a few
    dozen vertices tell two orders of Eve's attractor apart."""
    n = draw(st.sampled_from(range(1, 41)))
    d = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    ids = st.sampled_from(range(n))
    vertex = st.tuples(
        st.sampled_from((EVE, EVE, EVE, ADAM)), st.sampled_from(range(d + 1)),
        st.lists(ids, min_size=1, max_size=3).map(tuple))
    rows = draw(st.lists(vertex, min_size=n, max_size=n))
    return ParityGame(d, *(tuple(col) for col in zip(*rows)))


def assert_matches_recursion(g):
    eve, strategy, signature = reference_results(g)
    assert solve_zielonka(g).eve_wins == eve
    assert eve_winning_strategy(g) == strategy
    assert repr(extract_signature(g)) == signature


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(games())
def test_loop_matches_the_recursion(g):
    assert_matches_recursion(g)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.one_of(st.builds(ladder, st.integers(1, 120)),
                            st.builds(chain, st.integers(1, 120), st.booleans())))
def test_loop_matches_the_recursion_on_ladders_and_chains(g):
    assert_matches_recursion(g)
