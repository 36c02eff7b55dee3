import tracemalloc

import pytest

from paritytree import oracle
from paritytree.game_core import ADAM, EVE, EVEN, ODD, ParityGame
from paritytree.oracle import (
    OracleSizeError,
    PositionalStrategy,
    play_outcome,
    solve_bruteforce,
)


def make(d, owner, priority, successors):
    return ParityGame(d, tuple(owner), tuple(priority),
                      tuple(tuple(s) for s in successors))


def test_even_self_loop_is_eve_win():
    g = make(2, [EVE], [0], [(0,)])
    assert solve_bruteforce(g).eve_wins == frozenset({0})


def test_odd_self_loop_is_adam_win():
    g = make(2, [EVE], [1], [(0,)])
    assert solve_bruteforce(g).adam_wins == frozenset({0})


def test_forced_two_cycle_even_top():
    # forced cycle with priorities {1, 2}: top is 2, Eve wins everywhere
    g = make(2, [EVE, ADAM], [1, 2], [(1,), (0,)])
    assert solve_bruteforce(g).eve_wins == frozenset({0, 1})


def test_forced_two_cycle_odd_top():
    g = make(4, [EVE, ADAM], [1, 3], [(1,), (0,)])
    assert solve_bruteforce(g).adam_wins == frozenset({0, 1})


def test_choice_matters():
    # Eve at 0 picks between an odd self-loop region and an even one
    g = make(2, [EVE, ADAM, ADAM], [0, 1, 2], [(1, 2), (1,), (2,)])
    region = solve_bruteforce(g)
    assert region.eve_wins == frozenset({0, 2})
    assert region.adam_wins == frozenset({1})


def test_adam_escapes():
    # Adam at 0 can commit to the odd loop
    g = make(2, [ADAM, ADAM, ADAM], [0, 1, 2], [(1, 2), (1,), (2,)])
    assert solve_bruteforce(g).eve_wins == frozenset({2})


def test_split_regions():
    g = make(4, [EVE, ADAM, EVE, ADAM], [2, 1, 3, 0],
             [(1,), (0,), (3,), (2,)])
    region = solve_bruteforce(g)
    assert region.eve_wins == frozenset({0, 1})
    assert region.adam_wins == frozenset({2, 3})


def test_size_cap(monkeypatch):
    g = make(2, [EVE] * 8, [0] * 8, [tuple(range(8))] * 8)
    with pytest.raises(OracleSizeError):
        solve_bruteforce(g)  # 8^8 Eve strategies
    small = make(2, [EVE] * 5, [0] * 5, [(0, 1, 2)] * 5)  # 3^5 Eve strategies
    assert solve_bruteforce(small).eve_wins == frozenset(range(5))
    monkeypatch.setattr(oracle, "STRATEGY_CAP", 100)  # read at call time
    with pytest.raises(OracleSizeError, match="cap 100;"):
        solve_bruteforce(small)


def test_play_outcome():
    g = make(2, [EVE, ADAM], [1, 2], [(0, 1), (0, 1)])
    sigma = PositionalStrategy({0: 1})
    tau = PositionalStrategy({1: 0})
    assert play_outcome(g, sigma, tau, 0) == EVEN  # cycle 0-1, top 2
    tau = PositionalStrategy({1: 1})
    assert play_outcome(g, sigma, tau, 0) == EVEN  # absorbed in the 2-loop
    sigma = PositionalStrategy({0: 0})
    assert play_outcome(g, sigma, tau, 0) == ODD  # stuck in the 1-loop


def test_adam_strategies_are_streamed():
    # a ring of one Eve vertex and k Adam vertices with a skip edge each:
    # every cycle is even, so all 2^k Adam strategies are tried, one at a time
    k = 14
    n = k + 1
    g = make(2, [EVE] + [ADAM] * k, [0] * n,
             [(1,)] + [((v + 1) % n, (v + 2) % n) for v in range(1, n)])
    tracemalloc.start()
    try:
        region = solve_bruteforce(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert region.eve_wins == frozenset(range(n))
    assert peak < 1 << 20
