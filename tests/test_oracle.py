import itertools
import random
import tracemalloc

import pytest

from paritytree import oracle
from paritytree.game_core import ADAM, EVE, EVEN, ODD, ParityGame, generate_random_game
from paritytree.oracle import (
    OracleSizeError,
    PositionalStrategy,
    adam_wins_against,
    play_outcome,
    solve_bruteforce,
)
from paritytree.zielonka import solve_zielonka
from oracle_reference import reference_solve_bruteforce, reference_winners_for_profile
from test_zielonka import strategy_defect


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


class TestMatchesReference:
    """The trimmed oracle against its untrimmed copy (oracle_reference)."""

    @staticmethod
    def games():
        # n 1-8, d 2-8, out-degree (1, 2) and (1, 3), as far as n allows
        for seed in range(3200):
            n, d, hi = 1 + seed % 8, 2 + 2 * (seed // 8 % 4), 2 + seed // 32 % 2
            yield generate_random_game(n, d, (1, min(hi, n)), seed)

    def test_regions(self):
        for seed, g in enumerate(self.games()):
            assert solve_bruteforce(g) == reference_solve_bruteforce(g), seed

    def test_play_outcome_on_every_start_vertex(self):
        for seed, g in enumerate(self.games()):
            rng = random.Random(seed)
            for _ in range(4):  # four seeded strategy profiles per game
                nxt = [rng.choice(ws) for ws in g.successors]
                sigma = PositionalStrategy({v: nxt[v] for v in g.vertices() if g.owner[v] == EVE})
                tau = PositionalStrategy({v: nxt[v] for v in g.vertices() if g.owner[v] == ADAM})
                wins = reference_winners_for_profile(g, nxt)
                for v0 in g.vertices():
                    assert play_outcome(g, sigma, tau, v0) == (EVEN if wins[v0] else ODD), seed


def ring(k):
    """One Eve vertex and k Adam vertices in a ring, each Adam vertex with
    a skip edge, all of priority 0: 2^k Adam strategies."""
    n = k + 1
    return make(2, [EVE] + [ADAM] * k, [0] * n,
                [(1,)] + [((v + 1) % n, (v + 2) % n) for v in range(1, n)])


class TestKernel:
    """adam_wins_against, the one-player kernel, against the two-player
    reference reader run over every Adam strategy."""

    def test_every_adam_strategy(self):
        for seed, g in enumerate(TestMatchesReference.games()):
            rng = random.Random(seed)
            sigma = {v: rng.choice(ws) for v, ws in enumerate(g.successors) if g.owner[v] == EVE}
            adam_verts = [v for v in g.vertices() if g.owner[v] == ADAM]
            nxt = [sigma.get(v) for v in g.vertices()]
            odd_play_from = set()
            for tau in itertools.product(*(g.successors[v] for v in adam_verts)):
                for v, w in zip(adam_verts, tau):
                    nxt[v] = w
                wins = reference_winners_for_profile(g, nxt)
                odd_play_from.update(v for v in g.vertices() if not wins[v])
            adam = adam_wins_against(g, sigma)
            assert adam == odd_play_from, seed
            assert strategy_defect(g, set(g.vertices()) - adam, sigma) is None, seed

    def test_unfixed_vertices_are_adams(self):
        # Eve at 0 may go to the odd self-loop 1 or the even self-loop 2
        g = make(2, [EVE, ADAM, ADAM], [0, 1, 2], [(1, 2), (1,), (2,)])
        assert adam_wins_against(g, {}) == frozenset({0, 1})
        assert adam_wins_against(g, {0: 2}) == frozenset({1})
        assert adam_wins_against(g, {0: 1, 1: 1, 2: 2}) == frozenset({0, 1})

    def test_past_adams_strategy_cap(self):
        # test_adam_strategies_are_streamed's ring at k = 20: the oracle
        # enumerated Adam's strategies too and refused this game
        assert 2**20 > oracle.STRATEGY_CAP
        g = ring(20)
        assert solve_bruteforce(g) == solve_zielonka(g)
        assert solve_bruteforce(g).eve_wins == frozenset(range(21))

    def test_twenty_vertices(self):
        for seed in range(4):
            g = generate_random_game(20, 8, (2, 2), seed)
            assert solve_bruteforce(g) == solve_zielonka(g), seed
