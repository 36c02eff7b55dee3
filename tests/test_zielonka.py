import hashlib
import inspect
import random
import sys
import time

import pytest

from paritytree import zielonka
from paritytree.game_core import (
    ADAM,
    EVE,
    ParityGame,
    even_priority_bound,
    generate_random_game,
)
from paritytree.oracle import adam_wins_against, solve_bruteforce
from paritytree.universal_tree import EnumerationGuardError, make_naive_tree, signature_to_tree
from paritytree.progress_measure import validate_signature
from paritytree.zielonka import (
    TOP,
    attractor,
    eve_winning_strategy,
    extract_signature,
    solve_zielonka,
)
from families import ladder
from signature_reference import (
    EQUAL,
    GREATER,
    LESS,
    SubGame,
    pre,
    reference_signature,
    signature_stages,
    tuple_compare,
)


def make(d, owner, priority, successors):
    return ParityGame(d, tuple(owner), tuple(priority),
                      tuple(tuple(s) for s in successors))


def dual(g):
    """Owners swapped and every priority raised by one: Eve wins the dual
    exactly where Adam wins ``g``."""
    priority = tuple(p + 1 for p in g.priority)
    return ParityGame(even_priority_bound(max(priority)),
                      tuple(1 - o for o in g.owner), priority, g.successors)


def strategy_defect(g, region, sigma):
    """Why ``sigma`` does not win for Eve from every vertex of ``region``,
    or None.  Polynomial: Adam may not leave the region, sigma must stay in
    it, and in the one-player game sigma induces there no vertex of odd
    priority p may lie on a cycle of priorities <= p, that is, in a
    nontrivial SCC of the priority-<=p subgraph."""
    moves = {}
    for v in region:
        if g.owner[v] == EVE:
            if sigma.get(v) not in g.successors[v] or sigma[v] not in region:
                return f"sigma at {v} is {sigma.get(v)}, not a move into the region"
            moves[v] = (sigma[v],)
        elif not set(g.successors[v]) <= region:
            return f"Adam leaves the region at {v}"
        else:
            moves[v] = g.successors[v]
    for u in region:
        p = g.priority[u]
        if p % 2 == 0:
            continue
        stack = [w for w in moves[u] if g.priority[w] <= p]
        seen = set(stack)
        while stack:
            w = stack.pop()
            if w == u:
                return f"cycle through {u} with top priority {p}"
            for x in moves[w]:
                if g.priority[x] <= p and x not in seen:
                    seen.add(x)
                    stack.append(x)
    return None


class TestTupleCompare:
    # with d = 8 the positions hold the components for priorities 7, 5, 3, 1
    def test_full_lexicographic(self):
        x = (2, 2, 3, 0)
        y = (1, 5, 5, 5)
        assert tuple_compare(x, y, 1, 8) == GREATER
        assert tuple_compare(y, x, 1, 8) == LESS
        assert tuple_compare(x, x, 1, 8) == EQUAL

    def test_restriction_drops_low_positions(self):
        x = (2, 2, 3, 0)
        y = (2, 2, 9, 9)
        # restricted to priorities >= 5 both are (2, 2); p = 4 keeps the
        # same odd positions, p = 3 brings in the third component
        assert tuple_compare(x, y, 5, 8) == EQUAL
        assert tuple_compare(x, y, 4, 8) == EQUAL
        assert tuple_compare(x, y, 3, 8) == LESS

    def test_top_priority_restriction_is_vacuous(self):
        x = (0, 0)
        y = (3, 3)
        assert tuple_compare(x, y, 4, 4) == EQUAL

    def test_even_and_odd_priority_same_keep(self):
        x = (1, 0)
        y = (0, 9)
        assert tuple_compare(x, y, 3, 4) == GREATER
        assert tuple_compare(x, y, 2, 4) == GREATER

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tuple_compare((1,), (1, 2), 1, 4)


class TestPre:
    def test_eve_needs_one_adam_needs_all(self):
        g = make(2, [EVE, ADAM, EVE], [0, 0, 0], [(1, 2), (1, 2), (2,)])
        sg = SubGame(g, frozenset({0, 1, 2}), frozenset(), frozenset(), 2)
        assert pre(sg, {2}) == frozenset({0, 2})
        assert pre(sg, {1, 2}) == frozenset({0, 1, 2})
        assert pre(sg, set()) == frozenset()

    def test_only_active_vertices_report(self):
        g = make(2, [EVE, EVE], [0, 0], [(1,), (1,)])
        sg = SubGame(g, frozenset({1}), frozenset(), frozenset(), 2)
        assert pre(sg, {1}) == frozenset({1})


class TestReachSafe:
    def test_attractor(self):
        # 0 -> 1 -> terminal win 2; Adam at 1 cannot deviate
        g = make(2, [EVE, ADAM, EVE], [1, 1, 0], [(1,), (2,), (2,)])
        sigma = {}
        attr = attractor(g, {0, 1}, {2}, EVE, frozenset(g.vertices()), sigma)
        assert attr == {0, 1, 2}
        assert sigma == {0: 1}

    def test_adam_avoids(self):
        g = make(2, [EVE, ADAM, EVE], [1, 1, 0], [(1,), (0, 2), (2,)])
        assert attractor(g, {0, 1}, {2}, EVE, frozenset(g.vertices())) == {2}

    def test_moves_outside_the_subgame_do_not_count(self):
        # Adam's escape 1 -> 0 leaves the subgame {1, 2}, so it is no move
        g = make(2, [EVE, ADAM, EVE], [1, 1, 0], [(1,), (0, 2), (2,)])
        assert attractor(g, {1, 2}, {2}, EVE, {1, 2}) == {1, 2}

    def test_duplicate_successors_count_once(self):
        g = make(2, [ADAM, EVE], [1, 0], [(1, 1), (1,)])
        assert attractor(g, {0, 1}, {1}, EVE, frozenset(g.vertices())) == {0, 1}


class TestSolve:
    def test_self_loops(self):
        g = make(2, [EVE], [0], [(0,)])
        assert solve_zielonka(g).eve_wins == frozenset({0})
        g = make(2, [EVE], [1], [(0,)])
        assert solve_zielonka(g).adam_wins == frozenset({0})

    def test_forced_cycles(self):
        g = make(2, [EVE, ADAM], [1, 2], [(1,), (0,)])
        assert solve_zielonka(g).eve_wins == frozenset({0, 1})
        g = make(4, [EVE, ADAM], [1, 3], [(1,), (0,)])
        assert solve_zielonka(g).adam_wins == frozenset({0, 1})

    def test_matches_bruteforce_randomized(self):
        for seed in range(300):
            g = generate_random_game(2 + seed % 6, 2 + 2 * (seed % 3), (1, 2), seed + 10_000)
            assert solve_zielonka(g) == solve_bruteforce(g), seed

    def test_rejects_invalid(self):
        g = make(2, [EVE], [0], [()])
        with pytest.raises(ValueError):
            solve_zielonka(g)


class TestStages:
    def test_stage_sequence_is_nondecreasing(self):
        for seed in range(60):
            g = generate_random_game(5, 4, (1, 2), seed)
            p = max(g.priority) | 1
            if p > g.d:
                p -= 2
            active = frozenset(v for v in g.vertices() if g.priority[v] <= p)
            stages = signature_stages(SubGame(g, active, frozenset(), frozenset(), p))
            assert stages[-1] == (stages[-2] if len(stages) > 1 else frozenset())
            for earlier, later in zip(stages, stages[1:]):
                assert earlier <= later


class TestStrategy:
    def test_domain_is_eve_owned_winning(self):
        for seed in range(100):
            g = generate_random_game(2 + seed % 5, 4, (1, 2), seed)
            region = solve_zielonka(g)
            sigma = eve_winning_strategy(g)
            assert set(sigma) == {
                v for v in region.eve_wins if g.owner[v] == EVE}
            for v, w in sigma.items():
                assert w in g.successors[v]
                assert w in region.eve_wins

    def test_strategies_win_on_game_and_dual(self):
        # Eve's strategy on the dual is Adam's on the game, so the two
        # checks certify both regions without the oracle
        for seed in range(320):
            n = 2 + seed * 7 % 40
            degree = (1, min(n, 3)) if seed % 2 else (1, 2)
            g = generate_random_game(n, 2 + 2 * (seed % 4), degree, seed + 30_000)
            adam = solve_zielonka(g).adam_wins
            for h in (g, dual(g)):
                eve = solve_zielonka(h).eve_wins
                assert strategy_defect(h, eve, eve_winning_strategy(h)) is None, seed
                assert not adam_wins_against(h, eve_winning_strategy(h)) & eve, seed
            assert solve_zielonka(dual(g)).eve_wins == adam, seed

    def test_defect_check_rejects_losing_strategy(self):
        # Eve at 0 may go to the even self-loop 1 or the odd self-loop 2
        g = make(2, [EVE, EVE, EVE], [0, 2, 1], [(1, 2), (1,), (2,)])
        assert strategy_defect(g, {0, 1}, {0: 1, 1: 1}) is None
        assert "top priority 1" in strategy_defect(g, {0, 2}, {0: 2, 2: 2})
        assert "not a move" in strategy_defect(g, {0, 1}, {1: 1})


class TestExtractSignature:
    def test_top_exactly_on_adam_region(self):
        for seed in range(80):
            g = generate_random_game(2 + seed % 5, 2 + 2 * (seed % 3), (1, 2), seed)
            region = solve_zielonka(g)
            mu = extract_signature(g)
            assert {v for v in g.vertices() if mu[v] == TOP} == set(region.adam_wins)
            for v in region.eve_wins:
                values = mu[v]
                assert len(values) == g.d // 2
                assert all(0 <= c <= g.n for c in values)

    def test_signatures_validate(self):
        for seed in range(150):
            g = generate_random_game(2 + seed % 6, 2 + 2 * (seed % 3), (1, 2), seed + 500)
            mu = extract_signature(g)
            tree, codes = signature_to_tree(mu, g.n, g.d)
            as_list = [TOP if mu[v] == TOP else codes[v] for v in g.vertices()]
            ok, why = validate_signature(g, tree, as_list)
            assert ok, (seed, why)

    def test_signatures_are_naive_tree_leaf_codes(self):
        # Jurdzinski's small progress measures are the naive tree's leaves:
        # the signature validates on that tree as it is, with no conversion
        for seed in range(600):
            g = generate_random_game(3 + seed % 6, 2 + 2 * (seed % 3), (1, 3), seed + 9_000)
            mu = extract_signature(g)
            tree = make_naive_tree(g.n, g.d // 2)
            ok, why = validate_signature(g, tree, [mu[v] for v in g.vertices()])
            assert ok, (seed, why)

    def test_refused_before_the_solve(self):
        # one priority of value 10^12 + 1 asks for codes of 5 * 10^11 + 1 entries
        g = make(10**12 + 2, [EVE, ADAM], [10**12 + 1, 0], [(1,), (0,)])
        started = time.perf_counter()
        with pytest.raises(EnumerationGuardError, match=(
                r"^signature for \(n=2, h=500000000001\) would take 1000000000002 slots, "
                "past the build ceiling of 5000000$")):
            extract_signature(g)
        assert time.perf_counter() - started < 0.5
        assert "_zielonka" not in g.__dict__

    def test_known_game(self):
        # forced cycle with priorities {1, 2}: the odd vertex must sit one
        # stage later than the even vertex it feeds
        g = make(2, [EVE, ADAM], [1, 2], [(1,), (0,)])
        mu = extract_signature(g)
        assert mu[1] == (0,)
        assert mu[0] == (1,)

    def test_matches_stage_reference(self):
        for seed in range(300):
            g = generate_random_game(20, 8, (1, 3), seed + 70_000)
            assert repr(extract_signature(g)) == repr(reference_signature(g)), seed

    def test_counts_priority_p_vertices_on_the_longest_path(self):
        # Adam at 0 picks between 1 -> 2 (two priority-1 vertices) and 3;
        # the priority-4 vertex 3 ends every path at p = 1 and p = 3
        g = make(4, [ADAM, EVE, EVE, EVE, EVE], [0, 1, 1, 4, 0],
                 [(1, 3), (2,), (4,), (0,), (4,)])
        mu = extract_signature(g)
        assert [mu[v] for v in range(5)] == [
            (0, 2), (0, 2), (0, 1), (0, 0), (0, 0)]
        assert mu == reference_signature(g)


class TestOneSolvePerGame:
    @staticmethod
    def count_root_solves(monkeypatch, g):
        calls = []
        solve = zielonka._solve

        def counting(game, V, sigma):
            if game is g and len(V) == g.n:
                calls.append(V)
            return solve(game, V, sigma)

        monkeypatch.setattr(zielonka, "_solve", counting)
        return calls

    def test_recursion_runs_once_per_game(self, monkeypatch):
        g = generate_random_game(20, 8, (1, 3), 7)
        calls = self.count_root_solves(monkeypatch, g)
        region = solve_zielonka(g)
        sigma = eve_winning_strategy(g)
        mu = extract_signature(g)
        assert len(calls) == 1
        assert solve_zielonka(g) == region
        assert eve_winning_strategy(g) == sigma
        assert extract_signature(g) == mu
        assert len(calls) == 1

    def test_region_is_built_once(self):
        # Region is frozen, so every call can share the one kept with the solve
        g = generate_random_game(20, 8, (1, 3), 7)
        region = solve_zielonka(g)
        assert solve_zielonka(g) is region
        assert region.adam_wins == frozenset(range(g.n)) - region.eve_wins

    def test_strategy_is_a_fresh_dict(self):
        g = generate_random_game(20, 8, (1, 3), 7)
        sigma = eve_winning_strategy(g)
        assert sigma
        want = dict(sigma)
        sigma.clear()
        assert eve_winning_strategy(g) == want
        assert repr(extract_signature(g)) == repr(reference_signature(g))

    def test_star_game_in_linear_time(self):
        # every vertex moves to 0, an even self-loop, so 0 has in-degree n:
        # the predecessor build and the solve must stay linear in it
        n = 10**5
        g = make(2, [v % 2 for v in range(n)], [2] + [v % 3 for v in range(1, n)],
                 [(0,)] * n)
        started = time.perf_counter()
        assert solve_zielonka(g).eve_wins == frozenset(range(n))
        mu = extract_signature(g)
        assert time.perf_counter() - started < 10
        assert [mu[v] for v in range(4)] == [(0,), (1,), (0,), (0,)]


def pinned_games():
    """300 seeded games: n from 1 to 40, d from 2 to 12, 1-3 successors."""
    for seed in range(300):
        rng = random.Random(seed)
        n, d = rng.randint(1, 40), rng.choice((2, 4, 6, 8, 10, 12))
        yield generate_random_game(n, d, (1, min(3, n)), seed)


def results(g):
    return (solve_zielonka(g).eve_wins, eve_winning_strategy(g),
            repr(extract_signature(g)))


class TestLoopMatchesRecursion:
    # sha256 of repr() of the 300 (sorted region, strategy, signature repr)
    # triples below, as the recursive solve (zielonka_reference) gives them
    RESULTS_SHA256 = "ce99d332d9762607a942e13f70a723be3a03da53fb56bd9a5b6e319c25ada3c3"

    def test_results_pinned(self):
        triples = [(sorted(eve), sigma, mu) for eve, sigma, mu in map(results, pinned_games())]
        assert hashlib.sha256(repr(triples).encode()).hexdigest() == self.RESULTS_SHA256

    def test_ladder_under_a_tight_recursion_limit(self):
        # the recursive solve nests a Python frame per priority and raises
        # RecursionError here; the loop nests none
        g = ladder(400)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            region = solve_zielonka(g)
            mu = extract_signature(g)
        finally:
            sys.setrecursionlimit(limit)
        assert region.eve_wins == frozenset({0})
        assert mu[0] == (0,) * 200
        assert all(mu[v] == TOP for v in range(1, 400))
