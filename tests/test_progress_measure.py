import hashlib
import random
import weakref

import pytest

from paritytree.game_core import (
    ADAM,
    EVE,
    EVEN,
    Cycle,
    ParityGame,
    classify_cycle,
    generate_random_game,
)
from paritytree import progress_measure
from paritytree.oracle import solve_bruteforce
from paritytree.progress_measure import (
    POLICIES,
    lift_value,
    strategy_from_measure,
    validate_signature,
    value_iteration,
    value_leq,
)
from paritytree.universal_tree import (
    TOP,
    block_bounds,
    leaf_codes,
    leaf_count,
    make_naive_tree,
    make_succinct_tree,
    tree_from_leaf_codes,
)
from paritytree.zielonka import solve_zielonka
from families import chain, ladder
from test_universal_tree import reference_fixed_point, tower


def make(d, owner, priority, successors):
    return ParityGame(d, tuple(owner), tuple(priority),
                      tuple(tuple(s) for s in successors))


class TestValueOrder:
    def test_total_order(self):
        assert value_leq((0, 0), (0, 1))
        assert value_leq((0, 1), (1, 0))
        assert not value_leq((1, 0), (0, 1))
        assert value_leq((1, 0), (1, 0))

    def test_top_is_greatest(self):
        assert value_leq((5, 5), TOP)
        assert value_leq(TOP, TOP)
        assert not value_leq(TOP, (5, 5))


class TestLiftValue:
    def setup_method(self):
        self.tree = make_naive_tree(3, 1)  # leaves (0,), (1,), (2,)

    def test_eve_takes_minimum_option(self):
        g = make(2, [EVE, EVE, EVE], [0, 0, 0], [(1, 2), (1,), (2,)])
        mu = [(0,), (1,), (2,)]
        assert lift_value(g, self.tree, mu, 0) == (1,)

    def test_adam_takes_maximum_option(self):
        g = make(2, [ADAM, EVE, EVE], [0, 0, 0], [(1, 2), (1,), (2,)])
        mu = [(0,), (1,), (2,)]
        assert lift_value(g, self.tree, mu, 0) == (2,)

    def test_odd_priority_is_strict(self):
        g = make(2, [EVE, EVE], [1, 0], [(1,), (1,)])
        mu = [(0,), (1,)]
        assert lift_value(g, self.tree, mu, 0) == (2,)
        mu = [(0,), (2,)]
        assert lift_value(g, self.tree, mu, 0) == TOP

    def test_even_priority_is_nonstrict(self):
        g = make(2, [EVE, EVE], [0, 0], [(1,), (1,)])
        mu = [(0,), (2,)]
        assert lift_value(g, self.tree, mu, 0) == (2,)

    def test_joins_with_current_value(self):
        g = make(2, [EVE, EVE], [0, 0], [(1,), (1,)])
        mu = [(2,), (0,)]
        assert lift_value(g, self.tree, mu, 0) == (2,)

    def test_top_successor_forces_top_when_only_option(self):
        g = make(2, [EVE, EVE], [0, 1], [(1,), (1,)])
        mu = [(0,), TOP]
        assert lift_value(g, self.tree, mu, 0) == TOP


class TestLiftLaws:
    def test_inflationary_and_monotone_randomized(self):
        rng = random.Random(11)
        for trial in range(300):
            g = generate_random_game(2 + trial % 5, 2 + 2 * (trial % 3),
                                     (1, 2), trial)
            tree = make_succinct_tree(g.n, g.d // 2)
            codes = list(leaf_codes(tree)) + [TOP]
            mu = [rng.choice(codes) for _ in range(g.n)]
            # nu pointwise above mu
            nu = [rng.choice([c for c in codes if value_leq(m, c)]) for m in mu]
            for v in range(g.n):
                lifted = lift_value(g, tree, mu, v)
                assert value_leq(mu[v], lifted)  # inflationary
                assert value_leq(lifted, lift_value(g, tree, nu, v))


class TestValueIteration:
    def test_matches_zielonka(self):
        for seed in range(120):
            g = generate_random_game(2 + seed % 5, 2 + 2 * (seed % 3), (1, 2), seed)
            expected = solve_zielonka(g)
            for mk in (make_naive_tree, make_succinct_tree):
                tree = mk(g.n, g.d // 2)
                _, region, _ = value_iteration(g, tree)
                assert region == expected, seed

    def test_policy_independence(self):
        for seed in range(40):
            g = generate_random_game(2 + seed % 5, 4, (1, 2), seed)
            tree = make_succinct_tree(g.n, g.d // 2)
            runs = [
                value_iteration(g, tree, policy="fifo")[0],
                value_iteration(g, tree, policy="roundrobin")[0],
                value_iteration(g, tree, policy="random", seed=seed)[0],
                value_iteration(g, tree, policy="random", seed=seed + 1)[0],
            ]
            assert all(mu == runs[0] for mu in runs[1:]), seed

    def test_lift_budget(self):
        for seed in range(60):
            g = generate_random_game(2 + seed % 5, 4, (1, 2), seed)
            tree = make_succinct_tree(g.n, g.d // 2)
            _, _, stats = value_iteration(g, tree)
            assert stats.total <= g.n * leaf_count(tree)

    def test_odd_self_loop_lifts_through_entire_tree(self):
        g = make(4, [EVE], [1], [(0,)])
        for tree in (make_naive_tree(3, 2), make_succinct_tree(3, 2)):
            mu, region, stats = value_iteration(g, tree)
            assert mu[0] == TOP
            assert region.adam_wins == frozenset({0})
            # one change per leaf plus the final step to TOP... the walk
            # visits every leaf exactly once, so |T| value changes total
            assert stats.per_vertex[0] == leaf_count(tree)

    def test_hand_built_tree_of_any_height(self):
        # priority 6000 needs height 3,000: the tree's facts fill on a stack
        g = make(6000, [EVE], [6000], [(0,)])
        mu, region, stats = value_iteration(g, tower(3000))
        assert mu == [(0,) * 3000] and region.eve_wins == frozenset({0})
        naive_mu, naive_region, naive_stats = value_iteration(g, make_naive_tree(1, 3000))
        assert (mu, region, stats.total) == (naive_mu, naive_region, naive_stats.total)

    def test_unknown_policy(self):
        g = make(2, [EVE], [0], [(0,)])
        with pytest.raises(ValueError):
            value_iteration(g, make_naive_tree(1, 1), policy="lifo")

    def test_initial_measure_respected(self):
        g = make(2, [EVE], [0], [(0,)])
        tree = make_naive_tree(2, 1)
        mu, _, stats = value_iteration(g, tree, initial=[(1,)])
        assert mu == [(1,)]
        assert stats.total == 0

    def test_initial_measure_must_cover_every_vertex(self):
        g = make(2, [EVE], [0], [(0,)])
        tree = make_naive_tree(2, 1)
        with pytest.raises(ValueError, match="initial measure has 2 values for 1 vertices"):
            value_iteration(g, tree, initial=[(0,), (1,)])
        g = make(2, [EVE, EVE], [0, 0], [(1,), (0,)])
        with pytest.raises(ValueError, match="initial measure has 1 values for 2 vertices"):
            value_iteration(g, tree, initial=[(1,)])

    def test_trees_of_one_height_share_no_state(self):
        # naive (9 leaves) and succinct (5 leaves) trees of height 2 share
        # their (h, d) slots and nothing else, whichever runs first; two
        # equal trees that are separate objects share no bounds memo either
        naive, succinct = make_naive_tree(3, 2), make_succinct_tree(3, 2)
        twin = tree_from_leaf_codes(list(leaf_codes(succinct)), 2)
        assert twin == succinct and twin.bounds is not succinct.bounds
        games = [make(4, [EVE], [1], [(0,)])] + [
            generate_random_game(3, 4, (1, 2), seed) for seed in range(30)]
        for g in games:
            expected, totals = solve_zielonka(g), {}
            for tree in (naive, succinct, naive, succinct):
                mu, region, stats = value_iteration(g, tree)
                size = leaf_count(tree)
                assert mu == reference_fixed_point(g, tree), (g, size)
                assert region == expected, g
                assert totals.setdefault(size, stats.total) == stats.total <= g.n * size
        assert twin.bounds == {}
        assert naive.bounds.keys() - range(10) == set()
        assert succinct.bounds.keys() - range(6) == set()
        # the odd self-loop walks every leaf of the tree it was given
        for tree in (naive, succinct, naive, twin):
            assert value_iteration(games[0], tree)[2].total == leaf_count(tree)
        assert twin.bounds == succinct.bounds and twin.bounds is not succinct.bounds


class TestTreeMemo:
    """The block-bounds memo each tree carries (OrderedTree.bounds)."""

    @staticmethod
    def trees():
        # a tree read from leaf codes, as `--tree file:PATH` does, with
        # children of unequal size
        irregular = tree_from_leaf_codes([(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)], 2)
        return [make_naive_tree(3, 2), make_succinct_tree(4, 2),
                tree_from_leaf_codes(list(leaf_codes(make_succinct_tree(4, 3))), 3),
                irregular]

    def test_entries_equal_block_bounds(self):
        for tree in self.trees():
            for seed in range(40):
                g = generate_random_game(2 + seed % 3, 2 * tree.height, (1, 2), seed)
                if g.d // 2 == tree.height:
                    value_iteration(g, tree, policy=POLICIES[seed % 3], seed=seed)
            assert len(tree.bounds) > 2
            assert tree.bounds.keys() <= set(range(leaf_count(tree) + 1))
            for rank, held in tree.bounds.items():
                assert held == block_bounds(tree, rank), (tree, rank)

    def test_leaves_equality_hash_and_repr_alone(self):
        used = make_succinct_tree(4, 2)
        fresh = tree_from_leaf_codes(list(leaf_codes(used)), 2)
        value_iteration(generate_random_game(4, 4, (1, 2), 3), used)
        assert used.bounds and not fresh.bounds
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "bounds" not in repr(used)

    def test_reused_tree_matches_fresh_tree_per_game(self):
        shared = {h: make_succinct_tree(6, h) for h in (1, 2, 3)}
        for seed in range(300):
            g = generate_random_game(6, 6, (1, 3), seed)
            h = g.d // 2
            got = value_iteration(g, shared[h])
            want = value_iteration(g, tree_from_leaf_codes(list(leaf_codes(shared[h])), h))
            assert got[0] == want[0] and got[1] == want[1], seed
            assert got[2].total == want[2].total and got[2].per_vertex == want[2].per_vertex

    def test_interned_tree_matches_fresh_twin_per_game(self):
        # the builders return one root per (n, h), so these games all
        # share its memo; each twin is a separate object with an empty one
        tree = make_succinct_tree(30, 5)
        codes = list(leaf_codes(tree))
        for seed in range(200):
            g = generate_random_game(30, 10, (1, 2), seed)
            assert make_succinct_tree(g.n, g.d // 2) is tree
            twin = tree_from_leaf_codes(codes, 5)
            got, want = value_iteration(g, tree), value_iteration(g, twin)
            assert got[0] == want[0] and got[1] == want[1], seed
            assert got[2].total == want[2].total and got[2].per_vertex == want[2].per_vertex

    def test_second_solve_on_a_tree_makes_no_descent(self, monkeypatch):
        g = generate_random_game(6, 6, (1, 2), 4)
        tree = make_succinct_tree(6, g.d // 2)
        first = value_iteration(g, tree)
        descents = []
        monkeypatch.setattr(progress_measure, "block_bounds",
                            lambda t, rank: descents.append(rank))
        again = value_iteration(g, tree)
        assert again[:2] == first[:2] and again[2].total == first[2].total > 0
        assert descents == []

    def test_memo_goes_with_the_tree(self):
        # a tree read from leaf codes, and a builder tree over the intern
        # budget, which no later call returns again
        g = generate_random_game(5, 10, (1, 2), 1)
        for make in (lambda: tree_from_leaf_codes(list(leaf_codes(make_succinct_tree(5, 5))), 5),
                     lambda: make_succinct_tree(300, 5)):
            tree = make()
            value_iteration(g, tree)
            assert tree.bounds
            ref = weakref.ref(tree)
            del tree
            assert ref() is None


class TestLiftSequence:
    """Which vertex each policy lifts when, pinned by lift counts: a loop
    that reaches the same fixed point by another sequence fails here."""

    # sha256 of repr() of the 324 per_vertex lists the test below builds
    PER_VERTEX_SHA256 = "b364e0cbed38f722150e2def883be982afcc952a6d323869793b225e3fedc072"

    def test_per_vertex_counts_of_every_policy(self):
        lists = []
        for seed in range(60):
            rng = random.Random(seed)
            n, d = rng.randint(2, 30), rng.choice((2, 4, 6, 8, 10))
            g = generate_random_game(n, d, (1, min(3, n)), seed)
            trees = [make_succinct_tree(g.n, g.d // 2)]
            if g.n ** (g.d // 2) <= 10**5:
                trees.append(make_naive_tree(g.n, g.d // 2))
            for tree in trees:
                for policy, policy_seed in (("fifo", None), ("roundrobin", None), ("random", 7)):
                    lists.append(value_iteration(g, tree, policy, policy_seed)[2].per_vertex)
        assert len(lists) == 324
        assert hashlib.sha256(repr(lists).encode()).hexdigest() == self.PER_VERTEX_SHA256

    @pytest.mark.parametrize("game, leaves, total", [
        (chain(200), 201, 200 * 201 // 2),  # ids along the edges: fifo's worst order
        (chain(200, reverse=True), 201, 200),
        (ladder(10), 176, 539),
        (ladder(16), 1_451, 6_347),
    ], ids=["chain-200", "chain-200-reversed", "ladder-10", "ladder-16"])
    def test_family_fifo_totals(self, game, leaves, total):
        tree = make_succinct_tree(game.n, game.d // 2)
        assert leaf_count(tree) == leaves
        _, region, stats = value_iteration(game, tree)
        assert stats.total == total
        assert region == solve_zielonka(game)


class TestValidateSignature:
    def test_accepts_fixed_point(self):
        for seed in range(60):
            g = generate_random_game(2 + seed % 5, 4, (1, 2), seed)
            tree = make_succinct_tree(g.n, g.d // 2)
            mu, _, _ = value_iteration(g, tree)
            ok, why = validate_signature(g, tree, mu)
            assert ok, (seed, why)

    def test_rejects_tampered_measure(self):
        g = make(2, [EVE, ADAM], [1, 2], [(1,), (0,)])  # Eve wins both
        tree = make_naive_tree(2, 1)
        mu, _, _ = value_iteration(g, tree)
        bad = list(mu)
        bad[0] = (0,) * tree.height  # breaks strictness at the odd vertex
        ok, failure = validate_signature(g, tree, bad)
        assert not ok
        assert failure[0] == 0

    def test_all_top_is_vacuously_valid(self):
        g = make(2, [EVE], [1], [(0,)])
        ok, _ = validate_signature(g, make_naive_tree(1, 1), [TOP])
        assert ok


class TestStrategyFromMeasure:
    def test_restricted_cycles_are_even(self):
        networkx = pytest.importorskip("networkx")
        for seed in range(60):
            g = generate_random_game(2 + seed % 5, 4, (1, 2), seed + 77)
            tree = make_succinct_tree(g.n, g.d // 2)
            mu, region, _ = value_iteration(g, tree)
            choice = strategy_from_measure(g, tree, mu)
            graph = networkx.DiGraph()
            for v in region.eve_wins:
                outs = [choice[v]] if g.owner[v] == EVE else [
                    w for w in g.successors[v] if w in region.eve_wins]
                for w in outs:
                    graph.add_edge(v, w)
            for cyc in networkx.simple_cycles(graph):
                assert classify_cycle(g, Cycle(tuple(cyc))) == EVEN, seed

    def test_invalid_measure_raises(self):
        g = make(2, [EVE, EVE], [1, 0], [(1,), (1,)])
        tree = make_naive_tree(2, 1)
        with pytest.raises(ValueError):
            strategy_from_measure(g, tree, [(0,), (0,)])
