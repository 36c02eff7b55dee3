"""Acceptance suite: one test per criterion, each ending in a printed
PASS line (pytest -v additionally reports per-criterion pass/fail)."""

import itertools
import random
import time

import pytest

from paritytree.bounds import (
    check_closed_forms,
    check_ratio,
    f_recurrence,
    f_upper_closed,
    g_lower_closed,
    g_recurrence,
)
from paritytree.cli import EXIT_INPUT, main
from paritytree.game_core import (
    ADAM,
    EVE,
    EVEN,
    Cycle,
    ParityGame,
    PGParseError,
    classify_cycle,
    generate_random_game,
    parse_pgsolver,
    write_pgsolver,
)
from paritytree.oracle import PositionalStrategy, play_outcome, solve_bruteforce
from paritytree.progress_measure import (
    lift_value,
    strategy_from_measure,
    validate_signature,
    value_iteration,
    value_leq,
)
from paritytree.universal_tree import (
    TOP,
    embed,
    enumerate_trees,
    find_minimal_universal,
    is_universal,
    leaf_codes,
    leaf_count,
    make_naive_tree,
    make_succinct_tree,
    signature_to_tree,
)
from paritytree.zielonka import extract_signature, solve_zielonka


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def all_games(n, d):
    """Every valid n-vertex game with priorities in [0, d] and nonempty
    successor sets of size at most 2."""
    succ_sets = [c for k in (1, 2) for c in itertools.combinations(range(n), k)]
    per_vertex = [(o, p, s) for o in (0, 1) for p in range(d + 1)
                  for s in succ_sets]
    for combo in itertools.product(per_vertex, repeat=n):
        yield ParityGame(
            d,
            tuple(c[0] for c in combo),
            tuple(c[1] for c in combo),
            tuple(c[2] for c in combo),
        )


def seeded_game(seed, n_max=6, d_max=6):
    n = 2 + seed % (n_max - 1)
    d = 2 + 2 * (seed % (d_max // 2))
    return generate_random_game(n, d, (1, 2), seed)


def test_criterion_1_solver_equivalence_exhaustive():
    started = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for d in (2, 4):
            h = d // 2
            naive = make_naive_tree(n, h)
            succ = make_succinct_tree(n, h)
            for g in all_games(n, d):
                expected = solve_bruteforce(g)
                assert solve_zielonka(g) == expected, g
                assert value_iteration(g, naive)[1] == expected, g
                assert value_iteration(g, succ)[1] == expected, g
                checked += 1
    elapsed = time.perf_counter() - started
    report(1, f"4 solvers agree on all {checked} games "
              f"(n<=3, d<=4, out-degree<=2) in {elapsed:.1f}s")


def test_criterion_2_solver_equivalence_randomized():
    for seed in range(500):
        g = seeded_game(seed)
        expected = solve_bruteforce(g)
        assert solve_zielonka(g) == expected, seed
        for kind, mk in (("naive", make_naive_tree), ("succinct", make_succinct_tree)):
            assert value_iteration(g, mk(g.n, g.d // 2))[1] == expected, (seed, kind)
    report(2, "4 solvers agree on 500 seeded games (n<=6, d<=6)")


def test_criterion_3_minimal_universal_tree():
    size, witness = find_minimal_universal(5, 2)
    assert size == 11
    assert leaf_count(witness) == 11
    assert is_universal(witness, 5, 2)[0]
    # exhaustive: no 10-leaf height-2 tree is (5,2)-universal
    for candidate in enumerate_trees(10, 2):
        assert not is_universal(candidate, 5, 2)[0], candidate
    assert f_recurrence(5, 2) == 11
    assert g_recurrence(5, 2) == 10
    assert leaf_count(make_naive_tree(5, 2)) == 25
    report(3, "minimal (5,2)-universal size is 11 (all 512 10-leaf trees fail); "
              "f(5,2)=11, g(5,2)=10, naive has 25 leaves")


def test_criterion_4_constructions_are_universal():
    for n in range(1, 7):
        for h in range(1, 4):
            for kind, mk in (("succinct", make_succinct_tree), ("naive", make_naive_tree)):
                ok, witness = is_universal(mk(n, h), n, h)
                assert ok, (kind, n, h, witness)
    report(4, "succinct and naive trees are (n,h)-universal for all n<=6, h<=3")


def test_criterion_5_bound_grids():
    def counted(t, memo={}):
        # memoized leaf count; succinct trees share equal subtrees heavily
        if t.height == 0:
            return 1
        if t not in memo:
            memo[t] = sum(counted(c) for c in t.children)
        return memo[t]

    for n in range(1, 65):
        for h in range(1, 9):
            f, g = f_recurrence(n, h), g_recurrence(n, h)
            assert g_lower_closed(n, h) <= g <= f <= f_upper_closed(n, h), (n, h)
            assert counted(make_succinct_tree(n, h)) == f, (n, h)
    assert check_closed_forms(8, 8) == []
    assert check_ratio(64, 8) == []
    report(5, "bound sandwich, succinct sizes, closed forms, and ratio "
              "check all hold on n<=64, h<=8")


def test_criterion_6_lift_laws():
    rng = random.Random(2024)
    trials = 0
    while trials < 10_000:
        g = seeded_game(rng.randrange(10_000), n_max=5, d_max=6)
        tree = make_succinct_tree(g.n, g.d // 2)
        codes = list(leaf_codes(tree)) + [TOP]
        for _ in range(20):
            mu = [rng.choice(codes) for _ in range(g.n)]
            nu = [rng.choice([c for c in codes if value_leq(m, c)]) for m in mu]
            v = rng.randrange(g.n)
            lifted = lift_value(g, tree, mu, v)
            assert value_leq(mu[v], lifted), (g, mu, v)  # inflationary
            assert value_leq(lifted, lift_value(g, tree, nu, v)), (g, mu, nu, v)
            trials += 1
    # exhaustive tiny cases: every 1-vertex game over every measure value
    for d in (2, 4):
        tree = make_succinct_tree(1, d // 2)
        codes = list(leaf_codes(tree)) + [TOP]
        for owner in (EVE, ADAM):
            for p in range(d + 1):
                g = ParityGame(d, (owner,), (p,), ((0,),))
                for a in codes:
                    for b in codes:
                        if not value_leq(a, b):
                            continue
                        la = lift_value(g, tree, [a], 0)
                        lb = lift_value(g, tree, [b], 0)
                        assert value_leq(a, la)
                        assert value_leq(la, lb)
    for seed in range(100):
        g = seeded_game(seed)
        tree = make_succinct_tree(g.n, g.d // 2)
        final = [
            value_iteration(g, tree, policy="fifo")[0],
            value_iteration(g, tree, policy="roundrobin")[0],
            value_iteration(g, tree, policy="random", seed=seed * 3 + 1)[0],
        ]
        assert final[0] == final[1] == final[2], seed
    report(6, "lift is inflationary and monotone on 10^4 random trials plus "
              "exhaustive tiny cases; 100 games policy-independent")


def test_criterion_7_lift_budget():
    for seed in range(200):
        g = seeded_game(seed)
        for mk in (make_naive_tree, make_succinct_tree):
            tree = mk(g.n, g.d // 2)
            _, _, stats = value_iteration(g, tree)
            assert stats.total <= g.n * leaf_count(tree), seed
    loop = ParityGame(4, (EVE,), (1,), ((0,),))
    for mk in (make_naive_tree, make_succinct_tree):
        tree = mk(3, 2)
        _, _, stats = value_iteration(loop, tree)
        assert stats.per_vertex[0] == leaf_count(tree)
        assert stats.total == leaf_count(tree)
    report(7, "lift totals within n*|T| on 400 runs; the odd self-loop "
              "lifts exactly |T| times on both trees")


def test_criterion_8_signature_pipeline():
    networkx = pytest.importorskip("networkx")
    for seed in range(250):
        g = seeded_game(seed)
        mu = extract_signature(g)
        tree, codes = signature_to_tree(mu, g.n, g.d)
        as_list = [TOP if mu[v] == TOP else codes[v] for v in g.vertices()]
        ok, why = validate_signature(g, tree, as_list)
        assert ok, (seed, why)
        if not tree.is_empty:
            assert embed(tree, make_succinct_tree(g.n, g.d // 2)) is not None, seed
    playoffs = 0
    for seed in range(120):
        g = seeded_game(seed, n_max=5)
        tree = make_succinct_tree(g.n, g.d // 2)
        measure, region, _ = value_iteration(g, tree)
        choice = strategy_from_measure(g, tree, measure)
        # even cycles in the choice-restricted subgraph of Eve's region
        graph = networkx.DiGraph()
        for v in region.eve_wins:
            outs = [choice[v]] if g.owner[v] == EVE else list(g.successors[v])
            for w in outs:
                if w in region.eve_wins:
                    graph.add_edge(v, w)
        for cyc in networkx.simple_cycles(graph):
            assert classify_cycle(g, Cycle(tuple(cyc))) == EVEN, seed
        # playoffs against every positional Adam strategy
        sigma = PositionalStrategy({
            v: choice.get(v, g.successors[v][0])
            for v in g.vertices() if g.owner[v] == EVE})
        adam_verts = [v for v in g.vertices() if g.owner[v] == ADAM]
        for picks in itertools.product(*(g.successors[v] for v in adam_verts)):
            tau = PositionalStrategy(dict(zip(adam_verts, picks)))
            for v0 in region.eve_wins:
                assert play_outcome(g, sigma, tau, v0) == EVEN, (seed, v0)
                playoffs += 1
    report(8, f"250 extracted signatures validate and embed; measure "
              f"strategies allow only even cycles and win {playoffs} playoffs")


def test_criterion_9_parser(tmp_path, capsys):
    for seed in range(1000):
        n = 1 + seed % 9
        g = generate_random_game(n, 2 + 2 * (seed % 4), (1, min(2, n)), seed)
        assert parse_pgsolver(write_pgsolver(g)) == g, seed
    corpus = [
        ("0 0 0 0;\n", 1, "header"),
        ("parity 1;\n0 0 0 1;\n1 1 1 0\n", 3, "';'"),
        ("parity 1;\n0 0 0 1;\nbogus line;\n", 3, "malformed"),
        ("parity 1;\n0 0 0 1;\n0 1 1 0;\n", 3, "duplicate"),
        ("parity 1;\n0 0 0 9;\n1 1 1 0;\n", 2, "undeclared"),
        ("parity 2;\n0 0 0 0;\n5 1 1 0;\n", 1, "dense"),
    ]
    for text, line, needle in corpus:
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver(text)
        assert exc.value.line == line, text
        assert needle in str(exc.value), text
        path = tmp_path / "bad.pg"
        path.write_text(text)
        assert main(["solve", "-i", str(path)]) == EXIT_INPUT
        assert "line" in capsys.readouterr().err
    report(9, "1000 round-trips exact; 6 malformed inputs give "
              "line-anchored errors and CLI exit code 1")
