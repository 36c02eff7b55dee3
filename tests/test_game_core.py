import pytest

from paritytree.game_core import (
    ADAM,
    EVE,
    EVEN,
    ODD,
    Cycle,
    ParityGame,
    PGParseError,
    classify_cycle,
    even_priority_bound,
    generate_random_game,
    parse_pgsolver,
    validate_game,
    write_pgsolver,
)
from paritytree.oracle import solve_bruteforce
from paritytree.progress_measure import value_iteration
from paritytree.universal_tree import make_naive_tree
from paritytree.zielonka import eve_winning_strategy, extract_signature, solve_zielonka


def make(d, owner, priority, successors, names=None):
    return ParityGame(d, tuple(owner), tuple(priority),
                      tuple(tuple(s) for s in successors), names)


SIMPLE = make(2, [EVE, ADAM], [2, 1], [(1,), (0, 1)])


class TestValidate:
    def test_valid_game(self):
        assert validate_game(SIMPLE) == []

    def test_dead_end(self):
        g = make(2, [0, 0], [0, 1], [(1,), ()])
        assert any("dead end at vertex 1" in v for v in validate_game(g))

    def test_priority_exceeds_d(self):
        g = make(2, [0], [3], [(0,)])
        assert any("priority exceeds d" in v for v in validate_game(g))

    def test_negative_priority(self):
        g = make(2, [0], [-1], [(0,)])
        assert any("negative priority" in v for v in validate_game(g))

    def test_odd_d(self):
        g = make(3, [0], [1], [(0,)])
        assert any("not an even number" in v for v in validate_game(g))

    def test_bad_owner(self):
        g = make(2, [7], [0], [(0,)])
        assert any("owner 7" in v for v in validate_game(g))

    def test_successor_out_of_range(self):
        g = make(2, [0, 1], [0, 1], [(1,), (5,)])
        assert any("out of range" in v for v in validate_game(g))

    def test_mismatched_tables(self):
        g = ParityGame(2, (0, 1), (0,), ((1,), (0,)))
        assert any("priority table" in v for v in validate_game(g))


class TestEvenPriorityBound:
    @pytest.mark.parametrize("p,d", [(0, 2), (1, 2), (2, 2), (3, 4), (4, 4), (7, 8)])
    def test_values(self, p, d):
        assert even_priority_bound(p) == d


class TestParse:
    def test_basic(self):
        g = parse_pgsolver("parity 1;\n0 2 0 1;\n1 1 1 0,1;\n")
        assert g == SIMPLE
        assert g.d == 2

    def test_names_and_whitespace(self):
        text = 'parity 1;\n\n  1   3 1   0 , 1   "b" ;\n0 0 0 1 "a";\n'
        g = parse_pgsolver(text)
        assert g.names == ("a", "b")
        assert g.successors == ((1,), (0, 1))
        assert g.d == 4  # even cover of max priority 3

    def test_out_of_order_ids(self):
        g = parse_pgsolver("parity 2;\n2 0 0 0;\n0 1 1 2;\n1 2 0 1;\n")
        assert g.priority == (1, 2, 0)

    def test_missing_header(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("0 0 0 0;\n")
        assert exc.value.line == 1
        assert "header" in str(exc.value)

    def test_missing_semicolon(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("parity 0;\n0 0 0 0\n")
        assert exc.value.line == 2
        assert "';'" in str(exc.value)

    def test_malformed_vertex_line(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("parity 0;\n0 zero 0 0;\n")
        assert exc.value.line == 2

    def test_duplicate_id(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("parity 1;\n0 0 0 0;\n0 1 1 0;\n")
        assert exc.value.line == 3
        assert "duplicate" in str(exc.value)

    def test_undeclared_successor(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("parity 1;\n0 0 0 5;\n1 1 1 0;\n")
        assert exc.value.line == 2
        assert "undeclared" in str(exc.value)

    def test_header_must_match_vertex_count(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("\nparity 2;\n0 0 0 1;\n1 1 1 0;\n")
        assert exc.value.line == 2
        assert "max id 2" in str(exc.value)

    def test_empty_input(self):
        with pytest.raises(PGParseError):
            parse_pgsolver("")

    def test_header_only(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("parity 0;\n")
        assert "no vertex lines" in str(exc.value)

    def test_byte_order_mark_is_not_whitespace(self):
        with pytest.raises(PGParseError) as exc:
            parse_pgsolver("\ufeffparity 0;\n0 0 0 0;\n")
        assert exc.value.line == 1
        assert exc.value.message == r"expected header 'parity <max-id>;', got '\ufeffparity 0;'"


class TestWrite:
    def test_canonical_form(self):
        assert write_pgsolver(SIMPLE) == "parity 1;\n0 2 0 1;\n1 1 1 0,1;\n"

    def test_rejects_invalid(self):
        g = make(2, [0], [0], [()])
        with pytest.raises(ValueError):
            write_pgsolver(g)

    def test_round_trip_many(self):
        for seed in range(200):
            n = 1 + seed % 8
            g = generate_random_game(n, 2 + 2 * (seed % 4), (1, min(2, n)), seed)
            assert parse_pgsolver(write_pgsolver(g)) == g


class TestGenerate:
    def test_valid_and_deterministic(self):
        a = generate_random_game(7, 6, (1, 3), seed=42)
        b = generate_random_game(7, 6, (1, 3), seed=42)
        assert a == b
        assert validate_game(a) == []
        assert all(1 <= len(s) <= 3 for s in a.successors)

    def test_different_seeds_differ(self):
        games = {generate_random_game(6, 4, (1, 2), seed=s) for s in range(20)}
        assert len(games) > 1

    def test_d_covers_realized_priorities(self):
        for seed in range(50):
            g = generate_random_game(4, 8, (1, 2), seed)
            assert g.d == even_priority_bound(max(g.priority))

    def test_infeasible_degree(self):
        with pytest.raises(ValueError):
            generate_random_game(2, 2, (1, 3), seed=0)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            generate_random_game(2, 3, (1, 2), seed=0)


class TestClassifyCycle:
    def setup_method(self):
        self.g = make(4, [0, 1, 0], [1, 4, 3], [(1,), (2,), (0, 1)])

    def test_even_cycle(self):
        assert classify_cycle(self.g, Cycle((0, 1, 2))) == EVEN

    def test_even_two_cycle(self):
        assert classify_cycle(self.g, Cycle((1, 2))) == EVEN  # top is 4

    def test_odd_cycle(self):
        g = make(4, [EVE, ADAM], [1, 3], [(1,), (0,)])
        assert classify_cycle(g, Cycle((0, 1))) == ODD

    def test_rotation_invariant(self):
        for rot in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert classify_cycle(self.g, Cycle(rot)) == EVEN

    def test_not_a_cycle(self):
        with pytest.raises(ValueError):
            classify_cycle(self.g, Cycle((0, 2)))

    def test_empty_cycle(self):
        with pytest.raises(ValueError):
            classify_cycle(self.g, Cycle(()))

    def test_self_loop(self):
        g = make(2, [0], [1], [(0,)])
        assert classify_cycle(g, Cycle((0,))) == ODD


class TestPredecessors:
    def test_reverse_adjacency(self):
        g = make(2, [0, 1, 0], [0, 1, 2], [(1, 2), (2,), (2,)])
        assert g.predecessors() == [[], [0], [0, 1, 2]]

    def test_built_once_listing_each_source_once_in_order(self):
        g = make(2, [0, 1, 0, 1], [0, 1, 2, 1],
                 [(3, 1, 3), (1, 3, 1, 0), (3, 3, 2), (0, 0)])
        preds = g.predecessors()
        assert preds == [[1, 3], [0, 1], [2], [0, 1, 2]]
        assert g.predecessors() is preds


class TestPreparedGame:
    """Facts cached on a game must not leak a shared mutable object, and
    must not let an invalid game through on a later call."""

    def test_validate_returns_a_fresh_list(self):
        g = make(2, [0, 0], [0, 1], [(1,), ()])
        first = validate_game(g)
        first.clear()
        assert validate_game(g) == ["dead end at vertex 1"]
        valid = validate_game(SIMPLE)
        valid.append("noise")
        assert validate_game(SIMPLE) == []

    def test_parsed_game_is_marked_valid(self):
        g = parse_pgsolver('parity 2;\n2 0 1 0;\n0 3 0 1,2 "a";\n1 1 1 0;\n')
        assert vars(g)["_violations"] == ()
        assert validate_game(g) == []

    def test_hand_built_game_reports_every_violation(self):
        g = make(3, [0, 2, 1], [-1, 5, 0], [(), (7,), (0,)])
        assert "_violations" not in vars(g)
        assert validate_game(g) == [
            "d=3 is not an even number >= 2",
            "vertex 1: owner 2 not in {0, 1}",
            "vertex 0: negative priority -1",
            "vertex 1: priority exceeds d (5 > 3)",
            "dead end at vertex 0",
            "vertex 1: successor 7 out of range [0, 3)",
        ]

    @pytest.mark.parametrize("solve", [
        solve_zielonka,
        eve_winning_strategy,
        extract_signature,
        solve_bruteforce,
        lambda g: value_iteration(g, make_naive_tree(2, 1)),
    ], ids=["zielonka", "strategy", "signature", "brute", "vi"])
    def test_invalid_game_rejected_on_every_call(self, solve):
        g = make(2, [0, 1], [0, 1], [(1,), ()])
        for _ in range(2):
            with pytest.raises(ValueError, match="dead end at vertex 1"):
                solve(g)
