import io
import os
import subprocess
import sys
import time

import pytest

from paritytree import cli, oracle, zielonka
from paritytree.cli import EXIT_DISAGREE, EXIT_INPUT, EXIT_OK, main
from paritytree.game_core import generate_random_game, write_pgsolver

GAME = "parity 1;\n0 1 0 1;\n1 2 1 0;\n"  # forced 2-cycle, Eve wins both
HUGE = "parity 1;\n0 1000000000001 0 1;\n1 0 1 0;\n"  # 40 bytes, a tree of height 5 * 10^11 + 1


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.pg"
    path.write_text(GAME)
    return str(path)


class TestSolve:
    @pytest.mark.parametrize("algorithm", ["brute", "zielonka", "vi"])
    def test_algorithms_agree(self, game_file, capsys, algorithm):
        assert main(["solve", "-i", game_file, "--algorithm", algorithm]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Eve wins:  {0 1}" in out

    def test_tsv_format(self, game_file, capsys):
        assert main(["solve", "-i", game_file, "--format", "tsv",
                     "--algorithm", "zielonka"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eve_wins\t0 1" in out
        assert "adam_wins\t\n" in out

    def test_stdin(self, game_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(GAME.encode())))
        assert main(["solve", "-i", "-", "--algorithm", "zielonka"]) == EXIT_OK
        assert "Eve wins" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--algorithm", "zielonka", "--emit-signature"],
        ["--algorithm", "vi", "--stats", "--format", "tsv"],
    ], ids=["zielonka", "vi"])
    def test_byte_order_mark(self, tmp_path, capsys, monkeypatch, args):
        text = write_pgsolver(generate_random_game(12, 6, (1, 3), seed=3))
        plain, marked = tmp_path / "plain.pg", tmp_path / "marked.pg"
        plain.write_bytes(text.encode())
        marked.write_bytes(("\ufeff" + text).encode())
        outputs = []
        for path in (plain, marked):
            assert main(["solve", "-i", str(path), *args]) == EXIT_OK
            outputs.append(capsys.readouterr())
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(marked.read_bytes())))
        assert main(["solve", "-i", "-", *args]) == EXIT_OK
        outputs.append(capsys.readouterr())
        assert outputs[0].out and not outputs[0].err
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_vi_stats(self, game_file, capsys):
        assert main(["solve", "-i", game_file, "--tree", "naive",
                     "--stats"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tree: naive" in out
        lines = [l for l in out.splitlines() if "\t" in l]
        assert len(lines) == 2  # one per vertex

    def test_vi_policies(self, game_file, capsys):
        for policy in ("fifo", "roundrobin", "random:7"):
            assert main(["solve", "-i", game_file, "--policy", policy]) == EXIT_OK
            assert "Eve wins:  {0 1}" in capsys.readouterr().out

    def test_bad_policy(self, game_file, capsys):
        assert main(["solve", "-i", game_file, "--policy", "bogus"]) == EXIT_INPUT
        assert "unknown policy" in capsys.readouterr().err
        for spec in ("random:abc", "random:"):
            assert main(["solve", "-i", game_file, "--policy", spec]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err == (f"error: unknown policy {spec!r}, "
                           "expected fifo | roundrobin | random:SEED\n")

    def test_emit_signature(self, game_file, capsys):
        assert main(["solve", "-i", game_file, "--algorithm", "zielonka",
                     "--emit-signature"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0\t1" in out and "1\t0" in out

    def test_emit_signature_solves_once(self, game_file, capsys, monkeypatch):
        roots = []
        solve = zielonka._solve

        def counting(g, V, sigma):
            if len(V) == g.n:
                roots.append(V)
            return solve(g, V, sigma)

        monkeypatch.setattr(zielonka, "_solve", counting)
        assert main(["solve", "-i", game_file, "--algorithm", "zielonka",
                     "--emit-signature"]) == EXIT_OK
        assert "Eve wins:  {0 1}" in capsys.readouterr().out
        assert len(roots) == 1

    def test_cross_check_agreement(self, game_file, capsys):
        assert main(["solve", "-i", game_file, "--cross-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cross-check: agreement" in out
        assert "zielonka" in out and "brute" in out

    def test_cross_check_notes_skipped_oracle(self, tmp_path, capsys):
        # eight Eve vertices with eight moves each: 8^8 strategies, past the cap
        path = tmp_path / "wide.pg"
        path.write_text("parity 7;\n" + "".join(f"{v} 0 0 0,1,2,3,4,5,6,7;\n" for v in range(8)))
        assert main(["solve", "-i", str(path), "--cross-check"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.endswith("cross-check: agreement\n")
        assert "brute" not in captured.out
        assert captured.err == (f"note: skipped brute: strategy space exceeds cap "
                                f"{oracle.STRATEGY_CAP}; refusing to enumerate\n")

    def test_cross_check_skips_oversized_naive_tree(self, tmp_path, capsys):
        path = tmp_path / "g40.pg"
        assert main(["gen", "--n", "40", "--d", "8", "--seed", "3",
                     "-o", str(path)]) == EXIT_OK
        assert main(["solve", "-i", str(path), "--cross-check"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "cross-check: agreement" in captured.out
        assert "vi-naive" not in captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("note: skipped vi-naive:")

    def test_file_tree(self, game_file, tmp_path, capsys):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("0\n1\n")  # two leaves at height 1
        assert main(["solve", "-i", game_file,
                     "--tree", f"file:{tree_file}"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "universality not guaranteed" in captured.err
        assert "Eve wins:  {0 1}" in captured.out

    def test_undersized_file_tree_underapproximates(self, game_file, tmp_path, capsys):
        tree_file = tmp_path / "tiny.txt"
        tree_file.write_text("0\n")  # single leaf is not (2,1)-universal
        assert main(["solve", "-i", game_file, "--cross-check",
                     "--tree", f"file:{tree_file}"]) == EXIT_DISAGREE
        captured = capsys.readouterr()
        assert "DISAGREEMENT" in captured.err
        assert "parity 1;" in captured.err  # offending game is dumped

    def test_cross_check_file_tree(self, game_file, tmp_path, capsys):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("0\n1\n")
        assert main(["solve", "-i", game_file, "--cross-check",
                     "--tree", f"file:{tree_file}"]) == EXIT_OK
        captured = capsys.readouterr()
        assert f"vi-file:{tree_file}\t0 1\n" in captured.out
        assert captured.err == ("warning: tree loaded from file; universality not guaranteed, "
                                "the computed region may under-approximate Eve's\n")

    @pytest.mark.parametrize("extra", [[], ["--cross-check"]])
    def test_malformed_file_tree(self, game_file, tmp_path, capsys, extra):
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text("0\n1,x\n")
        assert main(["solve", "-i", game_file, "--tree", f"file:{tree_file}",
                     *extra]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tree_file}:2: ")
        assert err.count("\n") == 1

    def test_unknown_tree_spec(self, game_file, capsys):
        assert main(["solve", "-i", game_file, "--tree", "bogus"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown tree spec 'bogus' "
                                "(use naive, succinct, or file:PATH)\n")

    def test_missing_file_tree(self, game_file, tmp_path, capsys):
        assert main(["solve", "-i", game_file,
                     "--tree", f"file:{tmp_path / 'none.txt'}"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file(self, capsys):
        assert main(["solve", "-i", "/nonexistent.pg"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.pg"
        path.write_text("parity 0;\n0 0 0 0\n")
        assert main(["solve", "-i", str(path)]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.pg"
        path.write_bytes(b'parity 0;\n0 0 0 0 "\xe9";\n')
        assert main(["solve", "-i", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    def test_deep_priority(self, tmp_path, capsys):
        # largest priority 5000: a succinct tree of height 2500
        path = tmp_path / "deep.pg"
        path.write_text("parity 1;\n0 5000 0 1;\n1 0 1 0;\n")
        assert main(["solve", "-i", str(path)]) == EXIT_OK
        assert "Eve wins:  {0 1}" in capsys.readouterr().out

    @pytest.mark.parametrize("game, extra, code, out, err", [
        pytest.param(HUGE, [], EXIT_INPUT, "",
                     "error: succinct tree for (n=2, h=500000000001) would take 8500000000017 "
                     "slots, past the build ceiling of 5000000\n", id="vi"),
        pytest.param(HUGE, ["--algorithm", "zielonka", "--emit-signature"], EXIT_INPUT, "",
                     "error: signature for (n=2, h=500000000001) would take 1000000000002 "
                     "slots, past the build ceiling of 5000000\n", id="signature"),
        pytest.param("parity 0;\n0 2000000 0 0;\n", ["--cross-check"], EXIT_OK,
                     "zielonka\t0\nbrute\t0\ncross-check: agreement\n",
                     "note: skipped vi-naive: naive tree for (n=1, h=1000000) would take "
                     "8000000 slots, past the build ceiling of 5000000\n"
                     "note: skipped vi-succinct: succinct tree for (n=1, h=1000000) would take "
                     "8000000 slots, past the build ceiling of 5000000\n", id="cross-check"),
    ])
    def test_priority_value_refused_before_building(self, tmp_path, game, extra, code, out, err):
        # the height is half the largest priority's value, so a short file asks
        # for a huge tree; a fresh process, which the timeout stops if the
        # ceiling lets the build start
        path = tmp_path / "deep.pg"
        path.write_text(game)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        started = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "paritytree.cli", "solve", "-i", str(path), *extra],
            capture_output=True, text=True, env=env, timeout=10)
        assert time.perf_counter() - started < 0.5
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err)

    def test_zielonka_solves_any_priority_value(self, tmp_path, capsys):
        # the recursion does not size anything by the priorities' values
        path = tmp_path / "deep.pg"
        path.write_text(HUGE)
        assert main(["solve", "-i", str(path), "--algorithm", "zielonka"]) == EXIT_OK
        assert capsys.readouterr().out == "Eve wins:  {}\nAdam wins: {0 1}\n"

    def test_number_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "long.pg"
        path.write_text("parity 0;\n0 " + "1" * 5000 + " 0 0;\n")
        assert main(["solve", "-i", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 2: priority of 5000 digits is past int()'s limit "
                                f"of {sys.get_int_max_str_digits()} digits\n")

    def test_deep_file_tree(self, tmp_path, capsys):
        # one leaf at depth 2500, read bottom-up and solved without recursing
        path = tmp_path / "deep.pg"
        path.write_text("parity 1;\n0 5000 0 1;\n1 0 1 0;\n")
        tree_file = tmp_path / "deep.txt"
        tree_file.write_text(",".join(["0"] * 2500) + "\n")
        assert main(["solve", "-i", str(path), "--tree", f"file:{tree_file}"]) == EXIT_OK
        from_file = capsys.readouterr()
        assert from_file.err.startswith("warning: tree loaded from file")
        assert main(["solve", "-i", str(path), "--tree", "succinct"]) == EXIT_OK
        succinct = capsys.readouterr().out
        assert "Eve wins:  {0 1}" in from_file.out
        assert from_file.out.splitlines()[:2] == succinct.splitlines()[:2]

    def test_single_vertex_game(self, tmp_path, capsys):
        path = tmp_path / "one.pg"
        path.write_text("parity 0;\n0 0 0 0;\n")
        assert main(["solve", "-i", str(path)]) == EXIT_OK
        assert "Eve wins:  {0}" in capsys.readouterr().out


class TestGen:
    def test_writes_parseable_game(self, tmp_path, capsys):
        out = tmp_path / "g.pg"
        assert main(["gen", "--n", "5", "--d", "4", "--seed", "9",
                     "-o", str(out)]) == EXIT_OK
        expected = write_pgsolver(generate_random_game(5, 4, (1, 2), 9))
        assert out.read_text() == expected

    def test_stdout_default(self, capsys):
        assert main(["gen", "--n", "3", "--d", "2", "--seed", "1"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("parity 2;")

    def test_infeasible(self, capsys):
        assert main(["gen", "--n", "1", "--d", "2", "--min-deg", "2",
                     "--max-deg", "2"]) == EXIT_INPUT

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "g.pg"
        assert main(["gen", "--n", "3", "--d", "2", "-o", str(target)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{target}'\n")


class TestTree:
    def test_build_succinct(self, capsys):
        assert main(["tree", "build", "--kind", "succinct",
                     "--n", "5", "--h", "2"]) == EXIT_OK
        assert "11 leaves" in capsys.readouterr().out

    def test_build_naive_dump(self, capsys):
        # stdout holds only leaf codes, so it reads back as a tree file
        assert main(["tree", "build", "--kind", "naive",
                     "--n", "2", "--h", "2", "--dump"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "naive(2,2): 4 leaves\n"
        assert captured.out == "0,0\n0,1\n1,0\n1,1\n"

    def test_dump_round_trips_through_check(self, tmp_path, capsys):
        assert main(["tree", "build", "--kind", "succinct",
                     "--n", "20", "--h", "4", "--dump"]) == EXIT_OK
        codes = tmp_path / "codes.txt"
        codes.write_text(capsys.readouterr().out)
        assert main(["tree", "check", "--n", "20", "--h", "4",
                     "--file", str(codes)]) == EXIT_OK
        assert capsys.readouterr().out == "universal for (20,4)\n"

    def test_check_universal(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text("0,0\n0,1\n1,0\n1,1\n")
        assert main(["tree", "check", "--n", "2", "--h", "2",
                     "--file", str(codes)]) == EXIT_OK
        assert "universal for (2,2)" in capsys.readouterr().out

    def test_check_not_universal(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text("0,0\n0,1\n")
        assert main(["tree", "check", "--n", "2", "--h", "2",
                     "--file", str(codes)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "NOT universal" in out and "witness" in out

    def test_minimal(self, capsys):
        assert main(["tree", "minimal", "--n", "2", "--h", "2",
                     "--dump"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "3\n"
        assert len(captured.out.splitlines()) == 3  # the three leaf codes alone

    def test_build_large_succinct_counts_without_walking(self, capsys):
        assert main(["tree", "build", "--kind", "succinct",
                     "--n", "10000", "--h", "10"]) == EXIT_OK
        assert capsys.readouterr().out == "succinct(10000,10): 2575326157 leaves\n"

    @pytest.mark.parametrize("kind, n, leaves", [("naive", 1, 1), ("succinct", 3, 6001)])
    def test_build_deep(self, capsys, kind, n, leaves):
        assert main(["tree", "build", "--kind", kind, "--n", str(n), "--h", "3000"]) == EXIT_OK
        assert capsys.readouterr().out == f"{kind}({n},3000): {leaves} leaves\n"

    def test_build_empty_at_any_height(self, capsys):
        started = time.perf_counter()
        assert main(["tree", "build", "--kind", "succinct",
                     "--n", "0", "--h", "20000001"]) == EXIT_OK
        assert time.perf_counter() - started < 0.5
        assert capsys.readouterr().out == "succinct(0,20000001): 0 leaves\n"

    def test_dump_deep(self, capsys):
        assert main(["tree", "build", "--kind", "naive", "--n", "1", "--h", "3000",
                     "--dump"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ",".join(["0"] * 3000) + "\n"
        assert captured.err == "naive(1,3000): 1 leaves\n"

    def test_minimal_too_deep(self, capsys):
        assert main(["tree", "minimal", "--n", "2", "--h", "3000"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: height 3000 is past 900,")
        assert captured.err.count("\n") == 1

    def test_check_refuses_an_unreachable_height_at_once(self, tmp_path, capsys):
        # a one-leaf path is not (2, 1000)-universal, so check enumerates
        # shapes; _embeds recurses once per level, so without the guard
        # every shape was built before the recursion limit stopped it
        codes = tmp_path / "path.txt"
        codes.write_text(",".join(["0"] * 1000) + "\n")
        started = time.perf_counter()
        argv = ["tree", "check", "--n", "2", "--h", "1000", "--file", str(codes)]
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - started < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: height 1000 is past 900, "
                                "the deepest a brute-force embedding check reaches\n")

    @pytest.mark.parametrize("h", [220, 250])
    def test_minimal_refused_by_the_cap_before_g(self, monkeypatch, capsys, h):
        # g(2, h) is at least its closed form C(h, 1) = h, and the h-leaf
        # shapes number at least 2^(h - 1), so the cap refuses them uncounted
        # before g, which recurses through h, is computed; in process, as g
        # is never reached
        monkeypatch.delenv("PARITYTREE_ENUM_CAP", raising=False)
        started = time.perf_counter()
        assert main(["tree", "minimal", "--n", "2", "--h", str(h)]) == EXIT_INPUT
        assert time.perf_counter() - started < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: at least 2^{h - 1} trees to build for {h} leaves "
                                f"at height {h} exceeds cap 5000000\n")

    def test_check_too_deep(self, tmp_path, capsys):
        # proved by the composition rule, which neither recurses nor enumerates
        codes = tmp_path / "deep.txt"
        codes.write_text(",".join(["0"] * 3000) + "\n")
        assert main(["tree", "check", "--n", "1", "--h", "3000",
                     "--file", str(codes)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "universal for (1,3000)\n"
        assert captured.err == ""

    @pytest.mark.parametrize("n, h", [(-3, 1), (-1, 2), (0, 2)])
    def test_check_needs_a_leaf(self, tmp_path, capsys, n, h):
        codes = tmp_path / "codes.txt"
        codes.write_text(",".join(["0"] * h) + "\n")
        assert main(["tree", "check", "--n", str(n), "--h", str(h),
                     "--file", str(codes)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need n_leaves >= 1 and h >= 1, got ({n}, {h})\n"

    def test_malformed_codes_file(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text("0,0\n\n1,x\n")
        assert main(["tree", "check", "--n", "2", "--h", "2",
                     "--file", str(codes)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {codes}:3: malformed leaf code '1,x', "
            "expected comma-separated integers\n")

    @pytest.mark.parametrize("text, h, lineno, line", [
        ("0,1_0\n", 2, 1, "0,1_0"),  # int() would read (0, 10)
        ("0\n1\n+2\n", 1, 3, "+2"),  # int() would read a third leaf
        ("0,-1\n", 2, 1, "0,-1"),  # int() would read a negative index
    ], ids=["underscore", "plus-sign", "minus-sign"])
    def test_codes_file_takes_decimal_indices_only(self, tmp_path, capsys, text, h, lineno, line):
        codes = tmp_path / "codes.txt"
        codes.write_text(text)
        assert main(["tree", "check", "--n", "3", "--h", str(h),
                     "--file", str(codes)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {codes}:{lineno}: malformed leaf code {line!r}, "
            "expected comma-separated integers\n")

    def test_codes_file_byte_order_mark(self, tmp_path, capsys, game_file):
        # leaf-code files are decoded as game files are: UTF-8, mark dropped
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"0\n1\n")  # two leaves at height 1, the game's d / 2
        marked.write_bytes("\ufeff".encode() + plain.read_bytes())
        outputs = []
        for path in (plain, marked):
            assert main(["tree", "check", "--n", "2", "--h", "1", "--file", str(path)]) == EXIT_OK
            assert main(["solve", "-i", game_file, "--tree", f"file:{path}",
                         "--format", "tsv"]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0].out.startswith("universal for (2,1)\neve_wins\t0 1\n")
        assert outputs[1] == outputs[0]

    def test_bad_codes_file(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text("0,0\n2,0\n")
        assert main(["tree", "check", "--n", "2", "--h", "2",
                     "--file", str(codes)]) == EXIT_INPUT


class TestBounds:
    def test_tsv(self, capsys):
        assert main(["bounds", "table", "--n-max", "5", "--h-max", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n\th\tf\tg" in out
        assert "5\t2\t11\t10" in out

    def test_markdown(self, capsys):
        assert main(["bounds", "table", "--n-max", "2", "--h-max", "2",
                     "--format", "markdown"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| n | h | f(n,h) | g(n,h) |" in out
        assert "| 2 | 2 | 3 | 3 |" in out

    @pytest.mark.parametrize("n_max, h_max", [(2, -1), (0, 3), (0, 0)])
    def test_empty_range(self, capsys, n_max, h_max):
        assert main(["bounds", "table", "--n-max", str(n_max),
                     "--h-max", str(h_max)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: need --n-max >= 1 and --h-max >= 1, got ({n_max}, {h_max})\n")


class TestBench:
    def test_sweep(self, capsys):
        assert main(["bench", "--count", "3", "--n", "4", "--d", "4",
                     "--seed", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "seed\ttree\tleaves\tlifts\tseconds"
        assert len([l for l in lines if l.startswith("5\t")]) == 2
        assert any(l.startswith("total\tnaive") for l in lines)

    @pytest.mark.parametrize("args, message", [
        (["--n", "0"], "error: need n >= 1, got 0"),
        (["--d", "3"], "error: need d even and >= 2, got 3"),
        (["--n", "3", "--min-deg", "2", "--max-deg", "5"], "error: out-degree range"),
        (["--count", "-2"], "error: need --count >= 1, got -2"),
        (["--count", "0"], "error: need --count >= 1, got 0"),
    ], ids=["n0", "odd-d", "degree", "count-2", "count0"])
    def test_bad_arguments(self, capsys, args, message):
        assert main(["bench", *args]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(message)

    def test_output_pinned(self, capsys):
        # seeds 5 and 8 reach largest priority 2, the others 4, so each kind
        # is solved on trees of two heights
        assert main(["bench", "--count", "6", "--n", "4", "--d", "4",
                     "--seed", "5"]) == EXIT_OK
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        for row in rows[1:-2]:
            float(row[4])
            row[4] = "S"
        assert ["\t".join(row) for row in rows] == [
            "seed\ttree\tleaves\tlifts\tseconds",
            "5\tnaive\t4\t9\tS", "5\tsuccinct\t4\t9\tS",
            "6\tnaive\t16\t3\tS", "6\tsuccinct\t8\t3\tS",
            "7\tnaive\t16\t0\tS", "7\tsuccinct\t8\t0\tS",
            "8\tnaive\t4\t16\tS", "8\tsuccinct\t4\t16\tS",
            "9\tnaive\t16\t16\tS", "9\tsuccinct\t8\t8\tS",
            "10\tnaive\t16\t24\tS", "10\tsuccinct\t8\t15\tS",
            "total\tnaive\t\t68\t", "total\tsuccinct\t\t51\t"]

    def test_loads_each_tree_once(self, capsys, monkeypatch):
        loaded = []
        load = cli._load_tree

        def counting(spec, g):
            loaded.append((spec, g.d))
            return load(spec, g)

        monkeypatch.setattr(cli, "_load_tree", counting)
        assert main(["bench", "--count", "30", "--n", "30", "--d", "10"]) == EXIT_OK
        assert loaded == [("naive", 10), ("succinct", 10)]
        captured = capsys.readouterr()
        assert captured.err.startswith("note: skipped naive:")
        assert len(captured.out.splitlines()) == 1 + 30 + 2
        assert main(["bench", "--count", "6", "--n", "4", "--d", "4", "--seed", "5"]) == EXIT_OK
        assert loaded[2:] == [("naive", 2), ("succinct", 2), ("naive", 4), ("succinct", 4)]

    def test_skips_oversized_naive_tree(self, capsys):
        assert main(["bench", "--count", "2", "--n", "40", "--d", "8"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("note: skipped naive:")
        rows = [line.split("\t")[:2] for line in captured.out.splitlines()[1:]]
        assert rows == [["0", "succinct"], ["1", "succinct"],
                        ["total", "naive"], ["total", "succinct"]]
        assert captured.out.splitlines()[-2] == "total\tnaive\t\t0\t"


class TestExitCodes:
    def test_usage_error_exits_1(self, capsys):
        assert main(["gen", "--n", "x", "--d", "2"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: paritytree gen")
        assert err.endswith("error: argument --n: invalid int value: 'x'\n")
        assert main(["solve"]) == EXIT_INPUT
        assert main(["nosuchcommand"]) == EXIT_INPUT

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: paritytree")

    def test_process_exit_codes(self, tmp_path):
        # usage error 1, disagreement 2, as a shell sees them
        game, tree = tmp_path / "game.pg", tmp_path / "tiny.txt"
        game.write_text(GAME)
        tree.write_text("0\n")  # a single leaf is not (2,1)-universal

        def run(*args):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
            return subprocess.run([sys.executable, "-m", "paritytree.cli", *args],
                                  capture_output=True, text=True, env=env).returncode

        assert run("gen", "--n", "x", "--d", "2") == EXIT_INPUT == 1
        assert run("solve", "-i", str(game), "--cross-check",
                   "--tree", f"file:{tree}") == EXIT_DISAGREE == 2
        assert run("--help") == EXIT_OK == 0

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args, code, err", [
        (["solve"], EXIT_OK, ""),
        (["solve", "--cross-check"], EXIT_OK, ""),
        (["solve", "--cross-check", "--tree", "file:TREE"], EXIT_DISAGREE,
         "warning: tree loaded from file; universality not guaranteed, the computed region "
         "may under-approximate Eve's\ncross-check: DISAGREEMENT, offending game follows\n"
         + GAME),
        (["--help"], EXIT_OK, ""),
    ], ids=["solve", "agreement", "disagreement", "help"])
    def test_closed_stdout_ends_quietly(self, tmp_path, unbuffered, args, code, err):
        # a reader that quits early, as grep -q does, closes the pipe; here it
        # is closed before the first write, so every write to stdout fails
        game, tree = tmp_path / "game.pg", tmp_path / "tiny.txt"
        game.write_text(GAME)
        tree.write_text("0\n")  # a single leaf is not (2,1)-universal
        args = [a.replace("TREE", str(tree)) for a in args]
        if args[0] == "solve":
            args[1:1] = ["-i", str(game)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "paritytree.cli", *args], stdout=write,
                                 stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (code, err)
