"""Command-line front door: solving (with cross-checks), random game
generation, tree construction/checking, bound tables, and lift benchmarks.

Exit codes: 0 success, 1 input or usage error, 2 cross-check disagreement.
A closed stdout ends a run quietly with the code it had reached.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import bounds, game_core, oracle, progress_measure, universal_tree, zielonka
from .game_core import ParityGame, Region

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2

# the universal-tree kinds by name, each built for n vertices and height h
TREES = {"naive": universal_tree.make_naive_tree, "succinct": universal_tree.make_succinct_tree}


def _read_text(path: str) -> str:
    """The text of a file or of stdin ('-'), decoded as UTF-8 with a
    leading byte-order mark dropped."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("utf-8-sig")


def _load_tree(spec: str, g: ParityGame) -> universal_tree.OrderedTree:
    """The tree a spec names, of height d/2 for g.  A tree from a file
    may not be universal, so loading one prints a warning."""
    h = g.d // 2
    if spec in TREES:
        return TREES[spec](g.n, h)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        tree = universal_tree.tree_from_text(_read_text(path), h, path)
        print("warning: tree loaded from file; universality not guaranteed, "
              "the computed region may under-approximate Eve's", file=sys.stderr)
        return tree
    raise ValueError(f"unknown tree spec {spec!r} (use {', '.join(TREES)}, or file:PATH)")


def _parse_policy(spec: str) -> tuple[str, int | None]:
    if spec in ("fifo", "roundrobin"):
        return spec, None
    if spec.startswith("random:"):
        try:
            return "random", int(spec[len("random:"):])
        except ValueError:
            pass
    raise ValueError(f"unknown policy {spec!r}, expected fifo | roundrobin | random:SEED")


def _print_region(region: Region, fmt: str) -> None:
    eve = " ".join(str(v) for v in sorted(region.eve_wins))
    adam = " ".join(str(v) for v in sorted(region.adam_wins))
    if fmt == "tsv":
        print(f"eve_wins\t{eve}")
        print(f"adam_wins\t{adam}")
    else:
        print(f"Eve wins:  {{{eve}}}")
        print(f"Adam wins: {{{adam}}}")


def cmd_solve(args) -> int:
    g = game_core.parse_pgsolver(_read_text(args.input))
    if args.cross_check:
        return _cross_check(g, args)

    started = time.perf_counter()
    tree_leaves = None
    if args.algorithm == "brute":
        region = oracle.solve_bruteforce(g)
    elif args.algorithm == "zielonka":
        region = zielonka.solve_zielonka(g)
        if args.emit_signature:
            mu = zielonka.extract_signature(g)
            for v in g.vertices():
                print(f"{v}\t{universal_tree.code_text(mu[v])}")
    else:
        tree = _load_tree(args.tree, g)
        policy, seed = _parse_policy(args.policy)
        mu, region, stats = progress_measure.value_iteration(
            g, tree, policy=policy, seed=seed)
        tree_leaves = universal_tree.leaf_count(tree)
        if args.stats:
            for v in g.vertices():
                print(f"{v}\t{stats.per_vertex[v]}\t{universal_tree.code_text(mu[v])}")
    elapsed = time.perf_counter() - started
    _print_region(region, args.format)
    if tree_leaves is not None and args.format != "tsv":
        print(f"tree: {args.tree} ({tree_leaves} leaves), {stats.total} lifts, {elapsed:.4f}s")
    return EXIT_OK


def _cross_check(g: ParityGame, args) -> int:
    results: dict[str, Region] = {}
    results["zielonka"] = zielonka.solve_zielonka(g)
    specs = list(TREES)
    if args.tree.startswith("file:"):
        specs.append(args.tree)
    for spec in specs:
        try:
            tree = _load_tree(spec, g)
        except universal_tree.EnumerationGuardError as exc:
            print(f"note: skipped vi-{spec}: {exc}", file=sys.stderr)
            continue
        _, region, _ = progress_measure.value_iteration(g, tree)
        results[f"vi-{spec}"] = region
    try:
        results["brute"] = oracle.solve_bruteforce(g)
    except oracle.OracleSizeError as exc:
        print(f"note: skipped brute: {exc}", file=sys.stderr)
    regions = list(results.values())
    agree = all(r.eve_wins == regions[0].eve_wins for r in regions)
    args.decided = EXIT_OK if agree else EXIT_DISAGREE  # before stdout, which may be closed
    if not agree:
        print("cross-check: DISAGREEMENT, offending game follows", file=sys.stderr)
        sys.stderr.write(game_core.write_pgsolver(g))
    for name, region in results.items():
        eve = " ".join(str(v) for v in sorted(region.eve_wins))
        print(f"{name}\t{eve}")
    if agree:
        print("cross-check: agreement")
    return args.decided


def cmd_gen(args) -> int:
    g = game_core.generate_random_game(args.n, args.d, (args.min_deg, args.max_deg), args.seed)
    text = game_core.write_pgsolver(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_tree(args) -> int:
    # with --dump, stdout holds only leaf codes, which tree check and
    # --tree file: read back, and the summary line goes to stderr
    summary = sys.stderr if getattr(args, "dump", False) else sys.stdout
    if args.tree_cmd == "build":
        t = TREES[args.kind](args.n, args.height)
        print(f"{args.kind}({args.n},{args.height}): "
              f"{universal_tree.leaf_count(t)} leaves", file=summary)
        if args.dump:
            sys.stdout.write(universal_tree.dump_leaf_codes(t))
    elif args.tree_cmd == "check":
        t = universal_tree.tree_from_text(_read_text(args.file), args.height, args.file)
        ok, witness = universal_tree.is_universal(t, args.n, args.height)
        if ok:
            print(f"universal for ({args.n},{args.height})")
        else:
            print(f"NOT universal for ({args.n},{args.height}); witness:")
            sys.stdout.write(universal_tree.dump_leaf_codes(witness))
    else:  # minimal
        size, witness = universal_tree.find_minimal_universal(args.n, args.height)
        print(size, file=summary)
        if args.dump:
            sys.stdout.write(universal_tree.dump_leaf_codes(witness))
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.n_max < 1 or args.h_max < 1:
        raise ValueError(f"need --n-max >= 1 and --h-max >= 1, got ({args.n_max}, {args.h_max})")
    rows = [(n, h, bounds.f_recurrence(n, h), bounds.g_recurrence(n, h))
            for n in range(1, args.n_max + 1) for h in range(1, args.h_max + 1)]
    if args.format == "markdown":
        print("| n | h | f(n,h) | g(n,h) |")
        print("|---|---|--------|--------|")
        for n, h, f, g in rows:
            print(f"| {n} | {h} | {f} | {g} |")
    else:
        print("n\th\tf\tg")
        for n, h, f, g in rows:
            print(f"{n}\t{h}\t{f}\t{g}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.count < 1:
        raise ValueError(f"need --count >= 1, got {args.count}")
    games = [(seed, game_core.generate_random_game(
                 args.n, args.d, (args.min_deg, args.max_deg), seed))
             for seed in range(args.seed, args.seed + args.count)]
    print("seed\ttree\tleaves\tlifts\tseconds")
    totals = dict.fromkeys(TREES, 0)
    skipped: set[str] = set()
    # every game has n vertices, and its d is the even cover of its largest
    # priority, so each kind is loaded once per height the sweep reaches;
    # the games solved on one tree share its block-bounds memo
    trees: dict[tuple[str, int], universal_tree.OrderedTree | None] = {}
    for seed, g in games:
        for kind in totals:
            if (kind, g.d) not in trees:
                try:
                    trees[kind, g.d] = _load_tree(kind, g)
                except universal_tree.EnumerationGuardError as exc:
                    trees[kind, g.d] = None
                    if kind not in skipped:
                        skipped.add(kind)
                        print(f"note: skipped {kind}: {exc}", file=sys.stderr)
            tree = trees[kind, g.d]
            if tree is None:
                continue
            started = time.perf_counter()
            _, _, stats = progress_measure.value_iteration(g, tree)
            elapsed = time.perf_counter() - started
            totals[kind] += stats.total
            print(f"{seed}\t{kind}\t{universal_tree.leaf_count(tree)}\t"
                  f"{stats.total}\t{elapsed:.4f}")
    for kind, total in totals.items():
        print(f"total\t{kind}\t\t{total}\t")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritytree",
        description="Parity game solvers parameterized by universal trees")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve a game from a PGSolver-format file")
    p.add_argument("-i", "--input", required=True, help="input file, '-' for stdin")
    p.add_argument("--algorithm", choices=("brute", "zielonka", "vi"), default="vi")
    p.add_argument("--tree", default="succinct",
                   help=f"{' | '.join(TREES)} | file:PATH (vi only)")
    p.add_argument("--policy", default="fifo",
                   help="fifo | roundrobin | random:SEED (vi only)")
    p.add_argument("--stats", action="store_true",
                   help="per-vertex lift counts and final values (TSV)")
    p.add_argument("--cross-check", action="store_true",
                   help="run zielonka + vi(succinct) (+ vi(naive) and brute when small)")
    p.add_argument("--emit-signature", action="store_true",
                   help="with --algorithm zielonka: print the extracted signature")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a seeded random game")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--min-deg", type=int, default=1)
    p.add_argument("--max-deg", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tree", help="build/check universal trees")
    tsub = p.add_subparsers(dest="tree_cmd", required=True)
    b = tsub.add_parser("build")
    b.add_argument("--kind", choices=TREES, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--h", dest="height", type=int, required=True)
    b.add_argument("--dump", action="store_true")
    c = tsub.add_parser("check")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--h", dest="height", type=int, required=True)
    c.add_argument("--file", required=True)
    m = tsub.add_parser("minimal")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--h", dest="height", type=int, required=True)
    m.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("bounds", help="f/g bound tables")
    bsub = p.add_subparsers(dest="bounds_cmd", required=True)
    t = bsub.add_parser("table")
    t.add_argument("--n-max", type=int, required=True)
    t.add_argument("--h-max", type=int, required=True)
    t.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", help="lift counts per tree over a seed sweep")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--min-deg", type=int, default=1)
    p.add_argument("--max-deg", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The only error boundary: bad input, unreadable
    or unwritable files and over-deep trees end in one ``error:`` line and
    exit 1, as does a malformed command line after argparse's usage and
    ``error:`` lines; ``--help`` exits 0.  A closed stdout ends the run
    quietly with the exit code already decided: 0, or 2 once a cross-check
    has found a disagreement."""
    args = argparse.Namespace(decided=EXIT_OK)
    try:
        try:
            build_parser().parse_args(argv, args)
            args.decided = args.func(args)
        except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
            args.decided = EXIT_INPUT if exc.code == 2 else exc.code
        sys.stdout.flush()  # a closed stdout shows here, not at the interpreter's exit
    except BrokenPipeError:  # the reader is gone; stdout on devnull keeps the exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.decided = EXIT_INPUT
    return args.decided


if __name__ == "__main__":
    sys.exit(main())
