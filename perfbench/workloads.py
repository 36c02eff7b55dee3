"""The four workloads: seeded inputs, the timed op, and the correctness gate.

An op is one unit of work, timed from its first library call to its last.
Inputs come from ``random.Random(f"{workload}:{seed}:{op index}")``, so op
``i`` of a seed is the same in every run, traced or not, whatever ran
before it.  The package receives only the generated inputs: PGSolver text,
leaf codes and ``(n, h)`` pairs.  Games are generated here, not with
``game_core.generate_random_game``, so a change to the package cannot
change the inputs.

``check`` runs outside the timed interval and compares each answer with a
reference that is not the code under test; it returns None or a message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from paritytree import bounds, game_core, oracle, progress_measure, universal_tree, zielonka


# ---------------------------------------------------------------------------
# input generation

@dataclass(frozen=True)
class Game:
    """A generated arena: the benchmark's own copy, used by the checks."""

    owner: tuple[int, ...]
    priority: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]

    def text(self) -> str:
        lines = [f"parity {len(self.owner) - 1};"]
        for v, (o, p, s) in enumerate(zip(self.owner, self.priority, self.successors)):
            lines.append(f"{v} {p} {o} {','.join(map(str, s))};")
        return "\n".join(lines) + "\n"

    def arena(self, dual: bool = False) -> game_core.ParityGame:
        """The game as a ParityGame; ``dual`` swaps the owners and adds 1 to
        every priority, so Eve wins the dual exactly where Adam wins this."""
        shift = 1 if dual else 0
        priority = tuple(p + shift for p in self.priority)
        owner = tuple(1 - o for o in self.owner) if dual else self.owner
        top = max(priority)
        return game_core.ParityGame(
            max(2, top + top % 2), owner, priority, self.successors)


def random_game(rng: random.Random, n: int, d: int, degree: tuple[int, int]) -> Game:
    """Uniform owners, uniform priorities in [0, d], and for each vertex a
    uniform out-degree in ``degree`` with successors drawn without
    replacement (the distribution ``paritytree gen`` uses)."""
    lo, hi = degree
    owner = tuple(rng.randint(0, 1) for _ in range(n))
    priority = tuple(rng.randint(0, d) for _ in range(n))
    successors = tuple(tuple(rng.sample(range(n), rng.randint(lo, hi))) for _ in range(n))
    return Game(owner, priority, successors)


# Trees as nested lists of children; a leaf is [] at height 0.

def succinct_shape(n: int, h: int) -> list:
    """The paper's succinct (n, h)-universal tree, built independently of
    ``universal_tree.make_succinct_tree``: the root's children are those of
    the (n//2, h) tree, the root of the (n, h-1) tree, then those of the
    (n-1-n//2, h) tree."""
    return _succinct_children(n, h)


def _succinct_children(n: int, h: int) -> list:
    if n == 0:
        return []
    if h == 1:
        return [[] for _ in range(n)]
    if n == 1:
        return [_succinct_children(1, h - 1)]
    return (_succinct_children(n // 2, h) + [_succinct_children(n, h - 1)]
            + _succinct_children(n - 1 - n // 2, h))


def leaf_codes(node: list, h: int) -> list[tuple[int, ...]]:
    """Right-indexed leaf codes (index 0 is the rightmost child)."""
    if h == 0:
        return [()]
    deg = len(node)
    return [(deg - 1 - j,) + code
            for j, child in enumerate(node) for code in leaf_codes(child, h - 1)]


def add_branch(rng: random.Random, node: list, h: int) -> None:
    """Insert a new path ending in one leaf at a random depth and sibling
    position.  The old tree embeds in the new one, so universality is kept."""
    depth = rng.randint(0, h - 1)
    for _ in range(depth):
        node = rng.choice(node)
    branch: list = []
    for _ in range(h - depth - 1):
        branch = [branch]
    node.insert(rng.randint(0, len(node)), branch)


def remove_leaf(rng: random.Random, node: list, h: int) -> None:
    """Delete one random leaf and every ancestor left without children."""
    path = []
    for _ in range(h):
        j = rng.randrange(len(node))
        path.append((node, j))
        node = node[j]
    for parent, j in reversed(path):
        del parent[j]
        if parent:
            break


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Answer:
    value: object
    lifts: int = 0  # fifo lifts made by the op's value_iteration calls


class Workload:
    name = ""
    trace_ops = 100  # ops of a traced run; the lift record covers the same ops
    calls_vi = True  # whether ops call value_iteration (traced_peak_mb pass)

    def __init__(self, seed: int, smoke: bool):
        """``smoke`` selects tiny inputs and op counts for the smoke test."""
        self.seed = seed

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self, tr) -> None:
        """Shared state built before the first op; counted in setup_s."""

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, tr) -> Answer:
        raise NotImplementedError

    def check(self, inp, answer: Answer) -> str | None:
        raise NotImplementedError


def _read_game(text: str, tr) -> game_core.ParityGame:
    """Parse and validate, as ``paritytree solve`` does before solving."""
    with tr.span("game_core.parse"):
        g = game_core.parse_pgsolver(text)
    violations = game_core.validate_game(g)
    if violations:
        raise ValueError("; ".join(violations))
    return g


def _regions_differ(name: str, got, want) -> str | None:
    if got.eve_wins != want.eve_wins or got.adam_wins != want.adam_wins:
        return f"{name}: Eve region {sorted(got.eve_wins)} != {sorted(want.eve_wins)}"
    return None


class CrosscheckSmall(Workload):
    """Many tiny games, each through all four solvers, as acceptance
    criteria 1-2 do.  Trees are built once per (n, h) in set-up and shared."""

    name = "crosscheck-small"
    trace_ops = 1000

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n_range = (2, 4) if smoke else (2, 8)
        self.ds = (2, 4) if smoke else (2, 4, 6)
        if smoke:
            self.trace_ops = 20
        self.trees: dict[tuple[str, int, int], universal_tree.OrderedTree] = {}

    def setup(self, tr):
        for n in range(self.n_range[0], self.n_range[1] + 1):
            for h in range(1, max(self.ds) // 2 + 1):
                with tr.span("universal_tree.build"):
                    self.trees["naive", n, h] = universal_tree.make_naive_tree(n, h)
                    self.trees["succinct", n, h] = universal_tree.make_succinct_tree(n, h)

    def make_input(self, i):
        rng = self.rng(i)
        return random_game(rng, rng.randint(*self.n_range), rng.choice(self.ds), (1, 2))

    def run(self, game, tr):
        g = _read_game(game.text(), tr)
        with tr.span("oracle.solve"):
            brute = oracle.solve_bruteforce(g)
        with tr.span("zielonka.solve"):
            ziel = zielonka.solve_zielonka(g)
        regions, lifts = [], 0
        for kind in ("naive", "succinct"):
            tree = self.trees[kind, g.n, g.d // 2]
            with tr.span("progress_measure.vi"):
                _, region, stats = progress_measure.value_iteration(g, tree)
            regions.append(region)
            lifts += stats.total
        return Answer((brute, ziel, *regions), lifts)

    def check(self, game, answer):
        brute, *others = answer.value
        for name, region in zip(("zielonka", "vi-naive", "vi-succinct"), others):
            err = _regions_differ(name, region, brute)
            if err:
                return err
        return None


class ViSuccinct(Workload):
    """One mid-size game per op, solved as ``solve --algorithm vi`` does:
    fresh succinct tree, leaf_count, fifo value iteration."""

    name = "vi-succinct"
    n, d = 30, 10

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.n, self.d, self.trace_ops = 8, 6, 10

    def make_input(self, i):
        return random_game(self.rng(i), self.n, self.d, (1, 2))

    def run(self, game, tr):
        g = _read_game(game.text(), tr)
        with tr.span("universal_tree.build"):
            tree = universal_tree.make_succinct_tree(g.n, g.d // 2)
        with tr.span("universal_tree.leaf_count"):
            leaves = universal_tree.leaf_count(tree)
        with tr.span("progress_measure.vi"):
            mu, region, stats = progress_measure.value_iteration(g, tree, policy="fifo")
        return Answer((tree, leaves, mu, region), stats.total)

    def check(self, game, answer):
        # Zielonka is far too slow here to serve as the reference, so both
        # players' regions are certified: Eve's by validating the measure,
        # Adam's by solving and validating the dual game.
        tree, _, mu, region = answer.value
        ok, why = progress_measure.validate_signature(game.arena(), tree, mu)
        if not ok:
            return f"Eve's measure fails validation: {why}"
        dual = game.arena(dual=True)
        dual_tree = universal_tree.make_succinct_tree(dual.n, dual.d // 2)
        dual_mu, dual_region, _ = progress_measure.value_iteration(dual, dual_tree)
        ok, why = progress_measure.validate_signature(dual, dual_tree, dual_mu)
        if not ok:
            return f"Adam's (dual) measure fails validation: {why}"
        eve, adam = region.eve_wins, dual_region.eve_wins
        if eve & adam or len(eve | adam) != len(game.owner):
            return "certified regions do not partition the vertices"
        return None


class ZielonkaDeep(Workload):
    """One game with many priorities per op, solved as
    ``solve --algorithm zielonka --emit-signature`` does."""

    name = "zielonka-deep"
    n, d = 20, 8
    trace_ops = 60
    calls_vi = False

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.n, self.d, self.trace_ops = 6, 4, 10

    def make_input(self, i):
        return random_game(self.rng(i), self.n, self.d, (1, 3))

    def run(self, game, tr):
        g = _read_game(game.text(), tr)
        with tr.span("zielonka.solve"):
            region = zielonka.solve_zielonka(g)
        with tr.span("zielonka.signature"):
            signature = zielonka.extract_signature(g)
        return Answer((region, signature))

    def check(self, game, answer):
        region, signature = answer.value
        g = game.arena()
        tree = universal_tree.make_succinct_tree(g.n, g.d // 2)
        _, reference, _ = progress_measure.value_iteration(g, tree)
        err = _regions_differ("zielonka", region, reference)
        if err:
            return err
        signed = {v for v, s in signature.items() if s != zielonka.TOP}
        if signed != reference.eve_wins:
            return "signature is not finite exactly on Eve's region"
        return None


# Minimal universal-tree sizes.  Where f(n, h) = g(n, h) the succinct tree
# meets the lower bound g and is minimal; 11 for (5, 2), where f = 11 and
# g = 10, is the exhaustive result of acceptance criterion 3.
MINIMAL_SIZE = {(2, 2): 3, (3, 2): 5, (4, 2): 8, (5, 2): 11, (6, 2): 14,
                (2, 3): 4, (3, 3): 7, (4, 3): 13, (6, 3): 25,
                (2, 4): 5, (4, 4): 19, (2, 5): 6, (3, 5): 11}


POSITIVE_PAIRS = ((5, 3), (6, 3), (4, 4), (5, 4), (8, 2), (9, 2), (10, 2))


class TreeSearch(Workload):
    """Universality checks, minimal-tree searches and an exact bound grid in
    a fixed cycle of (op kind, (n, h)) slots, so every run has the same mix;
    the seed draws the grid extents and the trees' random branches."""

    name = "tree-search"
    calls_vi = False
    # Most is_universal queries are positive, because a negative one stops
    # at the first shape that fails to embed.  (7, 2) and (4, 3) minimal
    # searches take 29 s and 45 s and are left out.
    cycle = (("grid", None), ("minimal", (5, 2)), ("minimal", (4, 2)),
             ("minimal", (3, 3)), ("minimal", (2, 4)), ("minimal", (2, 5)),
             ("not_universal", None)) + tuple(
        ("universal", pair) for pair in 2 * POSITIVE_PAIRS)[:13]
    negative_pairs = ((6, 2), (4, 3), (6, 3), (4, 4), (3, 5))  # f = g there

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.cycle = (("grid", None), ("minimal", (3, 2)),
                          ("not_universal", None), ("universal", (4, 2)))
            self.negative_pairs = ((3, 2), (2, 3))
            self.trace_ops = 8

    def make_input(self, i):
        rng = self.rng(i)
        kind, pair = self.cycle[i % len(self.cycle)]
        if kind == "grid":
            return kind, (rng.randint(24, 48), rng.randint(4, 7), rng.randint(5, 8))
        if kind == "minimal":
            return kind, pair
        n, h = pair or rng.choice(self.negative_pairs)
        tree = succinct_shape(n, h)
        if kind == "universal":
            for _ in range(rng.randint(0, 3)):
                add_branch(rng, tree, h)
        else:
            remove_leaf(rng, tree, h)
        return kind, (n, h, leaf_codes(tree, h))

    def run(self, inp, tr):
        kind, params = inp
        if kind == "grid":
            n_max, h_max, p_max = params
            with tr.span("bounds.grid"):
                table = {(n, h): (bounds.f_recurrence(n, h), bounds.g_recurrence(n, h))
                         for n in range(1, n_max + 1) for h in range(1, h_max + 1)}
                violations = (bounds.check_closed_forms(p_max, h_max)
                              + bounds.check_ratio(n_max, h_max))
            return Answer((table, violations))
        if kind == "minimal":
            with tr.span("universal_tree.minimal_search"):
                size, _ = universal_tree.find_minimal_universal(*params)
            return Answer(size)
        n, h, codes = params
        with tr.span("universal_tree.build"):
            tree = universal_tree.tree_from_leaf_codes(codes, h)
        with tr.span("universal_tree.is_universal"):
            ok, _ = universal_tree.is_universal(tree, n, h)
        return Answer(ok)

    def check(self, inp, answer):
        kind, params = inp
        if kind == "grid":
            table, violations = answer.value
            if violations:
                return f"bound checks report violations: {violations[:3]}"
            for (n, h), (f, g) in table.items():
                if f < g:
                    return f"f({n},{h}) = {f} is below g({n},{h}) = {g}"
                if n <= 8 and h <= 4 and f != len(leaf_codes(succinct_shape(n, h), h)):
                    return f"f({n},{h}) = {f} is not the succinct tree's leaf count"
            return None
        if kind == "minimal":
            want = MINIMAL_SIZE[params]
            return None if answer.value == want else (
                f"minimal size for {params} is {answer.value}, expected {want}")
        want = kind == "universal"
        return None if answer.value is want else (
            f"is_universal on a {'super' if want else 'sub'}tree of the succinct "
            f"({params[0]},{params[1]}) tree returned {answer.value}")


WORKLOADS = {w.name: w for w in (CrosscheckSmall, ViSuccinct, ZielonkaDeep, TreeSearch)}


def install_hooks(tracer) -> None:
    """Counters and spans on calls the package makes internally."""
    tracer.hook_span(game_core, "validate_game", "game_core.validate")
    tracer.hook_count(zielonka, "pre", "zielonka.pre_calls",
                      ("zielonka.pre_vertices_scanned", lambda sg, U: len(sg.active)))
    tracer.hook_count(progress_measure, "lift_value", "progress_measure.lift_attempts")
    tracer.hook_count(progress_measure.LiftTable, "min_geq", "progress_measure.min_geq_calls")
    tracer.hook_count(progress_measure, "min_leaf_geq", "universal_tree.min_leaf_geq_calls")
    tracer.hook_count(universal_tree, "embed", "universal_tree.embed_calls")
