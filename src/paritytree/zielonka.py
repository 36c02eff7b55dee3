"""Zielonka's recursive algorithm in its McNaughton--Zielonka form, over
counter-based attractors, plus extraction of classical signatures.

A subgame is a vertex set of one base game in which every vertex keeps a
successor, so vertex ids stay stable throughout the recursion.  On a
subgame V with top priority p, the player who likes p attracts to the
priority-p vertices; the rest is solved recursively.  If the opponent wins
nothing there, the player wins all of V; otherwise the opponent's part is
attracted to and removed, and the loop goes on with what is left.  Each
attractor is O(m): ``ParityGame.predecessors`` is built once per game and
every opponent vertex counts its successors still outside the attractor.
Eve's positional strategy comes from the same pass: attractor witnesses,
any successor inside V at her top-priority vertices, and the sub-results.
The recursion runs once per game: the game caches Eve's region and
strategy, and every function here reads them.

The classical signature is read off that strategy: once Eve's moves are
fixed, each of its components is a longest-path count in the graph her
strategy leaves, one worklist pass per odd priority that Eve's region
holds (``extract_signature``).  Signatures are the naive universal tree's
leaves, as Jurdzinski's small progress measures are: plain leaf codes.
"""

from __future__ import annotations

from collections import defaultdict, deque

from .game_core import ADAM, EVE, ParityGame, Region, require_valid
from .universal_tree import TOP, LeafCode

Vertices = frozenset[int] | set[int]


def attractor(g: ParityGame, preds: list[list[int]], arena: Vertices, target: Vertices,
              player: int, moves: Vertices, sigma: dict[int, int] | None = None) -> set[int]:
    """``target`` plus the vertices of ``arena`` from which ``player`` forces
    a visit to it.  A vertex of the opponent joins once all its successors
    in ``moves`` have joined.  When ``player`` is Eve and ``sigma`` is
    given, each of her vertices that joins records the successor it joined
    through."""
    owner, succs = g.owner, g.successors
    attr = set(target)
    queue = list(attr)
    left: dict[int, int] = {}  # opponent vertex -> successors not yet attracted
    for w in queue:
        for v in preds[w]:
            if v in attr or v not in arena:
                continue
            if owner[v] != player:
                k = left.get(v)
                if k is None:
                    k = len(moves.intersection(succs[v]))
                if k > 1:
                    left[v] = k - 1
                    continue
            elif sigma is not None and player == EVE:
                sigma[v] = w
            attr.add(v)
            queue.append(v)
    return attr


def _solve(g: ParityGame, preds: list[list[int]], V: Vertices,
           sigma: dict[int, int]) -> set[int]:
    """Eve's winning vertices of the subgame V.  Her strategy is written to
    ``sigma``: the last entry written for each of her winning vertices is
    a winning move, other entries are stale."""
    priority = g.priority
    won: set[int] = set()
    while V:
        p = max(priority[v] for v in V)
        player = EVE if p % 2 == 0 else ADAM
        top = {v for v in V if priority[v] == p}
        attracted = attractor(g, preds, V, top, player, V, sigma)
        rest = V - attracted
        rest_eve = _solve(g, preds, rest, sigma)
        lost = rest - rest_eve if player == EVE else rest_eve
        if not lost:
            if player == EVE:
                for v in top:
                    if g.owner[v] == EVE:
                        sigma[v] = next(w for w in g.successors[v] if w in V)
                won |= V
            return won
        taken = attractor(g, preds, V, lost, 1 - player, V, sigma)
        if player == ADAM:
            won |= taken
        V = V - taken
    return won


def _recursion(g: ParityGame) -> tuple[frozenset[int], dict[int, int]]:
    """What ``ParityGame._zielonka`` caches; call ``_region_and_strategy``."""
    sigma: dict[int, int] = {}
    eve = frozenset(_solve(g, g.predecessors(), set(g.vertices()), sigma))
    return eve, {v: sigma[v] for v in sorted(eve) if g.owner[v] == EVE}


def _region_and_strategy(g: ParityGame) -> tuple[frozenset[int], dict[int, int]]:
    """Eve's region and strategy, from the one recursion run per game;
    later calls share them, so callers must not modify them."""
    require_valid(g)
    return g._zielonka


def solve_zielonka(g: ParityGame) -> Region:
    """Winning regions via the attractor recursion."""
    eve = _region_and_strategy(g)[0]
    return Region(eve, frozenset(g.vertices()) - eve)


def eve_winning_strategy(g: ParityGame) -> dict[int, int]:
    """Positional strategy for Eve, defined exactly on the Eve-owned
    vertices of her winning region, assembled from the recursion."""
    return dict(_region_and_strategy(g)[1])


def extract_signature(g: ParityGame) -> dict[int, LeafCode | str]:
    """Classical signature (Jurdzinski's small progress measure) of Eve's
    winning region, read off one positional winning strategy.

    Eve's moves on her region E are frozen to the strategy sigma that
    ``_region_and_strategy`` returns; choosing witnesses independently per
    priority could break the lexicographic conditions.  In the graph sigma
    leaves (an Eve vertex of E keeps only sigma(v), an Adam vertex all its
    successors), E is closed and every cycle has an even top priority.

    Lemma: for odd p, component p of mu(v) is the first stage of the
    least fixed point at cap p that contains v, and that index equals the
    greatest number of priority-p vertices on a path from v through
    vertices of priority <= p; a vertex of priority > p ends the path and
    counts 0.  No such path repeats a priority-p vertex, so the count is
    at most |V_p & E| < n, as E holds an even cycle's top.  So mu(v) is a
    leaf code of make_naive_tree(n, d // 2) whose entry i is the component
    for odd priority d-1-2i.  E is bucketed by odd priority once, and each
    odd priority that E holds gets one fifo worklist relaxation over the
    game's predecessor lists, skipping the edges that graph drops; every
    other component is 0.  A vertex gets a row of components only when
    some count reaches it, and the vertices no count reaches share one
    all-zero tuple.  Vertices in Adam's region map to TOP.
    """
    eve, sigma = _region_and_strategy(g)
    priority, preds = g.priority, g.predecessors()
    width = g.d // 2
    tops: dict[int, list[int]] = {}  # odd p -> Eve's region's priority-p vertices
    for v in eve:
        if priority[v] % 2:
            tops.setdefault(priority[v], []).append(v)
    # a row of components for each vertex some count reaches
    rows: defaultdict[int, list[int]] = defaultdict(lambda: [0] * width)
    for p, top in tops.items():
        count = dict.fromkeys(top, 1)
        work = deque(top)
        queued = set(top)
        while work:
            w = work.popleft()
            queued.discard(w)
            reach = count[w]
            for v in preds[w]:
                if priority[v] > p or v not in eve or sigma.get(v, w) != w:
                    continue
                c = reach + (priority[v] == p)
                if c > count.get(v, 0):
                    if c > len(top):
                        raise AssertionError(
                            f"vertex {v} won by Eve lies on a cycle through priority {p}")
                    count[v] = c
                    if v not in queued:
                        queued.add(v)
                        work.append(v)
        i = (g.d - 1 - p) // 2
        for v, c in count.items():
            rows[v][i] = c
    zero = (0,) * width
    mu: dict[int, LeafCode | str] = dict.fromkeys(frozenset(g.vertices()) - eve, TOP)
    for v in eve:
        row = rows.get(v)
        mu[v] = zero if row is None else tuple(row)
    return mu
