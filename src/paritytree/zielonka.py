"""Zielonka's recursive algorithm in its McNaughton--Zielonka form, over
counter-based attractors, plus extraction of classical signatures.

A subgame is a vertex set of one base game in which every vertex keeps a
successor, so vertex ids stay stable throughout the recursion.  On a
subgame V with top priority p, the player who likes p attracts to the
priority-p vertices; the rest is solved recursively.  If the opponent wins
nothing there, the player wins all of V; otherwise the opponent's part is
attracted to and removed, and the loop goes on with what is left.  Each
attractor is O(m): ``ParityGame.predecessors`` is built once per solve and
every opponent vertex counts its successors still outside the attractor.
Eve's positional strategy comes from the same pass: attractor witnesses,
any successor inside V at her top-priority vertices, and the sub-results.

The classical signature is read off that strategy: once Eve's moves are
fixed, each of its components is a longest-path count in the graph her
strategy leaves, one worklist pass per odd priority (``extract_signature``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .game_core import ADAM, EVE, ParityGame, Region, require_valid
from .universal_tree import TOP

Vertices = frozenset[int] | set[int]

LESS = -1
EQUAL = 0
GREATER = 1


@dataclass(frozen=True)
class SignatureTuple:
    """Element of [0, n]^{d/2}; position i holds the component for odd
    priority d-1-2i (most significant first)."""

    values: tuple[int, ...]


def tuple_compare(x: SignatureTuple, y: SignatureTuple, p: int, d: int) -> int:
    """Lexicographic comparison of the restrictions to odd priorities >= p,
    most significant (largest priority) first."""
    if len(x.values) != len(y.values):
        raise ValueError("mismatched tuple lengths")
    keep = d // 2 - p // 2  # number of odd priorities in [p, d]
    a, b = x.values[:keep], y.values[:keep]
    return LESS if a < b else GREATER if a > b else EQUAL


def attractor(g: ParityGame, preds: list[list[int]], arena: Vertices, target: Vertices,
              player: int, moves: Vertices | None = None,
              sigma: dict[int, int] | None = None) -> set[int]:
    """``target`` plus the vertices of ``arena`` from which ``player`` forces
    a visit to it.  A vertex of the opponent joins once all its successors
    in ``moves`` (every successor when None) have joined.  When ``player``
    is Eve and ``sigma`` is given, each of her vertices that joins records
    the successor it joined through."""
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
                    k = len(set(succs[v]) if moves is None else moves.intersection(succs[v]))
                if k > 1:
                    left[v] = k - 1
                    continue
            elif sigma is not None and player == EVE:
                sigma[v] = w
            attr.add(v)
            queue.append(v)
    return attr


def _solve(g: ParityGame, preds: list[list[int]], V: Vertices,
           sigma: dict[int, int] | None) -> set[int]:
    """Eve's winning vertices of the subgame V.  With ``sigma``, her
    strategy is written there: the last entry written for each of her
    winning vertices is a winning move, other entries are stale."""
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
                if sigma is not None:
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


def _eve_region(g: ParityGame, sigma: dict[int, int] | None = None) -> frozenset[int]:
    require_valid(g)
    return frozenset(_solve(g, g.predecessors(), set(g.vertices()), sigma))


def _region_and_strategy(g: ParityGame) -> tuple[frozenset[int], dict[int, int]]:
    sigma: dict[int, int] = {}
    eve = _eve_region(g, sigma)
    return eve, {v: sigma[v] for v in sorted(eve) if g.owner[v] == EVE}


def solve_zielonka(g: ParityGame) -> Region:
    """Winning regions via the attractor recursion."""
    eve = _eve_region(g)
    return Region(eve, frozenset(g.vertices()) - eve)


def eve_winning_strategy(g: ParityGame) -> dict[int, int]:
    """Positional strategy for Eve, defined exactly on the Eve-owned
    vertices of her winning region, assembled from the recursion."""
    return _region_and_strategy(g)[1]


def extract_signature(g: ParityGame) -> dict[int, SignatureTuple | str]:
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
    at most |V_p & E| <= n.  Each component is one fifo worklist
    relaxation over the predecessors in that graph.  Vertices in Adam's
    region map to TOP.
    """
    eve, sigma = _region_and_strategy(g)
    priority = g.priority
    preds: dict[int, list[int]] = {v: [] for v in eve}
    for v in eve:
        for w in {sigma[v]} if v in sigma else set(g.successors[v]):
            preds[w].append(v)
    comp = {v: [0] * (g.d // 2) for v in eve}
    for i, p in enumerate(range(g.d - 1, 0, -2)):
        top = [v for v in eve if priority[v] == p]
        count = dict.fromkeys(top, 1)
        work = deque(top)
        queued = set(top)
        while work:
            w = work.popleft()
            queued.discard(w)
            reach = count[w]
            for v in preds[w]:
                if priority[v] > p:
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
        for v, c in count.items():
            comp[v][i] = c
    mu: dict[int, SignatureTuple | str] = {v: TOP for v in frozenset(g.vertices()) - eve}
    for v in eve:
        mu[v] = SignatureTuple(tuple(comp[v]))
    return mu
