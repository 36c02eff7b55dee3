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

The least-fixed-point stage sequence survives only in signature
extraction (``signature_stages``): its inner solves of subgames with
terminal Win/Lose vertices are the recursion above.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game_core import ADAM, EVE, ParityGame, Region, require_valid
from .universal_tree import TOP

Vertices = frozenset[int] | set[int]

LESS = -1
EQUAL = 0
GREATER = 1


@dataclass(frozen=True)
class SubGame:
    """Masked view of ``base``: only ``active`` vertices are in play,
    ``terminal_win``/``terminal_lose`` stop the game immediately, and all
    active priorities are <= ``priority_cap``."""

    base: ParityGame
    active: frozenset[int]
    terminal_win: frozenset[int]
    terminal_lose: frozenset[int]
    priority_cap: int


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


def pre(sg: SubGame, U: Vertices) -> frozenset[int]:
    """Active vertices from which Eve can force entering U in one step:
    her vertices need some successor in U, Adam's need all of them there."""
    g = sg.base
    out = set()
    for v in sg.active:
        succs = g.successors[v]
        if g.owner[v] == EVE:
            if any(w in U for w in succs):
                out.add(v)
        else:
            if all(w in U for w in succs):
                out.add(v)
    return frozenset(out)


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


def _solve_terminals(g: ParityGame, preds: list[list[int]], active: frozenset[int],
                     win: frozenset[int], lose: frozenset[int]) -> frozenset[int]:
    """Eve's winning vertices of ``active`` when a play stops with her win
    at ``win`` and her loss at ``lose``.  What neither player can force to
    a terminal is a subgame that either player leaves only to lose."""
    reach = attractor(g, preds, active, win, EVE)
    trapped = active - reach
    avoid = attractor(g, preds, trapped, lose, ADAM)
    return frozenset((reach - win) | _solve(g, preds, trapped - avoid, None))


def signature_stages(sg: SubGame) -> list[frozenset[int]]:
    """Stages X_1 <= X_2 <= ... of the least fixed point at the odd cap p,
    from X_0 = {}: X_{k+1} = Win | (pre(X_k) & V_p) | W_k, where W_k is
    Eve's part of the priority-<p vertices once pre(X_k) & V_p joins the
    Win terminals and the rest of V_p the Lose terminals.  The sequence
    ends with the repeated fixed point; Win terminals are in every stage."""
    g, p = sg.base, sg.priority_cap
    preds = g.predecessors()
    vp = frozenset(v for v in sg.active if g.priority[v] == p)
    rest = sg.active - vp
    stages: list[frozenset[int]] = []
    x: frozenset[int] = frozenset()
    while True:
        win_k = pre(sg, x) & vp
        lower = _solve_terminals(
            g, preds, rest, sg.terminal_win | win_k, sg.terminal_lose | (vp - win_k))
        x_new = sg.terminal_win | win_k | lower
        stages.append(x_new)
        if x_new == x:
            return stages
        x = x_new


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


def _restrict_to_strategy(g: ParityGame, sigma: dict[int, int]) -> ParityGame:
    succs = tuple(
        (sigma[v],) if v in sigma else g.successors[v] for v in g.vertices())
    return ParityGame(g.d, g.owner, g.priority, succs, g.names)


def extract_signature(g: ParityGame) -> dict[int, SignatureTuple | str]:
    """Classical signature from the least-fixed-point stage sequences.

    A single positional winning strategy is fixed first and Eve's moves on
    her winning region are frozen to it; running the per-priority stage
    iterations on independent Eve choices can pick different witnesses for
    different priorities and break the lexicographic conditions.

    For each odd priority p, the priority-<=p part of the restricted game
    is re-solved with terminals taken from the full-game winning regions
    restricted to priorities strictly above p; component p of mu(v) is the
    first stage index containing v.  Vertices in Adam's region map to TOP.
    """
    eve, sigma = _region_and_strategy(g)
    adam = frozenset(g.vertices()) - eve
    gs = _restrict_to_strategy(g, sigma)
    comp = {v: [0] * (g.d // 2) for v in eve}
    for i, p in enumerate(range(g.d - 1, 0, -2)):
        active = frozenset(v for v in g.vertices() if g.priority[v] <= p)
        win = frozenset(v for v in eve if g.priority[v] > p)
        lose = frozenset(v for v in adam if g.priority[v] > p)
        seen: frozenset[int] = frozenset()
        for k, stage in enumerate(signature_stages(SubGame(gs, active, win, lose, p))):
            for v in stage - seen:
                comp[v][i] = k
            seen |= stage
        if not eve <= seen:
            raise AssertionError(
                f"vertices {sorted(eve - seen)} won by Eve but missing from all stages at p={p}")
    mu: dict[int, SignatureTuple | str] = {v: TOP for v in adam}
    for v in eve:
        mu[v] = SignatureTuple(tuple(comp[v]))
    return mu
