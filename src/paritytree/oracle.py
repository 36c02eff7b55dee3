"""Ground-truth solver for tiny games by exhaustive enumeration of
positional strategies.

Positional determinacy licenses the enumeration: if either player wins
from a vertex, they win with a positional strategy, so checking every
(sigma, tau) pair of positional strategies decides every vertex.  Games
with more than STRATEGY_CAP strategies for either player are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .game_core import EVE, EVEN, ODD, ParityGame, Region, require_valid

STRATEGY_CAP = 10**6  # strategies per player solve_bruteforce will enumerate


class OracleSizeError(ValueError):
    """The strategy space exceeds the configured cap; refusing to enumerate."""


@dataclass(frozen=True)
class PositionalStrategy:
    """One fixed successor per vertex owned by one player."""

    choice: dict[int, int]

    def __hash__(self):  # dict field; hash by content
        return hash(frozenset(self.choice.items()))


def play_outcome(
    g: ParityGame,
    sigma: PositionalStrategy,
    tau: PositionalStrategy,
    v0: int,
) -> str:
    """Winner of the unique play from v0 under (sigma, tau): game_core.EVEN
    for an Eve win, game_core.ODD otherwise.  Each strategy must name a
    successor for every vertex of its player; the answer is read off the
    combined functional graph, as solve_bruteforce reads each profile's."""
    nxt = [sigma.choice[v] if g.owner[v] == EVE else tau.choice[v] for v in g.vertices()]
    return EVEN if _winners_for_profile(g.priority, nxt)[v0] else ODD


def _winners_for_profile(priority: tuple[int, ...], nxt: list[int]) -> list[bool]:
    """Per-vertex Eve-wins flags for one combined functional graph."""
    wins: list = [None] * len(nxt)  # a flag once known; the walk's path while on it
    for v0 in range(len(nxt)):
        if wins[v0] is not None:
            continue
        path: list[int] = []
        v = v0
        while wins[v] is None:
            wins[v] = path
            path.append(v)
            v = nxt[v]
        outcome = wins[v]
        if outcome is path:  # fresh cycle: everything from v onwards in path is on it
            outcome = max(map(priority.__getitem__, path[path.index(v):])) % 2 == 0
        for u in path:
            wins[u] = outcome
    return wins


def solve_bruteforce(g: ParityGame) -> Region:
    """Exact winning regions by strategy enumeration.

    Eve wins from v iff some positional sigma beats every positional tau
    from v.  Intended for n <= ~8 with small out-degrees; the per-player
    strategy count is capped at STRATEGY_CAP, read at call time.
    """
    require_valid(g)
    n, successors, priority = g.n, g.successors, g.priority
    verts, moves = ([], []), ([], [])  # per player, Eve first: her vertices, their moves
    for v, player in enumerate(g.owner):
        verts[player].append(v)
        moves[player].append(successors[v])
    (eve_verts, adam_verts), (eve_moves, adam_moves) = verts, moves
    if max(math.prod(map(len, eve_moves)), math.prod(map(len, adam_moves))) > STRATEGY_CAP:
        raise OracleSizeError(
            f"strategy space exceeds cap {STRATEGY_CAP}; refusing to enumerate")
    eve_wins: set[int] = set()
    nxt = [0] * n
    for picks in itertools.product(*eve_moves):
        for v, w in zip(eve_verts, picks):
            nxt[v] = w
        good = [v for v in range(n) if v not in eve_wins]
        if not good:
            break
        # Adam's strategies are streamed afresh per Eve profile, never stored
        for tau in itertools.product(*adam_moves):
            for v, w in zip(adam_verts, tau):
                nxt[v] = w
            wins = _winners_for_profile(priority, nxt)
            good = [v for v in good if wins[v]]
            if not good:
                break
        eve_wins.update(good)
    eve = frozenset(eve_wins)
    return Region(eve, frozenset(range(n)) - eve)
