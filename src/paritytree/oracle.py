"""Ground-truth solver for tiny games by exhaustive enumeration of
positional strategies.

Positional determinacy licenses the enumeration: if either player wins
from a vertex, they win with a positional strategy, so checking every
(sigma, tau) pair of positional strategies decides every vertex.  Games
with more than STRATEGY_CAP strategies for either player are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .game_core import ADAM, EVE, EVEN, ODD, ParityGame, Region, require_valid

STRATEGY_CAP = 10**6  # strategies per player solve_bruteforce will enumerate


class OracleSizeError(ValueError):
    """The strategy space exceeds the configured cap; refusing to enumerate."""


@dataclass(frozen=True)
class PositionalStrategy:
    """One fixed successor per vertex owned by one player."""

    choice: dict[int, int]

    def __hash__(self):  # dict field; hash by content
        return hash(frozenset(self.choice.items()))


def _strategy_count(g: ParityGame, player: int) -> int:
    count = 1
    for v in g.vertices():
        if g.owner[v] == player:
            count *= len(g.successors[v])
    return count


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
    return EVEN if _winners_for_profile(g, nxt)[v0] else ODD


def _winners_for_profile(g: ParityGame, nxt: list[int]) -> list[bool]:
    """Per-vertex Eve-wins flags for one combined functional graph."""
    n = g.n
    state = [0] * n  # 0 unknown, 1 on stack, 2 done
    wins = [False] * n
    for v0 in range(n):
        if state[v0] == 2:
            continue
        path = []
        v = v0
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = nxt[v]
        if state[v] == 1:
            # fresh cycle: everything from v onwards in path is on it
            idx = path.index(v)
            top = max(g.priority[u] for u in path[idx:])
            outcome = top % 2 == 0
        else:
            outcome = wins[v]
        for u in path:
            wins[u] = outcome
            state[u] = 2
    return wins


def solve_bruteforce(g: ParityGame) -> Region:
    """Exact winning regions by strategy enumeration.

    Eve wins from v iff some positional sigma beats every positional tau
    from v.  Intended for n <= ~8 with small out-degrees; the per-player
    strategy count is capped at STRATEGY_CAP, read at call time.
    """
    require_valid(g)
    if max(_strategy_count(g, EVE), _strategy_count(g, ADAM)) > STRATEGY_CAP:
        raise OracleSizeError(
            f"strategy space exceeds cap {STRATEGY_CAP}; refusing to enumerate")
    n = g.n
    eve_wins: set[int] = set()
    adam_verts = [v for v in range(n) if g.owner[v] == ADAM]
    eve_verts = [v for v in range(n) if g.owner[v] == EVE]
    nxt = [0] * n
    for picks in itertools.product(*(g.successors[v] for v in eve_verts)):
        for v, w in zip(eve_verts, picks):
            nxt[v] = w
        good = set(range(n)) - eve_wins
        if not good:
            break
        # Adam's strategies are streamed afresh per Eve profile, never stored
        for tau in itertools.product(*(g.successors[v] for v in adam_verts)):
            for v, w in zip(adam_verts, tau):
                nxt[v] = w
            wins = _winners_for_profile(g, nxt)
            good = {v for v in good if wins[v]}
            if not good:
                break
        eve_wins |= good
    all_verts = frozenset(range(n))
    return Region(frozenset(eve_wins), all_verts - frozenset(eve_wins))
