"""Ground-truth solver for tiny games: Eve's positional strategies are
enumerated, Adam's never.  Positional determinacy licenses this: Eve wins
from v iff some positional sigma does.  With sigma fixed, Adam plays a
one-player game, and he wins it from v iff v reaches an odd vertex u on a
cycle of priorities <= p(u) (``adam_wins_against``).  Games with more than
STRATEGY_CAP positional strategies for Eve are refused."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .game_core import EVE, EVEN, ODD, ParityGame, Region, require_valid

STRATEGY_CAP = 10**6  # Eve strategies solve_bruteforce will enumerate


class OracleSizeError(ValueError):
    """The strategy space exceeds the configured cap; refusing to enumerate."""


@dataclass(frozen=True)
class PositionalStrategy:
    """One fixed successor per vertex owned by one player."""

    choice: dict[int, int]

    def __hash__(self):  # dict field; hash by content
        return hash(frozenset(self.choice.items()))


def play_outcome(g: ParityGame, sigma: PositionalStrategy, tau: PositionalStrategy,
                 v0: int) -> str:
    """Winner of the unique play from v0 under (sigma, tau): game_core.EVEN
    for Eve, game_core.ODD for Adam.  Each strategy must name a successor
    for every vertex of its player, so the kernel leaves Adam no move."""
    return ODD if v0 in adam_wins_against(g, {**sigma.choice, **tau.choice}) else EVEN


def adam_wins_against(g: ParityGame, fixed: dict[int, int]) -> frozenset[int]:
    """The one-player kernel: the vertices from which Adam wins when each
    vertex in ``fixed`` takes its fixed move and he moves at all others,
    namely those that reach an odd u on a cycle of priorities <= p(u).

    If v reaches such a u, Adam walks a shortest path to the cycle and
    then round it: a lasso, so a positional strategy, and its play sees
    p(u), odd, as its top priority infinitely often.  Otherwise let p be
    the top priority that a play from v sees infinitely often, at u: past
    its last priority above p, it returns from u to u through priorities
    <= p, so p is even, as u is no such vertex, whatever Adam does."""
    won = _adam_wins(g, *_arena(g, fixed))
    return frozenset(v for v in g.vertices() if won >> v & 1)


def _arena(g: ParityGame, fixed: dict[int, int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Successor masks, ``fixed`` moves held, and (u, mask of priorities <= p(u)) per odd u."""
    succ, odd, below = [], [], (1 << g.n) - 1
    for v, ws in enumerate(g.successors):
        m = 0
        for w in (fixed[v],) if v in fixed else ws:
            m |= 1 << w
        succ.append(m)
    for p, bucket in g.priority_buckets():  # highest first: below drops each bucket after it
        if p & 1:
            odd += [(u, below) for u in bucket]
        for v in bucket:
            below ^= 1 << v
    return succ, odd


def _adam_wins(g: ParityGame, succ: list[int], odd: list[tuple[int, int]]) -> int:
    """``adam_wins_against`` on successor masks, as a mask."""
    won, preds = 0, g.predecessors()
    for u, below in odd:  # is u on a cycle inside below?  Moot if u reaches one found.
        bit = 1 << u
        seen = frontier = 0 if won & bit else succ[u] & below
        while frontier and not seen & bit:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= succ[low.bit_length() - 1]
                frontier ^= low
            frontier = step & below & ~seen
            seen |= frontier
        if seen & bit:  # u is on a cycle inside below: add whatever reaches u
            won, stack = won | bit, [u]
            while stack:
                w = stack.pop()
                for v in preds[w]:
                    if succ[v] >> w & 1 and not won >> v & 1:
                        won |= 1 << v
                        stack.append(v)
    return won


def solve_bruteforce(g: ParityGame) -> Region:
    """Exact winning regions: Eve wins from v iff some positional sigma
    keeps v out of ``adam_wins_against(g, sigma)``.  Intended for n <= ~20
    at small out-degrees; STRATEGY_CAP is read at call time."""
    require_valid(g)
    n, successors = g.n, g.successors
    choosers = [v for v, o in enumerate(g.owner) if o == EVE and len(successors[v]) > 1]
    if math.prod([len(successors[v]) for v in choosers]) > STRATEGY_CAP:
        raise OracleSizeError(f"strategy space exceeds cap {STRATEGY_CAP}; refusing to enumerate")
    succ, odd = _arena(g, {})
    everyone, eve = (1 << n) - 1, 0
    for picks in itertools.product(*[successors[v] for v in choosers]):
        for v, w in zip(choosers, picks):
            succ[v] = 1 << w
        eve |= everyone & ~_adam_wins(g, succ, odd)
        if eve == everyone:
            break
    all_vertices = frozenset(range(n))
    eve_wins = all_vertices if eve == everyone else frozenset(
        v for v in range(n) if eve >> v & 1)
    return Region(eve_wins, all_vertices - eve_wins)
