"""Reference oracle: ``oracle.solve_bruteforce`` and its per-profile
reader as they were before their fixed per-call work was trimmed.

It counts each player's strategies with a loop over the vertices, splits
the vertices by owner in two passes, keeps Eve's undecided start vertices
as a set, and reads each profile's functional graph with a separate
on-stack/done state table.  The tests compare the package's regions and
``play_outcome`` against it.
"""

from __future__ import annotations

import itertools

from paritytree.game_core import ADAM, EVE, ParityGame, Region, require_valid
from paritytree.oracle import STRATEGY_CAP, OracleSizeError


def _strategy_count(g: ParityGame, player: int) -> int:
    count = 1
    for v in g.vertices():
        if g.owner[v] == player:
            count *= len(g.successors[v])
    return count


def reference_winners_for_profile(g: ParityGame, nxt: list[int]) -> list[bool]:
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


def reference_solve_bruteforce(g: ParityGame) -> Region:
    """Exact winning regions by strategy enumeration: Eve wins from v iff
    some positional sigma beats every positional tau from v."""
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
            wins = reference_winners_for_profile(g, nxt)
            good = {v for v in good if wins[v]}
            if not good:
                break
        eve_wins |= good
    all_verts = frozenset(range(n))
    return Region(frozenset(eve_wins), all_verts - frozenset(eve_wins))
