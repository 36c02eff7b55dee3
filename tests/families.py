"""The two game families whose value iteration runs are pinned as cliffs:
the chain, whose ids run along its edges, and the ladder, whose value
iteration reaches every leaf of the succinct tree.
"""

from __future__ import annotations

from paritytree.game_core import ADAM, ParityGame


def chain(k: int, reverse: bool = False) -> ParityGame:
    """k Adam vertices of priority 1, vertex i with an edge to i+1, the
    last one into an even self-loop (vertex k).  With ``reverse`` the ids
    run against the edges: vertex i then holds what vertex k-i holds."""
    n = k + 1
    priority = (1,) * k + (0,)
    successors = tuple((i + 1,) for i in range(k)) + ((k,),)
    if reverse:
        priority = priority[::-1]
        successors = tuple((n - 1 - s[0],) for s in successors[::-1])
    return ParityGame(2, (ADAM,) * n, priority, successors)


def ladder(n: int) -> ParityGame:
    """Vertex i has priority i, belongs to Adam and has edges to itself
    and to i-1."""
    successors = ((0,),) + tuple((i, i - 1) for i in range(1, n))
    return ParityGame(n + n % 2, (ADAM,) * n, tuple(range(n)), successors)
