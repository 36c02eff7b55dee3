"""Reference Zielonka recursion: the recursive ``zielonka._solve`` the
package ran before it became one loop over an explicit stack.

It finds each subgame's top priority and top vertices by scanning the
subgame, and calls itself on the rest, so it raises RecursionError past
Python's recursion limit (the ladder at n = 1,200 with the default
limit).  The tests compare the package's regions, Eve's strategy and the
signature read off it against this recursion's.
"""

from __future__ import annotations

from paritytree.game_core import ADAM, EVE, ParityGame, Region
from paritytree.zielonka import attractor, extract_signature


def reference_solve(g: ParityGame, V: set[int], sigma: dict[int, int]) -> set[int]:
    """Eve's winning vertices of the subgame V.  Her strategy is written to
    ``sigma``: the last entry written for each of her winning vertices is
    a winning move, other entries are stale."""
    priority = g.priority
    won: set[int] = set()
    while V:
        p = max(priority[v] for v in V)
        player = EVE if p % 2 == 0 else ADAM
        top = {v for v in V if priority[v] == p}
        attracted = attractor(g, V, top, player, V, sigma)
        rest = V - attracted
        rest_eve = reference_solve(g, rest, sigma)
        lost = rest - rest_eve if player == EVE else rest_eve
        if not lost:
            if player == EVE:
                for v in top:
                    if g.owner[v] == EVE:
                        sigma[v] = next(w for w in g.successors[v] if w in V)
                won |= V
            return won
        taken = attractor(g, V, lost, 1 - player, V, sigma)
        if player == ADAM:
            won |= taken
        V = V - taken
    return won


def reference_results(g: ParityGame) -> tuple[frozenset[int], dict[int, int], str]:
    """Eve's region, her strategy and the repr of the signature read off
    it, all from the reference recursion.  The signature is the package's
    ``extract_signature`` run on a copy of ``g`` whose instance dict holds
    the reference's region and strategy where the package keeps its own."""
    sigma: dict[int, int] = {}
    eve = frozenset(reference_solve(g, set(g.vertices()), sigma))
    strategy = {v: sigma[v] for v in sorted(eve) if g.owner[v] == EVE}
    copy = ParityGame(g.d, g.owner, g.priority, g.successors, g.names)
    copy.__dict__["_zielonka"] = Region(eve, frozenset(range(g.n)) - eve), strategy
    return eve, strategy, repr(extract_signature(copy))
