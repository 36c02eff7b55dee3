"""Reference classical signature from least-fixed-point stage sequences,
the reference order on signature tuples, and the reference prefix tree of
a signature.

This is the stage evaluator ``zielonka.extract_signature`` used before it
read the signature off Eve's strategy graph.  It re-solves a subgame per
stage, so it is slow, but it follows the definition: component p of mu(v)
is the first stage at cap p that contains v.  The tests compare the
package against it, and compare the p-orders of ``signature_to_tree``'s
leaves against ``tuple_compare``.  ``reference_signature_to_tree`` is
the O(k^2 h) sibling scan ``signature_to_tree`` used before it indexed
each prefix's values in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from paritytree.game_core import ADAM, EVE, ParityGame
from paritytree.universal_tree import TOP, OrderedTree, tree_from_leaf_codes
from paritytree.zielonka import _region_and_strategy, attractor


LESS = -1
EQUAL = 0
GREATER = 1


def tuple_compare(x: tuple[int, ...], y: tuple[int, ...], p: int, d: int) -> int:
    """Lexicographic comparison of the restrictions to odd priorities >= p,
    most significant (largest priority) first."""
    if len(x) != len(y):
        raise ValueError("mismatched tuple lengths")
    keep = d // 2 - p // 2  # number of odd priorities in [p, d]
    a, b = x[:keep], y[:keep]
    return LESS if a < b else GREATER if a > b else EQUAL


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


def pre(sg: SubGame, U) -> frozenset[int]:
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


def _eve_wins(g: ParityGame, V: frozenset[int]) -> set[int]:
    """Eve's part of V by the attractor recursion, without a strategy.
    V need not be closed: the stage tests solve vertex sets that some
    vertices leave, and the package's recursion, which records Eve's
    moves, needs a successor inside V for each of her vertices."""
    priority = g.priority
    won: set[int] = set()
    while V:
        p = max(priority[v] for v in V)
        player = EVE if p % 2 == 0 else ADAM
        top = {v for v in V if priority[v] == p}
        rest = V - attractor(g, V, top, player, V)
        rest_eve = _eve_wins(g, rest)
        lost = rest - rest_eve if player == EVE else rest_eve
        if not lost:
            return won | V if player == EVE else won
        taken = attractor(g, V, lost, 1 - player, V)
        if player == ADAM:
            won |= taken
        V = V - taken
    return won


def _solve_terminals(g: ParityGame, active: frozenset[int], win: frozenset[int],
                     lose: frozenset[int]) -> frozenset[int]:
    """Eve's winning vertices of ``active`` when a play stops with her win
    at ``win`` and her loss at ``lose``.  What neither player can force to
    a terminal is a subgame that either player leaves only to lose.  Every
    successor counts as a move, terminals and the rest of the game too."""
    moves = frozenset(g.vertices())
    reach = attractor(g, active, win, EVE, moves)
    trapped = active - reach
    avoid = attractor(g, trapped, lose, ADAM, moves)
    return frozenset((reach - win) | _eve_wins(g, trapped - avoid))


def signature_stages(sg: SubGame) -> list[frozenset[int]]:
    """Stages X_1 <= X_2 <= ... of the least fixed point at the odd cap p,
    from X_0 = {}: X_{k+1} = Win | (pre(X_k) & V_p) | W_k, where W_k is
    Eve's part of the priority-<p vertices once pre(X_k) & V_p joins the
    Win terminals and the rest of V_p the Lose terminals.  The sequence
    ends with the repeated fixed point; Win terminals are in every stage."""
    g, p = sg.base, sg.priority_cap
    vp = frozenset(v for v in sg.active if g.priority[v] == p)
    rest = sg.active - vp
    stages: list[frozenset[int]] = []
    x: frozenset[int] = frozenset()
    while True:
        win_k = pre(sg, x) & vp
        lower = _solve_terminals(
            g, rest, sg.terminal_win | win_k, sg.terminal_lose | (vp - win_k))
        x_new = sg.terminal_win | win_k | lower
        stages.append(x_new)
        if x_new == x:
            return stages
        x = x_new


def _restrict_to_strategy(g: ParityGame, sigma: dict[int, int]) -> ParityGame:
    succs = tuple(
        (sigma[v],) if v in sigma else g.successors[v] for v in g.vertices())
    return ParityGame(g.d, g.owner, g.priority, succs, g.names)


def reference_signature(g: ParityGame) -> dict[int, tuple[int, ...] | str]:
    """For each odd priority p, the priority-<=p part of the game with
    Eve's moves frozen to her strategy is re-solved stage by stage, with
    terminals taken from the winning regions restricted to priorities
    above p; component p of mu(v) is the first stage index containing v.
    Vertices in Adam's region map to TOP."""
    region, sigma = _region_and_strategy(g)
    eve, adam = region.eve_wins, region.adam_wins
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
    mu: dict[int, tuple[int, ...] | str] = {v: TOP for v in adam}
    for v in eve:
        mu[v] = tuple(comp[v])
    return mu


def reference_signature_to_tree(
    mu: dict[int, tuple[int, ...] | str], n: int, d: int
) -> tuple[OrderedTree, dict[int, tuple[int, ...]]]:
    """Prefix tree of the distinct non-TOP tuples and each vertex's leaf
    code: entry i of a tuple's code is the rank of its component i among
    the sorted values that tuples sharing its first i components hold."""
    h = d // 2
    tuples = sorted({m for m in mu.values() if m != TOP})
    for t in tuples:
        if len(t) != h or any(not 0 <= c <= n for c in t):
            raise ValueError(f"tuple {t} is not in [0, {n}]^{h}")
    code_of = {}
    for t in tuples:
        code = []
        for i in range(h):
            siblings = sorted({u[i] for u in tuples if u[:i] == t[:i]})
            code.append(siblings.index(t[i]))
        code_of[t] = tuple(code)
    tree = tree_from_leaf_codes(list(code_of.values()), h) if tuples else OrderedTree(h, ())
    return tree, {v: code_of[m] for v, m in mu.items() if m != TOP}
