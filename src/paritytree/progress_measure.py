"""Generic value iteration over an arbitrary universal tree: the per-vertex
lift operator, one fixed-point loop for every selection policy, signature
validation, strategy extraction, and lift-count statistics.

Measure values are leaf codes of the chosen tree, or TOP.  TOP is strictly
greater than every leaf in every p-order, and absorbs: once a vertex hits
TOP it stays there.  Internally the lift works on leaf ranks 0..|T|-1 with
TOP = |T|.  One rule gives every option: the least leaf >=_p a value (>_p
at odd p) is the start (or end) of the value's block at depth level(p),
one slot of universal_tree.block_bounds.  Which slot depends only on the
tree's height and the game's d, so universal_tree.lift_slots memoises the
slots per (h, d).  value_iteration writes the lift once, inline in one
loop over one plan tuple per vertex; a policy only decides which vertex
comes next.  fifo's worklist is a plain list read in chunks of 2n visits,
each deleted once read, so it never holds more than 3n entries.
The bounds themselves are memoised per tree, in OrderedTree.bounds, and
so are the leaf codes of the ranks a run ends at, in OrderedTree.codes:
every game solved on one tree object shares them, and they go with the
tree.  The tree builders intern small roots, so games of one (n, d) that
each build their own tree still find the same object and the same memos.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

from .game_core import ADAM, EVE, ParityGame, Region, require_valid
from .universal_tree import (TOP, LeafCode, OrderedTree, block_bounds, code_to_rank,
                             compare_leaves_at, leaf_count, lift_slots, rank_to_code)

MeasureValue = LeafCode | str  # a leaf code or TOP

POLICIES = ("fifo", "roundrobin", "random")


def value_leq(a: MeasureValue, b: MeasureValue) -> bool:
    """Total order on measure values: leaf codes lexicographically, TOP on top."""
    if b == TOP:
        return True
    if a == TOP:
        return False
    return a <= b


@dataclass
class LiftStats:
    """Bookkeeping for one value-iteration run.  ``total`` counts lifts
    that changed a value, which is the quantity bounded by n * |T|."""

    total: int = 0
    per_vertex: list[int] = field(default_factory=list)


# install_hooks in perfbench/workloads.py reads this name; tracing fails without it
LiftTable = lift_slots


def lift_value(
    g: ParityGame,
    tree: OrderedTree,
    mu: list[MeasureValue],
    v: int,
) -> MeasureValue:
    """New value for v: Eve takes the best (minimum) successor option,
    Adam the worst (maximum), each option being the least leaf dominating
    that successor's value, strictly when v's priority is odd.

    Adam's case is a max over per-successor minima: each per-successor
    qualifying set is upward closed in the total leaf order, so the least
    leaf dominating all successors is the largest of the per-successor
    least leaves.  The result is joined with the current value so the
    operator is inflationary from any starting measure, not only along
    the all-minimum trajectory.
    """
    at = lift_slots(tree.height, g.d)[g.priority[v]]
    options = [block_bounds(tree, code_to_rank(tree, mu[w]))[at] for w in g.successors[v]]
    best = min(options) if g.owner[v] == EVE else max(options)
    return rank_to_code(tree, max(code_to_rank(tree, mu[v]), best))


def _dominates(g: ParityGame, tree: OrderedTree, mu: list[MeasureValue], v: int, w: int) -> bool:
    """mu(v) >=_p mu(w) at v's priority p, strictly when p is odd, read off
    the leaf codes (not the lift's block bounds); no leaf dominates TOP."""
    if mu[w] == TOP:
        return False
    p = g.priority[v]
    cmp = compare_leaves_at(tree, mu[v], mu[w], p, g.d)
    return cmp > 0 if p % 2 else cmp >= 0


def validate_signature(
    g: ParityGame, tree: OrderedTree, mu: list[MeasureValue]
) -> tuple[bool, tuple[int, int, str] | None]:
    """Check the per-vertex dominance conditions directly (independent of
    the lift machinery): Eve vertices need one successor dominated by
    their value, Adam vertices need all of them, strictly at odd
    priorities.  TOP vertices pass vacuously.

    Returns (True, None) or (False, (vertex, successor, reason)).
    """
    for v in g.vertices():
        if mu[v] == TOP:
            continue
        p, ws = g.priority[v], g.successors[v]
        if g.owner[v] == ADAM:
            w = next((w for w in ws if not _dominates(g, tree, mu, v, w)), None)
            if w is not None:
                return False, (v, w, f"Adam vertex {v}: successor {w} not dominated at p={p}")
        elif not any([_dominates(g, tree, mu, v, w) for w in ws]):  # checks every code
            rel = ">" if p % 2 else ">="
            return False, (v, ws[0], f"mu({v}) is not {rel}_p mu({ws[0]}) at p={p}")
    return True, None


def value_iteration(
    g: ParityGame,
    tree: OrderedTree,
    policy: str = "fifo",
    seed: int | None = None,
    initial: list[MeasureValue] | None = None,
) -> tuple[list[MeasureValue], Region, LiftStats]:
    """Run lifts to the least simultaneous fixed point above the initial
    measure (default: everything at the smallest leaf).

    The tree must be (n, d/2)-universal for the answer to be the true
    winning region; a smaller tree still reaches a fixed point but may
    under-approximate Eve's region.

    A policy decides only which vertex is lifted next: "fifo" (worklist,
    predecessors re-enqueued on change), "roundrobin" (passes in id order
    while a pass lifts), "random" (seeded choice among pending vertices).
    All policies reach the same fixed point.

    One loop serves every policy and holds the lift rule once.  It runs on
    leaf ranks and returns leaf codes.  A plan built per call gives each
    vertex one tuple: its slot, its first successor, None at out-degree 1
    and otherwise whether Eve owns it, its other successors, and the
    vertices its lift re-queues (its predecessors; none for roundrobin).
    A policy is a sequence of rounds of visits: fifo reads its worklist in
    chunks of 2n, deleting each chunk once read while lifts append to the
    list, so it holds at most the chunk and one entry per queued vertex;
    roundrobin repeats its pass while the last one lifted; random is one
    round of seeded draws.  Each vertex holds the block bounds of its
    value, so a successor's option is one lookup.  Bounds come from the
    tree's memo (OrderedTree.bounds): each is computed once per distinct
    rank reached on this tree object, in this call or an earlier one, and
    kept as long as the tree; an interned builder root
    (universal_tree._interned) carries its memo from game to game.  The
    returned codes come the same way from OrderedTree.codes, one descent
    per distinct final rank per tree.
    """
    require_valid(g)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    n = g.n
    if initial is not None and len(initial) != n:
        raise ValueError(f"initial measure has {len(initial)} values for {n} vertices")
    top = leaf_count(tree)
    if not top:
        raise ValueError("the tree has no leaves")
    bounds_of = tree.bounds
    bounds_at = bounds_of.get
    if initial is None:  # one lookup for the smallest leaf's bounds, shared by every vertex
        mu = [0] * n
        held = [bounds_at(0) or bounds_of.setdefault(0, block_bounds(tree, 0))] * n
    else:
        mu = [code_to_rank(tree, c) for c in initial]
        held = [bounds_at(r) or bounds_of.setdefault(r, block_bounds(tree, r)) for r in mu]
    slots = lift_slots(tree.height, g.d)
    requeue = [()] * n if policy == "roundrobin" else g.predecessors()
    plan = [(slots[p], ws[0], o == EVE if len(ws) > 1 else None, ws[1:], back)
            for p, o, ws, back in zip(g.priority, g.owner, g.successors, requeue)]
    per_vertex = [0] * n
    queued = [True] * n
    if policy == "random":
        rng = random.Random(seed)
        work = list(range(n))

        def take() -> int:  # swap the chosen vertex to the end and pop it; -1 when none is left
            if not work:
                return -1
            i = rng.randrange(len(work))
            work[i], work[-1] = work[-1], work[i]
            return work.pop()
        rounds = [iter(take, -1)]
    elif policy == "roundrobin":  # nothing is re-queued, so nothing is pushed
        work, rounds = [], _passes(range(n), per_vertex)
    else:
        work = list(range(n))
        rounds = _chunks(work, 2 * n)
    push = work.append
    for visits in rounds:
        for v in visits:
            at, first, eve, rest, back = plan[v]
            queued[v] = False
            best = held[first][at]
            if eve is not None:
                if eve:
                    for w in rest:
                        if held[w][at] < best:
                            best = held[w][at]
                else:
                    for w in rest:
                        if held[w][at] > best:
                            best = held[w][at]
            if best > mu[v]:
                mu[v] = best
                held[v] = bounds_at(best) or bounds_of.setdefault(best, block_bounds(tree, best))
                per_vertex[v] += 1
                for u in back:
                    if not queued[u]:
                        queued[u] = True
                        push(u)
    codes = tree.codes
    code_at = codes.get
    final, eve = [], []
    for v, rank in enumerate(mu):
        code = code_at(rank)
        if code is None:
            code = codes[rank] = rank_to_code(tree, rank)
        final.append(code)
        if rank != top:
            eve.append(v)
    eve_wins = frozenset(eve)
    return (final, Region(eve_wins, frozenset(range(n)) - eve_wins),
            LiftStats(sum(per_vertex), per_vertex))


def _chunks(work: list[int], chunk: int):
    """fifo's rounds: the next ``chunk`` entries of the worklist, which the
    round's lifts append to, deleted once visited, until it is empty.  The
    list holds at most the chunk visited plus one entry per queued vertex."""
    while work:
        yield islice(work, chunk)
        del work[:chunk]


def _passes(order: range, per_vertex: list[int]):
    """roundrobin's rounds: ``order`` again while the last pass lifted."""
    done = -1
    while (total := sum(per_vertex)) > done:
        done = total
        yield order


def strategy_from_measure(
    g: ParityGame, tree: OrderedTree, mu: list[MeasureValue]
) -> dict[int, int]:
    """Positional Eve strategy on her non-TOP vertices: the smallest-id
    successor witnessing the dominance condition.  Every cycle the
    strategy allows inside the non-TOP region has an even top priority."""
    choice: dict[int, int] = {}
    for v in g.vertices():
        if g.owner[v] == EVE and mu[v] != TOP:
            w = next((w for w in sorted(g.successors[v]) if _dominates(g, tree, mu, v, w)), None)
            if w is None:
                raise ValueError(f"measure does not validate at vertex {v}")
            choice[v] = w
    return choice
