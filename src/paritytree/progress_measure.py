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
loop; a policy only decides which vertex comes next.
The bounds themselves are memoised per tree, in OrderedTree.bounds: every
game solved on one tree object shares them, and they go with the tree.
The tree builders intern small roots, so games of one (n, d) that each
build their own tree still find the same object and the same memo.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field

from .game_core import ADAM, EVE, ParityGame, Region, require_valid
from .universal_tree import (
    TOP,
    LeafCode,
    OrderedTree,
    block_bounds,
    code_to_rank,
    compare_leaves_at,
    leaf_count,
    lift_slots,
    rank_to_code,
)

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
    duration: float = 0.0


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
        p = g.priority[v]
        failure: tuple[int, int, str] | None = None
        ok_any = False
        for w in g.successors[v]:
            holds = _dominates(g, tree, mu, v, w)
            if holds:
                ok_any = True
            elif failure is None:
                rel = ">" if p % 2 else ">="
                failure = (v, w, f"mu({v}) is not {rel}_p mu({w}) at p={p}")
            if g.owner[v] == ADAM and not holds:
                return False, (v, w, f"Adam vertex {v}: successor {w} not dominated at p={p}")
        if g.owner[v] == EVE and not ok_any:
            assert failure is not None
            return False, failure
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
    vertex its slot, its first successor and, at out-degree > 1, its owner
    and other successors.  Each vertex holds the block bounds of its value,
    so a successor's option is one lookup.  Bounds come from the tree's
    memo (OrderedTree.bounds): each is computed once per distinct rank
    reached on this tree object, in this call or an earlier one, and kept
    as long as the tree; an interned builder root (universal_tree._interned)
    carries its memo from game to game.
    """
    require_valid(g)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    n = g.n
    if initial is not None and len(initial) != n:
        raise ValueError(f"initial measure has {len(initial)} values for {n} vertices")
    if not leaf_count(tree):
        raise ValueError("the tree has no leaves")
    mu = [code_to_rank(tree, c) for c in initial] if initial is not None else [0] * n
    bounds_of = tree.bounds
    for rank in set(mu):
        if rank not in bounds_of:
            bounds_of[rank] = block_bounds(tree, rank)
    held = list(map(bounds_of.__getitem__, mu))
    slot = list(map(lift_slots(tree.height, g.d).__getitem__, g.priority))
    first = [ws[0] for ws in g.successors]
    rest = [(o == EVE, ws[1:]) if len(ws) > 1 else None
            for o, ws in zip(g.owner, g.successors)]
    per_vertex = [0] * n
    started = time.perf_counter()
    requeue = [()] * n if policy == "roundrobin" else g.predecessors()
    if policy == "random":
        rng = random.Random(seed)
        work = list(range(n))

        def take() -> int:  # swap the chosen vertex to the end and pop it
            i = rng.randrange(len(work))
            work[i], work[-1] = work[-1], work[i]
            return work.pop()
    else:
        work = deque(range(n))
        take = work.popleft
    queued = [True] * n
    lifted = True
    while lifted:  # roundrobin: one pass per round; a worklist empties in one
        lifted = False
        while work:
            v = take()
            queued[v] = False
            at = slot[v]
            best = held[first[v]][at]
            more = rest[v]
            if more is not None:
                eve, ws = more
                if eve:
                    for w in ws:
                        if held[w][at] < best:
                            best = held[w][at]
                else:
                    for w in ws:
                        if held[w][at] > best:
                            best = held[w][at]
            if best > mu[v]:
                mu[v] = best
                found = bounds_of.get(best)
                if found is None:
                    found = bounds_of[best] = block_bounds(tree, best)
                held[v] = found
                per_vertex[v] += 1
                lifted = True
                for u in requeue[v]:
                    if not queued[u]:
                        queued[u] = True
                        work.append(u)
        if policy == "roundrobin":
            work.extend(range(n))
    stats = LiftStats(sum(per_vertex), per_vertex, time.perf_counter() - started)
    top = leaf_count(tree)
    eve_wins = frozenset(v for v in range(n) if mu[v] != top)
    code_of = {rank: rank_to_code(tree, rank) for rank in set(mu)}
    return (list(map(code_of.__getitem__, mu)),
            Region(eve_wins, frozenset(range(n)) - eve_wins), stats)


def strategy_from_measure(
    g: ParityGame, tree: OrderedTree, mu: list[MeasureValue]
) -> dict[int, int]:
    """Positional Eve strategy on her non-TOP vertices: the smallest-id
    successor witnessing the dominance condition.  Every cycle the
    strategy allows inside the non-TOP region has an even top priority."""
    choice: dict[int, int] = {}
    for v in g.vertices():
        if g.owner[v] != EVE or mu[v] == TOP:
            continue
        for w in sorted(g.successors[v]):
            if _dominates(g, tree, mu, v, w):
                choice[v] = w
                break
        else:
            raise ValueError(f"measure does not validate at vertex {v}")
    return choice
