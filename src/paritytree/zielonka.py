"""Zielonka's algorithm in its McNaughton--Zielonka form, over
counter-based attractors, plus extraction of classical signatures.

A subgame is a vertex set of one base game in which every vertex keeps a
successor, so vertex ids stay stable throughout the recursion.  On a
subgame V with top priority p, the player who likes p attracts to the
priority-p vertices; the rest is solved first.  If the opponent wins
nothing there, the player wins all of V; otherwise the opponent's part is
attracted to and removed, and the loop goes on with what is left.  The
recursion is a loop over an explicit stack, and the top priority comes
from the game's priority index (``ParityGame.priority_buckets``), not
from a scan of V.  Each attractor is O(m): the game's predecessor lists
are built once and every opponent vertex counts its successors still
outside the attractor.
Eve's positional strategy comes from the same pass: attractor witnesses,
any successor inside V at her top-priority vertices, and the sub-results.
The recursion runs once per game: its region and strategy are kept in
the game's instance dict, and every function here reads them.

The classical signature is read off that strategy: once Eve's moves are
fixed, each of its components is a longest-path count in the graph her
strategy leaves, one worklist pass per odd priority that Eve's region
holds (``extract_signature``).  Signatures are the naive universal tree's
leaves, as Jurdzinski's small progress measures are: plain leaf codes.
"""

from __future__ import annotations

from .game_core import ADAM, EVE, ParityGame, Region, require_valid
from .universal_tree import TOP, LeafCode, guard_build, level

Vertices = frozenset[int] | set[int]


def attractor(g: ParityGame, arena: Vertices, target: Vertices, player: int,
              moves: Vertices, sigma: dict[int, int] | None = None) -> set[int]:
    """``target`` plus the vertices of ``arena`` from which ``player`` forces
    a visit to it.  A vertex of the opponent joins once all its successors
    in ``moves`` have joined.  When ``player`` is Eve and ``sigma`` is
    given, each of her vertices that joins records the successor it joined
    through.  That witness follows ``target``'s iteration order, which for
    a CPython set depends on how the set was built, not only on what it
    holds; so a caller that must reproduce Eve's strategy builds its target
    sets as ``_solve`` does (tests/test_zielonka.py's
    ``TestLoopMatchesRecursion.RESULTS_SHA256`` pins the result)."""
    owner, succs, preds = g.owner, g.successors, g.predecessors()
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
                    k = len(moves.intersection(succs[v]))
                if k > 1:
                    left[v] = k - 1
                    continue
            elif sigma is not None and player == EVE:
                sigma[v] = w
            attr.add(v)
            queue.append(v)
    return attr


def _solve(g: ParityGame, V: Vertices, sigma: dict[int, int]) -> set[int]:
    """Eve's winning vertices of the subgame V.  Her strategy is written to
    ``sigma``: the last entry written for each of her winning vertices is
    a winning move, other entries are stale.  A stack frame (V, won, i,
    top, rest) waits for Eve's part of ``rest``, which lacks V's top
    priority, bucket i; an empty V ends a frame, returning ``won``."""
    owner, succs = g.owner, g.successors
    buckets = g.priority_buckets()
    stack: list[tuple[Vertices, set[int], int, set[int], set[int]]] = []
    won: set[int] = set()
    i = 0
    while True:
        if V:
            while V.isdisjoint(buckets[i][1]):
                i += 1
            p, bucket = buckets[i]
            top = V.intersection(bucket)
            if p % 2 == EVE and len(top) > 1:
                # Eve's attractor picks her moves in top's order: keep V's
                top = {v for v in V if v in bucket}
            rest = V - attractor(g, V, top, p % 2, V, sigma)
            if rest:
                stack.append((V, won, i, top, rest))
                V, won, i = rest, set(), i + 1
                continue
            rest_eve = rest
        elif stack:
            rest_eve = won
            V, won, i, top, rest = stack.pop()
        else:
            return won
        player = buckets[i][0] % 2  # EVE likes even priorities, ADAM odd
        lost = rest - rest_eve if player == EVE else rest_eve
        if lost:
            taken = attractor(g, V, lost, 1 - player, V, sigma)
            if player == ADAM:
                won |= taken
            V = V - taken
            continue
        if player == EVE:
            for v in top:
                if owner[v] == EVE:
                    for w in succs[v]:
                        if w in V:
                            sigma[v] = w
                            break
            won |= V
        V = set()  # V is solved: its frame ends


def _region_and_strategy(g: ParityGame) -> tuple[Region, dict[int, int]]:
    """The winning regions and Eve's strategy, from the one recursion run
    per game, kept in its instance dict; callers share them, so must not
    modify them."""
    solved = g.__dict__.get("_zielonka")
    if solved is None:
        require_valid(g)
        sigma: dict[int, int] = {}
        eve = frozenset(_solve(g, set(range(g.n)), sigma))
        owner = g.owner
        solved = (Region(eve, frozenset(range(g.n)) - eve),
                  {v: sigma[v] for v in sorted(eve) if owner[v] == EVE})
        g.__dict__["_zielonka"] = solved
    return solved


def solve_zielonka(g: ParityGame) -> Region:
    """Winning regions via the attractor recursion; every call on one game
    returns the same Region."""
    return _region_and_strategy(g)[0]


def eve_winning_strategy(g: ParityGame) -> dict[int, int]:
    """Positional strategy for Eve, defined exactly on the Eve-owned
    vertices of her winning region, assembled from the recursion."""
    return dict(_region_and_strategy(g)[1])


def extract_signature(g: ParityGame) -> dict[int, LeafCode | str]:
    """Classical signature (Jurdzinski's small progress measure) of Eve's
    winning region, read off one positional winning strategy.

    Eve's moves on her region E are frozen to the strategy sigma that
    ``_region_and_strategy`` returns; choosing witnesses independently per
    priority could break the lexicographic conditions.  In the graph sigma
    leaves (an Eve vertex of E keeps only sigma(v), an Adam vertex all its
    successors), E is closed and every cycle has an even top priority.

    Lemma: for odd p, component p of mu(v) is the first stage of the
    least fixed point at cap p that contains v, and that index equals the
    greatest number of priority-p vertices on a path from v through
    vertices of priority <= p; a vertex of priority > p ends the path and
    counts 0.  No such path repeats a priority-p vertex, so the count is
    at most |V_p & E| < n, as E holds an even cycle's top.  So mu(v) is a
    leaf code of make_naive_tree(n, d // 2) whose entry level(d, p) - 1,
    the last entry p's order reads, is the component for odd p.  Each odd
    priority that E holds, read off the game's priority index, gets one
    fifo worklist relaxation over the game's predecessor lists,
    skipping the edges that graph drops; every other component is 0.  A
    vertex gets a row of components only when some count reaches it, and
    the vertices no count reaches share one all-zero tuple.  Vertices in
    Adam's region map to TOP.  A signature of more than DEFAULT_ENUM_CAP
    entries, n codes of d // 2, is refused before the solve (guard_build).
    """
    width = g.d // 2
    guard_build("signature", g.n, width, 0, g.n * width)
    region, sigma = _region_and_strategy(g)
    eve = region.eve_wins
    priority, preds = g.priority, g.predecessors()
    rows: dict[int, list[int]] = {}  # components of each vertex some count reaches
    for p, bucket in g.priority_buckets():
        if p % 2 == 0 or eve.isdisjoint(bucket):
            continue
        top = eve.intersection(bucket)
        count = dict.fromkeys(top, 1)
        work = list(top)
        queued = set(top)
        while work:  # fifo, one round of the worklist at a time
            batch, work = work, []
            for w in batch:
                queued.discard(w)
                reach = count[w]
                for v in preds[w]:
                    if priority[v] > p or v not in eve or sigma.get(v, w) != w:
                        continue
                    c = reach + (priority[v] == p)
                    if c > count.get(v, 0):
                        if c > len(top):
                            raise AssertionError(
                                f"vertex {v} won by Eve lies on a cycle through priority {p}")
                        count[v] = c
                        if v not in queued:
                            queued.add(v)
                            work.append(v)
        i = level(g.d, p) - 1
        for v, c in count.items():
            rows.setdefault(v, [0] * width)[i] = c
    zero = (0,) * width
    mu: dict[int, LeafCode | str] = dict.fromkeys(region.adam_wins, TOP)
    for v in eve:
        row = rows.get(v)
        mu[v] = zero if row is None else tuple(row)
    return mu
