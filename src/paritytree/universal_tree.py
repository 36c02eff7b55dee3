"""Ordered trees of fixed height: leaf codes, their ranks and text form,
per-priority orders, the naive and succinct universal-tree constructions,
embedding, universality checking (a composition proof, then brute force)
and minimal-universal-tree search.  The interned roots and the enumerated
trees outlive a call, each in a size-limited BudgetedCache.

Leaf codes index children from the RIGHT (index 0 = rightmost child,
increasing leftward), so that plain numeric lexicographic order on codes
coincides with the leaf order: a larger code is a leaf further left, and
the all-zeros code is the smallest leaf.
"""

from __future__ import annotations

import itertools
import os
import sys
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bounds import g_lower_closed, g_recurrence, halving_chain, succinct_fill

TOP = "TOP"  # absorbing top element, greater than every leaf in every p-order

LeafCode = tuple[int, ...]

ENUM_CAP_ENV = "PARITYTREE_ENUM_CAP"
DEFAULT_ENUM_CAP = 5_000_000
NAIVE_LEAF_CAP = 1_000_000


class EnumerationGuardError(ValueError):
    """A brute-force enumeration would exceed the configured ceiling."""


@dataclass(frozen=True, repr=False)
class OrderedTree:
    """Node of a totally ordered tree; all leaves sit at the same depth.

    ``height`` 0 with no children is a leaf.  ``height`` > 0 with no
    children is the distinguished empty tree, which only occurs as the
    zero-leaf branch of the succinct construction and the all-TOP
    signature tree.
    """

    height: int
    children: tuple["OrderedTree", ...] = ()

    def __repr__(self) -> str:
        """Height and root degree only: O(1) at any height or sharing."""
        return f"OrderedTree(height={self.height}, {len(self.children)} root children)"

    @property
    def is_empty(self) -> bool:
        return self.height > 0 and not self.children

    @cached_property
    def cumulative(self) -> tuple[int, ...]:
        """Running leaf counts of the children in rank order (rightmost
        child first, as in leaf codes): child i holds ranks
        ``cumulative[i]`` to ``cumulative[i + 1] - 1`` of this subtree.
        Computed once per node object, which shared subtrees reuse; it is
        not a field, so equality and hashing ignore it."""
        return _fill(self, "cumulative", lambda node: tuple(
            itertools.accumulate(map(leaf_count, reversed(node.children)), initial=0)))

    @cached_property
    def bounds(self) -> dict[int, tuple[int, ...]]:
        """Memo of block_bounds by rank, filled by value_iteration and
        shared by every game solved on this tree object.  It holds at most
        leaf_count + 1 entries, one per rank and TOP, and lives as long as
        this node object; it is not a field, so equality, hashing and repr
        ignore it.  The builders return one root per (n, h) while it fits
        the intern budget (see _interned), so games of one shape share it."""
        return {}

    @cached_property
    def codes(self) -> dict[int, LeafCode | str]:
        """Memo of rank_to_code by rank, filled by value_iteration with the
        ranks its runs end at, and kept and ignored as bounds is: at most
        leaf_count + 1 entries, TOP's among them."""
        return {}

    @cached_property
    def proved_n(self) -> int:
        """The largest n for which composing the children's values proves
        this node (n, height)-universal, a lower bound on the true one; a
        leaf holds 0.  Computed once per node object, bottom-up by _fill,
        so shared subtrees reuse it; it is not a field, so equality and
        hashing ignore it.  See _proved_n for the rule."""
        return _fill(self, "proved_n", _proved_n)

    @cached_property
    def _hash(self) -> int:
        return _fill(self, "_hash", lambda node: hash((node.height, node.children)))

    def __hash__(self) -> int:
        """Hash of (height, children), computed once per node object, so
        hashing a tree whose subtrees are shared costs O(distinct nodes)
        rather than one visit per path."""
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Structural equality on an explicit stack, O(distinct node pairs):
        a pair compared once is not compared again, as a mismatch ends the call."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        proven: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in proven:
                continue
            if a._hash != b._hash or a.height != b.height or len(a.children) != len(b.children):
                return False
            proven.add((id(a), id(b)))
            stack += zip(a.children, b.children)
        return True


def _fill(t: OrderedTree, name: str, formula: Callable[[OrderedTree], object]) -> object:
    """Set cached property ``name`` to ``formula(node)`` on t and every
    descendant lacking it, and return t's value.  The nodes lacking it are
    gathered one depth at a time, each distinct node once, and computed
    deepest depth first, so a node's children are ready when its formula
    reads them.  A node's children are read twice: once to gather the next
    depth, at C speed, and once by its formula."""
    layers = []
    layer = [t]
    while layer:
        layers.append(layer)
        kids = list(itertools.chain.from_iterable(node.children for node in layer))
        layer = [node for node in dict(zip(map(id, kids), kids)).values()
                 if name not in node.__dict__]
    for layer in reversed(layers):
        for node in layer:
            node.__dict__[name] = formula(node)
    return t.__dict__[name]


def _proved_n(node: OrderedTree) -> int:
    """A leaf parent is (n, 1)-universal for n up to its degree.  A higher
    node hosts a shape with r leaves when the shape's first child, of a
    leaves, goes into the first child whose value is at least a, and the
    rest, r - a leaves, into the children after that one.  proved[j] is
    the largest r for which this holds for every a in 1..r with children
    j onward; the node's value is proved[0].  For one j, the leaf counts
    a that share a first host form a run, and a run's smallest a bounds
    r the most, so one walk over the hosts settles proved[j].  The hosts
    from j are the strict prefix maxima of the values from j, so a host
    i is followed by greater[i], the next index holding a greater value.
    Filled right to left, greater[j] is found by jumps along the entries
    already filled, O(degree) for them all, as with a stack.  The hosts'
    values increase, so a walk meets at most c hosts, c being the number
    of distinct child values: O(degree * c) per node, which is
    O(degree^2) only when c is near the degree."""
    kids = node.children
    if node.height <= 1:
        return len(kids)
    values = [kid.proved_n for kid in kids]
    k = len(kids)
    greater = [k] * k
    proved = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        i = j + 1
        while i < k and values[i] <= values[j]:
            i = greater[i]
        greater[j] = i
        a, r, i = 1, k, j  # a: least leaf count not yet hosted; r: bound so far, <= degree
        while i < k:
            if values[i] >= a:  # only j itself, at value 0, may not be a host
                r = min(r, a + proved[i + 1])
                if r <= values[i]:
                    break
                a = values[i] + 1
            i = greater[i]
        else:
            r = a - 1
        proved[j] = r
    return proved[0]


LEAF = OrderedTree(0)


def leaf_count(t: OrderedTree) -> int:
    """Number of leaves, |T|; O(distinct nodes) once, then O(1)."""
    return 1 if t.height == 0 else t.cumulative[-1]


def leaf_codes(t: OrderedTree):
    """All leaf codes in increasing order (rightmost leaf first).  The walk
    keeps its own stack, so it does not recurse through the height."""
    stack = [((), t)]
    while stack:
        code, node = stack.pop()
        if node.height == 0:
            yield code
            continue
        deg = len(node.children)
        # index 0 (the rightmost child) goes on top, so it comes out first
        stack.extend((code + (idx,), node.children[deg - 1 - idx])
                     for idx in range(deg - 1, -1, -1))


def level(d: int, p: int) -> int:
    """Truncation depth of the p-order for priority bound d: the number
    of odd priorities in [p, d], so comparing two leaves at priority p
    compares the first level(d, p) entries of their codes."""
    if not 0 <= p <= d:
        raise ValueError(f"priority {p} outside [0, {d}]")
    return d // 2 - p // 2


@lru_cache(maxsize=64)
def lift_slots(h: int, d: int) -> tuple[int, ...]:
    """Per priority p in [0, d], the index into block_bounds of the least
    leaf >=_p a given leaf, >_p when p is odd, in a tree of height h: the
    p-order compares the first level(d, p) code entries, so that leaf is
    the start of the leaf's block at depth level(d, p), or its end when p
    is odd.  An end past the last leaf is TOP.  It depends on (h, d) alone,
    so every tree of that height shares it."""
    return tuple(min(level(d, p), h) + (h + 1 if p % 2 else 0) for p in range(d + 1))


class BudgetedCache(dict):
    """A dict whose values have sizes adding up to ``total`` <= ``limit``."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit, self.total = limit, 0

    def keep(self, key, value, size: int) -> None:
        """Keep ``value`` unless its size alone passes the limit, clearing
        the cache first if it would push the total past the limit."""
        if size <= self.limit:
            if self.total + size > self.limit:
                self.clear()
                self.total = 0
            self[key] = value
            self.total += size


# ints of the kept roots' memos, ~3.9 MB; as 3h + 2 <= 3/2 * (2h + 2), it keeps
# every set of roots that 2^16 kept when a root weighed its bounds memo alone
_interned_roots = BudgetedCache(3 * 2**15)


def _interned(key: tuple[str, int, int], build: Callable[[], OrderedTree]) -> OrderedTree:
    """The root ``build()`` makes for ``key`` = (kind, n, h), kept in
    _interned_roots so that later calls return the same object and every
    game solved on it shares its bounds and codes memos.  The root's size
    there is the most those memos hold, (leaf_count + 1) * (3h + 2) ints:
    2h + 2 per rank's bounds and h per rank's code."""
    root = _interned_roots.get(key)
    if root is None:
        root = build()
        _interned_roots.keep(key, root, (leaf_count(root) + 1) * (3 * key[2] + 2))
    return root


def guard_build(kind: str, n: int, h: int, nodes: int, slots: int) -> None:
    """Refuse, before allocating, a build of ``nodes`` nodes and ``slots``
    child slots or code entries that weighs more than DEFAULT_ENUM_CAP
    slots, a node weighing 7: over 16 naive and succinct builds, from
    (1, 5000) to (10^5, 4), tracemalloc put a built tree's peak at ~310 B a
    node and ~43 B a slot, children and cumulative counts together."""
    weight = 7 * nodes + slots
    if weight > DEFAULT_ENUM_CAP:
        raise EnumerationGuardError(f"{kind} for (n={n}, h={h}) would take {weight} slots, "
                                    f"past the build ceiling of {DEFAULT_ENUM_CAP}")


def make_naive_tree(n: int, h: int) -> OrderedTree:
    """Complete n-ary tree of height h (n^h leaves); node objects are
    shared across siblings.  Calls with the same (n, h) return one root
    object while it fits the intern budget (see _interned)."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    leaves = 1
    for _ in range(h) if n > 1 else ():  # at most 20 products before passing the cap
        leaves *= n
        if leaves > NAIVE_LEAF_CAP:
            raise EnumerationGuardError(
                f"naive tree for (n={n}, h={h}) would have over {NAIVE_LEAF_CAP} leaves")

    def build() -> OrderedTree:
        guard_build("naive tree", n, h, h, n * h)
        node = LEAF
        for height in range(1, h + 1):
            node = OrderedTree(height, (node,) * n)
        return node

    return _interned(("naive", n, h), build)


def make_succinct_tree(n: int, h: int) -> OrderedTree:
    """The inductively constructed (n, h)-universal tree: the root's
    children are those of the tree for (floor(n/2), h), then the root of
    the tree for (n, h-1), then those of the tree for (n-1-floor(n/2), h).
    Its leaf count is bounds.f_recurrence(n, h).  The root's children are
    filled by bounds.succinct_fill, as f is, so the build does not recurse;
    equal subtrees are one node object within a build, and builds share
    none.  Calls with the same (n, h) return one root object while it fits
    the intern budget (see _interned)."""
    if n < 0 or h < 1:
        raise ValueError(f"need n >= 0 and h >= 1, got ({n}, {h})")

    def build() -> OrderedTree:  # a node per nonzero size and height, m slots per size m
        chain = halving_chain(n)
        guard_build("succinct tree", n, h, h * (len(chain) - 1), h * sum(chain))
        return OrderedTree(h, succinct_fill(
            n, h, lambda m: (LEAF,) * m,
            lambda left, mid, right, k: left + (OrderedTree(k - 1, mid),) + right))

    return _interned(("succinct", n, h), build)


def code_to_rank(t: OrderedTree, code: LeafCode | str) -> int:
    """Position of a leaf in the leaf order (0 is the rightmost leaf);
    TOP maps to leaf_count(t).  Raises ValueError for a code that is not
    a leaf of t."""
    if code == TOP:
        return leaf_count(t)
    node, rank = t, 0
    for idx in code:
        deg = len(node.children)
        if not 0 <= idx < deg:
            break
        rank += node.cumulative[idx]
        node = node.children[deg - 1 - idx]
    else:
        if node.height == 0:
            return rank
    raise ValueError(f"invalid leaf code {code} for this tree")


def _rank_walk(t: OrderedTree, rank: int) -> tuple[list[int], list[int], LeafCode | str]:
    """The one descent from the root to the leaf at a rank, over each
    node's cumulative counts: the starts s_0..s_h and ends e_0..e_h of the
    blocks holding it, and its code (TOP's blocks: see block_bounds)."""
    size = leaf_count(t)
    if rank == size:
        return [size] * (t.height + 1), [size] * (t.height + 1), TOP
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside [0, {size}]")
    starts, ends, code, node, base = [0], [size], [], t, 0
    for _ in range(t.height):
        cum = node.cumulative
        idx = bisect_right(cum, rank - base) - 1
        ends.append(base + cum[idx + 1])
        base += cum[idx]
        starts.append(base)
        code.append(idx)
        node = node.children[-1 - idx]
    return starts, ends, tuple(code)


def rank_to_code(t: OrderedTree, rank: int) -> LeafCode | str:
    """Inverse of code_to_rank: the leaf code at a rank, TOP at leaf_count(t)."""
    return _rank_walk(t, rank)[2]


def block_bounds(t: OrderedTree, rank: int) -> tuple[int, ...]:
    """Blocks holding a leaf at every depth: ``(s_0, ..., s_h, e_0, ...,
    e_h)``, where the leaves sharing the first k code entries with it are
    ranks s_k to e_k - 1.  TOP (rank leaf_count(t)) gets leaf_count(t)
    everywhere, so it stays above every leaf."""
    starts, ends, _ = _rank_walk(t, rank)
    return (*starts, *ends)


def compare_leaves_at(
    t: OrderedTree, a: LeafCode, b: LeafCode, p: int, d: int
) -> int:
    """Compare two leaves in the p-order: numeric lexicographic comparison
    of the codes truncated to level(d, p) entries.  Returns -1/0/1."""
    code_to_rank(t, a)
    code_to_rank(t, b)
    keep = level(d, p)
    x, y = a[:keep], b[:keep]
    return -1 if x < y else 1 if x > y else 0


def _embeds(a: OrderedTree, b: OrderedTree, memo: dict[int, dict[int, bool]]) -> bool:
    """Whether a embeds in b with root mapped to root: a's children go,
    left to right, each into the leftmost remaining child of b it embeds
    in.  Greedy matching is exact here: any embedding can be shifted onto
    the greedy choices one child at a time.  A leaf parent (height 1)
    embeds in another exactly when it has no more children, so such pairs
    need no memo.  ``memo`` holds the decisions for higher child pairs,
    one row per child x of a shape, ``memo[id(x)]``, mapping ``id(y)`` of
    each host child y tried to the decision, so subtrees shared between
    trees are matched once; each child of a fetches its row once, and the
    scan over b's children reads one entry per child.  The caller owns
    the memo and must keep every tree it names alive."""
    if a.height == 1:
        return len(a.children) <= len(b.children)
    rest = iter(b.children)
    if a.height == 2:  # the child pairs are leaf parents: the rule above
        for x in a.children:
            need = len(x.children)
            for y in rest:
                if need <= len(y.children):
                    break
            else:
                return False
        return True
    for x in a.children:
        row = memo.get(id(x))
        if row is None:
            row = memo[id(x)] = {}
        for y in rest:
            ok = row.get(id(y))
            if ok is None:
                ok = row[id(y)] = _embeds(x, y, memo)
            if ok:
                break
        else:
            return False
    return True


def embed(t: OrderedTree, big: OrderedTree) -> dict[tuple[int, ...], tuple[int, ...]] | None:
    """Injective, depth- and sibling-order-preserving map from t into big
    with root mapped to root, or None if no embedding exists.

    Greedy: each child goes into the leftmost remaining child of its
    image that can host it (see _embeds), replayed once on an explicit
    stack.  Only a root child can lack a host, since _embeds has decided
    every pair below it.  The returned mapping uses left-to-right
    child-index paths on both sides.  _embeds recurses once per level, so
    a tree past the height _guard_embedding_height allows (900 under
    Python's default recursion limit) is refused with EnumerationGuardError.
    """
    if t.height != big.height:
        raise ValueError(f"height mismatch: {t.height} vs {big.height}")
    _guard_embedding_height(t.height)
    memo: dict[int, dict[int, bool]] = {}
    mapping: dict[tuple[int, ...], tuple[int, ...]] = {}
    stack = [(t, big, (), ())]
    while stack:
        a, b, pa, pb = stack.pop()
        mapping[pa] = pb
        rest = enumerate(b.children)
        for i, x in enumerate(a.children):
            for j, y in rest:
                if _embeds(x, y, memo):
                    stack.append((x, y, pa + (i,), pb + (j,)))
                    break
            else:
                return None
    return mapping


def count_trees(n_leaves: int, h: int) -> int:
    """Number of ordered trees with exactly n_leaves leaves, all at depth h.

    Counted, not enumerated: a height-k tree is a nonempty sequence of
    height-(k-1) trees, so one table per height, indexed by total leaves,
    gives the next from the last.  O(n_leaves^2 * h) big-integer products."""
    return _count_rows(n_leaves, h)[-1][n_leaves]


@lru_cache(maxsize=256)
def _count_rows(n_leaves: int, h: int) -> tuple[tuple[int, ...], ...]:
    """count_trees(m, k) for m = 0..n_leaves, one row per height k = 1..h."""
    if n_leaves < 1 or h < 1:
        raise ValueError(f"need n_leaves >= 1 and h >= 1, got ({n_leaves}, {h})")
    trees = [0] + [1] * n_leaves  # height 1: one tree per leaf count
    rows = [tuple(trees)]
    for _ in range(h - 1):
        seqs = [1] + [0] * n_leaves  # sequences by total leaves; one empty one
        for m in range(1, n_leaves + 1):
            seqs[m] = sum(trees[k] * seqs[m - k] for k in range(1, m + 1))
        seqs[0] = 0  # a tree has at least one child
        trees = seqs
        rows.append(tuple(trees))
    return tuple(rows)


def _compositions(n: int):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


_tree_cache = BudgetedCache(1 << 16)  # trees enumerate_trees keeps across calls, ~12 MB


def enumerate_trees(n_leaves: int, h: int):
    """Stream every ordered height-h tree with exactly n_leaves leaves,
    each once, in a deterministic order, built one height at a time,
    within the enumeration cap (see _guarded_rows).  Built entries are
    kept, and later read as is, in _tree_cache, sized by their tree
    counts.  An entry that cache would not keep is built per call when it
    is of lower height, and streamed when it is the one asked for, so a
    search that stops early never builds the rest."""
    rows = _guarded_rows(n_leaves, h)
    below: dict[int, tuple[OrderedTree, ...]] = {}
    for k in range(1, h + 1) if (n_leaves, h) not in _tree_cache else (h,):
        layer = {}
        for m in range(1, n_leaves + 1) if k < h else (n_leaves,):
            trees = _tree_cache.get((m, k))
            if trees is None:
                trees = _trees_over(below, m, k)
                fits = rows[k - 1][m] <= _tree_cache.limit
                if fits or k < h:
                    trees = tuple(trees)
                if fits:  # a clearing is safe: below keeps the lower layer
                    _tree_cache.keep((m, k), trees, len(trees))
            layer[m] = trees
        below = layer
    yield from below[n_leaves]


def _guarded_rows(n_leaves: int, h: int) -> tuple[tuple[int, ...], ...]:
    """_count_rows(n_leaves, h), the counts of the trees enumerate_trees
    builds, or EnumerationGuardError if they pass the cap (overridden by
    PARITYTREE_ENUM_CAP).  If h >= 2 and n_leaves > cap.bit_length(), the
    height-h trees alone, at least 2^(n_leaves - 1), pass it uncounted."""
    cap = int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP))
    rows = _count_rows(n_leaves, h) if h < 2 or n_leaves <= cap.bit_length() else None
    total = rows[-1][n_leaves] + sum(map(sum, rows[:-1])) if rows else f"at least 2^{n_leaves - 1}"
    if rows is None or total > cap:
        raise EnumerationGuardError(
            f"{total} trees to build for {n_leaves} leaves at height {h} exceeds cap {cap}")
    return rows


def _guard_embedding_height(h: int) -> None:
    """Refuse a brute-force search past the height _embeds reaches: it
    recurses once per level, up to 100 levels below the recursion limit
    (900 by default), which leaves room for its callers."""
    if h > sys.getrecursionlimit() - 100:
        raise EnumerationGuardError(f"height {h} is past {sys.getrecursionlimit() - 100}, "
                                    "the deepest a brute-force embedding check reaches")


def _trees_over(below: dict[int, tuple[OrderedTree, ...]], n_leaves: int, h: int):
    """Stream the height-h trees with n_leaves leaves from ``below``, the
    height-(h-1) trees by leaf count."""
    if h == 1:
        yield OrderedTree(1, (LEAF,) * n_leaves)
        return
    for comp in _compositions(n_leaves):
        for kids in itertools.product(*(below[part] for part in comp)):
            yield OrderedTree(h, kids)


def is_universal(t: OrderedTree, n: int, h: int) -> tuple[bool, OrderedTree | None]:
    """Whether every tree with exactly n leaves embeds in t (checking
    exactly-n trees suffices), and if not, the first shape in enumeration
    order that does not.  The composition rule of t.proved_n answers first,
    at any height and without enumerating; the trees it leaves unproved,
    a lower bound being all it gives, are decided by enumerating the
    shapes: refused before it starts past the enumeration cap or, as
    _embeds recurses, past height 900 under the default recursion limit."""
    if t.height != h:
        raise ValueError(f"tree height {t.height} != h = {h}")
    if 0 < n <= t.proved_n:  # a leaf holds 0, so h = 0 is left to the enumeration's error
        return True, None
    witness = _first_unembedded(t, n, h)
    return witness is None, witness


def _first_unembedded(t: OrderedTree, n: int, h: int) -> OrderedTree | None:
    """The first tree with n leaves and height h, in enumeration order,
    that does not embed in t, or None: the brute-force decision."""
    _guard_embedding_height(h)
    memo: dict[int, dict[int, bool]] = {}
    for shape in enumerate_trees(n, h):
        if not _embeds(shape, t, memo):
            return shape
    return None


def find_minimal_universal(n: int, h: int) -> tuple[int, OrderedTree]:
    """Smallest leaf count admitting an (n, h)-universal tree, plus one
    witness: the first candidate in enumeration order.  The search ascends
    from the lower-bound recurrence, so a result of L is an exhaustive
    proof that no (L-1)-leaf tree works.  Each candidate tries first the
    shape that rejected the one before, which most fail on too; the order
    of shapes cannot change which candidate passes them all."""
    _guard_embedding_height(h)
    _guarded_rows(max(n, g_lower_closed(n, h)), h)  # g >= this; g recurses through h
    size = g_recurrence(n, h)
    shapes = list(enumerate_trees(n, h))
    while True:
        # one memo per size, its rows kept by shape child: the host ids in a
        # row name children of candidates that may not outlive the size
        memo: dict[int, dict[int, bool]] = {}
        for candidate in enumerate_trees(size, h):
            for i, shape in enumerate(shapes):
                if not _embeds(shape, candidate, memo):
                    if i:
                        shapes.insert(0, shapes.pop(i))
                    break
            else:
                return size, candidate
        size += 1


def signature_to_tree(
    mu: dict[int, LeafCode | str], n: int, d: int
) -> tuple[OrderedTree, dict[int, LeafCode]]:
    """Prefix tree of the distinct non-TOP signature tuples, children
    ordered by descending component value (larger value = further left),
    plus the leaf code holding each vertex's tuple.

    For every p, the induced leaf p-order agrees with comparing the
    tuples lexicographically on their components for odd priorities >= p,
    for every pair of assigned vertices.
    """
    h = d // 2
    tuples = sorted({m for m in mu.values() if m != TOP})
    for t in tuples:
        if len(t) != h or any(not 0 <= c <= n for c in t):
            raise ValueError(f"tuple {t} is not in [0, {n}]^{h}")
    # tuples are sorted, so a value's first appearance under a prefix comes
    # after every smaller value there: its arrival order is its child index
    index: dict[tuple[int, ...], dict[int, int]] = {}
    code_of: dict[tuple[int, ...], LeafCode] = {}
    for t in tuples:
        code = []
        for i in range(h):
            seen = index.setdefault(t[:i], {})
            code.append(seen.setdefault(t[i], len(seen)))
        code_of[t] = tuple(code)
    tree = tree_from_leaf_codes(list(code_of.values()), h) if tuples else OrderedTree(h, ())
    return tree, {v: code_of[m] for v, m in mu.items() if m != TOP}


def code_text(code: LeafCode | str) -> str:
    """A leaf code as comma-separated indices, or TOP as is."""
    return TOP if code == TOP else ",".join(map(str, code))


def dump_leaf_codes(t: OrderedTree) -> str:
    """One line per leaf, its code_text, in leaf order."""
    return "".join(code_text(code) + "\n" for code in leaf_codes(t))


def tree_from_text(text: str, h: int, source: str) -> OrderedTree:
    """The height-h tree of a text that dump_leaf_codes writes: one code
    per line, its indices comma-separated decimal digits only (no sign, no
    underscore), blank lines skipped.  A malformed line is a ValueError
    naming ``source`` and the line; the codes go to tree_from_leaf_codes."""
    codes = []
    for lineno, line in enumerate(map(str.strip, text.splitlines()), 1):
        if not line:
            continue
        entries = [x.strip() for x in line.split(",")]
        try:
            if not all(map(str.isdecimal, entries)):
                raise ValueError
            codes.append(tuple(map(int, entries)))
        except ValueError:  # int() also refuses past the digit limit
            raise ValueError(f"{source}:{lineno}: malformed leaf code {line!r}, "
                             "expected comma-separated integers") from None
    return tree_from_leaf_codes(codes, h)


def tree_from_leaf_codes(codes: list[LeafCode], h: int) -> OrderedTree:
    """Rebuild the unique tree whose leaf-code set is ``codes``; raises
    ValueError if the set is inconsistent (gaps or depth mismatches).

    Read in one pass over the distinct codes in decreasing order, that is
    leaf by leaf from the left, keeping one open node per depth: a code
    closes the open nodes below the first entry where it differs from the
    code before it, each built from the children read under it, and opens
    new ones.  A node's child indices must arrive as M, M-1, ..., 0; any
    other run is a gap.  O(nodes + L*h) for L codes, after the sort; no
    node's hash or leaf count is computed."""
    code_set = set(codes)
    if not code_set:
        raise ValueError("no leaf codes given")
    for c in code_set:
        if len(c) != h:
            raise ValueError(f"code {c} has depth {len(c)}, expected {h}")
    ordered = sorted(code_set, reverse=True)
    # kids[k]: the nodes read at depth k under the open node above them
    kids: list[list[OrderedTree]] = [[] for _ in range(h)] + [[LEAF]]
    gaps: list[LeafCode] = []

    def close(prev: LeafCode, j: int) -> None:
        """Build the open nodes at depths h-1 down to j+1, on prev's path."""
        for k in range(h - 1, j, -1):
            if prev[k]:  # the last child read was not index 0
                gaps.append(prev[:k])
            kids[k].append(OrderedTree(h - k, tuple(kids[k + 1])))
            kids[k + 1].clear()

    prev = ordered[0]
    for code in itertools.islice(ordered, 1, None):
        j = 0
        while code[j] == prev[j]:
            j += 1
        close(prev, j)
        if code[j] != prev[j] - 1:
            gaps.append(prev[:j])
        kids[h].append(LEAF)
        prev = code
    close(prev, -1)
    if gaps:
        # the gap a depth-first walk from the leftmost child meets first
        first = min(gaps, key=lambda prefix: [-idx for idx in prefix])
        raise ValueError(f"missing child index at depth {len(first) + 1}")
    return kids[0][0]
