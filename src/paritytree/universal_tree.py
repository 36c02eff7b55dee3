"""Ordered trees of fixed height with leaf codes and per-priority orders,
the naive and succinct universal-tree constructions, tree embedding,
universality checking (a composition proof, then brute force), and
minimal-universal-tree search.  The interned roots and the enumerated
trees outlive a call, each in a size-limited BudgetedCache.

Leaf codes index children from the RIGHT (index 0 = rightmost child,
increasing leftward), so that plain numeric lexicographic order on codes
coincides with the leaf order: a larger code is a leaf further left, and
the all-zeros code is the smallest leaf.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bounds import g_recurrence, halving_chain

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


_interned_roots = BudgetedCache(2**16)  # ints of the kept roots' bounds memos, ~2.6 MB


def _interned(key: tuple[str, int, int], build: Callable[[], OrderedTree]) -> OrderedTree:
    """The root ``build()`` makes for ``key`` = (kind, n, h), kept in
    _interned_roots so that later calls return the same object and every
    game solved on it shares its bounds memo.  The root's size there is
    the most that memo holds, (leaf_count + 1) * (2h + 2) ints."""
    root = _interned_roots.get(key)
    if root is None:
        root = build()
        _interned_roots.keep(key, root, (leaf_count(root) + 1) * (2 * key[2] + 2))
    return root


def make_naive_tree(n: int, h: int) -> OrderedTree:
    """Complete n-ary tree of height h (n^h leaves); node objects are
    shared across siblings.  Calls with the same (n, h) return one root
    object while it fits the intern budget (see _interned)."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    leaves = 1
    for _ in range(h):  # at most 20 products before passing the cap when n > 1
        leaves *= n
        if leaves > NAIVE_LEAF_CAP:
            raise EnumerationGuardError(
                f"naive tree for (n={n}, h={h}) would have over {NAIVE_LEAF_CAP} leaves")

    def build() -> OrderedTree:
        node = LEAF
        for height in range(1, h + 1):
            node = OrderedTree(height, (node,) * n)
        return node

    return _interned(("naive", n, h), build)


def make_succinct_tree(n: int, h: int) -> OrderedTree:
    """The inductively constructed (n, h)-universal tree: the root's
    children are those of the tree for (floor(n/2), h), then the root of
    the tree for (n, h-1), then those of the tree for (n-1-floor(n/2), h).
    Its leaf count is bounds.f_recurrence(n, h).  The build fills children
    over n's halving chain, as f is filled, so it does not recurse; equal
    subtrees are one node object within a build, and builds share none.
    Calls with the same (n, h) return one root object while it fits the
    intern budget (see _interned)."""
    if n < 0 or h < 1:
        raise ValueError(f"need n >= 0 and h >= 1, got ({n}, {h})")

    def build() -> OrderedTree:
        chain = halving_chain(n)
        kids = {m: (LEAF,) * m for m in chain}  # height 1
        for k in range(2, h + 1):
            for m in chain[1:]:  # size 0 has no children
                kids[m] = kids[m // 2] + (OrderedTree(k - 1, kids[m]),) + kids[m - 1 - m // 2]
        return OrderedTree(h, kids[n])

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


def rank_to_code(t: OrderedTree, rank: int) -> LeafCode | str:
    """Inverse of code_to_rank: the leaf code at a rank, or TOP for
    rank leaf_count(t)."""
    if rank == leaf_count(t):
        return TOP
    if not 0 <= rank < leaf_count(t):
        raise ValueError(f"rank {rank} outside [0, {leaf_count(t)}]")
    node, code = t, []
    for _ in range(t.height):
        idx = bisect_right(node.cumulative, rank) - 1
        rank -= node.cumulative[idx]
        code.append(idx)
        node = node.children[-1 - idx]
    return tuple(code)


def block_bounds(t: OrderedTree, rank: int) -> tuple[int, ...]:
    """Blocks holding a leaf at every depth: ``(s_0, ..., s_h, e_0, ...,
    e_h)``, where the leaves sharing the first k code entries with it are
    ranks s_k to e_k - 1.  TOP (rank leaf_count(t)) gets leaf_count(t)
    everywhere, so it stays above every leaf."""
    size, h = leaf_count(t), t.height
    if rank == size:
        return (size,) * (2 * h + 2)
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside [0, {size}]")
    starts, ends = [0], [size]
    node, base = t, 0
    for _ in range(h):
        cum = node.cumulative
        idx = bisect_right(cum, rank - base) - 1
        ends.append(base + cum[idx + 1])
        base += cum[idx]
        starts.append(base)
        node = node.children[-1 - idx]
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


def _embeds(a: OrderedTree, b: OrderedTree, memo: dict[tuple[int, int], bool]) -> bool:
    """Whether a embeds in b with root mapped to root: a's children go,
    left to right, each into the leftmost remaining child of b it embeds
    in.  Greedy matching is exact here: any embedding can be shifted onto
    the greedy choices one child at a time.  A leaf parent (height 1)
    embeds in another exactly when it has no more children, so such pairs
    need no memo.  ``memo`` holds the decisions for higher child pairs,
    keyed by ``(id(a), id(b))``, so subtrees shared between trees are
    matched once; the caller owns it and must keep every tree it names
    alive."""
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
        for y in rest:
            key = (id(x), id(y))
            ok = memo.get(key)
            if ok is None:
                ok = memo[key] = _embeds(x, y, memo)
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
    child-index paths on both sides.  _embeds recurses once per level:
    under Python's default recursion limit trees up to height 900 are
    accepted, and much deeper ones raise RecursionError.
    """
    if t.height != big.height:
        raise ValueError(f"height mismatch: {t.height} vs {big.height}")
    memo: dict[tuple[int, int], bool] = {}
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
    each once, in a deterministic order, built one height at a time.
    Guarded by the enumeration cap (override via the PARITYTREE_ENUM_CAP
    environment variable) on the trees built, those of lower height with
    at most n_leaves leaves too.  Built entries are kept, and later read
    as is, in _tree_cache, sized by their tree counts.  An entry that
    cache would not keep is built per call when it is of lower height, and
    streamed when it is the one asked for, so a search that stops early
    never builds the rest."""
    cap = int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP))
    rows = _count_rows(n_leaves, h)
    total = rows[-1][n_leaves] + sum(map(sum, rows[:-1]))
    if total > cap:
        raise EnumerationGuardError(
            f"{total} trees to build for {n_leaves} leaves at height {h} exceeds cap {cap}")
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
    shapes, within the enumeration cap and, through _embeds, up to height
    900 under the default recursion limit."""
    if t.height != h:
        raise ValueError(f"tree height {t.height} != h = {h}")
    if 0 < n <= t.proved_n:  # a leaf holds 0, so h = 0 is left to the enumeration's error
        return True, None
    witness = _first_unembedded(t, n, h)
    return witness is None, witness


def _first_unembedded(t: OrderedTree, n: int, h: int) -> OrderedTree | None:
    """The first tree with n leaves and height h, in enumeration order,
    that does not embed in t, or None: the brute-force decision."""
    memo: dict[tuple[int, int], bool] = {}
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
    size = g_recurrence(n, h)
    shapes = list(enumerate_trees(n, h))
    while True:
        # per size: the memo names children of candidates that may not outlive it
        memo: dict[tuple[int, int], bool] = {}
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


def tree_from_leaf_codes(codes: list[LeafCode], h: int) -> OrderedTree:
    """Rebuild the unique tree whose leaf-code set is ``codes``; raises
    ValueError if the set is inconsistent (gaps or depth mismatches).

    Built bottom-up, one depth at a time: the nodes at depth k are keyed
    by their codes' first k entries, in decreasing order, so each node's
    children arrive left to right."""
    code_set = set(codes)
    if not code_set:
        raise ValueError("no leaf codes given")
    for c in code_set:
        if len(c) != h:
            raise ValueError(f"code {c} has depth {len(c)}, expected {h}")
    level: dict[LeafCode, OrderedTree] = dict.fromkeys(sorted(code_set, reverse=True), LEAF)
    gaps = []
    for depth in range(h, 0, -1):
        by_parent: dict[LeafCode, dict[int, OrderedTree]] = {}
        for code, node in level.items():
            by_parent.setdefault(code[:-1], {})[code[-1]] = node
        level = {}
        for prefix, by_index in by_parent.items():
            if min(by_index) != 0 or max(by_index) != len(by_index) - 1:
                gaps.append(prefix)
            level[prefix] = OrderedTree(h - depth + 1, tuple(by_index.values()))
    if gaps:
        # the gap a depth-first walk from the leftmost child meets first
        first = min(gaps, key=lambda prefix: [-idx for idx in prefix])
        raise ValueError(f"missing child index at depth {len(first) + 1}")
    return level[()]
