"""Ordered trees of fixed height with leaf codes and per-priority orders,
the naive and succinct universal-tree constructions, tree embedding,
brute-force universality checking, and minimal-universal-tree search.

Leaf codes index children from the RIGHT (index 0 = rightmost child,
increasing leftward), so that plain numeric lexicographic order on codes
coincides with the leaf order: a larger code is a leaf further left, and
the all-zeros code is the smallest leaf.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bounds import g_recurrence

TOP = "TOP"  # absorbing top element, greater than every leaf in every p-order

LeafCode = tuple[int, ...]

ENUM_CAP_ENV = "PARITYTREE_ENUM_CAP"
DEFAULT_ENUM_CAP = 5_000_000
DEFAULT_LEAF_CAP = 1_000_000


class EnumerationGuardError(ValueError):
    """A brute-force enumeration would exceed the configured ceiling."""


def enumeration_cap() -> int:
    return int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP))


@dataclass(frozen=True)
class OrderedTree:
    """Node of a totally ordered tree; all leaves sit at the same depth.

    ``height`` 0 with no children is a leaf.  ``height`` > 0 with no
    children is the distinguished empty tree, which only occurs as the
    zero-leaf branch of the succinct construction and the all-TOP
    signature tree.
    """

    height: int
    children: tuple["OrderedTree", ...] = ()

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
        return tuple(itertools.accumulate(map(leaf_count, reversed(self.children)), initial=0))

    @cached_property
    def bounds(self) -> dict[int, tuple[int, ...]]:
        """Memo of block_bounds by rank, filled by value_iteration and
        shared by every game solved on this tree.  It holds at most
        leaf_count + 1 entries, one per rank and TOP, and lives as long as
        this node object; it is not a field, so equality, hashing and repr
        ignore it."""
        return {}

    @cached_property
    def _hash(self) -> int:
        return hash((self.height, self.children))

    def __hash__(self) -> int:
        """Hash of (height, children), computed once per node object, so
        hashing a tree whose subtrees are shared costs O(distinct nodes)
        rather than one visit per path."""
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Structural equality, O(distinct node pairs): pairs already proven
        equal in this call are not compared again."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self, other, set())


def _same(a: OrderedTree, b: OrderedTree, proven: set[tuple[int, int]]) -> bool:
    if a is b:
        return True
    if a._hash != b._hash or a.height != b.height or len(a.children) != len(b.children):
        return False
    key = (id(a), id(b))
    if key in proven:
        return True
    if all(_same(x, y, proven) for x, y in zip(a.children, b.children)):
        proven.add(key)
        return True
    return False


LEAF = OrderedTree(0)


def validate_tree(t: OrderedTree) -> None:
    """Raise ValueError unless every child sits one level down and every
    internal node below the root has at least one child."""
    for child in t.children:
        if child.height != t.height - 1:
            raise ValueError(
                f"child of height {child.height} under node of height {t.height}")
        if child.height > 0 and not child.children:
            raise ValueError("empty internal node below the root")
        validate_tree(child)


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


def make_naive_tree(n: int, h: int, leaf_cap: int = DEFAULT_LEAF_CAP) -> OrderedTree:
    """Complete n-ary tree of height h (n^h leaves); node objects are
    shared across siblings.  Each level's leaf count is computed as it is
    built, so no later call recurses through the height."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    if n**h > leaf_cap:
        raise EnumerationGuardError(f"naive tree would have {n**h} leaves (cap {leaf_cap})")
    node = LEAF
    for height in range(1, h + 1):
        node = OrderedTree(height, (node,) * n)
        leaf_count(node)
    return node


def make_succinct_tree(n: int, h: int) -> OrderedTree:
    """The inductively constructed (n, h)-universal tree: the root's
    children are those of the tree for (floor(n/2), h), then the root of
    the tree for (n, h-1), then those of the tree for (n-1-floor(n/2), h).
    Its leaf count equals bounds.f_recurrence(n, h)."""
    if n < 0 or h < 1:
        raise ValueError(f"need n >= 0 and h >= 1, got ({n}, {h})")
    for k in range(1, h):  # bottom-up, so the recursion stays O(log n) deep
        _succinct_children(n, k)
    return OrderedTree(h, _succinct_children(n, h))


@lru_cache(maxsize=None)
def _succinct_children(n: int, h: int) -> tuple[OrderedTree, ...]:
    if n == 0:
        return ()
    if h == 1:
        return (LEAF,) * n
    middle = OrderedTree(h - 1, _succinct_children(n, h - 1))
    leaf_count(middle)  # its children's counts are known, so this is one level
    if n == 1:
        return (middle,)
    return _succinct_children(n // 2, h) + (middle,) + _succinct_children(n - 1 - n // 2, h)


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


def bound_slot(h: int, p: int, d: int) -> int:
    """Index into block_bounds of the least leaf >=_p a given leaf, >_p
    when p is odd, for a tree of height h: the p-order compares the first
    level(d, p) code entries, so that leaf is the start of the leaf's
    block at depth level(d, p), or its end when p is odd.  An end past
    the last leaf is TOP."""
    keep = min(level(d, p), h)
    return keep + h + 1 if p % 2 else keep


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
    the greedy choices one child at a time.  ``memo`` holds the decisions
    for child pairs, keyed by ``(id(a), id(b))``, so subtrees shared
    between trees are matched once; the caller owns it and must keep
    every tree it names alive."""
    if a.height == 1:  # a leaf embeds in any leaf
        return len(a.children) <= len(b.children)
    rest = iter(b.children)
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
    image that can host it (see _embeds).  The returned mapping uses
    left-to-right child-index paths on both sides.
    """
    if t.height != big.height:
        raise ValueError(f"height mismatch: {t.height} vs {big.height}")
    memo: dict[tuple[int, int], bool] = {}
    if not _embeds(t, big, memo):
        return None
    mapping: dict[tuple[int, ...], tuple[int, ...]] = {}

    def record(a: OrderedTree, b: OrderedTree,
               pa: tuple[int, ...], pb: tuple[int, ...]) -> None:
        # replays _embeds' matching; every child pair it tries is in memo
        mapping[pa] = pb
        rest = enumerate(b.children)
        for i, x in enumerate(a.children):
            for j, y in rest:
                if x.height == 0 or memo[id(x), id(y)]:
                    break
            record(x, y, pa + (i,), pb + (j,))

    record(t, big, (), ())
    return mapping


@lru_cache(maxsize=None)
def count_trees(n_leaves: int, h: int) -> int:
    """Number of ordered trees with exactly n_leaves leaves, all at depth h."""
    if n_leaves < 1 or h < 1:
        raise ValueError(f"need n_leaves >= 1 and h >= 1, got ({n_leaves}, {h})")
    if h == 1:
        return 1
    total = 0
    for comp in _compositions(n_leaves):
        prod = 1
        for part in comp:
            prod *= count_trees(part, h - 1)
        total += prod
    return total


def _compositions(n: int):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _all_trees(n_leaves: int, h: int) -> tuple[OrderedTree, ...]:
    if h == 1:
        return (OrderedTree(1, (LEAF,) * n_leaves),)
    out = []
    for comp in _compositions(n_leaves):
        for kids in itertools.product(*(_all_trees(part, h - 1) for part in comp)):
            out.append(OrderedTree(h, kids))
    return tuple(out)


def enumerate_trees(n_leaves: int, h: int, cap: int | None = None):
    """Stream every ordered height-h tree with exactly n_leaves leaves,
    each once, in a deterministic order.  Guarded by the enumeration cap
    (override via the PARITYTREE_ENUM_CAP environment variable)."""
    cap = enumeration_cap() if cap is None else cap
    total = count_trees(n_leaves, h)
    if total > cap:
        raise EnumerationGuardError(
            f"{total} trees with {n_leaves} leaves at height {h} exceeds cap {cap}")
    yield from _all_trees(n_leaves, h)


def is_universal(t: OrderedTree, n: int, h: int,
                 cap: int | None = None) -> tuple[bool, OrderedTree | None]:
    """Brute-force universality check: every tree with exactly n leaves
    must embed (checking exactly-n trees suffices).  On failure, returns
    the first non-embeddable witness."""
    if t.height != h:
        raise ValueError(f"tree height {t.height} != h = {h}")
    memo: dict[tuple[int, int], bool] = {}
    for shape in enumerate_trees(n, h, cap):
        if not _embeds(shape, t, memo):
            return False, shape
    return True, None


def find_minimal_universal(n: int, h: int,
                           cap: int | None = None) -> tuple[int, OrderedTree]:
    """Smallest leaf count admitting an (n, h)-universal tree, plus one
    witness.  The search ascends from the lower-bound recurrence, so a
    result of L is an exhaustive proof that no (L-1)-leaf tree works."""
    shapes = list(enumerate_trees(n, h, cap))
    size = g_recurrence(n, h)
    memo: dict[tuple[int, int], bool] = {}  # shared subtrees recur across candidates
    while True:
        for candidate in enumerate_trees(size, h, cap):
            if all(_embeds(shape, candidate, memo) for shape in shapes):
                return size, candidate
        size += 1


def signature_to_tree(
    mu: dict[int, object], n: int, d: int
) -> tuple[OrderedTree, dict[int, LeafCode]]:
    """Prefix tree of the distinct non-TOP signature tuples, children
    ordered by descending component value (larger value = further left),
    plus the leaf code holding each vertex's tuple.

    For every p, the induced leaf p-order agrees with comparing the
    tuples lexicographically on their components for odd priorities >= p,
    for every pair of assigned vertices.
    """
    h = d // 2
    tuples = sorted({m.values for m in mu.values() if m != TOP})
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
    assignment = {
        v: code_of[m.values] for v, m in mu.items() if m != TOP}
    return tree, assignment


def dump_leaf_codes(t: OrderedTree) -> str:
    """One line per leaf, the code as comma-separated indices, in leaf order."""
    return "".join(",".join(str(i) for i in code) + "\n" for code in leaf_codes(t))


def tree_from_leaf_codes(codes: list[LeafCode], h: int) -> OrderedTree:
    """Rebuild the unique tree whose leaf-code set is ``codes``; raises
    ValueError if the set is inconsistent (gaps or depth mismatches).

    Built bottom-up, one depth at a time: the nodes at depth k are keyed
    by their codes' first k entries, in decreasing order, so each node's
    children arrive left to right.  The leaf counts of every 100th depth
    are computed as it is built, so a later count recurses through at
    most 100 levels; shallow trees, most of those read, skip the cost."""
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
            node = level[prefix] = OrderedTree(h - depth + 1, tuple(by_index.values()))
            if depth % 100 == 0:
                leaf_count(node)
    if gaps:
        # the gap a depth-first walk from the leftmost child meets first
        first = min(gaps, key=lambda prefix: [-idx for idx in prefix])
        raise ValueError(f"missing child index at depth {len(first) + 1}")
    return level[()]
