"""Reference reader of leaf codes: the per-depth builder
``universal_tree.tree_from_leaf_codes`` used before it read the codes in
one pass.

It rebuilds the tree bottom-up, one depth at a time, re-keying every code
by its prefix at each depth: O(L * h^2) for L codes, O(h^3) on a comb.
The tests compare the package's one-pass reader against it, trees and
error messages alike.
"""

from __future__ import annotations

from paritytree.universal_tree import LEAF, LeafCode, OrderedTree


def reference_tree_from_leaf_codes(codes: list[LeafCode], h: int) -> OrderedTree:
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
