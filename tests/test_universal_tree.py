import gc
import hashlib
import random
import time
import weakref

import pytest

from paritytree import universal_tree
from paritytree.bounds import f_recurrence
from paritytree.game_core import EVE, ParityGame, generate_random_game
from paritytree.progress_measure import lift_value, value_leq
from paritytree.universal_tree import (
    LEAF,
    TOP,
    BudgetedCache,
    EnumerationGuardError,
    OrderedTree,
    block_bounds,
    code_to_rank,
    compare_leaves_at,
    count_trees,
    dump_leaf_codes,
    embed,
    enumerate_trees,
    find_minimal_universal,
    is_universal,
    leaf_codes,
    leaf_count,
    level,
    make_naive_tree,
    make_succinct_tree,
    rank_to_code,
    signature_to_tree,
    tree_from_leaf_codes,
    tree_from_text,
)
from paritytree.zielonka import extract_signature
from signature_reference import reference_signature_to_tree, tuple_compare


def tower(h, bottom=LEAF, width=1):
    """A tower of height h built directly with OrderedTree: each node above
    ``bottom`` holds ``width`` copies of the one node below it."""
    t = bottom
    for height in range(bottom.height + 1, h + 1):
        t = OrderedTree(height, (t,) * width)
    return t


def round_trips(t):
    """Whether t is the tree rebuilt from its own leaf codes.  A child that
    is not one level below its parent gives codes of the wrong depth, and
    an empty internal node holds no leaf, so either makes this false."""
    try:
        return tree_from_leaf_codes(list(leaf_codes(t)), t.height) == t
    except ValueError:
        return False


def fresh_cache(monkeypatch, name):
    """Swap universal_tree's BudgetedCache ``name`` for an empty one with
    the same limit, and return it."""
    cache = BudgetedCache(getattr(universal_tree, name).limit)
    monkeypatch.setattr(universal_tree, name, cache)
    return cache


class TestShape:
    def test_naive_leaf_count(self):
        for n in range(1, 6):
            for h in range(1, 4):
                assert leaf_count(make_naive_tree(n, h)) == n**h

    def test_naive_cap(self):
        with pytest.raises(EnumerationGuardError):
            make_naive_tree(100, 4)

    @pytest.mark.parametrize("make, n, h, least", [
        (make_naive_tree, 0, 2, 1), (make_naive_tree, 2, 0, 1),
        (make_succinct_tree, -1, 2, 0), (make_succinct_tree, 2, 0, 0),
    ], ids=["naive-n", "naive-h", "succinct-n", "succinct-h"])
    def test_builders_refuse_a_bad_size(self, make, n, h, least):
        with pytest.raises(ValueError) as info:
            make(n, h)
        assert str(info.value) == f"need n >= {least} and h >= 1, got ({n}, {h})"

    def test_naive_cap_message_is_short(self):
        # the guard stops multiplying at the cap, so no 675-digit n^h
        with pytest.raises(EnumerationGuardError) as info:
            make_naive_tree(500, 250)
        message = str(info.value)
        assert len(message) < 120
        assert all(part in message for part in ("500", "250", str(universal_tree.NAIVE_LEAF_CAP)))

    @pytest.mark.parametrize("make, n, h, slots", [
        (make_succinct_tree, 2, 10**6, 17_000_000),
        (make_succinct_tree, 10**5, 5000, 1_500_980_000),
        (make_succinct_tree, 2, 5 * 10**11, 8_500_000_000_000),
        (make_succinct_tree, 2, 294_118, 5_000_006),
        (make_succinct_tree, 1, 625_001, 5_000_008),
        (make_naive_tree, 1, 10**6, 8_000_000),
        (make_naive_tree, 1, 625_001, 5_000_008),
    ])
    def test_build_ceiling_refuses_before_building(self, make, n, h, slots):
        # a node weighs 7 slots; (2, h) has 2h nodes and 3h slots, (1, h) h of each
        started = time.perf_counter()
        with pytest.raises(EnumerationGuardError) as info:
            make(n, h)
        assert time.perf_counter() - started < 0.5
        kind = "naive" if make is make_naive_tree else "succinct"
        assert str(info.value) == (f"{kind} tree for (n={n}, h={h}) would take {slots} slots, "
                                   "past the build ceiling of 5000000")

    @pytest.mark.parametrize("n, h", [(2, 2500), (3, 3000), (2000, 8), (10**4, 10),
                                      (2 * 10**4, 10), (10**5, 10), (2, 294_117), (1, 625_000)])
    def test_build_ceiling_admits(self, monkeypatch, n, h):
        # the guard alone: with the fill stubbed out, nothing is built
        fresh_cache(monkeypatch, "_interned_roots")
        monkeypatch.setattr(universal_tree, "succinct_fill", lambda *args: ())
        assert make_succinct_tree(n, h).height == h

    def test_build_ceiling_not_checked_on_an_interned_hit(self, monkeypatch):
        root = make_succinct_tree(30, 5)

        def refuse(*args):
            raise AssertionError("guard_build ran on an interned root")

        monkeypatch.setattr(universal_tree, "guard_build", refuse)
        assert make_succinct_tree(30, 5) is root

    def test_succinct_leaf_count_matches_f(self):
        for n in range(0, 20):
            for h in range(1, 5):
                assert leaf_count(make_succinct_tree(n, h)) == f_recurrence(n, h)

    def test_succinct_leaf_count_without_walking_leaves(self):
        # 2.6e9 leaves: counted once per distinct shared node
        assert leaf_count(make_succinct_tree(10**4, 10)) == f_recurrence(10**4, 10)

    def test_memoised_counts_leave_equality_and_hash_alone(self):
        counted = tree_from_leaf_codes([(0, 0), (1, 0), (1, 1)], 2)
        fresh = tree_from_leaf_codes([(0, 0), (1, 0), (1, 1)], 2)
        assert leaf_count(counted) == 3
        assert counted == fresh and hash(counted) == hash(fresh)
        assert repr(counted) == repr(fresh)

    def test_equal_trees_hash_equal(self):
        built = OrderedTree(2, (OrderedTree(1, (OrderedTree(0),) * 2), OrderedTree(1, (LEAF,))))
        again = OrderedTree(2, (OrderedTree(1, (LEAF, LEAF)), OrderedTree(1, (OrderedTree(0),))))
        rebuilt = tree_from_leaf_codes([(0, 0), (1, 0), (1, 1)], 2)
        assert built == again == rebuilt
        assert hash(built) == hash(again) == hash(rebuilt)
        assert {built: "x"}[rebuilt] == "x"
        for n, h in ((5, 2), (6, 3)):
            shared = make_succinct_tree(n, h)
            flat = tree_from_leaf_codes(list(leaf_codes(shared)), h)
            assert shared == flat and hash(shared) == hash(flat)
        assert len({built, make_naive_tree(3, 1), make_naive_tree(2, 2)}) == 3

    def test_hash_visits_each_shared_node_once(self):
        # 2^200 root-to-leaf paths over 201 distinct nodes
        assert hash(tower(200, width=2)) == hash(tower(200, width=2))

    def test_equality_visits_each_shared_pair_once(self):
        # separately built towers share no node objects with each other
        pair = OrderedTree(1, (LEAF, LEAF))
        assert tower(200, pair, 2) == tower(200, OrderedTree(1, (LEAF, LEAF)), 2)
        assert tower(200, pair, 2) != tower(200, OrderedTree(1, (LEAF,)), 2)
        assert tower(200, pair, 2) != tower(200, OrderedTree(1, (LEAF, LEAF, LEAF)), 2)

    def test_hand_built_tower_counts_at_any_height(self):
        # leaf counts are filled bottom-up on a stack, not by recursion
        t = tower(3000)
        assert leaf_count(t) == 1
        assert code_to_rank(t, (0,) * 3000) == 0
        assert block_bounds(t, 0) == (0,) * 3001 + (1,) * 3001

    def test_hash_and_equality_at_any_height(self):
        t, read = tower(3000), tree_from_leaf_codes([(0,) * 3000], 3000)
        assert hash(t) == hash(read)
        assert t == read and read == t
        wide = tower(3000, OrderedTree(1, (LEAF, LEAF)))
        assert t != wide and wide != read

    def test_repr_walks_no_tree(self):
        # the tower is too deep to recurse through; the naive tree has 10^6 paths
        assert repr(tower(3000)) == "OrderedTree(height=3000, 1 root children)"
        assert repr(make_naive_tree(1000, 2)) == "OrderedTree(height=2, 1000 root children)"

    def test_enumerated_tree_counts_at_any_height(self, monkeypatch):
        fresh_cache(monkeypatch, "_tree_cache")
        assert leaf_count(next(enumerate_trees(1, 3000))) == 1

    def test_building_and_checking_computes_no_fact(self):
        # reading codes and checking universality need no leaf count or
        # hash, so no node of the tree read may hold one
        codes = list(leaf_codes(make_succinct_tree(5, 3)))
        codes.append((1 + max(code[0] for code in codes), 0, 0))
        t = tree_from_leaf_codes(codes, 3)
        assert is_universal(t, 5, 3) == (True, None)
        stack = [t]
        while stack:
            node = stack.pop()
            if node.height:  # leaves are the shared LEAF, which other tests hash
                assert not {"cumulative", "_hash"} & node.__dict__.keys()
                stack.extend(node.children)

    def test_succinct_valid(self):
        for n in range(1, 10):
            for h in range(1, 4):
                assert round_trips(make_succinct_tree(n, h))

    def test_empty_tree(self):
        t = make_succinct_tree(0, 2)
        assert t.is_empty
        assert leaf_count(t) == 0

    def test_empty_tree_costs_nothing_at_any_height(self):
        # a height no other test builds, as roots are interned per (n, h)
        started = time.perf_counter()
        t = make_succinct_tree(0, 10**7 + 3)
        assert time.perf_counter() - started < 0.1
        assert t.is_empty and t.height == 10**7 + 3 and leaf_count(t) == 0

    def test_validate_rejects_bad_height(self):
        assert not round_trips(OrderedTree(2, (LEAF,)))

    def test_validate_rejects_internal_empty(self):
        assert not round_trips(OrderedTree(3, (OrderedTree(2),)))

    def test_validate_deep_tree(self):
        assert round_trips(tree_from_leaf_codes([(0,) * 3000], 3000))
        assert round_trips(tower(3000))

    def test_round_trip_rejects_what_the_path_walk_rejects(self):
        def walk(t):  # every path, depth first, left to right
            for child in t.children:
                if child.height != t.height - 1:
                    raise ValueError(
                        f"child of height {child.height} under node of height {t.height}")
                if child.height > 0 and not child.children:
                    raise ValueError("empty internal node below the root")
                walk(child)

        def outcome(check, t):
            try:
                check(t)
            except ValueError as exc:
                return str(exc)
            return None

        rng = random.Random(11)
        invalid = 0
        for _ in range(2000):
            pool = [LEAF]  # later nodes may share any earlier one
            for _ in range(rng.randint(1, 8)):
                kids = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
                height = max((k.height for k in kids), default=0) + rng.choice((1, 1, 1, 2))
                pool.append(OrderedTree(height, kids))
            t, error = pool[-1], outcome(walk, pool[-1])
            invalid += error is not None
            # an empty root passes the walk but has no leaf code to rebuild from
            assert round_trips(t) == (error is None and bool(t.children))
        assert 200 < invalid < 1800


class TestIntern:
    """The builders hand out one root per (kind, n, h) within a budget."""

    @staticmethod
    def memo_ints(root):
        return (leaf_count(root) + 1) * (3 * root.height + 2)

    def test_one_root_per_shape_within_budget(self):
        assert make_succinct_tree(30, 5) is make_succinct_tree(30, 5)
        assert make_naive_tree(3, 4) is make_naive_tree(3, 4)
        assert make_succinct_tree(3, 4) is not make_naive_tree(3, 4)  # the kind is in the key
        # 83,458 leaves: over the budget, so built afresh on every call
        big = make_succinct_tree(300, 5)
        assert self.memo_ints(big) > universal_tree._interned_roots.limit
        assert make_succinct_tree(300, 5) is not big
        assert make_succinct_tree(300, 5) == big

    def test_sweep_stays_within_budget(self, monkeypatch):
        roots = fresh_cache(monkeypatch, "_interned_roots")
        for n in range(1, 50):
            for h in range(1, 7):
                for make in (make_naive_tree, make_succinct_tree):
                    try:
                        make(n, h)
                    except EnumerationGuardError:
                        continue
                    kept = list(roots.values())
                    total = sum(map(self.memo_ints, kept))
                    assert total == roots.total <= roots.limit
        assert len(kept) > 1 and ("naive", 1, 1) not in roots

    def test_a_game_and_its_dual_keep_both_roots(self, monkeypatch):
        # 30 vertices at d = 10 and the dual at d = 12 alternate heights 5
        # and 6: 23,834 and 48,720 ints, kept together so neither memo is lost
        roots = fresh_cache(monkeypatch, "_interned_roots")
        a, b = make_succinct_tree(30, 5), make_succinct_tree(30, 6)
        assert make_succinct_tree(30, 5) is a and make_succinct_tree(30, 6) is b
        assert roots.total == self.memo_ints(a) + self.memo_ints(b) == 72_554

    def test_root_past_budget_clears_the_rest(self, monkeypatch):
        roots = fresh_cache(monkeypatch, "_interned_roots")
        # memo sizes 23,834, 11,934 and 35,734 ints: 71,502 in all
        a, b, c = make_succinct_tree(30, 5), make_succinct_tree(20, 5), make_succinct_tree(36, 5)
        assert make_succinct_tree(20, 5) is b
        d = make_succinct_tree(33, 5)  # 29,308 more ints would pass the budget
        assert list(roots) == [("succinct", 33, 5)]
        assert roots.total == self.memo_ints(d)
        assert make_succinct_tree(33, 5) is d and make_succinct_tree(30, 5) is not a


class TestSuccinctChildren:
    """The succinct builder's table of equal subtrees: owned by one build,
    so builds share no nodes and a dropped tree is freed at once."""

    @staticmethod
    def children_ids(t):
        """The ids of the children tuples of t's distinct internal nodes."""
        found, stack = set(), [t]
        while stack:
            node = stack.pop()
            if node.height and id(node.children) not in found:
                found.add(id(node.children))
                stack.extend(node.children)
        return found

    def test_repeat_builds_share_no_children(self, monkeypatch):
        monkeypatch.setattr(universal_tree, "_interned_roots", BudgetedCache(0))  # every call builds
        for h in (5, 6):
            a, b = make_succinct_tree(30, h), make_succinct_tree(30, h)
            assert a is not b and a == b
            assert not self.children_ids(a) & self.children_ids(b)

    def test_dropped_trees_are_freed(self):
        # over the intern budget, so only the caller keeps its nodes; with
        # the collector off, a reference cycle would keep them too
        enabled = gc.isenabled()
        gc.disable()
        try:
            tree = make_succinct_tree(2000, 8)
            middle = weakref.ref(tree.children[1000])
            assert len(middle().children) == 2000
            del tree
            assert middle() is None
        finally:
            if enabled:
                gc.enable()

    def test_builds_at_any_height(self):
        # the table is filled bottom-up, so the build never recurses through h
        assert leaf_count(make_succinct_tree(3, 3000)) == 6001

    @staticmethod
    def distinct_nodes(t):
        seen, stack = set(), [t]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.children)
        return len(seen)

    def test_codes_and_sharing_pinned(self):
        # the leaf codes and node counts of the recursive build, over the
        # same grid: a bottom-up build must reproduce them exactly
        digest, nodes = hashlib.sha256(), 0
        for n in range(41):
            for h in range(1, 7):
                t = make_succinct_tree(n, h)
                digest.update(f"{n},{h}\n{dump_leaf_codes(t)}".encode())
                nodes += self.distinct_nodes(t)
        assert digest.hexdigest() == (
            "ea4a3dd9885d2d2550cb1e444d0832827630f6037aee5066d82382978f7ff4da")
        assert nodes == 4056
        assert self.distinct_nodes(make_succinct_tree(10**4, 10)) == 227

    def test_builders_leave_the_f_cache_alone(self, monkeypatch):
        # a kept root is sized from its own leaf count, not from f
        fresh_cache(monkeypatch, "_interned_roots")
        before = f_recurrence.cache_info()
        for n, h in ((1234, 7), (30, 5), (3, 4)):
            make_succinct_tree(n, h)
            make_naive_tree(n % 10 + 1, 3)
        assert f_recurrence.cache_info() == before


class TestLeafCodes:
    def test_codes_increasing_and_resolve_to_leaves(self):
        for t in (make_naive_tree(3, 2), make_succinct_tree(5, 2),
                  make_succinct_tree(4, 3)):
            codes = list(leaf_codes(t))
            assert codes == sorted(codes)
            assert len(codes) == len(set(codes)) == leaf_count(t)
            assert codes[0] == (0,) * t.height  # rightmost leaf is all zeros

    def test_right_indexing(self):
        # lopsided tree: left child has 2 leaves, right child has 1
        t = OrderedTree(2, (OrderedTree(1, (LEAF, LEAF)), OrderedTree(1, (LEAF,))))
        assert list(leaf_codes(t)) == [(0, 0), (1, 0), (1, 1)]

    def test_round_trip_through_dump(self):
        for t in (make_succinct_tree(6, 2), make_naive_tree(3, 3)):
            assert tree_from_text(dump_leaf_codes(t), t.height, "dump") == t

    def test_text_reader_names_source_and_line(self):
        # blank lines are skipped but counted; the offending line is shown stripped
        assert tree_from_text("\n 1 , 0 \n\n0,0\n", 2, "x") == tree_from_leaf_codes(
            [(1, 0), (0, 0)], 2)
        with pytest.raises(ValueError) as info:
            tree_from_text("0,0\n\n 1,x \n", 2, "codes.txt")
        assert str(info.value) == ("codes.txt:3: malformed leaf code '1,x', "
                                   "expected comma-separated integers")

    def test_tree_from_codes_rejects_gaps(self):
        with pytest.raises(ValueError):
            tree_from_leaf_codes([(0,), (2,)], 1)

    def test_deep_codes_round_trip(self):
        # built bottom-up and walked with a stack: nothing recurses per level
        codes = [(0,) * 3000, (0,) * 2999 + (1,), (1,) + (0,) * 2999]
        t = tree_from_leaf_codes(codes, 3000)
        assert leaf_count(t) == 3
        assert list(leaf_codes(t)) == sorted(codes)
        assert [code_to_rank(t, c) for c in sorted(codes)] == [0, 1, 2]

    def test_reading_codes_is_linear_in_the_tree(self):
        # a comb: the all-zero spine plus one branch off it at each depth,
        # ~h^2 / 2 nodes from h + 1 codes.  Re-keying every code at every
        # depth is O(h^3): 1.55 s at h = 600 on a 2-CPU x86_64 VM under
        # Python 3.11, where the one-pass read takes 0.24 s
        h = 600
        codes = [(0,) * h] + [(0,) * i + (1,) + (0,) * (h - i - 1) for i in range(h)]
        started = time.perf_counter()
        t = tree_from_leaf_codes(codes, h)
        assert time.perf_counter() - started < 0.75
        assert list(leaf_codes(t)) == sorted(codes)

    def test_tree_from_codes_rejects_depth_mismatch(self):
        with pytest.raises(ValueError):
            tree_from_leaf_codes([(0, 0), (1,)], 2)

    def test_tree_from_codes_rejects_empty(self):
        with pytest.raises(ValueError):
            tree_from_leaf_codes([], 1)


class TestRanks:
    # lopsided tree: left child has 2 leaves, right child has 1
    T = OrderedTree(2, (OrderedTree(1, (LEAF, LEAF)), OrderedTree(1, (LEAF,))))

    def test_codes_and_ranks(self):
        assert [code_to_rank(self.T, c) for c in leaf_codes(self.T)] == [0, 1, 2]
        assert [rank_to_code(self.T, r) for r in range(4)] == [(0, 0), (1, 0), (1, 1), TOP]
        assert code_to_rank(self.T, TOP) == 3

    def test_rejects_foreign_codes_and_ranks(self):
        for code in [(0, 1), (2, 0), (0,), (0, 0, 0)]:
            with pytest.raises(ValueError):
                code_to_rank(self.T, code)
        for rank in (-1, 4):
            with pytest.raises(ValueError):
                rank_to_code(self.T, rank)
            with pytest.raises(ValueError):
                block_bounds(self.T, rank)

    def test_block_bounds(self):
        # starts at depths 0..2, then ends at depths 0..2
        assert block_bounds(self.T, 0) == (0, 0, 0, 3, 1, 1)
        assert block_bounds(self.T, 1) == (0, 1, 1, 3, 3, 2)
        assert block_bounds(self.T, 2) == (0, 1, 2, 3, 3, 3)
        assert block_bounds(self.T, 3) == (3,) * 6


class TestLevel:
    def test_levels(self):
        assert [level(6, p) for p in range(7)] == [3, 3, 2, 2, 1, 1, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            level(4, 5)


class TestCompare:
    def test_truncated_lexicographic(self):
        t = make_naive_tree(3, 2)
        assert compare_leaves_at(t, (0, 2), (1, 0), 1, 4) == -1
        assert compare_leaves_at(t, (0, 2), (1, 0), 3, 4) == -1
        assert compare_leaves_at(t, (1, 2), (1, 0), 3, 4) == 0
        assert compare_leaves_at(t, (1, 2), (1, 0), 1, 4) == 1
        assert compare_leaves_at(t, (1, 2), (1, 0), 4, 4) == 0

    def test_rejects_foreign_code(self):
        t = make_naive_tree(2, 2)
        with pytest.raises(ValueError):
            compare_leaves_at(t, (2, 0), (0, 0), 1, 4)


def scan_min_geq(t, target, p, strict, d):
    """Linear-scan oracle for the least leaf >=_p the target (>_p when
    strict)."""
    for code in leaf_codes(t):  # increasing order
        cmp = compare_leaves_at(t, code, target, p, d)
        if cmp > 0 or (not strict and cmp == 0):
            return code
    return TOP


def reference_fixed_point(g, t):
    """Least fixed point of the leaf-code lift, by round-robin passes with
    the linear-scan oracle: Eve's minimum, Adam's maximum, joined with the
    current value."""
    mu = [(0,) * t.height] * g.n
    changed = True
    while changed:
        changed = False
        for v in g.vertices():
            p = g.priority[v]
            options = [TOP if mu[w] == TOP else scan_min_geq(t, mu[w], p, p % 2 == 1, g.d)
                       for w in g.successors[v]]
            best = options[0]
            for o in options[1:]:
                if value_leq(o, best) == (g.owner[v] == EVE):
                    best = o
            if not value_leq(best, mu[v]):
                mu[v] = best
                changed = True
    return mu


def lift_onto(t, target, p, d):
    """The lift's option for one successor: lift_value at an Eve vertex of
    priority p on the smallest leaf whose only successor holds the target,
    which is the least leaf >=_p the target, >_p at odd p."""
    g = ParityGame(d, (EVE, EVE), (p, 0), ((1,), (1,)))
    return lift_value(g, t, [(0,) * t.height, target], 0)


class TestMinLeafGeq:
    def test_matches_scan_oracle(self):
        rng = random.Random(7)
        trees = [make_naive_tree(3, 2), make_succinct_tree(5, 2),
                 make_succinct_tree(6, 3), make_naive_tree(2, 3)]
        for t in trees:
            # d past 2h: trees shorter than d/2 keep their whole code
            for d in (2 * t.height, 2 * t.height + 2, 2 * t.height + 6):
                codes = list(leaf_codes(t))
                for _ in range(300):
                    target = rng.choice(codes)
                    p = rng.randint(0, d)
                    assert lift_onto(t, target, p, d) == \
                        scan_min_geq(t, target, p, p % 2 == 1, d), (t.height, target, p, d)

    def test_top_absorbs(self):
        t = make_naive_tree(2, 1)
        assert lift_onto(t, TOP, 1, 2) == TOP

    def test_strict_past_last_leaf(self):
        t = make_naive_tree(2, 1)
        assert lift_onto(t, (1,), 1, 2) == TOP

    def test_nonstrict_is_prefix_plus_zeros(self):
        t = make_naive_tree(3, 2)
        assert lift_onto(t, (2, 1), 2, 4) == (2, 0)
        assert lift_onto(t, (2, 1), 0, 4) == (2, 1)


class TestEmbed:
    def test_into_itself(self):
        for t in (make_naive_tree(3, 2), make_succinct_tree(5, 2)):
            mapping = embed(t, t)
            assert mapping is not None
            assert mapping[()] == ()

    def test_succinct_into_wide_naive(self):
        for n in range(1, 7):
            for h in (1, 2, 3):
                big = make_naive_tree(f_recurrence(n, h), h)
                assert embed(make_succinct_tree(n, h), big) is not None

    def test_too_wide_fails(self):
        wide = make_naive_tree(4, 1)
        narrow = make_naive_tree(3, 1)
        assert embed(wide, narrow) is None
        assert embed(narrow, wide) is not None

    def test_height_mismatch(self):
        with pytest.raises(ValueError):
            embed(make_naive_tree(2, 1), make_naive_tree(2, 2))

    def test_mapping_preserves_order_and_depth(self):
        small = make_succinct_tree(4, 2)
        big = make_naive_tree(4, 2)
        mapping = embed(small, big)
        assert mapping is not None
        for path_small, path_big in mapping.items():
            assert len(path_small) == len(path_big)
        # sibling order: left-to-right paths of the small tree's leaves map
        # to strictly increasing paths in the big tree
        small_leaves = sorted(p for p in mapping if len(p) == 2)
        images = [mapping[p] for p in small_leaves]
        assert images == sorted(images)
        assert len(set(images)) == len(images)

    def test_shape_needs_room(self):
        # a 2-1 split cannot embed into a 1-2 split at height 2
        lopsided = OrderedTree(2, (OrderedTree(1, (LEAF, LEAF)), OrderedTree(1, (LEAF,))))
        mirrored = OrderedTree(2, (OrderedTree(1, (LEAF,)), OrderedTree(1, (LEAF, LEAF))))
        assert embed(lopsided, mirrored) is None
        assert embed(mirrored, mirrored) is not None

    def test_accepted_height(self):
        # the height the docstrings of embed and is_universal promise
        tower = tree_from_leaf_codes([(0,) * 900], 900)
        assert embed(tower, tower) == {(0,) * k: (0,) * k for k in range(901)}
        assert is_universal(tower, 1, 900) == (True, None)
        tower = tree_from_leaf_codes([(0,) * 3000], 3000)
        with pytest.raises(EnumerationGuardError, match="height 3000 is past 900"):
            embed(tower, tower)
        # the composition rule proves it without recursing or enumerating
        assert is_universal(tower, 1, 3000) == (True, None)


class TestEnumeration:
    def test_counts(self):
        # height-2 trees with n leaves correspond to compositions of n
        for n in range(1, 8):
            assert count_trees(n, 2) == 2 ** (n - 1)
        assert count_trees(5, 2) == 16
        assert count_trees(1, 3) == 1

    def test_enumerate_matches_count(self):
        shapes = list(enumerate_trees(4, 2))
        assert len(shapes) == count_trees(4, 2) == 8
        assert len(set(shapes)) == 8
        for t in shapes:
            assert round_trips(t)
            assert leaf_count(t) == 4

    @pytest.mark.parametrize("n_leaves, h", [(0, 2), (3, 0)])
    def test_needs_a_leaf_and_a_level(self, n_leaves, h):
        with pytest.raises(ValueError, match="need n_leaves >= 1 and h >= 1"):
            next(enumerate_trees(n_leaves, h))

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("PARITYTREE_ENUM_CAP", "100")
        with pytest.raises(EnumerationGuardError):
            list(enumerate_trees(10, 2))

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("PARITYTREE_ENUM_CAP", "1")
        with pytest.raises(EnumerationGuardError):
            list(enumerate_trees(3, 2))

    def test_guard_refuses_uncounted_past_the_cap_bits(self, monkeypatch):
        # cap 100 has 7 bits: 2^7 two-level trees with 8 leaves pass it uncounted
        monkeypatch.setenv("PARITYTREE_ENUM_CAP", "100")
        with pytest.raises(EnumerationGuardError, match="^at least 2\\^7 trees to build"):
            next(enumerate_trees(8, 2))
        assert count_trees(7, 2) + 7 <= 100
        assert len(list(enumerate_trees(7, 2))) == 64
        assert len(list(enumerate_trees(8, 1))) == 1

    def test_guard_counts_lower_heights(self, monkeypatch):
        # one tree of each height up to 10: the nine below are built too
        monkeypatch.setenv("PARITYTREE_ENUM_CAP", "9")
        with pytest.raises(EnumerationGuardError, match="^10 trees to build"):
            list(enumerate_trees(1, 10))
        monkeypatch.setenv("PARITYTREE_ENUM_CAP", "10")
        assert len(list(enumerate_trees(1, 10))) == 1

    def test_entry_over_the_cache_bound_is_not_kept(self, monkeypatch):
        cache = fresh_cache(monkeypatch, "_tree_cache")
        kept = next(enumerate_trees(4, 3))
        assert next(enumerate_trees(4, 3)) is kept
        # 2^17 trees of height 2 with 18 leaves, streamed per call
        assert count_trees(18, 2) > cache.limit
        first = next(enumerate_trees(18, 2))
        again = next(enumerate_trees(18, 2))
        assert first == again and first is not again
        assert (18, 2) not in cache
        assert cache.total == sum(map(len, cache.values())) <= cache.limit

    def test_entry_past_the_limit_clears_the_cache(self, monkeypatch):
        cache = fresh_cache(monkeypatch, "_tree_cache")
        for m in range(16, 10, -1):  # 64,528 trees of height 2 and 1
            next(enumerate_trees(m, 2))
        find_minimal_universal(2, 5)
        assert (6, 5) in cache
        assert cache.total == sum(map(len, cache.values())) <= cache.limit


class TestUniversality:
    def test_naive_is_universal(self):
        ok, witness = is_universal(make_naive_tree(3, 2), 3, 2)
        assert ok and witness is None

    def test_path_tree_is_not_universal(self):
        # single spine with 3 leaves under one child cannot host (1,1,1)
        spine = OrderedTree(2, (OrderedTree(1, (LEAF, LEAF, LEAF)),))
        ok, witness = is_universal(spine, 3, 2)
        assert not ok
        assert witness is not None
        assert embed(witness, spine) is None

    def test_height_mismatch(self):
        with pytest.raises(ValueError):
            is_universal(make_naive_tree(2, 1), 2, 2)

    def test_succinct_proved_past_the_enumeration_cap(self):
        assert count_trees(20, 4) > universal_tree.DEFAULT_ENUM_CAP
        assert is_universal(make_succinct_tree(20, 4), 20, 4) == (True, None)

    def test_wide_root_proved_in_seconds(self):
        # a root of degree 10^4; scanning every child from every j took 6-8 s
        started = time.perf_counter()
        assert is_universal(make_succinct_tree(10**4, 10), 10**4, 10) == (True, None)
        assert time.perf_counter() - started < 2

    def test_constructions_proved_without_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(universal_tree, "enumerate_trees", refuse)
        for n in range(1, 9):
            for h in range(1, 5):
                for t in (make_succinct_tree(n, h), make_naive_tree(n, h)):
                    assert is_universal(t, n, h) == (True, None), (n, h)

    def test_constructions_pass_brute_force(self):
        # the enumeration alone, without the rule, still checks every shape
        for n in range(1, 7):
            for h in range(1, 4):
                for t in (make_succinct_tree(n, h), make_naive_tree(n, h)):
                    assert universal_tree._first_unembedded(t, n, h) is None, (n, h)

    def test_unproved_tree_meets_the_cap(self, monkeypatch):
        # 4 leaves under one leaf parent are not (2, 2)-universal, so
        # the check enumerates, and a cap of 1 refuses it
        monkeypatch.setenv("PARITYTREE_ENUM_CAP", "1")
        t = OrderedTree(2, (OrderedTree(1, (LEAF,) * 4),))
        with pytest.raises(EnumerationGuardError):
            is_universal(t, 2, 2)
        assert is_universal(make_naive_tree(2, 2), 2, 2) == (True, None)

    def test_find_minimal_small(self):
        size, witness = find_minimal_universal(2, 2)
        assert size == 3
        assert leaf_count(witness) == 3
        assert is_universal(witness, 2, 2)[0]

    def test_find_minimal_seven_leaves_height_two(self):
        # g(7, 2) = 16, so the search rejects all 2^15 16-leaf candidates
        size, witness = find_minimal_universal(7, 2)
        assert size == 17
        assert is_universal(witness, 7, 2)[0]

    def test_find_minimal_height_one(self):
        size, witness = find_minimal_universal(4, 1)
        assert size == 4
        assert witness == make_naive_tree(4, 1)


class TestSignatureToTree:
    def test_orders_agree_with_tuple_compare(self):
        mu = {
            0: (0, 0),
            1: (1, 2),
            2: (1, 0),
            3: TOP,
            4: (2, 1),
        }
        tree, codes = signature_to_tree(mu, 3, 4)
        assert 3 not in codes
        vs = [v for v in mu if v != 3]
        for p in range(5):
            for a in vs:
                for b in vs:
                    want = tuple_compare(mu[a], mu[b], p, 4)
                    got = compare_leaves_at(tree, codes[a], codes[b], p, 4)
                    assert got == want, (a, b, p)

    def test_shared_tuples_share_leaves(self):
        mu = {0: (1, 1), 1: (1, 1)}
        tree, codes = signature_to_tree(mu, 2, 4)
        assert codes[0] == codes[1]
        assert leaf_count(tree) == 1

    def test_all_top(self):
        tree, codes = signature_to_tree({0: TOP}, 1, 4)
        assert codes == {}
        assert tree.is_empty

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            signature_to_tree({0: (5, 0)}, 2, 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            signature_to_tree({0: (1,)}, 2, 4)

    def test_matches_sibling_scan_reference(self):
        for seed in range(60):
            g = generate_random_game(3 + 7 * (seed % 20), 2 + 2 * (seed % 6), (1, 3), seed)
            mu = extract_signature(g)
            assert signature_to_tree(mu, g.n, g.d) == \
                reference_signature_to_tree(mu, g.n, g.d), seed

    def test_many_distinct_tuples(self):
        # 1,408 distinct tuples of length 20; the sibling scan took ~10 s here
        g = generate_random_game(10_000, 40, (1, 3), 7)
        mu = extract_signature(g)
        started = time.perf_counter()
        tree, codes = signature_to_tree(mu, g.n, g.d)
        assert time.perf_counter() - started < 5
        assert leaf_count(tree) == len({m for m in mu.values() if m != TOP})
        assert len(codes) == sum(m != TOP for m in mu.values())
