"""Property-based tests of the leaf-rank arithmetic and of tree embedding
on trees rebuilt from leaf codes, including non-universal ones with uneven
degrees: ranks follow the leaf order, the lift's block-based least leaf
>=_p equals the linear-scan oracle, value iteration on ranks reaches the fixed point of
the leaf-code lift, the greedy embedding agrees with an exact table
dynamic program, and the minimal search returns the first candidate that
program accepts for every shape, and a tree the composition rule proves
universal hosts every shape by that program, with the rule's host walk
equal to its first form, a scan over every later child."""

import itertools

import pytest

from paritytree.bounds import g_recurrence
from paritytree.game_core import ADAM, EVE, ParityGame
from paritytree.progress_measure import value_iteration
from paritytree.universal_tree import (
    LEAF,
    TOP,
    OrderedTree,
    code_to_rank,
    embed,
    enumerate_trees,
    find_minimal_universal,
    is_universal,
    leaf_codes,
    leaf_count,
    make_naive_tree,
    make_succinct_tree,
    rank_to_code,
    tree_from_leaf_codes,
    _proved_n,
)
from test_universal_tree import lift_onto, reference_fixed_point, scan_min_geq

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def trees(draw, h=None, max_degree=3):
    """Height 1-4 unless given, every internal node with 1 to max_degree
    children, as leaf codes."""
    if h is None:
        h = draw(st.integers(1, 4))

    def codes(depth):
        if depth == h:
            return [()]
        return [(i,) + rest for i in range(draw(st.integers(1, max_degree)))
                for rest in codes(depth + 1)]

    return tree_from_leaf_codes(codes(0), h)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(trees())
def test_ranks_follow_the_leaf_order(t):
    codes = list(leaf_codes(t))
    assert codes == sorted(codes)
    assert [code_to_rank(t, c) for c in codes] == list(range(len(codes)))
    assert [rank_to_code(t, r) for r in range(len(codes))] == codes
    assert code_to_rank(t, TOP) == leaf_count(t) == len(codes)
    assert rank_to_code(t, len(codes)) == TOP


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(trees(), st.data())
def test_least_leaf_geq_matches_scan(t, data):
    # d may exceed 2h, so level(p) can pass the tree's height
    d = 2 * t.height + data.draw(st.sampled_from((0, 2)))
    for target in list(leaf_codes(t)) + [TOP]:
        for p in range(d + 1):
            want = TOP if target == TOP else scan_min_geq(t, target, p, p % 2 == 1, d)
            assert lift_onto(t, target, p, d) == want, (target, p)


@st.composite
def games_on(draw, h):
    n = draw(st.integers(1, 4))
    d = 2 * h
    vertex = st.tuples(
        st.sampled_from((EVE, ADAM)), st.integers(0, d),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple))
    rows = draw(st.lists(vertex, min_size=n, max_size=n))
    return ParityGame(d, *(tuple(col) for col in zip(*rows)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_value_iteration_matches_leaf_code_reference(data):
    t = data.draw(trees())
    g = data.draw(games_on(t.height))
    want = reference_fixed_point(g, t)
    for policy in ("fifo", "roundrobin", "random"):
        assert value_iteration(g, t, policy=policy, seed=1)[0] == want, policy


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(trees(), st.data())
def test_initial_measure_must_hold_leaf_codes(t, data):
    codes = list(leaf_codes(t))
    bad = data.draw(st.one_of(
        st.lists(st.integers(0, 3), min_size=t.height, max_size=t.height).map(tuple)
        .filter(lambda c: c not in codes),
        st.just((0,) * (t.height + 1)),
        st.just((0,) * (t.height - 1))))
    g = ParityGame(2 * t.height, (EVE,), (0,), ((0,),))
    with pytest.raises(ValueError):
        value_iteration(g, t, initial=[bad])


def reference_embed(t, big):
    """Exact embedding by a table dynamic program over child prefixes,
    reconstructed through the least prefix of big's children that hosts
    each prefix of t's children; paths are left-to-right child indices."""
    tables = {}

    def fits(a, b):
        if a.height == 0:
            return True
        key = (id(a), id(b))
        if key in tables:
            return tables[key] is not None
        ca, cb = a.children, b.children
        dp = [[False] * (len(cb) + 1) for _ in range(len(ca) + 1)]
        for j in range(len(cb) + 1):
            dp[0][j] = True
        for i in range(1, len(ca) + 1):
            for j in range(1, len(cb) + 1):
                dp[i][j] = dp[i][j - 1] or (dp[i - 1][j - 1] and fits(ca[i - 1], cb[j - 1]))
        tables[key] = dp if dp[len(ca)][len(cb)] else None
        return tables[key] is not None

    if not fits(t, big):
        return None
    mapping = {}

    def reconstruct(a, b, pa, pb):
        mapping[pa] = pb
        if a.height == 0:
            return
        dp = tables[(id(a), id(b))]
        i, j = len(a.children), len(b.children)
        pairs = []
        while i > 0:
            if dp[i][j - 1]:
                j -= 1
            else:
                pairs.append((i - 1, j - 1))
                i -= 1
                j -= 1
        for ci, cj in reversed(pairs):
            reconstruct(a.children[ci], b.children[cj], pa + (ci,), pb + (cj,))

    reconstruct(t, big, (), ())
    return mapping


def node_paths(t, path=()):
    """Left-to-right child-index paths of every node, root first."""
    yield path
    for i, child in enumerate(t.children):
        yield from node_paths(child, path + (i,))


def assert_valid_embedding(mapping, t, big):
    assert set(mapping) == set(node_paths(t))
    assert mapping[()] == ()
    assert set(mapping.values()) <= set(node_paths(big))
    assert len(set(mapping.values())) == len(mapping)
    for path, image in mapping.items():
        assert len(image) == len(path)
        if path:
            assert image[:-1] == mapping[path[:-1]]
            if path[-1] > 0:
                assert image[-1] > mapping[path[:-1] + (path[-1] - 1,)][-1]


def built_trees(h):
    """Naive and succinct trees of height h, as built or rebuilt from their
    leaf codes.  The builders share node objects, which the embedding memo
    keys on: a naive tree's siblings are one object, and a succinct tree's
    leaf parents differ in degree and recur under many parents.  The
    rebuilt copies have the same shapes with no node shared."""
    built = st.one_of(
        st.integers(1, 3).map(lambda n: make_naive_tree(n, h)),
        st.integers(1, 7).map(lambda n: make_succinct_tree(n, h)))
    return st.one_of(built, built.map(lambda t: tree_from_leaf_codes(list(leaf_codes(t)), h)))


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_embed_matches_table_dp(data):
    h = data.draw(st.integers(1, 4))
    small = data.draw(st.one_of(trees(h), built_trees(h)))
    big = data.draw(st.one_of(trees(h, max_degree=4), built_trees(h)))
    for t, host in ((small, big), (big, small), (small, small)):
        mapping = embed(t, host)
        assert mapping == reference_embed(t, host)
        if mapping is not None:
            assert_valid_embedding(mapping, t, host)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_is_universal_finds_the_first_witness(data):
    h = data.draw(st.integers(1, 3))
    t = data.draw(trees(h, max_degree=4))
    n = data.draw(st.integers(1, 4))
    witness = next(
        (shape for shape in enumerate_trees(n, h) if reference_embed(shape, t) is None), None)
    assert is_universal(t, n, h) == (witness is None, witness)


def nested(t):
    """t as nested lists of children; a leaf is []."""
    return [nested(child) for child in t.children]


def from_nested(node, h):
    return OrderedTree(h, tuple(from_nested(child, h - 1) for child in node)) if h else LEAF


@st.composite
def grown_trees(draw, h):
    """A naive or succinct tree of height h with up to four edits: a path
    to one new leaf inserted at a random depth and sibling position, or a
    leaf removed with every ancestor it leaves empty.  The
    edits make universal trees with uneven children and non-universal
    ones close to universal."""
    root = nested(draw(built_trees(h)))
    for _ in range(draw(st.integers(0, 4))):
        if not root or draw(st.booleans()):
            node = root
            depth = draw(st.integers(0, h - 1)) if root else 0
            for _ in range(depth):
                node = node[draw(st.integers(0, len(node) - 1))]
            branch = []
            for _ in range(h - depth - 1):
                branch = [branch]
            node.insert(draw(st.integers(0, len(node))), branch)
        else:
            path, node = [], root
            for _ in range(h):
                j = draw(st.integers(0, len(node) - 1))
                path.append((node, j))
                node = node[j]
            for parent, j in reversed(path):
                del parent[j]
                if parent:
                    break
    return from_nested(root, h)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_proved_trees_host_every_shape(data):
    h = data.draw(st.integers(1, 4))
    t = data.draw(grown_trees(h))
    n = data.draw(st.integers(1, 5))
    if t.proved_n >= n:
        for shape in enumerate_trees(n, h):
            assert reference_embed(shape, t) is not None, shape


@pytest.mark.parametrize("n, h", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_minimal_search_returns_the_first_universal_candidate(n, h):
    # every pair whose first candidate size has at most ~1,100 trees
    shapes = list(enumerate_trees(n, h))
    for size in itertools.count(g_recurrence(n, h)):
        first = next((candidate for candidate in enumerate_trees(size, h)
                      if all(reference_embed(shape, candidate) is not None
                             for shape in shapes)), None)
        if first is not None:
            break
    assert find_minimal_universal(n, h) == (size, first)


def scanned_proved_n(values):
    """The composition rule of universal_tree._proved_n as first written,
    for a node of height 2 or more whose children hold ``values``: from each
    j, every later child is scanned, and those hosting no new leaf count
    are skipped.  O(degree^2)."""
    proved = [0] * (len(values) + 1)
    for j in range(len(values) - 1, -1, -1):
        a, r = 1, len(values)
        for i in range(j, len(values)):
            if values[i] >= a:
                r = min(r, a + proved[i + 1])
                if r <= values[i]:
                    break
                a = values[i] + 1
        else:
            r = a - 1
        proved[j] = r
    return proved[0]


@hypothesis.settings(max_examples=1000, deadline=None, derandomize=True)
@hypothesis.given(st.lists(st.integers(0, 12), max_size=16),
                  st.sampled_from(("as drawn", "increasing", "strictly increasing")))
def test_host_walk_equals_the_scan(values, order):
    if order == "increasing":
        values = sorted(values)
    elif order == "strictly increasing":
        values = sorted(set(values))
    # a leaf parent's value is its degree, so these children hold ``values``
    kids = tuple(OrderedTree(1, (LEAF,) * v) for v in values)
    for j in range(len(kids) + 1):  # every suffix, so every proved[j]
        assert _proved_n(OrderedTree(2, kids[j:])) == scanned_proved_n(values[j:])
