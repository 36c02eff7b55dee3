"""Property-based tests of the leaf-rank arithmetic and of tree embedding
on trees rebuilt from leaf codes, including non-universal ones with uneven
degrees: ranks follow the leaf order, the lift's block-based least leaf
>=_p equals the linear-scan oracle, value iteration on ranks reaches the fixed point of
the leaf-code lift, and the greedy embedding agrees with an exact table
dynamic program."""

import pytest

from paritytree.game_core import ADAM, EVE, ParityGame
from paritytree.progress_measure import value_iteration
from paritytree.universal_tree import (
    TOP,
    code_to_rank,
    embed,
    enumerate_trees,
    is_universal,
    leaf_codes,
    leaf_count,
    rank_to_code,
    tree_from_leaf_codes,
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


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_embed_matches_table_dp(data):
    h = data.draw(st.integers(1, 4))
    small = data.draw(trees(h))
    big = data.draw(trees(h, max_degree=4))
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
