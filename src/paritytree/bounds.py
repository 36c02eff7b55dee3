"""Size recurrences for universal trees: the upper-bound recurrence f
(realized by the succinct construction), the lower-bound recurrence g,
their closed-form binomial bounds, and the ratio check relating them.

Everything here is exact arbitrary-precision integer arithmetic, the
ratio check included.  No floating point.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import comb


# Entries each recurrence's cache keeps, the least recently used dropped
# first: ample for every (n, h) with n <= 48 and h <= 7 at once.  The tree
# builders do not fill it.  Full of f values at n ~ 20,000 and h = 8, ~0.9 MB.
RECURRENCE_CACHE = 1 << 12


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1


def halving_chain(n: int) -> list[int]:
    """n and every size m -> floor(m/2), m-1-floor(m/2) reaches from it, in
    increasing order, so 0 first: O(log n) sizes, as each halving reaches
    at most two adjacent ones.  succinct_fill walks it."""
    sizes, todo = set(), [n]
    while todo:
        m = todo.pop()
        if m > 0 and m not in sizes:
            todo += (m // 2, m - 1 - m // 2)
        sizes.add(m)
    return sorted(sizes)


def succinct_fill(n: int, h: int, base: Callable[[int], object],
                  join: Callable[[object, object, object, int], object]) -> object:
    """The succinct split's value at (n, h), filled over halving_chain(n)
    one height at a time, smaller sizes first, so no call recurses: size m
    holds base(m) at height 1, and at height k each m > 0 becomes
    join(value(m // 2), value(m, k-1), value(m-1 - m // 2), k).  Size 0
    holds base(0) at every height, so n = 0 makes no pass."""
    chain = halving_chain(n)
    value = {m: base(m) for m in chain}
    if not n:
        return value[0]
    for k in range(2, h + 1):
        for m in chain[1:]:
            value[m] = join(value[m // 2], value[m], value[m - 1 - m // 2], k)
    return value[n]


@lru_cache(maxsize=RECURRENCE_CACHE)
def f_recurrence(n: int, h: int) -> int:
    """Leaf count of the succinct (n, h)-universal tree:
    f(n, h) = f(n, h-1) + f(floor(n/2), h) + f(n-1-floor(n/2), h),
    with f(n, 1) = n and f(0, h) = 0, by succinct_fill."""
    if n < 0 or h < 1:
        raise ValueError(f"need n >= 0 and h >= 1, got ({n}, {h})")
    return succinct_fill(n, h, int, lambda left, mid, right, _: left + mid + right)


def f_upper_closed(n: int, h: int) -> int:
    """Closed-form upper bound 2^ceil(log n) * C(ceil(log n) + h - 1, ceil(log n))."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    p = _ceil_log2(n)
    return 2**p * comb(p + h - 1, p)


@lru_cache(maxsize=RECURRENCE_CACHE)
def g_recurrence(n: int, h: int) -> int:
    """Minimum leaf count forced on any (n, h)-universal tree:
    g(n, h) = sum over delta in [1, n] of g(floor(n/delta), h-1),
    with g(n, 1) = n and g(1, h) = 1."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    if h == 1:
        return n
    if n == 1:
        return 1
    return sum(g_recurrence(n // delta, h - 1) for delta in range(1, n + 1))


def g_lower_closed(n: int, h: int) -> int:
    """Closed-form lower bound C(floor(log n) + h - 1, floor(log n))."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    p = _floor_log2(n)
    return comb(p + h - 1, p)


def check_closed_forms(p_max: int, h_max: int) -> list[str]:
    """Verify, by direct recurrence iteration, that the upper envelope
    Fbar(p, h) = Fbar(p, h-1) + 2 Fbar(p-1, h) equals 2^p * C(p+h-1, p),
    that the lower envelope Gbar(p, h) = Gbar(p, h-1) + Gbar(p-1, h)
    equals C(p+h-1, p), and that f(2^p, h) / g(2^p, h) sit on the right
    sides of them.  Both envelopes are filled once, row by row, from a
    zero row p = -1 and a column h = 0 that is 1 at p = 0 and 0 below it.
    Returns the list of violations (expected empty)."""
    violations = []
    fprev = gprev = [0] * (h_max + 1)
    for p in range(p_max + 1):
        frow, grow = [int(p == 0)], [int(p == 0)]
        for h in range(1, h_max + 1):
            fbar = frow[h - 1] + 2 * fprev[h]
            gbar = grow[h - 1] + gprev[h]
            frow.append(fbar)
            grow.append(gbar)
            if fbar != 2**p * comb(p + h - 1, p):
                violations.append(f"Fbar({p},{h}) = {fbar} != 2^p*C(p+h-1,p)")
            if gbar != comb(p + h - 1, p):
                violations.append(f"Gbar({p},{h}) = {gbar} != C(p+h-1,p)")
            if f_recurrence(2**p, h) > fbar:
                violations.append(f"f(2^{p},{h}) exceeds Fbar({p},{h})")
            if g_recurrence(2**p, h) < gbar:
                violations.append(f"g(2^{p},{h}) below Gbar({p},{h})")
        fprev, gprev = frow, grow
    return violations


def check_ratio(n_max: int, h_max: int) -> list[str]:
    """Check f(n,h) <= g(n,h) * 2^ceil(log n) * (floor(log n) + h) / floor(log n)
    on the grid, multiplied through by floor(log n) so it is an integer
    comparison.  n starts at 2 (floor(log n) is zero at n = 1)."""
    violations = []
    for n in range(2, n_max + 1):
        lo = _floor_log2(n)
        for h in range(1, h_max + 1):
            if f_recurrence(n, h) * lo > g_recurrence(n, h) * 2 ** _ceil_log2(n) * (lo + h):
                violations.append(f"ratio bound fails at ({n},{h})")
    return violations
