"""Size recurrences for universal trees: the upper-bound recurrence f
(realized by the succinct construction), the lower-bound recurrence g,
their closed-form binomial bounds, and the ratio check relating them.

Everything here is exact arbitrary-precision integer arithmetic; the
ratio check uses exact rationals.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1


@lru_cache(maxsize=None)
def f_recurrence(n: int, h: int) -> int:
    """Leaf count of the succinct (n, h)-universal tree:
    f(n, h) = f(n, h-1) + f(floor(n/2), h) + f(n-1-floor(n/2), h),
    with f(n, 1) = n, f(1, h) = 1, and f(0, h) = 0."""
    if n < 0 or h < 1:
        raise ValueError(f"need n >= 0 and h >= 1, got ({n}, {h})")
    if n == 0:
        return 0
    if h == 1:
        return n
    if n == 1:
        return 1
    return f_recurrence(n, h - 1) + f_recurrence(n // 2, h) + f_recurrence(n - 1 - n // 2, h)


def f_upper_closed(n: int, h: int) -> int:
    """Closed-form upper bound 2^ceil(log n) * C(ceil(log n) + h - 1, ceil(log n))."""
    if n < 1 or h < 1:
        raise ValueError(f"need n >= 1 and h >= 1, got ({n}, {h})")
    p = _ceil_log2(n)
    return 2**p * comb(p + h - 1, p)


@lru_cache(maxsize=None)
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


def _fbar(p: int, h: int) -> int:
    # recurrence form of the power-of-two upper envelope
    table = {}
    for pp in range(p + 1):
        for hh in range(1, h + 1):
            if pp == 0:
                table[pp, hh] = 1
            elif hh == 1:
                table[pp, hh] = 2**pp
            else:
                table[pp, hh] = table[pp, hh - 1] + 2 * table[pp - 1, hh]
    return table[p, h]


def _gbar(p: int, h: int) -> int:
    table = {}
    for pp in range(p + 1):
        for hh in range(1, h + 1):
            if pp == 0 or hh == 1:
                table[pp, hh] = 1
            else:
                table[pp, hh] = table[pp, hh - 1] + table[pp - 1, hh]
    return table[p, h]


def check_closed_forms(p_max: int, h_max: int) -> list[str]:
    """Verify, by direct recurrence iteration, that the upper envelope
    equals 2^p * C(p+h-1, p) and the lower envelope equals C(p+h-1, p),
    and that f(2^p, h) / g(2^p, h) sit on the right sides of them.
    Returns the list of violations (expected empty)."""
    violations = []
    for p in range(p_max + 1):
        for h in range(1, h_max + 1):
            fbar = _fbar(p, h)
            gbar = _gbar(p, h)
            if fbar != 2**p * comb(p + h - 1, p):
                violations.append(f"Fbar({p},{h}) = {fbar} != 2^p*C(p+h-1,p)")
            if gbar != comb(p + h - 1, p):
                violations.append(f"Gbar({p},{h}) = {gbar} != C(p+h-1,p)")
            if f_recurrence(2**p, h) > fbar:
                violations.append(f"f(2^{p},{h}) exceeds Fbar({p},{h})")
            if g_recurrence(2**p, h) < gbar:
                violations.append(f"g(2^{p},{h}) below Gbar({p},{h})")
    return violations


def check_ratio(n_max: int, h_max: int) -> list[str]:
    """Check f(n,h) <= g(n,h) * 2^ceil(log n) * (floor(log n) + h) / floor(log n)
    on the grid, in exact rational arithmetic.  n starts at 2 (the factor
    divides by floor(log n), which is zero at n = 1)."""
    violations = []
    for n in range(2, n_max + 1):
        for h in range(1, h_max + 1):
            factor = 2 ** _ceil_log2(n) * Fraction(_floor_log2(n) + h, _floor_log2(n))
            if f_recurrence(n, h) > g_recurrence(n, h) * factor:
                violations.append(f"ratio bound fails at ({n},{h})")
    return violations
