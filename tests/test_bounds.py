import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from paritytree import bounds
from paritytree.bounds import (
    check_closed_forms,
    check_ratio,
    f_recurrence,
    f_upper_closed,
    g_lower_closed,
    g_recurrence,
    halving_chain,
)
from paritytree.cli import EXIT_INPUT, EXIT_OK, main
from paritytree.universal_tree import count_trees, leaf_count, make_succinct_tree


class TestRecurrences:
    def test_base_cases(self):
        for n in range(8):
            assert f_recurrence(n, 1) == n
        for n in range(1, 8):
            assert g_recurrence(n, 1) == n
        for h in range(1, 6):
            assert f_recurrence(1, h) == 1
            assert g_recurrence(1, h) == 1
            assert f_recurrence(0, h) == 0

    def test_known_values(self):
        assert f_recurrence(2, 2) == 3
        assert g_recurrence(2, 2) == 3
        assert f_recurrence(5, 2) == 11
        assert g_recurrence(5, 2) == 10
        assert f_recurrence(5, 2) == f_recurrence(5, 1) + 2 * f_recurrence(2, 2)

    def test_g_below_f(self):
        for n in range(1, 40):
            for h in range(1, 7):
                assert g_recurrence(n, h) <= f_recurrence(n, h)

    def test_monotone_in_each_argument(self):
        for n in range(1, 30):
            for h in range(1, 6):
                assert f_recurrence(n, h) <= f_recurrence(n + 1, h)
                assert f_recurrence(n, h) <= f_recurrence(n, h + 1)
                assert g_recurrence(n, h) <= g_recurrence(n + 1, h)
                assert g_recurrence(n, h) <= g_recurrence(n, h + 1)

    def test_f_at_any_height(self):
        # filled bottom-up over the halving chain, so h is not a call depth
        assert f_recurrence(2, 3000) == 3001
        assert f_recurrence(3, 3000) == 6001 == leaf_count(make_succinct_tree(3, 3000))

    def test_halving_chain(self):
        assert halving_chain(0) == [0]
        assert halving_chain(1) == [0, 1]
        assert halving_chain(5) == [0, 1, 2, 5]
        for n in range(200):
            chain = halving_chain(n)
            assert chain == sorted(set(chain)) and n in chain
            assert {half for m in chain if m for half in (m // 2, m - 1 - m // 2)} <= set(chain)
        assert len(halving_chain(10**4)) == 26

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_recurrence(3, 0)
        with pytest.raises(ValueError):
            f_recurrence(-1, 2)
        with pytest.raises(ValueError):
            g_recurrence(0, 2)


class TestRecurrenceCaches:
    def test_bounded_and_exact(self):
        memo = {}

        def f(n, h):  # the recurrence over a plain dict
            if (n, h) not in memo:
                memo[n, h] = (n if h == 1 or n <= 1
                              else f(n, h - 1) + f(n // 2, h) + f(n - 1 - n // 2, h))
            return memo[n, h]

        ns = range(2000, 20000, 7)
        values = [f_recurrence(n, 8) for n in ns]
        for cached in (f_recurrence, g_recurrence):
            info = cached.cache_info()
            assert info.maxsize == bounds.RECURRENCE_CACHE
            assert info.currsize <= info.maxsize
        assert values == [f(n, 8) for n in ns]
        assert [f_recurrence(n, 8) for n in ns[:20]] == values[:20]  # evicted, recomputed

    def test_grid_and_succinct_builds_keep_hitting(self):
        def grid():
            for n in range(1, 49):
                for h in range(1, 8):
                    f_recurrence(n, h)
                    g_recurrence(n, h)

        grid()
        make_succinct_tree(30, 5)
        misses = f_recurrence.cache_info().misses, g_recurrence.cache_info().misses
        grid()
        make_succinct_tree(30, 5)
        assert (f_recurrence.cache_info().misses, g_recurrence.cache_info().misses) == misses


class TestClosedForms:
    def test_sandwich(self):
        for n in range(1, 40):
            for h in range(1, 7):
                assert g_lower_closed(n, h) <= g_recurrence(n, h)
                assert f_recurrence(n, h) <= f_upper_closed(n, h)

    def test_exact_at_powers_of_two_height_one(self):
        assert f_upper_closed(8, 1) == 8
        assert g_lower_closed(8, 1) == 1

    def test_check_closed_forms_clean(self):
        assert check_closed_forms(5, 5) == []

    def test_check_ratio_clean(self):
        assert check_ratio(20, 5) == []


class TestBoundTable:
    """The (n, h) grid of exact f/g values that `bounds table` prints."""

    def test_rows(self, capsys):
        assert main(["bounds", "table", "--n-max", "3", "--h-max", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[1:]
        rows = [tuple(int(x) for x in line.split("\t")) for line in lines]
        assert (3, 2, f_recurrence(3, 2), g_recurrence(3, 2)) in rows
        assert len(rows) == 6
        assert [row[:2] for row in rows] == [(n, h) for n in (1, 2, 3) for h in (1, 2)]

    def test_entry(self):
        assert (f_recurrence(5, 2), g_recurrence(5, 2)) == (11, 10)


# References: the table-per-cell envelopes, the rational ratio check and
# the composition-walk tree count, as they were before the checks and the
# count became row-by-row integer recurrences.

def _reference_fbar(p, h):
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


def _reference_gbar(p, h):
    table = {}
    for pp in range(p + 1):
        for hh in range(1, h + 1):
            if pp == 0 or hh == 1:
                table[pp, hh] = 1
            else:
                table[pp, hh] = table[pp, hh - 1] + table[pp - 1, hh]
    return table[p, h]


def _reference_closed_forms(p_max, h_max):
    violations = []
    for p in range(p_max + 1):
        for h in range(1, h_max + 1):
            fbar = _reference_fbar(p, h)
            gbar = _reference_gbar(p, h)
            if fbar != 2**p * comb(p + h - 1, p):
                violations.append(f"Fbar({p},{h}) = {fbar} != 2^p*C(p+h-1,p)")
            if gbar != comb(p + h - 1, p):
                violations.append(f"Gbar({p},{h}) = {gbar} != C(p+h-1,p)")
            if bounds.f_recurrence(2**p, h) > fbar:
                violations.append(f"f(2^{p},{h}) exceeds Fbar({p},{h})")
            if bounds.g_recurrence(2**p, h) < gbar:
                violations.append(f"g(2^{p},{h}) below Gbar({p},{h})")
    return violations


def _reference_ratio(n_max, h_max):
    violations = []
    for n in range(2, n_max + 1):
        for h in range(1, h_max + 1):
            lo, up = n.bit_length() - 1, (n - 1).bit_length()
            factor = 2**up * Fraction(lo + h, lo)
            if bounds.f_recurrence(n, h) > bounds.g_recurrence(n, h) * factor:
                violations.append(f"ratio bound fails at ({n},{h})")
    return violations


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _reference_count(n, h):
    if h == 1:
        return 1
    total = 0
    for comp in _compositions(n):
        prod = 1
        for part in comp:
            prod *= _reference_count(part, h - 1)
        total += prod
    return total


class TestChecksAgainstReferences:
    def test_closed_forms_grid(self):
        for p_max in range(13):
            for h_max in range(11):
                assert check_closed_forms(p_max, h_max) == _reference_closed_forms(p_max, h_max)

    def test_ratio_grid(self):
        assert check_ratio(79, 9) == _reference_ratio(79, 9) == []
        for n_max in range(1, 25):
            for h_max in range(0, 6):
                assert check_ratio(n_max, h_max) == _reference_ratio(n_max, h_max)

    def test_same_violations_in_same_order(self, monkeypatch):
        # an inflated f breaks the upper bounds; both checks must report
        # the same cells, in the same order, as the references
        exact = {(n, h): f_recurrence(n, h)
                 for n in [2**p for p in range(13)] + list(range(80)) for h in range(1, 11)}
        monkeypatch.setattr(bounds, "f_recurrence", lambda n, h: 40 * exact[n, h])
        closed = check_closed_forms(12, 10)
        ratio = check_ratio(79, 9)
        assert closed == _reference_closed_forms(12, 10)
        assert ratio == _reference_ratio(79, 9)
        assert closed and ratio


class TestCountTrees:
    def test_equals_composition_walk(self):
        for n in range(1, 13):
            for h in range(1, 5):
                assert count_trees(n, h) == _reference_count(n, h)

    def test_height_two_is_compositions(self):
        for n in range(1, 201):
            assert count_trees(n, 2) == 2 ** (n - 1)

    def test_large_count_is_fast(self):
        started = time.perf_counter()
        assert count_trees(1200, 2) == 2**1199
        assert time.perf_counter() - started < 5

    def test_oversized_minimal_search_refused_at_once(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("PARITYTREE_ENUM_CAP", None)
        run = subprocess.run(
            [sys.executable, "-m", "paritytree.cli", "tree", "minimal", "--n", "12", "--h", "2"],
            capture_output=True, text=True, env=env, timeout=30)
        assert run.returncode == EXIT_INPUT == 1
        assert run.stdout == ""
        errors = run.stderr.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ") and "exceeds cap 5000000" in errors[0]
