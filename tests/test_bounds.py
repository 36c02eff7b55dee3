import pytest

from paritytree.bounds import (
    check_closed_forms,
    check_ratio,
    f_recurrence,
    f_upper_closed,
    g_lower_closed,
    g_recurrence,
)
from paritytree.cli import EXIT_OK, main


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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_recurrence(3, 0)
        with pytest.raises(ValueError):
            f_recurrence(-1, 2)
        with pytest.raises(ValueError):
            g_recurrence(0, 2)


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
