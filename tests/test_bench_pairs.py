"""The verdict ``tools/bench_pairs.py`` gives paired benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

BASE = [100.0, 104.0, 98.0, 110.0, 101.0, 99.0, 103.0, 97.0, 105.0, 102.0]


def test_a_clear_gain_on_every_pair():
    change = [b - 15.0 for b in BASE]
    assert verdict(BASE, change, "lower", 0.25) == ("gain", 10)


def test_nine_of_ten_is_enough_eight_is_not():
    change = [b - 15.0 for b in BASE]
    change[0] = BASE[0] + 1.0
    assert verdict(BASE, change, "lower", 0.25) == ("gain", 9)
    change[1] = BASE[1]  # a tie counts for neither side
    assert verdict(BASE, change, "lower", 0.25) == ("within bound", 8)


def test_every_pair_won_by_less_than_the_base_spread_is_no_gain():
    change = [b - 1.0 for b in BASE]
    assert verdict(BASE, change, "lower", 0.25) == ("within bound", 10)


def test_higher_is_better():
    change = [b + 15.0 for b in BASE]
    assert verdict(BASE, change, "higher", 0.25) == ("gain", 10)
    assert verdict(BASE, change, "lower", 0.1) == ("worse", 0)


def test_worse_beyond_the_bound():
    change = [b * 1.3 for b in BASE]
    assert verdict(BASE, change, "lower", 0.25) == ("worse", 0)
    assert verdict(BASE, change, "lower", 0.35)[0] == "within bound"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    change = [3.0, 1.0, 3.0, 1.0, 3.1, 1.0]
    assert verdict(base, change, "lower", 0.1) == ("unresolved", 3)


def test_wide_spread_but_every_change_run_better_is_resolved():
    base = [10.0, 30.0, 10.0, 30.0]
    change = [9.0, 5.0, 9.5, 5.0]
    assert verdict(base, change, "lower", 0.1) == ("within bound", 4)


def test_one_pair_and_bad_input():
    assert verdict([2.0], [1.0], "lower", 0.25) == ("gain", 1)
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.25)
