import pytest

from strobe.dataset import Label
from strobe.errors import BadConfig
from strobe.heuristic import detect_dexguard, zero_string_fraction


def test_zero_strings_flagged_se():
    assert detect_dexguard(0) is Label.SE


def test_many_strings_not_se():
    assert detect_dexguard(500) is Label.NOT_SE


def test_threshold_boundary():
    assert detect_dexguard(2, max_strings=2) is Label.SE
    assert detect_dexguard(2, max_strings=1) is Label.NOT_SE


def test_monotone_in_threshold():
    for n in range(0, 12):
        previous = None
        for t in range(0, 12):
            verdict = detect_dexguard(n, max_strings=t)
            if previous is Label.SE:
                assert verdict is Label.SE  # raising the threshold never un-flags
            previous = verdict


def test_negative_threshold_rejected():
    with pytest.raises(BadConfig):
        detect_dexguard(0, max_strings=-1)
    # Even with no app to judge.
    with pytest.raises(BadConfig):
        zero_string_fraction([], max_strings=-1)


def test_zero_string_fraction_default_config():
    counts = [0, 0, 3]
    assert zero_string_fraction(counts) == 1.0


def test_zero_string_fraction_loose_threshold():
    counts = [0, 2, 9]
    assert zero_string_fraction(counts, max_strings=2) == 0.5


def test_zero_string_fraction_nothing_flagged():
    assert zero_string_fraction([5, 8]) == 0.0
