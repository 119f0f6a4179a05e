import pytest

from strobe.apk import AppStrings
from strobe.dataset import Label
from strobe.errors import BadConfig
from strobe.heuristic import HeuristicConfig, detect_dexguard, zero_string_fraction


def app(n_strings):
    return AppStrings(app_id="a", non_identifier_strings=tuple(f"s{i}" for i in range(n_strings)),
                      dex_count=1, decode_failures=0)


def test_zero_strings_flagged_se():
    assert detect_dexguard(app(0)) is Label.SE


def test_many_strings_not_se():
    assert detect_dexguard(app(500)) is Label.NOT_SE


def test_threshold_boundary():
    cfg2 = HeuristicConfig(max_strings=2)
    cfg1 = HeuristicConfig(max_strings=1)
    assert detect_dexguard(app(2), cfg2) is Label.SE
    assert detect_dexguard(app(2), cfg1) is Label.NOT_SE


def test_monotone_in_threshold():
    for n in range(0, 12):
        previous = None
        for t in range(0, 12):
            verdict = detect_dexguard(app(n), HeuristicConfig(max_strings=t))
            if previous is Label.SE:
                assert verdict is Label.SE  # raising the threshold never un-flags
            previous = verdict


def test_negative_threshold_rejected():
    with pytest.raises(BadConfig):
        HeuristicConfig(max_strings=-1)


def test_zero_string_fraction_default_config():
    apps = [app(0), app(0), app(3)]
    assert zero_string_fraction(apps) == 1.0


def test_zero_string_fraction_loose_threshold():
    apps = [app(0), app(2), app(9)]
    assert zero_string_fraction(apps, HeuristicConfig(max_strings=2)) == 0.5


def test_zero_string_fraction_nothing_flagged():
    assert zero_string_fraction([app(5), app(8)]) == 0.0
