"""Trivial detector for stripped-string obfuscation.

Some obfuscators remove encrypted strings from the string section entirely
(storing them as byte arrays in code), leaving few or zero non-identifier
strings. An app with at most max_strings of them (0 by default) is flagged
SE; no learning needed. A negative max_strings raises BadConfig.
"""

from __future__ import annotations

from .apk import AppStrings
from .dataset import Label
from .errors import BadConfig


def detect_dexguard(app: AppStrings, max_strings: int = 0) -> Label:
    """SE when the app retains at most max_strings non-identifier strings."""
    _check_threshold(max_strings)
    return Label.SE if len(app.non_identifier_strings) <= max_strings else Label.NOT_SE


def zero_string_fraction(apps: list[AppStrings], max_strings: int = 0) -> float:
    """Of the apps flagged SE, the fraction with zero non-identifier strings.

    With the default threshold this is trivially 1.0; with a looser threshold
    it reports how many flagged apps were fully stripped rather than nearly so.
    """
    _check_threshold(max_strings)
    flagged = [a for a in apps if detect_dexguard(a, max_strings) is Label.SE]
    if not flagged:
        return 0.0
    return sum(1 for a in flagged if not a.non_identifier_strings) / len(flagged)


def _check_threshold(max_strings: int) -> None:
    if max_strings < 0:
        raise BadConfig("max_strings must be >= 0")
