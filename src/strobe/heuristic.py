"""Trivial detector for stripped-string obfuscation.

Some obfuscators remove encrypted strings from the string section entirely
(storing them as byte arrays in code), leaving few or zero non-identifier
strings. An app with at most max_strings of them (0 by default) is flagged
SE; no learning needed. Both functions take the count of an app's
non-identifier strings, not the app. A negative max_strings raises BadConfig.
"""

from __future__ import annotations

from .dataset import Label
from .errors import BadConfig


def detect_dexguard(n_strings: int, max_strings: int = 0) -> Label:
    """SE when an app's n_strings non-identifier strings are at most max_strings."""
    _check_threshold(max_strings)
    return Label.SE if n_strings <= max_strings else Label.NOT_SE


def zero_string_fraction(counts: list[int], max_strings: int = 0) -> float:
    """Of the string counts flagged SE, the fraction that are zero.

    With the default threshold this is trivially 1.0; with a looser threshold
    it reports how many flagged apps were fully stripped rather than nearly so.
    """
    _check_threshold(max_strings)
    flagged = [n for n in counts if n <= max_strings]
    return flagged.count(0) / len(flagged) if flagged else 0.0


def _check_threshold(max_strings: int) -> None:
    if max_strings < 0:
        raise BadConfig("max_strings must be >= 0")
