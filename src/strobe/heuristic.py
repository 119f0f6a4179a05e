"""Trivial detector for stripped-string obfuscation.

Some obfuscators remove encrypted strings from the string section entirely
(storing them as byte arrays in code), leaving few or zero non-identifier
strings. An app at or below the threshold is flagged SE; no learning needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apk import AppStrings
from .dataset import Label
from .errors import BadConfig


@dataclass(frozen=True)
class HeuristicConfig:
    max_strings: int = 0

    def __post_init__(self) -> None:
        if self.max_strings < 0:
            raise BadConfig("max_strings must be >= 0")


def detect_dexguard(app: AppStrings, cfg: HeuristicConfig = HeuristicConfig()) -> Label:
    """SE when the app retains at most cfg.max_strings non-identifier strings."""
    return Label.SE if len(app.non_identifier_strings) <= cfg.max_strings else Label.NOT_SE


def zero_string_fraction(apps: list[AppStrings], cfg: HeuristicConfig = HeuristicConfig()) -> float:
    """Of the apps flagged SE, the fraction with zero non-identifier strings.

    With the default threshold this is trivially 1.0; with a looser threshold
    it reports how many flagged apps were fully stripped rather than nearly so.
    """
    flagged = [a for a in apps if detect_dexguard(a, cfg) is Label.SE]
    if not flagged:
        return 0.0
    return sum(1 for a in flagged if not a.non_identifier_strings) / len(flagged)
