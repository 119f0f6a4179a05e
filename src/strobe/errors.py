"""Exception hierarchy shared across the toolkit.

Every error the library raises deliberately derives from StrobeError so
callers (and the CLI) can distinguish "rejected input" from genuine bugs.
"""

import json
import sys
from numbers import Integral, Real


class StrobeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(StrobeError):
    """Base class for malformed DEX and APK input (CLI exit code 2)."""


# --- DEX parsing -----------------------------------------------------------

class BadMagic(ParseError):
    """First 8 bytes are not a dex magic."""


class Truncated(ParseError):
    """Declared file size exceeds (or disagrees with) the input buffer."""


class OffsetOutOfBounds(ParseError):
    """A table offset or cross-table index points outside the file."""


class DecodeError(ParseError):
    """Malformed MUTF-8 string data."""


# --- APK containers --------------------------------------------------------

class NotAZip(ParseError):
    """Missing end-of-central-directory record or unreadable central directory."""


class CorruptEntry(ParseError):
    """CRC mismatch, bad compressed stream, or an unreadable (unsupported or
    encrypted) archive entry."""


class NoDex(ParseError):
    """Archive contains no classes*.dex entry."""


# --- Datasets and splits ---------------------------------------------------

class BadHeader(StrobeError):
    """Manifest CSV header does not match a known layout."""


class DuplicateId(StrobeError):
    """Repeated sample_id in a manifest."""


class UnknownLabel(StrobeError):
    """A label is neither SE nor NOT_SE: a manifest's label column value, or a
    learner's label that is not +1 or -1."""


class UnknownId(StrobeError):
    """Split references a sample_id absent from the corpus."""


class TooSmall(StrobeError):
    """Not enough samples for the requested operation."""


class TooFewFamilies(StrobeError):
    """Operation requires at least two families."""


class Degenerate(StrobeError):
    """No valid family-disjoint split found within the retry budget."""


# --- Learners --------------------------------------------------------------

class SingleClass(StrobeError):
    """Training data contains only one class."""


class BadConfig(StrobeError):
    """Invalid learner or heuristic configuration."""


# --- Evaluation ------------------------------------------------------------

class EmptyTest(StrobeError):
    """Holdout evaluation needs a non-empty test set."""


class EmptyStream(StrobeError):
    """Prequential evaluation needs a non-empty stream."""


class Empty(StrobeError):
    """Statistic requested over an empty collection."""


class BadValue(StrobeError):
    """An input holds a non-numeric or non-finite value where a number is
    expected, a non-integer or out-of-range one where a count is expected, a row
    shorter than its header, or a sample without the features its use needs."""


# --- Synthetic corpus generation -------------------------------------------

class SpecTooLarge(StrobeError):
    """DexSpec exceeds the 16-bit table limits of the minimal writer."""


class EmptyIdentifiers(StrobeError):
    """A DexSpec names no type descriptor; a dex needs at least one."""


class InvalidConfig(StrobeError):
    """SynthConfig field or DexSpec blueprint out of range or malformed."""


def read_json(path, error: type[StrobeError]) -> dict:
    """The JSON object in the UTF-8 file at path; anything else raises error."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError included
            raise error(f"{path}: not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: not a JSON object")
    return obj


# The value rules of model, config and split files: float() and numpy would
# take a bool or a numeric string, and int64 truncates a float.
def is_json_number(value) -> bool:
    """A finite number, not a bool. abs(value) compares a JSON integer
    exactly, so one too large for a float fails, as NaN and the infinities do."""
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def is_json_int(value) -> bool:
    """An integer, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)
