"""APK (ZIP) container handling and per-app string aggregation.

Reads only entries listed in the central directory, pulls out every
classes*.dex payload in numeric order, and concatenates their non-identifier
strings without cross-dex deduplication.
"""

from __future__ import annotations

import io
import lzma
import re
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

from .dex import classify_strings, parse_dex
from .errors import CorruptEntry, NoDex, NotAZip

_DEX_NAME = re.compile(r"^classes([0-9]+)?\.dex$")

# What zipfile raises on a damaged archive besides BadZipFile: an unsupported
# feature (NotImplementedError, or RuntimeError for an encrypted entry), a
# bad offset or name (ValueError), and each decompressor's own error.
_OPEN_ERRORS = (zipfile.BadZipFile, RuntimeError, ValueError)
_READ_ERRORS = (zipfile.BadZipFile, RuntimeError, ValueError, EOFError, OSError,
                zlib.error, lzma.LZMAError)


@dataclass(frozen=True)
class AppStrings:
    """Everything the feature extractor needs to know about one app."""

    app_id: str
    non_identifier_strings: tuple[str, ...]
    dex_count: int
    decode_failures: int


def list_dex_entries(archive: bytes) -> list[tuple[str, bytes]]:
    """Return (name, payload) for every classes*.dex entry, numerically ordered."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(archive))
    except _OPEN_ERRORS as exc:
        raise NotAZip(str(exc)) from exc

    with zf:
        matched: list[tuple[int, str]] = []
        for name in zf.namelist():
            m = _DEX_NAME.match(name)
            if m:
                matched.append((int(m.group(1)) if m.group(1) else 1, name))
        if not matched:
            raise NoDex("archive contains no classes*.dex entry")
        matched.sort()
        out = []
        for _, name in matched:
            try:
                out.append((name, zf.read(name)))
            except _READ_ERRORS as exc:
                raise CorruptEntry(f"{name}: {exc}") from exc
        return out


def extract_app_strings(path: str | Path) -> AppStrings:
    """Parse every dex in the APK and aggregate its non-identifier strings.

    Strings are concatenated across dex files in numeric dex order with no
    cross-file deduplication. decode_failures counts string entries (of any
    kind) that failed MUTF-8 decoding.
    """
    path = Path(path)
    archive = path.read_bytes()
    entries = list_dex_entries(archive)

    strings: list[str] = []
    failures = 0
    for _, payload in entries:
        dex = parse_dex(payload)
        pool = classify_strings(dex)
        strings.extend(pool.non_identifier_strings())
        failures += dex.decode_failures

    return AppStrings(
        app_id=path.stem,
        non_identifier_strings=tuple(strings),
        dex_count=len(entries),
        decode_failures=failures,
    )
