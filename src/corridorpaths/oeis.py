"""OEIS b-file parsing and offset-tolerant sequence comparison.

A b-file is plain UTF-8 text with one ``<index> <value>`` pair per line;
``#`` comment lines and blank lines are skipped.  Indices must be strictly
increasing.  Values are exact integers of any size.

Because published sequences rarely agree with a generator about where "n = 0"
is, comparison slides the generated sequence across a small window of index
offsets and accepts if any offset matches over the whole overlap.
"""
from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "BFile",
    "SequenceMatch",
    "parse_bfile",
    "parse_bfile_text",
    "compare",
    "unlimited_int_digits",
]

DEFAULT_OFFSETS = range(-2, 3)


class BFile(NamedTuple):
    """Parsed b-file: ordered (index, value) pairs."""

    entries: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


class SequenceMatch(NamedTuple):
    """A successful alignment: generated[n] == bfile[n + offset] for all
    ``overlap`` positions n where both sides are defined."""

    offset: int
    overlap: int


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift the interpreter's int/str conversion limit (4300 decimal digits by
    default) inside the block, and restore the previous limit after it.

    The limit is process-wide, so other threads see it lifted meanwhile.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def parse_bfile_text(text: str) -> BFile:
    """Parse b-file text; values of any number of digits are accepted."""
    with unlimited_int_digits():
        entries: list[tuple[int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"b-file line {lineno}: expected 'index value', got {raw!r}")
            try:
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"b-file line {lineno}: non-integer field in {raw!r}") from None
            if entries and index <= entries[-1][0]:
                raise ValueError(
                    f"b-file line {lineno}: index {index} not strictly increasing"
                )
            entries.append((index, value))
        return BFile(tuple(entries))


def parse_bfile(path: str | os.PathLike[str]) -> BFile:
    """Read and parse the b-file at ``path``, a ``str`` or a path object.

    A file that cannot be read raises ``OSError``, whose message names
    ``path`` as given.  ``open`` reads the file, so no CLI process imports
    ``pathlib``.
    """
    with open(path, encoding="utf-8") as f:
        return parse_bfile_text(f.read())


def compare(generated: Sequence[int], bfile: BFile) -> SequenceMatch | None:
    """Find the first offset in :data:`DEFAULT_OFFSETS` at which the generated
    terms agree with the b-file over the entire overlap.

    ``generated[n]`` is the term for n = 0, 1, 2, ...; offset ``o`` aligns it
    with b-file index ``n + o``.  Returns None when no offset matches (or an
    offset's overlap is empty).
    """
    table = bfile.as_dict()
    for offset in DEFAULT_OFFSETS:
        pairs = [(v, table[n + offset]) for n, v in enumerate(generated) if n + offset in table]
        if pairs and all(value == expected for value, expected in pairs):
            return SequenceMatch(offset=offset, overlap=len(pairs))
    return None
