"""b-file parsing and offset-tolerant sequence comparison."""
import sys
from pathlib import Path

import pytest

from corridorpaths.oeis import (
    BFile,
    compare,
    parse_bfile,
    parse_bfile_text,
    unlimited_int_digits,
)

DATA = Path(__file__).parent / "data"


class TestParsing:
    def test_basic(self):
        bf = parse_bfile_text("0 1\n1 1\n2 2\n")
        assert bf.entries == ((0, 1), (1, 1), (2, 2))

    def test_comments_and_blanks_skipped(self):
        bf = parse_bfile_text("# header\n\n0 5\n\n# mid\n1 6\n")
        assert bf.entries == ((0, 5), (1, 6))

    def test_negative_values_and_offset_start(self):
        bf = parse_bfile_text("3 -10\n4 1000000000000000000000000\n")
        assert bf.as_dict()[4] == 10**24

    def test_values_past_the_int_str_digit_limit(self):
        big = 7**5916  # 5000 decimal digits
        with unlimited_int_digits():
            text = f"0 1\n1 -{big}\n"
        limit = sys.get_int_max_str_digits()
        assert parse_bfile_text(text).entries == ((0, 1), (1, -big))
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError):
            int(text.split()[-1])

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_bfile_text("0 1 2\n")
        with pytest.raises(ValueError):
            parse_bfile_text("zero one\n")

    def test_non_increasing_indices(self):
        with pytest.raises(ValueError):
            parse_bfile_text("0 1\n0 2\n")
        with pytest.raises(ValueError):
            parse_bfile_text("5 1\n3 2\n")

    def test_parse_vendored_files(self):
        for name in ("b000045.txt", "b001405.txt", "b061551.txt"):
            bf = parse_bfile(DATA / name)
            assert len(bf.entries) >= 50

    def test_missing_file(self):
        with pytest.raises(OSError):
            parse_bfile(DATA / "nonexistent.txt")


class TestCompare:
    def test_exact_alignment(self):
        bf = BFile(((0, 1), (1, 2), (2, 4), (3, 8)))
        match = compare([1, 2, 4, 8], bf)
        assert match is not None
        assert match.offset == 0
        assert match.overlap == 4

    def test_positive_offset(self):
        # generated[n] == bfile[n + 1]
        bf = BFile(((0, 99), (1, 1), (2, 2), (3, 4)))
        match = compare([1, 2, 4], bf)
        assert match.offset == 1
        assert match.overlap == 3

    def test_negative_offset(self):
        bf = BFile(((0, 4), (1, 8)))
        match = compare([1, 2, 4, 8], bf)
        assert match.offset == -2
        assert match.overlap == 2

    def test_mismatch(self):
        bf = BFile(((0, 1), (1, 2), (2, 5)))
        assert compare([1, 2, 4], bf) is None

    def test_empty_overlap_is_no_match(self):
        bf = BFile(((100, 1),))
        assert compare([1, 2, 3], bf) is None

    def test_partial_overlap_counts(self):
        bf = BFile(((0, 1), (1, 1)))
        match = compare([1, 1, 2, 3, 5], bf)
        assert match.offset == 0
        assert match.overlap == 2

    def test_big_integers(self):
        big = 3**400
        bf = BFile(((0, big), (1, big + 1)))
        assert compare([big, big + 1], bf).overlap == 2
