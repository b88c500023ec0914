"""CLI subcommands, output formats, and exit codes."""
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import corridorpaths.cli as cli
from corridorpaths.cli import _emit, run
from corridorpaths.oeis import unlimited_int_digits
from corridorpaths.pascal import sigma_row

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounts:
    def test_row(self, capsys):
        code, out, _ = invoke(capsys, "row", "--d", "5", "--n", "9")
        assert code == 0
        assert out.strip() == "127 93 72 93 127"

    def test_row_q_layer(self, capsys):
        code, out, _ = invoke(capsys, "row", "--d", "5", "--n", "0", "--layer", "q")
        assert code == 0
        assert out.strip() == "0 1 0 0 0 0 0 0 0 -1"

    def test_corridor(self, capsys):
        code, out, _ = invoke(capsys, "corridor", "--m", "3", "--n-max", "9")
        assert code == 0
        assert out.strip() == "1 1 2 3 5 8 13 21 34 55"

    def test_range_seq_matches_corridor(self, capsys):
        _, ranges, _ = invoke(capsys, "range-seq", "--d", "5", "--n-max", "9")
        _, counts, _ = invoke(capsys, "corridor", "--m", "3", "--n-max", "9")
        assert ranges == counts

    def test_km(self, capsys):
        code, out, _ = invoke(capsys, "km", "--a", "3", "--b", "5", "--s", "0", "--t", "2")
        assert code == 0
        assert out.strip() == "8"

    def test_km_diag(self, capsys):
        code, out, _ = invoke(capsys, "km-diag", "--m", "2", "--n-max", "8")
        assert code == 0
        assert out.strip().endswith(" 16")

    def test_infinite(self, capsys):
        code, out, _ = invoke(capsys, "infinite", "--n-max", "6")
        assert code == 0
        assert out.strip() == "1 1 2 3 6 10 20"

    def test_motzkin(self, capsys):
        code, out, _ = invoke(capsys, "motzkin", "--d", "4", "--n-max", "4")
        assert code == 0
        assert out.strip() == "1 2 5 12 29"

    def test_state(self, capsys):
        code, out, _ = invoke(capsys, "state", "--d", "5", "--n", "5")
        assert code == 0
        assert out.strip() == "0 0 5 0 3 0 -3 0 -5 0"

    def test_y0_flag(self, capsys):
        code, out, _ = invoke(capsys, "corridor", "--m", "6", "--n-max", "9", "--y0", "2")
        assert code == 0
        assert out.split()[-1] == "280"


class TestFormats:
    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "corridor", "--m", "3", "--n-max", "3", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "n", "y0", "value"]
        assert rows[1:] == [
            ["3", "0", "0", "1"],
            ["3", "1", "0", "1"],
            ["3", "2", "0", "2"],
            ["3", "3", "0", "3"],
        ]

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "km", "--a", "3", "--b", "5", "--s", "0", "--t", "2",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert records == [
            {"a": 3, "b": 5, "s": 0, "t": 2, "value": "8", "route": "closed-form"}
        ]

    def test_json_values_are_decimal_strings(self, capsys):
        code, out, _ = invoke(
            capsys, "infinite", "--n-max", "80", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert all(isinstance(r["value"], str) for r in records)
        # big enough to be mangled were it ever a float
        assert int(records[-1]["value"]) > 10**22

    def test_formats_encode_identical_values(self, capsys):
        _, plain, _ = invoke(capsys, "row", "--d", "8", "--n", "9", "--y0", "2")
        _, as_csv, _ = invoke(
            capsys, "row", "--d", "8", "--n", "9", "--y0", "2", "--format", "csv"
        )
        _, as_json, _ = invoke(
            capsys, "row", "--d", "8", "--n", "9", "--y0", "2", "--format", "json"
        )
        plain_values = plain.split()
        csv_values = [row[-1] for row in list(csv.reader(io.StringIO(as_csv)))[1:]]
        json_values = [r["value"] for r in json.loads(as_json)]
        assert plain_values == csv_values == json_values

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_values_past_the_int_str_digit_limit(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "row", "--d", "3", "--n", "15000", "--format", fmt)
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        if fmt == "plain":
            texts = out.split()
        elif fmt == "csv":
            texts = [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]]
        else:
            texts = [r["value"] for r in json.loads(out)]
        assert min(map(len, texts)) > 4300
        with unlimited_int_digits():
            assert [int(t) for t in texts] == list(sigma_row(3, 15000).seq.window)

    @pytest.mark.parametrize(
        "argv,header,route",
        [
            (("row", "--d", "5", "--n", "3"), "d,n,y0,layer,k,value", "operator"),
            (("state", "--d", "5", "--n", "3"), "d,n,y0,k,value", "operator"),
            (("range-seq", "--d", "5", "--n-max", "3"), "d,n,y0,value", "operator"),
            (("corridor", "--m", "3", "--n-max", "3"), "m,n,y0,value", "operator"),
            (("motzkin", "--d", "4", "--n-max", "3"), "d,n,y0,value", "operator"),
            (("infinite", "--n-max", "3"), "n,y0,value", "closed-form"),
            (("km-diag", "--m", "3", "--n-max", "3"), "m,n,value", "closed-form"),
            (("km", "--a", "3", "--b", "5", "--s", "0", "--t", "2"), "a,b,s,t,value",
             "closed-form"),
        ],
    )
    def test_csv_header_and_json_route(self, capsys, argv, header, route):
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == header
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records and {r["route"] for r in records} == {route}
        assert [*records[0]] == [*header.split(","), "route"]

    def test_csv_of_no_records_is_a_header(self, capsys):
        _emit([], "csv")
        assert capsys.readouterr().out.splitlines() == ["value"]


class TestVerify:
    def test_all_scopes_pass(self, capsys):
        code, out, _ = invoke(
            capsys, "verify",
            "--two-choice", "--m-max", "3", "--n-max", "8",
        )
        assert code == 0
        assert "OK" in out and "cases agree" in out

    def test_km_scope(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--km", "--s-min", "-1", "--t-max", "1", "--ab-max", "4"
        )
        assert code == 0

    def test_motzkin_scope(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--motzkin", "--d-max", "4", "--n-max", "6"
        )
        assert code == 0

    def test_cap_violation_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "--two-choice", "--m-max", "2", "--n-max", "30"
        )
        assert code == 2
        assert "cap" in err

    def test_paths_deeper_than_the_recursion_limit(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--two-choice", "--m-max", "1", "--n-max", "1500",
            "--cap", "1500",
        )
        assert code == 0, err
        assert out.strip() == "OK two-choice m<=1 n<=1500: 4503 cases agree"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--two-choice", "--m-max", "-1"),
            ("--km", "--ab-max", "-1"),
            ("--km", "--s-min", "2"),
            ("--km", "--t-max", "-1"),
            ("--motzkin", "--d-max", "1"),
        ],
    )
    def test_empty_grid_is_a_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "empty grid" in err

    def test_mismatch_names_the_point_and_every_route(self, capsys, monkeypatch):
        real = cli.corridor_count
        monkeypatch.setattr(cli, "corridor_count", lambda m, n, y0=0: real(m, n, y0) + 1)
        code, out, err = invoke(capsys, "verify", "--two-choice")
        assert code == 1
        assert out.splitlines() == [
            "FAIL after 0 cases: two-choice mismatch at m=0 n=0 y0=0: "
            "operator=2 brute-force=1"
        ]
        assert err == ""

    def test_cap_override(self, capsys):
        code, _, _ = invoke(
            capsys, "verify", "--motzkin", "--d-max", "3", "--n-max", "16",
            "--cap", "16",
        )
        assert code == 0


class TestOeisCompare:
    def test_fibonacci_match(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b000045.txt"),
            "--seq", "corridor", "--m", "3", "--n-max", "40",
        )
        assert code == 0
        assert out.startswith("match: offset 1")

    def test_central_binomial_match(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b001405.txt"),
            "--seq", "infinite", "--n-max", "40",
        )
        assert code == 0
        assert out.startswith("match: offset 0")

    def test_wide_corridor_match(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b061551.txt"),
            "--seq", "corridor", "--m", "8", "--n-max", "40",
        )
        assert code == 0
        assert out.startswith("match: offset 0")

    def test_mismatch_exit_code(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b000045.txt"),
            "--seq", "corridor", "--m", "4", "--n-max", "30",
        )
        assert code == 1
        assert out.startswith("no match")

    def test_missing_generator_flag(self, capsys):
        code, _, err = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b000045.txt"),
            "--seq", "corridor", "--n-max", "30",
        )
        assert code == 2
        assert "--m" in err

    @pytest.mark.parametrize(
        "seq,flag",
        [
            (("--seq", "km-diag"), "--m"),
            (("--seq", "motzkin"), "--d"),
            (("--seq", "range-seq"), "--d"),
        ],
    )
    def test_each_required_flag(self, capsys, seq, flag):
        code, out, err = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b000045.txt"), *seq
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --seq {seq[1]} requires {flag}\n"

    @pytest.mark.parametrize(
        "bfile,seq,flag",
        [
            ("b000045.txt", ("--seq", "km-diag", "--m", "3", "--y0", "2"), "--y0"),
            ("b000045.txt", ("--seq", "km-diag", "--m", "3", "--y0", "0"), "--y0"),
            ("b001405.txt", ("--seq", "infinite", "--m", "7"), "--m"),
            ("b000045.txt", ("--seq", "corridor", "--m", "3", "--d", "9"), "--d"),
            ("b000045.txt", ("--seq", "range-seq", "--d", "5", "--m", "3"), "--m"),
        ],
    )
    def test_flag_the_sequence_does_not_take(self, capsys, bfile, seq, flag):
        code, out, err = invoke(capsys, "oeis-compare", "--bfile", str(DATA / bfile), *seq)
        assert code == 2
        assert out == ""
        assert err == f"error: --seq {seq[1]} does not take {flag}\n"

    def test_explicit_y0_where_the_sequence_takes_one(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "b001405.txt"),
            "--seq", "infinite", "--y0", "0",
        )
        assert code == 0
        assert out.startswith("match: offset 0")

    def test_unreadable_file(self, capsys):
        code, _, err = invoke(
            capsys, "oeis-compare", "--bfile", str(DATA / "nope.txt"),
            "--seq", "infinite", "--n-max", "10",
        )
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot a line\n")
        code, _, err = invoke(
            capsys, "oeis-compare", "--bfile", str(bad),
            "--seq", "infinite", "--n-max", "10",
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert invoke(capsys, "row", "--d", "5")[0] == 2

    def test_bad_parameter_values(self, capsys):
        code, _, err = invoke(capsys, "row", "--d", "1", "--n", "3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("range-seq", "--d", "5", "--n-max", "-1", "--format", "csv"),
            ("infinite", "--n-max", "-1"),
            ("km-diag", "--m", "3", "--n-max", "-1"),
            ("oeis-compare", "--bfile", str(DATA / "b001405.txt"), "--seq", "infinite",
             "--n-max", "-1"),
        ],
    )
    def test_negative_n_max(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == "" and "--n-max" in err

    def test_no_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corridorpaths", "row", "--d", "5", "--n", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "127 93 72 93 127"
