"""CLI subcommands, output formats, and exit codes."""
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corridorpaths.cli as cli
from corridorpaths.cli import _emit, run
from corridorpaths.oeis import unlimited_int_digits
from corridorpaths.pascal import sigma_row

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


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
        for fmt, out in [("plain", "\n"), ("csv", "value\r\n"), ("json", "[]\n")]:
            _emit([], "operator", fmt)
            assert capsys.readouterr().out == out, fmt


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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--n-max", "20"), "--n-max 20 exceeds the enumeration cap 15"),
            (("--two-choice", "--km", "--ab-max", "13"),
             "--ab-max 13 exceeds the enumeration cap 24 (paths have length a+b)"),
            (("--d-max", "1"), "three-choice d<=1 n<=10 is an empty grid: nothing to verify"),
        ],
    )
    def test_a_later_scope_bound_error_stops_every_scope(self, capsys, monkeypatch, argv,
                                                          message):
        def never(*args, **kwargs):
            raise AssertionError("a route ran before every bound was checked")

        for route in ("corridor_count", "km_count_formula"):
            monkeypatch.setattr(cli, route, never)
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_three_choice_mismatch_names_the_closed_form(self, capsys, monkeypatch):
        real = cli.motzkin_corridor_count
        monkeypatch.setattr(cli, "motzkin_corridor_count", lambda d, n, y0=0: real(d, n, y0) + 1)
        code, out, err = invoke(capsys, "verify", "--motzkin")
        assert code == 1
        assert out.splitlines() == [
            "FAIL after 0 cases: three-choice mismatch at d=2 n=0 y0=0: "
            "operator=2 closed-form=1 brute-force=1"
        ]
        assert err == ""

    def test_cap_override(self, capsys):
        code, _, _ = invoke(
            capsys, "verify", "--motzkin", "--d-max", "3", "--n-max", "16",
            "--cap", "16",
        )
        assert code == 0

    def test_negative_cap_is_refused_by_the_parser(self, capsys):
        code, out, err = invoke(capsys, "verify", "--two-choice", "--cap", "-1")
        assert code == 2
        assert out == ""
        assert err.endswith("error: argument --cap: must be >= 0, got -1\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--km", "--ab-max", "2", "--n-max", "5", "--d-max", "9"),
             "verify --km does not take --n-max"),
            (("--two-choice", "--s-min", "-9"), "verify --two-choice does not take --s-min"),
            (("--motzkin", "--m-max", "7"), "verify --motzkin does not take --m-max"),
            (("--two-choice", "--km", "--d-max", "3"),
             "verify --two-choice --km does not take --d-max"),
        ],
    )
    def test_bound_of_a_scope_not_run_is_a_usage_error(self, capsys, argv, message):
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_every_bound_applies_when_no_scope_is_chosen(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--m-max", "1", "--n-max", "3", "--d-max", "2",
            "--s-min", "-1", "--t-max", "0", "--ab-max", "1", "--cap", "9",
        )
        assert code == 0
        assert out.splitlines() == [
            "OK two-choice m<=1 n<=3: 12 cases agree",
            "OK K-M s>=-1 t<=0 a,b<=1: 8 cases agree",
            "OK three-choice d<=2 n<=3: 4 cases agree",
        ]


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

    def test_unreadable_file(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA)
        code, out, err = invoke(
            capsys, "oeis-compare", "--bfile", "./nope.txt",
            "--seq", "infinite", "--n-max", "10",
        )
        # the message names the path as given, leading "./" included
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: './nope.txt'\n"

    @pytest.mark.parametrize(
        "text", ["", "# comments only\n", "100 1\n101 1\n102 2\n", "-3 1\n43 1\n"]
    )
    def test_nothing_to_compare_is_a_usage_error(self, capsys, tmp_path, text):
        bfile = tmp_path / "b.txt"
        bfile.write_text(text)
        code, out, err = invoke(
            capsys, "oeis-compare", "--bfile", str(bfile), "--seq", "corridor", "--m", "3",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {bfile} has no index in -2..42: nothing to compare\n"

    @pytest.mark.parametrize("index", [-2, 42])
    def test_an_index_at_either_end_of_reach_is_compared(self, capsys, tmp_path, index):
        bfile = tmp_path / "b.txt"
        bfile.write_text(f"{index} 7\n")  # 41 terms at offsets -2..2 reach -2..42
        code, out, _ = invoke(
            capsys, "oeis-compare", "--bfile", str(bfile), "--seq", "corridor", "--m", "3",
        )
        assert code == 1
        assert out.startswith("no match: 41 generated terms")

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("corridor", "--m", "-1", "--n-max", "3"), "m must be >= 0, got -1"),
            (("row", "--d", "3", "--n", "2", "--y0", "5"), "y0 must be in [0, 1], got 5"),
            (("km", "--a", "1", "--b", "1", "--s", "1", "--t", "2"), "s must be <= 0, got 1"),
            (("km-diag", "--m", "-1", "--n-max", "3"), "m must be >= 0, got -1"),
            (("motzkin", "--d", "1", "--n-max", "3"), "d must be >= 2, got 1"),
            (("infinite", "--y0", "-1", "--n-max", "3"), "y0 must be >= 0, got -1"),
            (("range-seq", "--d", "1", "--n-max", "3"), "d must be >= 2, got 1"),
            (("range-seq", "--d", "5", "--y0", "4", "--n-max", "3"),
             "y0 must be in [0, 3], got 4"),
        ],
    )
    def test_bad_coordinate_names_its_flag(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,synopsis",
    [
        ((), "usage: corridorpaths [-h] "
             "{row,range-seq,corridor,infinite,motzkin,km,km-diag,state,verify,oeis-compare} ..."),
        (("row",), "usage: corridorpaths row [-h] --d D --n N [--layer {sigma,p,q}] [--y0 Y0] "
                   "[--format {plain,csv,json}]"),
        (("range-seq",), "usage: corridorpaths range-seq [-h] --d D --n-max N_MAX [--y0 Y0] "
                         "[--format {plain,csv,json}]"),
        (("corridor",), "usage: corridorpaths corridor [-h] --m M --n-max N_MAX [--y0 Y0] "
                        "[--format {plain,csv,json}]"),
        (("infinite",), "usage: corridorpaths infinite [-h] --n-max N_MAX [--y0 Y0] "
                        "[--format {plain,csv,json}]"),
        (("motzkin",), "usage: corridorpaths motzkin [-h] --d D --n-max N_MAX [--y0 Y0] "
                       "[--format {plain,csv,json}]"),
        (("km",), "usage: corridorpaths km [-h] --a A --b B --s S --t T "
                  "[--format {plain,csv,json}]"),
        (("km-diag",), "usage: corridorpaths km-diag [-h] --m M --n-max N_MAX "
                       "[--format {plain,csv,json}]"),
        (("state",), "usage: corridorpaths state [-h] --d D --n N [--y0 Y0] "
                     "[--format {plain,csv,json}]"),
        (("verify",), "usage: corridorpaths verify [-h] [--two-choice] [--km] [--motzkin] "
                      "[--m-max M_MAX] [--n-max N_MAX] [--d-max D_MAX] [--s-min S_MIN] "
                      "[--t-max T_MAX] [--ab-max AB_MAX] [--cap CAP]"),
        (("oeis-compare",), "usage: corridorpaths oeis-compare [-h] --bfile BFILE "
                            "--seq {range-seq,corridor,infinite,motzkin,km-diag} "
                            "[--n-max N_MAX] [--m M] [--d D] [--y0 Y0]"),
    ],
)
def test_help_synopsis(capsys, argv, synopsis):
    code, out, err = invoke(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert " ".join(out.split("\n\n")[0].split()) == synopsis


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corridorpaths", "row", "--d", "5", "--n", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "127 93 72 93 127"


def test_import_loads_no_dataclasses_and_no_output_module():
    """A CLI process imports neither ``dataclasses`` (nor the ``inspect``
    machinery it loads) nor ``csv``/``json``, which only their formats use,
    nor ``pathlib``: b-files are read with ``open``.  ``-S`` keeps site
    ``.pth`` hooks from loading them first."""
    code = ("import sys, corridorpaths.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'csv', 'json', 'pathlib') "
            "if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def run_capped(*argv):
    """Run the CLI in a child process under a 1.5 GB address-space limit."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    limit = 1_500_000 * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "corridorpaths", *argv],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_out_of_memory_is_a_usage_error():
    """A row of 10**9 slots asks for an 8 GB start window.  Under a 1.5 GB
    address-space limit that allocation fails, and the CLI says so and exits 2
    instead of printing a MemoryError traceback."""
    assert run_capped("row", "--d", "1000000000", "--n", "1") == (
        2, "", "error: out of memory: the request is too large for this machine\n"
    )


@pytest.mark.parametrize(
    "argv,expected",
    [
        ("km-diag --m 1000000000 --n-max 3", "1 1 2 3"),
        ("corridor --m 1000000000 --n-max 3", "1 1 2 3"),
        ("motzkin --d 1000000000 --n-max 3", "1 2 5 13"),
    ],
)
def test_wide_corridor_counts_fit_in_memory(argv, expected):
    """Counts in a corridor wider than the reachable height are computed at
    that height, so a width of 10**9 needs no 10**9-slot row."""
    assert run_capped(*argv.split()) == (0, expected + "\n", "")


def test_readme_cli_examples(capsys):
    """Each line of the README's CLI block whose comment lists integers prints them."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh\n", 1)[1]
    examples = [
        match.groups()
        for line in block.split("```", 1)[0].splitlines()
        if (match := re.fullmatch(r"corridorpaths (.+?) +# (-?\d+(?: -?\d+)*)", line))
    ]
    assert len(examples) >= 3
    for argv, expected in examples:
        assert invoke(capsys, *argv.split()) == (0, expected + "\n", ""), argv
