"""Command-line front end.

Subcommands compute rows, ranges, and path counts, cross-validate the
redundant computation routes against each other, and compare generated
sequences against local OEIS b-files.

Exit codes: 0 success / match, 1 validation or comparison mismatch,
2 usage or I/O error (including enumeration-cap violations).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from .corridor import (
    DEFAULT_BINARY_CAP,
    DEFAULT_TERNARY_CAP,
    corridor_count,
    corridor_count_bruteforce,
    corridor_sequence,
    infinite_corridor_count,
    motzkin_bruteforce,
    motzkin_corridor_count,
    motzkin_sequence,
    state_at,
)
from .km import km_bruteforce, km_count_formula, km_count_via_sigma, km_diagonal_sum
from .oeis import DEFAULT_OFFSETS, compare, parse_bfile, unlimited_int_digits
from .pascal import p_row, q_row, row_extrema, sigma_row

FORMATS = ("plain", "csv", "json")


@dataclass(frozen=True)
class OutputRecord:
    """One computed value with the query parameters that produced it."""

    params: dict[str, int | str]
    value: int
    route: str


def _emit(records: list[OutputRecord], fmt: str) -> None:
    if fmt == "plain":
        print(" ".join(str(r.value) for r in records))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        header = [*records[0].params, "value"] if records else ["value"]
        writer.writerow(header)
        for r in records:
            writer.writerow([r.params[name] for name in header[:-1]] + [str(r.value)])
    elif fmt == "json":
        payload = [{**r.params, "value": str(r.value), "route": r.route} for r in records]
        print(json.dumps(payload))
    else:
        raise ValueError(f"unknown format {fmt!r}")


# --- count / sequence subcommands ---

def _cmd_row(args) -> int:
    if args.layer == "sigma":
        row = sigma_row(args.d, args.n, args.y0)
    elif args.layer == "p":
        row = p_row(args.d, args.n, args.y0)
    else:
        row = q_row(args.d, args.n, args.y0)
    records = [
        OutputRecord(
            {"d": args.d, "n": args.n, "y0": args.y0, "layer": args.layer, "k": k},
            value,
            "operator",
        )
        for k, value in enumerate(row.seq.window)
    ]
    _emit(records, args.format)
    return 0


def _cmd_range_seq(args) -> int:
    records = [
        OutputRecord(
            {"d": args.d, "n": n, "y0": args.y0},
            row_extrema(args.d, n, args.y0).range,
            "operator",
        )
        for n in range(args.n_max + 1)
    ]
    _emit(records, args.format)
    return 0


def _cmd_corridor(args) -> int:
    values = corridor_sequence(args.m, args.n_max, args.y0)
    records = [
        OutputRecord({"m": args.m, "n": n, "y0": args.y0}, value, "operator")
        for n, value in enumerate(values)
    ]
    _emit(records, args.format)
    return 0


def _cmd_infinite(args) -> int:
    records = [
        OutputRecord(
            {"n": n, "y0": args.y0}, infinite_corridor_count(n, args.y0), "closed-form"
        )
        for n in range(args.n_max + 1)
    ]
    _emit(records, args.format)
    return 0


def _cmd_motzkin(args) -> int:
    values = motzkin_sequence(args.d, args.n_max, args.y0)
    records = [
        OutputRecord({"d": args.d, "n": n, "y0": args.y0}, value, "operator")
        for n, value in enumerate(values)
    ]
    _emit(records, args.format)
    return 0


def _cmd_km(args) -> int:
    value = km_count_formula(args.a, args.b, args.s, args.t)
    records = [
        OutputRecord(
            {"a": args.a, "b": args.b, "s": args.s, "t": args.t}, value, "closed-form"
        )
    ]
    _emit(records, args.format)
    return 0


def _cmd_km_diag(args) -> int:
    records = [
        OutputRecord({"m": args.m, "n": n}, km_diagonal_sum(n, args.m), "closed-form")
        for n in range(args.n_max + 1)
    ]
    _emit(records, args.format)
    return 0


def _cmd_state(args) -> int:
    state = state_at(args.d, args.n, args.y0)
    records = [
        OutputRecord(
            {"d": args.d, "n": args.n, "y0": args.y0, "k": k}, value, "operator"
        )
        for k, value in enumerate(state.seq.window)
    ]
    _emit(records, args.format)
    return 0


# --- verify ---

def _verify_two_choice(m_max: int, n_max: int, cap: int) -> tuple[int, str | None]:
    cases = 0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            for y0 in range(m + 1):
                fast = corridor_count(m, n, y0)
                slow = corridor_count_bruteforce(m, n, y0, cap=cap)
                if fast != slow:
                    return cases, (
                        f"two-choice mismatch at m={m} n={n} y0={y0}: "
                        f"operator={fast} brute-force={slow}"
                    )
                cases += 1
    return cases, None


def _verify_km(s_min: int, t_max: int, ab_max: int, cap: int) -> tuple[int, str | None]:
    cases = 0
    for s in range(s_min, 1):
        for t in range(t_max + 1):
            for a in range(ab_max + 1):
                for b in range(ab_max + 1):
                    formula = km_count_formula(a, b, s, t)
                    via_sigma = km_count_via_sigma(a, b, s, t)
                    brute = km_bruteforce(a, b, s, t, cap=cap)
                    if not formula == via_sigma == brute:
                        return cases, (
                            f"K-M mismatch at a={a} b={b} s={s} t={t}: "
                            f"formula={formula} sigma={via_sigma} brute-force={brute}"
                        )
                    cases += 1
    return cases, None


def _verify_motzkin(d_max: int, n_max: int, cap: int) -> tuple[int, str | None]:
    cases = 0
    for d in range(2, d_max + 1):
        for n in range(n_max + 1):
            for y0 in range(d - 1):
                fast = motzkin_corridor_count(d, n, y0)
                slow = motzkin_bruteforce(d, n, y0, cap=cap)
                if fast != slow:
                    return cases, (
                        f"three-choice mismatch at d={d} n={n} y0={y0}: "
                        f"operator={fast} brute-force={slow}"
                    )
                cases += 1
    return cases, None


def _cmd_verify(args) -> int:
    scopes = [s for s in ("two_choice", "km", "motzkin") if getattr(args, s)]
    if not scopes:
        scopes = ["two_choice", "km", "motzkin"]
    binary_cap = args.cap if args.cap is not None else DEFAULT_BINARY_CAP
    ternary_cap = args.cap if args.cap is not None else DEFAULT_TERNARY_CAP

    for scope in scopes:
        if scope == "two_choice":
            n_max = args.n_max if args.n_max is not None else 12
            if n_max > binary_cap:
                print(
                    f"error: --n-max {n_max} exceeds the enumeration cap {binary_cap}",
                    file=sys.stderr,
                )
                return 2
            cases, failure = _verify_two_choice(args.m_max, n_max, binary_cap)
            label = f"two-choice m<={args.m_max} n<={n_max}"
        elif scope == "km":
            if 2 * args.ab_max > binary_cap:
                print(
                    f"error: --ab-max {args.ab_max} exceeds the enumeration cap "
                    f"{binary_cap} (paths have length a+b)",
                    file=sys.stderr,
                )
                return 2
            cases, failure = _verify_km(args.s_min, args.t_max, args.ab_max, binary_cap)
            label = f"K-M s>={args.s_min} t<={args.t_max} a,b<={args.ab_max}"
        else:
            n_max = args.n_max if args.n_max is not None else 10
            if n_max > ternary_cap:
                print(
                    f"error: --n-max {n_max} exceeds the enumeration cap {ternary_cap}",
                    file=sys.stderr,
                )
                return 2
            cases, failure = _verify_motzkin(args.d_max, n_max, ternary_cap)
            label = f"three-choice d<={args.d_max} n<={n_max}"
        if failure is not None:
            print(f"FAIL after {cases} cases: {failure}")
            return 1
        print(f"OK {label}: {cases} cases agree")
    return 0


# --- oeis-compare ---

def _generate_for_compare(args) -> list[int]:
    n_max = args.n_max
    if args.seq == "corridor":
        if args.m is None:
            raise ValueError("--seq corridor requires --m")
        return corridor_sequence(args.m, n_max, args.y0)
    if args.seq == "infinite":
        return [infinite_corridor_count(n, args.y0) for n in range(n_max + 1)]
    if args.seq == "motzkin":
        if args.d is None:
            raise ValueError("--seq motzkin requires --d")
        return motzkin_sequence(args.d, n_max, args.y0)
    if args.seq == "range-seq":
        if args.d is None:
            raise ValueError("--seq range-seq requires --d")
        return [row_extrema(args.d, n, args.y0).range for n in range(n_max + 1)]
    if args.seq == "km-diag":
        if args.m is None:
            raise ValueError("--seq km-diag requires --m")
        return [km_diagonal_sum(n, args.m) for n in range(n_max + 1)]
    raise ValueError(f"unknown sequence kind {args.seq!r}")


def _cmd_oeis_compare(args) -> int:
    bfile = parse_bfile(args.bfile)
    generated = _generate_for_compare(args)
    match = compare(generated, bfile)
    if match is None:
        print(
            f"no match: {len(generated)} generated terms vs {args.bfile} "
            f"at offsets {DEFAULT_OFFSETS.start}..{DEFAULT_OFFSETS.stop - 1}"
        )
        return 1
    print(f"match: offset {match.offset}, {match.overlap} terms compared")
    return 0


# --- parser ---

def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="plain")


def _add_y0(p: argparse.ArgumentParser) -> None:
    p.add_argument("--y0", type=int, default=0, help="start offset (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridorpaths",
        description="Exact corridor path counts via circular Pascal arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("row", help="one row of a circular Pascal array")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layer", choices=("sigma", "p", "q"), default="sigma")
    _add_y0(p)
    _add_format(p)
    p.set_defaults(func=_cmd_row)

    p = sub.add_parser("range-seq", help="row ranges (max - min) for n = 0..n-max")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    _add_y0(p)
    _add_format(p)
    p.set_defaults(func=_cmd_range_seq)

    p = sub.add_parser("corridor", help="two-choice corridor counts for n = 0..n-max")
    p.add_argument("--m", type=int, required=True, help="corridor width")
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    _add_y0(p)
    _add_format(p)
    p.set_defaults(func=_cmd_corridor)

    p = sub.add_parser("infinite", help="infinite-corridor counts for n = 0..n-max")
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    _add_y0(p)
    _add_format(p)
    p.set_defaults(func=_cmd_infinite)

    p = sub.add_parser("motzkin", help="three-choice corridor counts for n = 0..n-max")
    p.add_argument("--d", type=int, required=True, help="order (walls at 0 and d)")
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    _add_y0(p)
    _add_format(p)
    p.set_defaults(func=_cmd_motzkin)

    p = sub.add_parser("km", help="Krattenthaler-Mohanty count D(a,b;s,t)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("km-diag", help="diagonal sums of D(a,b;0,m) for a+b = 0..n-max")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_km_diag)

    p = sub.add_parser("state", help="dual-corridor state vector at step n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_y0(p)
    _add_format(p)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("verify", help="cross-validate computation routes on a grid")
    p.add_argument("--two-choice", action="store_true", dest="two_choice")
    p.add_argument("--km", action="store_true")
    p.add_argument("--motzkin", action="store_true")
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--n-max", type=_nonnegative_int, default=None)
    p.add_argument("--d-max", type=int, default=5)
    p.add_argument("--s-min", type=int, default=-3)
    p.add_argument("--t-max", type=int, default=3)
    p.add_argument("--ab-max", type=int, default=8)
    p.add_argument("--cap", type=int, default=None, help="override enumeration caps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis-compare", help="compare a generated sequence to a b-file")
    p.add_argument("--bfile", required=True, help="path to a local OEIS b-file")
    p.add_argument(
        "--seq",
        required=True,
        choices=("corridor", "infinite", "motzkin", "range-seq", "km-diag"),
    )
    p.add_argument("--n-max", type=_nonnegative_int, default=40)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    _add_y0(p)
    p.set_defaults(func=_cmd_oeis_compare)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Exact values of any size are printed and read in full.
        with unlimited_int_digits():
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
