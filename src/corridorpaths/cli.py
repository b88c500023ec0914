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
from typing import Callable, Iterable

from .corridor import (
    DEFAULT_BINARY_CAP, DEFAULT_TERNARY_CAP, corridor_count, corridor_count_bruteforce,
    corridor_sequence, infinite_corridor_count, motzkin_bruteforce, motzkin_corridor_count,
    motzkin_sequence, state_at,
)
from .km import km_bruteforce, km_count_formula, km_count_via_sigma, km_diagonal_sum
from .oeis import DEFAULT_OFFSETS, compare, parse_bfile, unlimited_int_digits
from .pascal import LAYERS, _check_params, p_row, q_row, sigma_row

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


# --- count sequences: one subcommand and one `oeis-compare --seq` choice each ---

@dataclass(frozen=True)
class Sequence:
    """Counts for lengths n = 0..n-max.  ``params`` maps each required flag to
    its help text; the values are ``generate(n_max, *params[, y0])``."""

    help: str
    params: dict[str, str | None]
    y0: bool  # whether a start offset applies
    route: str
    generate: Callable[..., list[int]]


def _row_ranges(n_max: int, d: int, y0: int) -> list[int]:
    _check_params(d, n_max, y0, "n_max")  # errors name d, not the width d - 2
    return corridor_sequence(d - 2, n_max, y0)


# Here and in SCOPES the routes are looked up when called, so rebinding a
# module global (a tracer, a test's monkeypatch) reaches them.
SEQUENCES = {
    "range-seq": Sequence(
        "row ranges (max - min) for n = 0..n-max", {"d": None}, True, "operator",
        _row_ranges,
    ),
    "corridor": Sequence(
        "two-choice corridor counts for n = 0..n-max", {"m": "corridor width"}, True,
        "operator", lambda n_max, m, y0: corridor_sequence(m, n_max, y0),
    ),
    "infinite": Sequence(
        "infinite-corridor counts for n = 0..n-max", {}, True, "closed-form",
        lambda n_max, y0: [infinite_corridor_count(n, y0) for n in range(n_max + 1)],
    ),
    "motzkin": Sequence(
        "three-choice corridor counts for n = 0..n-max", {"d": "order (walls at 0 and d)"},
        True, "operator", lambda n_max, d, y0: motzkin_sequence(d, n_max, y0),
    ),
    "km-diag": Sequence(
        "diagonal sums of D(a,b;0,m) for a+b = 0..n-max", {"m": None}, False,
        "closed-form", lambda n_max, m: [km_diagonal_sum(n, m) for n in range(n_max + 1)],
    ),
}


def _cmd_sequence(args) -> int:
    seq = SEQUENCES[args.command]
    before = {flag: getattr(args, flag) for flag in seq.params}
    after = {"y0": args.y0} if seq.y0 else {}
    values = seq.generate(args.n_max, *before.values(), *after.values())
    records = [
        OutputRecord({**before, "n": n, **after}, value, seq.route)
        for n, value in enumerate(values)
    ]
    _emit(records, args.format)
    return 0


def _emit_window(params: dict[str, int | str], window, fmt: str) -> None:
    _emit([OutputRecord({**params, "k": k}, v, "operator") for k, v in enumerate(window)], fmt)


def _cmd_row(args) -> int:
    row = {"sigma": sigma_row, "p": p_row, "q": q_row}[args.layer](args.d, args.n, args.y0)
    params = {"d": args.d, "n": args.n, "y0": args.y0, "layer": args.layer}
    _emit_window(params, row.seq.window, args.format)
    return 0


def _cmd_state(args) -> int:
    state = state_at(args.d, args.n, args.y0)
    _emit_window({"d": args.d, "n": args.n, "y0": args.y0}, state.seq.window, args.format)
    return 0


def _cmd_km(args) -> int:
    params = {"a": args.a, "b": args.b, "s": args.s, "t": args.t}
    _emit([OutputRecord(params, km_count_formula(**params), "closed-form")], args.format)
    return 0


# --- verify: every route must agree at every point of a scope's grid ---

@dataclass(frozen=True)
class Scope:
    """``defaults`` holds the bound flags the scope takes and their defaults.
    ``label`` (whose first word names the scope) and ``too_long`` are templates
    over those flags; ``longest`` is the longest path the grid asks the oracle
    for.  Routes are ``route(cap, **point)``."""

    label: str
    defaults: dict[str, int]
    longest: Callable[[argparse.Namespace], int]
    too_long: str
    grid: Callable[[argparse.Namespace], Iterable[dict[str, int]]]
    routes: dict[str, Callable[..., int]]


SCOPES = {
    "two-choice": Scope(
        "two-choice m<={m_max} n<={n_max}",
        {"m_max": 5, "n_max": 12, "cap": DEFAULT_BINARY_CAP},
        lambda f: f.n_max, "--n-max {n_max} exceeds the enumeration cap {cap}",
        lambda f: ({"m": m, "n": n, "y0": y0} for m in range(f.m_max + 1)
                   for n in range(f.n_max + 1) for y0 in range(m + 1)),
        {"operator": lambda cap, **p: corridor_count(**p),
         "brute-force": lambda cap, **p: corridor_count_bruteforce(**p, cap=cap)},
    ),
    "km": Scope(
        "K-M s>={s_min} t<={t_max} a,b<={ab_max}",
        {"s_min": -3, "t_max": 3, "ab_max": 8, "cap": DEFAULT_BINARY_CAP},
        lambda f: 2 * f.ab_max,
        "--ab-max {ab_max} exceeds the enumeration cap {cap} (paths have length a+b)",
        lambda f: ({"a": a, "b": b, "s": s, "t": t}
                   for s in range(f.s_min, 1) for t in range(f.t_max + 1)
                   for a in range(f.ab_max + 1) for b in range(f.ab_max + 1)),
        {"formula": lambda cap, **p: km_count_formula(**p),
         "sigma": lambda cap, **p: km_count_via_sigma(**p),
         "brute-force": lambda cap, **p: km_bruteforce(**p, cap=cap)},
    ),
    "motzkin": Scope(
        "three-choice d<={d_max} n<={n_max}",
        {"d_max": 5, "n_max": 10, "cap": DEFAULT_TERNARY_CAP},
        lambda f: f.n_max, "--n-max {n_max} exceeds the enumeration cap {cap}",
        lambda f: ({"d": d, "n": n, "y0": y0} for d in range(2, f.d_max + 1)
                   for n in range(f.n_max + 1) for y0 in range(d - 1)),
        {"operator": lambda cap, **p: motzkin_corridor_count(**p),
         "brute-force": lambda cap, **p: motzkin_bruteforce(**p, cap=cap)},
    ),
}


def _cmd_verify(args) -> int:
    chosen = {k: s for k, s in SCOPES.items() if getattr(args, k.replace("-", "_"))} or SCOPES
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    taken = {flag for scope in chosen.values() for flag in scope.defaults}
    for flag in given:
        if flag not in taken and any(flag in scope.defaults for scope in SCOPES.values()):
            names = " ".join(f"--{name}" for name in chosen)
            raise ValueError(f"verify {names} does not take --{flag.replace('_', '-')}")
    for scope in chosen.values():
        flags = argparse.Namespace(**{**scope.defaults, **given})
        if scope.longest(flags) > flags.cap:
            raise ValueError(scope.too_long.format_map(vars(flags)))
        label = scope.label.format_map(vars(flags))
        cases = 0
        for point in scope.grid(flags):
            values = {route: fn(flags.cap, **point) for route, fn in scope.routes.items()}
            if len(set(values.values())) > 1:
                at = " ".join(f"{k}={v}" for k, v in point.items())
                got = " ".join(f"{route}={v}" for route, v in values.items())
                print(f"FAIL after {cases} cases: {label.split()[0]} mismatch at {at}: {got}")
                return 1
            cases += 1
        if not cases:
            raise ValueError(f"{label} is an empty grid: nothing to verify")
        print(f"OK {label}: {cases} cases agree")
    return 0


# --- oeis-compare ---

def _cmd_oeis_compare(args) -> int:
    bfile = parse_bfile(args.bfile)
    seq = SEQUENCES[args.seq]
    for flag in ("m", "d", "y0"):
        takes = flag in seq.params or (flag == "y0" and seq.y0)
        if getattr(args, flag) is not None and not takes:
            raise ValueError(f"--seq {args.seq} does not take --{flag}")
        if getattr(args, flag) is None and flag in seq.params:
            raise ValueError(f"--seq {args.seq} requires --{flag}")
    params = [getattr(args, flag) for flag in seq.params]
    y0 = [0 if args.y0 is None else args.y0] if seq.y0 else []
    generated = seq.generate(args.n_max, *params, *y0)
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


def _int(help: str | None = None) -> dict:
    return {"type": int, "required": True, "help": help}


def _add_count(sub, name: str, help: str, func, flags: dict[str, dict], y0: bool) -> None:
    """Add a count subcommand: ``flags`` (flag -> ``add_argument`` keywords),
    then ``--y0`` where a start offset applies, then ``--format``."""
    p = sub.add_parser(name, help=help)
    for flag, kwargs in flags.items():
        p.add_argument(f"--{flag}", **kwargs)
    if y0:
        p.add_argument("--y0", type=int, default=0, help="start offset (default 0)")
    p.add_argument("--format", choices=FORMATS, default="plain")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridorpaths",
        description="Exact corridor path counts via circular Pascal arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_count(
        sub, "row", "one row of a circular Pascal array", _cmd_row,
        {"d": _int(), "n": _int(), "layer": {"choices": LAYERS, "default": "sigma"}}, True,
    )
    for name, seq in SEQUENCES.items():
        if name == "km-diag":  # the subcommand list has km just before km-diag
            _add_count(
                sub, "km", "Krattenthaler-Mohanty count D(a,b;s,t)", _cmd_km,
                {flag: _int() for flag in "abst"}, False,
            )
        flags = {flag: _int(text) for flag, text in seq.params.items()}
        flags["n-max"] = {"type": _nonnegative_int, "required": True}
        _add_count(sub, name, seq.help, _cmd_sequence, flags, seq.y0)
    _add_count(
        sub, "state", "dual-corridor state vector at step n", _cmd_state,
        {"d": _int(), "n": _int()}, True,
    )

    p = sub.add_parser("verify", help="cross-validate computation routes on a grid")
    for name in SCOPES:
        p.add_argument(f"--{name}", action="store_true")
    # The bounds default to None ("not given"); each SCOPES entry has its own defaults.
    for flag in ("m-max", "n-max", "d-max", "s-min", "t-max", "ab-max"):
        p.add_argument(f"--{flag}", type=_nonnegative_int if flag == "n-max" else int)
    p.add_argument("--cap", type=int, help="override enumeration caps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis-compare", help="compare a generated sequence to a b-file")
    p.add_argument("--bfile", required=True, help="path to a local OEIS b-file")
    p.add_argument("--seq", required=True, choices=tuple(SEQUENCES))
    p.add_argument("--n-max", type=_nonnegative_int, default=40)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    # None means "not given", so that a --seq without a start offset can refuse it.
    p.add_argument("--y0", type=int, default=None, help="start offset (default 0)")
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
