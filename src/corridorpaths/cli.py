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
from .pascal import LAYERS, _check_params, p_row, q_row, sigma_row, trinomial_p_entry

FORMATS = ("plain", "csv", "json")


def _emit(records: list[tuple[dict[str, int | str], int]], route: str, fmt: str) -> None:
    """Print ``(params, value)`` records, each computed by ``route``, in ``fmt``."""
    if fmt == "plain":
        print(" ".join(str(value) for _, value in records))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        header = [*records[0][0], "value"] if records else ["value"]
        writer.writerow(header)
        for params, value in records:
            writer.writerow([params[name] for name in header[:-1]] + [str(value)])
    else:  # json; argparse admits no other format
        print(json.dumps([{**params, "value": str(value), "route": route}
                          for params, value in records]))


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# --- counts: one subcommand each; those taking --n-max are `oeis-compare --seq` choices ---

@dataclass(frozen=True)
class Count:
    """``flags`` maps each flag's dest to its ``add_argument`` keywords, in
    output order; the values are ``values(**flags)``, indexed by a window
    column ``k`` if ``window``, else by the length ``n`` that ``--n-max``
    bounds (a count without ``--n-max`` has one value)."""

    help: str
    flags: dict[str, dict]
    route: str
    values: Callable[..., Iterable[int]]
    window: bool = False


def _int(help: str | None = None) -> dict:
    return {"type": int, "required": True, "help": help}


_N_MAX = {"type": _nonnegative_int, "required": True}
_Y0 = {"type": int, "default": 0, "help": "start offset (default 0)"}


def _row_ranges(d: int, n_max: int, y0: int) -> list[int]:
    _check_params(d, n_max, y0, "n_max")  # errors name d, not the width d - 2
    return corridor_sequence(d - 2, n_max, y0)


# Here and in SCOPES the routes are looked up when called, so rebinding a
# module global (a tracer, a test's monkeypatch) reaches them.
COUNTS = {
    "row": Count(
        "one row of a circular Pascal array",
        {"d": _int(), "n": _int(), "y0": _Y0, "layer": {"choices": LAYERS, "default": "sigma"}},
        "operator",
        lambda d, n, y0, layer: {"sigma": sigma_row, "p": p_row, "q": q_row}[layer](
            d, n, y0).seq.window,
        window=True,
    ),
    "range-seq": Count(
        "row ranges (max - min) for n = 0..n-max", {"d": _int(), "n_max": _N_MAX, "y0": _Y0},
        "operator", _row_ranges,
    ),
    "corridor": Count(
        "two-choice corridor counts for n = 0..n-max",
        {"m": _int("corridor width"), "n_max": _N_MAX, "y0": _Y0}, "operator",
        lambda m, n_max, y0: corridor_sequence(m, n_max, y0),
    ),
    "infinite": Count(
        "infinite-corridor counts for n = 0..n-max", {"n_max": _N_MAX, "y0": _Y0}, "closed-form",
        lambda n_max, y0: [infinite_corridor_count(n, y0) for n in range(n_max + 1)],
    ),
    "motzkin": Count(
        "three-choice corridor counts for n = 0..n-max",
        {"d": _int("order (walls at 0 and d)"), "n_max": _N_MAX, "y0": _Y0}, "operator",
        lambda d, n_max, y0: motzkin_sequence(d, n_max, y0),
    ),
    "km": Count(
        "Krattenthaler-Mohanty count D(a,b;s,t)", {flag: _int() for flag in "abst"},
        "closed-form", lambda a, b, s, t: [km_count_formula(a, b, s, t)],
    ),
    "km-diag": Count(
        "diagonal sums of D(a,b;0,m) for a+b = 0..n-max", {"m": _int(), "n_max": _N_MAX},
        "closed-form", lambda m, n_max: [km_diagonal_sum(n, m) for n in range(n_max + 1)],
    ),
    "state": Count(
        "dual-corridor state vector at step n", {"d": _int(), "n": _int(), "y0": _Y0},
        "operator", lambda d, n, y0: state_at(d, n, y0).seq.window, window=True,
    ),
}


def _cmd_count(args) -> int:
    count = COUNTS[args.command]
    given = {dest: getattr(args, dest) for dest in count.flags}
    at = {("n" if dest == "n_max" else dest): value for dest, value in given.items()}
    index = "k" if count.window else "n" if "n_max" in given else None
    records = [({**at, index: i} if index else at, value)
               for i, value in enumerate(count.values(**given))]
    _emit(records, count.route, args.format)
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
         "closed-form": lambda cap, d, n, y0: (
             trinomial_p_entry(d, n, n + y0, y0) - trinomial_p_entry(d, n, n + y0 + d, y0)),
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
    count = COUNTS[args.seq]
    for flag in ("m", "d", "y0"):
        if getattr(args, flag) is not None and flag not in count.flags:
            raise ValueError(f"--seq {args.seq} does not take --{flag}")
        if getattr(args, flag) is None and count.flags.get(flag, {}).get("required"):
            raise ValueError(f"--seq {args.seq} requires --{flag}")
    generated = count.values(**{
        dest: kwargs["default"] if getattr(args, dest) is None else getattr(args, dest)
        for dest, kwargs in count.flags.items()
    })
    lo, hi = DEFAULT_OFFSETS.start, len(generated) - 1 + DEFAULT_OFFSETS.stop - 1
    if not any(lo <= index <= hi for index, _ in bfile.entries):
        raise ValueError(f"{args.bfile} has no index in {lo}..{hi}: nothing to compare")
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridorpaths",
        description="Exact corridor path counts via circular Pascal arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, count in COUNTS.items():
        p = sub.add_parser(name, help=count.help)
        # each usage line lists --y0 last, just before --format
        for dest in sorted(count.flags, key=lambda dest: dest == "y0"):
            p.add_argument(f"--{dest.replace('_', '-')}", **count.flags[dest])
        p.add_argument("--format", choices=FORMATS, default="plain")
        p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="cross-validate computation routes on a grid")
    for name in SCOPES:
        p.add_argument(f"--{name}", action="store_true")
    # The bounds default to None ("not given"); each SCOPES entry has its own defaults.
    for flag in ("m-max", "n-max", "d-max", "s-min", "t-max", "ab-max"):
        p.add_argument(f"--{flag}", type=_nonnegative_int if flag == "n-max" else int)
    p.add_argument("--cap", type=_nonnegative_int, help="override enumeration caps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis-compare", help="compare a generated sequence to a b-file")
    p.add_argument("--bfile", required=True, help="path to a local OEIS b-file")
    p.add_argument("--seq", required=True,
                   choices=[name for name, count in COUNTS.items() if "n_max" in count.flags])
    p.add_argument("--n-max", type=_nonnegative_int, default=40)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    # None means "not given", so that a --seq that does not take a flag can refuse it.
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
