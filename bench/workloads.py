"""Seeded operation mixes for the benchmark workloads.

Each workload is an endless stream of *cycles*.  A cycle holds, for each
operation kind, one operation per cell of a full factorial over coarse strata
of the parameters that set its cost (for example corridor order x length),
each drawn at random from the middle fifth of its cell; the other parameters
are drawn freely, and the cycle is shuffled.  So two seeds give different
inputs but nearly the same cost per cycle and the same slowest operations,
which keeps the run-to-run spread of throughput and tail latency low.

Every operation carries a check that recomputes the expected result by an
independent route from :mod:`oracle`, modulo a 61-bit prime.  Checks run
outside the timed region.
"""
from __future__ import annotations

import csv
import inspect
import io
import itertools
import json
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import oracle
from oracle import P

FORMATS = ("plain", "csv", "json")
BFILES = Path("tests") / "data"


@dataclass(frozen=True)
class Op:
    """One operation: a library function name and its arguments, or a CLI
    subcommand and its argv.  ``check(result)`` is True when the result agrees
    with the independent reference."""

    kind: str
    args: tuple
    check: Callable[[object], bool]


class CliResult(NamedTuple):
    """Exit code and decoded output of one CLI invocation."""

    code: int
    out: str
    err: str


# --- stratified sampling ---

def _lin(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _log(u: float, lo: int, hi: int) -> int:
    return min(hi, int(lo * (hi / lo) ** u))


def cycles(name: str, seed: int) -> Iterator[list[Op]]:
    """Endless cycles of operations for workload ``name``; same seed, same ops."""
    rng = random.Random(f"{name}:{seed}")
    for index in itertools.count():
        ops = []
        for build, levels in MIXES[name]:
            params = inspect.signature(build).parameters
            free = len(params) - len(levels) - ("fmt" in params)
            for i, cell in enumerate(itertools.product(*map(range, levels))):
                us = [(c + 0.4 + 0.2 * rng.random()) / k for c, k in zip(cell, levels)]
                us += [rng.random() for _ in range(free)]
                if "fmt" in params:
                    ops.append(build(*us, fmt=FORMATS[(i + index) % len(FORMATS)]))
                else:
                    ops.append(build(*us))
        rng.shuffle(ops)
        yield ops


# --- checks on library results ---

def _is_int(value: object) -> bool:
    return type(value) is int


def _same(value: object, reference: Callable[[], int]) -> bool:
    return _is_int(value) and value % P == reference() % P


def _same_all(values: object, reference: Callable[[], list[int]]) -> bool:
    try:
        values = list(values)
    except TypeError:
        return False
    return all(map(_is_int, values)) and oracle.agrees(values, reference())


def _row_check(row, d, n, y0, layer, reference) -> bool:
    return (
        (row.d, row.n, row.y0, row.layer) == (d, n, y0, layer)
        and _same_all(row.seq.window, reference)
    )


# --- narrow-long: tiny windows, ~2e4-bit integers ---

def _nl_corridor_count(u_d, u_n, u_y):
    m, n = _lin(u_d, 1, 10), _log(u_n, 5000, 20000)
    y0 = _lin(u_y, 0, m)
    return Op("corridor_count", (m, n, y0),
              lambda r: _same(r, lambda: sum(oracle.height_walk(m, n, y0))))


def _nl_corridor_sequence(u_d, u_n, u_y):
    m, n_max = _lin(u_d, 1, 10), _log(u_n, 1000, 4000)
    y0 = _lin(u_y, 0, m)
    return Op("corridor_sequence", (m, n_max, y0),
              lambda r: _same_all(r, lambda: oracle.two_choice_sequence(m, n_max, y0)))


def _nl_sigma_row(u_d, u_n, u_y):
    d, n = _lin(u_d, 3, 12), _log(u_n, 5000, 20000)
    y0 = _lin(u_y, 0, d - 2)
    return Op("sigma_row", (d, n, y0),
              lambda r: _row_check(r, d, n, y0, "sigma", lambda: oracle.sigma_window(d, n, y0)))


def _nl_state_at(u_d, u_n, u_y):
    d, n = _lin(u_d, 3, 12), _log(u_n, 5000, 20000)
    y0 = _lin(u_y, 0, d - 2)
    return Op("state_at", (d, n, y0),
              lambda r: (r.d, r.n) == (d, n)
              and _same_all(r.seq.window, lambda: oracle.state_window(d, n, y0)))


def _nl_motzkin(u_d, u_n, u_y):
    d, n = _lin(u_d, 3, 12), _log(u_n, 5000, 20000)
    y0 = _lin(u_y, 0, d - 2)
    return Op("motzkin_corridor_count", (d, n, y0),
              lambda r: _same(r, lambda: oracle.three_choice_sequence(d, n, y0)[-1]))


# --- wide-rows: long windows, moderate integers ---

def _wide(u_d, u_n, u_y):
    d, n = _log(u_d, 40, 120), _log(u_n, 500, 3000)
    return d, n, _lin(u_y, 0, d - 2)


def _wr_row(layer, reference, u_d, u_n, u_y):
    d, n, y0 = _wide(u_d, u_n, u_y)
    return Op(f"{layer}_row", (d, n, y0),
              lambda r: _row_check(r, d, n, y0, layer, lambda: reference(d, n, y0)))


def _wr_sigma_row(u_d, u_n, u_y):
    return _wr_row("sigma", oracle.sigma_window, u_d, u_n, u_y)


def _wr_p_row(u_d, u_n, u_y):
    return _wr_row("p", oracle.p_window, u_d, u_n, u_y)


def _wr_q_row(u_d, u_n, u_y):
    return _wr_row("q", oracle.q_window, u_d, u_n, u_y)


def _extrema_ok(r, d, n, y0) -> bool:
    p = oracle.p_window(d, n, y0)
    return (
        all(map(_is_int, r[:3]))
        and r.maximum % P == p[(n + y0) % (2 * d)]
        and r.minimum % P == p[(n + y0 + d) % (2 * d)]
        and r.range % P == sum(oracle.height_walk(d - 2, n, y0)) % P
        and (r.argmax_k, r.argmin_k) == (((n + y0) // 2) % d, ((n + y0 + d) // 2) % d)
    )


def _wr_row_extrema(u_d, u_n, u_y):
    d, n, y0 = _wide(u_d, u_n, u_y)
    return Op("row_extrema", (d, n, y0), lambda r: _extrema_ok(r, d, n, y0))


def _wr_state_at(u_d, u_n, u_y):
    d, n, y0 = _wide(u_d, u_n, u_y)
    return Op("state_at", (d, n, y0),
              lambda r: (r.d, r.n) == (d, n)
              and _same_all(r.seq.window, lambda: oracle.state_window(d, n, y0)))


def _wr_endpoint_counts(u_d, u_n, u_y):
    d, n, y0 = _wide(u_d, u_n, u_y)
    return Op("endpoint_counts", (d - 2, n, y0),
              lambda r: _same_all(r, lambda: oracle.height_walk(d - 2, n, y0)))


def _wr_corridor_count(u_d, u_n, u_y):
    d, n, y0 = _wide(u_d, u_n, u_y)
    return Op("corridor_count", (d - 2, n, y0),
              lambda r: _same(r, lambda: sum(oracle.height_walk(d - 2, n, y0))))


def _wr_motzkin_sequence(u_d, u_n, u_y):
    d, n, y0 = _wide(u_d, u_n, u_y)
    return Op("motzkin_sequence", (d, n, y0),
              lambda r: _same_all(r, lambda: oracle.three_choice_sequence(d, n, y0)))


# --- closed-form: binomial sums, no periodic operators ---

_BINOMIALS = oracle.Binomials()


def _km_point(u_a, u_w, u_s, u_z, a_max=1600):
    """An in-band endpoint: wall gap ``w = t - s`` in 0..16 sets the cost."""
    a, w = _log(u_a, 400, a_max), _lin(u_w, 0, 16)
    s = -_lin(u_s, max(0, w - 8), min(8, w))
    t = w + s
    return a, a + _lin(u_z, s, t), s, t


def _cf_km_formula(u_a, u_w, u_s, u_z):
    a, b, s, t = _km_point(u_a, u_w, u_s, u_z)
    return Op("km_count_formula", (a, b, s, t),
              lambda r: _same(r, lambda: oracle.km_band(a, b, s, t)))


def _cf_km_out_of_band(u_a, u_w, u_s, u_z):
    a, _, s, t = _km_point(u_a, u_w, u_s, u_z)
    b = a + t + 1 + _lin(u_z, 0, 2)  # one to three steps past the upper wall
    return Op("km_count_formula", (a, b, s, t), lambda r: _is_int(r) and r == 0)


def _cf_km_via_sigma(u_a, u_w, u_s, u_z):
    a, b, s, t = _km_point(u_a, u_w, u_s, u_z, a_max=1200)
    return Op("km_count_via_sigma", (a, b, s, t),
              lambda r: _same(r, lambda: oracle.km_band(a, b, s, t)))


def _cf_km_diagonal(u_n, u_m):
    n, m = _log(u_n, 800, 3000), _lin(u_m, 1, 8)
    return Op("km_diagonal_sum", (n, m),
              lambda r: _same(r, lambda: sum(oracle.height_walk(m, n, 0))))


def _cf_infinite(u_n, u_y):
    n, y0 = _log(u_n, 500, 6000), _lin(u_y, 0, 8)
    return Op("infinite_corridor_count", (n, y0),
              lambda r: _same(r, lambda: oracle.half_plane(n, y0, _BINOMIALS)))


def _cf_sigma_entry(u_d, u_n, u_k, u_y):
    d, n = _lin(u_d, 3, 18), _log(u_n, 800, 3000)
    k, y0 = _lin(u_k, 0, d - 1), _lin(u_y, 0, min(d - 2, 8))
    return Op("sigma_entry_direct", (d, n, k, y0),
              lambda r: _same(r, lambda: oracle.sigma_window(d, n, y0)[k]))


def _cf_trinomial_entry(u_d, u_n, u_k):
    d, n = _lin(u_d, 3, 18), _log(u_n, 100, 600)
    k = _lin(u_k, 0, 2 * d - 1)
    return Op("trinomial_p_entry", (d, n, k, 0),
              lambda r: _same(r, lambda: oracle.trinomial_window(d, n, 0)[k]))


# --- cli: one `python -m corridorpaths` process per operation ---

@contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit in this process only, for parsing."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def parse_values(fmt: str, text: str) -> list[int]:
    """The exact integers a count subcommand printed, in output order."""
    with unlimited_int_digits():
        if fmt == "plain":
            return [int(token) for token in text.split()]
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if not rows or rows[0][-1] != "value":
                raise ValueError("csv output lacks a value column")
            return [int(row[-1]) for row in rows[1:]]
        return [int(record["value"]) for record in json.loads(text)]


def _cli_values_ok(result, fmt: str, reference: Callable[[], list[int]]) -> bool:
    code, out, _ = result
    try:
        values = parse_values(fmt, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    return code == 0 and oracle.agrees(values, reference())


def _cli(sub: str, argv: list, fmt: str, reference) -> Op:
    argv = [sub, *map(str, argv), "--format", fmt]
    return Op(sub, tuple(argv), partial(_cli_values_ok, fmt=fmt, reference=reference))


def _cl_row(u_d, u_n, u_l, u_y, fmt):
    d, n = _lin(u_d, 3, 12), _log(u_n, 10, 400)
    layer, y0 = ("sigma", "p", "q")[_lin(u_l, 0, 2)], _lin(u_y, 0, d - 2)
    window = {"sigma": oracle.sigma_window, "p": oracle.p_window, "q": oracle.q_window}[layer]
    return _cli("row", ["--d", d, "--n", n, "--layer", layer, "--y0", y0], fmt,
                lambda: window(d, n, y0))


def _cl_oversized(u_n, fmt):
    # sigma_row(3, n) entries exceed 4300 decimal digits for n >= 14300
    n = _lin(u_n, 14500, 16000)
    return _cli("row", ["--d", 3, "--n", n], fmt, lambda: oracle.sigma_window(3, n, 0))


def _cl_range_seq(u_d, u_n, u_y, fmt):
    d, n_max = _lin(u_d, 3, 10), _log(u_n, 20, 120)
    y0 = _lin(u_y, 0, d - 2)
    return _cli("range-seq", ["--d", d, "--n-max", n_max, "--y0", y0], fmt,
                lambda: oracle.two_choice_sequence(d - 2, n_max, y0))


def _cl_corridor(u_m, u_n, u_y, fmt):
    m, n_max = _lin(u_m, 1, 10), _log(u_n, 50, 1500)
    y0 = _lin(u_y, 0, m)
    return _cli("corridor", ["--m", m, "--n-max", n_max, "--y0", y0], fmt,
                lambda: oracle.two_choice_sequence(m, n_max, y0))


def _cl_infinite(u_n, u_y, fmt):
    n_max, y0 = _log(u_n, 20, 300), _lin(u_y, 0, 3)
    return _cli("infinite", ["--n-max", n_max, "--y0", y0], fmt,
                lambda: [oracle.half_plane(n, y0, _BINOMIALS) for n in range(n_max + 1)])


def _cl_motzkin(u_d, u_n, u_y, fmt):
    d, n_max = _lin(u_d, 3, 10), _log(u_n, 30, 600)
    y0 = _lin(u_y, 0, d - 2)
    return _cli("motzkin", ["--d", d, "--n-max", n_max, "--y0", y0], fmt,
                lambda: oracle.three_choice_sequence(d, n_max, y0))


def _cl_km(u_a, u_s, u_t, u_z, fmt):
    a = _log(u_a, 20, 600)
    s, t = -_lin(u_s, 0, 4), _lin(u_t, 0, 4)
    b = a + _lin(u_z, s, t)
    return _cli("km", ["--a", a, "--b", b, "--s", s, "--t", t], fmt,
                lambda: [oracle.km_band(a, b, s, t)])


def _cl_km_diag(u_m, u_n, fmt):
    m, n_max = _lin(u_m, 1, 8), _log(u_n, 20, 120)
    return _cli("km-diag", ["--m", m, "--n-max", n_max], fmt,
                lambda: oracle.two_choice_sequence(m, n_max, 0))


def _cl_state(u_d, u_n, u_y, fmt):
    d, n = _lin(u_d, 3, 12), _log(u_n, 10, 800)
    y0 = _lin(u_y, 0, d - 2)
    return _cli("state", ["--d", d, "--n", n, "--y0", y0], fmt,
                lambda: oracle.state_window(d, n, y0))


# b-file, --seq arguments, and the independent generator of that sequence
_OEIS = (
    ("b000045.txt", ("--seq", "corridor", "--m", "3"), lambda n: oracle.two_choice_sequence(3, n, 0)),
    ("b000045.txt", ("--seq", "range-seq", "--d", "5"), lambda n: oracle.two_choice_sequence(3, n, 0)),
    ("b000045.txt", ("--seq", "km-diag", "--m", "3"), lambda n: oracle.two_choice_sequence(3, n, 0)),
    ("b001405.txt", ("--seq", "infinite"),
     lambda n: [oracle.half_plane(k, 0, _BINOMIALS) for k in range(n + 1)]),
    ("b061551.txt", ("--seq", "corridor", "--m", "8"), lambda n: oracle.two_choice_sequence(8, n, 0)),
)
_MATCH = re.compile(r"match: offset (-?\d+), (\d+) terms compared")


def _expected_match(bfile: Path, generated: list[int]) -> tuple[int, int] | None:
    """First offset in -2..2 where the b-file agrees with ``generated`` mod P."""
    table = {}
    for line in bfile.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            index, value = line.split()
            table[int(index)] = int(value) % P
    for offset in range(-2, 3):
        pairs = [(g, table[n + offset]) for n, g in enumerate(generated) if n + offset in table]
        if pairs and all(g == b for g, b in pairs):
            return offset, len(pairs)
    return None


def _oeis_ok(result, bfile: Path, n_max: int, generate) -> bool:
    code, out, _ = result
    found = _MATCH.search(out)
    expected = _expected_match(bfile, generate(n_max))
    return (
        code == 0 and found is not None and expected is not None
        and (int(found.group(1)), int(found.group(2))) == expected
    )


def _cl_oeis(u_c, u_n):
    name, seq_args, generate = _OEIS[_lin(u_c, 0, len(_OEIS) - 1)]
    bfile, n_max = BFILES / name, _lin(u_n, 20, 60)
    argv = ("oeis-compare", "--bfile", str(bfile), *seq_args, "--n-max", str(n_max))
    return Op("oeis-compare", argv, partial(_oeis_ok, bfile=bfile, n_max=n_max, generate=generate))


def _verify_ok(result, m_max: int, n_max: int) -> bool:
    code, out, _ = result
    cases = (n_max + 1) * (m_max + 1) * (m_max + 2) // 2
    return code == 0 and out.strip() == f"OK two-choice m<={m_max} n<={n_max}: {cases} cases agree"


def _cl_verify(u_m, u_n):
    m_max, n_max = _lin(u_m, 2, 4), _lin(u_n, 8, 12)
    argv = ("verify", "--two-choice", "--m-max", str(m_max), "--n-max", str(n_max))
    return Op("verify", argv, partial(_verify_ok, m_max=m_max, n_max=n_max))


# (operation factory, strata per cost-setting parameter): one operation per cell of the
# strata grid per cycle.  A factory takes one draw in [0, 1) per parameter,
# plus the output format for CLI count subcommands.
MIXES: dict[str, list[tuple[Callable[..., Op], tuple[int, ...]]]] = {
    "narrow-long": [
        (_nl_corridor_count, (3, 3)),
        (_nl_corridor_sequence, (3, 3)),
        (_nl_sigma_row, (3, 3)),
        (_nl_state_at, (3, 3)),
        (_nl_motzkin, (3, 3)),
    ],
    "wide-rows": [
        (_wr_sigma_row, (3, 3)),
        (_wr_p_row, (3, 3)),
        (_wr_q_row, (3, 3)),
        (_wr_row_extrema, (3, 3)),
        (_wr_state_at, (3, 3)),
        (_wr_endpoint_counts, (3, 3)),
        (_wr_corridor_count, (3, 3)),
        (_wr_motzkin_sequence, (3, 3)),
    ],
    "closed-form": [
        (_cf_km_formula, (4, 3)),
        (_cf_km_out_of_band, (1,)),
        (_cf_km_via_sigma, (3,)),
        (_cf_km_diagonal, (3, 2)),
        (_cf_infinite, (4,)),
        (_cf_sigma_entry, (3, 3)),
        (_cf_trinomial_entry, (3, 3)),
    ],
    "cli": [
        (_cl_row, (3,)),
        (_cl_range_seq, (3,)),
        (_cl_corridor, (3,)),
        (_cl_infinite, (3,)),
        (_cl_motzkin, (3,)),
        (_cl_km, (3,)),
        (_cl_km_diag, (3,)),
        (_cl_state, (3,)),
        (_cl_oeis, (3,)),
        (_cl_verify, (1,)),
        (_cl_oversized, (1,)),
    ],
}

WORKLOADS = tuple(MIXES)
