"""Acceptance suite: every contract criterion, one pass/fail line each.

All comparisons are exact integer equality; the only tolerance anywhere is
the wall-clock bound in the performance criterion.  Run with ``pytest -v -s``
to see the per-criterion lines.
"""
import random
import time
from math import comb
from pathlib import Path

from corridorpaths.corridor import (
    corridor_count,
    corridor_count_bruteforce,
    corridor_sequence,
    infinite_corridor_count,
    motzkin_bruteforce,
    motzkin_corridor_count,
    state_at,
)
from corridorpaths.km import km_bruteforce, km_count_formula, km_count_via_sigma, km_diagonal_sum
from corridorpaths.oeis import compare, parse_bfile
from corridorpaths.pascal import (
    PASCAL_STEP,
    q_row,
    row_extrema,
    sigma_row,
    trinomial_p_entry,
    trinomial_row,
)
from corridorpaths.periodic import PeriodicSequence, transition

from golden_tables import D2, D3, D4, D5, D8_Y2, FIBONACCI_10

DATA = Path(__file__).parent / "data"


def report(number, label, failures):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {label}")
    assert ok, f"criterion {number}: {label}: first failures: {failures[:5]}"


def test_01_golden_tables():
    failures = []
    for d, y0, table in ((2, 0, D2), (3, 0, D3), (4, 0, D4), (5, 0, D5), (8, 2, D8_Y2)):
        for n, (window, rng) in enumerate(table):
            if sigma_row(d, n, y0).seq.window != window:
                failures.append(("row", d, n, y0))
            if row_extrema(d, n, y0).range != rng:
                failures.append(("range", d, n, y0))
    report(1, "golden rows and ranges reproduced bit-exactly", failures)


def test_02_fibonacci_ranges():
    failures = []
    seq = corridor_sequence(3, 30)
    if seq[:10] != FIBONACCI_10:
        failures.append(("first ten", seq[:10]))
    for n in range(2, 31):
        if seq[n] != seq[n - 1] + seq[n - 2]:
            failures.append(("recurrence", n))
    report(2, "width-3 corridor counts are Fibonacci through n = 30", failures)


def test_03_closed_range_formulas():
    failures = []
    for n in range(1, 31):
        if row_extrema(2, n, 0).range != 0:
            failures.append((2, n))
    for n in range(0, 31):
        if row_extrema(3, n, 0).range != 1:
            failures.append((3, n))
        if row_extrema(4, n, 0).range != 2 ** (n // 2):
            failures.append((4, n))
    report(3, "closed-form ranges for orders 2, 3, 4 up to n = 30", failures)


def test_04_two_choice_oracle():
    failures = []
    cases = 0
    for m in range(0, 7):
        for n in range(0, 15):
            for y0 in range(m + 1):
                if corridor_count(m, n, y0) != corridor_count_bruteforce(m, n, y0):
                    failures.append((m, n, y0))
                cases += 1
    assert cases == 420
    report(4, f"two-choice operator route equals enumeration ({cases} cases)", failures)


def test_05_km_triple_route():
    failures = []
    cases = 0
    for s in range(-3, 1):
        for t in range(0, 4):
            for a in range(0, 9):
                for b in range(0, 9):
                    formula = km_count_formula(a, b, s, t)
                    sigma = km_count_via_sigma(a, b, s, t)
                    brute = km_bruteforce(a, b, s, t)
                    if not formula == sigma == brute:
                        failures.append((a, b, s, t))
                    cases += 1
    if km_count_formula(3, 5, 0, 2) != 8:
        failures.append("D(3,5;0,2)")
    assert cases == 1296
    report(5, f"K-M formula = array route = enumeration ({cases} cases)", failures)


def test_06_diagonal_sum_identity():
    failures = []
    for m in range(0, 7):
        for n in range(0, 15):
            if km_diagonal_sum(n, m) != corridor_count(m, n, 0):
                failures.append((m, n))
    report(6, "diagonal K-M sums equal corridor counts (m <= 6, n <= 14)", failures)


def test_07_infinite_corridor():
    failures = []
    if infinite_corridor_count(4, 2) != 14:
        failures.append("(4, 2)")
    for n in range(0, 21):
        if infinite_corridor_count(n, 0) != comb(n, n // 2):
            failures.append(("central binomial", n))
    for n in range(0, 13):
        for y0 in range(0, 4):
            expect = infinite_corridor_count(n, y0)
            for m in range(n + y0, n + y0 + 4):
                if corridor_count(m, n, y0) != expect:
                    failures.append(("saturation", n, y0, m))
    report(7, "infinite-corridor value, central binomials, saturation", failures)


def test_08_motzkin():
    failures = []
    for d in range(2, 7):
        for n in range(0, 13):
            for y0 in range(d - 1):
                if motzkin_corridor_count(d, n, y0) != motzkin_bruteforce(d, n, y0):
                    failures.append(("oracle", d, n, y0))
    for d in range(2, 9):
        for n in range(0, 11):
            row = trinomial_row(d, n, 0)
            for k in range(2 * d):
                if trinomial_p_entry(d, n, k, 0) != row.value_at(k):
                    failures.append(("closed form", d, n, k))
    report(8, "three-choice counts: enumeration and closed form agree", failures)


def test_09_operator_and_shift_identities():
    failures = []
    # U (I + R) = (I + R**2) U on random small sequences
    rng = random.Random(20260809)
    for _ in range(200):
        period = rng.randint(1, 9)
        s = PeriodicSequence(period, [rng.randint(-40, 40) for _ in range(period)])
        u = s.upsample()
        if transition(s, PASCAL_STEP).upsample() != u + u.shift_by(2):
            failures.append(("upsample law", s.window))
    for d in range(2, 9):
        for y0 in range(d - 1):
            e2 = PeriodicSequence(2 * d, (1,) + (0,) * (2 * d - 1))
            q0 = q_row(d, 0, y0).seq
            # shifted start difference: L**y0 q_0 = (-L**(y0+1) + R**(y0+1)) e'_0
            if q0.shift_by(-y0) != e2.shift_by(y0 + 1) - e2.shift_by(-(y0 + 1)):
                failures.append(("q0 shift identity", d, y0))
            for n in range(0, 13):
                qn = q_row(d, n, y0).seq
                # iteration route: q_n = (I + R**2)**n q_0
                it = q0
                for _ in range(n):
                    it = it + it.shift_by(2)
                if it != qn:
                    failures.append(("q iteration", d, n, y0))
                # state route: v_n = L**(n+y0) q_n, with required structure
                v = state_at(d, n, y0)
                if v.seq != qn.shift_by(-(n + y0)):
                    failures.append(("state shift identity", d, n, y0))
                if v.value_at(0) != 0 or v.value_at(d) != 0:
                    failures.append(("state zeros", d, n, y0))
                if any(v.value_at(-k) != -v.value_at(k) for k in range(1, d)):
                    failures.append(("antisymmetry", d, n, y0))
    report(9, "operator commutation and state identities (d <= 8, n <= 12)", failures)


def test_10_state_snapshot():
    failures = []
    v5 = state_at(5, 5, 0)
    checks = [
        (v5.value_at(2), 5),
        (v5.value_at(4), 3),
        (v5.value_at(0), 0),
        (v5.value_at(5), 0),
        (v5.value_at(-2), -5),
        (v5.value_at(-4), -3),
    ]
    failures = [(got, want) for got, want in checks if got != want]
    report(10, "step-5 dual-corridor state matches the frozen snapshot", failures)


def test_11_performance():
    start = time.perf_counter()
    row = sigma_row(10, 1000, 0)
    elapsed = time.perf_counter() - start
    failures = []
    if elapsed >= 1.0:
        failures.append(f"{elapsed:.3f}s")
    if sum(row.seq.window) != 2**1000:
        failures.append("wrong window sum")
    report(11, f"order-10 row 1000 in {elapsed * 1000:.1f} ms (< 1 s)", failures)


def test_12_oeis_crosscheck():
    failures = []
    targets = [
        ("b000045.txt", corridor_sequence(3, 45)),
        ("b001405.txt", [infinite_corridor_count(n, 0) for n in range(46)]),
        ("b061551.txt", corridor_sequence(8, 45)),
    ]
    for name, generated in targets:
        match = compare(generated, parse_bfile(DATA / name))
        if match is None:
            failures.append((name, "no offset matched"))
        elif not (-2 <= match.offset <= 2 and match.overlap >= 30):
            failures.append((name, match))
    report(12, "vendored b-files match at a small offset over 30+ terms", failures)
