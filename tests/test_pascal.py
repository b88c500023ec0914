"""Circular Pascal arrays: golden tables, closed forms, extrema, trinomial."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corridorpaths.corridor import infinite_corridor_count
from corridorpaths.km import km_count_formula, km_diagonal_sum
from corridorpaths.pascal import (
    TRINOMIAL_STEP,
    PascalArrayRow,
    _column_sum,
    _column_sums,
    _trinomial_sums,
    binom,
    p_row,
    q_row,
    row_extrema,
    sigma_entry_binom,
    sigma_entry_direct,
    sigma_row,
    trinomial_p_entry,
    trinomial_row,
)
from corridorpaths.periodic import PeriodicSequence, transition

from golden_tables import D2, D3, D4, D5, D8_Y2


def unit(period):
    """1 at every multiple of ``period``, else 0."""
    return PeriodicSequence(period, (1,) + (0,) * (period - 1))


def trinomial_triangle(n_max):
    """Rows 0..n_max of (1 + x + x**2)**n by direct polynomial recurrence."""
    triangle = [[1]]
    for _ in range(n_max):
        prev = triangle[-1]
        padded = [0, 0] + prev + [0, 0]
        triangle.append(
            [padded[i] + padded[i + 1] + padded[i + 2] for i in range(len(prev) + 2)]
        )
    return triangle


def trinomial_p_entry_double_sum(d, n, k, y0):
    """The double sum ``sum_i sum_j C(n, j) * sum_m C(j+1, 2*d*m + k - 2*i - j)``,
    from ``T**n = sum_j C(n, j) R**j (I + R)**j``: a reference for
    :func:`trinomial_p_entry` that shares no code with its coefficient ladder."""
    return sum(
        binom(n, j) * sum(_column_sum(2 * d, j + 1, k - 2 * i - j) for i in range(y0 + 1))
        for j in range(n + 1)
    )


def apply_i_plus_r2(s, n):
    for _ in range(n):
        s = s + s.shift_by(2)
    return s


class TestBinom:
    def test_values(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1

    def test_zero_outside_support(self):
        assert binom(5, -1) == 0
        assert binom(5, 6) == 0
        assert binom(0, 1) == 0


class TestInitialSigma:
    def test_single_one(self):
        assert sigma_row(5, 0, 0).seq.window == (1, 0, 0, 0, 0)

    def test_three_ones(self):
        assert sigma_row(8, 0, 2).seq.window == (1, 1, 1, 0, 0, 0, 0, 0)

    def test_y0_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_row(2, 0, 1)
        with pytest.raises(ValueError):
            sigma_row(5, 0, -1)

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            sigma_row(1, 0, 0)


class TestGoldenTables:
    @pytest.mark.parametrize(
        "d,y0,table",
        [(2, 0, D2), (3, 0, D3), (4, 0, D4), (5, 0, D5), (8, 2, D8_Y2)],
    )
    def test_rows_and_ranges(self, d, y0, table):
        for n, (window, rng) in enumerate(table):
            assert sigma_row(d, n, y0).seq.window == window
            assert row_extrema(d, n, y0).range == rng

    def test_row_zero_is_initial(self):
        for d in range(2, 7):
            for y0 in range(d - 1):
                start = PeriodicSequence(d, (1,) * (y0 + 1) + (0,) * (d - y0 - 1))
                assert sigma_row(d, 0, y0) == PascalArrayRow(d, 0, y0, "sigma", start)

    def test_pascal_recurrence(self):
        for d in range(2, 7):
            for n in range(1, 11):
                prev = sigma_row(d, n - 1)
                cur = sigma_row(d, n)
                for k in range(d):
                    assert cur.value_at(k) == prev.value_at(k - 1) + prev.value_at(k)

    def test_window_sum_doubles_each_row(self):
        for d in range(2, 8):
            for y0 in range(d - 1):
                for n in range(0, 9):
                    assert sum(sigma_row(d, n, y0).seq.window) == (y0 + 1) * 2**n

    @pytest.mark.parametrize("d,y0", [(3, 0), (7, 4), (12, 10)])
    def test_window_sum_beyond_enumeration_caps(self, d, y0):
        n = 10**5
        assert sum(sigma_row(d, n, y0).seq.window) == (y0 + 1) * 2**n

    @pytest.mark.parametrize("args", [(5, 3, True), (True, 3, 0), (5, True, 0), (5, 3.0, 0)])
    def test_coordinates_must_be_integers(self, args):
        with pytest.raises(TypeError):
            sigma_row(*args)
        with pytest.raises(TypeError):
            trinomial_row(*args)


class TestClosedForms:
    def test_binom_route_values(self):
        assert sigma_entry_binom(5, 5, 0) == 2
        assert sigma_entry_binom(5, 9, 2) == 72
        for d in range(2, 7):
            assert sigma_entry_binom(d, 0, 0) == 1

    def test_direct_route_values(self):
        assert sigma_entry_direct(8, 4, 3, 2) == 14
        assert sigma_entry_direct(8, 9, 5, 2) == 336

    @pytest.mark.parametrize("d,n,k", [(5, True, 0), (True, 3, 0), (5, 3, True), (5, 3.0, 0)])
    def test_closed_forms_refuse_non_integers(self, d, n, k):
        with pytest.raises(TypeError, match="must be an integer"):
            sigma_entry_binom(d, n, k)
        with pytest.raises(TypeError, match="must be an integer"):
            sigma_entry_direct(d, n, k, 0)
        for y0 in (0, 1):
            with pytest.raises(TypeError, match="must be an integer"):
                trinomial_p_entry(d, n, k, y0)

    def test_direct_collapses_to_binom_at_y0_zero(self):
        for d in range(2, 7):
            for n in range(0, 9):
                for k in range(-d, 2 * d):
                    assert sigma_entry_direct(d, n, k, 0) == sigma_entry_binom(d, n, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 200), st.integers(-10**6, 10**6))
    @example(2, 200, 10**6)
    @example(3, 7, -10**6)  # k < 0
    @example(5, 9, 12)  # k > n
    @example(40, 5, 33)  # d > n + 1
    def test_column_sum_is_the_literal_periodized_sum(self, d, n, k):
        # every nonzero term has j in centre .. centre + n // d, inside this window
        centre, reach = -(k // d), n // d + 2
        literal = sum(binom(n, k + d * j) for j in range(centre - reach, centre + reach))
        assert sigma_entry_binom(d, n, k) == literal

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 400))
    @example(2, 3000)
    @example(18, 3000)
    @example(3, 6000)
    @example(2, 0)
    @example(2, 1)
    @example(7, 2)
    @example(40, 3)  # d > n + 1
    @example(5, 1495)
    @example(16, 1517)
    def test_ladder_equals_the_per_column_sums(self, d, n):
        sums = _column_sums(d, n)
        assert sums == [_column_sum(d, n, r) for r in range(d)]
        assert sum(sums) == 2**n

    @pytest.mark.parametrize("d", [3, 10, 18])
    def test_direct_matches_the_kernel_at_benchmark_size(self, d):
        # n = 3000 is far past the 24-step brute-force cap
        n = 3000
        for y0 in sorted({0, min(d - 2, 8)}):
            row = sigma_row(d, n, y0)
            assert [sigma_entry_direct(d, n, k, y0) for k in range(d)] == [
                row.value_at(k) for k in range(d)
            ]

    def test_no_closed_form_runs_the_kernel(self, monkeypatch):
        calls = [
            (trinomial_p_entry, (7, 40, 11, 3)),
            (trinomial_p_entry, (4, 25, 3, 2)),
            (sigma_entry_direct, (8, 60, 5, 4)),
            (km_count_formula, (40, 41, -3, 4)),
            (infinite_corridor_count, (50, 3)),
            (km_diagonal_sum, (60, 5)),
        ]
        expected = [route(*args) for route, args in calls]

        def refused(*args):
            raise AssertionError("a closed form ran the kernel")

        monkeypatch.setattr("corridorpaths.pascal.cyclic_power", refused)
        monkeypatch.setattr("corridorpaths.pascal.trinomial_row", refused)
        assert [route(*args) for route, args in calls] == expected

    def test_route_equivalence_grid(self):
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    row = sigma_row(d, n, y0)
                    for k in range(d):
                        assert row.value_at(k) == sigma_entry_direct(d, n, k, y0)


class TestUpsampledRows:
    def test_p0(self):
        assert p_row(5, 0, 0).seq.window == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_p0_general_start(self):
        assert p_row(8, 0, 2).seq.window == (1,) * 6 + (0,) * 10

    def test_duplicated_entries(self):
        row = p_row(5, 9, 0)
        assert row.value_at(18) == 127
        assert row.value_at(19) == 127

    def test_upsample_compatibility(self):
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    assert p_row(d, n, y0).seq == sigma_row(d, n, y0).seq.upsample()

    def test_p_iteration_route(self):
        # p_n can equally be produced by n applications of I + R**2 to p_0
        for d in range(2, 7):
            for y0 in range(d - 1):
                for n in range(0, 9):
                    iterated = apply_i_plus_r2(p_row(d, 0, y0).seq, n)
                    assert iterated == p_row(d, n, y0).seq


class TestDifferenceRows:
    def test_q0(self):
        assert q_row(5, 0, 0).seq.window == (0, 1, 0, 0, 0, 0, 0, 0, 0, -1)

    def test_window_sum_zero(self):
        for d in range(2, 8):
            for y0 in range(d - 1):
                for n in range(0, 9):
                    assert sum(q_row(d, n, y0).seq.window) == 0

    def test_q_iteration_route(self):
        # q_n = (I + R**2)**n q_0
        for d in range(2, 8):
            for y0 in range(d - 1):
                for n in range(0, 11):
                    iterated = apply_i_plus_r2(q_row(d, 0, y0).seq, n)
                    assert iterated == q_row(d, n, y0).seq

    def test_shifted_q0_is_antisymmetric_pair(self):
        # L**y0 q_0 has +1 at y0+1 and -1 at -(y0+1) and nothing else
        for d in range(2, 9):
            for y0 in range(d - 1):
                e2 = unit(2 * d)
                expect = e2.shift_by(y0 + 1) - e2.shift_by(-(y0 + 1))
                assert q_row(d, 0, y0).seq.shift_by(-y0) == expect

    def test_shifted_q0_example(self):
        e2 = unit(10)
        assert q_row(5, 0, 1).seq.shift_by(-1) == e2.shift_by(2) - e2.shift_by(-2)

    def test_sign_structure(self):
        # q[n, n+y0+j]: zero at j = 0, d; >= 0 on 1..d-1; <= 0 on d+1..2d-1
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    q = q_row(d, n, y0)
                    base = n + y0
                    assert q.value_at(base) == 0
                    assert q.value_at(base + d) == 0
                    for j in range(1, d):
                        assert q.value_at(base + j) >= 0
                        assert q.value_at(base + d + j) <= 0


class TestRowExtrema:
    def test_golden_ranges(self):
        assert row_extrema(5, 7, 0).range == 21
        assert row_extrema(8, 9, 2).range == 280
        for n in range(1, 8):
            assert row_extrema(2, n, 0).range == 0

    def test_attainment_against_window_scan(self):
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    ext = row_extrema(d, n, y0)
                    window = sigma_row(d, n, y0).seq.window
                    assert ext.maximum == max(window)
                    assert ext.minimum == min(window)
                    assert ext.range == ext.maximum - ext.minimum

    def test_arg_positions_attain(self):
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    ext = row_extrema(d, n, y0)
                    row = sigma_row(d, n, y0)
                    assert row.value_at(ext.argmax_k) == ext.maximum
                    assert row.value_at(ext.argmin_k) == ext.minimum
                    assert 0 <= ext.argmax_k < d
                    assert 0 <= ext.argmin_k < d


class TestTrinomial:
    def test_row_zero(self):
        assert trinomial_row(5, 0, 0).window == (1, 1) + (0,) * 8

    def test_unwrapped_row(self):
        row = trinomial_row(100, 2, 0)
        assert tuple(row.value_at(k) for k in range(8)) == (1, 3, 5, 5, 3, 1, 0, 0)

    def test_entry_examples(self):
        assert trinomial_p_entry(100, 2, 2, 0) == 5
        for d in range(2, 7):
            assert trinomial_p_entry(d, 0, 0, 0) == 1

    def test_closed_form_equals_iteration(self):
        for d in range(2, 9):
            for n in range(0, 11):
                row = trinomial_row(d, n, 0)
                for k in range(2 * d):
                    assert trinomial_p_entry(d, n, k, 0) == row.value_at(k)

    def test_general_start_entry_matches_row(self):
        points = [(d, n, y0) for d in range(3, 7) for y0 in range(1, d - 1) for n in range(0, 8)]
        points += [(3, 118, 1), (4, 119, 2), (6, 120, 4), (9, 121, 7)]
        for d, n, y0 in points:
            row = trinomial_row(d, n, y0)
            for k in range(2 * d):
                assert trinomial_p_entry(d, n, k, y0) == row.value_at(k)

    def test_closed_form_equals_the_double_sum(self):
        for d in range(2, 9):
            for n in range(0, 41):
                for y0 in range(d - 1):
                    for k in range(2 * d):
                        assert trinomial_p_entry(d, n, k, y0) == trinomial_p_entry_double_sum(
                            d, n, k, y0
                        )

    @pytest.mark.parametrize("d", [3, 10, 18])
    def test_closed_form_matches_the_kernel_at_benchmark_size(self, d):
        # n = 600 is far past the 15-step brute-force cap
        row = trinomial_row(d, 600)
        assert [trinomial_p_entry(d, 600, k, 0) for k in range(2 * d)] == [
            row.value_at(k) for k in range(2 * d)
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 300))
    @example(6, 600)
    @example(36, 600)
    @example(1, 0)
    @example(4, 1)
    @example(5, 2)
    @example(22, 448)
    @example(45, 20)  # size > 2n + 1
    def test_ladder_folds_the_trinomial_triangle(self, size, n):
        literal = [0] * size
        for i, t in enumerate(trinomial_triangle(n)[n]):
            literal[i % size] += t
        sums = _trinomial_sums(size, n)
        assert sums == literal
        assert sum(sums) == 3**n

    def test_periodizes_the_trinomial_triangle(self):
        d = 40  # large enough that rows up to n = 8 never wrap
        s = unit(2 * d)
        for n, row in enumerate(trinomial_triangle(8)):
            assert [s.value_at(k) for k in range(len(row))] == row
            s = transition(s, TRINOMIAL_STEP)

    def test_window_sum_triples_each_row(self):
        for d in range(2, 8):
            for y0 in range(d - 1):
                for n in range(0, 8):
                    assert sum(trinomial_row(d, n, y0).window) == (2 * y0 + 2) * 3**n


class TestPascalArrayRowType:
    def test_layer_period_consistency(self):
        with pytest.raises(ValueError):
            PascalArrayRow(5, 0, 0, "sigma", PeriodicSequence(10, [0] * 10))
        with pytest.raises(ValueError):
            PascalArrayRow(5, 0, 0, "p", PeriodicSequence(5, [0] * 5))

    def test_unknown_layer(self):
        with pytest.raises(ValueError):
            PascalArrayRow(5, 0, 0, "r", PeriodicSequence(5, [0] * 5))
