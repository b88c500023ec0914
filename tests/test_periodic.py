"""Periodic sequences and the shift/difference/up-sample operator algebra."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corridorpaths.pascal import PASCAL_STEP, TRINOMIAL_STEP
from corridorpaths.periodic import PeriodicSequence, cyclic_power, transition


def seq(period, window):
    return PeriodicSequence(period, window)


def unit(period):
    """1 at every multiple of ``period``, else 0."""
    return PeriodicSequence(period, (1,) + (0,) * (period - 1))


def stepped(s, poly):
    """The step by the public operators: ``c`` copies of ``s.shift_by(i)``
    added one at a time for each coefficient ``c = poly[i]``."""
    out = PeriodicSequence(s.period, [0] * s.period)
    for i, c in enumerate(poly):
        for _ in range(c):
            out = out + s.shift_by(i)
    return out


def left_plus_right(period):
    """L + R as a polynomial in R: L = R**(P-1), and exponents past P wrap."""
    poly = [0] * (period + 1)
    poly[1] += 1
    poly[period - 1] += 1
    return tuple(poly)


sequences = st.integers(min_value=1, max_value=8).flatmap(
    lambda p: st.lists(
        st.integers(min_value=-50, max_value=50), min_size=p, max_size=p
    ).map(lambda w: PeriodicSequence(p, w))
)


class TestConstruction:
    def test_window_stored_as_tuple(self):
        s = seq(3, [1, 2, 3])
        assert s.window == (1, 2, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            seq(3, [1, 2])

    def test_zero_period(self):
        with pytest.raises(ValueError):
            seq(0, [])

    def test_constant_sequence(self):
        s = seq(2, [1, 1])
        assert all(s.value_at(k) == 1 for k in range(-7, 8))

    @pytest.mark.parametrize("window", [[1.9, 2], [1, True], [1.9, True], ["1", 2]])
    def test_window_values_must_be_integers(self, window):
        with pytest.raises(TypeError):
            seq(2, window)

    def test_period_must_be_an_integer(self):
        with pytest.raises(TypeError):
            seq(True, [1])

    def test_equality_is_windowwise(self):
        assert seq(2, [1, 0]) == seq(2, [1, 0])
        # same function of Z, different declared period: unequal on purpose
        assert seq(2, [1, 1]) != seq(1, [1])


class TestValueAt:
    def test_index_zero(self):
        assert seq(4, [9, 8, 7, 6]).value_at(0) == 9

    def test_negative_index_euclidean(self):
        assert seq(2, [3, 7]).value_at(-1) == 7

    @given(sequences, st.integers(-1000, 1000), st.integers(-5, 5))
    def test_periodicity(self, s, k, mult):
        assert s.value_at(k) == s.value_at(k + mult * s.period)


class TestShifts:
    def test_shift_right_unit(self):
        assert unit(5).shift_by(1).window == (0, 1, 0, 0, 0)

    def test_shift_left_unit(self):
        assert unit(5).shift_by(-1).window == (0, 0, 0, 0, 1)

    @given(sequences)
    def test_shifts_are_mutually_inverse(self, s):
        assert s.shift_by(1).shift_by(-1) == s
        assert s.shift_by(-1).shift_by(1) == s

    @given(sequences)
    def test_full_rotation_is_identity(self, s):
        assert s.shift_by(s.period) == s
        assert s.shift_by(-s.period) == s

    @given(sequences, st.integers(-10, 10), st.integers(-100, 100))
    def test_shift_by_semantics(self, s, steps, k):
        assert s.shift_by(steps).value_at(k) == s.value_at(k - steps)


class TestDifference:
    def test_difference_of_upsampled_start(self):
        p0 = seq(10, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        q0 = p0.difference()
        assert q0.window == (0, 1, 0, 0, 0, 0, 0, 0, 0, -1)
        assert q0.value_at(-1) == -1

    def test_difference_of_constant_is_zero(self):
        assert seq(3, [5, 5, 5]).difference().window == (0, 0, 0)

    @given(sequences)
    def test_window_sum_is_zero(self, s):
        assert sum(s.difference().window) == 0

    @given(sequences, st.integers(-50, 50))
    def test_pointwise(self, s, k):
        assert s.difference().value_at(k) == s.value_at(k) - s.value_at(k + 1)


class TestUpsample:
    def test_unit(self):
        assert unit(5).upsample().window == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_constant(self):
        assert seq(2, [4, 4]).upsample() == seq(4, [4, 4, 4, 4])

    def test_floor_division_at_negative_index(self):
        s = seq(3, [1, 2, 3])
        assert s.upsample().value_at(-1) == s.value_at(-1)

    @given(sequences, st.integers(-60, 60))
    def test_term_duplication(self, s, k):
        u = s.upsample()
        assert u.period == 2 * s.period
        assert u.value_at(2 * k) == s.value_at(k)
        assert u.value_at(2 * k + 1) == s.value_at(k)


class TestArithmetic:
    def test_add_and_sub(self):
        a, b = seq(2, [1, 2]), seq(2, [10, 20])
        assert (a + b).window == (11, 22)
        assert (b - a).window == (9, 18)

    def test_period_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            seq(2, [1, 1]) + seq(4, [1, 1, 1, 1])

    def test_add_non_sequence(self):
        with pytest.raises(TypeError):
            seq(2, [1, 1]) + 3


class TestTransition:
    def test_pascal_five_steps(self):
        s = unit(5)
        for _ in range(5):
            s = transition(s, (1, 1))
        assert s.window == (2, 5, 10, 10, 5)

    def test_corridor_five_steps(self):
        v = seq(10, [0, 1, 0, 0, 0, 0, 0, 0, 0, -1])
        for _ in range(5):
            v = transition(v, left_plus_right(10))
        assert v.value_at(2) == 5
        assert v.value_at(4) == 3
        assert v.value_at(0) == 0

    def test_trinomial_on_zero(self):
        z = seq(6, [0] * 6)
        assert transition(z, (1, 1, 1)) == z

    @pytest.mark.parametrize("poly", [(), (0,), (0, 0, 0)])
    def test_zero_polynomial(self, poly):
        assert transition(seq(3, [4, -1, 7]), poly) == seq(3, [0, 0, 0])

    def test_coefficient_two(self):
        s = seq(4, [1, 2, 3, 4])
        assert transition(s, (1, 2)) == s + s.shift_by(1) + s.shift_by(1)
        assert transition(s, (2,)).window == (2, 4, 6, 8)

    @pytest.mark.parametrize("poly", [(1, -1), (-1,), (1, 1, 0, 0, -1)])
    def test_negative_coefficient_refused(self, poly):
        with pytest.raises(ValueError, match="coefficients must be >= 0"):
            transition(unit(3), poly)

    @pytest.mark.parametrize(
        "poly,start",
        [
            (PASCAL_STEP, seq(5, [1, 2, 3, 4, 5])),
            (TRINOMIAL_STEP, seq(5, [1, 2, 3, 4, 5])),
            ((1, 0, 2, 1, 0, 3), seq(4, [7, -1, 0, 2])),  # longer than the period
        ],
        ids=["pascal", "trinomial", "length-6-on-period-4"],
    )
    def test_one_sequence_built_per_step(self, monkeypatch, poly, start):
        calls = []
        init = PeriodicSequence.__init__

        def counting(self, *args):
            calls.append(None)
            init(self, *args)

        def refused(*args):
            raise AssertionError("transition called a PeriodicSequence operator")

        expected = stepped(start, poly)
        monkeypatch.setattr(PeriodicSequence, "__init__", counting)
        for name in ("__add__", "__sub__", "shift_by", "upsample", "difference"):
            monkeypatch.setattr(PeriodicSequence, name, refused)
        result = transition(start, poly)
        assert len(calls) == 1
        assert result == expected

    @settings(max_examples=60)
    @given(sequences, st.lists(st.integers(min_value=0, max_value=4), max_size=20))
    @example(PeriodicSequence(1, [5]), [1, 1])
    @example(PeriodicSequence(3, [1, -2, 4]), [0, 3, 0, 0, 2, 0, 0, 1])
    def test_matches_sum_of_shifted_copies(self, s, poly):
        assert transition(s, poly) == stepped(s, poly)


class TestOperatorLaws:
    """The commutation identities the row/corridor constructions rely on."""

    @given(sequences)
    def test_difference_commutes_with_pascal_step(self, s):
        left = transition(s, (1, 1)).difference()
        right = transition(s.difference(), (1, 1))
        assert left == right

    @given(sequences)
    def test_upsample_intertwines_single_and_double_shift(self, s):
        # U (I + R) = (I + R**2) U
        left = transition(s, (1, 1)).upsample()
        u = s.upsample()
        right = u + u.shift_by(2)
        assert left == right

    @given(sequences)
    def test_corridor_step_factors_through_left_shift(self, s):
        # L + R = L (I + R**2)
        assert transition(s, left_plus_right(s.period)) == (s + s.shift_by(2)).shift_by(-1)

    @given(sequences)
    def test_operators_do_not_mutate(self, s):
        window_before = s.window
        s.shift_by(1)
        s.difference()
        s.upsample()
        transition(s, (1, 1, 1))
        assert s.window == window_before


signed_starts = st.integers(min_value=1, max_value=40).flatmap(
    lambda p: st.lists(
        st.integers(min_value=-5, max_value=5), min_size=p, max_size=p
    ).map(lambda w: PeriodicSequence(p, w))
)


polys = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6).map(tuple)


class TestCyclicPower:
    """The kernel against the paper's step-by-step recurrence."""

    @settings(max_examples=40, deadline=None)
    @given(polys, st.integers(0, 2000), signed_starts)
    @example((1, 1), 2000, PeriodicSequence(40, [(-1) ** k * (k % 6) for k in range(40)]))
    @example(
        left_plus_right(40), 1999, PeriodicSequence(40, [(-1) ** k * (k % 6) for k in range(40)])
    )
    @example((1, 1, 1), 2000, PeriodicSequence(39, [(-1) ** k * (k % 6) for k in range(39)]))
    def test_matches_transition_loop(self, poly, n, start):
        expected = start
        for _ in range(n):
            expected = transition(expected, poly)
        assert cyclic_power(poly, n, start) == expected

    def test_power_zero_is_start(self):
        s = seq(3, [4, -1, 0])
        assert cyclic_power((1, 1), 0, s) == s

    def test_exponents_wrap(self):
        # R**5 on period 3 is R**2
        assert cyclic_power((0, 0, 0, 0, 0, 1), 1, unit(3)).window == (0, 0, 1)

    def test_zero_polynomial(self):
        assert cyclic_power((0,), 4, seq(2, [1, 1])).window == (0, 0)

    def test_general_coefficients(self):
        # (2 + 3x)**3 = 8 + 36x + 54x**2 + 27x**3, wrapped mod x**3 - 1
        assert cyclic_power((2, 3), 3, unit(3)).window == (35, 36, 54)

    @pytest.mark.parametrize(
        "poly,n,error",
        [
            ((1, -1), 2, ValueError),
            ((1, 1, 0, 0, -1), 2, ValueError),  # -1 would wrap onto the 1 at R**0
            ((1, 1), -1, ValueError),
            ((1, 1), True, TypeError),
            ((1, 1), 2.0, TypeError),
            ((1, 0.5), 2, TypeError),
        ],
    )
    def test_rejects_bad_arguments(self, poly, n, error):
        with pytest.raises(error):
            cyclic_power(poly, n, unit(4))
