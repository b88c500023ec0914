"""Corridor counts vs. enumeration oracles, dual-corridor states, Motzkin."""
import itertools

import pytest

from corridorpaths.corridor import (
    DualCorridorState,
    EnumerationCapError,
    bruteforce_endpoint_counts,
    corridor_count,
    corridor_count_bruteforce,
    corridor_sequence,
    endpoint_counts,
    infinite_corridor_count,
    motzkin_bruteforce,
    motzkin_corridor_count,
    motzkin_sequence,
    state_at,
)
from corridorpaths.km import km_bruteforce, km_count_formula, km_diagonal_sum
from corridorpaths.pascal import (
    PASCAL_STEP, TRINOMIAL_STEP, binom, q_row, row_extrema, sigma_entry_direct, trinomial_p_entry,
)
from corridorpaths.periodic import PeriodicSequence, transition

from golden_tables import FIBONACCI_10


CORRIDOR_ROUTES = (corridor_count, corridor_sequence, endpoint_counts)


class TestQueryValidation:
    @pytest.mark.parametrize("m,n,y0", [(-1, 0, 0), (3, -1, 0), (3, 0, 4), (3, 0, -1)])
    def test_invalid(self, m, n, y0):
        for route in CORRIDOR_ROUTES:
            with pytest.raises(ValueError):
                route(m, n, y0)

    @pytest.mark.parametrize("a,n,y0", [(True, 0, 0), (3, 2.0, 0), (3, 0, True)])
    def test_non_integers(self, a, n, y0):
        for route in CORRIDOR_ROUTES:
            with pytest.raises(TypeError):
                route(a, n, y0)
        with pytest.raises(TypeError):
            state_at(a, n, y0)

    @pytest.mark.parametrize(
        "route,args,message",
        [
            (corridor_count, (-1, 2), "m must be >= 0, got -1"),
            (corridor_count, (3, 2, 4), "y0 must be in [0, 3], got 4"),
            (corridor_sequence, (3, -1), "n_max must be >= 0, got -1"),
            (endpoint_counts, (3, -2), "n must be >= 0, got -2"),
            (motzkin_sequence, (4, -1), "n_max must be >= 0, got -1"),
            (motzkin_corridor_count, (1, 3), "d must be >= 2, got 1"),
        ],
    )
    def test_messages_name_the_parameter(self, route, args, message):
        with pytest.raises(ValueError) as info:
            route(*args)
        assert str(info.value) == message


def paper_v0(d, y0):
    """The paper's start state v_0, built by hand: +1 at k = y0 + 1, -1 at
    k = -(y0 + 1), period 2d; independent of ``state_at``."""
    window = [0] * (2 * d)
    window[y0 + 1] = 1
    window[-(y0 + 1)] = -1
    return PeriodicSequence(2 * d, window)


class TestDualCorridorState:
    def test_initial_window(self):
        assert state_at(5, 0, 0).seq.window == (0, 1, 0, 0, 0, 0, 0, 0, 0, -1)

    def test_initial_general_start(self):
        v0 = state_at(5, 0, 1)
        assert v0.value_at(2) == 1
        assert v0.value_at(-2) == -1
        assert sum(1 for k in range(10) if v0.seq.window[k] != 0) == 2

    def test_initial_equals_shifted_difference_row(self):
        for d in range(2, 9):
            for y0 in range(d - 1):
                shifted = q_row(d, 0, y0).seq.shift_by(-y0)
                assert paper_v0(d, y0) == shifted

    def test_state_after_five_steps(self):
        v5 = state_at(5, 5, 0)
        assert v5.value_at(2) == 5
        assert v5.value_at(4) == 3
        assert v5.value_at(0) == 0
        assert v5.value_at(5) == 0
        assert v5.value_at(-2) == -5
        assert v5.value_at(-4) == -3

    def test_step_zero_is_initial(self):
        for d in range(2, 7):
            for y0 in range(d - 1):
                assert state_at(d, 0, y0) == DualCorridorState(d, 0, paper_v0(d, y0))

    def test_structure_holds_at_every_step(self):
        # zeros at 0 and +-d, antisymmetry, signs: enforced by the type,
        # so construction succeeding is already the assertion; spot-check too.
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    v = state_at(d, n, y0)
                    assert v.value_at(0) == 0
                    assert v.value_at(d) == 0
                    assert v.value_at(-d) == 0
                    for k in range(1, d):
                        assert v.value_at(-k) == -v.value_at(k)
                        assert v.value_at(k) >= 0

    def test_state_equals_shifted_difference_row(self):
        # v_n = L**(n + y0) q_n
        for d in range(2, 9):
            for y0 in range(d - 1):
                for n in range(0, 13):
                    shifted = q_row(d, n, y0).seq.shift_by(-(n + y0))
                    assert state_at(d, n, y0).seq == shifted

    def test_state_equals_iterated_corridor_step(self):
        # the paper's route: (L + R)**n on the initial state, one step at a time
        for d in range(2, 9):
            for y0 in range(d - 1):
                v = paper_v0(d, y0)
                for n in range(0, 41):
                    assert state_at(d, n, y0).seq == v
                    v = transition(v, (0, 1) + (0,) * (2 * d - 3) + (1,))  # R + L

    def test_type_rejects_broken_invariants(self):
        with pytest.raises(ValueError):  # wrong period
            DualCorridorState(5, 0, PeriodicSequence(5, [0] * 5))
        with pytest.raises(ValueError):  # nonzero at k = 0
            DualCorridorState(2, 0, PeriodicSequence(4, [1, 1, 0, -1]))
        with pytest.raises(ValueError):  # not antisymmetric
            DualCorridorState(2, 0, PeriodicSequence(4, [0, 1, 0, 1]))
        with pytest.raises(ValueError):  # negative on the positive side
            DualCorridorState(2, 0, PeriodicSequence(4, [0, -1, 0, 1]))


class TestTwoChoiceCounts:
    def test_fibonacci_ranges(self):
        assert corridor_sequence(3, 9) == FIBONACCI_10

    def test_known_values(self):
        assert corridor_count(6, 9, 2) == 280
        assert corridor_count(2, 8, 0) == 16

    def test_width_zero(self):
        assert corridor_count(0, 0, 0) == 1
        for n in range(1, 8):
            assert corridor_count(0, n, 0) == 0

    def test_sequence_matches_single_counts(self):
        for m in range(0, 5):
            for y0 in range(m + 1):
                seq = corridor_sequence(m, 10, y0)
                assert seq == [corridor_count(m, n, y0) for n in range(11)]

    def test_oracle_equivalence(self):
        for m in range(0, 5):
            for n in range(0, 11):
                for y0 in range(m + 1):
                    assert corridor_count(m, n, y0) == corridor_count_bruteforce(m, n, y0)

    def test_endpoint_counts_match_oracle(self):
        for m in range(0, 5):
            for n in range(0, 9):
                for y0 in range(m + 1):
                    via_state = endpoint_counts(m, n, y0)
                    via_walks = bruteforce_endpoint_counts(m, n, y0)
                    assert via_state == via_walks
                    assert sum(via_state) == corridor_count(m, n, y0)

    def test_endpoints_parity(self):
        # a length-n path ends at a height of the same parity as y0 + n
        for height, count in enumerate(endpoint_counts(5, 6, 1)):
            if (height - 1 - 6) % 2 != 0:
                assert count == 0

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            corridor_count_bruteforce(2, 25)
        assert corridor_count_bruteforce(2, 25, cap=25) == corridor_count(2, 25)


class TestInfiniteCorridor:
    def test_example(self):
        assert infinite_corridor_count(4, 2) == 14

    def test_central_binomial(self):
        from math import comb

        assert infinite_corridor_count(6, 0) == comb(6, 3) == 20
        for n in range(0, 21):
            assert infinite_corridor_count(n, 0) == comb(n, n // 2)

    def test_empty_path(self):
        for y0 in range(0, 5):
            assert infinite_corridor_count(0, y0) == 1

    def test_saturation(self):
        for n in range(0, 11):
            for y0 in range(0, 4):
                expect = infinite_corridor_count(n, y0)
                for m in range(n + y0, n + y0 + 4):
                    assert corridor_count(m, n, y0) == expect

    def test_counts_bounded_prefix_sums(self):
        # tuples (r_1..r_n) in {-1, +1} with all prefix sums >= -y0
        for y0 in range(0, 3):
            for n in range(0, 15):
                walks = 0
                for steps in itertools.product((-1, 1), repeat=n):
                    total = 0
                    for r in steps:
                        total += r
                        if total < -y0:
                            break
                    else:
                        walks += 1
                assert infinite_corridor_count(n, y0) == walks

    @pytest.mark.parametrize("y0", [0, 1, 5, 8])
    def test_binomials_equal_the_circular_pascal_entry(self, y0):
        # order n + y0 + 2 > n: each column of the entry holds at most one binomial
        for n in (0, 1, 2, 7, 499, 500, 3001, 6000):
            entry = sigma_entry_direct(n + y0 + 2, n, (n + y0) // 2, y0)
            assert infinite_corridor_count(n, y0) == entry

    def test_equals_the_full_start_window_sum(self):
        # all y0 + 1 columns of the entry, also the ones past row n's support
        def full_sum(n, y0):
            return sum(binom(n, (n + y0) // 2 - i) for i in range(y0 + 1))

        for n in range(120):
            for y0 in range(200):
                assert infinite_corridor_count(n, y0) == full_sum(n, y0)
        assert infinite_corridor_count(5, 10**6) == 2**5

    def test_validation(self):
        with pytest.raises(ValueError):
            infinite_corridor_count(-1, 0)
        with pytest.raises(ValueError):
            infinite_corridor_count(3, -1)

    @pytest.mark.parametrize("args,name", [((2.0,), "n"), ((3, 1.0), "y0"), ((True,), "n")])
    def test_type_errors_name_the_parameter(self, args, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            infinite_corridor_count(*args)


class TestMotzkin:
    def test_single_level_corridor(self):
        for n in range(0, 8):
            assert motzkin_corridor_count(2, n, 0) == 1
        assert motzkin_bruteforce(2, 5, 0) == 1

    def test_small_values(self):
        assert motzkin_corridor_count(3, 2, 0) == 4
        assert motzkin_corridor_count(4, 2, 0) == 5
        assert motzkin_bruteforce(3, 2, 0) == 4
        assert motzkin_bruteforce(4, 2, 0) == 5

    def test_empty_path(self):
        for d in range(2, 6):
            for y0 in range(d - 1):
                assert motzkin_bruteforce(d, 0, y0) == 1

    def test_two_levels_double_each_step(self):
        for n in range(0, 10):
            assert motzkin_corridor_count(3, n, 0) == 2**n

    def test_oracle_equivalence(self):
        for d in range(2, 6):
            for n in range(0, 9):
                for y0 in range(d - 1):
                    assert motzkin_corridor_count(d, n, y0) == motzkin_bruteforce(d, n, y0)

    def test_sequence_matches_single_counts(self):
        for d in range(2, 6):
            for y0 in range(d - 1):
                seq = motzkin_sequence(d, 9, y0)
                assert seq == [motzkin_corridor_count(d, n, y0) for n in range(10)]

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            motzkin_bruteforce(3, 16)
        assert motzkin_bruteforce(3, 16, cap=16) == motzkin_corridor_count(3, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            motzkin_corridor_count(1, 3, 0)
        with pytest.raises(ValueError):
            motzkin_corridor_count(4, 3, 3)


class TestSteppedSequences:
    """``corridor_sequence`` and ``motzkin_sequence`` step the paper's
    recurrence from the start window, independently of the kernel."""

    def test_no_kernel_call(self, monkeypatch):
        corridors = [(m, y0) for m in range(6) for y0 in range(m + 1)]
        motzkins = [(d, y0) for d in range(2, 7) for y0 in range(d - 1)]
        expected = (
            [[corridor_count(m, n, y0) for n in range(13)] for m, y0 in corridors],
            [[motzkin_corridor_count(d, n, y0) for n in range(13)] for d, y0 in motzkins],
        )

        def refused(*args):
            raise AssertionError("a stepped sequence ran the kernel")

        for name in ("periodic.cyclic_power", "pascal.cyclic_power", "pascal.sigma_row",
                     "pascal.trinomial_row", "corridor.trinomial_row", "corridor.row_extrema"):
            monkeypatch.setattr(f"corridorpaths.{name}", refused)
        monkeypatch.setattr("corridorpaths.corridor.cyclic_power", refused, raising=False)
        assert (
            [corridor_sequence(m, 12, y0) for m, y0 in corridors],
            [motzkin_sequence(d, 12, y0) for d, y0 in motzkins],
        ) == expected

    @pytest.mark.parametrize("n_max", [0, 1, 7])
    def test_one_transition_per_step(self, monkeypatch, n_max):
        calls = []

        def spy(seq, poly):
            calls.append(poly)
            return transition(seq, poly)

        monkeypatch.setattr("corridorpaths.corridor.transition", spy)
        corridor_sequence(4, n_max, 1)
        assert calls == [PASCAL_STEP] * n_max
        calls.clear()
        motzkin_sequence(5, n_max, 1)
        assert calls == [TRINOMIAL_STEP] * n_max


class TestWideCorridors:
    """A path of length n from height y0 stays at or below y0 + n, so a wider
    corridor has the count of the reachable width."""

    def test_counts_equal_their_value_at_the_reachable_width(self):
        for n in range(9):
            for y0 in range(4):
                top = y0 + n
                count, three = corridor_count(top, n, y0), motzkin_corridor_count(top + 2, n, y0)
                for m in (*range(top, top + 4), top + 50):
                    d = m + 2
                    # unclamped routes: enumeration, the kernel at width m, the closed forms
                    assert corridor_count(m, n, y0) == count
                    assert corridor_count_bruteforce(m, n, y0) == count
                    assert sum(endpoint_counts(m, n, y0)) == count
                    assert row_extrema(d, n, y0).range == count
                    assert corridor_sequence(m, n, y0)[n] == count
                    assert motzkin_corridor_count(d, n, y0) == three
                    assert motzkin_bruteforce(d, n, y0) == three
                    high, low = (trinomial_p_entry(d, n, k, y0) for k in (n + y0, n + y0 + d))
                    assert high - low == three
                    assert motzkin_sequence(d, n, y0)[n] == three
            diagonal = sum(km_count_formula(a, n - a, 0, n + 50) for a in range(n + 1))
            for m in (n, n + 1, n + 50):
                assert km_diagonal_sum(n, m) == km_diagonal_sum(n, n) == diagonal

    def test_width_a_billion(self):
        m = 10**9
        assert corridor_count(m, 3) == 3 and corridor_sequence(m, 3) == [1, 1, 2, 3]
        assert motzkin_corridor_count(m, 3) == 13 and motzkin_sequence(m, 3) == [1, 2, 5, 13]
        assert [km_diagonal_sum(n, m) for n in range(4)] == [1, 1, 2, 3]


def fibonacci(n):
    """F(n) by fast doubling, independent of the corridor machinery."""
    a, b = 0, 1  # F(0), F(1)
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


class TestBeyondEnumerationCaps:
    """Exact invariants at n = 10**5, far past the brute-force caps."""

    N = 10**5

    def test_fibonacci_recurrence(self):
        counts = [corridor_count(3, n) for n in (self.N, self.N + 1, self.N + 2)]
        assert counts[2] == counts[1] + counts[0]
        assert counts[0] == fibonacci(self.N + 1)

    @pytest.mark.parametrize("m,y0", [(1, 0), (3, 2), (6, 3), (10, 0)])
    def test_endpoint_counts_sum_to_count(self, m, y0):
        ends = endpoint_counts(m, self.N, y0)
        assert len(ends) == m + 1 and min(ends) >= 0
        assert sum(ends) == corridor_count(m, self.N, y0)

    def test_oracles_are_not_limited_by_recursion_depth(self):
        # width 1 forces a zigzag, the K-M band -1 <= y - x <= 0 a staircase
        # and d = 2 a single level: one path each, 3000 steps deep
        n = 3000
        assert bruteforce_endpoint_counts(1, n, 0, cap=n) == (1, 0)
        assert motzkin_bruteforce(2, n, cap=n) == 1
        assert km_bruteforce(n // 2, n // 2, -1, 0, cap=n) == 1
