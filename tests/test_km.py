"""Krattenthaler-Mohanty counts: three routes, affine map, diagonal sums."""
import pytest

from corridorpaths.corridor import EnumerationCapError, corridor_count, state_at
from corridorpaths.km import (
    km_bruteforce,
    km_count_formula,
    km_count_via_sigma,
    km_diagonal_sum,
    km_in_band,
    km_to_corridor_point,
)
from corridorpaths.pascal import binom

from golden_tables import FIBONACCI_10


def reindexed_formula(a, b, s, t):
    """The pre-re-indexed version of the closed form: second binomial at
    column a - k*(t-s+2) + s - 1, with the k-shift folded out."""
    if not km_in_band(a, b, s, t):
        return 0
    period = t - s + 2
    k_lo = -(b // period) - 2
    k_hi = a // period + 2
    total = 0
    for k in range(k_lo, k_hi + 1):
        col = a - k * period
        total += binom(a + b, col) - binom(a + b, col + s - 1)
    return total


KM_ROUTES = (km_count_formula, km_count_via_sigma, km_bruteforce)


class TestQuery:
    def test_valid(self):
        for route in KM_ROUTES:
            assert route(3, 5, 0, 2) == 8
            assert route(0, 0, -3, 0) == 1

    def test_invalid_walls(self):
        for route in KM_ROUTES + (km_in_band,):
            with pytest.raises(ValueError, match="^t must be >= 0, got -1$"):
                route(1, 1, 0, -1)
            with pytest.raises(ValueError, match="^s must be <= 0, got 1$"):
                route(1, 1, 1, 2)
        with pytest.raises(ValueError, match="^s must be <= 0, got 1$"):
            km_to_corridor_point(1, 1, 1)

    def test_out_of_band_is_a_legal_query(self):
        # past (0, 5) the paths are longer than the enumeration cap:
        # below, below and above the band
        for point in (0, 5, 0, 2), (30, 0, 0, 2), (25, 5, -2, 3), (5, 25, -2, 3):
            assert not km_in_band(*point)
            for route in KM_ROUTES:
                assert route(*point) == 0

    @pytest.mark.parametrize(
        "a,b,s,t", [(True, 1, 0, 1), (3, 5.0, 0, 2), (3.0, 5, 0, 2), (1, 1, False, 1)]
    )
    def test_non_integers(self, a, b, s, t):
        for route in KM_ROUTES + (km_in_band,):
            with pytest.raises(TypeError, match="must be an integer"):
                route(a, b, s, t)
        with pytest.raises(TypeError, match="must be an integer"):
            km_to_corridor_point(a, b, s)


class TestKnownValues:
    def test_narrow_band_count(self):
        assert km_count_formula(3, 5, 0, 2) == 8
        assert km_count_via_sigma(3, 5, 0, 2) == 8
        assert km_bruteforce(3, 5, 0, 2) == 8

    def test_catalan(self):
        assert km_count_formula(3, 3, 0, 3) == 5

    def test_empty_path(self):
        for s in range(-3, 1):
            for t in range(0, 4):
                assert km_count_formula(0, 0, s, t) == 1
                assert km_count_via_sigma(0, 0, s, t) == 1
                assert km_bruteforce(0, 0, s, t) == 1

    def test_single_right_step_blocked_by_floor(self):
        assert km_bruteforce(1, 0, 0, 2) == 0
        assert km_count_formula(1, 0, 0, 2) == 0

    def test_up_then_right(self):
        assert km_bruteforce(1, 1, 0, 1) == 1

    def test_wide_band(self):
        assert km_count_formula(4, 4, -2, 2) == 54
        assert km_bruteforce(4, 4, -2, 2) == 54


class TestOutOfBand:
    @pytest.mark.parametrize(
        "a,b,s,t",
        [(2, 5, 0, 2), (5, 1, -2, 2), (-1, 0, 0, 2), (0, -1, 0, 2), (-3, -3, -1, 1)],
    )
    def test_all_routes_return_zero(self, a, b, s, t):
        assert km_count_formula(a, b, s, t) == 0
        assert km_count_via_sigma(a, b, s, t) == 0
        if a + b <= 24 and a >= 0 and b >= 0:
            assert km_bruteforce(a, b, s, t) == 0

    def test_raw_sum_is_not_trusted_out_of_band(self):
        # the closed-form sum evaluates to -1 at (0, 2; -3, 0), so the band
        # short-circuit is load-bearing
        a, b, s, t = 0, 2, -3, 0
        period = t - s + 2
        raw = sum(
            binom(a + b, a - k * period) - binom(a + b, a - k * period + t + 1)
            for k in range(-3, 4)
        )
        assert raw == -1
        assert km_count_formula(a, b, s, t) == 0


class TestRouteAgreement:
    def test_triple_route_grid(self):
        for s in range(-2, 1):
            for t in range(0, 3):
                for a in range(0, 7):
                    for b in range(0, 7):
                        formula = km_count_formula(a, b, s, t)
                        sigma = km_count_via_sigma(a, b, s, t)
                        brute = km_bruteforce(a, b, s, t)
                        assert formula == sigma == brute, (a, b, s, t)

    @pytest.mark.parametrize(
        "a,b,s,t", [(600, 605, -5, 7), (700, 690, -12, 0), (1000, 1001, -3, 4)]
    )
    def test_formula_and_sigma_agree_past_a_plus_b_1000(self, a, b, s, t):
        assert km_in_band(a, b, s, t)
        assert km_count_via_sigma(a, b, s, t) == km_count_formula(a, b, s, t) > 0

    def test_sigma_route_evaluates_no_binomial(self, monkeypatch):
        expected = km_count_formula(40, 41, -3, 4)

        def refused(*args):
            raise AssertionError("the sigma route evaluated a binomial")

        monkeypatch.setattr("corridorpaths.pascal.binom", refused)
        assert km_count_via_sigma(40, 41, -3, 4) == expected

    def test_reindexing_identity(self):
        for s in range(-3, 1):
            for t in range(0, 4):
                for a in range(0, 8):
                    for b in range(0, 8):
                        assert km_count_formula(a, b, s, t) == reindexed_formula(a, b, s, t)

    def test_endpoint_identity_against_state(self):
        # D(a, b; s, t) = v[a+b, b-a+y0+1] with y0 = -s, d = t-s+2; the
        # identity is stated on the band a+s <= b <= a+t (position k in
        # 1..d-1, the positive half of the dual corridor)
        for s in range(-2, 1):
            for t in range(0, 3):
                d, y0 = t - s + 2, -s
                for a in range(0, 7):
                    for b in range(0, 7):
                        if not km_in_band(a, b, s, t):
                            continue
                        state = state_at(d, a + b, y0)
                        assert km_count_formula(a, b, s, t) == state.value_at(b - a + y0 + 1)


class TestAffineMap:
    def test_origin(self):
        assert km_to_corridor_point(0, 0, -1) == (0, 1)

    def test_band_endpoint(self):
        assert km_to_corridor_point(3, 5, 0) == (8, 2)

    def test_floor_maps_to_floor(self):
        for a in range(0, 6):
            for s in range(-3, 1):
                assert km_to_corridor_point(a, a + s, s) == (2 * a + s, 0)


class TestDiagonalSums:
    def test_fibonacci(self):
        assert [km_diagonal_sum(n, 3) for n in range(10)] == FIBONACCI_10

    def test_single_point(self):
        for m in range(0, 5):
            assert km_diagonal_sum(0, m) == 1

    def test_powers_of_two(self):
        assert km_diagonal_sum(8, 2) == 16

    def test_matches_corridor_counts(self):
        for m in range(0, 13):
            for n in range(0, 61):
                assert km_diagonal_sum(n, m) == corridor_count(m, n, 0)

    def test_sums_only_the_in_band_terms(self):
        # the K-M definition sums D(a, n - a; 0, m) over every a; out-of-band terms are 0
        for n, m in [(0, 0), (1, 0), (7, 0), (8, 0), (9, 3), (10, 3), (6, 9), (40, 5), (3000, 8)]:
            definition = sum(km_count_formula(a, n - a, 0, m) for a in range(n + 1))
            assert km_diagonal_sum(n, m) == definition == corridor_count(m, n, 0)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_the_kernel_at_benchmark_size(self, m):
        # n = 3000 is far past the 24-step brute-force cap
        assert km_diagonal_sum(3000, m) == corridor_count(m, 3000, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            km_diagonal_sum(-1, 2)
        with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
            km_diagonal_sum(3, -1)

    @pytest.mark.parametrize("n,m", [(True, 2), (4, True), (4.0, 2), (4, 2.0)])
    def test_non_integers(self, n, m):
        with pytest.raises(TypeError, match="must be an integer"):
            km_diagonal_sum(n, m)


class TestCap:
    def test_cap_enforced(self):
        # (12, 13) lies in the band y = x .. x + 3, so the cap is what stops it
        with pytest.raises(EnumerationCapError):
            km_bruteforce(12, 13, 0, 3)
        assert km_bruteforce(12, 13, 0, 3, cap=25) == km_count_formula(12, 13, 0, 3) == 75025
