"""Krattenthaler-Mohanty path counts: monotonic lattice paths between two
diagonal walls.

``D(a, b; s, t)`` counts monotonic (right/up) lattice paths from the origin to
``(a, b)`` that never cross ``y = x + s`` or ``y = x + t``, where
``t >= 0 >= s``.  Three routes that share no arithmetic are provided:

* ``km_count_formula``   - the difference of two binomial column sums
  (:func:`~corridorpaths.pascal.sigma_entry_binom`, the closed form),
* ``km_count_via_sigma`` - difference of two entries of one ``cyclic_power`` row,
* ``km_bruteforce``      - path enumeration on an explicit stack (the oracle).

An affine change of coordinates, ``(a, b) -> (a + b, b - a - s)``, turns these
paths into corridor paths of width ``t - s`` starting at height ``-s``; summing
``D`` over a diagonal therefore reproduces a corridor count.

Whenever the endpoint lies outside the band (``b > a + t`` or ``b < a + s``)
or has a negative coordinate, the count is 0 by definition, and every route
short-circuits: the closed-form sum is not trusted out of band.
"""
from __future__ import annotations

from .corridor import DEFAULT_BINARY_CAP, EnumerationCapError
from .pascal import _column_sums, sigma_entry_binom, sigma_row
from .periodic import check_int

__all__ = [
    "km_in_band",
    "km_count_formula",
    "km_count_via_sigma",
    "km_bruteforce",
    "km_to_corridor_point",
    "km_diagonal_sum",
]


def _check_km(a: int, b: int, s: int, t: int) -> None:
    """Validate an endpoint (a, b) and wall offsets s <= 0 <= t.

    No band constraint is imposed between b and a + s, a + t: out-of-band
    endpoints are legal queries whose count is 0.
    """
    check_int("a", a)
    check_int("b", b)
    check_int("s", s, hi=0)
    check_int("t", t, lo=0)


def km_in_band(a: int, b: int, s: int, t: int) -> bool:
    """True when (a, b) is reachable in principle: both coordinates
    nonnegative and ``a + s <= b <= a + t``.  Checks its arguments first."""
    _check_km(a, b, s, t)
    return a >= 0 and b >= 0 and a + s <= b <= a + t


def km_count_formula(a: int, b: int, s: int, t: int) -> int:
    """Closed form:

        D = sum_k [ C(a+b, a - k*(t-s+2)) - C(a+b, a - k*(t-s+2) + t + 1) ]

    which is the difference of two y0 = 0 circular Pascal entries of order
    ``t - s + 2``, ``sigma[a+b, a] - sigma[a+b, a+t+1]``, each a sum of binomials.
    """
    if not km_in_band(a, b, s, t):
        return 0
    return sigma_entry_binom(t - s + 2, a + b, a) - sigma_entry_binom(t - s + 2, a + b, a + t + 1)


def km_count_via_sigma(a: int, b: int, s: int, t: int) -> int:
    """Circular-Pascal route: ``D = sigma[a+b, b-s] - sigma[a+b, b-s+1]``, both read
    off one ``sigma_row`` of order ``d = t - s + 2`` and start offset ``-s``."""
    if not km_in_band(a, b, s, t):
        return 0
    row = sigma_row(t - s + 2, a + b, -s)
    return row.value_at(b - s) - row.value_at(b - s + 1)


def km_bruteforce(a: int, b: int, s: int, t: int, cap: int = DEFAULT_BINARY_CAP) -> int:
    """Oracle: depth-first enumeration of the monotonic paths themselves."""
    if not km_in_band(a, b, s, t):
        return 0
    if a + b > cap:
        raise EnumerationCapError(
            f"path length {a + b} exceeds the enumeration cap {cap}; "
            "raise the cap explicitly if intended"
        )

    total = 0
    stack = [(0, 0)]  # lattice points ending the open path prefixes
    while stack:
        x, y = stack.pop()
        if x == a and y == b:
            total += 1
            continue
        if x < a and s <= y - (x + 1) <= t:
            stack.append((x + 1, y))
        if y < b and s <= (y + 1) - x <= t:
            stack.append((x, y + 1))
    return total


def km_to_corridor_point(a: int, b: int, s: int) -> tuple[int, int]:
    """Affine map onto corridor coordinates: (a, b) -> (a + b, b - a - s).

    Sends the wall ``y = x + s`` to the corridor floor, ``y = x + t`` to
    height ``t - s``, and the origin to ``(0, -s)``.
    """
    check_int("a", a)
    check_int("b", b)
    check_int("s", s, hi=0)
    return (a + b, b - a - s)


def km_diagonal_sum(n: int, m: int) -> int:
    """Sum of D(a, b; 0, m) over the diagonal a + b = n.

    Equals the width-``m`` corridor count of length ``n`` starting at the
    floor.  Each in-band term is :func:`km_count_formula`'s difference
    ``sigma[n, a] - sigma[n, a + m + 1]`` of order ``d = m + 2``, and column
    ``a + m + 1`` is column ``a - 1`` mod ``d``, so the terms telescope over
    the band ``lo <= a <= hi`` to ``sigma[n, hi] - sigma[n, lo - 1]``: two
    column sums, read from one ladder pass over row ``n``.
    """
    check_int("n", n, lo=0)
    check_int("m", m, lo=0)
    d = m + 2
    sums = _column_sums(d, n)
    # the a with a <= n - a <= a + m; an empty band (odd n, m = 0) has lo = hi + 1 and gives 0
    lo, hi = max(0, (n - m + 1) // 2), n // 2
    return sums[hi % d] - sums[(lo - 1) % d]
