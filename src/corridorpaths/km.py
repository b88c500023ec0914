"""Krattenthaler-Mohanty path counts: monotonic lattice paths between two
diagonal walls.

``D(a, b; s, t)`` counts monotonic (right/up) lattice paths from the origin to
``(a, b)`` that never cross ``y = x + s`` or ``y = x + t``, where
``t >= 0 >= s``.  Three independent routes are provided:

* ``km_count_formula``   - the binomial double-difference sum (closed form),
* ``km_count_via_sigma`` - difference of adjacent circular-Pascal entries,
* ``km_bruteforce``      - path enumeration on an explicit stack (the oracle).

An affine change of coordinates, ``(a, b) -> (a + b, b - a - s)``, turns these
paths into corridor paths of width ``t - s`` starting at height ``-s``; summing
``D`` over a diagonal therefore reproduces a corridor count.

Whenever the endpoint lies outside the band (``b > a + t`` or ``b < a + s``)
or has a negative coordinate, the count is 0 by definition, and every route
short-circuits: the closed-form sum is not trusted out of band.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corridor import DEFAULT_BINARY_CAP, EnumerationCapError
from .pascal import binom, sigma_entry_direct
from .periodic import check_int

__all__ = [
    "KmQuery",
    "km_in_band",
    "km_count_formula",
    "km_count_via_sigma",
    "km_bruteforce",
    "km_to_corridor_point",
    "km_diagonal_sum",
]


@dataclass(frozen=True)
class KmQuery:
    """Endpoint (a, b) and wall offsets s <= 0 <= t.

    No band constraint is imposed between b and a + s, a + t: out-of-band
    endpoints are legal queries whose count is 0.
    """

    a: int
    b: int
    s: int
    t: int

    def __post_init__(self):
        for name in ("a", "b", "s", "t"):
            check_int(name, getattr(self, name))
        if self.t < 0 or self.s > 0:
            raise ValueError(
                f"wall offsets must satisfy t >= 0 >= s, got s={self.s}, t={self.t}"
            )


def km_in_band(a: int, b: int, s: int, t: int) -> bool:
    """True when (a, b) is reachable in principle: both coordinates
    nonnegative and ``a + s <= b <= a + t``."""
    return a >= 0 and b >= 0 and a + s <= b <= a + t


def km_count_formula(a: int, b: int, s: int, t: int) -> int:
    """Closed form:

        D = sum_k [ C(a+b, a - k*(t-s+2)) - C(a+b, a - k*(t-s+2) + t + 1) ]

    The k-range is derived from the support of the binomials (finite), padded
    by one on each side to cover the shifted second term.
    """
    KmQuery(a, b, s, t)
    if not km_in_band(a, b, s, t):
        return 0
    period = t - s + 2
    k_lo = -(b // period) - 1
    k_hi = a // period + 1
    total = 0
    for k in range(k_lo, k_hi + 1):
        col = a - k * period
        total += binom(a + b, col) - binom(a + b, col + t + 1)
    return total


def km_count_via_sigma(a: int, b: int, s: int, t: int) -> int:
    """Circular-Pascal route: with d = t - s + 2 and start offset -s,

        D = sigma[a+b, b-s] - sigma[a+b, b-s+1].
    """
    KmQuery(a, b, s, t)
    if not km_in_band(a, b, s, t):
        return 0
    d = t - s + 2
    return sigma_entry_direct(d, a + b, b - s, -s) - sigma_entry_direct(
        d, a + b, b - s + 1, -s
    )


def km_bruteforce(a: int, b: int, s: int, t: int, cap: int = DEFAULT_BINARY_CAP) -> int:
    """Oracle: depth-first enumeration of the monotonic paths themselves."""
    KmQuery(a, b, s, t)
    if a < 0 or b < 0:
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
    return (a + b, b - a - s)


def km_diagonal_sum(n: int, m: int) -> int:
    """Sum of D(a, b; 0, m) over the diagonal a + b = n.

    Equals the width-``m`` corridor count of length ``n`` starting at the
    floor.
    """
    check_int("n", n)
    check_int("m", m)
    if n < 0:
        raise ValueError(f"diagonal index n must be >= 0, got {n}")
    if m < 0:
        raise ValueError(f"corridor width m must be >= 0, got {m}")
    return sum(km_count_formula(a, n - a, 0, m) for a in range(n + 1))
