"""Circular Pascal arrays and their up-sampled / differenced companions.

The circular Pascal array of order ``d`` wraps Pascal's triangle around a
cylinder of circumference ``d``: row ``n``, column ``k`` holds

    sigma[n, k] = sum_j C(n, k + d*j)

which is d-periodic in ``k`` and obeys the usual two-term Pascal recurrence.
Row ``n`` is ``(I + R)**n`` applied to the start window.  It is computed
here either by :func:`~corridorpaths.periodic.cyclic_power` (the operator
route, O(log n) big-int multiplications) or by evaluating the binomial sum
directly (the closed-form cross-check route).  Stepping the recurrence one
row at a time with :func:`~corridorpaths.periodic.transition` is the paper's
construction and the tests' reference.

Three layers share the (d, n, y0) coordinates:

* ``sigma``: the base d-periodic row; starts from ``y0 + 1`` leading ones.
* ``p``:     the up-sampled row ``U(sigma)``, 2d-periodic, every entry doubled.
* ``q``:     the forward difference ``D(p)``, 2d-periodic, window sums to 0.

Row maxima/minima of ``p`` sit on fixed diagonals (``k = n + y0`` and
``k = n + y0 + d``), which is what ties row ranges to corridor path counts.
Since ``p[k] = sigma[floor(k/2)]`` they are read straight off the sigma row.
The trinomial variants replace ``I + R`` with ``T = I + R + R**2`` and
periodize the trinomial triangle instead of Pascal's.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .periodic import PeriodicSequence, check_int, cyclic_power

__all__ = [
    "PascalArrayRow",
    "RowExtrema",
    "binom",
    "initial_sigma",
    "sigma_row",
    "sigma_entry_binom",
    "sigma_entry_direct",
    "p_row",
    "q_row",
    "row_extrema",
    "trinomial_row",
    "trinomial_p_entry",
]

LAYERS = ("sigma", "p", "q")


def binom(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class PascalArrayRow:
    """One row of a circular Pascal array, tagged with its coordinates.

    ``layer`` is ``"sigma"`` (period d), ``"p"`` (up-sampled, period 2d) or
    ``"q"`` (difference of p, period 2d).
    """

    d: int
    n: int
    y0: int
    layer: str
    seq: PeriodicSequence

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(f"layer must be one of {LAYERS}, got {self.layer!r}")
        expected = self.d if self.layer == "sigma" else 2 * self.d
        if self.seq.period != expected:
            raise ValueError(
                f"layer {self.layer!r} requires period {expected}, "
                f"got {self.seq.period}"
            )

    def value_at(self, k: int) -> int:
        return self.seq.value_at(k)


class RowExtrema(NamedTuple):
    maximum: int
    minimum: int
    range: int
    argmax_k: int
    argmin_k: int


def _check_params(d: int, n: int, y0: int) -> None:
    """Validate array coordinates: integers with d >= 2, n >= 0, 0 <= y0 <= d-2."""
    for name, value in (("d", d), ("n", n), ("y0", y0)):
        check_int(name, value)
    if d < 2:
        raise ValueError(f"order d must be >= 2, got {d}")
    if n < 0:
        raise ValueError(f"row index n must be >= 0, got {n}")
    if not 0 <= y0 <= d - 2:
        raise ValueError(f"y0 must satisfy 0 <= y0 <= d-2 = {d - 2}, got {y0}")


def initial_sigma(d: int, y0: int) -> PascalArrayRow:
    """Row 0: ``y0 + 1`` ones followed by ``d - (y0 + 1)`` zeros."""
    _check_params(d, 0, y0)
    window = (1,) * (y0 + 1) + (0,) * (d - y0 - 1)
    return PascalArrayRow(d, 0, y0, "sigma", PeriodicSequence(d, window))


def sigma_row(d: int, n: int, y0: int = 0) -> PascalArrayRow:
    """Row ``n`` of the order-``d`` circular Pascal array: ``(I + R)**n``
    applied to row 0, by :func:`~corridorpaths.periodic.cyclic_power`.

    Cost is O(log n) multiplications of integers of about ``d * n`` bits,
    plus ``d * (y0 + 1)`` additions.
    """
    _check_params(d, n, y0)
    seq = cyclic_power((1, 1), n, initial_sigma(d, y0).seq)
    return PascalArrayRow(d, n, y0, "sigma", seq)


def sigma_entry_binom(d: int, n: int, k: int) -> int:
    """Closed form for the y0 = 0 array: sum of C(n, k + d*j) over all j."""
    for name, value in (("d", d), ("n", n), ("k", k)):
        check_int(name, value)
    if d < 2:
        raise ValueError(f"order d must be >= 2, got {d}")
    if n < 0:
        raise ValueError(f"row index n must be >= 0, got {n}")
    # Nonzero terms need 0 <= k + d*j <= n.
    j_lo = -(k // d)
    j_hi = (n - k) // d
    return sum(binom(n, k + d * j) for j in range(j_lo, j_hi + 1))


def sigma_entry_direct(d: int, n: int, k: int, y0: int = 0) -> int:
    """Closed form for general y0: the y0 = 0 sums at columns k, k-1, ..., k-y0.

    Agrees with ``sigma_row(d, n, y0).value_at(k)`` everywhere.
    """
    _check_params(d, n, y0)
    check_int("k", k)
    return sum(sigma_entry_binom(d, n, k - i) for i in range(y0 + 1))


def p_row(d: int, n: int, y0: int = 0) -> PascalArrayRow:
    """The up-sampled row ``U(sigma_n)``; 2d-periodic with every entry doubled."""
    base = sigma_row(d, n, y0)
    return PascalArrayRow(d, n, y0, "p", base.seq.upsample())


def q_row(d: int, n: int, y0: int = 0) -> PascalArrayRow:
    """The difference row ``D(p_n)``; equivalently ``(I + R**2)**n`` applied to q_0."""
    up = p_row(d, n, y0)
    return PascalArrayRow(d, n, y0, "q", up.seq.difference())


def row_extrema(d: int, n: int, y0: int = 0) -> RowExtrema:
    """Max, min, and range of row ``n``, read off the fixed extremal diagonals.

    The maximum of ``p_n`` is attained at ``k = n + y0`` and the minimum at
    ``k = n + y0 + d`` (attainment, not uniqueness).  ``argmax_k``/``argmin_k``
    are those positions mapped back to sigma-layer columns, ``floor(k/2) mod d``.
    The range equals a corridor path count; see :mod:`corridorpaths.corridor`.
    """
    sigma = sigma_row(d, n, y0).seq
    maximum = sigma.value_at((n + y0) // 2)
    minimum = sigma.value_at((n + y0 + d) // 2)
    return RowExtrema(
        maximum=maximum,
        minimum=minimum,
        range=maximum - minimum,
        argmax_k=((n + y0) // 2) % d,
        argmin_k=((n + y0 + d) // 2) % d,
    )


def trinomial_row(d: int, n: int, y0: int = 0) -> PeriodicSequence:
    """Row ``n`` of the three-choice array: ``T**n`` applied to the up-sampled
    start window (``2*y0 + 2`` ones), with ``T = I + R + R**2``.

    For y0 = 0 and large d this periodizes the trinomial triangle
    (rows 1; 1,3,5,5,3,1 appear unwrapped once 2d exceeds the row support).
    Computed by :func:`~corridorpaths.periodic.cyclic_power`: O(log n)
    multiplications of integers of about ``3.2 * d * n`` bits.
    """
    _check_params(d, n, y0)
    return cyclic_power((1, 1, 1), n, initial_sigma(d, y0).seq.upsample())


def trinomial_p_entry(d: int, n: int, k: int, y0: int = 0) -> int:
    """Entry ``k`` of the three-choice row ``n``.

    For y0 = 0 this evaluates the closed-form double sum

        sum_{j=0..n} C(n, j) * sum_m C(j+1, 2*d*m - j + k)

    exactly; for y0 > 0 no closed form is used and the value comes from
    the operator route, :func:`trinomial_row` (both routes agree where both
    apply).
    """
    _check_params(d, n, y0)
    if y0 > 0:
        return trinomial_row(d, n, y0).value_at(k)
    kk = k % (2 * d)
    total = 0
    for j in range(n + 1):
        outer = binom(n, j)
        # Nonzero inner terms need 0 <= 2*d*m - j + kk <= j + 1.
        m_lo = -((kk - j) // (2 * d))
        m_hi = (2 * j + 1 - kk) // (2 * d)
        inner = sum(binom(j + 1, 2 * d * m - j + kk) for m in range(m_lo, m_hi + 1))
        total += outer * inner
    return total
