"""Circular Pascal arrays and their up-sampled / differenced companions.

The circular Pascal array of order ``d`` wraps Pascal's triangle around a
cylinder of circumference ``d``: row ``n``, column ``k`` holds

    sigma[n, k] = sum_j C(n, k + d*j)

which is d-periodic in ``k`` and obeys the usual two-term Pascal recurrence.
Row ``n`` is ``(I + R)**n`` applied to the start window.  The two
recurrences of the package are named here once, as coefficient tuples in
``R``: :data:`PASCAL_STEP` ``= (1, 1)`` for ``I + R`` and
:data:`TRINOMIAL_STEP` ``= (1, 1, 1)`` for ``T = I + R + R**2``.  A row is
computed by :func:`~corridorpaths.periodic.cyclic_power` (the operator
route, O(log n) big-int multiplications).  An entry is also computed by the
closed-form cross-check route: :func:`sigma_entry_binom` sums its own column
``sum_j C(n, k + d*j)`` by ``math.comb``, and the K-M formula is the
difference of two such entries; one private helper yields all ``d`` such
sums of row ``n`` in one binomial-ladder pass, which
:func:`sigma_entry_direct` and the K-M diagonal sum read; a second folds the
coefficients of ``(1 + x + x**2)**n`` onto period ``2d`` in one pass of
their recurrence, which :func:`trinomial_p_entry` reads at every start.
None of them calls :func:`~corridorpaths.periodic.cyclic_power`.
Stepping the recurrence one row at a time with
:func:`~corridorpaths.periodic.transition`, from the start window, is the
paper's construction, the route of the ``*_sequence`` functions of
:mod:`corridorpaths.corridor`, and the tests' reference.

Three layers share the (d, n, y0) coordinates:

* ``sigma``: the base d-periodic row; row 0, ``sigma_row(d, 0, y0)``, is
  ``y0 + 1`` leading ones.
* ``p``:     the up-sampled row ``U(sigma)``, 2d-periodic, every entry doubled.
* ``q``:     the forward difference ``D(p)``, 2d-periodic, window sums to 0.

Row maxima/minima of ``p`` sit on fixed diagonals (``k = n + y0`` and
``k = n + y0 + d``), which is what ties row ranges to corridor path counts.
Since ``p[k] = sigma[floor(k/2)]`` they are read straight off the sigma row.
The trinomial variants replace ``I + R`` with ``T`` and periodize the
trinomial triangle instead of Pascal's.
"""
from __future__ import annotations

from itertools import cycle
from math import comb
from typing import NamedTuple

from .periodic import PeriodicSequence, _Record, check_int, cyclic_power

__all__ = [
    "PASCAL_STEP",
    "TRINOMIAL_STEP",
    "PascalArrayRow",
    "RowExtrema",
    "binom",
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
PASCAL_STEP = (1, 1)  # I + R
TRINOMIAL_STEP = (1, 1, 1)  # I + R + R**2


def binom(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


class PascalArrayRow(_Record):
    """One row of a circular Pascal array, tagged with its coordinates.

    ``layer`` is ``"sigma"`` (period d), ``"p"`` (up-sampled, period 2d) or
    ``"q"`` (difference of p, period 2d).
    """

    d: int
    n: int
    y0: int
    layer: str
    seq: PeriodicSequence

    def __init__(self, d: int, n: int, y0: int, layer: str, seq: PeriodicSequence):
        if layer not in LAYERS:
            raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
        expected = d if layer == "sigma" else 2 * d
        if seq.period != expected:
            raise ValueError(f"layer {layer!r} requires period {expected}, got {seq.period}")
        self._set(d, n, y0, layer, seq)

    def value_at(self, k: int) -> int:
        return self.seq.value_at(k)


class RowExtrema(NamedTuple):
    maximum: int
    minimum: int
    range: int
    argmax_k: int
    argmin_k: int


def _check_params(d: int, n: int, y0: int, n_name: str = "n") -> None:
    """Validate array coordinates: integers with d >= 2, n >= 0, 0 <= y0 <= d-2."""
    check_int("d", d, lo=2)
    check_int(n_name, n, lo=0)
    check_int("y0", y0, 0, d - 2)


def _start(d: int, y0: int) -> PeriodicSequence:
    """The window of row 0: ``y0 + 1`` ones followed by ``d - (y0 + 1)`` zeros."""
    return PeriodicSequence(d, (1,) * (y0 + 1) + (0,) * (d - y0 - 1))


def sigma_row(d: int, n: int, y0: int = 0) -> PascalArrayRow:
    """Row ``n`` of the order-``d`` circular Pascal array: ``(I + R)**n``
    applied to row 0, by :func:`~corridorpaths.periodic.cyclic_power`.

    Cost is O(log n) multiplications of integers of about ``d * n`` bits,
    plus ``d * (y0 + 1)`` additions.
    """
    _check_params(d, n, y0)
    return PascalArrayRow(d, n, y0, "sigma", cyclic_power(PASCAL_STEP, n, _start(d, y0)))


def _column_sums(d: int, n: int) -> list[int]:
    """All ``d`` column sums of row ``n``, unchecked: slot ``r`` is
    ``sum_j C(n, r + d*j)``, ``sigma_entry_binom(d, n, r)``.

    One pass of the binomial ladder ``C(n, i + 1) = C(n, i) * (n - i) // (i + 1)``
    over the left half of the row, ``i < n / 2``, each ``C(n, i)`` added to
    slot ``i`` mod ``d`` of ``low``.  The row is a palindrome, so its right
    half lands in slot ``r`` as ``low[(n - r) % d]``: one fold after the pass,
    plus ``C(n, n / 2)``, the middle binomial, for even ``n``.  A step is one
    big-int add, a small-int multiply and an exact small-int divide of a
    number of at most ``n`` bits, so the pass costs about ``n / 2`` such steps
    whatever ``d`` is, against about ``n / d`` ``math.comb`` calls for one
    column.  Memory is the ``d`` slots.
    """
    half = (n + 1) // 2
    low = [0] * d
    b = 1
    for r, num, den in zip(cycle(range(d)), range(n, n - half, -1), range(1, half + 1)):
        low[r] += b
        b = b * num // den
    sums = [low[r] + low[(n - r) % d] for r in range(d)]
    if n % 2 == 0:  # b is C(n, n / 2), which has no mirror image
        sums[(n // 2) % d] += b
    return sums


def _trinomial_sums(size: int, n: int) -> list[int]:
    """All ``size`` column sums of trinomial row ``n``, unchecked: slot ``r``
    is the sum of the coefficients ``t_k`` of ``(1 + x + x**2)**n`` with
    ``k`` congruent to ``r`` mod ``size``.

    One pass of the coefficient recurrence (J.C.P. Miller's power recurrence,
    Knuth TAOCP vol. 2, 4.7) ``(k + 1) t_{k+1} = (n - k) t_k + (2n - k + 1) t_{k-1}``
    from ``t_0 = 1`` over the left half of the row, ``k < n``, each ``t_k``
    added to slot ``k`` mod ``size`` of ``low``.  The row is a palindrome, so
    its right half lands in slot ``r`` as ``low[(2n - r) % size]``: one fold
    after the pass, plus the middle coefficient ``t_n``.  A step is one
    big-int add, two small-int multiplies, one add and one exact small-int
    divide of numbers of at most about ``1.6 * n`` bits, so the pass costs
    ``n`` such steps whatever ``size`` is.  Memory is the ``size`` slots.
    """
    low = [0] * size
    prev, t = 0, 1  # t_{k-1}, t_k
    # the factors n - k, 2n - k + 1 and k + 1 of step k = 0 .. n - 1
    steps = zip(cycle(range(size)), range(n, 0, -1), range(2 * n + 1, n + 1, -1), range(1, n + 1))
    for r, left, right, k1 in steps:
        low[r] += t
        prev, t = t, (left * t + right * prev) // k1
    sums = [low[r] + low[(2 * n - r) % size] for r in range(size)]
    sums[n % size] += t  # t is t_n, which has no mirror image
    return sums


def sigma_entry_binom(d: int, n: int, k: int) -> int:
    """Closed form for the y0 = 0 array: sum of C(n, k + d*j) over all j, the
    binomials of row ``n`` whose column is ``k`` mod ``d``, one ``math.comb``
    each.  The K-M formula is the difference of two of them."""
    check_int("d", d, lo=2)
    check_int("n", n, lo=0)
    check_int("k", k)
    return sum(binom(n, i) for i in range(k % d, n + 1, d))


def sigma_entry_direct(d: int, n: int, k: int, y0: int = 0) -> int:
    """Closed form for general y0: the y0 = 0 sums at columns k, k-1, ..., k-y0,
    all read from one ladder pass over row ``n``.

    Agrees with ``sigma_row(d, n, y0).value_at(k)`` everywhere.
    """
    _check_params(d, n, y0)
    check_int("k", k)
    sums = _column_sums(d, n)
    return sum(sums[(k - i) % d] for i in range(y0 + 1))


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
    start window (``2*y0 + 2`` ones), with ``T = I + R + R**2``
    (:data:`TRINOMIAL_STEP`).

    For y0 = 0 and large d this periodizes the trinomial triangle
    (rows 1; 1,3,5,5,3,1 appear unwrapped once 2d exceeds the row support).
    Computed by :func:`~corridorpaths.periodic.cyclic_power`: O(log n)
    multiplications of integers of about ``3.2 * d * n`` bits.
    """
    _check_params(d, n, y0)
    return cyclic_power(TRINOMIAL_STEP, n, _start(d, y0).upsample())


def trinomial_p_entry(d: int, n: int, k: int, y0: int = 0) -> int:
    """Entry ``k`` of the three-choice row ``n`` in closed form, at every start:
    the start window is ``2*y0 + 2`` ones, so the entry is the sum of the
    trinomial column sums at columns ``k, k-1, ..., k-2*y0-1`` mod ``2d``,
    all read from one pass of the coefficient recurrence of
    ``(1 + x + x**2)**n`` over row ``n`` (about ``n`` small-int steps).  It
    shares no code with :func:`trinomial_row`, the operator route it is
    checked against.
    """
    _check_params(d, n, y0)
    check_int("k", k)
    sums = _trinomial_sums(2 * d, n)
    return sum(sums[(k - i) % (2 * d)] for i in range(2 * y0 + 2))
