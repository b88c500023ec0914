"""Exact integer sequences with a declared period, and the linear operators
used to build circular Pascal arrays and corridor-state vectors.

A sequence is stored as one window of values at indices ``0 .. period-1`` and
extended to all of Z by periodicity.  Every operator returns a new sequence;
nothing is mutated, and all arithmetic is exact (Python integers).

Operator vocabulary, one method each:

* right shift  ``R``: ``R(x)[k] = x[k-1]``, ``shift_by(1)``
* left shift   ``L = R**-1``: ``L(x)[k] = x[k+1]``, ``shift_by(-1)``
* difference   ``D = I - L``: ``D(x)[k] = x[k] - x[k+1]``, ``difference()``
* up-sample    ``U``: ``U(x)[k] = x[floor(k/2)]`` (doubles the period), ``upsample()``

Every row-to-row step is a fixed polynomial in ``R`` with nonnegative
coefficients, given as a tuple ``poly`` with ``poly[i]`` the coefficient of
``R**i`` (``(1, 1)`` is ``I + R``, ``(1, 1, 1)`` is ``I + R + R**2``;
exponents at or past the period wrap, so ``L = R**(P-1)``).  Row ``n`` is
``poly(x)**n * start(x)`` in ``Z[x]/(x**P - 1)``.  :func:`cyclic_power`
computes it in O(log n) big-int multiplications; :func:`transition` applies
one step by summing rotated copies of the window, the paper's recurrence,
kept as the reference route and for callers that need every row.  Both read
``poly`` through one parse, into its nonzero terms folded onto the period;
that is all the code they share.

Mixing two sequences of different declared periods in ``+``/``-`` is an
error: callers must up-sample or re-window explicitly.  Declared periods are
never minimized, so two windows that happen to describe the same function of
Z but with different periods compare unequal on purpose.

:func:`check_int` is the one coordinate validator of the package.  The
private ``_Record`` base gives :class:`PeriodicSequence` and the row and
state records of ``pascal`` and ``corridor`` their value semantics, so that
importing the package does not load ``dataclasses`` and, through it,
``inspect``, ``ast`` and ``dis``.
"""
from __future__ import annotations

import operator
from typing import Iterable, Sequence

__all__ = [
    "PeriodicSequence",
    "transition",
    "cyclic_power",
]


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields once, as class annotations, and sets each of
    them once in ``__init__``, with ``object.__setattr__`` or :meth:`_set`;
    assigning or deleting an attribute afterwards raises AttributeError.  Two
    records are equal when they have the same type and equal fields, equal
    records hash equal, and the repr is ``Name(field=value, ...)``.
    Instances keep their ``__dict__``, so ``copy`` and ``pickle`` work without
    further help.
    """

    def _set(self, *values: object) -> None:
        """Set the fields, in annotation order, to ``values``."""
        for name, value in zip(self.__annotations__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
        return f"{type(self).__name__}({fields})"


class PeriodicSequence(_Record):
    """An integer-valued, periodic function of Z.

    ``value_at(k) == window[k mod period]`` for every integer ``k`` (Euclidean
    mod, so arbitrarily negative ``k`` is fine).
    """

    period: int
    window: tuple[int, ...]

    def __init__(self, period: int, window: Iterable[int]):
        values = tuple(window)
        # operator.index takes True as 1, so booleans are refused up front
        if bool in map(type, values):
            raise TypeError("window values must be integers, not bool")
        values = tuple(map(operator.index, values))
        check_int("period", period, lo=1)
        if len(values) != period:
            raise ValueError(
                f"window length {len(values)} does not match period {period}"
            )
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "window", values)

    def value_at(self, k: int) -> int:
        return self.window[k % self.period]

    def shift_by(self, steps: int) -> "PeriodicSequence":
        """Apply R**steps (L**-steps for negative): result[k] = self[k - steps]."""
        cut = -steps % self.period
        if not cut:
            return self
        return PeriodicSequence(self.period, self.window[cut:] + self.window[:cut])

    def difference(self) -> "PeriodicSequence":
        """D = I - L; the window of the result always sums to zero."""
        return self - self.shift_by(-1)

    def upsample(self) -> "PeriodicSequence":
        """Duplicate every term: result[k] = self[floor(k/2)], period doubles."""
        return PeriodicSequence(
            2 * self.period, tuple(self.window[i // 2] for i in range(2 * self.period))
        )

    def __add__(self, other: "PeriodicSequence") -> "PeriodicSequence":
        self._check_same_period(other)
        return PeriodicSequence(self.period, map(operator.add, self.window, other.window))

    def __sub__(self, other: "PeriodicSequence") -> "PeriodicSequence":
        self._check_same_period(other)
        return PeriodicSequence(self.period, map(operator.sub, self.window, other.window))

    def _check_same_period(self, other: "PeriodicSequence") -> None:
        if not isinstance(other, PeriodicSequence):
            raise TypeError(f"expected PeriodicSequence, got {type(other).__name__}")
        if self.period != other.period:
            raise ValueError(
                f"declared periods differ ({self.period} vs {other.period}); "
                "up-sample or re-window explicitly before combining"
            )


def check_int(
    name: str, value: object, lo: int | None = None, hi: int | None = None
) -> None:
    """Raise TypeError unless ``value`` is an integer (``bool`` refused), and
    ValueError unless ``lo <= value <= hi`` (a bound of None is open)."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f"<= {hi}" if lo is None else f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _terms(poly: Sequence[int], size: int) -> dict[int, int]:
    """``poly`` folded onto period ``size`` (``R**size = I``), as its nonzero
    terms: exponent mod ``size`` -> coefficient.  A negative coefficient is
    refused before folding, where it could cancel another."""
    terms: dict[int, int] = {}
    for i, c in enumerate(map(operator.index, poly)):
        if c < 0:
            raise ValueError(f"polynomial coefficients must be >= 0, got {tuple(poly)}")
        if c:
            terms[i % size] = terms.get(i % size, 0) + c
    return terms


def transition(seq: PeriodicSequence, poly: Sequence[int]) -> PeriodicSequence:
    """One row-to-row step, ``poly(R)`` applied to ``seq``, by shifts and sums.

    ``poly`` is read as in :func:`cyclic_power`, by the same parse:
    ``poly[i]`` is the nonnegative coefficient of ``R**i``, and exponents at
    or past the period wrap.  Each folded nonzero term ``c * R**i`` adds
    ``c`` times the window rotated by ``i``, and the sum is built as one
    sequence.
    """
    w, size = seq.window, seq.period
    out = None
    for i, c in _terms(poly, size).items():
        part = w[-i:] + w[:-i]  # R**i, also for i = 0
        if c > 1:
            part = [c * v for v in part]
        out = part if out is None else list(map(operator.add, out, part))
    return PeriodicSequence(size, (0,) * size if out is None else out)


def cyclic_power(
    poly: Sequence[int], n: int, start: PeriodicSequence
) -> PeriodicSequence:
    """``poly(R)**n`` applied to ``start``: the window of
    ``poly(x)**n * start(x)`` modulo ``x**P - 1``, with ``P = start.period``.

    ``poly[i]`` is the coefficient of ``R**i`` and must be nonnegative;
    exponents at or past ``P`` wrap around.  ``start`` may be signed.

    Binary exponentiation with Kronecker substitution: each level packs the
    ``P`` coefficients into one integer, one byte-aligned slot per
    coefficient, squares it with a single multiplication and folds the high
    half back (``x**P = 1``).  Every coefficient of ``poly**e`` is at most
    ``sum(poly)**e``, so each level sizes its slots for its own exponent.
    Cost: O(log n) multiplications of integers of about ``P * n * log2(s)``
    bits (``s = sum(poly)``), then a cyclic convolution with ``start``.
    """
    check_int("n", n, lo=0)
    size = start.period
    terms = _terms(poly, size)
    s = sum(terms.values())
    raw, width, e = b"\x01" + bytes(size - 1), 1, 0  # poly**0 = 1
    for bit in bin(n)[2:]:
        e = 2 * e + (bit == "1")
        # Unfolded products obey the same bound, so no slot carries into the next.
        new = max(1, ((s**e).bit_length() + 7) // 8)
        pad, bits = bytes(new - width), 8 * new * size
        mask = (1 << bits) - 1
        x = int.from_bytes(
            b"".join(raw[k : k + width] + pad for k in range(0, size * width, width)),
            "little",
        )
        x *= x
        x = (x & mask) + (x >> bits)
        if bit == "1":
            x = sum(c * x << (8 * new * i) for i, c in terms.items())
            x = (x & mask) + (x >> bits)
        raw, width = x.to_bytes(size * new, "little"), new
    power = [int.from_bytes(raw[k : k + width], "little") for k in range(0, size * width, width)]
    out = [0] * size
    for j, b in enumerate(start.window):
        if b:
            for k in range(size):
                out[k] += b * power[k - j]
    return PeriodicSequence(size, out)
