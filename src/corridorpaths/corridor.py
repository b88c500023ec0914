"""Corridor path counting: two-choice, infinite-width, and three-choice walks.

An ``m``-corridor is the lattice strip ``N x {0..m}``.  A corridor path starts
at ``(0, y0)``, takes up-right / down-right unit steps, and never leaves the
strip.  The count of length-``n`` paths equals the range of row ``n`` of the
circular Pascal array of order ``d = m + 2`` (with the matching start window),
so the operator route computes counts without any enumeration.

The dual-corridor state is the bookkeeping device behind that identity: two
mirrored corridors (heights ``1..d-1`` and ``-1..-(d-1)``) carry signed
per-vertex path counts, extended 2d-periodically, and evolve by ``L + R``.
Single counts and states are read off one sigma or trinomial row computed by
:func:`~corridorpaths.periodic.cyclic_power`; the ``*_sequence`` functions
need every length up to ``n_max`` and step the recurrence one row at a time.

Every operator-route count here is paired with an explicit depth-first
enumeration oracle (``*_bruteforce``).  The oracles walk an explicit stack,
so path length is not limited by Python's recursion depth; they are
exponential by nature and refuse lengths above a cap instead of silently
taking forever.
"""
from __future__ import annotations

from .pascal import (
    PASCAL_STEP, TRINOMIAL_STEP, _check_params, binom, q_row, row_extrema, sigma_row,
    trinomial_row,
)
from .periodic import PeriodicSequence, _Record, check_int, transition

__all__ = [
    "DEFAULT_BINARY_CAP",
    "DEFAULT_TERNARY_CAP",
    "EnumerationCapError",
    "DualCorridorState",
    "state_at",
    "corridor_count",
    "corridor_sequence",
    "endpoint_counts",
    "corridor_count_bruteforce",
    "bruteforce_endpoint_counts",
    "infinite_corridor_count",
    "motzkin_corridor_count",
    "motzkin_sequence",
    "motzkin_bruteforce",
]

DEFAULT_BINARY_CAP = 24
DEFAULT_TERNARY_CAP = 15


class EnumerationCapError(ValueError):
    """Raised when a brute-force oracle is asked to exceed its length cap."""


def _check_corridor(m: int, n: int, y0: int, n_name: str = "n") -> None:
    """Validate corridor coordinates: integers with m >= 0, n >= 0, 0 <= y0 <= m."""
    check_int("m", m, lo=0)
    check_int(n_name, n, lo=0)
    check_int("y0", y0, 0, m)


class DualCorridorState(_Record):
    """Signed incoming-path counts ``v[n, k]`` of the dual corridor at step n.

    The sequence has period ``2d``; it vanishes at ``k = 0`` and ``k = d``, is
    antisymmetric (``v[-k] = -v[k]``), and is nonnegative on ``k = 1..d-1``.
    :func:`state_at` builds it; ``state_at(d, 0, y0)`` is the start state.
    """

    d: int
    n: int
    seq: PeriodicSequence

    def __init__(self, d: int, n: int, seq: PeriodicSequence):
        if seq.period != 2 * d:
            raise ValueError(f"state sequence must have period {2 * d}, got {seq.period}")
        if seq.value_at(0) != 0 or seq.value_at(d) != 0:
            raise ValueError("state must vanish at k = 0 and k = d")
        for k in range(1, d):
            if seq.value_at(-k) != -seq.value_at(k):
                raise ValueError(f"state must be antisymmetric; fails at k = {k}")
            if seq.value_at(k) < 0:
                raise ValueError(f"state must be >= 0 on 1..d-1; fails at k = {k}")
        self._set(d, n, seq)

    def value_at(self, k: int) -> int:
        return self.seq.value_at(k)


def state_at(d: int, n: int, y0: int = 0) -> DualCorridorState:
    """State after ``n`` steps: ``(L + R)**n`` applied to the start state,
    which is +1 at ``k = y0 + 1``, -1 at ``k = -(y0 + 1)`` and 0 elsewhere.

    Computed as ``L**(n + y0)`` applied to the difference row ``q_n``, which
    comes from one sigma row; at ``n = 0`` that is the start state itself.
    """
    _check_params(d, n, y0)
    return DualCorridorState(d, n, q_row(d, n, y0).seq.shift_by(-(n + y0)))


def corridor_count(m: int, n: int, y0: int = 0) -> int:
    """Number of length-``n`` up/down paths in ``N x {0..m}`` from ``(0, y0)``:
    the range of row ``n`` of the order ``d = m + 2`` array,
    :func:`~corridorpaths.pascal.row_extrema`.
    """
    _check_corridor(m, n, y0)
    return row_extrema(m + 2, n, y0).range


def corridor_sequence(m: int, n_max: int, y0: int = 0) -> list[int]:
    """Counts for lengths 0..n_max in one pass over the sigma rows, each read
    off the extremal diagonals as in :func:`~corridorpaths.pascal.row_extrema`."""
    _check_corridor(m, n_max, y0, "n_max")
    d = m + 2
    seq = sigma_row(d, 0, y0).seq
    out = []
    for n in range(n_max + 1):
        out.append(seq.value_at((n + y0) // 2) - seq.value_at((n + y0 + d) // 2))
        seq = transition(seq, PASCAL_STEP)
    return out


def endpoint_counts(m: int, n: int, y0: int = 0) -> tuple[int, ...]:
    """Per-final-height counts (heights 0..m), read from the dual-corridor state."""
    _check_corridor(m, n, y0)
    state = state_at(m + 2, n, y0)
    return tuple(state.value_at(k) for k in range(1, m + 2))


def corridor_count_bruteforce(
    m: int, n: int, y0: int = 0, cap: int = DEFAULT_BINARY_CAP
) -> int:
    """Oracle: count by explicit enumeration of {+1, -1} step sequences."""
    return sum(bruteforce_endpoint_counts(m, n, y0, cap))


def bruteforce_endpoint_counts(
    m: int, n: int, y0: int = 0, cap: int = DEFAULT_BINARY_CAP
) -> tuple[int, ...]:
    """Oracle variant of :func:`endpoint_counts`, by depth-first enumeration."""
    _check_corridor(m, n, y0)
    return tuple(_strip_walk(m, y0, (1, -1), n, cap))


def _strip_walk(top: int, y0: int, steps: tuple[int, ...], n: int, cap: int) -> list[int]:
    """Final-height counts of the length-``n`` walks from ``y0`` with ``steps``
    that stay in ``[0, top]``, enumerated one by one on an explicit stack."""
    if n > cap:
        raise EnumerationCapError(
            f"path length {n} exceeds the enumeration cap {cap} "
            f"({len(steps)}**n step sequences); raise the cap explicitly if intended"
        )
    counts = [0] * (top + 1)
    stack = [(y0, n)]  # (height, steps remaining), one entry per open prefix
    while stack:
        height, remaining = stack.pop()
        if remaining == 0:
            counts[height] += 1
            continue
        for step in steps:
            if 0 <= height + step <= top:
                stack.append((height + step, remaining - 1))
    return counts


def infinite_corridor_count(n: int, y0: int = 0) -> int:
    """Paths of length ``n`` from ``(0, y0)`` in the half-plane ``N x N``.

    For ``m >= n + y0`` the upper wall is unreachable, so the count equals the
    ``m = n + y0`` corridor count, which collapses to a single circular Pascal
    entry, ``sigma_entry_direct(n + y0 + 2, n, (n + y0) // 2, y0)``.  Its order
    exceeds ``n``, so each of its ``y0 + 1`` columns holds at most one binomial
    of row ``n``: ``C(n, j)`` for ``j`` in ``c - y0..c``, ``c = (n + y0) // 2``.
    Only ``j`` in ``0..n`` is nonzero, so the sum takes one ``math.comb`` at the
    top column and steps the binomial ladder down, ``min(n, y0)`` steps.  For
    ``y0 = 0`` this is the central binomial coefficient ``C(n, floor(n/2))``.
    """
    check_int("n", n, lo=0)
    check_int("y0", y0, lo=0)
    c = (n + y0) // 2
    top = min(c, n)
    total = b = binom(n, top)
    for j in range(top, max(0, c - y0), -1):
        b = b * j // (n - j + 1)  # C(n, j - 1)
        total += b
    return total


def motzkin_corridor_count(d: int, n: int, y0: int = 0) -> int:
    """Three-choice (up/stay/down) paths in ``N x {1..d-1}`` from ``(0, y0+1)``.

    Same extremal-diagonal difference as :func:`corridor_count`, but on the
    trinomial-transition array.  Starts other than ``(0, 1)`` (``y0 > 0``) are
    an extension; :func:`~corridorpaths.pascal.trinomial_p_entry` gives the
    same difference in closed form at every start.
    """
    _check_params(d, n, y0)
    row = trinomial_row(d, n, y0)
    return row.value_at(n + y0) - row.value_at(n + y0 + d)


def motzkin_sequence(d: int, n_max: int, y0: int = 0) -> list[int]:
    """Three-choice counts for lengths 0..n_max in one pass."""
    _check_params(d, n_max, y0, "n_max")
    seq = trinomial_row(d, 0, y0)
    out = []
    for n in range(n_max + 1):
        out.append(seq.value_at(n + y0) - seq.value_at(n + y0 + d))
        seq = transition(seq, TRINOMIAL_STEP)
    return out


def motzkin_bruteforce(
    d: int, n: int, y0: int = 0, cap: int = DEFAULT_TERNARY_CAP
) -> int:
    """Oracle: enumerate {+1, 0, -1} step sequences staying in ``[1, d-1]``."""
    _check_params(d, n, y0)
    return sum(_strip_walk(d - 2, y0, (1, 0, -1), n, cap))  # [1, d-1] shifted down by 1
