"""Independent reference routes, modulo a fixed 61-bit prime.

Every count the benchmark checks is recomputed here by a dynamic programme
or a closed form that shares no code with ``corridorpaths``: a per-height DP
for two- and three-choice walks, a Pascal DP on the periodic window for
sigma / p / q rows, a band DP for Krattenthaler-Mohanty counts and a
reflection-principle sum for the half-plane count.  Working modulo ``P``
keeps every reference cheap at any size; a library value is accepted when it
agrees with the reference modulo ``P`` (never by comparing decimal strings).
"""
from __future__ import annotations

P = (1 << 61) - 1  # Mersenne prime


def height_walk(m: int, n: int, y0: int) -> list[int]:
    """Up/down walk counts per final height in ``{0..m}`` after ``n`` steps from ``y0``."""
    v = [0] * (m + 1)
    v[y0] = 1
    for _ in range(n):
        w = [0, *v, 0]
        v = [(w[h] + w[h + 2]) % P for h in range(m + 1)]
    return v


def two_choice_sequence(m: int, n_max: int, y0: int) -> list[int]:
    """Two-choice corridor counts for lengths ``0..n_max``."""
    v = [0] * (m + 1)
    v[y0] = 1
    out = [1]
    for _ in range(n_max):
        w = [0, *v, 0]
        v = [(w[h] + w[h + 2]) % P for h in range(m + 1)]
        out.append(sum(v) % P)
    return out


def three_choice_sequence(d: int, n_max: int, y0: int) -> list[int]:
    """Three-choice counts in heights ``1..d-1`` from ``y0 + 1``, lengths ``0..n_max``."""
    v = [0] * (d - 1)
    v[y0] = 1
    out = [1]
    for _ in range(n_max):
        w = [0, *v, 0]
        v = [(w[h] + w[h + 1] + w[h + 2]) % P for h in range(d - 1)]
        out.append(sum(v) % P)
    return out


def _cyclic_power(window: list[int], n: int, shifts: tuple[int, ...]) -> list[int]:
    """Apply ``sum(R**s for s in shifts)`` ``n`` times to a periodic window."""
    v = [x % P for x in window]
    for _ in range(n):
        rotated = [v[-s:] + v[:-s] if s else v for s in shifts]
        v = [sum(column) % P for column in zip(*rotated)]
    return v


def sigma_window(d: int, n: int, y0: int) -> list[int]:
    """Row ``n`` of the circular Pascal array: Pascal DP ``(I + R)`` on the d-window."""
    return _cyclic_power([1] * (y0 + 1) + [0] * (d - y0 - 1), n, (0, 1))


def _p0(d: int, y0: int) -> list[int]:
    return [1] * (2 * y0 + 2) + [0] * (2 * d - 2 * y0 - 2)


def p_window(d: int, n: int, y0: int) -> list[int]:
    """Up-sampled row: ``(I + R**2)`` DP on the 2d-window from ``p_0``."""
    return _cyclic_power(_p0(d, y0), n, (0, 2))


def q_window(d: int, n: int, y0: int) -> list[int]:
    """Difference row: ``(I + R**2)`` DP from ``q_0[k] = p_0[k] - p_0[k+1]``."""
    p0 = _p0(d, y0)
    q0 = [p0[k] - p0[(k + 1) % (2 * d)] for k in range(2 * d)]
    return _cyclic_power(q0, n, (0, 2))


def trinomial_window(d: int, n: int, y0: int) -> list[int]:
    """Three-choice array row: ``(I + R + R**2)`` DP on the 2d-window from ``p_0``."""
    return _cyclic_power(_p0(d, y0), n, (0, 1, 2))


def state_window(d: int, n: int, y0: int) -> list[int]:
    """Dual-corridor state from per-height endpoint counts and antisymmetry."""
    ends = height_walk(d - 2, n, y0)
    w = [0] * (2 * d)
    for k in range(1, d):
        w[k] = ends[k - 1]
        w[2 * d - k] = -ends[k - 1] % P
    return w


def km_band(a: int, b: int, s: int, t: int) -> int:
    """D(a, b; s, t) by a DP over ``z = y - x`` confined to ``[s, t]``."""
    if a < 0 or b < 0 or not s <= b - a <= t:
        return 0
    v = [0] * (t - s + 1)
    v[-s] = 1
    for _ in range(a + b):
        w = [0, *v, 0]
        v = [(w[i] + w[i + 2]) % P for i in range(t - s + 1)]
    return v[b - a - s]


class Binomials:
    """``C(n, k) mod P`` from factorial tables (``P`` exceeds every ``n`` used)."""

    def __init__(self) -> None:
        self._fact = [1]
        self._inv = [1]

    def _grow(self, n: int) -> None:
        fact = self._fact
        while len(fact) <= n:
            fact.append(fact[-1] * len(fact) % P)
        inv = [0] * len(fact)
        inv[-1] = pow(fact[-1], P - 2, P)
        for k in range(len(fact) - 1, 0, -1):
            inv[k - 1] = inv[k] * k % P
        self._inv = inv

    def __call__(self, n: int, k: int) -> int:
        if k < 0 or k > n:
            return 0
        if n >= len(self._fact):
            self._grow(2 * n)
        return self._fact[n] * self._inv[k] % P * self._inv[n - k] % P


def half_plane(n: int, y0: int, comb_mod: Binomials) -> int:
    """Paths of length ``n`` from height ``y0`` that stay >= 0.

    By reflection in height -1, the count is ``sum C(n, u)`` over the
    ``y0 + 1`` up-step counts ``u`` from ``ceil((n - y0) / 2)`` on.
    """
    lo = (n - y0 + 1) // 2
    return sum(comb_mod(n, u) for u in range(max(lo, 0), lo + y0 + 1)) % P


def agrees(values, reference) -> bool:
    """True when ``values`` (exact integers) match ``reference`` modulo ``P``."""
    values = list(values)
    return len(values) == len(reference) and all(
        v % P == r % P for v, r in zip(values, reference)
    )
