"""Layer spans for the traced run.

:class:`Tracer` wraps the public functions of each ``corridorpaths`` module
(and the ``PeriodicSequence`` operators) from outside the library.  Every
module attribute bound to a wrapped function is rebound, because ``pascal``,
``corridor``, ``km`` and ``cli`` import names such as ``transition`` and
``p_row`` directly.  A span records its layer's call count and self time: the
span's duration minus the time covered by the spans it caused.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

# layer name -> (module, attributes); "module:Class" names class attributes
LAYERS = {
    "periodic.transition": ("corridorpaths.periodic", ("transition",)),
    "periodic.seq_ops": (
        "corridorpaths.periodic:PeriodicSequence",
        ("__add__", "__sub__", "shift_by", "upsample", "difference"),
    ),
    "pascal.binom": ("corridorpaths.pascal", ("binom",)),
    "pascal.sigma_entry": ("corridorpaths.pascal", ("sigma_entry_direct", "sigma_entry_binom")),
    "pascal.trinomial_p_entry": ("corridorpaths.pascal", ("trinomial_p_entry",)),
    "pascal.sigma_row": ("corridorpaths.pascal", ("sigma_row",)),
    "pascal.p_row": ("corridorpaths.pascal", ("p_row",)),
    "pascal.q_row": ("corridorpaths.pascal", ("q_row",)),
    "pascal.row_extrema": ("corridorpaths.pascal", ("row_extrema",)),
    "pascal.trinomial_row": ("corridorpaths.pascal", ("trinomial_row",)),
    "corridor.corridor_count": ("corridorpaths.corridor", ("corridor_count",)),
    "corridor.corridor_sequence": ("corridorpaths.corridor", ("corridor_sequence",)),
    "corridor.state_at": ("corridorpaths.corridor", ("state_at",)),
    "corridor.endpoint_counts": ("corridorpaths.corridor", ("endpoint_counts",)),
    "corridor.motzkin": ("corridorpaths.corridor", ("motzkin_corridor_count", "motzkin_sequence")),
    "corridor.infinite": ("corridorpaths.corridor", ("infinite_corridor_count",)),
    "km.formula": ("corridorpaths.km", ("km_count_formula",)),
    "km.via_sigma": ("corridorpaths.km", ("km_count_via_sigma",)),
    "km.diagonal_sum": ("corridorpaths.km", ("km_diagonal_sum",)),
    "oeis.parse_bfile": ("corridorpaths.oeis", ("parse_bfile", "parse_bfile_text")),
    "oeis.compare": ("corridorpaths.oeis", ("compare",)),
    "cli.run": ("corridorpaths.cli", ("run",)),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    elems: int = 0


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` afterwards.

    Call :meth:`begin_op` before and :meth:`end_op` after each timed
    operation; ``end_op`` returns the part of the operation covered by
    top-level layer spans.
    """

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.terms_compared = 0
        self.max_result_bits = 0
        self._last_periodic = None
        self._stack: list[list[float]] = [[0.0]]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stats, stack = self.stats[layer], self._stack
        periodic = layer.startswith("periodic.")
        seq_ops = layer == "periodic.seq_ops"
        oeis_compare = layer == "oeis.compare"

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                stack[-1][0] += elapsed
            if periodic:
                self._last_periodic = result
                if seq_ops:
                    stats.elems += args[0].period
            elif oeis_compare and result is not None:
                self.terms_compared += result.overlap
            return result

        return traced

    def __enter__(self) -> "Tracer":
        originals = {}
        for layer, (where, names) in LAYERS.items():
            module, _, cls = where.partition(":")
            owner = getattr(sys.modules[module], cls) if cls else sys.modules[module]
            for name in names:
                fn = getattr(owner, name)
                wrapper = self._wrap(layer, fn)
                if cls:
                    self._rebind(owner, name, wrapper)
                else:
                    originals[id(fn)] = (fn, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name == "corridorpaths" or module_name.startswith("corridorpaths."):
                for name, value in list(vars(module).items()):
                    if id(value) in originals and originals[id(value)][0] is value:
                        self._rebind(module, name, originals[id(value)][1])
        return self

    def _rebind(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def begin_op(self) -> None:
        self._stack[:] = [[0.0]]
        self._last_periodic = None

    def end_op(self) -> float:
        """Seconds of the last operation covered by layer spans.

        Also folds the bit length of the operation's last periodic result
        into ``max_result_bits``; rows only grow with ``n``, so that result
        holds the operation's largest periodic values.
        """
        last = self._last_periodic
        if last is not None:
            bits = max(map(int.bit_length, last.window), default=0)
            self.max_result_bits = max(self.max_result_bits, bits)
            self._last_periodic = None
        return self._stack[0][0]
