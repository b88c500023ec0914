"""Exact lattice-path counting in corridors via circular Pascal arrays.

Everything is computed in exact integer arithmetic.  Counting routes come in
redundant pairs (operator route vs. closed-form binomial sums vs. direct
enumeration) so results can always be cross-validated.

The package namespace is the union of the modules' ``__all__`` lists.
"""
from . import corridor, km, oeis, pascal, periodic
from .corridor import *  # noqa: F403
from .km import *  # noqa: F403
from .oeis import *  # noqa: F403
from .pascal import *  # noqa: F403
from .periodic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *periodic.__all__, *pascal.__all__, *corridor.__all__, *km.__all__, *oeis.__all__,
    "__version__",
]
