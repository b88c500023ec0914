"""Exact lattice-path counting in corridors via circular Pascal arrays.

Everything is computed in exact integer arithmetic.  Counting routes come in
redundant pairs (operator route vs. closed-form binomial sums vs. direct
enumeration) so results can always be cross-validated.
"""
from .corridor import (
    CorridorQuery,
    CorridorResult,
    DualCorridorState,
    EnumerationCapError,
    bruteforce_endpoint_counts,
    corridor_count,
    corridor_count_bruteforce,
    corridor_result,
    corridor_sequence,
    endpoint_counts,
    infinite_corridor_count,
    initial_state,
    motzkin_bruteforce,
    motzkin_corridor_count,
    motzkin_sequence,
    state_at,
)
from .km import (
    KmQuery,
    km_bruteforce,
    km_count_formula,
    km_count_via_sigma,
    km_diagonal_sum,
    km_in_band,
    km_to_corridor_point,
)
from .oeis import BFile, SequenceMatch, compare, parse_bfile, parse_bfile_text
from .pascal import (
    PascalArrayRow,
    RowExtrema,
    binom,
    initial_sigma,
    p_row,
    q_row,
    row_extrema,
    sigma_entry_binom,
    sigma_entry_direct,
    sigma_row,
    trinomial_p_entry,
    trinomial_row,
)
from .periodic import PeriodicSequence, transition, unit_vector

__version__ = "0.1.0"

__all__ = [
    "PeriodicSequence",
    "unit_vector",
    "transition",
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
    "CorridorQuery",
    "CorridorResult",
    "DualCorridorState",
    "EnumerationCapError",
    "initial_state",
    "state_at",
    "corridor_count",
    "corridor_result",
    "corridor_sequence",
    "endpoint_counts",
    "corridor_count_bruteforce",
    "bruteforce_endpoint_counts",
    "infinite_corridor_count",
    "motzkin_corridor_count",
    "motzkin_sequence",
    "motzkin_bruteforce",
    "KmQuery",
    "km_in_band",
    "km_count_formula",
    "km_count_via_sigma",
    "km_bruteforce",
    "km_to_corridor_point",
    "km_diagonal_sum",
    "BFile",
    "SequenceMatch",
    "parse_bfile",
    "parse_bfile_text",
    "compare",
    "__version__",
]
