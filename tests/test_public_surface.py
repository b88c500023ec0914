"""The public names of the package, and the parts of it the benchmark reads.

The benchmark under ``bench/`` looks library functions up by name, wraps
``PeriodicSequence`` operators by name and checks result attributes, so a
removal that breaks a traced run or a workload's check fails here.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import corridorpaths
from corridorpaths import p_row, q_row, row_extrema, sigma_row, state_at

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_all_is_pinned():
    assert sorted(corridorpaths.__all__) == [
        "BFile", "DEFAULT_BINARY_CAP", "DEFAULT_TERNARY_CAP", "DualCorridorState",
        "EnumerationCapError", "PASCAL_STEP", "PascalArrayRow", "PeriodicSequence",
        "RowExtrema", "SequenceMatch", "TRINOMIAL_STEP", "__version__", "binom",
        "bruteforce_endpoint_counts", "compare", "corridor_count", "corridor_count_bruteforce",
        "corridor_sequence", "cyclic_power", "endpoint_counts", "infinite_corridor_count",
        "km_bruteforce", "km_count_formula", "km_count_via_sigma",
        "km_diagonal_sum", "km_in_band", "km_to_corridor_point", "motzkin_bruteforce",
        "motzkin_corridor_count", "motzkin_sequence", "p_row", "parse_bfile",
        "parse_bfile_text", "q_row", "row_extrema", "sigma_entry_binom", "sigma_entry_direct",
        "sigma_row", "state_at", "transition", "trinomial_p_entry", "trinomial_row",
        "unlimited_int_digits",
    ]
    for name in corridorpaths.__all__:
        assert hasattr(corridorpaths, name), name


@pytest.fixture(scope="module")
def bench(request):
    sys.path.insert(0, str(BENCH))
    request.addfinalizer(lambda: sys.path.remove(str(BENCH)))
    import spans
    import workloads

    return spans, workloads


def test_every_traced_layer_resolves(bench):
    spans, _ = bench
    for where, names in spans.LAYERS.values():
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        for name in names:
            assert callable(getattr(owner, name, None)), f"{where}.{name}"


def test_every_library_op_kind_is_public(bench):
    _, workloads = bench
    for workload, mix in workloads.MIXES.items():
        if workload == "cli":  # its kinds are subcommands, run through cli.run
            continue
        for build, _ in mix:
            draws = [0.5] * len(inspect.signature(build).parameters)
            kind = build(*draws).kind
            assert kind in corridorpaths.__all__, (workload, kind)
            assert callable(getattr(corridorpaths, kind)), (workload, kind)


@pytest.mark.parametrize("route,layer", [(sigma_row, "sigma"), (p_row, "p"), (q_row, "q")])
def test_rows_expose_what_the_checks_read(route, layer):
    row = route(5, 7, 2)
    assert (row.d, row.n, row.y0, row.layer) == (5, 7, 2, layer)
    assert all(type(v) is int for v in row.seq.window)


def test_state_and_extrema_expose_what_the_checks_read():
    state = state_at(5, 7, 2)
    assert (state.d, state.n) == (5, 7)
    assert all(type(v) is int for v in state.seq.window)
    extrema = row_extrema(5, 7, 2)
    assert extrema._fields == ("maximum", "minimum", "range", "argmax_k", "argmin_k")
    assert extrema[:3] == (extrema.maximum, extrema.minimum, extrema.range)
