"""The public names of the package, and the parts of it the benchmark reads.

The benchmark under ``bench/`` looks library functions up by name, wraps
``PeriodicSequence`` operators by name and checks result attributes, so a
removal that breaks a traced run or a workload's check fails here.
"""
import copy
import importlib
import inspect
import pickle
import sys
from pathlib import Path

import pytest

import corridorpaths
from corridorpaths import (
    BFile, DualCorridorState, PascalArrayRow, PeriodicSequence, SequenceMatch, p_row, q_row,
    row_extrema, sigma_row, state_at,
)

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


_SEQ4 = PeriodicSequence(4, (0, 1, 0, -1))

# record -> (a fresh record, an unequal one of the same type, its repr,
#            [(bad constructor call, exception type, message pattern)])
RECORDS = {
    "PeriodicSequence": (
        lambda: PeriodicSequence(2, [1, 0]), PeriodicSequence(2, (0, 1)),
        "PeriodicSequence(period=2, window=(1, 0))",
        [(lambda: PeriodicSequence(2, (1,)), ValueError,
          "^window length 1 does not match period 2$"),
         (lambda: PeriodicSequence(1, (True,)), TypeError,
          "^window values must be integers, not bool$"),
         (lambda: PeriodicSequence(0, ()), ValueError, "^period must be >= 1, got 0$")],
    ),
    "PascalArrayRow": (
        lambda: sigma_row(3, 1), sigma_row(3, 2),
        "PascalArrayRow(d=3, n=1, y0=0, layer='sigma', "
        "seq=PeriodicSequence(period=3, window=(1, 1, 0)))",
        [(lambda: PascalArrayRow(2, 0, 0, "r", _SEQ4), ValueError,
          r"^layer must be one of \('sigma', 'p', 'q'\), got 'r'$"),
         (lambda: PascalArrayRow(3, 0, 0, "p", _SEQ4), ValueError,
          "^layer 'p' requires period 6, got 4$")],
    ),
    "DualCorridorState": (
        lambda: state_at(2, 1), state_at(2, 0),
        "DualCorridorState(d=2, n=1, seq=PeriodicSequence(period=4, window=(0, 0, 0, 0)))",
        [(lambda: DualCorridorState(3, 0, _SEQ4), ValueError,
          "^state sequence must have period 6, got 4$"),
         (lambda: DualCorridorState(2, 0, PeriodicSequence(4, (0, -1, 0, 1))), ValueError,
          r"^state must be >= 0 on 1\.\.d-1; fails at k = 1$")],
    ),
    "BFile": (
        lambda: BFile(((0, 1), (1, 1))), BFile(((0, 1),)), "BFile(entries=((0, 1), (1, 1)))",
        [(lambda: BFile(), TypeError, "missing 1 required positional argument: 'entries'")],
    ),
    "SequenceMatch": (
        lambda: SequenceMatch(offset=0, overlap=3), SequenceMatch(1, 3),
        "SequenceMatch(offset=0, overlap=3)",
        [(lambda: SequenceMatch(0), TypeError,
          "missing 1 required positional argument: 'overlap'")],
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_public_records_are_values(name):
    make, different, text, errors = RECORDS[name]
    record = make()
    assert record == make() and record is not make()
    assert hash(record) == hash(make())
    assert record != different
    for other_name, (other, *_) in RECORDS.items():
        assert (record == other()) == (other_name == name)
    assert repr(record) == text
    field = text[len(name) + 1:].split("=", 1)[0]
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
    assert getattr(record, field) == getattr(make(), field)
    for bad, error, message in errors:
        with pytest.raises(error, match=message):
            bad()
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == text
        with pytest.raises(AttributeError):
            setattr(clone, field, 0)
