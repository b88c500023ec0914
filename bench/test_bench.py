"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They run every operation kind of every workload at the smallest size of its
ranges, check that the independent references agree with the library and
reject corrupted values, and run ``run.py`` once per workload at a tiny
``--seconds``.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from corridorpaths import (  # noqa: E402
    corridor_count, infinite_corridor_count, km_count_formula, motzkin_corridor_count,
    p_row, q_row, sigma_row, state_at,
)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def smallest_ops(name: str) -> list[workloads.Op]:
    """One operation per kind, every parameter at the bottom of its range."""
    ops = []
    for build, _ in workloads.MIXES[name]:
        params = inspect.signature(build).parameters
        extra = {"fmt": "json"} if "fmt" in params else {}
        ops.append(build(*[0.0] * (len(params) - len(extra)), **extra))
    return ops


def test_references_agree_with_library_on_small_cases():
    P = oracle.P
    for d in range(2, 7):
        for n in range(0, 12):
            for y0 in range(d - 1):
                assert [v % P for v in sigma_row(d, n, y0).seq.window] == oracle.sigma_window(d, n, y0)
                assert [v % P for v in p_row(d, n, y0).seq.window] == oracle.p_window(d, n, y0)
                assert [v % P for v in q_row(d, n, y0).seq.window] == oracle.q_window(d, n, y0)
                assert [v % P for v in state_at(d, n, y0).seq.window] == oracle.state_window(d, n, y0)
                assert corridor_count(d - 2, n, y0) == sum(oracle.height_walk(d - 2, n, y0))
                assert motzkin_corridor_count(d, n, y0) == oracle.three_choice_sequence(d, n, y0)[-1]
    binomials = oracle.Binomials()
    for n in range(0, 30):
        for y0 in range(0, 6):
            assert infinite_corridor_count(n, y0) == oracle.half_plane(n, y0, binomials)
    for a in range(0, 9):
        for b in range(0, 9):
            for s in range(-3, 1):
                for t in range(0, 4):
                    assert km_count_formula(a, b, s, t) == oracle.km_band(a, b, s, t)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smallest_ops_pass_their_checks(name):
    execute = run.Executor(ROOT, name, in_process=True)
    tally = run.Tally()
    for op in smallest_ops(name):
        tally.record(op, *run.attempt(execute, op))
    oversized = {k: v for k, v in tally.failures.items() if "Exceeds the limit (4300 digits)" in k}
    assert tally.wrong == 0
    assert tally.failures == oversized
    assert bool(oversized) == (name == "cli")


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = next(workloads.cycles(name, 7)), next(workloads.cycles(name, 7))
        assert [(op.kind, op.args) for op in a] == [(op.kind, op.args) for op in b]
        assert [(op.kind, op.args) for op in a] != [
            (op.kind, op.args) for op in next(workloads.cycles(name, 8))]


def _corrupt(value):
    """The same result with one value off by one."""
    if isinstance(value, workloads.CliResult):  # JSON output of a count subcommand
        records = json.loads(value.out)
        records[-1]["value"] = str(int(records[-1]["value"]) + 1)
        return value._replace(out=json.dumps(records))
    if isinstance(value, int):
        return value + 1
    if hasattr(value, "_fields"):  # RowExtrema
        return value._replace(range=value.range + 1)
    if isinstance(value, (list, tuple)):
        return type(value)([*value[:-1], value[-1] + 1])
    window = list(value.seq.window)  # a row or a state: keep it antisymmetric
    window[1] += 1
    window[-1] -= 1
    return dataclasses.replace(value, seq=type(value.seq)(value.seq.period, window))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_values_are_rejected(name):
    execute = run.Executor(ROOT, name, in_process=True)
    for op in smallest_ops(name):
        elapsed, result, error = run.attempt(execute, op)
        if isinstance(result, workloads.CliResult) and result.code != 0:
            continue  # the oversized share: nothing printed to corrupt
        if op.kind in ("oeis-compare", "verify"):
            bad = result._replace(out=result.out.replace("agree", "disagree").replace(
                "offset", "offset 9 x"))
        else:
            bad = _corrupt(result)
        assert op.check(result), op
        assert not op.check(bad), op
        tally = run.Tally()
        tally.record(op, elapsed, bad, None)
        assert (tally.wrong, tally.failed, tally.ok) == (1, 1, [False])


def test_oversized_output_parses_only_with_lifted_limit():
    big = 7 ** 6000  # about 5070 decimal digits
    with workloads.unlimited_int_digits():
        text = str(big)
    assert workloads.parse_values("plain", text + " 3") == [big, 3]
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(ValueError):
        int(text)


def test_tracer_separates_layers_and_restores_bindings():
    import corridorpaths
    import corridorpaths.corridor as corridor
    import corridorpaths.pascal as pascal

    original = corridor.p_row
    tracer = spans.Tracer()
    with tracer:
        assert corridor.p_row is not original
        tracer.begin_op()
        corridorpaths.corridor_count(3, 40)
        tracer.end_op()
        tracer.begin_op()
        corridorpaths.km_count_formula(20, 21, -2, 3)
        covered = tracer.end_op()
    assert corridor.p_row is original and pascal.transition.__name__ == "transition"
    stats = tracer.stats
    assert stats["corridor.corridor_count"].calls == 1
    assert stats["pascal.p_row"].calls == 1 and stats["pascal.sigma_row"].calls == 1
    assert stats["periodic.transition"].calls == 40
    assert stats["periodic.seq_ops"].elems >= 40 * 2 * 5
    assert stats["km.formula"].calls == 1 and stats["pascal.binom"].calls > 0
    assert tracer.max_result_bits == max(v.bit_length() for v in sigma_row(5, 40).seq.window)
    assert covered > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_verdicts():
    base = {s: 100.0 + s for s in range(1, 11)}
    assert compare.verdict(base, {s: 50.0 for s in base}, "lower", 0.1, False)[0] == "improved"
    assert compare.verdict(base, {s: 50.0 for s in base}, "lower", 0.1, True)[0] == "unchanged"
    assert compare.verdict(base, {s: 130.0 for s in base}, "lower", 0.1, False)[0] == "worse"
    assert compare.verdict(base, dict(base), "lower", 0.1, False)[0] == "unchanged"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in range(1, 11)}
    assert compare.verdict(noisy, dict(noisy), "higher", 0.1, False)[0] == "unresolved"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_run_prints_every_end_to_end_metric(name):
    done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.001", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] is True and result["attempted"] >= 1


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "narrow-long", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
