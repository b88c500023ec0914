"""corridorpaths benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload narrow-long --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Operations run one at a time, each checked against an independent
route (see ``oracle.py``) outside the timed region.

``--trace 0`` runs whole cycles of operations (see ``workloads.py``) until at
least ``--seconds`` of operation time is spent, and prints the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a fixed number of cycles,
each operation once untraced and once traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object; ``--out FILE``
also appends the full result set (environment, failures, per-kind counts) to
``FILE``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_RUNS = 15         # fresh interpreters per set-up measurement (median)
TRACE_CYCLES = 2        # cycles of operations in a traced run
OP_TIMEOUT_S = 120      # a CLI operation running longer counts as failed
TAIL_SAMPLES = 10       # samples beyond the reported tail percentile


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: ``src/`` on the path, and the
    interpreter's own int/str digit limit (never a raised one)."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --- set-up timings ---

def _median_run(sample) -> float:
    """Median of SETUP_RUNS samples after one discarded warm-up sample
    (bytecode caches, page cache)."""
    samples = [sample() for _ in range(SETUP_RUNS + 1)]
    return statistics.median(samples[1:])


def import_sampler(root: Path, module: str):
    """A function returning the seconds a fresh interpreter spends importing
    ``module``, one interpreter per call."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"

    def sample() -> float:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=child_env(root),
            capture_output=True, text=True, check=True, timeout=OP_TIMEOUT_S,
        )
        return float(done.stdout)

    return sample


def import_seconds(root: Path, module: str) -> float:
    return _median_run(import_sampler(root, module))


def interpreter_seconds(root: Path) -> float:
    """Wall time of a bare ``python -c pass`` child, as seen by its parent."""

    def sample() -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=child_env(root),
                       check=True, timeout=OP_TIMEOUT_S)
        return perf_counter() - start

    return _median_run(sample)


# --- executing one operation ---

class Executor:
    """Runs operations through the public API: library calls by name, CLI
    operations in a child interpreter or, for the traced run, in-process
    through ``cli.run``.  Names are looked up on every call so that the
    tracer's rebinding takes effect."""

    def __init__(self, root: Path, workload: str, in_process: bool):
        import corridorpaths
        import corridorpaths.cli

        self.library, self.cli_module = corridorpaths, corridorpaths.cli
        self.root = root
        self.cli = workload == "cli"
        self.in_process = in_process
        self.env = child_env(root)
        self.stdout_bytes = 0

    def __call__(self, op: workloads.Op):
        if not self.cli:
            return getattr(self.library, op.kind)(*op.args)
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_module.run(list(op.args))
            result = workloads.CliResult(code, out.getvalue(), err.getvalue())
        else:
            done = subprocess.run(
                [sys.executable, "-m", "corridorpaths", *op.args], cwd=self.root,
                env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
            )
            result = workloads.CliResult(done.returncode, done.stdout, done.stderr)
        self.stdout_bytes += len(result.out.encode())
        return result


@dataclass
class Tally:
    """Outcomes of the operations of one pass."""

    elapsed: list[float] = field(default_factory=list)  # every op, in order
    ok: list[bool] = field(default_factory=list)        # completed with a correct result
    attempted: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    kinds: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, op: workloads.Op, elapsed: float, result, error: str | None) -> None:
        self.attempted += 1
        self.kinds[op.kind] += 1
        self.elapsed.append(elapsed)
        self.ok.append(False)
        if isinstance(result, workloads.CliResult) and result.code != 0:
            first = (result.err.strip().splitlines() or [""])[0]
            error = f"exit {result.code}: {first[:160]}"
        if error is None:
            try:
                ok = op.check(result)
            except Exception:  # a malformed result is a wrong value, not a crash
                ok = False
            if ok:
                self.ok[-1] = True
                return
            self.wrong += 1
            error = "value rejected by the independent check"
        self.failures[f"{op.kind}: {error}"] += 1


def attempt(execute: Executor, op: workloads.Op) -> tuple[float, object, str | None]:
    start = perf_counter()
    try:
        result = execute(op)
    except Exception as exc:  # one failing operation must not end the run
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {str(exc)[:160]}"
    return perf_counter() - start, result, None


# --- the two kinds of run ---

def ok_only(times: list[float], ok: list[bool]) -> list[float]:
    return [t for t, good in zip(times, ok) if good] or [float("nan")]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it,
    as (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def end_to_end(root: Path, workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Whole cycles until ``seconds`` of operation time are spent.  Set-up
    time is sampled between operations, once per ``seconds / SETUP_RUNS``
    of operation time, so that its median covers the same stretch of host
    speed as the operations do."""
    execute = Executor(root, workload, in_process=False)
    import_time = import_sampler(root, "corridorpaths.cli" if workload == "cli" else "corridorpaths")
    import_time()  # warm-up: bytecode caches, page cache
    imports, tally, busy = [], Tally(), 0.0
    for cycle in workloads.cycles(workload, seed):
        for op in cycle:
            if busy >= len(imports) * seconds / SETUP_RUNS:
                imports.append(import_time())
            elapsed, result, error = attempt(execute, op)
            tally.record(op, elapsed, result, error)
            busy += elapsed
        if busy >= seconds:  # whole cycles only: each has the same cost mix
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    latencies = ok_only(tally.elapsed, tally.ok)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": sum(tally.ok) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "setup_s": statistics.median(imports),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {"tail_percentile": tail_pct, "samples": sum(tally.ok), "busy_s": busy,
             "setup_samples": len(imports)}
    return tally, metrics, notes


def traced(root: Path, workload: str, seed: int) -> tuple[Tally, dict, dict]:
    """Each operation runs twice in-process, untraced and traced, in
    alternating order, so the pair shows the tracing overhead."""
    ops = list(itertools.chain.from_iterable(
        itertools.islice(workloads.cycles(workload, seed), TRACE_CYCLES)))
    plain_exec = Executor(root, workload, in_process=True)
    execute = Executor(root, workload, in_process=True)
    tracer = spans.Tracer()
    tally, plain, covered = Tally(), Tally(), 0.0
    for i, op in enumerate(ops):
        for with_trace in (False, True) if i % 2 else (True, False):
            if not with_trace:
                plain.record(op, *attempt(plain_exec, op))
                continue
            with tracer:
                tracer.begin_op()
                outcome = attempt(execute, op)
                covered += tracer.end_op()
            tally.record(op, *outcome)

    traced_s, plain_s = sum(tally.elapsed), sum(plain.elapsed)
    metrics: dict[str, float] = {}
    for layer, stats in tracer.stats.items():
        metrics[f"{layer}.calls"] = stats.calls
        metrics[f"{layer}.self_s"] = stats.self_s
    metrics["periodic.seq_ops.elems"] = tracer.stats["periodic.seq_ops"].elems
    metrics["periodic.max_result_bits"] = tracer.max_result_bits
    metrics["oeis.terms_compared"] = tracer.terms_compared
    metrics["cli.interpreter_s"] = interpreter_seconds(root)
    metrics["cli.import_s"] = import_seconds(root, "corridorpaths.cli")
    metrics["cli.stdout_bytes"] = execute.stdout_bytes
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    metrics["trace.unattributed_frac"] = (traced_s - covered) / traced_s
    shares = {layer: stats.self_s / traced_s for layer, stats in tracer.stats.items() if stats.calls}
    tally.attempted += plain.attempted
    tally.wrong += plain.wrong
    tally.failures.update(plain.failures)
    return tally, metrics, {"self_share": shares, "ops_traced": len(ops)}


# --- environment record and output ---

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "corridorpaths").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full result set to this JSONL file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "corridorpaths" / "__init__.py").is_file():
        print(f"error: no corridorpaths sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import corridorpaths.cli  # noqa: F401  (loads every module the tracer wraps)

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(root, args.seed)
    if args.trace:
        tally, values, notes = traced(root, args.workload, args.seed)
    else:
        tally, values, notes = end_to_end(root, args.workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} ops attempted, {tally.failed} failed "
          f"(failed_frac {failed_frac:.4f}, wrong values {tally.wrong})")
    for reason, count in tally.failures.most_common():
        print(f"  failure x{count}: {reason}")
    for name, metric in metrics.items():
        print(f"  {name:32} {metric['value']:.6g} {metric['unit']}")
    if "tail_percentile" in notes:
        print(f"  latency_tail_ms is p{notes['tail_percentile']:.2f} of {notes['samples']} samples")
    for layer, share in sorted(notes.get("self_share", {}).items(), key=lambda kv: -kv[1]):
        print(f"  self-time share {layer:28} {share:.3f}")
    print("env " + json.dumps(env))

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        record = {
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            **result, "failed_frac": failed_frac, "failures": dict(tally.failures),
            "ops_by_kind": dict(tally.kinds), "notes": notes, "env": env,
        }
        with args.out.open("a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
