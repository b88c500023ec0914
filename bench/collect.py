"""Run the benchmark over several seeds and collect result sets.

    python3 bench/collect.py --root ../parent --out bench/results/base.jsonl \\
                             --root .         --out bench/results/head.jsonl

Runs this checkout's ``bench/run.py`` (so both sides use identical benchmark
code) with each ``--root`` as working directory, for every workload of
``BENCHMARK.json`` and seeds 1..SEEDS, appending to the matching ``--out``
file.  With two roots the order in which they run alternates from seed to
seed.  Compare the files with ``compare.py``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
SEEDS = 10  # the fewest pairs for which compare.py can rate a metric improved


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", type=Path, required=True,
                        help="checkout to measure (repeatable)")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="result file for the matching --root")
    args = parser.parse_args(argv)
    if len(args.root) != len(args.out):
        parser.error("give one --out per --root")
    sides = [(root.resolve(), out.resolve()) for root, out in zip(args.root, args.out)]
    for _, out in sides:
        out.parent.mkdir(parents=True, exist_ok=True)
    for seed in range(1, SEEDS + 1):
        for workload in names:
            order = sides if seed % 2 else sides[::-1]
            for root, out in order:
                cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", str(out)]
                done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
                last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
                print(f"{root.name or root} {workload} seed {seed}: exit {done.returncode} {last[0]}",
                      flush=True)
                if done.returncode:
                    return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
