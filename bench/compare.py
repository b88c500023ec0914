"""Compare benchmark result sets, per workload and end-to-end metric.

    python3 bench/compare.py BASE.jsonl [HEAD.jsonl]

Each file holds the ``--out`` records of ``bench/run.py`` (``--trace 0``
runs; traced runs are ignored), for example as written by ``collect.py``.
With one file, prints each metric's median, quartiles and relative spread
(the quartile distance as a share of the median) against its bound.  With
two, runs are paired by seed and each metric gets a verdict:

* ``improved``: at least 10 pairs, the head wins at least 9/10 of them (ties
  count for neither), its median beats the base median by more than the base
  quartile distance, and no more operations failed than on the base;
* ``worse``: the head median is worse than the base median by more than the
  metric's bound from ``BENCHMARK.json``;
* ``unresolved``: neither, and either side's spread exceeds the bound, unless
  every head run beats every base run;
* ``unchanged``: otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record, for untraced runs (last record wins)."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                runs[record["workload"]][record["env"]["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: dict[int, float], head: dict[int, float], better: str, bound: float,
            failed_more: bool) -> tuple[str, int, int]:
    """(verdict, wins, pairs) for one metric; see the module docstring."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(base.keys() & head.keys())
    wins = sum(sign * (head[s] - base[s]) > 0 for s in seeds)
    b, h = list(base.values()), list(head.values())
    (b1, bmed, b3), (_, hmed, _) = quartiles(b), quartiles(h)
    gain = sign * (hmed - bmed) / abs(bmed)
    if (len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gain > 0
            and abs(hmed - bmed) > b3 - b1 and not failed_more):
        return "improved", wins, len(seeds)
    if gain < -bound:
        return "worse", wins, len(seeds)
    every_run_better = all(sign * (x - y) > 0 for x in h for y in b)
    if max(spread(b), spread(h)) > bound and not every_run_better:
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def failed_frac(records: dict[int, dict]) -> float:
    return sum(r["failed"] for r in records.values()) / sum(r["attempted"] for r in records.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="BASE.jsonl [HEAD.jsonl]")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one result set, or two to compare")
    metrics = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
    sets = [load(path) for path in args.files]
    steady = True
    for workload in sorted(set().union(*sets)):
        sides = [s.get(workload, {}) for s in sets]
        if not all(sides):
            print(f"{workload}: missing from one result set")
            continue
        counts = ", ".join(f"{len(side)} runs, failed_frac {failed_frac(side):.4f}" for side in sides)
        print(f"{workload}: {counts}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values = [{seed: r["metrics"][name]["value"] for seed, r in side.items()} for side in sides]
            if len(sides) == 1:
                rel = spread(list(values[0].values()))
                ok = rel < bound / 3
                steady &= ok
                print(f"  {name:16} {_fmt(list(values[0].values()))}  spread {rel:.3f}"
                      f" (bound {bound}){'' if ok else '  above bound/3'}")
                continue
            failed_more = failed_frac(sides[1]) > failed_frac(sides[0])
            word, wins, pairs = verdict(values[0], values[1], metric["better"], bound, failed_more)
            print(f"  {name:16} base {_fmt(list(values[0].values()))}  "
                  f"head {_fmt(list(values[1].values()))}  wins {wins}/{pairs}  {word}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
