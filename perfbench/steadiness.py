"""Run the benchmark over many seeds and report each metric's spread.

From the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 --output perfbench/results/set-a.json
    python3 perfbench/steadiness.py --seeds 11-20 --output perfbench/results/set-b.json \\
        --compare perfbench/results/set-a.json

Runs the command in ``BENCHMARK.json`` once per (seed, workload) with
``--trace 0``. Workloads are interleaved and their order alternates
from seed to seed, so slow drift of the host spreads evenly over them.
For every end-to-end metric it reports the median and quartiles of the
values (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. ``--compare`` adds how far each median moved from an
earlier set, in the direction that counts as worse. Exit code 1 when a
run fails, a spread exceeds its bound, or a median moved the wrong way
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(command: list, workload: str, seed: int, seconds: int) -> tuple:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    host = next((json.loads(line[len("# host ") :]) for line in lines if line.startswith("# host ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or result is None or not result["correct"]:
        print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
        return None, host, elapsed
    return result, host, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    parser.add_argument("--output", default=None, help="write the summary JSON here")
    parser.add_argument("--compare", default=None, help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    metrics = {entry["name"]: entry for entry in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seed_range(args.seeds)

    values = {w: {name: [] for name in metrics} for w in workloads}
    failures, host, wall = [], None, {w: [] for w in workloads}
    for index, seed in enumerate(seeds):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            result, run_host, elapsed = _run(bench["command"], workload, seed, bench["run_seconds"])
            host = host or run_host
            wall[workload].append(elapsed)
            if result is None:
                failures.append(f"{workload} seed={seed}")
                continue
            for name in metrics:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} {elapsed:.1f}s", file=sys.stderr, flush=True)

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)["workloads"]
    summary, bad = {}, list(failures)
    for workload in workloads:
        rows = {}
        for name, entry in metrics.items():
            series = values[workload][name]
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            middle = statistics.median(series)
            spread = (q3 - q1) / middle if middle else 0.0
            row = {
                "median": middle,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": entry["bound"],
                "values": series,
            }
            if spread > entry["bound"]:
                bad.append(f"{workload} {name}: spread {spread:.3f} > bound {entry['bound']}")
            if earlier and name in earlier.get(workload, {}).get("metrics", {}):
                before = earlier[workload]["metrics"][name]["median"]
                worse = (middle - before) / before
                if entry["better"] == "higher":
                    worse = -worse
                row["worse_than_compared"] = worse
                if worse > entry["bound"]:
                    bad.append(f"{workload} {name}: median worse by {worse:.3f} > {entry['bound']}")
            rows[name] = row
        summary[workload] = {"seeds": seeds, "run_wall_s": wall[workload], "metrics": rows}
        print(f"\n{workload}  (median run wall {statistics.median(wall[workload]):.1f} s)")
        for name, row in rows.items():
            moved = row.get("worse_than_compared")
            print(
                f"  {name:18s} median {row['median']:<12.6g} spread {row['spread']:.3f} "
                f"(bound {row['bound']}, third {row['bound'] / 3:.3f})"
                + (f" worse-by {moved:+.3f}" if moved is not None else "")
            )
    for line in bad:
        print(f"NOT STEADY: {line}")
    if args.output:
        document = {"host": host, "run_seconds": bench["run_seconds"], "workloads": summary}
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
