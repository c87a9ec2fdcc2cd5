"""Steadiness of the end-to-end metrics across repeated benchmark runs.

    python3 hostbench/steady.py --runs 10

Runs every workload of BENCHMARK.json ``--runs`` times for its
``run_seconds``, alternating between workloads, with seeds 1 to ``--runs``,
through the benchmark's own command.
For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
against the metric's bound, plus the share of failed operations. Raw
results are written to ``hostbench/out/steady-<time>.json``.
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


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: dict) -> str:
    lines = []
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        lines.append(f"{workload}: {len(runs)} runs, {attempted} ops, {failed} failed, "
                     f"correct={correct}")
        lines.append(f"  {'metric':<12} {'median':>10} {'Q1':>10} {'Q3':>10} "
                     f"{'spread':>7} {'bound':>6} {'spread/bound':>12}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            lines.append(f"  {m['name']:<12} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                         f"{spread:7.3f} {m['bound']:6.2f} {spread / m['bound']:12.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            res = run_once(spec["command"], w, seed, spec["run_seconds"])
            results[w].append(res)
            values = ", ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"run {seed}/{args.runs} {w} seed {seed}: "
                  f"{res['attempted']} ops, {res['failed']} failed, {values}", flush=True)
    report = summarize(spec, results)
    print(report)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"argv": sys.argv, "results": results, "report": report}, fh, indent=1)
    print(f"raw results in {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
