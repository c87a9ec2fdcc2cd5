"""Host-normalized benchmark of the marginmi command line.

    python3 hostbench/run.py --workload simulate-s1 --seed 1 --seconds 28 --trace 0

One process repeats one operation, a ``marginmi`` command with a fixed seed
called in-process through ``marginmi.cli.main``, until ``--seconds`` have
passed, and runs the frozen reference kernel (``reference.py``) immediately
before each operation. Every time is host-normalized: the median over the
run's operations of op wall / adjacent reference wall, times
``REFERENCE_SECONDS``. Raw seconds are printed beside them for reference.

Every operation's outputs are checked (``checks.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, and
with ``--trace 1`` the per-layer metrics of a traced run (``tracing.py``),
whose spans and per-layer table are written under ``hostbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import checks
import inputs
import tracing
from reference import REFERENCE_SECONDS, Reference, timed_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("simulate-s1", "simulate-s1-pool", "impute-n50k")
SIM_CHAIN = ("--iterations", "150", "--burn-in", "50", "--thin", "10")
IMPUTE_CHAIN = ("--iterations", "100", "--burn-in", "40", "--thin", "20")
IMPUTE_METHOD = "AN+Constraint+Weight"
LAUNCHES = 16
# peak_rss_mb is read after this many operations, which every run completes,
# so that a faster program does not read higher for running more operations.
RSS_OPS = 5
METHODS = ("MAR+Weight", "AN+Weight", "AN+Constraint", "AN+Constraint+Weight")
DEPENDENCIES = ("numpy", "scipy")


def import_program():
    """Import marginmi from this checkout's ``src``, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "marginmi", "cli.py")):
        sys.exit(f"error: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import marginmi.cli
    if not os.path.abspath(marginmi.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported marginmi from {marginmi.cli.__file__}, not {SRC}")
    return marginmi.cli.main


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """One workload at one seed: the operation, its checks, and work after it."""

    argv: Callable[[str], List[str]]
    check: Callable[[str], None]
    finish: Optional[Callable[[str], None]] = None
    jobs: int = 1


def plan_workload(name: str, seed: int, work: str, main) -> Plan:
    if name in ("simulate-s1", "simulate-s1-pool"):
        pool = name == "simulate-s1-pool"
        runs = len(os.sched_getaffinity(0)) if pool else 1

        def argv(out, jobs=runs):
            return ["simulate", "scenario1", "--runs", str(runs), "--jobs", str(jobs),
                    *SIM_CHAIN, "--seed", str(seed), "--out", out]

        def check(out):
            checks.check_simulate_outputs(out, "scenario1", checks.SCENARIO1, runs)

        def finish(first_out):
            serial = os.path.join(work, "serial")
            rc, text = call_cli(main, argv(serial, jobs=1))
            if rc != 0:
                raise checks.CheckError(f"serial reference run exited {rc}: {text}")
            checks.check_same_files(first_out, serial, checks.report_files("scenario1"))

        return Plan(argv, check, finish if pool else None, runs)

    data, margin, draws = inputs.write_in_child(seed, work)
    return Plan(lambda out: ["impute", data, "--margin", margin, "--method", IMPUTE_METHOD,
                             *IMPUTE_CHAIN, "--seed", str(seed), "--out", out],
                lambda out: checks.check_impute_outputs(data, out, sorted(draws)))


def call_cli(main, argv):
    """Run one command in-process; returns its exit code and captured output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# Set-up launches
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds of all imports, and of numpy/scipy, from ``-X importtime``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = sum(c for d, _, c in entries if d == 0)
    deps, stack = 0.0, []
    for depth, name, cumulative in reversed(entries):   # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_dep = name.split(".")[0] in DEPENDENCIES
        if is_dep and not any(dep for _, dep in stack):
            deps += cumulative
        stack.append((depth, is_dep))
    return {"import_s": total, "deps_import_s": deps}


def launch_times(importtime: bool) -> List[Dict[str, float]]:
    """Fresh-interpreter ``marginmi list --methods`` launches.

    Each launch's reference is the mean of the kernel runs immediately
    before and after it: one ~0.07 s kernel run is a noisy sample of the
    host's speed over a ~0.5 s launch, and the pair halves that noise.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-m", "marginmi.cli", "list", "--methods"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = []
    before = timed_reference()
    for _ in range(LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        wall = time.perf_counter() - t0
        listed = [line.split(":")[0] for line in proc.stdout.splitlines()]
        if proc.returncode != 0 or tuple(listed) != METHODS:
            raise RuntimeError(f"`{' '.join(cmd[1:])}` exited {proc.returncode}: "
                               f"{proc.stdout}{proc.stderr[-2000:]}")
        after = timed_reference()
        rec = {"ref": (before + after) / 2.0, "wall": wall}
        if importtime:
            rec.update(parse_importtime(proc.stderr))
        out.append(rec)
        before = after
    return out


# ---------------------------------------------------------------------------
# The timed operations
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    ref: float
    wall: float
    ok: bool
    layers: Optional[Dict[str, float]] = None


def run_ops(main, plan: Plan, seconds: float, work: str, reference: Reference,
            tracer: Optional[tracing.Tracer]):
    """Repeat the operation for ``seconds`` and at least ``RSS_OPS`` times.

    Each operation's outputs must hash the same as the first passing one's,
    which is kept for the full checks after the loop. Returns the records,
    the kept first output and the peak RSS read after ``RSS_OPS`` operations.
    """
    records: List[OpRecord] = []
    first_out = first_digest = peak = None
    deadline = time.perf_counter() + seconds
    while True:
        k = len(records)
        out = os.path.join(work, f"op{k}")
        argv = plan.argv(out)
        ref = reference.time()
        if tracer is not None:
            tracer.op = k
            span = tracer.begin("cli.main", "cli")
        t0 = time.perf_counter()
        try:
            rc, text = call_cli(main, argv)
        except Exception:   # a crash counts as a failed operation
            rc, text = -1, traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.op = None
        ok = rc == 0
        if ok:
            try:
                digest = checks.digest_outputs(out)
                if first_out is None:
                    first_out, first_digest = out, digest
                elif digest != first_digest:
                    raise checks.CheckError(f"{out}: outputs differ from {first_out}")
            except (checks.CheckError, OSError) as exc:
                ok, text = False, f"check failed: {exc}"
        else:
            text = f"exit code {rc}: {text}"
        if not ok:
            print(f"op {k} failed: {text.strip()[-2000:]}", file=sys.stderr)
        rec = OpRecord(ref, wall, ok)
        if tracer is not None:
            spans = [s for s in tracer.spans if s[tracing.OP] == k]
            rec.layers = tracing.op_metrics(spans, REFERENCE_SECONDS / ref)
            rec.layers["cli.bytes_written"] = (checks.directory_bytes(out)
                                               if os.path.isdir(out) else 0)
        records.append(rec)
        if out != first_out:
            shutil.rmtree(out, ignore_errors=True)
        if len(records) == RSS_OPS:
            peak = peak_rss_mb(plan.jobs > 1)
        if time.perf_counter() >= deadline and peak is not None:
            return records, first_out, peak


def normalized(pairs) -> float:
    """Median of wall / reference over (reference, wall) pairs, in seconds."""
    return statistics.median(w / r for r, w in pairs) * REFERENCE_SECONDS


def peak_rss_mb(pool: bool) -> float:
    """Peak RSS of this process; with a pool, the largest of it and its children.

    Read while the reference helpers still run, and before the set-up
    launches, so that the only children counted are the pool's workers.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def write_trace(out_dir: str, tracer: tracing.Tracer, records: List[OpRecord],
                lines: List[str]) -> None:
    with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dict(zip(tracing.FIELDS, s))) + "\n")
    table = tracing.layer_table([s for s in tracer.spans if s[tracing.OP] is not None])
    n_ops = len(records)
    scale = REFERENCE_SECONDS / statistics.median(r.ref for r in records)
    lines.append(f"per-layer self time per op over {n_ops} ops "
                 "(normalized s, raw s, CPU s, CPU/wall):")
    for layer, row in table.items():
        wall, cpu = row["self_s"] / n_ops, row["cpu_s"] / n_ops
        ratio = cpu / wall if wall > 0 else 0.0
        lines.append(f"  {layer:<11} {wall * scale:9.4f} {wall:9.4f} {cpu:9.4f} {ratio:6.2f}")
    with open(os.path.join(out_dir, "layers.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    main = import_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = os.path.join(HERE, "out", tag)
    work = os.path.join(out_dir, "work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    try:
        plan = plan_workload(args.workload, args.seed, work, main)
        tracer = tracing.Tracer() if args.trace else None
        undo = tracing.install(tracer) if tracer else None
        reference = Reference(plan.jobs)
        try:
            records, first_out, peak = run_ops(main, plan, args.seconds, work, reference,
                                               tracer)
        finally:
            reference.close()
        if undo:
            undo()
        if first_out is not None:
            try:
                plan.check(first_out)
                if plan.finish:
                    plan.finish(first_out)
            except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                # every passing operation wrote the same outputs as the first
                print(f"check failed: {exc}", file=sys.stderr)
                for r in records:
                    r.ok = False
        launches = launch_times(importtime=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    op_pairs = [(r.ref, r.wall) for r in records]
    lines = [f"{args.workload} seed {args.seed}: {len(records)} ops, {failed} failed",
             f"op: {normalized(op_pairs):.4f} s normalized, "
             f"{statistics.median(r.wall for r in records):.4f} s raw median, "
             f"reference {statistics.median(r.ref for r in records):.4f} s raw median "
             f"(constant {REFERENCE_SECONDS} s)",
             f"setup: {normalized((x['ref'], x['wall']) for x in launches):.4f} s normalized, "
             f"{statistics.median(x['wall'] for x in launches):.4f} s raw median "
             f"over {len(launches)} launches",
             f"peak RSS {peak:.1f} MB"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if tracer is None:
        metrics = {"op_s": normalized(op_pairs),
                   "setup_s": normalized((x["ref"], x["wall"]) for x in launches),
                   "peak_rss_mb": peak}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        lines[1] = "traced " + lines[1]
        metrics = {f"cli.{key}": normalized((x["ref"], x[key]) for x in launches)
                   for key in ("import_s", "deps_import_s")}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            if name not in metrics:
                metrics[name] = statistics.median(r.layers[name] for r in records)
        write_trace(out_dir, tracer, records, lines)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, ops=[[r.ref, r.wall] for r in records], launches=launches),
                  fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
