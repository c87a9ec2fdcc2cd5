"""Spans at marginmi's layer boundaries, installed from the benchmark's side.

``install`` replaces the module attributes that callers look up (for example
``marginmi.cli.run_chain`` or ``marginmi.mcmc.draw_probit_coefficients``)
with wrappers that record a span around each call: name, layer, start, end,
process CPU seconds, parent span and operation id. Spans stay in memory and
the caller writes them out at the end.

Pool workers are forked by ``run_scenario``'s ``ProcessPoolExecutor`` after
the wrappers are in place, so they inherit them. Each task ships the spans
it recorded back with its result, and the replaced executor hands them to
the parent's tracer before the program sees the result.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional

# Span record fields, kept as a list per span for low overhead.
SID, PARENT, OP, PID, NAME, LAYER, START, END, CPU, ATTRS = range(10)
FIELDS = ("id", "parent", "op", "pid", "name", "layer", "start", "end", "cpu", "attrs")

LAYERS = ("cli", "harness", "mcmc", "estimators", "survey")


class Tracer:
    """In-memory span store of one process; forked workers inherit a copy."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[str] = []
        self.op: Optional[int] = None
        self._count = 0

    def begin(self, name: str, layer: str) -> list:
        self._count += 1
        pid = os.getpid()
        sid = f"{pid}.{self._count}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return [sid, parent, self.op, pid, name, layer,
                time.perf_counter(), None, time.process_time(), None]

    def end(self, rec: list, attrs: Optional[dict] = None) -> None:
        rec[END] = time.perf_counter()
        rec[CPU] = time.process_time() - rec[CPU]
        rec[ATTRS] = attrs
        self.stack.pop()
        self.spans.append(rec)


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str,
          attrs: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.begin(name, layer)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(rec, {"raised": True})
            raise
        tracer.end(rec, attrs(args, kwargs, out) if attrs else None)
        return out
    return traced


def _chain_attrs(args, kwargs, result) -> dict:
    """Iterations, and the lowest post-burn-in acceptance ratio over the blocks."""
    margin = args[1] if len(args) > 1 else kwargs.get("margin")
    settings = args[2] if len(args) > 2 else kwargs["settings"]
    out = {"iterations": settings.iterations}
    if margin is not None:
        post = result.trace.indicators[settings.burn_in:]
        out["block_acceptance_min"] = float(post.mean(axis=0).min())
    return out


def _fit_attrs(args, kwargs, result) -> dict:
    return {"newton": int(result.iterations_used)}


# The tracer and the unwrapped task function of this process. They live at
# module level because pool workers receive ``traced_task`` by reference.
_active: Dict[str, object] = {}


class _Shipped:
    """A worker's task result together with the spans the task recorded."""

    def __init__(self, outcome, spans):
        self.outcome = outcome
        self.spans = spans


def traced_task(task):
    """Stands in for ``harness._run_method_task``, serially or in a worker."""
    tracer: Tracer = _active["tracer"]
    first = len(tracer.spans)
    rec = tracer.begin("harness.task", "harness")
    outcome = _active["task"](task)
    tracer.end(rec)
    if os.getpid() == tracer.pid:
        return outcome
    spans = tracer.spans[first:]
    del tracer.spans[first:]
    return _Shipped(outcome, spans)


class TracedPool(ProcessPoolExecutor):
    """The program's pool, handing workers' spans to the parent's tracer."""

    def map(self, fn, *iterables, **kwargs):
        tracer: Tracer = _active["tracer"]
        for result in super().map(fn, *iterables, **kwargs):
            if isinstance(result, _Shipped):
                tracer.spans.extend(result.spans)
                result = result.outcome
            yield result


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary the workloads cross; returns an undo function."""
    from marginmi import cli, harness, mcmc
    from marginmi.survey import SurveySample

    rows_out = lambda a, k, out: {"rows": int(out.size)}   # noqa: E731
    rows_in = lambda a, k, out: {"rows": int(a[0].size)}   # noqa: E731
    jobs = lambda a, k, out: {"jobs": int(k.get("jobs", a[1] if len(a) > 1 else 1))}  # noqa: E731
    boundaries = [
        (cli, "read_sample_csv", "survey.read", "survey", rows_out),
        (cli, "write_sample_csv", "survey.write", "survey", rows_in),
        (cli, "run_chain", "mcmc.run_chain", "mcmc", _chain_attrs),
        (cli, "run_scenario", "harness.run_scenario", "harness", jobs),
        (harness, "run_chain", "mcmc.run_chain", "mcmc", _chain_attrs),
        (harness, "generate_population", "survey.generate", "survey", None),
        (harness, "draw_stratified_sample", "survey.generate", "survey", None),
        (harness, "impose_missingness", "survey.generate", "survey", None),
        (harness, "margin_from_population", "survey.generate", "survey", None),
        (harness, "ht_with_se", "estimators.ht", "estimators", None),
        (harness, "weighted_probit_fit", "estimators.wprobit", "estimators", _fit_attrs),
        (harness, "unweighted_probit_fit", "estimators.rprobit", "estimators", _fit_attrs),
        (harness, "rubin_combine", "estimators.rubin", "estimators", None),
        (mcmc, "draw_probit_coefficients", "mcmc.coef_draw", "mcmc", None),
        (mcmc, "update_theta", "mcmc.theta_draw", "mcmc", None),
        (SurveySample, "with_x", "survey.with_x", "survey", None),
    ]
    saved = []
    for owner, attr, name, layer, attrs in boundaries:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, layer, attrs))
    _active.update(tracer=tracer, task=harness._run_method_task)
    for attr, replacement in (("_run_method_task", traced_task),
                              ("ProcessPoolExecutor", TracedPool)):
        saved.append((harness, attr, getattr(harness, attr)))
        setattr(harness, attr, replacement)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _active.clear()
    return undo


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: List[list]) -> Dict[str, tuple]:
    """span id -> (self wall, self CPU): the span minus what its children cover.

    Children in other processes (pool tasks) take wall time from their
    parent but no CPU from its process.
    """
    children: Dict[str, List[list]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s[SID], ())
        wall = s[END] - s[START] - _covered([(k[START], k[END]) for k in kids],
                                            s[START], s[END])
        cpu = s[CPU] - sum(k[CPU] for k in kids if k[PID] == s[PID])
        out[s[SID]] = (wall, cpu)
    return out


def op_metrics(spans: List[list], scale: float) -> Dict[str, float]:
    """Per-layer figures of one operation; times are multiplied by ``scale``."""
    own = self_times(spans)

    def total(name, field=None):
        sel = [s for s in spans if s[NAME] == name]
        if field is None:
            return sum(s[END] - s[START] for s in sel), len(sel)
        return sum((s[ATTRS] or {}).get(field, 0) for s in sel), len(sel)

    def self_wall(name):
        return sum(own[s[SID]][0] for s in spans if s[NAME] == name)

    m: Dict[str, float] = {}
    main = [s for s in spans if s[NAME] == "cli.main"]
    m["cli.self_s"] = sum(own[s[SID]][0] for s in main) * scale
    read_s, _ = total("survey.read")
    write_s, _ = total("survey.write")
    m["survey.read_s"] = read_s * scale
    m["survey.rows_read"] = total("survey.read", "rows")[0]
    m["survey.write_s"] = write_s * scale
    m["survey.rows_written"] = total("survey.write", "rows")[0]
    m["survey.generate_s"] = total("survey.generate")[0] * scale
    with_x_s, with_x_calls = total("survey.with_x")
    m["survey.with_x_s"] = with_x_s * scale
    m["survey.with_x_calls"] = with_x_calls

    chain_s, _ = total("mcmc.run_chain")
    iterations, _ = total("mcmc.run_chain", "iterations")
    coef_s, coef_n = total("mcmc.coef_draw")
    block_mins = [s[ATTRS]["block_acceptance_min"] for s in spans
                  if s[NAME] == "mcmc.run_chain" and "block_acceptance_min" in (s[ATTRS] or {})]
    m["mcmc.run_chain_s"] = self_wall("mcmc.run_chain") * scale
    m["mcmc.iterations"] = iterations
    m["mcmc.iter_us"] = 1e6 * chain_s / iterations * scale if iterations else 0.0
    m["mcmc.coef_draw_s"] = coef_s * scale
    m["mcmc.coef_draws"] = coef_n
    m["mcmc.theta_draw_s"] = total("mcmc.theta_draw")[0] * scale
    m["mcmc.cpu_s"] = sum(s[CPU] for s in spans if s[NAME] == "mcmc.run_chain") * scale
    m["mcmc.acceptance"] = min(block_mins, default=1.0)

    fit_s, fits = 0.0, 0
    for kind in ("ht", "wprobit", "rprobit", "rubin"):
        secs, calls = total(f"estimators.{kind}")
        m[f"estimators.{kind}_s"] = secs * scale
        if kind != "rubin":
            fit_s += secs
            fits += calls
    m["estimators.fits"] = fits
    m["estimators.fit_ms"] = 1e3 * fit_s / fits * scale if fits else 0.0
    m["estimators.newton_iters"] = (total("estimators.wprobit", "newton")[0]
                                    + total("estimators.rprobit", "newton")[0])
    m["estimators.cpu_s"] = sum(s[CPU] for s in spans if s[LAYER] == "estimators") * scale

    scen = [s for s in spans if s[NAME] == "harness.run_scenario"]
    task_s, tasks = total("harness.task")
    m["harness.run_scenario_s"] = self_wall("harness.run_scenario") * scale
    m["harness.tasks"] = tasks
    m["harness.task_s"] = task_s * scale
    capacity = sum((s[END] - s[START]) * s[ATTRS]["jobs"] for s in scen)
    m["harness.pool_efficiency"] = task_s / capacity if capacity else 0.0
    return m


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """layer -> self wall, self CPU and span count over all given spans."""
    own = self_times(spans)
    table = {layer: {"self_s": 0.0, "cpu_s": 0.0, "spans": 0} for layer in LAYERS}
    for s in spans:
        row = table[s[LAYER]]
        wall, cpu = own[s[SID]]
        row["self_s"] += wall
        row["cpu_s"] += cpu
        row["spans"] += 1
    return table
