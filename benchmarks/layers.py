"""Per-layer tracing for the sweep benchmark.

Wraps each layer's public functions at the module attribute the program
calls them through, so no line of the package changes.  Every wrapped call
records a span (layer, start, end, parent span, trial id) and a call count;
a layer's self time is its span time minus the time of its direct children.
Trials run one after another (``--threads 1``), so a single span stack
gives each span its parent.  A trial starts at its ``draw_paths`` call,
which the evaluation loop makes exactly once per trial.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# (layer, module, attribute): the call-site names the program resolves at
# call time.  A layer reached through two names is listed once per name.
CALL_SITES = (
    ("cli.parse_config", "rydcomb.cli", "parse_config"),
    ("cli.emit_results", "rydcomb.cli", "emit_results"),
    ("evaluation.trial_loop", "rydcomb.cli", "run_experiment"),
    ("evaluation.trial_loop", "rydcomb.cli", "run_convergence"),
    ("channel.draw_paths", "rydcomb.evaluation", "draw_paths"),
    ("channel.channel_matrix", "rydcomb.evaluation", "channel_matrix"),
    ("arrays.steering", "rydcomb.channel", "array_response"),
    ("arrays.steering", "rydcomb.channel", "upa_response"),
    ("optimizer.svd_reference", "rydcomb.evaluation", "optimal_digital_combiner"),
    ("optimizer.altmin", "rydcomb.optimizer", "alternating_minimize"),
    ("optimizer.altmin", "rydcomb.evaluation", "alternating_minimize"),
    ("optimizer.direct", "rydcomb.optimizer", "direct_solve_proportional"),
    ("architecture.compose_wrf", "rydcomb.evaluation", "compose_wrf"),
    ("evaluation.rate", "rydcomb.evaluation", "combined_gain_eigenvalues"),
)

# Layers reported per trial as calls and self time.
TRIAL_LAYERS = ("arrays.steering", "channel.channel_matrix",
                "channel.draw_paths", "optimizer.svd_reference",
                "optimizer.altmin", "optimizer.direct",
                "architecture.compose_wrf", "evaluation.rate")


class LayerMissing(RuntimeError):
    """A wrapped function no longer exists at its call-site name."""


@dataclass
class Tracer:
    """In-memory span log.  A span is [layer, start_ns, end_ns, parent, trial]."""

    spans: list = field(default_factory=list)
    trials_started: int = 0
    altmin_iterations: list = field(default_factory=list)
    altmin_unconverged: int = 0
    _stack: list = field(default_factory=list)
    _trial: object = None

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "channel.draw_paths":
                self._trial = self.trials_started
                self.trials_started += 1
            index = len(self.spans)
            span = [layer, 0, 0, self._stack[-1] if self._stack else -1,
                    self._trial]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                if layer == "evaluation.trial_loop":
                    self._trial = None
            if layer == "optimizer.altmin":
                self.altmin_iterations.append(result.iterations)
                self.altmin_unconverged += not result.converged
            return result
        return traced

    def totals(self) -> dict:
        """Per layer: calls, total ns and self ns over all recorded spans."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (layer, start, end, _, _), children in zip(self.spans, child_ns):
            entry = out.setdefault(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - children
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every call site with a tracing wrapper; restore on exit.

    Fails before patching anything if a call-site name is gone, so that a
    renamed layer cannot read as zero calls.
    """
    targets = []
    for layer, module_name, attr in CALL_SITES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LayerMissing(
                f"layer {layer}: {module_name}.{attr} no longer exists; "
                f"update CALL_SITES in benchmarks/layers.py")
        targets.append((module, attr, fn, layer))
    try:
        for module, attr, fn, layer in targets:
            setattr(module, attr, tracer.wrap(layer, fn))
        yield tracer
    finally:
        for module, attr, fn, _ in targets:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, trials: int, rounds: int, time_scale: float,
                  overhead_ratio: float) -> dict:
    """Per-trial layer metrics from the spans of ``rounds`` traced rounds
    covering ``trials`` trials, as {name: (value, unit)}.  Span times are
    multiplied by ``time_scale``."""
    if tracer.trials_started != trials:
        raise RuntimeError(
            f"traced {tracer.trials_started} draw_paths calls for {trials} "
            f"trials; trial ids would be wrong")
    totals = tracer.totals()
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}
    ms = 1e-6 * time_scale
    out: dict = {}
    for layer in TRIAL_LAYERS:
        t = totals.get(layer, zero)
        out[f"{layer}.calls"] = (t["calls"] / trials, "1/trial")
        out[f"{layer}.self_ms"] = (t["self_ns"] * ms / trials, "ms/trial")
    iters = tracer.altmin_iterations
    altmin = totals.get("optimizer.altmin", zero)
    out["optimizer.altmin.iters_mean"] = (
        sum(iters) / len(iters) if iters else 0.0, "count")
    out["optimizer.altmin.iters_max"] = (max(iters, default=0), "count")
    out["optimizer.altmin.ms_per_iter"] = (
        altmin["self_ns"] * ms / sum(iters) if iters else 0.0, "ms")
    out["optimizer.altmin.unconverged_ratio"] = (
        tracer.altmin_unconverged / len(iters) if iters else 0.0, "ratio")
    loop = totals["evaluation.trial_loop"]
    out["evaluation.trial_loop.ms"] = (loop["total_ns"] * ms / trials, "ms/trial")
    out["evaluation.trial_loop.self_ms"] = (loop["self_ns"] * ms / trials,
                                            "ms/trial")
    out["trace.untraced_share"] = (loop["self_ns"] / loop["total_ns"], "ratio")
    out["cli.parse_config.ms"] = (
        totals["cli.parse_config"]["total_ns"] * ms / rounds, "ms")
    out["cli.emit_results.ms"] = (
        totals["cli.emit_results"]["total_ns"] * ms / rounds, "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
