"""Spans around calls into dtekit's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the eight layer modules at
every binding that holds it: the defining module, each dtekit module that
imported it by name (``indicator_labels`` in both ``estimation`` and
``inference``, ``train`` and ``forward`` in ``learners``), and the package
itself. Each call becomes a span (name, start, end, parent, op) kept in memory.
``summary`` turns the spans of the traced ops into the per-layer metrics that
BENCHMARK.json lists, and ``write`` saves the raw spans once the run is over.
A listed ``<layer>.<function>.calls`` is that function's calls per traced op,
a listed ``<layer>.<function>.s`` its self time per traced op; every other
listed name must be one of the counters ``summary`` computes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("core", "estimation", "learners", "nn", "inference", "simulation", "io", "cli")

_WRITERS = ("io.emit_report", "io.write_points_csv", "io.write_manifest", "io.write_timings_csv")


def _fitted_bytes(learner) -> int:
    arrays = [learner.x_mean, learner.x_scale]
    if learner.coef is not None:
        arrays.append(learner.coef)
    for state in learner.states:
        for group in ("weights", "biases", "m_weights", "v_weights", "m_biases", "v_biases"):
            arrays.extend(getattr(state, group))
    return sum(a.nbytes for a in arrays)


def _step_flop(spec, config) -> int:
    """Matmul flop of one training step: forward, weight gradients, input gradients.

    ``backward`` recomputes the forward pass, and the input gradient of the
    first layer is never formed.
    """
    macs = [a * b for a, b in zip(spec.widths[:-1], spec.widths[1:])]
    return 2 * config.batch_size * (2 * sum(macs) + sum(macs[1:]))


class Tracer:
    """In-memory span recorder; install it only around the ops it should see."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self.wrapped: set[str] = set()
        self.op = -1
        self.n_ops = 0
        self.fitted_bytes = 0
        self.step_flop: list[int] = []
        self.draw_flop = 0
        self.bytes_written = 0

    def _probe(self, name: str, fn, args, kwargs, result) -> None:
        if name == "learners.fit":
            self.fitted_bytes = max(self.fitted_bytes, _fitted_bytes(result))
        elif name == "nn.train":
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            self.step_flop.append(_step_flop(bound["spec"], bound["config"]))
        elif name == "inference.bootstrap_draws":
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            k, n, m = bound["psi"].values.shape
            self.draw_flop += 2 * bound["n_draws"] * n * k * m
        elif name in _WRITERS:
            self.bytes_written += Path(result).stat().st_size

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probed = name in ("learners.fit", "nn.train", "inference.bootstrap_draws", *_WRITERS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if probed:
                self._probe(name, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "dtekit" or key.startswith("dtekit.")]
        for layer in LAYERS:
            module = importlib.import_module(f"dtekit.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.add(f"{layer}.{attr}")
                for holder in modules:
                    if vars(holder).get(attr) is fn:
                        self._patched.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, fn = self._patched.pop()
            setattr(holder, attr, fn)

    def begin_op(self, index: int) -> None:
        self.op = index
        self.install()

    def end_op(self) -> None:
        self.uninstall()
        self.n_ops += 1

    def summary(self, listed: list[dict], overhead_pct: float) -> dict:
        """The ``listed`` per-layer metrics, each with its listed unit, per traced op."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                covered[parent] += duration
        calls = defaultdict(int)
        self_s = defaultdict(float)
        steps = []
        backward_start = {}
        for (name, start, end, parent, _), duration, inner in zip(self.spans, durations, covered):
            calls[name] += 1
            self_s[name] += duration - inner
            # a training step runs from a backward call to the adam_step after it
            if name == "nn.backward":
                backward_start[parent] = start
            elif name == "nn.adam_step" and parent in backward_start:
                steps.append((end - backward_start.pop(parent)) * 1e6)
        ops = max(self.n_ops, 1)
        computed = {
            "nn.flop_per_step": statistics.fmean(self.step_flop) if self.step_flop else 0.0,
            "learners.fitted_bytes": self.fitted_bytes,
            "inference.draw_flop": self.draw_flop / ops,
            "io.bytes_written": self.bytes_written / ops,
            "trace.overhead_pct": overhead_pct,
        }
        if len(steps) >= 2:
            cuts = statistics.quantiles(steps, n=100, method="inclusive")
            computed["nn.step_us.p50"], computed["nn.step_us.p99"] = cuts[49], cuts[98]
        else:
            computed["nn.step_us.p50"] = computed["nn.step_us.p99"] = float(steps[0]) if steps else 0.0
        metrics = {}
        for metric in listed:
            name = metric["name"]
            span, _, kind = name.rpartition(".")
            if name in computed:
                value = computed[name]
            elif span in self.wrapped and kind == "calls":
                value = calls[span] / ops
            elif span in self.wrapped and kind == "s":
                value = self_s[span] / ops
            else:
                raise KeyError(f"per-layer metric {name} is neither a traced function nor a computed counter")
            metrics[name] = {"value": value, "unit": metric["unit"]}
        return metrics

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**header, "traced_ops": self.n_ops, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)
