"""Outside-in span tracer for the tvdbn benchmark.

The tracer replaces public tvdbn functions with timing wrappers in every
tvdbn namespace that holds them (``tvdbn.grcsl.gru_step``,
``tvdbn.cli.train_grcsl`` and so on), and wraps the two methods that carry
the optimiser loop, ``Tensor.backward`` and ``Adam.step``. Nothing inside
``src/`` changes. Spans (name, start, end, parent) are kept in memory and
written out when the run ends; a span's self time is its duration minus the
durations of its direct children.

Structure-learner spans are named by phase, ``grcsl.train.*`` or
``grcsl.eval.*``, taken from the ``train`` argument of the enclosing
``grcsl_forward_batch`` call. A function with a ``_hook_<name>`` method on
the tracer also records counters from its arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name); a span name of None means "grcsl.<phase>.<attribute>".
FUNCTIONS = [
    ("tvdbn.grcsl", "grcsl_forward_batch", None),
    ("tvdbn.grcsl", "extract_features", None),
    ("tvdbn.grcsl", "msdot", None),
    ("tvdbn.grcsl", "gru_step", None),
    ("tvdbn.grcsl", "graph_head", None),
    ("tvdbn.grcsl", "sem_reconstruct", None),
    ("tvdbn.constraint", "notears_h", "constraint.notears_h"),
    ("tvdbn.constraint", "grcsl_loss", "constraint.grcsl_loss"),
    ("tvdbn.constraint", "train_grcsl", "constraint.train_grcsl"),
    ("tvdbn.graphops", "normalize_symmetric", "graphops.normalize_symmetric"),
    ("tvdbn.graphops", "gconv_spectral", "graphops.gconv_spectral"),
    ("tvdbn.graphops", "gconv_spatial", "graphops.gconv_spatial"),
    ("tvdbn.graphops", "dygconv", "graphops.dygconv"),
    ("tvdbn.dgcpm", "dgcpm_forward_batch", "dgcpm.dgcpm_forward_batch"),
    ("tvdbn.dgcpm", "masked_mae_loss", "dgcpm.masked_mae_loss"),
    ("tvdbn.dgcpm", "curriculum_train", "dgcpm.curriculum_train"),
    ("tvdbn.dgcpm", "predict", "dgcpm.predict"),
    ("tvdbn.data", "load_speed_table", "data.load_speed_table"),
    ("tvdbn.data", "make_windows", "data.make_windows"),
    ("tvdbn.synth", "sample_tvdbn", "synth.sample_tvdbn"),
    ("tvdbn.synth", "simulate_linear_sem", "synth.simulate_linear_sem"),
    ("tvdbn.checkpoint", "save_grcsl", "checkpoint.save"),
    ("tvdbn.checkpoint", "save_dgcpm", "checkpoint.save"),
    ("tvdbn.checkpoint", "load_grcsl", "checkpoint.load"),
    ("tvdbn.checkpoint", "load_dgcpm", "checkpoint.load"),
    ("tvdbn.metrics", "evaluate", "metrics.evaluate"),
]

METHODS = [
    ("tvdbn.numerics.tensor", "Tensor", "backward", "numerics.backward"),
    ("tvdbn.numerics.optim", "Adam", "step", "numerics.adam_step"),
]

# Counters whose merge across processes is a maximum, not a sum.
MAX_COUNTERS = ("numerics.tape_peak_mb",)


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._phase = "eval"
        self._in_train_grcsl = 0
        self._adam_steps = 0

    # ------------------------------------------------------------------ spans

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        hook = getattr(self, "_hook_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                return hook(fn, args, kwargs)
            return self._call(name or f"grcsl.{self._phase}.{fn.__name__}", fn, args, kwargs)

        return traced

    # ------------------------------------------------------- per-function hooks

    def _hook_grcsl_forward_batch(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        outer = self._phase
        self._phase = "train" if bound.arguments["train"] else "eval"
        if self._phase == "eval" and not self._in_train_grcsl:
            self.counters["grcsl.generated_windows"] += len(bound.arguments["values"])
        try:
            return self._call(f"grcsl.{self._phase}.grcsl_forward_batch", fn, args, kwargs)
        finally:
            self._phase = outer

    def _hook_train_grcsl(self, fn, args, kwargs):
        steps_before = self._adam_steps
        self._in_train_grcsl += 1
        try:
            result = self._call("constraint.train_grcsl", fn, args, kwargs)
        finally:
            self._in_train_grcsl -= 1
        self.counters["constraint.inner_steps"] += self._adam_steps - steps_before
        self.counters["constraint.outer_iters"] += len(result.history)
        if result.history:
            self.counters["constraint.final_S"] = result.history[-1]["S"]
            self.counters["constraint.final_f"] = result.history[-1]["f"]
        return result

    def _hook_curriculum_train(self, fn, args, kwargs):
        result = self._call("dgcpm.curriculum_train", fn, args, kwargs)
        self.counters["dgcpm.epochs"] += len(result.history)
        return result

    def _hook_make_windows(self, fn, args, kwargs):
        result = self._call("data.make_windows", fn, args, kwargs)
        self.counters["data.windows"] += len(result)
        nbytes = sum(
            getattr(win, part).nbytes
            for win in result.windows
            for part in ("values", "mask", "tod", "target", "target_mask")
        )
        self.counters["data.window_mb"] += nbytes / 2**20
        return result

    def _save(self, fn, args, kwargs):
        result = self._call("checkpoint.save", fn, args, kwargs)
        path = args[0] if args else kwargs["path"]
        self.counters["checkpoint.bytes"] += os.path.getsize(path)
        return result

    _hook_save_grcsl = _save
    _hook_save_dgcpm = _save

    def _hook_step(self, fn, args, kwargs):
        # The tape of one training step is what the step after the first
        # allocates between the end of one optimiser update and the next.
        result = self._call("numerics.adam_step", fn, args, kwargs)
        self._adam_steps += 1
        if self._adam_steps == 1:
            tracemalloc.start()
        elif self._adam_steps == 2:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.counters["numerics.tape_peak_mb"] = peak / 2**20
        return result

    # --------------------------------------------------------- install/remove

    def install(self) -> None:
        """Swap every traced function and method for its wrapper."""
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "tvdbn" or mod_name.startswith("tvdbn."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, value))
                            setattr(module, key, wrapped)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # ---------------------------------------------------------------- results

    def summary(self) -> dict[str, float]:
        """Self time (``<name>_s``) and call count (``<name>_calls``) per span name, plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name + "_s"] += (end - start) - children
            out[name + "_calls"] += 1
        out.update(self.counters)
        return dict(out)

    def write_spans(self, path: str) -> None:
        """Write spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def merge(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Combine per-process summaries: sums, except peaks, which take the maximum."""
    out: dict[str, float] = defaultdict(float)
    for summary in summaries:
        for key, value in summary.items():
            out[key] = max(out[key], value) if key in MAX_COUNTERS else out[key] + value
    return dict(out)
