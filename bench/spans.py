"""Spans and counts at gpquad's layer boundaries, recorded from outside.

``Tracer.installed()`` swaps wrappers into the module globals and class
attributes through which the studies reach each layer, and restores the
originals on exit; no file under ``src/`` changes.  A span is (name,
parent, start, end); spans stay in memory until ``summary()`` folds them
into per-name totals.  Self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
from gpquad import experiments, filtering, kernels, points, quadrature


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.counts.clear()
        for buffer in (self._names, self._parents, self._starts, self._ends, self._stack):
            buffer.clear()

    def wrap(self, name, fn, on_return=None):
        """Wrap ``fn`` so each call records a span and, after it returns,
        ``on_return(counts, args, result)``."""
        names, parents, starts, ends, stack = (
            self._names, self._parents, self._starts, self._ends, self._stack)
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        patches = list(self._patches())
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _patches(self):
        """(owner, attribute, wrapper) for every traced boundary."""
        wrap = self.wrap

        def count_model(counts, args, result):
            counts["models.points_evaluated"] += np.shape(args[0])[0]

        def traced_model(ctor):
            def build(*args, **kwargs):
                model = ctor(*args, **kwargs)
                return dataclasses.replace(
                    model,
                    transition=wrap("models.transition", model.transition, count_model),
                    measurement=wrap("models.measurement", model.measurement, count_model))
            return build

        def count(key, amount):
            def on_return(counts, args, result):
                counts[key] += amount(args, result)
            return on_return

        run_filter = wrap("filtering.run_filter", filtering.run_filter,
                          count("filtering.filter_steps", lambda a, r: len(r)))
        run_smoother = wrap("filtering.run_smoother", filtering.run_smoother,
                            count("filtering.smoother_steps",
                                  lambda a, r: max(len(r[0]) - 1, 0)))
        simulate = wrap("models.simulate", experiments.simulate,
                        count("models.simulate_steps", lambda a, r: len(r.measurements)))
        gpq_weights = wrap("quadrature.gpq_weights", quadrature.gpq_weights)
        optimize = wrap("points.optimize_points", points.optimize_points)
        hermite_kernel = kernels.HermitePolynomialKernel
        se_kernel = kernels.SquaredExponentialKernel
        yield from [
            (experiments, "run_filter", run_filter),
            (experiments, "run_smoother", run_smoother),
            (experiments, "simulate", simulate),
            (experiments, "ungm_model", traced_model(experiments.ungm_model)),
            (experiments, "bot_model", traced_model(experiments.bot_model)),
            (experiments, "build_rule", wrap("experiments.build_rule", experiments.build_rule)),
            (experiments, "moments_ground_truth",
             wrap("experiments.moments_truth", experiments.moments_ground_truth)),
            (experiments, "gpq_weights", gpq_weights),
            (quadrature, "gpq_weights", gpq_weights),
            (experiments, "optimize_points", optimize),
            (points, "optimize_points", optimize),
            (quadrature, "gpq_variance",
             wrap("quadrature.gpq_variance", quadrature.gpq_variance)),
            (filtering, "matrix_sqrt",
             wrap("quadrature.matrix_sqrt", filtering.matrix_sqrt,
                  count("quadrature.matrix_sqrt_fallbacks",
                        lambda a, r: int(r.spd_fallback)))),
            (kernels, "HermitePolynomialKernel",
             wrap("kernels.hermite_kernel_init", hermite_kernel,
                  count("kernels.hermite_kernel_terms", lambda a, r: len(r.index_set)))),
            (kernels, "enumerate_indices",
             wrap("hermite.enumerate_indices", kernels.enumerate_indices)),
            (kernels, "hermite_design_matrix",
             wrap("hermite.design_matrix", kernels.hermite_design_matrix)),
            (hermite_kernel, "gram", wrap("kernels.gram", hermite_kernel.gram)),
            (se_kernel, "gram", wrap("kernels.gram", se_kernel.gram)),
            (hermite_kernel, "mean_embedding",
             wrap("kernels.mean_embedding", hermite_kernel.mean_embedding)),
            (se_kernel, "mean_embedding",
             wrap("kernels.mean_embedding", se_kernel.mean_embedding)),
        ]

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) and self seconds; the
        number of spans and the summed duration of top-level spans."""
        durations = np.array(self._ends) - np.array(self._starts)
        child_time = np.zeros(len(durations))
        for index, parent in enumerate(self._parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top_level = 0.0
        for index, name in enumerate(self._names):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += durations[index]
            row["self_s"] += durations[index] - child_time[index]
            if self._parents[index] < 0:
                top_level += durations[index]
        return {"spans": dict(table), "counts": dict(self.counts),
                "span_count": len(self._names), "top_level_s": top_level}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced round, keyed by metric name."""
    spans, counts = summary["spans"], summary["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per_step(name, steps_key):
        steps = counts.get(steps_key, 0)
        return 1e6 * total(name) / steps if steps else 0.0

    filtering_self = sum(spans.get(name, {}).get("self_s", 0.0)
                         for name in ("filtering.run_filter", "filtering.run_smoother"))
    return {
        "filtering.run_filter_s": total("filtering.run_filter"),
        "filtering.filter_us_per_step": per_step("filtering.run_filter",
                                                 "filtering.filter_steps"),
        "filtering.run_smoother_s": total("filtering.run_smoother"),
        "filtering.smoother_us_per_step": per_step("filtering.run_smoother",
                                                   "filtering.smoother_steps"),
        "filtering.self_s": filtering_self,
        "models.simulate_s": total("models.simulate"),
        "models.simulate_steps": counts.get("models.simulate_steps", 0),
        "models.transition_calls": calls("models.transition"),
        "models.measurement_calls": calls("models.measurement"),
        "models.points_evaluated": counts.get("models.points_evaluated", 0),
        "models.model_fn_s": total("models.transition") + total("models.measurement"),
        "quadrature.matrix_sqrt_calls": calls("quadrature.matrix_sqrt"),
        "quadrature.matrix_sqrt_fallbacks": counts.get("quadrature.matrix_sqrt_fallbacks", 0),
        "quadrature.gpq_weights_s": total("quadrature.gpq_weights"),
        "quadrature.gpq_weights_calls": calls("quadrature.gpq_weights"),
        "quadrature.gpq_variance_s": total("quadrature.gpq_variance"),
        "quadrature.gpq_variance_calls": calls("quadrature.gpq_variance"),
        "points.optimize_points_s": total("points.optimize_points"),
        "points.optimize_points_calls": calls("points.optimize_points"),
        "kernels.hermite_kernel_init_s": total("kernels.hermite_kernel_init"),
        "kernels.hermite_kernel_terms": counts.get("kernels.hermite_kernel_terms", 0),
        "kernels.gram_s": total("kernels.gram"),
        "kernels.mean_embedding_s": total("kernels.mean_embedding"),
        "hermite.enumerate_indices_s": total("hermite.enumerate_indices"),
        "hermite.design_matrix_s": total("hermite.design_matrix"),
        "experiments.build_rule_s": total("experiments.build_rule"),
        "experiments.build_rule_calls": calls("experiments.build_rule"),
        "experiments.moments_truth_s": total("experiments.moments_truth"),
        "experiments.moments_truth_calls": calls("experiments.moments_truth"),
        "trace.spans": summary["span_count"],
    }

