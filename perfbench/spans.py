"""Boundary spans for the traced run, recorded from the benchmark's side.

Library modules import each other's functions by name (`model` binds
`jf_simplex_logit_grad_batch`, `cli` binds `train`), so a call crosses a
layer boundary through a name in the caller's module.  `Tracer.installed`
replaces exactly those names, and default arguments bound to them, with
timing wrappers, and restores them on exit.  `src/` is not modified.

A span's self time is its duration minus the time of the wrapped spans
it directly encloses.  What no wrapper sees stays in the enclosing span's
self time: inside `model.train` the forward pass, backprop, update and
finiteness guard; inside `objective` and `model.evaluate` the direct
`spec.conj*` attribute calls on a `DivergenceSpec`; and the constructors
of library classes such as `PosteriorMatrix`.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import FunctionType

ANALYSIS_CHECKS = (
    "binary_identity",
    "multiclass_identity",
    "pointwise_optimum",
    "argmax_invariance",
    "correction_exactness",
    "posterior_gap_bound",
    "first_order_bias",
)


def boundaries(workloads_module):
    """(caller module, bound name, span key) for every traced boundary."""
    from postmax import analysis, cli, model, objective, posterior

    table = [
        (workloads_module, "run_experiment", "cli.run_experiment"),
        (cli, "make_synthetic", "cli.data"),
        (cli, "split_dataset", "cli.data"),
        (cli, "corrupt", "noise.corrupt"),
        (cli, "init", "model.init"),
        (cli, "train", "model.train"),
        (cli, "evaluate", "model.evaluate"),
        # the per-epoch metrics pass inside train calls evaluate by name
        (model, "evaluate", "model.evaluate"),
        (workloads_module, "verify_theorems", "analysis.verify"),
        (workloads_module, "brute_force_conjugate", "divergence.grid_oracle"),
        (workloads_module, "conj_prime", "divergence.call"),
        (model, "get_divergence", "divergence.call"),
        (objective, "conj_prime", "divergence.call"),
        (objective, "conj_second", "divergence.call"),
        (posterior, "conj_prime", "divergence.call"),
    ]
    table += [
        (model, name, "objective.head_grad")
        for name in (
            "jf_simplex_logit_grad_batch",
            "jf_grad_batch",
            "corrected_grad_batch",
        )
    ]
    table += [
        (model, name, "objective.value")
        for name in (
            "jf_simplex_batch",
            "bias_simplex_batch",
            "corrected_jf_batch",
            "jf_batch",
        )
    ]
    table += [
        (analysis, name, "objective.exact")
        for name in ("exact_jf", "exact_jf_noisy", "exact_bias")
    ]
    table += [
        (analysis, name, "divergence.call")
        for name in ("conj_second", "optimal_T_from_posterior", "posterior_from_T")
    ]
    table += [
        (model, name, "posterior.call")
        for name in ("posterior_correct", "predict", "accuracy")
    ]
    table += [
        (analysis, name, "posterior.call")
        for name in ("noisy_posterior_forward", "posterior_correct", "predict")
    ]
    table += [
        (analysis, f"check_{name}", f"analysis.{name}") for name in ANALYSIS_CHECKS
    ]
    return table


class Tracer:
    """Per-key call counts, total and self times, and call durations."""

    def __init__(self, table):
        self._table = table
        self._stack = []  # [key, time of directly enclosed spans]
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.edges = Counter()  # (parent key, key) -> calls
        self.rows = 0  # rows passed through noise.corrupt

    def _wrap(self, fn, key):
        spans = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            parent = spans[-1][0] if spans else None
            spans.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                spans.pop()
                if spans:
                    spans[-1][1] += dt
                self.calls[key] += 1
                self.total[key] += dt
                self.self_time[key] += dt - frame[1]
                self.durations[key].append(dt)
                self.edges[parent, key] += 1
                if key == "noise.corrupt":
                    self.rows += len(args[0].labels)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every boundary name with a wrapper; restore on exit."""
        wrapped = [
            (module, name, getattr(module, name), key)
            for module, name, key in self._table
        ]
        wrapped = [(m, n, f, self._wrap(f, key)) for m, n, f, key in wrapped]
        # `check_binary_identity(bias_fn=exact_bias)` binds at definition
        saved_defaults = []
        for module, _, original, wrapper in wrapped:
            for fn in list(vars(module).values()):
                if isinstance(fn, FunctionType) and any(
                    d is original for d in fn.__defaults__ or ()
                ):
                    saved_defaults.append((fn, fn.__defaults__))
                    fn.__defaults__ = tuple(
                        wrapper if d is original else d for d in fn.__defaults__
                    )
        for module, name, _, wrapper in wrapped:
            setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original, _ in reversed(wrapped):
                setattr(module, name, original)
            for fn, defaults in reversed(saved_defaults):
                fn.__defaults__ = defaults

    def metrics(self, records: int) -> dict:
        """The per-layer metrics of one traced repetition."""
        calls, self_s, total = self.calls, self.self_time, self.total
        steps = self.edges["model.train", "objective.head_grad"]
        trainings = calls["model.train"]
        out = {
            "cli.trainings": trainings,
            "cli.trainings_per_record": trainings / records if trainings else 0.0,
            "cli.data_s": self_s["cli.data"],
            "cli.self_s": self_s["cli.run_experiment"],
            "noise.corrupt_s": self_s["noise.corrupt"],
            "noise.rows_corrupted": self.rows,
            "model.steps": steps,
            "model.train_self_us_per_step": (
                1e6 * self_s["model.train"] / steps if steps else 0.0
            ),
            "model.evaluate.calls": calls["model.evaluate"],
            "model.evaluate_self_s": self_s["model.evaluate"],
            "objective.head_grad.calls": calls["objective.head_grad"],
            "objective.head_grad_us.p50": 1e6 * _quantile(
                self.durations["objective.head_grad"], 0.50
            ),
            "objective.head_grad_us.p99": 1e6 * _quantile(
                self.durations["objective.head_grad"], 0.99
            ),
            "objective.value_s": self_s["objective.value"],
            "objective.exact.calls": calls["objective.exact"],
            "objective.exact_s": self_s["objective.exact"],
            "divergence.calls": (
                calls["divergence.call"] + calls["divergence.grid_oracle"]
            ),
            "divergence_s": (
                self_s["divergence.call"] + self_s["divergence.grid_oracle"]
            ),
            "divergence.grid_oracle.calls": calls["divergence.grid_oracle"],
            "divergence.grid_oracle_ms.p50": 1e3 * _quantile(
                self.durations["divergence.grid_oracle"], 0.50
            ),
            "posterior.calls": calls["posterior.call"],
            "posterior_s": self_s["posterior.call"],
        }
        for name in ANALYSIS_CHECKS:
            # whole check, enclosed layers included
            out[f"analysis.{name}_s"] = total[f"analysis.{name}"]
        return out


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median_metrics(per_rep: list) -> dict:
    """Median of each metric over repetitions."""
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "_us" in name:
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_per_record"):
        return "ratio"
    return "count"
