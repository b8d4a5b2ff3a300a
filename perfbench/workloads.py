"""The benchmark's three workloads: their inputs, parts and correctness gates.

Every workload is built from the workload seed alone (`build`) into a
`Job`: a list of parts, each a call into the library through the entry
points the CLI uses (`parse_config` -> `run_experiment` per training seed
for the sweeps; `verify_theorems` per verify seed and the grid oracle per
divergence for `oracle`).  One repetition runs every part in order, then
`check` gates the combined results and digests them.  Parts are the unit
of timing (see run.py); a sweep part gives the same records as the seed's
share of a single multi-seed `run_experiment` call.

The library functions called from here are bound as module names on
purpose: the traced run replaces exactly these names (see spans.py).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from postmax.analysis import verify_theorems
from postmax.cli import parse_config, run_experiment
from postmax.divergence import (
    DIVERGENCE_IDS,
    brute_force_conjugate,
    conj_prime,
    get_divergence,
)

# Interior t windows and step of acceptance 01's finite-difference check
# against the grid oracle, where the conjugate slope is well conditioned
# and t +- h stays inside the conjugate domain.
ORACLE_T_RANGES = {"kl": (-3.0, 3.0), "gan": (-3.0, -0.1), "sl": (-0.9, -0.1)}
FD_STEP = 3e-4
FD_TOLERANCE = 1e-4  # acceptance 01
ORACLE_POINTS = 8  # t points per divergence
VERIFY_SEEDS = 3  # verify_theorems runs per repetition

# `--seed 0` gives exactly acceptance 12's inputs (split_seed 0, seeds
# 0..4), and there its gates apply as they stand.  Its thresholds were set
# on those inputs; over seeds 0..39 the five-seed means range widely
# (clean accuracy 0.939-0.988, recovery 0.00-0.53 with median 0.34, the
# objective mode once tying none), so every seed gates only what held on
# all 40: clean accuracy >= 0.9 and the corrected modes' mean >= none.
ACCEPTANCE_12_SEED = 0


@dataclass(frozen=True)
class Job:
    seed: int
    parts: tuple  # (function, argument) pairs, run in order


@dataclass(frozen=True)
class Outcome:
    quality: dict  # name -> (value, unit)
    gates: dict  # name -> bool
    digest: str
    records: int

    @property
    def passed(self) -> bool:
        return all(self.gates.values())


def _sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _records_digest(records) -> str:
    """SHA-256 over every record field except wall_seconds."""
    rows = sorted(
        (
            r.seed,
            r.divergence,
            r.noise,
            r.correction,
            repr(r.clean_test_accuracy),
            repr(r.noisy_test_accuracy),
            repr(r.final_objective),
        )
        for r in records
    )
    return _sha256(rows)


def _mean(records, field: str, mode=None) -> float:
    return float(
        np.mean(
            [getattr(r, field) for r in records if mode in (None, r.correction)]
        )
    )


def _records_well_formed(records) -> bool:
    return bool(records) and all(
        math.isfinite(r.final_objective)
        and 0.0 <= r.clean_test_accuracy <= 1.0
        and 0.0 <= r.noisy_test_accuracy <= 1.0
        for r in records
    )


def _sweep(cfg):
    # looks run_experiment up at call time, so the traced run sees the call
    return run_experiment(cfg)


def _sweep_job(seed, training_seeds, k, n, d, hidden, head, divergence, noise,
               epochs, batch) -> Job:
    """One part per training seed; every part shares the seed's data split."""
    parts = []
    for s in training_seeds:
        tree = {
            "dataset": {
                "source": "synthetic",
                "k": k,
                "n": n,
                "d": d,
                "class_separation": 4.0,
                "split_seed": seed,
            },
            "model": {"hidden": hidden, "activation": "relu", "head": head},
            "objective": {
                "divergence": divergence,
                "correction": ["none", "objective", "posterior"],
            },
            "noise": noise,
            "train": {"epochs": epochs, "batch_size": batch, "lr0": 0.02},
            "seeds": [s],
        }
        parts.append((_sweep, parse_config(tree)))
    return Job(seed, tuple(parts))


class Desk:
    """Acceptance 12's sweep: K=2, 10-16-2 simplex head, kl, 60 epochs."""

    def build(self, seed: int) -> Job:
        return _sweep_job(
            seed, [5 * seed + i for i in range(5)], k=2, n=1000, d=10,
            hidden=[16], head="simplex", divergence="kl",
            noise={"kind": "uniform_offdiag", "e": [0.1, 0.3]},
            epochs=60, batch=32,
        )

    def check(self, job: Job, results) -> Outcome:
        records = [r for part in results for r in part]
        clean = _mean(records, "clean_test_accuracy")
        none = _mean(records, "noisy_test_accuracy", "none")
        corrected = {
            mode: _mean(records, "noisy_test_accuracy", mode)
            for mode in ("objective", "posterior")
        }
        recovery = min((acc - none) / (clean - none) for acc in corrected.values())
        gates = {
            "records_well_formed": _records_well_formed(records),
            "clean_acc>=0.9": clean >= 0.9,
            "corrected_mean>=none": sum(corrected.values()) / 2 >= none,
        }
        if job.seed == ACCEPTANCE_12_SEED:
            gates["clean_acc>=0.95"] = clean >= 0.95
            gates["objective>none"] = corrected["objective"] > none
            gates["posterior>none"] = corrected["posterior"] > none
            gates["recovery>=0.4"] = recovery >= 0.4
        quality = {
            "test_acc": (_mean(records, "noisy_test_accuracy"), "fraction"),
            "clean_acc": (clean, "fraction"),
            "recovery": (recovery, "fraction"),
        }
        return Outcome(quality, gates, _records_digest(records), len(records))


class Wide:
    """K=10, 100-256-10 raw_t head, gan, symmetric noise: BLAS-bound steps."""

    def build(self, seed: int) -> Job:
        return _sweep_job(
            seed, [2 * seed, 2 * seed + 1], k=10, n=5000, d=100,
            hidden=[256], head="raw_t", divergence="gan",
            noise={"kind": "symmetric", "eta": 0.3}, epochs=8, batch=256,
        )

    def check(self, job: Job, results) -> Outcome:
        records = [r for part in results for r in part]
        clean = _mean(records, "clean_test_accuracy")
        gates = {
            "records_well_formed": _records_well_formed(records),
            # chance is 0.1 at K=10
            "clean_acc>=0.5": clean >= 0.5,
        }
        quality = {
            "test_acc": (_mean(records, "noisy_test_accuracy"), "fraction"),
            "clean_acc": (clean, "fraction"),
        }
        return Outcome(quality, gates, _records_digest(records), len(records))


def _verify(seed):
    return [
        ("report", r.theorem_id, r.trials, repr(r.max_error), repr(r.threshold),
         r.passed)
        for r in verify_theorems(seed)
    ]


def _grid(points):
    div_id, ts = points
    rows = []
    for t in ts:
        fd = (
            brute_force_conjugate(div_id, t + FD_STEP)
            - brute_force_conjugate(div_id, t - FD_STEP)
        ) / (2.0 * FD_STEP)
        err = abs(float(conj_prime(div_id, t)) - fd)
        rows.append(("grid", div_id, repr(t), err))
    return rows


class Oracle:
    """verify_theorems over a few seeds plus acceptance 01's grid check."""

    def build(self, seed: int) -> Job:
        rng = np.random.default_rng(seed)
        parts = [(_verify, VERIFY_SEEDS * seed + j) for j in range(VERIFY_SEEDS)]
        for div_id in DIVERGENCE_IDS:
            lo, hi = ORACLE_T_RANGES[div_id]
            t = np.sort(rng.uniform(lo, hi, size=ORACLE_POINTS))
            # the whole stencil must lie inside the open conjugate domain
            dom_lo, dom_hi = get_divergence(div_id).conj_domain
            if np.any(t - FD_STEP <= dom_lo) or np.any(t + FD_STEP >= dom_hi):
                raise ValueError(f"grid points leave the domain of {div_id!r}")
            parts.append((_grid, (div_id, tuple(float(v) for v in t))))
        return Job(seed, tuple(parts))

    def check(self, job: Job, results) -> Outcome:
        rows = [row for part in results for row in part]
        reports = [row for row in rows if row[0] == "report"]
        worst = max(row[3] for row in rows if row[0] == "grid")
        gates = {
            "theorems_pass": all(row[5] for row in reports),
            "oracle_fd_err<=1e-4": worst <= FD_TOLERANCE,
        }
        quality = {"oracle_fd_err": (worst, "abs")}
        return Outcome(quality, gates, _sha256(rows), len(reports))


WORKLOADS = {"desk": Desk(), "wide": Wide(), "oracle": Oracle()}
