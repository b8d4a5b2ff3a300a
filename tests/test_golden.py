"""Golden training records: the exact bits of small sweeps and traces.

Every head x divergence x K in {2, 3} sweep, one uniform off-diagonal
sweep, two sweeps whose last mini-batch is ragged, one sweep at the
benchmark's wide shape (100-256-10, batches of 256 and a ragged 64), one
at odd widths (16-20-2, batches of 32) and one TrainTrace per head are
pinned in golden_records.json:
accuracies exactly and objectives by repr.  So is one step's simplex head
gradient per divergence x K x rates, by the SHA-256 of its bits: a
one-ulp change there can vanish once the update adds it to much larger
weights.  numpy picks its SIMD exp and
log kernels by CPU, so the numpy version and CPU the pins were taken on
are written beside them and shown when a pin fails.  A change that moves
a pin on purpose regenerates the file with `python tests/test_golden.py`
and says in CHANGES.md which cases moved and why.
"""

import hashlib
import json
import platform
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from postmax.cli import make_synthetic, parse_config, run_experiment, split_dataset
from postmax.divergence import DIVERGENCE_IDS
from postmax.model import MlpSpec, TrainConfig, init, train
from postmax.noise import NoiseParams, corrupt
from postmax.objective import ObjectiveConfig, jf_simplex_logit_grad_batch

PINS = Path(__file__).with_name("golden_records.json")
HEADS = ("simplex", "raw_t")
N, D, HIDDEN, EPOCHS, BATCH = 200, 5, 8, 5, 16
SEEDS = (0, 1)
MODES = ("none", "objective", "posterior")


def _activation(k):
    return "relu" if k == 2 else "tanh"


def _sweep_tree(
    head, div_id, k, noise, batch=BATCH, n=N, d=D, hidden=HIDDEN, activation=None
):
    activation = activation or _activation(k)
    return {
        "dataset": {"source": "synthetic", "k": k, "n": n, "d": d},
        "model": {"hidden": [hidden], "activation": activation, "head": head},
        "objective": {"divergence": div_id, "correction": list(MODES)},
        "noise": noise,
        "train": {"epochs": EPOCHS, "batch_size": batch},
        "seeds": list(SEEDS),
    }


def sweep_cases():
    """name -> config tree of every pinned sweep."""
    cases = {}
    for head in HEADS:
        for div_id in DIVERGENCE_IDS:
            for k in (2, 3):
                symmetric = {"kind": "symmetric", "eta": 0.2}
                cases[f"{head}-{div_id}-k{k}"] = _sweep_tree(head, div_id, k, symmetric)
    offdiag = {"kind": "uniform_offdiag", "e": [0.1, 0.3]}
    cases["simplex-kl-k2-offdiag"] = _sweep_tree("simplex", "kl", 2, offdiag)
    # batches of 24 split the 160 training rows 6 x 24 + 16, so the last
    # step of every epoch runs on the first rows of the step's workspaces
    cases["simplex-kl-k2-offdiag-b24"] = _sweep_tree(
        "simplex", "kl", 2, offdiag, batch=24
    )
    cases["raw_t-gan-k3-b24"] = _sweep_tree(
        "raw_t", "gan", 3, {"kind": "symmetric", "eta": 0.2}, batch=24
    )
    # the benchmark's wide shape, 100-256-10, on 320 training rows: a
    # batch of 256 and a ragged one of 64
    cases["raw_t-gan-k10-wide-b256"] = _sweep_tree(
        "raw_t", "gan", 10, {"kind": "symmetric", "eta": 0.3}, batch=256,
        n=400, d=100, hidden=256, activation="relu",
    )
    # odd widths, 16-20-2, where BLAS serves the layers with other kernels
    cases["simplex-kl-k2-odd-b32"] = _sweep_tree(
        "simplex", "kl", 2, offdiag, batch=32, d=16, hidden=20
    )
    return cases


def sweep_pins(tree):
    """A sweep's records without wall_seconds, objectives by repr."""
    return [
        [r.seed, r.correction, r.clean_test_accuracy, r.noisy_test_accuracy,
         repr(r.final_objective)]
        for r in run_experiment(parse_config(tree))
    ]


# one objective-corrected train() call per head: gan simplex at K = 3 and
# sl raw_t at K = 2, the heads' least covered paths
TRACE_CASES = {"simplex": ("gan", 3), "raw_t": ("sl", 2)}


def trace_pins(head):
    """One train() call's per-epoch objectives, by repr."""
    div_id, k = TRACE_CASES[head]
    ds, _ = make_synthetic(k=k, n=N, d=D, class_separation=4.0, seed=3)
    train_ds, test_ds = split_dataset(ds, seed=3)
    noise = NoiseParams.symmetric(0.2)
    noisy = corrupt(train_ds, noise.to_matrix(k), seed=3)
    spec = MlpSpec(
        (D, HIDDEN, k), _activation(k), head=head,
        divergence=div_id if head == "raw_t" else None,
    )
    ocfg = ObjectiveConfig(div_id, "objective", noise)
    tc = replace(TrainConfig(epochs=EPOCHS, batch_size=BATCH), seed=3)
    _, trace = train(init(spec, seed=3), noisy, ocfg, tc, eval_dataset=test_ds)
    return {
        "objective": [repr(v) for v in trace.objective],
        "train_accuracy": list(trace.train_accuracy),
        "test_accuracy": list(trace.test_accuracy),
    }


GRAD_ROWS = 64
GRAD_RATES = {2: (0.1, 0.3), 3: (0.1, 0.2, 0.05)}


def head_grad_cases():
    """name -> (divergence, K, flip-in rates or None) of every pinned step."""
    return {
        f"{div_id}-k{k}{suffix}": (div_id, k, rates)
        for div_id in DIVERGENCE_IDS
        for k in (2, 3)
        for suffix, rates in (("", None), ("-rates", GRAD_RATES[k]))
    }


def head_grad_pin(div_id, k, rates):
    """SHA-256 of one step's simplex logit gradients on fixed rows.

    The rows are drawn and normalized without exp, so their bits do not
    depend on numpy's SIMD kernels; the fourth power puts some components
    near zero, where the gan and sl forms cancel.
    """
    rng = np.random.default_rng(k)
    u = rng.random((GRAD_ROWS, k)) ** 4
    rows = u / u.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, GRAD_ROWS)
    grad = jf_simplex_logit_grad_batch(div_id, rows, labels, rates)
    return hashlib.sha256(np.ascontiguousarray(grad, dtype=float).tobytes()).hexdigest()


def host():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "cpu": cpu, "machine": platform.machine()}


def current_pins():
    return {
        "sweeps": {name: sweep_pins(tree) for name, tree in sweep_cases().items()},
        "traces": {head: trace_pins(head) for head in HEADS},
        "head_grads": {
            name: head_grad_pin(*case) for name, case in head_grad_cases().items()
        },
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text(encoding="utf-8"))


def _where(pinned):
    return f"pinned on {pinned['host']}, running on {host()}"


def test_pins_cover_every_case(pinned):
    assert set(pinned["sweeps"]) == set(sweep_cases())
    assert len(pinned["sweeps"]) == 2 * len(DIVERGENCE_IDS) * 2 + 5
    assert set(pinned["traces"]) == set(HEADS)
    assert set(pinned["head_grads"]) == set(head_grad_cases())
    assert len(pinned["head_grads"]) == len(DIVERGENCE_IDS) * 2 * 2


@pytest.mark.parametrize("name", sorted(sweep_cases()))
def test_sweep_records_pinned(pinned, name):
    got = sweep_pins(sweep_cases()[name])
    assert len(got) == len(SEEDS) * len(MODES)
    assert got == pinned["sweeps"][name], _where(pinned)


@pytest.mark.parametrize("head", HEADS)
def test_train_trace_pinned(pinned, head):
    got = trace_pins(head)
    assert len(got["objective"]) == EPOCHS
    assert got == pinned["traces"][head], _where(pinned)


@pytest.mark.parametrize("name", sorted(head_grad_cases()))
def test_head_grad_pinned(pinned, name):
    got = head_grad_pin(*head_grad_cases()[name])
    assert got == pinned["head_grads"][name], _where(pinned)


if __name__ == "__main__":
    text = json.dumps({"host": host(), **current_pins()}, indent=1)
    # one line per record and per trace series
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    PINS.write_text(text + "\n", encoding="utf-8")
