"""Small feedforward networks trained by maximizing the divergence objective.

The network is a stack of linear layers with relu or tanh activations and
one of two output heads.  The simplex head squashes the final linear
outputs into a strictly positive probability row via exponential
normalization and trains on the change-of-variable objectives; it is the
default for multi-class problems.  The raw head reads final outputs v
as T = link(v) for the chosen divergence, and trains and evaluates on
that divergence's closed forms in v (see postmax.divergence), so every
finite v is evaluable for gan and sl.  Labels and rates are validated
once, where datasets, noise parameters and bare labels enter; the step
loop and the per-epoch metrics run unchecked kernels.  Posterior
correction ranks raw outputs through the divergence's raw_rank, which
cannot overflow.

Training is plain mini-batch ascent with SGD momentum and a cosine
learning-rate schedule annealed to zero, deterministic per seed.  All
gradients are propagated by hand and checked against central finite
differences in the test suite.

One loop trains M members in lockstep: networks that share the
architecture, the training features, the divergence and the schedule, but
each with its own initial parameters, labels, correction mode and batch
order, such as the clean, noisy and corrected networks of every seed of a
sweep.  Members with one seed draw the same mini-batches.  Parameters,
velocities and gradients are (M, P) arrays, one flat row per member; each
step gathers every member's mini-batch with one (M, batch) index, and the
forward pass and backprop run as batched matmuls over the member axis into
workspaces of shape (M, batch, width) allocated once per training; a
ragged last batch uses a slice of them.  Each hidden layer has one
activation workspace: its linear output is written there and the
activation applied in place, so no pre-activation is kept.  Backprop
reads relu's derivative off the activation as a bool mask, relu(z) > 0
being z > 0 bit for bit, and tanh's as 1 - h**2.  Per-epoch metrics are
computed only by an on_epoch consumer: train() installs the one that
builds its TrainTrace, and a sweep installs none, so its members'
training objective is computed and checked once, after the final epoch.
A single-member call is train() itself, so each member ends bit for bit
where its own train() call would.

A desk-sized step is bound by per-call overhead, not arithmetic, and a
numpy call costs more when it broadcasts an operand or converts a Python
scalar, and more again when a view must be made for it first: at
(3, 32, 2) a broadcast subtract takes about 2.4 us against 0.9 us for
equal shapes (2-vCPU Xeon, numpy 2.4).  So the step only runs kernels
over operands built before it.  Once per training: the rate terms at the
step's (M, batch, K) shape, the transposed weights, the momentum as a
float64 and the finiteness guard's bool buffer.  Once per batch size:
views of the workspaces, each layer's forward and backprop operands over
them, and the batch size as a float64.  Once per epoch: the batch
orders, every member's labels in that order as rows of the K x K
identity, which a step reads as slices, and the learning rates as
float64s.  The head allocates nothing: the softmax, the drift of the
rate terms and the head gradient write into (M, batch, K) and
(M, batch, 1) workspaces.  Over two classes, its row max and row sums
are one np.maximum or np.add of the two column views, about 2 us a call
against 3-6 us for a reduction over the class axis; from three classes
the sum is faster as a reduction at a step's few rows, so every
reduction over K >= 3 classes is numpy's, written into the workspace.

Each layer input in the step's workspaces ends in a column of ones: the
gathered features, written into the first d_in columns (X itself is not
copied), then each hidden layer's activations.  A member's W and b are
adjacent in its parameter row, so a layer's [W; b] is one (d_in + 1,
d_out) view of it.  A hidden layer's forward pass is then one matmul,
bias included, and every layer's dW and db are one matmul of the input's
transpose with the output gradient, in place of an add and a reduction
per layer.  relu runs over the whole activation array, since relu(1) = 1
keeps the ones column and an elementwise call on a strided view costs
two to three times as much at the wide shape; tanh acts on the first
columns only.  The output layer keeps its separate bias add, which
folded would round differently at the benchmark's shapes (at K = 2
about half the outputs move), and the input gradients multiply by W^T
alone, which keeps their bits at every shape.  Whether a folded sum
rounds as the add and the reduction did depends on the BLAS kernel that
serves the shape.  With OpenBLAS 0.3.31 (SkylakeX kernels) the records
equal the unfolded step's at the desk shape (10-16-2, batches of 32),
the wide shape (100-256-10, batches of 256 and 160) and the golden pins'
shapes (5-8-K, batches of 16 and 24).  A scan of 1 to 100 features,
hidden widths from 8 to 256 and eight batch sizes from 1 to 512 rows
found three exceptions: batches over 384 rows, where dgemm sums db in
blocks; a hidden layer with 16 or more inputs whose width is 1 to 4 mod
8 (9-12, 20 or 100, say); and, under ten features, batches of one or two
rows, and with one feature most batches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from postmax.divergence import DivergenceSpec, get_divergence
from postmax.noise import LabeledDataset, _check_labels
from postmax.objective import (
    POSTERIOR_FLOOR,
    ObjectiveConfig,
    _bias_simplex,
    _jf_simplex,
    _onehot,
    _rate_terms,
    _raw_logit_grad,
    _raw_value,
    _row_max,
    _row_sum,
    _simplex_logit_grad,
)
from postmax.posterior import accuracy

# Unused here; perfbench/spans.py wraps these names in this module.
from postmax.objective import (
    bias_simplex_batch, corrected_grad_batch, corrected_jf_batch, jf_batch,
    jf_grad_batch, jf_simplex_batch, jf_simplex_logit_grad_batch,
)
from postmax.posterior import posterior_correct, predict

_ACTIVATIONS = ("relu", "tanh")
_HEADS = ("raw_t", "simplex")

SERIAL_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer widths, activation, and output head.

    The raw head needs the divergence id because its link function is
    divergence-specific; the simplex head takes none.
    """

    layer_sizes: tuple
    activation: str = "relu"
    head: str = "simplex"
    divergence: Optional[str] = None

    def __post_init__(self):
        sizes = tuple(_check("width", int(s)) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least two widths")
        if sizes[-1] < 2:
            raise ValueError("output width must be at least 2 classes")
        object.__setattr__(self, "layer_sizes", sizes)
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if self.head not in _HEADS:
            raise ValueError(f"head must be one of {_HEADS}")
        if self.head == "raw_t":
            if self.divergence is None:
                raise ValueError("the raw head needs a divergence id for its link")
            get_divergence(self.divergence)
        elif self.divergence is not None:
            raise ValueError("the simplex head takes no divergence link")

    @property
    def d_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def k(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr0: float = 0.02
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.name in _RULES:
                _check(f.name, getattr(self, f.name))


# Single-field rules, name -> (test, what the value must be).  MlpSpec
# checks each layer width and TrainConfig each field that has a rule; the
# config reader checks a config value by the same rule.
_RULES = {
    "width": (lambda v: v >= 1, "at least 1"),
    "epochs": (lambda v: int(v) == v and v >= 0, "a nonnegative integer"),
    "batch_size": (lambda v: int(v) == v and v >= 1, "a positive integer"),
    "lr0": (lambda v: v > 0.0, "positive"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


def _check(rule: str, value):
    """value, or a ValueError if it breaks the rule of that name."""
    test, requirement = _RULES[rule]
    if not test(value):
        raise ValueError(f"{rule} must be {requirement}")
    return value


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch objective, train accuracy and optional eval-set accuracy."""

    objective: tuple
    train_accuracy: tuple
    test_accuracy: Optional[tuple]


@dataclass(frozen=True)
class NetworkModel:
    """Immutable parameters paired with their architecture."""

    spec: MlpSpec
    params: tuple

    def __post_init__(self):
        frozen = _freeze_params(self.params)
        widths = self.spec.layer_sizes
        if len(frozen) != len(widths) - 1:
            raise ValueError("parameter count does not match layer_sizes")
        for i, (W, b) in enumerate(frozen):
            if W.shape != (widths[i], widths[i + 1]) or b.shape != (widths[i + 1],):
                raise ValueError(f"layer {i} parameter shapes do not match spec")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} parameters must be finite")
        object.__setattr__(self, "params", frozen)


def _freeze_params(params) -> tuple:
    out = []
    for W, b in params:
        W = np.asarray(W, dtype=float).copy()
        b = np.asarray(b, dtype=float).copy()
        W.setflags(write=False)
        b.setflags(write=False)
        out.append((W, b))
    return tuple(out)


def init(spec: MlpSpec, seed: int) -> NetworkModel:
    """Fan-in-scaled uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = []
    widths = spec.layer_sizes
    for i in range(len(widths) - 1):
        bound = math.sqrt(6.0 / widths[i])
        W = rng.uniform(-bound, bound, size=(widths[i], widths[i + 1]))
        params.append((W, np.zeros(widths[i + 1])))
    return NetworkModel(spec, tuple(params))


def _softmax(v: np.ndarray, out=None, col=None) -> np.ndarray:
    """Row softmax over the last axis, into out when given; col is a
    scratch column shaped (..., 1) for the row max and then the row sum."""
    z = np.subtract(v, _row_max(v, out=col), out=out)
    np.exp(z, out=z)
    z /= _row_sum(z, out=col)
    return z


_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


def _forward_ops(layers, hs, v):
    """_forward_into's operands: (W, b, input, output, activation array)
    of each hidden layer, and (W, b, input, output) of the output layer.

    layers are (W, b) pairs whose b broadcasts against the layer's
    outputs; hs are the layer inputs, hs[0] the features, and v takes the
    final linear outputs.  An input may end in a column of ones: its
    layer's b is then None and its W the (d_in + 1, d_out) block [W; b],
    so the matmul adds the bias.  A hidden layer writes the first d_out
    columns of the next input and takes its activation over all of it.
    """
    ops = []
    for (W, b), h_in, h in zip(layers, hs, [*hs[1:], v]):
        if b is not None:
            h_in = h_in[..., : W.shape[-2]]
        ops.append((W, b, h_in, h[..., : W.shape[-1]], h))
    *hidden, (W, b, h_in, v, _) = ops
    return hidden, (W, b, h_in, v)


def _forward_into(activation: str, hidden, last) -> None:
    """Forward pass over _forward_ops' operands, over any leading member
    axes: each hidden layer writes its linear output to its output array
    and applies the activation there in place, so that array ends as the
    next layer's input; the output layer writes the final linear outputs.
    """
    for W, b, h_in, z, h in hidden:
        np.matmul(h_in, W, out=z)
        if b is not None:
            z += b
        if activation == "relu":
            np.maximum(h, _ZERO, out=h)  # relu(1) = 1 keeps a ones column
        else:
            np.tanh(z, out=z)
    W, b, h_in, v = last
    np.matmul(h_in, W, out=v)
    v += b


def _forward_parts(spec: MlpSpec, params, X: np.ndarray):
    """All layer inputs, plus final linear outputs."""
    hs = [X] + [np.empty((X.shape[0], w)) for w in spec.layer_sizes[1:-1]]
    v = np.empty((X.shape[0], spec.k))
    _forward_into(spec.activation, *_forward_ops(params, hs, v))
    return hs, v


def forward(model: NetworkModel, X) -> np.ndarray:
    """Head outputs for a feature matrix: simplex rows or T = link(v)."""
    X = _check_features(model.spec, X)
    _, v = _forward_parts(model.spec, model.params, X)
    if model.spec.head == "simplex":
        return _softmax(v)
    return get_divergence(model.spec.divergence).link(v)


def _check_features(spec: MlpSpec, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.d_in:
        raise ValueError(f"features must be N x {spec.d_in} for this architecture")
    return X


def _check_fits(spec: MlpSpec, dataset: LabeledDataset, what: str = "dataset") -> None:
    """The dataset fits the network: K outputs and d_in inputs."""
    if dataset.k != spec.k:
        raise ValueError(f"{what} class count does not match the output width")
    if dataset.d != spec.d_in:
        raise ValueError(f"{what} feature width does not match the input width")


def _check_compat(spec: MlpSpec, cfg: ObjectiveConfig) -> None:
    if spec.head == "raw_t" and spec.divergence != cfg.divergence:
        raise ValueError(
            "the raw head's link divergence must match the objective divergence"
        )


def _rates(cfg: ObjectiveConfig, k: int, mode: str) -> Optional[np.ndarray]:
    """cfg's flip rates if it corrects in mode, else None: the "objective"
    correction acts on gradients, "posterior" only at evaluation."""
    return cfg.noise.flip_rates(k) if cfg.correction == mode else None


def _head_value(div: DivergenceSpec, v, D, labels, e) -> float:
    """Mean objective of final outputs v with checked labels and rates;
    D holds the simplex head's softmax rows and is None for the raw head."""
    if D is None:
        return _raw_value(div, v, labels, e)
    # Optimizers may legitimately drive off-label probabilities to the
    # simplex boundary; floor them so the logged value (not the
    # gradient) stays finite.
    safe = np.maximum(D, POSTERIOR_FLOOR)
    value = _jf_simplex(div, safe, labels)
    if e is not None:
        value -= _bias_simplex(div, safe, e)
    return value


def _head_grad(
    div: DivergenceSpec, v, D, onehot, rates, out=None, work=(None, None)
) -> np.ndarray:
    """Summed-objective gradient w.r.t. final outputs v, with the
    _rate_terms rates; D as _head_value's, work as _simplex_logit_grad's."""
    if D is None:
        return _raw_logit_grad(div, v, onehot, rates, out=out)
    return _simplex_logit_grad(div, D, onehot, rates, out=out, work=work)


def _backprop_ops(weights_T, hs, g_v, grads, deltas, masks) -> list:
    """_backprop_into's operands, from the output layer down: per layer
    (input^T, output gradient, dW, db, down), down being None for layer
    0 and (W^T, input, derivative, input gradient, its first d_in
    columns) above it.

    weights_T are the layers' transposed weights (layer 0's is not
    read), hs are _forward_into's layer inputs and g_v the output
    gradient; each layer's (dW, db) is written into the arrays of grads,
    and deltas and masks are scratch shaped like the hidden layers' hs,
    masks bool for relu and float for tanh.  Where a layer's input ends
    in a column of ones, its db is None and its dW the (d_in + 1, d_out)
    block [dW; db], so one matmul writes both; the input gradient's
    column under the ones, which the caller zeroes, stays zero.
    """
    outputs = [*deltas, g_v]
    ops = []
    for i in range(len(grads) - 1, -1, -1):
        gW, gb = grads[i]
        down = None
        if i > 0:
            W_T, delta = weights_T[i], deltas[i - 1]
            down = (W_T, hs[i], masks[i - 1], delta, delta[..., : W_T.shape[-1]])
        g = outputs[i][..., : gW.shape[-1]]
        ops.append((hs[i].swapaxes(-1, -2), g, gW, gb, down))
    return ops


def _backprop_into(activation: str, ops) -> None:
    """Backpropagate over _backprop_ops' operands, over any leading member
    axes."""
    for h_T, g, gW, gb, down in ops:
        np.matmul(h_T, g, out=gW)
        if gb is not None:
            np.add.reduce(g, axis=-2, out=gb)
        if down is not None:
            W_T, h, d, delta, delta_in = down
            np.matmul(g, W_T, out=delta_in)
            if activation == "relu":
                # relu(z) > 0 exactly where z > 0, NaN and -0.0 included;
                # the kink at 0 is measure-zero under continuous inputs
                np.greater(h, _ZERO, out=d)
            else:
                np.multiply(h, h, out=d)
                np.subtract(_ONE, d, out=d)
            delta *= d


def _backprop(spec: MlpSpec, params, hs, g_v):
    """Per-layer (dW, db) of the output gradient g_v, in new arrays."""
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in params]
    hidden = hs[1:]
    deltas = [np.empty_like(h) for h in hidden]
    mask_type = bool if spec.activation == "relu" else float
    masks = [np.empty(h.shape, mask_type) for h in hidden]
    weights_T = [W.swapaxes(-1, -2) for W, _ in params]
    _backprop_into(
        spec.activation, _backprop_ops(weights_T, hs, g_v, grads, deltas, masks)
    )
    return grads


def objective_and_gradients(model: NetworkModel, X, labels, cfg: ObjectiveConfig):
    """Batch-mean objective and its ascent gradient for every parameter.

    The returned gradients are the ones a training step takes, so they
    can be compared against finite differences of the value; the step's
    folded bias can round them differently in the last bits at some
    layer shapes (see the module docstring).
    """
    _check_compat(model.spec, cfg)
    X = _check_features(model.spec, X)
    k = model.spec.k
    labels = _check_labels(labels, X.shape[0], k)
    div = get_divergence(cfg.divergence)
    e = _rates(cfg, k, "objective")
    hs, v = _forward_parts(model.spec, model.params, X)
    D = _softmax(v) if model.spec.head == "simplex" else None
    value = _head_value(div, v, D, labels, e)
    g_v = _head_grad(div, v, D, _onehot(labels, k), _rate_terms(e))
    g_v /= X.shape[0]
    grads = _backprop(model.spec, model.params, hs, g_v)
    return value, grads


def _cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def _layer_blocks(buf: np.ndarray, params) -> list:
    """Each layer's (W, b) as one (d_in + 1, d_out) view [W; b] into the
    last axis of a flat buffer, in the order and shapes of params; leading
    axes of buf lead every view."""
    lead = buf.shape[:-1]
    blocks = []
    offset = 0
    for W, b in params:
        size = W.size + b.size
        shape = (W.shape[0] + 1, W.shape[1])
        blocks.append(buf[..., offset : offset + size].reshape(lead + shape))
        offset += size
    return blocks


def _folded_layers(blocks):
    """_forward_ops' layers and _backprop_ops' transposed weights over
    _layer_blocks' blocks, for layer inputs that end in a column of ones:
    each hidden layer's bias is added by its matmul, and the output
    layer's by an add, as the matmul would round it differently.  The
    input gradients take W^T alone, for the same reason."""
    *hidden, last = blocks
    layers = [(W, None) for W in hidden] + [(last[..., :-1, :], last[..., -1:, :])]
    return layers, [W[..., :-1, :].swapaxes(-1, -2) for W in blocks]


def _layer_views(buf: np.ndarray, params) -> list:
    """(W, b) views into the last axis of a flat buffer, as _layer_blocks'."""
    return [(blk[..., :-1, :], blk[..., -1, :]) for blk in _layer_blocks(buf, params)]


def train(
    model: NetworkModel,
    dataset: LabeledDataset,
    objective_config: ObjectiveConfig,
    train_config: TrainConfig,
    eval_dataset: Optional[LabeledDataset] = None,
):
    """Mini-batch ascent on the configured objective.

    Returns a new trained model and a trace of per-epoch objective and
    accuracy (plus eval-set accuracy when a second dataset is supplied).
    Raises if the objective or any parameter stops being finite.
    """
    spec = model.spec
    if eval_dataset is not None:
        _check_fits(spec, eval_dataset, "eval dataset")
    div = get_divergence(objective_config.divergence)
    objectives, train_accs, test_accs = [], [], []

    def record(epoch, member_params):
        [params] = member_params
        acc, obj = _checked_metrics(spec, div, params, objective_config, dataset, epoch)
        objectives.append(obj)
        train_accs.append(acc)
        if eval_dataset is not None:
            test_accs.append(
                _evaluate(
                    spec, div, params, objective_config, eval_dataset, objective=False
                )[0]
            )

    member = (model, dataset, objective_config, train_config)
    [trained] = _train_members([member], on_epoch=record)
    return trained, TrainTrace(
        objective=tuple(objectives),
        train_accuracy=tuple(train_accs),
        test_accuracy=tuple(test_accs) if eval_dataset is not None else None,
    )


def _checked_metrics(spec, div, params, cfg, dataset, epoch):
    """Training-set accuracy and objective of one member after epoch;
    raises if the objective is non-finite."""
    acc, obj = _evaluate(spec, div, params, cfg, dataset)
    if not math.isfinite(obj):
        raise RuntimeError(f"objective became non-finite after epoch {epoch}: {obj}")
    return acc, obj


def _train_members(members, on_epoch=None) -> list:
    """train() for M members in lockstep; one trained model per member.

    members are train()'s (model, dataset, objective config, train config)
    arguments.  They share the architecture, the training features, the
    divergence and every train config field but the seed; initial
    parameters, labels, correction mode and seed are each member's own,
    and members with one seed draw one sequence of mini-batches.  Each
    result equals that member's train() call bit for bit, and the earliest
    failure stops every member, with the message train() gives for it.

    After every epoch, on_epoch(epoch, member_params) receives each
    member's parameters as (W, b) views that the next step overwrites.
    Without a consumer, each member's training objective is computed once,
    after the final epoch, and checked as train() checks it.
    """
    model0, dataset0, cfg0, tc = members[0]
    spec, X = model0.spec, dataset0.features
    for model, dataset, cfg, train_config in members:
        if model.spec != spec:
            raise ValueError("members must share the architecture")
        _check_compat(spec, cfg)
        _check_fits(spec, dataset)
        if dataset.features is not X and not np.array_equal(
            dataset.features, X, equal_nan=True
        ):
            raise ValueError("members must share the training features")
        if cfg.divergence != cfg0.divergence:
            raise ValueError("members must share the divergence")
        if replace(train_config, seed=tc.seed) != tc:
            raise ValueError("members must share the training schedule")

    div = get_divergence(cfg0.divergence)
    n, k, M = X.shape[0], spec.k, len(members)
    simplex = spec.head == "simplex"
    B = min(tc.batch_size, n)
    # Datasets and noise parameters validated the labels and rates, so
    # every step runs the unchecked kernels.  Head outputs need no check:
    # a non-finite one surfaces as non-finite parameters at the same step.
    # A zero rate row leaves its member's gradient unchanged bit for bit,
    # so one kernel call serves all, with the rate terms at the step's
    # (M, B, k) shape.
    labels = np.stack([ds.labels for _, ds, _, _ in members])
    rates = [_rates(cfg, k, "objective") for _, _, cfg, _ in members]
    e_terms = None
    if any(e is not None for e in rates):
        e_rows = np.stack([np.zeros(k) if e is None else e for e in rates])
        e_terms = _rate_terms(e_rows, B)

    # Member m's parameters are row m of one (M, P) buffer, so the update
    # and the finiteness guard are one pass each over all members.
    theta = np.stack(
        [
            np.concatenate([a.ravel() for layer in model.params for a in layer])
            for model, _, _, _ in members
        ]
    )
    velocity = np.zeros_like(theta)
    grad = np.empty_like(theta)
    scratch = np.empty_like(theta)
    finite = np.empty(theta.shape, bool)
    momentum = np.float64(tc.momentum)
    # Each layer input ends in a column of ones (see the workspaces), so a
    # layer's [W; b] block serves as its weights and its gradient.
    layers, weights_T = _folded_layers(_layer_blocks(theta, model0.params))
    grad_layers = [(g, None) for g in _layer_blocks(grad, model0.params)]
    member_params = [_layer_views(row, model0.params) for row in theta]

    # One generator per distinct seed, in order of first use; member m
    # reads its mini-batches from row seed_row[m] of the epoch's orders.
    # Each epoch writes the orders into `order` and the members' labels,
    # in that order, as rows of the k x k identity into `onehot`, so a
    # step reads its indices and one-hot labels as slices of the two.
    seeds = list(dict.fromkeys(t.seed for _, _, _, t in members))
    rngs = [np.random.default_rng(s) for s in seeds]
    seed_row = np.array([seeds.index(t.seed) for _, _, _, t in members])
    order = np.empty((M, n), dtype=np.intp)
    onehot = np.empty((M, n, k))
    identity = np.eye(k)

    # Workspaces for the largest batch: layer inputs (the gathered
    # features first, then each hidden layer's activations), each with
    # its ones column; deltas, zeroed as no matmul writes their last
    # column, and activation derivatives (relu's as a bool mask) of the
    # same widths; final outputs, head outputs, head gradients and the
    # head's scratch, and one (M, B, 1) column for row maxima and sums.
    # A ragged last batch uses the first rows of each, and of the rate
    # terms.
    hidden = spec.layer_sizes[1:-1]
    mask_type = bool if spec.activation == "relu" else float
    workspaces = [
        [np.ones((M, B, w + 1)) for w in spec.layer_sizes[:-1]],
        [np.zeros((M, B, w + 1)) for w in hidden],
        [np.empty((M, B, w + 1), mask_type) for w in hidden],
        [np.empty((M, B, k)) for _ in range(4)] + [np.empty((M, B, 1))],
    ]
    # Every operand a step reads, built once per batch size: views of
    # that many rows of the workspaces and rate terms, the forward and
    # backprop operands over them, and the size as a float64 divisor.
    sized = {}
    batches = []  # per step of an epoch: (indices, one-hot rows, operands)
    for start in range(0, n, tc.batch_size):
        stop = min(start + tc.batch_size, n)
        nb = stop - start
        if nb not in sized:
            hs, deltas, masks, (v, D, g_v, tmp, col) = (
                [a[:, :nb, :] for a in ws] for ws in workspaces
            )
            sized[nb] = (
                hs[0][..., : spec.d_in],
                _forward_ops(layers, hs, v),
                v, D, col, g_v, (tmp, col),
                None if e_terms is None else tuple(t[:, :nb, :] for t in e_terms),
                np.float64(nb),
                _backprop_ops(weights_T, hs, g_v, grad_layers, deltas, masks),
            )
        batches.append((order[:, start:stop], onehot[:, start:stop, :], sized[nb]))

    total_steps = tc.epochs * len(batches)
    step = 0
    for epoch in range(tc.epochs):
        np.stack([rng.permutation(n) for rng in rngs]).take(seed_row, axis=0, out=order)
        identity.take(
            np.take_along_axis(labels, order, axis=1), axis=0, out=onehot, mode="clip"
        )
        lrs = [
            np.float64(_cosine_lr(tc.lr0, s, total_steps))
            for s in range(step, step + len(batches))
        ]
        for (idx, y, operands), lr in zip(batches, lrs):
            x, forward_ops, v, D, col, g_v, work, e_nb, nb, backprop_ops = operands
            X.take(idx, axis=0, out=x, mode="clip")
            _forward_into(spec.activation, *forward_ops)
            _head_grad(
                div, v, _softmax(v, out=D, col=col) if simplex else None, y,
                e_nb, out=g_v, work=work,
            )
            g_v /= nb
            _backprop_into(spec.activation, backprop_ops)
            velocity *= momentum
            velocity += grad
            theta += np.multiply(velocity, lr, out=scratch)
            step += 1
            np.isfinite(theta, out=finite)
            if not np.logical_and.reduce(finite, axis=None):
                raise RuntimeError(
                    f"parameters became non-finite at epoch {epoch} step "
                    f"{step - 1}; lower lr0 or check the data"
                )
        if on_epoch is not None:
            on_epoch(epoch, member_params)

    if on_epoch is None and tc.epochs > 0:
        for (_, dataset, cfg, _), params in zip(members, member_params):
            _checked_metrics(spec, div, params, cfg, dataset, tc.epochs - 1)
    return [NetworkModel(spec, tuple(params)) for params in member_params]


def evaluate(model: NetworkModel, dataset: LabeledDataset, cfg: ObjectiveConfig):
    """Accuracy and mean objective on a dataset; deterministic.

    With posterior correction configured, flip rates are subtracted from
    the estimated posteriors before the argmax; the reported objective is
    the uncorrected one the model was trained on in that mode.
    """
    _check_compat(model.spec, cfg)
    _check_fits(model.spec, dataset)
    div = get_divergence(cfg.divergence)
    return _evaluate(model.spec, div, model.params, cfg, dataset)


def _evaluate(
    spec: MlpSpec, div: DivergenceSpec, params, cfg: ObjectiveConfig,
    dataset: LabeledDataset, objective: bool = True,
):
    """evaluate() on bare parameters and a dataset whose shapes the caller
    has checked; div is cfg's divergence.  The objective is None unless
    asked for."""
    _, v = _forward_parts(spec, params, dataset.features)
    D = _softmax(v) if spec.head == "simplex" else None
    # every raw posterior map is increasing in v, so v has its argmax
    scores = v if D is None else D
    e_eval = _rates(cfg, spec.k, "posterior")
    if e_eval is not None:
        scores = div.raw_rank(v, e_eval) if D is None else D - e_eval
    acc = accuracy(np.argmax(scores, axis=1), dataset.labels)
    if not objective:
        return acc, None
    e = _rates(cfg, spec.k, "objective")
    return acc, _head_value(div, v, D, dataset.labels, e)


def save_model(model: NetworkModel, path) -> None:
    """Versioned JSON container; float repr keeps values bit-exact."""
    payload = {
        "version": SERIAL_VERSION,
        "spec": {
            "layer_sizes": list(model.spec.layer_sizes),
            "activation": model.spec.activation,
            "head": model.spec.head,
            "divergence": model.spec.divergence,
        },
        "params": [
            {"W": W.tolist(), "b": b.tolist()} for W, b in model.params
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model(path) -> NetworkModel:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a model file must hold a JSON object")
    if payload.get("version") != SERIAL_VERSION:
        raise ValueError(
            f"unsupported model container version {payload.get('version')!r}"
        )
    try:
        s = payload["spec"]
        spec = MlpSpec(
            layer_sizes=tuple(s["layer_sizes"]),
            activation=s["activation"],
            head=s["head"],
            divergence=s["divergence"],
        )
        params = tuple(
            (np.array(p["W"], dtype=float), np.array(p["b"], dtype=float))
            for p in payload["params"]
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed model file: {err!r}") from None
    return NetworkModel(spec, params)
