"""Small feedforward networks trained by maximizing the divergence objective.

The network is a stack of linear layers with relu or tanh activations
and one of two output heads.  The simplex head squashes the final linear
outputs into a strictly positive probability row via exponential
normalization and trains on the change-of-variable objectives; it is the
default for multi-class problems.  The raw head reads final outputs v as
T = link(v) for the chosen divergence, and trains and evaluates on that
divergence's closed forms in v (see postmax.divergence), so every finite
v is evaluable for gan and sl.  Both heads' values come from one rule,
objective._rows; the simplex head's read log D off the logits, finite at
every finite v.  Labels and rates are validated once, where datasets,
noise parameters and bare labels enter; the step loop and the per-epoch
metrics run unchecked kernels.  Posterior correction ranks raw outputs
through the divergence's raw_rank, which cannot overflow.

Training is plain mini-batch ascent with SGD momentum and a cosine
learning-rate schedule annealed to zero, deterministic per seed.  All
gradients are propagated by hand and checked against central finite
differences in the test suite.

One loop trains M members in lockstep: networks that share the
architecture, the training features, the divergence and the schedule, but
each with its own initial parameters, labels, correction mode and batch
order, such as the clean, noisy and corrected networks of every seed of a
sweep.  Members with one seed draw the same mini-batches.  When the
members come in equal consecutive runs of one seed, as a sweep lists each
seed's networks, they form S groups of G members, one per run; otherwise
G = 1 and every member is a group of its own, through the same code.
Parameters, velocities and gradients are (M, P) arrays, one flat row per
member, which the update and the finiteness guard read whole.  The
forward pass and backprop run as batched matmuls over leading axes
(S, G), free reshapes of those rows, into workspaces of shape
(S, G, batch, width) allocated once per training; a ragged last batch
uses a slice of them.  Each step gathers one mini-batch per group with
one (S, batch) index into an (S, 1, batch, d_in + 1) input, which matmul
broadcasts over the group in the first layer's forward pass and in its
gradient, so a sweep of three networks per seed gathers a third of the
rows it would per member, and each member's matmul still reads the same
operands.  Each hidden layer has one
activation workspace: its linear output is written there and the
activation applied in place, so no pre-activation is kept.  Backprop
reads relu's derivative off it as a bool mask, relu(z) > 0 being z > 0
bit for bit, or tanh's as 1 - h**2, then writes the input gradient over
it.  Per-epoch metrics are computed only by an on_epoch consumer:
train() installs the one that builds its TrainTrace, and a sweep
installs none, so its members' training objective is computed and
checked once, after the final epoch, with the step's workspaces,
velocity and gradient released.  A single-member call is train()
itself, so each member ends bit for bit where its own train() call would.

A desk-sized step is bound by per-call overhead, not arithmetic.  A
numpy call costs more when it broadcasts an operand or converts a Python
scalar, and more again when a view must be made for it first: at
(3, 32, 2) a subtract that broadcasts a (3, 32, 1) column takes about
0.9 us against 0.26 us for equal shapes (2-vCPU Xeon, numpy 2.4.6).
Python glue around the calls (nested kernel calls, operand unpacking,
activation and class-count tests) costs too.  So each step is a program
built once per training: a tuple of zero-argument functools.partial
calls, each a numpy function with every operand and out bound.  It holds
the gathers of the features and of the labels' rows of the K x K
identity, the forward pass, the softmax, the head gradient, the division
by the batch size, backprop and the momentum update.  An epoch runs its
steps' calls as one flat tuple, then the finiteness guard once (see
_train_members).  Built once per training are the rate terms at
the step's (M, batch, K) shape, the momentum as a float64 and the
guard's bool buffer, and once per batch size the transposed weights,
the workspace views, each layer's operands over them and the batch size
as a float64.  Each epoch refills in place the batch orders, every
member's label indices in that order, and the learning rates, which the
programs read as slices and 0-d views.  objective_and_gradients builds
and runs the program of one full-batch step, (S, G) = (1, 1), so its
gradient is the one training takes.  out is bound positionally, about
0.35 us a call cheaper than by keyword, except for np.maximum and
np.minimum, where numpy 2.4 deprecates a third positional argument and
each warning costs about 1.4 us.  The kl head allocates nothing: the
softmax, the drift of the rate terms and the head gradient are ufunc
calls into (M, batch, K) workspaces and a column for row maxima and
sums, while the gan and sl simplex forms and the raw forms allocate, and
each runs as one call.  The column's width, and the calls that take its
row maxima and sums, are objective._row_max_program's and _row_sum_op's.

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
serves the shape; README.md lists the shapes where the records were
checked equal and the exceptions a scan found.

Scoring runs in row blocks.  evaluate(), forward(), train()'s per-epoch
record and a sweep's final check all call one scorer, _score, which runs
the unfolded forward pass (matmul, then bias add) over blocks of at most
1,024 rows, into workspaces allocated once per call.  Its memory is then
O(block x width), plus (N,) arrays of per-row predictions and objective
terms, and forward()'s (N, K) result.  One pass gives an accuracy for
each posterior correction asked for, so a network scored for the none
and posterior modes runs forward once.  The scalars are the reductions
the whole-array pass took (np.mean of the matches, one mean of the
per-row values), so they keep its bits wherever each row does.  The
scorer takes the step's softmax, whose row max at a block's rows is the
running one for K <= 24, several times faster than the reduction (2.9
against 43.8 us at (1024, 3), 14.1 against 44.2 at (1024, 10), 2-vCPU
Xeon, numpy 2.4).  A row keeps its
bits while its block is served as the whole set is, and with OpenBLAS
0.3.31 (SkylakeX kernels) two things decide that.  dgemm tiles rows, and
a row in a ragged tile rounds differently: a 16-2 layer moved 2 rows in
a block of 834.  So the blocks split N as evenly as whole units of 64
rows allow, and every block but the last starts and ends on a multiple
of 64.  And dgemm serves a product with d_in x d_out x rows <= 10^6
through a small-matrix kernel that rounds differently from the large
one.  Blocks of a set over 1,024 rows hold 512 to 1,024 rows, so a layer
with d_in x d_out of at most 1,953 can get the small kernel in blocks
and the large one over the whole set.  A scan moved rows only where that
layer had 16 or more inputs: the 16-2 output layer of 10-16-2 past
31,250 rows, 16-20 at 7,000, the 100-10 layer of 50-100-10 at 1,500.
Their accuracies and mean objectives kept their bits in every probe, but
nothing holds them there.  The wide shape (100-256-10) has no such
layer, and the desk shape and golden pins score under 1,025 rows, one
block.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from postmax.divergence import (
    MAX_SEED, DivergenceSpec, _integer, _is_real, _seed, get_divergence,
)
from postmax.noise import LabeledDataset, _check_labels
from postmax.objective import (
    ObjectiveConfig,
    _column_width,
    _onehot,
    _rate_terms,
    _raw_logit_grad,
    _raw_rows,
    _row_max_program,
    _row_sum_op,
    _rows,
    _run,
    _simplex_logit_grad_program,
)
from postmax.posterior import _batch_mean, accuracy

# Unused here; perfbench/spans.py wraps these names in this module.
from postmax.objective import (
    bias_simplex_batch, corrected_grad_batch, corrected_jf_batch, jf_batch,
    jf_grad_batch, jf_simplex_batch, jf_simplex_logit_grad_batch,
)
from postmax.posterior import posterior_correct, predict

_ACTIVATIONS = ("relu", "tanh")
_HEADS = ("raw_t", "simplex")

SERIAL_VERSION = 1

# The most floats a run may hold at once: 2 GiB of float64.  Each caller
# counts its large arrays from their sizes alone, by what holds them, and
# _check_budget refuses a total past this before any of them is allocated.
MAX_RUN_FLOATS = 2**28


def _check_budget(terms: dict, what: str, error=ValueError) -> None:
    """Raise error unless terms, name -> floats, sum to at most
    MAX_RUN_FLOATS; its message names what, the total and the largest
    term."""
    total = sum(terms.values())
    if total > MAX_RUN_FLOATS:
        name = max(terms, key=terms.get)
        raise error(
            f"{what} would hold {total:,} floats, over MAX_RUN_FLOATS = "
            f"{MAX_RUN_FLOATS:,}; its largest term is {name}, {terms[name]:,} floats"
        )


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
        sizes = tuple(_integer(s, "layer_sizes", least=1) for s in self.layer_sizes)
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
        for name, least, most in (
            ("epochs", 0, None), ("batch_size", 1, None), ("seed", 0, MAX_SEED)
        ):
            value = _integer(getattr(self, name), name, least, most)
            object.__setattr__(self, name, value)
        for name in _RULES:
            _check(name, getattr(self, name))


# The real-valued fields' rules, name -> (test, what the value must be),
# by which TrainConfig and the config reader both check; a rule's test
# sees only an int or a float, never a bool.
_RULES = {
    "lr0": (lambda v: 0.0 < v < math.inf, "finite and positive"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


def _check(rule: str, value):
    """value, or a ValueError if it breaks the rule of that name."""
    test, requirement = _RULES[rule]
    if not (_is_real(value) and test(value)):
        raise ValueError(f"{rule} must be {requirement}, got {value!r}")
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
    out = tuple((np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in params)
    for a in itertools.chain.from_iterable(out):
        a.setflags(write=False)
    return out


def init(spec: MlpSpec, seed: int) -> NetworkModel:
    """Fan-in-scaled uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(_seed(seed))
    params = []
    widths = spec.layer_sizes
    for i in range(len(widths) - 1):
        bound = math.sqrt(6.0 / widths[i])
        W = rng.uniform(-bound, bound, size=(widths[i], widths[i + 1]))
        params.append((W, np.zeros(widths[i + 1])))
    return NetworkModel(spec, tuple(params))


def _softmax_program(v, out, col) -> tuple:
    """A program that writes the row softmax of v over the last axis into
    out; col is a scratch column, (..., _column_width(K)), for the row max
    and then the row sum."""
    return (
        *_row_max_program(v, col),
        partial(np.subtract, v, col, out),
        partial(np.exp, out, out),
        _row_sum_op(out, col),
        partial(np.divide, out, col, out),
    )


_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


def _forward_program(activation: str, layers, hs, v) -> tuple:
    """The forward pass over any leading member axes: each hidden layer
    writes its linear output to its output array and applies the
    activation there in place, so that array ends as the next layer's
    input; the output layer writes the final linear outputs.

    layers are (W, b) pairs whose b broadcasts against the layer's
    outputs; hs are the layer inputs, hs[0] the features, and v takes the
    final linear outputs.  An input may end in a column of ones, which
    its layer reads only when its b is None and its W the (d_in + 1,
    d_out) block [W; b], so the matmul adds the bias.  A hidden layer
    writes the first d_out columns of the next input and takes its
    activation over all of it.
    """
    calls = []
    for (W, b), h_in, h in zip(layers, hs, [*hs[1:], v]):
        z = h[..., : W.shape[-1]]
        calls.append(partial(np.matmul, h_in[..., : W.shape[-2]], W, z))
        if b is not None:
            calls.append(partial(np.add, z, b, z))
        if h is v:  # the output layer takes no activation
            break
        if activation == "relu":  # relu(1) = 1 keeps a ones column
            calls.append(partial(np.maximum, h, _ZERO, out=h))
        else:
            calls.append(partial(np.tanh, z, z))
    return tuple(calls)


def forward(model: NetworkModel, X) -> np.ndarray:
    """Head outputs for a feature matrix: simplex rows or T = link(v)."""
    spec = model.spec
    X = _check_features(spec, X)
    heads = np.empty((X.shape[0], spec.k))
    div = get_divergence(spec.divergence) if spec.head == "raw_t" else None
    _score(spec, div, model.params, X, heads=heads)
    return heads


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


def _head_rows(div: DivergenceSpec, v, D, labels, e) -> np.ndarray:
    """objective._rows of final outputs v (N, K), checked labels and rates
    e or None.  D holds the simplex head's softmax rows, None for the raw
    head; log D = v - max - log sum exp(v - max) is finite at every finite
    v, so no simplex row needs a floor."""
    if D is None:
        return _raw_rows(div, v, labels, e)
    log_D = v - v.max(axis=1, keepdims=True)
    log_D -= np.log(np.exp(log_D).sum(axis=1, keepdims=True))
    return _rows(*div.simplex_terms(D, log_D), labels, e)


def _backprop_program(activation: str, weights_T, hs, g_v, grads, masks):
    """Backprop over any leading member axes, from the output layer down:
    each layer's gradient block, then, above layer 0, its input gradient
    times the activation's derivative, written over the layer's input.

    weights_T are the layers' transposed weights (layer 0's is not
    read), hs are the layer inputs, each ending in a column of ones, and
    g_v the output gradient; grads are the layers' (d_in + 1, d_out)
    gradient blocks [dW; db], so one matmul writes both.  masks are
    scratch shaped like the hidden layers' hs, bool for relu and float
    for tanh.  A hidden layer's activations are spent once its gradient
    block and derivative have read them, so its input gradient overwrites
    them; the ones column ends at 1.0, as relu's mask is True there and
    tanh's derivative, 0 there, multiplies the other columns only.
    """
    outputs = [*hs[1:], g_v]
    calls = []
    for i in range(len(grads) - 1, -1, -1):
        g = outputs[i][..., : grads[i].shape[-1]]
        calls.append(partial(np.matmul, hs[i].swapaxes(-1, -2), g, grads[i]))
        if i == 0:
            break
        W_T, h, d = weights_T[i], hs[i], masks[i - 1]
        delta = h[..., : W_T.shape[-1]]
        if activation == "relu":
            # relu(z) > 0 exactly where z > 0, NaN and -0.0 included;
            # the kink at 0 is measure-zero under continuous inputs
            calls.append(partial(np.greater, h, _ZERO, d))
        else:
            h, d = delta, d[..., : W_T.shape[-1]]
            calls.append(partial(np.multiply, h, h, d))
            calls.append(partial(np.subtract, _ONE, d, d))
        calls.append(partial(np.matmul, g, W_T, delta))
        calls.append(partial(np.multiply, h, d, h))
    return tuple(calls)


def objective_and_gradients(model: NetworkModel, X, labels, cfg: ObjectiveConfig):
    """Batch-mean objective and its ascent gradient for every parameter.

    Runs the program of one full-batch training step over the rows in
    their order, so the gradients are bit for bit the ones a training
    step on that batch takes, and can be compared against finite
    differences of the value.  Its workspaces grow as N x width, so an N
    whose arrays would pass MAX_RUN_FLOATS raises ValueError first.
    """
    spec = model.spec
    _check_compat(spec, cfg)
    X = _check_features(spec, X)
    n, k = X.shape[0], spec.k
    # besides the workspaces, (N, K) one-hot rows, rate terms and the
    # head's and the value's temporaries
    terms = {"step workspaces": _step_floats(spec, 1, 1, n), "label rows": 12 * n * k}
    _check_budget(terms, f"objective_and_gradients over {n} rows")
    labels = _check_labels(labels, n, k)
    div = get_divergence(cfg.divergence)
    e = _rates(cfg, k, "objective")
    theta = _flat_params(model.params).reshape(1, 1, -1)
    grad = np.empty_like(theta)
    workspaces = _step_workspaces(spec, 1, 1, n)
    e_terms = None if e is None else _rate_terms(e.reshape(1, 1, k), n)
    x, onehot, program = _step_program(
        spec, div, theta, grad, model.params, workspaces, e_terms, n
    )
    x[...] = X
    onehot[...] = _onehot(labels, k)
    _run(program)
    v, D = (a[0, 0] for a in workspaces[-1][:2])  # final and head outputs
    rows = _head_rows(div, v, D if spec.head == "simplex" else None, labels, e)
    return _batch_mean(rows), _layer_views(grad[0, 0], model.params)


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
    """_forward_program's layers and _backprop_program's transposed
    weights over _layer_blocks' blocks, for layer inputs that end in a
    column of ones: each hidden layer's bias is added by its matmul, and
    the output layer's by an add, as the matmul would round it
    differently.  The input gradients take W^T alone, for the same
    reason."""
    *hidden, last = blocks
    layers = [(W, None) for W in hidden] + [(last[..., :-1, :], last[..., -1:, :])]
    return layers, [W[..., :-1, :].swapaxes(-1, -2) for W in blocks]


def _layer_views(buf: np.ndarray, params) -> list:
    """(W, b) views into the last axis of a flat buffer, as _layer_blocks'."""
    return [(blk[..., :-1, :], blk[..., -1, :]) for blk in _layer_blocks(buf, params)]


def _flat_params(params, out=None) -> np.ndarray:
    """One flat row of (W, b) pairs, as _layer_blocks reads it, in out."""
    return np.concatenate([a.ravel() for layer in params for a in layer], out=out)


def _step_layout(spec: MlpSpec, S: int, G: int, B: int) -> list:
    """The workspaces of a step of S groups of G members and at most B
    rows, each as (fill, shape, dtype), in _step_workspaces' groups: layer
    inputs, each with its ones column: the gathered features, one (S, 1,
    B, d_in + 1) buffer that matmul broadcasts over each group, then each
    hidden layer's activations, which backprop overwrites with their
    input gradients; activation derivatives (relu's as a bool mask) of
    the same widths; final outputs, head outputs, head gradients, the
    head's scratch, the labels as one-hot rows, and one (S, G, B,
    _column_width(K)) column for row maxima and sums.  A step of fewer
    rows uses the first rows of each."""
    hidden, k = spec.layer_sizes[1:-1], spec.k
    mask_type = bool if spec.activation == "relu" else float
    return [
        [(np.ones, (S, 1, B, spec.d_in + 1), float)]
        + [(np.ones, (S, G, B, w + 1), float) for w in hidden],
        [(np.empty, (S, G, B, w + 1), mask_type) for w in hidden],
        [(np.empty, (S, G, B, k), float)] * 5
        + [(np.empty, (S, G, B, _column_width(k)), float)],
    ]


def _step_workspaces(spec: MlpSpec, S: int, G: int, B: int) -> list:
    """_step_layout's workspaces, allocated."""
    return [
        [fill(shape, dtype) for fill, shape, dtype in group]
        for group in _step_layout(spec, S, G, B)
    ]


def _step_floats(spec: MlpSpec, S: int, G: int, B: int) -> int:
    """The floats _step_workspaces would allocate, a bool an eighth."""
    bytes_ = sum(
        math.prod(shape) * (1 if dtype is bool else 8)
        for group in _step_layout(spec, S, G, B)
        for _, shape, dtype in group
    )
    return -(-bytes_ // 8)


def _step_program(spec, div, theta, grad, params, workspaces, e_terms, nb) -> tuple:
    """(features, one-hot rows, program) of a step of nb rows.

    theta holds the parameters and grad takes the batch-mean ascent
    gradient, both (S, G, P) with rows laid out as _flat_params lays out
    params; workspaces are _step_workspaces', and e_terms the rate terms
    at their (S, G, B, K) shape, or None.  The caller writes the batch's
    features and one-hot label rows into the two views, then runs the
    program, one builder's calls per phase in order: _forward_program;
    the simplex head's _softmax_program and _simplex_logit_grad_program,
    or a raw head's one _raw_logit_grad call; the division by nb; and
    _backprop_program.  Each layer input ends in a column of ones, so a
    layer's [W; b] block serves as its weights and its gradient."""
    layers, weights_T = _folded_layers(_layer_blocks(theta, params))
    grads = _layer_blocks(grad, params)
    hs, masks, (v, D, g_v, tmp, onehot, col) = (
        [a[..., :nb, :] for a in ws] for ws in workspaces
    )
    e_nb = None if e_terms is None else tuple(t[..., :nb, :] for t in e_terms)
    if spec.head == "simplex":
        head = _softmax_program(v, D, col) + _simplex_logit_grad_program(
            div, D, onehot, e_nb, g_v, (tmp, col)
        )
    else:
        head = (partial(_raw_logit_grad, div, v, onehot, e_nb, g_v),)
    program = (
        _forward_program(spec.activation, layers, hs, v)
        + head
        + (partial(np.divide, g_v, np.float64(nb), g_v),)
        + _backprop_program(spec.activation, weights_T, hs, g_v, grads, masks)
    )
    return hs[0][:, 0, :, : spec.d_in], onehot, program


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
            [test_acc], _ = _score(
                spec, div, params, eval_dataset.features, eval_dataset.labels,
                [objective_config],
            )
            test_accs.append(test_acc)

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
    [acc], obj = _score(
        spec, div, params, dataset.features, dataset.labels, [cfg], objective=True
    )
    if not math.isfinite(obj):
        raise RuntimeError(f"objective became non-finite after epoch {epoch}: {obj}")
    return acc, obj


def _seed_groups(seeds) -> tuple:
    """(S, G) for members with these seeds: S groups of G consecutive
    members each, G the length of the seeds' runs when every run of one
    seed has the same length, and 1 otherwise."""
    runs = {len(list(run)) for _, run in itertools.groupby(seeds)}
    G = runs.pop() if len(runs) == 1 else 1
    return len(seeds) // G, G


def _train_members(members, on_epoch=None) -> list:
    """train() for M members in lockstep; one trained model per member.

    members are train()'s (model, dataset, objective config, train config)
    arguments.  They share the architecture, the training features, the
    divergence and every train config field but the seed; initial
    parameters, labels, correction mode and seed are each member's own,
    and members with one seed draw one sequence of mini-batches, which
    each step gathers once per group of _seed_groups.  Each result equals
    that member's train() call bit for bit, and the earliest failure stops
    every member, with the message train() gives for it.

    After every epoch, on_epoch(epoch, member_params) receives each
    member's parameters as (W, b) views that the next step overwrites.
    Without a consumer, each member's training objective is computed once,
    after the final epoch, and checked as train() checks it, once
    _train_epochs has released the step's workspaces, velocity and gradient.
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
    member_params = _train_epochs(members, spec, div, on_epoch)
    if on_epoch is None and tc.epochs > 0:
        for (_, dataset, cfg, _), params in zip(members, member_params):
            _checked_metrics(spec, div, params, cfg, dataset, tc.epochs - 1)
    return [NetworkModel(spec, tuple(params)) for params in member_params]


def _train_epochs(members, spec, div, on_epoch) -> list:
    """_train_members' epochs: each member's trained (W, b) views into one
    (M, P) array.  All else the steps hold (programs, workspaces, rate
    terms, velocity, gradient, guard buffer) is released on return."""
    model0, dataset0, _, tc = members[0]
    X, n, k = dataset0.features, dataset0.n, spec.k
    B = min(tc.batch_size, n)
    # The members form S groups of G that share a seed, so the step
    # gathers one mini-batch per group; every other operand leads with
    # the axes (S, G), free reshapes of per-member arrays.
    member_seeds = [t.seed for _, _, _, t in members]
    S, G = _seed_groups(member_seeds)
    # Datasets and noise parameters validated the labels and rates, so
    # every step runs the unchecked kernels.  Head outputs need no check:
    # a non-finite one surfaces as non-finite parameters at the same step.
    # A zero rate row leaves its member's gradient unchanged bit for bit,
    # so one kernel call serves all, with the rate terms at the step's
    # (S, G, B, k) shape.
    labels = np.stack([ds.labels for _, ds, _, _ in members]).reshape(S, G, n)
    rates = [_rates(cfg, k, "objective") for _, _, cfg, _ in members]
    e_terms = None
    if any(e is not None for e in rates):
        e_rows = np.stack([np.zeros(k) if e is None else e for e in rates])
        e_terms = _rate_terms(e_rows.reshape(S, G, k), B)

    # Member m's parameters are row m of one (M, P) buffer, so the update
    # and the finiteness guard are one pass each over all members.
    theta = np.empty((len(members), _flat_params(model0.params).size))
    velocity = np.empty_like(theta)
    grad = np.empty_like(theta)
    finite = np.empty(theta.shape, bool)
    momentum = np.float64(tc.momentum)
    member_params = [_layer_views(row, model0.params) for row in theta]

    # Each seed group draws its batch order from its own generator, seeded
    # with the group's seed; two groups with one seed draw the same orders.
    # Each epoch writes the orders into `order` and the members' labels,
    # in their group's order, into `epoch_labels`, so a step reads its
    # indices and labels as slices of the two.  Member (s, g)'s labels
    # start at offsets[s, g, 0] of the flat labels, so one take gathers
    # every member's in order.
    group_seeds = member_seeds[::G]
    order = np.empty((S, n), dtype=np.intp)
    epoch_labels = np.empty_like(labels)
    identity = np.eye(k)
    flat_labels = labels.ravel()
    offsets = n * np.arange(S * G).reshape(S, G, 1)

    # Workspaces for the largest batch; a ragged last batch uses the first
    # rows of each, and of the rate terms.
    workspaces = _step_workspaces(spec, S, G, B)
    # One program per step of an epoch: every call of the step, with its
    # operands bound, built once per training.  Views of the workspaces
    # and rate terms, and the forward, softmax, head and backprop programs
    # over them, are built once per batch size; each step binds its slices
    # of `order` and `epoch_labels` and its element of `lrs`, which every
    # epoch refills in place.  The update is four passes over the (M, P)
    # rows; lr times velocity goes into grad, which backprop rewrites.
    starts = range(0, n, tc.batch_size)
    lrs = np.empty(len(starts))
    sized = {}
    steps = []
    for i, start in enumerate(starts):
        stop = min(start + tc.batch_size, n)
        nb = stop - start
        if nb not in sized:
            sized[nb] = _step_program(
                spec, div, theta.reshape(S, G, -1), grad.reshape(S, G, -1),
                model0.params, workspaces, e_terms, nb,
            )
        x, onehot, step = sized[nb]
        steps.append((
            partial(X.take, order[:, start:stop], 0, x, "clip"),
            partial(identity.take, epoch_labels[..., start:stop], 0, onehot, "clip"),
            *step,
            partial(np.multiply, velocity, momentum, velocity),
            partial(np.add, velocity, grad, velocity),
            partial(np.multiply, velocity, lrs[i, ...], grad),
            partial(np.add, theta, grad, theta),
        ))
    total_steps = tc.epochs * len(steps)

    def run(programs, on_epoch):
        """Train from the initial parameters, the guard after each of an
        epoch's programs: (epoch, program) where it first fails, or None.
        An epoch calls no Python function but _cosine_lr and on_epoch."""
        for row, (model, _, _, _) in zip(theta, members):
            _flat_params(model.params, row)
        velocity.fill(0.0)
        rngs = [np.random.default_rng(s) for s in group_seeds]
        for epoch in range(tc.epochs):
            first = epoch * len(steps)
            for s, rng in enumerate(rngs):
                order[s] = rng.permutation(n)
            flat_labels.take(offsets + order[:, None, :], out=epoch_labels, mode="clip")
            for i in range(len(steps)):
                lrs[i] = _cosine_lr(tc.lr0, first + i, total_steps)
            # a diverging step overflows; the guard, not numpy, reports it
            with np.errstate(over="ignore", invalid="ignore"):
                for i, program in enumerate(programs):
                    for op in program:
                        op()
                    np.isfinite(theta, finite)
                    if not np.logical_and.reduce(finite, None):
                        return epoch, i
            if on_epoch is not None:
                on_epoch(epoch, member_params)
        return None

    # One guard per epoch (1.1 us a step less at the desk shape): a
    # non-finite parameter stays so under every later update (inf + x is
    # inf or NaN), so it fails after the epochs a guard per step fails in.
    # A replay with a guard per step names the step; every step rewrites
    # the ones columns it reads with 1.0, so it replays the same calls.
    if run((tuple(itertools.chain.from_iterable(steps)),), on_epoch) is not None:
        epoch, i = run(steps, None)
        runaway = any(e is not None and f for e, f in zip(rates, (~finite).any(1)))
        cause = (
            "the objective correction is the likely cause, as its estimate can "
            "grow without bound on a finite sample; train with another correction "
            "or lower lr0" if runaway else "lower lr0 or check the data"
        )
        raise RuntimeError(
            f"parameters became non-finite at epoch {epoch} step "
            f"{epoch * len(steps) + i}; {cause}"
        )
    return member_params


def evaluate(model: NetworkModel, dataset: LabeledDataset, cfg: ObjectiveConfig):
    """Accuracy and mean objective on a dataset; deterministic.

    With posterior correction configured, flip rates are subtracted from
    the estimated posteriors before the argmax; the reported objective is
    the uncorrected one the model was trained on in that mode.
    """
    [result] = _evaluate_modes(model, dataset, [cfg])
    return result


def _evaluate_modes(model: NetworkModel, dataset: LabeledDataset, cfgs) -> list:
    """evaluate() under each of cfgs, from one scoring pass: one
    (accuracy, objective) per config, each its evaluate() call's.  The
    configs share one objective, so they must share the divergence, and
    either none corrects the objective or all correct it for the same
    noise; "none" and "posterior" configs always may share a pass."""
    objectives = [
        (cfg.divergence, cfg.noise if cfg.correction == "objective" else None)
        for cfg in cfgs
    ]
    if any(objective != objectives[0] for objective in objectives):
        raise ValueError("configs scored in one pass must share the objective")
    for cfg in cfgs:
        _check_compat(model.spec, cfg)
    _check_fits(model.spec, dataset)
    accs, value = _score(
        model.spec, get_divergence(cfgs[0].divergence), model.params,
        dataset.features, dataset.labels, cfgs, objective=True,
    )
    return [(acc, value) for acc in accs]


# A scoring pass's row blocks: at most _BLOCK_ROWS rows each, every one
# but the last a whole number of _BLOCK_ALIGN rows; see the module docstring.
_BLOCK_ROWS = 1024
_BLOCK_ALIGN = 64


def _row_blocks(n: int) -> list:
    """(start, stop) of each block of a scoring pass over n rows: the
    fewest blocks of at most _BLOCK_ROWS rows, as even as whole units of
    _BLOCK_ALIGN rows allow, the last ending at n."""
    blocks = -(-n // _BLOCK_ROWS)
    units = -(-n // _BLOCK_ALIGN)
    edges = [_BLOCK_ALIGN * (units * i // blocks) for i in range(blocks)] + [n]
    return list(zip(edges, edges[1:]))


def _score(
    spec: MlpSpec, div: Optional[DivergenceSpec], params, X, labels=None,
    cfgs=(), objective: bool = False, heads=None,
) -> tuple:
    """Score a network on features X in row blocks: (accuracies, value).

    Each of _row_blocks' blocks runs the unfolded forward pass (matmul,
    then bias add) into workspaces allocated once per call.  cfgs are
    objective configs, checked by the caller against the network and
    each other, one per accuracy: one that corrects the posterior ranks
    the head outputs less its flip rates, any other the head outputs.
    With objective, value is the mean objective with labels, minus the
    bias of cfgs[0]'s rates when it corrects the objective, and None
    otherwise.  heads, an (N, K) array, takes the head outputs when
    given.  Every per-row prediction and objective term is written to an
    (N,) array, which one reduction reads, so each scalar gets the
    whole-array pass's bits while every block is served by the BLAS
    kernel the whole set is (see the module docstring).  div is the
    divergence; the simplex head reads it only for the objective.
    """
    n, k = X.shape[0], spec.k
    ranks = [_rates(cfg, k, "posterior") for cfg in cfgs]
    e = _rates(cfgs[0], k, "objective") if objective else None
    simplex = spec.head == "simplex"
    spans = _row_blocks(n)
    rows = max((hi - lo for lo, hi in spans), default=0)
    hidden = [np.empty((rows, w)) for w in spec.layer_sizes[1:-1]]
    v_buf, col_buf = np.empty((rows, k)), np.empty((rows, _column_width(k)))
    D_buf = np.empty((rows, k)) if simplex and heads is None else None
    preds = [np.empty(n, np.intp) for _ in ranks]
    values = np.empty(n) if objective else None
    for lo, hi in spans:
        m = hi - lo
        v = v_buf[:m]
        hs = [X[lo:hi], *(h[:m] for h in hidden)]
        _run(_forward_program(spec.activation, params, hs, v))
        D = None
        if simplex:
            D = D_buf[:m] if heads is None else heads[lo:hi]
            _run(_softmax_program(v, D, col_buf[:m]))
        elif heads is not None:
            heads[lo:hi] = div.link(v)
        for p, r in zip(preds, ranks):
            # every raw posterior map is increasing in v, so v has its argmax
            scores = v if D is None else D
            if r is not None:
                scores = div.raw_rank(v, r) if D is None else D - r
            np.argmax(scores, axis=1, out=p[lo:hi])
        if objective:
            values[lo:hi] = _head_rows(div, v, D, labels[lo:hi], e)
    accs = [accuracy(p, labels) for p in preds]
    return accs, _batch_mean(values) if objective else None


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
    """The model in a save_model file; ValueError names a missing or mistyped key."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"model file is not JSON: {err}") from None
        except RecursionError:
            raise ValueError("model file is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("a model file must hold a JSON object")
    if payload.get("version") != SERIAL_VERSION:
        raise ValueError(
            f"unsupported model container version {payload.get('version')!r}"
        )
    s = _entry(payload, "spec", dict, "an object")
    text, optional = (str, "a string"), ((str, type(None)), "a string or null")
    spec = MlpSpec(
        layer_sizes=tuple(_entry(s, "layer_sizes", list, "a list", "spec.")),
        activation=_entry(s, "activation", *text, "spec."),
        head=_entry(s, "head", *text, "spec."),
        divergence=_entry(s, "divergence", *optional, "spec."),
    )
    params = []
    for i, layer in enumerate(_entry(payload, "params", list, "a list")):
        where = f"params[{i}]"
        layer = _entry({where: layer}, where, dict, "an object")  # a one-key tree
        W, b = (_entry(layer, key, list, "a list", f"{where}.") for key in "Wb")
        try:
            # numpy reads "1.5" and true as numbers too; only JSON numbers pass
            values = (v for x in (W, b) for v in np.array(x, dtype=object).flat)
            if not all(map(_is_real, values)):
                raise ValueError("not a number")
            params.append((np.array(W, dtype=float), np.array(b, dtype=float)))
        except (TypeError, ValueError, OverflowError, RuntimeError):
            # RuntimeError: numpy iterates no array of more than 32 dimensions
            raise ValueError(
                f"malformed model file: {where}'s W and b must hold numbers "
                "in nested lists of equal lengths"
            ) from None
    return NetworkModel(spec, tuple(params))


def _entry(tree: dict, key: str, kind, what: str, where: str = ""):
    """tree[key] of a model file, at where in it, if it is a kind, else
    ValueError naming the key; what says what it must be."""
    if key not in tree:
        raise ValueError(f"malformed model file: missing key {where + key!r}")
    if not isinstance(tree[key], kind):
        raise ValueError(
            f"malformed model file: {where + key!r} must be {what}, "
            f"got {type(tree[key]).__name__}"
        )
    return tree[key]
