"""Small feedforward networks trained by maximizing the divergence objective.

The network is a stack of linear layers with relu or tanh activations and
one of two output heads.  The simplex head squashes the final linear
outputs into a strictly positive probability row via exponential
normalization and trains on the change-of-variable objectives; it is the
default for multi-class problems.  The raw head maps final outputs into
the conjugate domain of the chosen divergence through that divergence's
link (see postmax.divergence).

Training is plain mini-batch ascent with SGD momentum and a cosine
learning-rate schedule annealed to zero, deterministic per seed.  All
gradients are propagated by hand and checked against central finite
differences in the test suite.

One loop trains M members in lockstep: networks that start from the same
parameters and draw the same mini-batches but see their own labels and
correction mode, such as the clean, noisy and corrected networks of one
experiment seed.  Parameters, velocities and gradients are (M, P) arrays,
one flat row per member; the forward pass and backprop run as batched
matmuls over the member axis into workspaces of shape (M, batch, width)
allocated once per training, and a ragged last batch uses a slice of them.
A single-member call is train() itself, so each member ends bit for bit
where its own train() call would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from postmax.divergence import DivergenceSpec, get_divergence
from postmax.noise import LabeledDataset
from postmax.objective import (
    POSTERIOR_FLOOR,
    ObjectiveConfig,
    _HEADS,
    _bias_simplex,
    _check_D_batch,
    _check_labels,
    _jf_simplex,
    _onehot,
    _simplex_logit_grad,
    bias_simplex_batch,
    corrected_grad_batch,
    corrected_jf_batch,
    jf_batch,
    jf_grad_batch,
    jf_simplex_batch,
    jf_simplex_logit_grad_batch,
)
from postmax.posterior import (
    PosteriorMatrix,
    _check_rates,
    accuracy,
    posterior_correct,
    predict,
)

_ACTIVATIONS = ("relu", "tanh")

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
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs input and output widths >= 1")
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
        if int(self.epochs) != self.epochs or self.epochs < 0:
            raise ValueError("epochs must be a nonnegative integer")
        if int(self.batch_size) != self.batch_size or self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not self.lr0 > 0.0:
            raise ValueError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


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


def _softmax(v: np.ndarray, out=None) -> np.ndarray:
    """Row softmax over the last axis, into out when given."""
    z = np.subtract(v, v.max(axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _forward_into(activation: str, layers, hs, zs, v) -> None:
    """Forward pass into given arrays, over any leading member axes.

    hs[0] holds the layer-0 inputs; hidden layer i writes its
    pre-activation to zs[i] and its activation, the next layer's input,
    to hs[i + 1]; the final linear outputs go to v.  layers are (W, b)
    pairs whose b broadcasts against the layer's outputs.
    """
    for (W, b), h_in, z, h in zip(layers[:-1], hs, zs, hs[1:]):
        np.matmul(h_in, W, out=z)
        z += b
        if activation == "relu":
            np.maximum(z, 0.0, out=h)
        else:
            np.tanh(z, out=h)
    W, b = layers[-1]
    np.matmul(hs[-1], W, out=v)
    v += b


def _forward_parts(spec: MlpSpec, params, X: np.ndarray):
    """All layer inputs and pre-activations, plus final linear outputs."""
    zs = [np.empty((X.shape[0], w)) for w in spec.layer_sizes[1:-1]]
    hs = [X] + [np.empty_like(z) for z in zs]
    v = np.empty((X.shape[0], spec.k))
    _forward_into(spec.activation, params, hs, zs, v)
    return hs, zs, v


def _head_output(spec: MlpSpec, div: DivergenceSpec, v: np.ndarray) -> np.ndarray:
    if spec.head == "simplex":
        return _softmax(v)
    return div.link(v)


def forward(model: NetworkModel, X) -> np.ndarray:
    """Head outputs for a feature matrix: simplex rows or in-domain T."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.spec.d_in:
        raise ValueError(
            f"features must be N x {model.spec.d_in} for this architecture"
        )
    _, _, v = _forward_parts(model.spec, model.params, X)
    if model.spec.head == "simplex":
        return _softmax(v)
    return get_divergence(model.spec.divergence).link(v)


def _check_compat(spec: MlpSpec, cfg: ObjectiveConfig) -> None:
    if spec.head != cfg.head:
        raise ValueError(
            f"model head {spec.head!r} does not match objective head {cfg.head!r}"
        )
    if spec.head == "raw_t" and spec.divergence != cfg.divergence:
        raise ValueError(
            "the raw head's link divergence must match the objective divergence"
        )


def _train_rates(cfg: ObjectiveConfig, k: int) -> Optional[np.ndarray]:
    # posterior correction acts at evaluation time, not on gradients
    if cfg.correction == "objective":
        return cfg.noise.flip_rates(k)
    return None


def _eval_rates(cfg: ObjectiveConfig, k: int) -> Optional[np.ndarray]:
    if cfg.correction == "posterior":
        return cfg.noise.flip_rates(k)
    return None


def _batch_objective(
    cfg: ObjectiveConfig, div: DivergenceSpec, out: np.ndarray, labels, e,
    checked: bool = False,
) -> float:
    """Mean objective of head outputs; checked means the caller has
    checked labels and rates, so simplex rows get one check and the
    unchecked kernels."""
    if cfg.head == "simplex":
        # Optimizers may legitimately drive off-label probabilities to
        # the simplex boundary; floor them so the logged value (not the
        # gradient) stays finite.
        safe = np.maximum(out, POSTERIOR_FLOOR)
        if checked:
            _check_D_batch(safe)
            jf, bias = _jf_simplex, _bias_simplex
        else:
            jf, bias = jf_simplex_batch, bias_simplex_batch
        value = jf(div, safe, labels)
        if e is not None:
            value -= bias(div, safe, e)
        return value
    if e is not None:
        return corrected_jf_batch(div, out, labels, e)
    return jf_batch(div, out, labels)


def _head_grad_v(
    cfg: ObjectiveConfig, div: DivergenceSpec, out: np.ndarray, v: np.ndarray,
    labels, e,
) -> np.ndarray:
    """Gradient of the batch-mean objective w.r.t. final linear outputs."""
    if cfg.head == "simplex":
        g_v = jf_simplex_logit_grad_batch(div, out, labels, e)
    else:
        if e is not None:
            g = corrected_grad_batch(div, out, labels, e)
        else:
            g = jf_grad_batch(div, out, labels)
        g_v = g * div.link_prime(v)
    return g_v / out.shape[0]


def _backprop_into(activation: str, layers, hs, zs, g_v, grads, deltas, derivs):
    """Backpropagate the output gradient g_v, over any leading member axes.

    hs and zs are _forward_into's; each layer's (dW, db) is written into
    the arrays of grads, and deltas and derivs are scratch shaped like zs.
    """
    g = g_v
    for i in range(len(layers) - 1, -1, -1):
        gW, gb = grads[i]
        np.matmul(hs[i].swapaxes(-1, -2), g, out=gW)
        np.add.reduce(g, axis=-2, out=gb)
        if i > 0:
            g = np.matmul(g, layers[i][0].swapaxes(-1, -2), out=deltas[i - 1])
            d = derivs[i - 1]
            if activation == "relu":
                # relu's kink at 0 is measure-zero under continuous inputs
                np.greater(zs[i - 1], 0.0, out=d)
            else:
                np.multiply(hs[i], hs[i], out=d)
                np.subtract(1.0, d, out=d)
            g *= d


def _backprop(spec: MlpSpec, params, hs, zs, g_v):
    """Per-layer (dW, db) of the output gradient g_v, in new arrays."""
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in params]
    scratch = [[np.empty_like(z) for z in zs] for _ in range(2)]
    _backprop_into(spec.activation, params, hs, zs, g_v, grads, *scratch)
    return grads


def objective_and_gradients(model: NetworkModel, X, labels, cfg: ObjectiveConfig):
    """Batch-mean objective and its ascent gradient for every parameter.

    The returned gradients are exactly what one training step uses, so
    they can be compared against finite differences of the value.
    """
    _check_compat(model.spec, cfg)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.spec.d_in:
        raise ValueError(
            f"features must be N x {model.spec.d_in} for this architecture"
        )
    labels = np.asarray(labels)
    div = get_divergence(cfg.divergence)
    e = _train_rates(cfg, model.spec.k)
    hs, zs, v = _forward_parts(model.spec, model.params, X)
    out = _head_output(model.spec, div, v)
    value = _batch_objective(cfg, div, out, labels, e)
    g_v = _head_grad_v(cfg, div, out, v, labels, e)
    grads = _backprop(model.spec, model.params, hs, zs, g_v)
    return value, grads


def _cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def _layer_views(buf: np.ndarray, params) -> list:
    """(W, b) views into the last axis of a flat buffer, in the order and
    shapes of params; leading axes of buf lead every view."""
    lead = buf.shape[:-1]
    views = []
    offset = 0
    for layer in params:
        pair = []
        for arr in layer:
            pair.append(buf[..., offset : offset + arr.size].reshape(lead + arr.shape))
            offset += arr.size
        views.append(tuple(pair))
    return views


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
    return _train_members(
        model, [(dataset, objective_config)], train_config, eval_dataset
    )[0]


def _train_members(model, members, train_config, eval_dataset=None) -> list:
    """train() for M members in lockstep; one (model, trace) per member.

    members are (dataset, objective config) pairs that share the features
    and the divergence; each member's labels and correction mode are its
    own.  All start from model and draw the same mini-batches, so each
    result equals that member's train() call bit for bit.  The earliest
    failure stops every member, with the message train() gives for it.
    """
    spec = model.spec
    X = members[0][0].features
    for dataset, cfg in members:
        _check_compat(spec, cfg)
        if dataset.k != spec.k:
            raise ValueError("dataset class count does not match the output width")
        if dataset.d != spec.d_in:
            raise ValueError("dataset feature width does not match the input width")
        if not np.array_equal(dataset.features, X, equal_nan=True):
            raise ValueError("members must share the training features")
        if cfg.divergence != members[0][1].divergence:
            raise ValueError("members must share the divergence")
    if eval_dataset is not None and (
        eval_dataset.k != spec.k or eval_dataset.d != spec.d_in
    ):
        raise ValueError("eval dataset shapes do not match the architecture")

    div = get_divergence(members[0][1].divergence)
    n, k, M = X.shape[0], spec.k, len(members)
    simplex = spec.head == "simplex"
    # Labels and rates are checked once here; every simplex step then runs
    # the unchecked kernel on one-hot rows built once.  Softmax rows need
    # no check: a non-finite row surfaces as non-finite parameters at the
    # same step.  The raw head keeps its checked per-member gradient.
    labels = np.stack([_check_labels(ds.labels, n, k) for ds, _ in members])
    rates = [_train_rates(cfg, k) for _, cfg in members]
    if simplex:
        rates = [None if e is None else _check_rates(e, k) for e in rates]
        onehot = _onehot(labels, k)
        # a zero rate row adds no drift, so one kernel call serves all
        e_rows = None
        if any(e is not None for e in rates):
            e_rows = np.stack([np.zeros(k) if e is None else e for e in rates])

    # Member m's parameters are row m of one (M, P) buffer, so the update
    # and the finiteness guard are one pass each over all members.
    flat = np.concatenate([a.ravel() for layer in model.params for a in layer])
    theta = np.tile(flat, (M, 1))
    velocity = np.zeros_like(theta)
    grad = np.empty_like(theta)
    scratch = np.empty_like(theta)
    layers = [(W, b[:, None, :]) for W, b in _layer_views(theta, model.params)]
    grad_layers = _layer_views(grad, model.params)
    member_params = [_layer_views(row, model.params) for row in theta]

    # Workspaces for the largest batch: layer inputs (the shared features
    # first), pre-activations, deltas, activation derivatives, and final
    # outputs, head outputs, one-hot labels and head gradients.  A ragged
    # last batch uses the first rows of each.
    B = min(train_config.batch_size, n)
    hidden = spec.layer_sizes[1:-1]
    workspaces = [
        [np.empty((B, spec.d_in))] + [np.empty((M, B, w)) for w in hidden],
        *([np.empty((M, B, w)) for w in hidden] for _ in range(3)),
        [np.empty((M, B, k)) for _ in range(4)],
    ]
    views = {}  # batch rows -> views of that many rows of every workspace

    steps_per_epoch = math.ceil(n / train_config.batch_size)
    total_steps = train_config.epochs * steps_per_epoch
    rng = np.random.default_rng(train_config.seed)

    traces = [([], [], []) for _ in members]
    step = 0
    for epoch in range(train_config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, train_config.batch_size):
            idx = perm[start : start + train_config.batch_size]
            nb = idx.shape[0]
            if nb not in views:
                views[nb] = [[a[..., :nb, :] for a in ws] for ws in workspaces]
            hs, zs, deltas, derivs, (v, out, y1, g_v) = views[nb]
            X.take(idx, axis=0, out=hs[0], mode="clip")
            _forward_into(spec.activation, layers, hs, zs, v)
            if simplex:
                _softmax(v, out=out)
                onehot.take(idx, axis=1, out=y1, mode="clip")
                _simplex_logit_grad(div, out, y1, e_rows, out=g_v)
                g_v /= nb
            else:
                out = div.link(v)
                try:
                    for m, (_, cfg) in enumerate(members):
                        g_v[m] = _head_grad_v(
                            cfg, div, out[m], v[m], labels[m, idx], rates[m]
                        )
                except ValueError as err:
                    raise RuntimeError(
                        f"training diverged at epoch {epoch} step {step}: {err}"
                    ) from err

            _backprop_into(
                spec.activation, layers, hs, zs, g_v, grad_layers, deltas, derivs
            )
            lr = _cosine_lr(train_config.lr0, step, total_steps)
            velocity *= train_config.momentum
            velocity += grad
            theta += np.multiply(velocity, lr, out=scratch)
            step += 1
            if not np.isfinite(theta).all():
                raise RuntimeError(
                    f"parameters became non-finite at epoch {epoch} step "
                    f"{step - 1}; lower lr0 or check the data"
                )

        for (dataset, cfg), params, trace in zip(members, member_params, traces):
            objectives, train_accs, test_accs = trace
            try:
                train_acc, obj = _evaluate(
                    spec, div, params, cfg, dataset, checked=True
                )
            except ValueError as err:
                raise RuntimeError(
                    f"objective became unevaluable after epoch {epoch}: {err}"
                ) from err
            if not math.isfinite(obj):
                raise RuntimeError(
                    f"objective became non-finite after epoch {epoch}: {obj}"
                )
            objectives.append(obj)
            train_accs.append(train_acc)
            if eval_dataset is not None:
                test_acc, _ = _evaluate(
                    spec, div, params, cfg, eval_dataset, checked=True
                )
                test_accs.append(test_acc)

    return [
        (
            NetworkModel(spec, tuple(params)),
            TrainTrace(
                objective=tuple(objectives),
                train_accuracy=tuple(train_accs),
                test_accuracy=tuple(test_accs) if eval_dataset is not None else None,
            ),
        )
        for params, (objectives, train_accs, test_accs) in zip(
            member_params, traces
        )
    ]


def evaluate(model: NetworkModel, dataset: LabeledDataset, cfg: ObjectiveConfig):
    """Accuracy and mean objective on a dataset; deterministic.

    With posterior correction configured, flip rates are subtracted from
    the estimated posteriors before the argmax; the reported objective is
    the uncorrected one the model was trained on in that mode.
    """
    _check_compat(model.spec, cfg)
    if dataset.d != model.spec.d_in:
        raise ValueError(
            f"features must be N x {model.spec.d_in} for this architecture"
        )
    div = get_divergence(cfg.divergence)
    return _evaluate(model.spec, div, model.params, cfg, dataset)


def _evaluate(
    spec: MlpSpec, div: DivergenceSpec, params, cfg: ObjectiveConfig,
    dataset: LabeledDataset, checked: bool = False,
):
    """evaluate() on bare parameters whose shapes the caller has checked;
    div is the spec of cfg.divergence, and checked is _batch_objective's."""
    _, _, v = _forward_parts(spec, params, dataset.features)
    out = _head_output(spec, div, v)
    obj = _batch_objective(
        cfg, div, out, dataset.labels, _train_rates(cfg, spec.k), checked
    )
    if cfg.head == "simplex":
        post = PosteriorMatrix(out, normalized=False)
    else:
        post = PosteriorMatrix(div.conj_prime(out), normalized=False)
    e_eval = _eval_rates(cfg, spec.k)
    if e_eval is not None:
        post = posterior_correct(post, e_eval)
    preds = predict(post)
    return accuracy(preds, dataset.labels), obj


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
