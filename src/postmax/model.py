"""Small feedforward networks trained by maximizing the divergence objective.

The network is a stack of linear layers with relu or tanh activations and
one of two output heads.  The simplex head squashes the final linear
outputs into a strictly positive probability row via exponential
normalization and trains on the change-of-variable objectives; it is the
default for multi-class problems.  The raw head maps final outputs into
the conjugate domain of the chosen divergence through a smooth, strictly
monotone link whose derivative enters backpropagation analytically:

    kl   identity            (domain is the whole real line)
    gan  -softplus(-v)       (strictly below 0)
    sl   -1/(1 + softplus(v))  (inside (-1, 0))

Training is plain mini-batch ascent with SGD momentum and a cosine
learning-rate schedule annealed to zero, deterministic per seed.  All
gradients are propagated by hand and checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from postmax.divergence import get_divergence
from postmax.noise import LabeledDataset
from postmax.objective import (
    POSTERIOR_FLOOR,
    ObjectiveConfig,
    _HEADS,
    _check_labels,
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
    snapshot_every: int = 0

    def __post_init__(self):
        if int(self.epochs) != self.epochs or self.epochs < 0:
            raise ValueError("epochs must be a nonnegative integer")
        if int(self.batch_size) != self.batch_size or self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not self.lr0 > 0.0:
            raise ValueError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch objective and accuracy, plus optional parameter snapshots."""

    objective: tuple
    train_accuracy: tuple
    test_accuracy: Optional[tuple]
    snapshots: tuple


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


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def _apply_link(divergence: str, v: np.ndarray) -> np.ndarray:
    if divergence == "kl":
        return v
    if divergence == "gan":
        return -_softplus(-v)
    if divergence == "sl":
        return -1.0 / (1.0 + _softplus(v))
    raise ValueError(f"unknown divergence id {divergence!r}")


def _link_deriv(divergence: str, v: np.ndarray) -> np.ndarray:
    if divergence == "kl":
        return np.ones_like(v)
    if divergence == "gan":
        return _sigmoid(-v)
    if divergence == "sl":
        return _sigmoid(v) / (1.0 + _softplus(v)) ** 2
    raise ValueError(f"unknown divergence id {divergence!r}")


def _softmax(v: np.ndarray) -> np.ndarray:
    z = np.exp(v - v.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) if name == "relu" else np.tanh(z)


def _activate_deriv(name: str, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    # relu's kink at 0 is measure-zero under continuous inputs
    return (z > 0.0).astype(float) if name == "relu" else 1.0 - h * h


def _forward_parts(spec: MlpSpec, params, X: np.ndarray):
    """All layer inputs and pre-activations, plus final linear outputs."""
    hs = [X]
    zs = []
    h = X
    for W, b in params[:-1]:
        z = h @ W + b
        h = _activate(spec.activation, z)
        zs.append(z)
        hs.append(h)
    W, b = params[-1]
    v = h @ W + b
    return hs, zs, v


def _head_output(spec: MlpSpec, v: np.ndarray) -> np.ndarray:
    if spec.head == "simplex":
        return _softmax(v)
    return _apply_link(spec.divergence, v)


def forward(model: NetworkModel, X) -> np.ndarray:
    """Head outputs for a feature matrix: simplex rows or in-domain T."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.spec.d_in:
        raise ValueError(
            f"features must be N x {model.spec.d_in} for this architecture"
        )
    _, _, v = _forward_parts(model.spec, model.params, X)
    return _head_output(model.spec, v)


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


def _batch_objective(cfg: ObjectiveConfig, out: np.ndarray, labels, e) -> float:
    if cfg.head == "simplex":
        # Optimizers may legitimately drive off-label probabilities to
        # the simplex boundary; floor them so the logged value (not the
        # gradient) stays finite.
        safe = np.maximum(out, POSTERIOR_FLOOR)
        value = jf_simplex_batch(cfg.divergence, safe, labels)
        if e is not None:
            value -= bias_simplex_batch(cfg.divergence, safe, e)
        return value
    if e is not None:
        return corrected_jf_batch(cfg.divergence, out, labels, e)
    return jf_batch(cfg.divergence, out, labels)


def _head_grad_v(
    cfg: ObjectiveConfig, out: np.ndarray, v: np.ndarray, labels, e
) -> np.ndarray:
    """Gradient of the batch-mean objective w.r.t. final linear outputs."""
    if cfg.head == "simplex":
        g_v = jf_simplex_logit_grad_batch(cfg.divergence, out, labels, e)
    else:
        if e is not None:
            g = corrected_grad_batch(cfg.divergence, out, labels, e)
        else:
            g = jf_grad_batch(cfg.divergence, out, labels)
        g_v = g * _link_deriv(cfg.divergence, v)
    return g_v / out.shape[0]


def _backprop(spec: MlpSpec, params, hs, zs, g_v):
    grads = [None] * len(params)
    g = g_v
    for i in range(len(params) - 1, -1, -1):
        W, _ = params[i]
        grads[i] = (hs[i].T @ g, g.sum(axis=0))
        if i > 0:
            g = (g @ W.T) * _activate_deriv(spec.activation, zs[i - 1], hs[i])
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
    e = _train_rates(cfg, model.spec.k)
    hs, zs, v = _forward_parts(model.spec, model.params, X)
    out = _head_output(model.spec, v)
    value = _batch_objective(cfg, out, labels, e)
    g_v = _head_grad_v(cfg, out, v, labels, e)
    grads = _backprop(model.spec, model.params, hs, zs, g_v)
    return value, grads


def _cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def _layer_views(buf: np.ndarray, params) -> list:
    """(W, b) views into one flat buffer, in the order and shapes of params."""
    views = []
    offset = 0
    for layer in params:
        pair = []
        for arr in layer:
            pair.append(buf[offset : offset + arr.size].reshape(arr.shape))
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
    accuracy (plus eval-set accuracy when a second dataset is supplied),
    with parameter snapshots at the configured epoch interval.  Raises
    if the objective or any parameter stops being finite.
    """
    spec = model.spec
    _check_compat(spec, objective_config)
    if dataset.k != spec.k:
        raise ValueError("dataset class count does not match the output width")
    if dataset.d != spec.d_in:
        raise ValueError("dataset feature width does not match the input width")
    if eval_dataset is not None and (
        eval_dataset.k != spec.k or eval_dataset.d != spec.d_in
    ):
        raise ValueError("eval dataset shapes do not match the architecture")

    e = _train_rates(objective_config, spec.k)
    X, y = dataset.features, dataset.labels
    n = dataset.n
    simplex = spec.head == "simplex"
    if simplex:
        # Checked once here, so every step can run the unchecked kernel;
        # softmax rows need no check, and a non-finite row surfaces as
        # non-finite parameters at the same step.
        y = _check_labels(y, n, spec.k)
        if e is not None:
            e = _check_rates(e, spec.k)
    # Every parameter lives in one buffer, so the update and the
    # finiteness guard are one pass each; params holds per-layer views.
    theta = np.concatenate([a.ravel() for layer in model.params for a in layer])
    params = _layer_views(theta, model.params)
    velocity = np.zeros_like(theta)

    steps_per_epoch = math.ceil(n / train_config.batch_size)
    total_steps = train_config.epochs * steps_per_epoch
    rng = np.random.default_rng(train_config.seed)

    objectives, train_accs, test_accs, snapshots = [], [], [], []
    step = 0
    for epoch in range(train_config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, train_config.batch_size):
            idx = perm[start : start + train_config.batch_size]
            Xb, yb = X[idx], y[idx]
            try:
                hs, zs, v = _forward_parts(spec, params, Xb)
                out = _head_output(spec, v)
                if simplex:
                    g_v = _simplex_logit_grad(
                        objective_config.divergence, out, yb, e
                    ) / out.shape[0]
                else:
                    g_v = _head_grad_v(objective_config, out, v, yb, e)
            except ValueError as err:
                raise RuntimeError(
                    f"training diverged at epoch {epoch} step {step}: {err}"
                ) from err
            grads = _backprop(spec, params, hs, zs, g_v)
            lr = _cosine_lr(train_config.lr0, step, total_steps)
            velocity *= train_config.momentum
            velocity += np.concatenate([g.ravel() for layer in grads for g in layer])
            theta += lr * velocity
            step += 1
            if not np.isfinite(theta).all():
                raise RuntimeError(
                    f"parameters became non-finite at epoch {epoch} step "
                    f"{step - 1}; lower lr0 or check the data"
                )

        try:
            train_acc, obj = _evaluate(spec, params, objective_config, dataset)
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
            test_acc, _ = _evaluate(spec, params, objective_config, eval_dataset)
            test_accs.append(test_acc)
        if (
            train_config.snapshot_every > 0
            and (epoch + 1) % train_config.snapshot_every == 0
        ):
            snapshots.append((epoch + 1, _freeze_params(params)))

    trace = TrainTrace(
        objective=tuple(objectives),
        train_accuracy=tuple(train_accs),
        test_accuracy=tuple(test_accs) if eval_dataset is not None else None,
        snapshots=tuple(snapshots),
    )
    return NetworkModel(spec, tuple(params)), trace


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
    return _evaluate(model.spec, model.params, cfg, dataset)


def _evaluate(spec: MlpSpec, params, cfg: ObjectiveConfig, dataset: LabeledDataset):
    """evaluate() on bare parameters whose shapes the caller has checked."""
    _, _, v = _forward_parts(spec, params, dataset.features)
    out = _head_output(spec, v)
    obj = _batch_objective(cfg, out, dataset.labels, _train_rates(cfg, spec.k))
    if cfg.head == "simplex":
        post = PosteriorMatrix(out, normalized=False)
    else:
        post = PosteriorMatrix(
            get_divergence(cfg.divergence).conj_prime(out), normalized=False
        )
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
