"""Tests for the network, analytic backprop, and the training loop."""

import json
import math
import sys
from decimal import Decimal, localcontext
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import postmax
from postmax.divergence import (
    DIVERGENCE_IDS,
    get_divergence,
    optimal_T_from_posterior,
)
from postmax.model import (
    MlpSpec,
    NetworkModel,
    TrainConfig,
    _backprop_program,
    _cosine_lr,
    _evaluate_modes,
    _folded_layers,
    _forward_program,
    _head_grad_program,
    _head_rows,
    _layer_blocks,
    _seed_groups,
    _softmax_program,
    _train_members,
    evaluate,
    forward,
    init,
    load_model,
    objective_and_gradients,
    save_model,
    train,
)
from postmax.noise import LabeledDataset, NoiseParams, corrupt
from postmax.objective import (
    ObjectiveConfig,
    _column_width,
    _onehot,
    _rate_terms,
    _raw_logit_grad,
    _raw_rows,
    _rows,
    _run,
    corrected_grad_batch,
    corrected_jf_batch,
    jf_batch,
    jf_grad_batch,
    jf_simplex_logit_grad_batch,
)


def gaussian_blobs(rng, n_per_class, means, scale=1.0):
    """Balanced isotropic blobs; features and labels in one dataset."""
    means = np.asarray(means, dtype=float)
    k, d = means.shape
    X = np.vstack(
        [rng.normal(means[c], scale, size=(n_per_class, d)) for c in range(k)]
    )
    y = np.repeat(np.arange(k), n_per_class)
    return LabeledDataset(X, y, k=k, provenance="clean")


def forward_parts(spec, params, X):
    """The scorer's unfolded forward pass into new arrays: all layer
    inputs, plus the final linear outputs."""
    hs = [X] + [np.empty((X.shape[0], w)) for w in spec.layer_sizes[1:-1]]
    v = np.empty((X.shape[0], spec.k))
    _run(_forward_program(spec.activation, params, hs, v))
    return hs, v


def softmax(v):
    """_softmax_program run into new arrays."""
    col = np.empty(v.shape[:-1] + (_column_width(v.shape[-1]),))
    out = np.empty(v.shape)
    _run(_softmax_program(v, out, col))
    return out


def head_spec(layer_sizes, head, div_id, activation="relu"):
    """An MlpSpec with the named head; the raw head links through div_id."""
    return MlpSpec(
        layer_sizes,
        activation=activation,
        head=head,
        divergence=div_id if head == "raw_t" else None,
    )


class TestMlpSpec:
    def test_valid_specs(self):
        MlpSpec((4, 8, 3))
        MlpSpec((4, 3), activation="tanh")
        MlpSpec((4, 3), head="raw_t", divergence="gan")

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))
        with pytest.raises(ValueError):
            MlpSpec((4, 0, 3))
        with pytest.raises(ValueError):
            MlpSpec((4, 1))

    def test_rejects_bad_enums(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 3), activation="gelu")
        with pytest.raises(ValueError):
            MlpSpec((4, 3), head="probit")

    def test_raw_head_needs_divergence(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 3), head="raw_t")
        with pytest.raises(ValueError):
            MlpSpec((4, 3), head="raw_t", divergence="js")

    def test_simplex_head_takes_none(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 3), head="simplex", divergence="kl")


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(epochs=10, batch_size=32)
        assert cfg.lr0 == 0.02
        assert cfg.momentum == 0.9

    def test_zero_epochs_allowed(self):
        TrainConfig(epochs=0, batch_size=8)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1, batch_size=8)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=8, lr0=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=8, momentum=1.0)


class TestInit:
    def test_deterministic_per_seed(self):
        spec = MlpSpec((4, 8, 3))
        a = init(spec, seed=5)
        b = init(spec, seed=5)
        for (Wa, ba), (Wb, bb) in zip(a.params, b.params):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_seed_changes_weights(self):
        spec = MlpSpec((4, 8, 3))
        a = init(spec, seed=5)
        b = init(spec, seed=6)
        assert not np.array_equal(a.params[0][0], b.params[0][0])

    def test_fan_in_bound_and_zero_biases(self):
        spec = MlpSpec((9, 16, 2))
        model = init(spec, seed=1)
        for fan_in, (W, b) in zip((9, 16), model.params):
            assert np.max(np.abs(W)) <= math.sqrt(6.0 / fan_in)
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_no_hidden_layer_is_linear(self):
        model = init(MlpSpec((3, 2)), seed=0)
        assert len(model.params) == 1
        X = np.array([[1.0, 2.0, 3.0]])
        W, b = model.params[0]
        v = X @ W + b
        D = np.exp(v) / np.exp(v).sum()
        np.testing.assert_allclose(forward(model, X), D, rtol=1e-12)

    def test_params_read_only(self):
        model = init(MlpSpec((3, 2)), seed=0)
        with pytest.raises(ValueError):
            model.params[0][0][0, 0] = 1.0


class TestForward:
    def test_simplex_rows(self):
        model = init(MlpSpec((4, 8, 3)), seed=2)
        X = np.random.default_rng(0).normal(size=(50, 4))
        D = forward(model, X)
        np.testing.assert_allclose(D.sum(axis=1), np.ones(50), atol=1e-9)
        assert np.all(D > 0.0)

    def test_raw_heads_respect_domains(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4)) * 3.0
        kl = forward(init(MlpSpec((4, 3), head="raw_t", divergence="kl"), 2), X)
        assert np.all(np.isfinite(kl))
        gan = forward(init(MlpSpec((4, 3), head="raw_t", divergence="gan"), 2), X)
        assert np.all(gan < 0.0)
        sl = forward(init(MlpSpec((4, 3), head="raw_t", divergence="sl"), 2), X)
        assert np.all(sl > -1.0) and np.all(sl < 0.0)

    def test_dimension_mismatch(self):
        model = init(MlpSpec((4, 3)), seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((5, 3)))


class TestBackprop:
    def finite_difference(self, model, X, y, cfg, h=1e-6):
        base = [(W.copy(), b.copy()) for W, b in model.params]
        fd = []
        for li in range(len(base)):
            pair = []
            for pi in range(2):
                arr = base[li][pi]
                g = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    for sign in (+1, -1):
                        pert = [(W.copy(), b.copy()) for W, b in base]
                        pert[li][pi][idx] += sign * h
                        m = NetworkModel(model.spec, tuple(pert))
                        val, _ = objective_and_gradients(m, X, y, cfg)
                        g[idx] += sign * val
                    g[idx] /= 2 * h
                pair.append(g)
            fd.append(tuple(pair))
        return fd

    def test_all_divergence_head_pairs(self):
        # tanh keeps the map smooth, which finite differences require
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, size=8)
        noise = NoiseParams.uniform_offdiag([0.1, 0.3])
        for div_id in DIVERGENCE_IDS:
            for head in ("simplex", "raw_t"):
                spec = head_spec((2, 3, 2), head, div_id, activation="tanh")
                for correction in ("none", "objective"):
                    cfg = ObjectiveConfig(
                        div_id,
                        correction=correction,
                        noise=noise if correction != "none" else None,
                    )
                    model = init(spec, seed=7)
                    _, grads = objective_and_gradients(model, X, y, cfg)
                    fd = self.finite_difference(model, X, y, cfg)
                    for (gW, gb), (fW, fb) in zip(grads, fd):
                        np.testing.assert_allclose(gW, fW, rtol=1e-5, atol=1e-8)
                        np.testing.assert_allclose(gb, fb, rtol=1e-5, atol=1e-8)

    def test_relu_forward_backward_consistency(self):
        # relu gradients checked at points safely away from the kink
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 3)) + 0.25
        y = rng.integers(0, 2, size=6)
        model = init(MlpSpec((3, 4, 2)), seed=11)
        cfg = ObjectiveConfig("kl")
        _, grads = objective_and_gradients(model, X, y, cfg)
        fd = self.finite_difference(model, X, y, cfg, h=1e-7)
        for (gW, gb), (fW, fb) in zip(grads, fd):
            np.testing.assert_allclose(gW, fW, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gb, fb, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("correction", ["none", "objective"])
    def test_raw_head_matches_id_route(self, div_id, correction):
        # objective_and_gradients runs the v-space kernels, bit for bit
        # against separate bias adds and db sums, and agrees with the
        # checked T-space functions, called with the id and composed with
        # the link
        rng = np.random.default_rng(17)
        X = rng.normal(size=(9, 3))
        y = rng.integers(0, 4, size=9)
        noise = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15, 0.02])
        cfg = ObjectiveConfig(div_id, correction, noise if correction != "none" else None)
        model = init(MlpSpec((3, 5, 4), head="raw_t", divergence=div_id), seed=4)
        value, grads = objective_and_gradients(model, X, y, cfg)
        hs, zs, v = reference_forward("relu", model.params, X)
        spec = get_divergence(div_id)

        def backprop(g_v):
            return reference_backprop("relu", model.params, hs, zs, g_v)

        e = None if correction == "none" else noise.flip_rates(4)
        g_v = _raw_logit_grad(spec, v, _onehot(y, 4), _rate_terms(e)) / X.shape[0]
        assert value == _raw_rows(spec, v, y, e).mean()
        for got, ref in zip(grads, backprop(g_v)):
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

        out = forward(model, X)
        if e is None:
            want = jf_batch(div_id, out, y)
            g = jf_grad_batch(div_id, out, y)
        else:
            want = corrected_jf_batch(div_id, out, y, e)
            g = corrected_grad_batch(div_id, out, y, e)
        g_v = g * spec.raw_slopes(v)[0] / X.shape[0]
        assert value == pytest.approx(want, rel=1e-13)
        for got, ref in zip(grads, backprop(g_v)):
            np.testing.assert_allclose(got[0], ref[0], rtol=1e-13)
            np.testing.assert_allclose(got[1], ref[1], rtol=1e-13)

    def test_raw_head_model_takes_a_config_without_a_head(self):
        # the head is named once, on the MlpSpec
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20), 2)
        model = init(MlpSpec((3, 4, 2), head="raw_t", divergence="gan"), seed=0)
        cfg = ObjectiveConfig("gan", "objective", NoiseParams.symmetric(0.2))
        model, trace = train(model, ds, cfg, TrainConfig(epochs=2, batch_size=8))
        assert len(trace.objective) == 2
        acc, obj = evaluate(model, ds, cfg)
        value, _ = objective_and_gradients(model, ds.features, ds.labels, cfg)
        assert 0.0 <= acc <= 1.0 and value == obj

    def test_link_divergence_mismatch_rejected(self):
        model = init(MlpSpec((3, 2), head="raw_t", divergence="gan"), seed=0)
        with pytest.raises(ValueError):
            objective_and_gradients(model, np.zeros((2, 3)), [0, 1], ObjectiveConfig("kl"))


# The head formulas of the step as it was with numpy's max and sum
# reductions, each divergence's forms written from its closed form.
SIMPLEX_SCORE = {
    "kl": lambda D, y: y,
    "gan": lambda D, y: (y - D) / (1.0 + D),
    "sl": lambda D, y: D * (y - D) / (1.0 + D) ** 2,
}
SIMPLEX_DRIFT = {
    "kl": lambda D, drift: drift,
    "gan": lambda D, drift: drift / (1.0 + D),
    "sl": lambda D, drift: D * drift / (1.0 + D) ** 2,
}


def reference_softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def reference_sigmoid(x):
    t = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + t)
    return np.where(x >= 0.0, r, t * r)


def reference_raw_forms(div_id, v):
    """link'(v) and the raw score of each divergence, on exp(-|v|)."""
    if div_id == "kl":
        return np.ones_like(v), np.exp(v - 1.0)
    if div_id == "gan":
        return reference_sigmoid(-v), reference_sigmoid(v)
    s = reference_softplus(v)
    return (
        reference_sigmoid(v) / (1.0 + s) ** 2,
        s * reference_sigmoid(v) / (1.0 + s) ** 2,
    )


def reference_softmax(v):
    z = np.exp(v - v.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def reference_simplex_grad(div_id, D, y, e):
    s = SIMPLEX_SCORE[div_id](D, y)
    if e is not None:
        drift = e[..., None, :] - e.sum(axis=-1)[..., None, None] * D
        s = s - SIMPLEX_DRIFT[div_id](D, drift)
    return s - D * s.sum(axis=-1, keepdims=True)


def reference_raw_grad(div_id, v, y, e):
    link_prime, score = reference_raw_forms(div_id, v)
    if e is not None:
        y = y - e[..., None, :]
        score = score * (1.0 - e.sum(axis=-1))[..., None, None]
    return y * link_prime - score


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestStepHead:
    """The lockstep step's head, run as the step runs it, into views of
    (M, B, K) and (M, B, 1) workspaces, for a full and a ragged batch;
    with_rates "step" builds the rate terms at the step's (M, B, K) shape
    and reads their first rows for the ragged batch, as the step does."""

    M, B = 3, 32

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("k", [2, 3, 7, 8, 10])
    @pytest.mark.parametrize("with_rates", [False, True, "step"])
    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    def test_equals_reference_formula(self, div_id, k, with_rates, head):
        rng = np.random.default_rng(191 + k)
        e_rows = None
        if with_rates:
            # a member without rates has a zero row, as in the step
            e_rows = rng.uniform(0.01, 0.9 / k, size=(self.M, k))
            e_rows[0] = 0.0
        rates = _rate_terms(e_rows)
        if with_rates == "step":
            step_rates = _rate_terms(e_rows, self.B)
            assert all(t.shape == (self.M, self.B, k) for t in step_rates)
        spec = get_divergence(div_id)
        workspaces = [np.empty((self.M, self.B, k)) for _ in range(5)]
        workspaces.append(np.empty((self.M, self.B, _column_width(k))))
        for nb in (self.B, 7):
            if with_rates == "step":
                rates = tuple(t[:, :nb, :] for t in step_rates)
            v, D, y, g, tmp, col = (a[:, :nb, :] for a in workspaces)
            v[...] = rng.normal(scale=4.0, size=v.shape)
            y[...] = _onehot(rng.integers(0, k, size=(self.M, nb)), k)
            if head == "simplex":
                _run(_softmax_program(v, D, col))
                want_D = reference_softmax(v)
                assert same_bits(D, want_D)
                want = reference_simplex_grad(div_id, want_D, y, e_rows)
            else:
                D = None
                want = reference_raw_grad(div_id, v, y, e_rows)
            for op in _head_grad_program(spec, v, D, y, rates, g, (tmp, col)):
                op()
            assert same_bits(g, want)


def reference_forward(activation, layers, X):
    """Forward pass with a separate pre-activation array per hidden layer:
    layer inputs hs, pre-activations zs and final outputs v."""
    hs, zs = [X], []
    for W, b in layers[:-1]:
        z = np.matmul(hs[-1], W)
        z += b
        zs.append(z)
        hs.append(np.maximum(z, 0.0) if activation == "relu" else np.tanh(z))
    W, b = layers[-1]
    v = np.matmul(hs[-1], W)
    v += b
    return hs, zs, v


def reference_backprop(activation, layers, hs, zs, g_v):
    """Backprop from reference_forward's arrays, relu's derivative a float
    mask of z > 0."""
    grads = [None] * len(layers)
    g = g_v
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (
            np.matmul(hs[i].swapaxes(-1, -2), g), np.add.reduce(g, axis=-2)
        )
        if i > 0:
            g = np.matmul(g, layers[i][0].swapaxes(-1, -2))
            if activation == "relu":
                d = (zs[i - 1] > 0.0).astype(float)
            else:
                d = 1.0 - hs[i] * hs[i]
            g *= d
    return grads


class TestInPlaceActivations:
    """The scorer's forward pass, with each activation applied in place,
    keeps the bits of separate pre-activations; TestOnesColumnStep checks
    the step's backprop, relu's derivative read off the activation as a
    bool mask, against a float mask of the pre-activations."""

    M, B = 3, 16

    @staticmethod
    def signed_zero_layers(rng, sizes, lead):
        """Layers whose first pre-activations are +0.0 and -0.0 on rows
        of tiny features: their products underflow to zeros of the sum's
        sign, and a -0.0 bias keeps a -0.0."""
        layers = []
        for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
            W = rng.normal(size=lead + (a, b))
            bias = rng.normal(scale=0.5, size=lead + (1, b))
            if i == 0:
                W *= 1e-30
                bias[..., :2] = -0.0
                bias[..., 2] = 0.0
            layers.append((W, bias))
        return layers

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 4)])
    def test_step_keeps_the_bits_of_separate_pre_activations(
        self, activation, hidden
    ):
        rng = np.random.default_rng(83 + len(hidden))
        sizes = (5, *hidden, 3)
        M, B = self.M, self.B
        layers = self.signed_zero_layers(rng, sizes, (M,))
        hs_ws = [np.empty((M, B, w)) for w in sizes[:-1]]
        v_ws = np.empty((M, B, sizes[-1]))
        for nb in (B, 7):
            hs = [a[:, :nb, :] for a in hs_ws]
            v = v_ws[:, :nb, :]
            hs[0][...] = rng.normal(scale=2.0, size=hs[0].shape)
            hs[0][:, :3, :] *= 1e-300  # first pre-activations round to +-0.0
            ref_hs, ref_zs, ref_v = reference_forward(activation, layers, hs[0])
            if hidden:
                z0 = ref_zs[0][:, :3, :2]
                assert (z0 == 0.0).all()
                assert np.signbit(z0).any() and not np.signbit(z0).all()

            _run(_forward_program(activation, layers, hs, v))
            assert same_bits(v, ref_v)
            for h, ref in zip(hs, ref_hs):
                assert same_bits(h, ref)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 4)])
    def test_unbatched_passes_keep_their_bits(self, activation, hidden):
        rng = np.random.default_rng(89 + len(hidden))
        sizes = (5, *hidden, 3)
        layers = [
            (W, b[0]) for W, b in self.signed_zero_layers(rng, sizes, ())
        ]
        spec = MlpSpec(sizes, activation=activation)
        X = rng.normal(scale=2.0, size=(11, 5))
        X[:3] *= 1e-300
        ref_hs, ref_zs, ref_v = reference_forward(activation, layers, X)
        if hidden:
            z0 = ref_zs[0][:3, :2]
            assert (z0 == 0.0).all()
            assert np.signbit(z0).any() and not np.signbit(z0).all()
        hs, v = forward_parts(spec, layers, X)
        assert same_bits(v, ref_v)
        for h, ref in zip(hs, ref_hs):
            assert same_bits(h, ref)


class TestOnesColumnStep:
    """The step's kernels over layer inputs that end in a column of ones,
    with each layer's [W; b] block as its weights, keep the bits of
    separate bias adds and db reductions, and relu's bool mask those of a
    float mask, at the desk and wide shapes, a small two-hidden-layer
    shape and their ragged batches, and leave every ones column at 1:
    after the forward pass, and after backprop has written the input
    gradients over the activations, so the ragged pass runs on the
    buffers the full one overwrote."""

    M = 3

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize(
        "sizes, B, ragged",
        [
            ((10, 16, 2), 32, 8),
            ((100, 256, 10), 256, 160),
            ((100, 256, 16, 10), 256, 160),
            ((100, 10), 256, 160),
            ((5, 6, 4, 3), 16, 7),
        ],
    )
    def test_folded_step_keeps_the_bits_of_bias_adds(
        self, activation, sizes, B, ragged
    ):
        rng = np.random.default_rng(97 + len(sizes))
        M = self.M
        layers = TestInPlaceActivations.signed_zero_layers(rng, sizes, (M,))
        shapes = [(W[0], b[0, 0]) for W, b in layers]
        theta = np.concatenate(
            [a.reshape(M, -1) for layer in layers for a in layer], axis=1
        )
        folded, weights_T = _folded_layers(_layer_blocks(theta, shapes))
        grads = _layer_blocks(np.empty_like(theta), shapes)
        mask_type = bool if activation == "relu" else float
        hs_ws = [np.ones((M, B, w + 1)) for w in sizes[:-1]]
        masks_ws = [np.empty((M, B, w + 1), mask_type) for w in sizes[1:-1]]
        v_ws = np.empty((M, B, sizes[-1]))
        for nb in (B, ragged):
            hs, masks = ([a[:, :nb, :] for a in ws] for ws in (hs_ws, masks_ws))
            v = v_ws[:, :nb, :]
            x = hs[0][..., : sizes[0]]
            x[...] = rng.normal(scale=2.0, size=x.shape)
            x[:, :3, :] *= 1e-300  # first pre-activations round to zeros
            g_v = rng.normal(size=v.shape)
            ref_hs, ref_zs, ref_v = reference_forward(
                activation, layers, np.ascontiguousarray(x)
            )
            if len(sizes) > 2:
                z0 = ref_zs[0][:, :3, :2]
                assert (z0 == 0.0).all()
                # BLAS sums 100 inputs' tiny products to +0.0, so only the
                # narrower shapes' zeros keep the sign of their -0.0 bias
                if sizes[0] < 100:
                    assert np.signbit(z0).any() and not np.signbit(z0).all()
            ref_grads = reference_backprop(activation, layers, ref_hs, ref_zs, g_v)

            _run(_forward_program(activation, folded, hs, v))
            assert same_bits(v, ref_v)
            for h, ref in zip(hs, ref_hs):
                assert same_bits(h[..., :-1], ref) and (h[..., -1] == 1.0).all()
            _run(_backprop_program(activation, weights_T, hs, g_v, grads, masks))
            for g, (rW, rb) in zip(grads, ref_grads):
                assert same_bits(g[:, :-1, :], rW) and same_bits(g[:, -1, :], rb)
            for h in hs_ws:
                assert (h[..., -1] == 1.0).all()


class TestCosineSchedule:
    def test_endpoints(self):
        assert _cosine_lr(0.02, 0, 200) == pytest.approx(0.02)
        assert _cosine_lr(0.02, 199, 200) == pytest.approx(0.0, abs=1e-12)
        assert _cosine_lr(0.02, 199, 200) <= 1e-3 * 0.02

    def test_monotone_decay(self):
        lrs = [_cosine_lr(1.0, s, 50) for s in range(50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_single_step(self):
        assert _cosine_lr(0.5, 0, 1) == 0.5


class TestTrain:
    def test_zero_epochs_unchanged(self):
        rng = np.random.default_rng(13)
        ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 2)), seed=3)
        trained, trace = train(
            model, ds, ObjectiveConfig("kl"), TrainConfig(epochs=0, batch_size=8)
        )
        for (Wa, ba), (Wb, bb) in zip(model.params, trained.params):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)
        assert trace.objective == ()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(17)
        ds = gaussian_blobs(rng, 30, [[-1.0, 0.0], [1.0, 0.0]])
        cfg = TrainConfig(epochs=5, batch_size=16, seed=9)
        runs = []
        for _ in range(2):
            model = init(MlpSpec((2, 4, 2)), seed=3)
            trained, trace = train(model, ds, ObjectiveConfig("kl"), cfg)
            runs.append((trained, trace))
        assert runs[0][1].objective == runs[1][1].objective
        assert runs[0][1].train_accuracy == runs[1][1].train_accuracy
        for (Wa, _), (Wb, _) in zip(runs[0][0].params, runs[1][0].params):
            np.testing.assert_array_equal(Wa, Wb)

    def test_separable_blobs_reach_high_accuracy(self):
        # golden expectation for an easy clean problem
        rng = np.random.default_rng(19)
        ds = gaussian_blobs(rng, 100, [[-2.0, 0.0], [2.0, 0.0]])
        model = init(MlpSpec((2, 8, 2)), seed=0)
        trained, trace = train(
            model,
            ds,
            ObjectiveConfig("kl"),
            TrainConfig(epochs=100, batch_size=32, seed=0),
        )
        assert trace.train_accuracy[-1] >= 0.99

    def test_eval_dataset_tracked(self):
        rng = np.random.default_rng(23)
        ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]])
        held = gaussian_blobs(rng, 10, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 2)), seed=3)
        _, trace = train(
            model,
            ds,
            ObjectiveConfig("kl"),
            TrainConfig(epochs=4, batch_size=8),
            eval_dataset=held,
        )
        assert len(trace.test_accuracy) == 4
        assert len(trace.objective) == 4

    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    @pytest.mark.parametrize("mode", ["none", "objective", "posterior"])
    def test_trace_ends_where_evaluate_scores(self, head, mode):
        # train()'s per-epoch record and evaluate() are one scorer, so the
        # last epoch's entries are the trained model's scores bit for bit
        rng = np.random.default_rng(29)
        means = rng.normal(scale=2.0, size=(3, 2))
        ds, held = gaussian_blobs(rng, 20, means), gaussian_blobs(rng, 10, means)
        noise = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15])
        cfg = ObjectiveConfig("sl", mode, None if mode == "none" else noise)
        model = init(head_spec((2, 4, 3), head, "sl"), seed=3)
        trained, trace = train(
            model, ds, cfg, TrainConfig(epochs=3, batch_size=8), eval_dataset=held
        )
        scores = [trace.train_accuracy[-1], trace.objective[-1]]
        assert same_bits(scores, evaluate(trained, ds, cfg))
        assert same_bits(trace.test_accuracy[-1], evaluate(trained, held, cfg)[0])

    def test_divergence_aborts_with_diagnostic(self):
        # The simplex head trains through an unchecked kernel, so its
        # non-finite softmax rows must still stop training at the step
        # where they appear.  The (epoch, step) pairs are where these
        # seeds abort when every step re-validates its inputs.
        cases = [
            (MlpSpec((2, 4, 2), head="raw_t", divergence="kl"), ObjectiveConfig("kl"), 0, 2),
            (MlpSpec((2, 4, 2)), ObjectiveConfig("kl"), 4, 22),
        ]
        for spec, cfg, epoch, step in cases:
            rng = np.random.default_rng(31)
            ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]], scale=5.0)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(
                    RuntimeError, match=rf"at epoch {epoch} step {step}\b"
                ):
                    train(
                        init(spec, seed=3),
                        ds,
                        cfg,
                        TrainConfig(epochs=5, batch_size=8, lr0=1e9),
                    )

    @pytest.mark.parametrize("div_id", ["gan", "sl"])
    @pytest.mark.parametrize("correction", ["none", "objective"])
    def test_raw_head_trains_at_large_outputs(self, div_id, correction):
        # at |v| = 800 the gan and sl links round onto their domain's
        # boundary (gan's to -0.0 at +800, sl's to -1.0 at -800); the
        # closed v-forms still give finite values and gradients there
        rng = np.random.default_rng(61)
        ds = gaussian_blobs(rng, 10, [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        spec = MlpSpec((2, 4, 3), head="raw_t", divergence=div_id)
        (W0, b0), (W1, _) = init(spec, seed=5).params
        b1 = np.array([800.0, -800.0, 0.0])
        model = NetworkModel(spec, ((W0, b0), (W1, b1)))
        noise = NoiseParams.symmetric(0.2)
        cfg = ObjectiveConfig(div_id, correction, noise if correction != "none" else None)
        v = forward_parts(spec, model.params, ds.features)[1]
        assert np.abs(v).max() >= 800.0
        trained, trace = train(
            model, ds, cfg, TrainConfig(epochs=2, batch_size=8, lr0=1e-3)
        )
        assert all(math.isfinite(obj) for obj in trace.objective)
        v = forward_parts(spec, trained.params, ds.features)[1]
        assert np.abs(v).max() >= 790.0

    def test_shape_mismatches_rejected(self):
        rng = np.random.default_rng(37)
        ds = gaussian_blobs(rng, 10, [[-1.0, 0.0], [1.0, 0.0]])
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            train(init(MlpSpec((3, 2)), 0), ds, ObjectiveConfig("kl"), cfg)
        with pytest.raises(ValueError):
            train(init(MlpSpec((2, 3)), 0), ds, ObjectiveConfig("kl"), cfg)

    def test_corrected_objective_trains(self):
        rng = np.random.default_rng(41)
        ds = gaussian_blobs(rng, 25, [[-1.5, 0.0], [1.5, 0.0]])
        noise = NoiseParams.uniform_offdiag([0.1, 0.2])
        model = init(MlpSpec((2, 4, 2)), seed=3)
        _, trace = train(
            model,
            ds,
            ObjectiveConfig("kl", correction="objective", noise=noise),
            TrainConfig(epochs=10, batch_size=16),
        )
        assert all(math.isfinite(v) for v in trace.objective)


def same_params(model_a, model_b):
    """Two models' parameters agree bit for bit."""
    return all(
        np.array_equal(x, y)
        for la, lb in zip(model_a.params, model_b.params)
        for x, y in zip(la, lb)
    )


def assert_same_training(a, b):
    """Two (model, trace) results agree bit for bit."""
    (model_a, trace_a), (model_b, trace_b) = a, b
    assert same_params(model_a, model_b)
    assert trace_a.objective == trace_b.objective
    assert trace_a.train_accuracy == trace_b.train_accuracy
    assert trace_a.test_accuracy == trace_b.test_accuracy


class TestTrainMembers:
    NOISE = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15])
    MEANS = [[-1.0, 0.0], [1.0, 0.5], [0.0, -1.0]]

    def members(self, div_id, model, tc, rates=True):
        """Clean and noisy members of one seed, plus noisy-corrected and
        posterior ones when rates; 60 rows in batches of 16 leave a ragged
        last batch of 12."""
        rng = np.random.default_rng(53)
        ds = gaussian_blobs(rng, 20, self.MEANS)
        noisy = corrupt(ds, NoiseParams.symmetric(0.3).to_matrix(3), seed=tc.seed)
        pairs = [(ds, ObjectiveConfig(div_id)), (noisy, ObjectiveConfig(div_id))]
        if rates:
            pairs += [
                (noisy, ObjectiveConfig(div_id, "objective", self.NOISE)),
                (noisy, ObjectiveConfig(div_id, "posterior", self.NOISE)),
            ]
        return [(model, ds, cfg, tc) for ds, cfg in pairs]

    def assert_each_equals_its_solo_training(self, members):
        """Every member's parameters after each epoch, and its trained
        model with or without a consumer, equal those of its own training."""

        def train_with_snapshots(members):
            snapshots = [[] for _ in members]

            def on_epoch(epoch, member_params):
                for seen, params in zip(snapshots, member_params):
                    seen.append(NetworkModel(members[0][0].spec, params))

            return _train_members(members, on_epoch=on_epoch), snapshots

        lockstep, snapshots = train_with_snapshots(members)
        assert len(lockstep) == len(members)
        unobserved = _train_members(members)
        assert all(same_params(a, b) for a, b in zip(lockstep, unobserved))
        for member, trained, seen in zip(members, lockstep, snapshots):
            [solo], [solo_seen] = train_with_snapshots([member])
            assert len(seen) == len(solo_seen) == member[3].epochs
            assert all(same_params(a, b) for a, b in zip(seen, solo_seen))
            assert same_params(trained, solo)
            assert same_params(trained, train(*member)[0])

    @pytest.mark.parametrize(
        "head, div_id, layer_sizes, activation",
        [
            ("simplex", "kl", (2, 6, 3), "relu"),
            ("simplex", "gan", (2, 6, 3), "relu"),
            ("simplex", "sl", (2, 6, 3), "relu"),
            ("simplex", "kl", (2, 5, 4, 3), "tanh"),
            ("simplex", "gan", (2, 3), "relu"),
            ("raw_t", "gan", (2, 6, 3), "relu"),
            ("raw_t", "gan", (2, 5, 4, 3), "tanh"),
        ],
    )
    def test_each_member_equals_its_solo_training(
        self, head, div_id, layer_sizes, activation
    ):
        spec = head_spec(layer_sizes, head, div_id, activation)
        tc = TrainConfig(epochs=4, batch_size=16, seed=8)
        members = self.members(div_id, init(spec, seed=6), tc)
        self.assert_each_equals_its_solo_training(members)

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize(
        "head, div_id", [("simplex", "kl"), ("raw_t", "gan")]
    )
    def test_members_of_several_seeds_equal_their_solo_trainings(
        self, head, div_id, rates
    ):
        # every seed has its own initial network, noisy labels and batch
        # order, as in one sweep over seeds
        spec = head_spec((2, 6, 3), head, div_id)
        members = []
        for seed in (8, 3, 11):
            tc = TrainConfig(epochs=3, batch_size=16, seed=seed)
            members += self.members(div_id, init(spec, seed=seed), tc, rates=rates)
        self.assert_each_equals_its_solo_training(members)

    @pytest.mark.parametrize(
        "seeds, groups",
        [([0, 0, 0, 1, 1, 1], (2, 3)), ([8, 3, 8, 3], (4, 1)), ([0, 0, 1], (3, 1)),
         ([5], (1, 1))],
    )
    def test_seed_groups(self, seeds, groups):
        assert _seed_groups(seeds) == groups

    @pytest.mark.parametrize(
        "seeds", [(8, 3, 8, 3), (8, 8, 3)], ids=["interleaved", "unequal-runs"]
    )
    @pytest.mark.parametrize("head, div_id", [("simplex", "kl"), ("raw_t", "gan")])
    def test_members_in_groups_of_one_equal_their_solo_trainings(
        self, head, div_id, seeds
    ):
        # the seeds come in no equal runs, so each member is its own group;
        # every member has its own initial network and correction mode
        spec = head_spec((2, 6, 3), head, div_id)
        members = []
        for i, seed in enumerate(seeds):
            tc = TrainConfig(epochs=3, batch_size=16, seed=seed)
            members.append(self.members(div_id, init(spec, seed=i), tc)[i])
        assert _seed_groups(seeds) == (len(seeds), 1)
        self.assert_each_equals_its_solo_training(members)

    def test_members_must_share_features_and_divergence(self):
        model = init(MlpSpec((2, 4, 3)), seed=0)
        tc = TrainConfig(epochs=1, batch_size=16)
        members = self.members("kl", model, tc)
        ds = members[0][1]
        moved = LabeledDataset(ds.features + 1.0, ds.labels, k=3)
        wider = init(MlpSpec((2, 5, 3)), seed=0)
        longer = replace(tc, epochs=2)
        cases = [
            ("share the training features", (model, moved, ObjectiveConfig("kl"), tc)),
            ("share the divergence", (model, ds, ObjectiveConfig("gan"), tc)),
            ("share the architecture", (wider, ds, ObjectiveConfig("kl"), tc)),
            ("share the training schedule", (model, ds, ObjectiveConfig("kl"), longer)),
        ]
        for message, extra in cases:
            with pytest.raises(ValueError, match=message):
                _train_members(members + [extra])
        # the seed alone may differ
        reseeded = replace(tc, seed=5)
        _train_members(members + [(model, ds, ObjectiveConfig("kl"), reseeded)])

    def test_without_consumer_aborts_as_train_does(self):
        # the cases of TestTrain.test_divergence_aborts_with_diagnostic
        cases = [
            (MlpSpec((2, 4, 2), head="raw_t", divergence="kl"), ObjectiveConfig("kl")),
            (MlpSpec((2, 4, 2)), ObjectiveConfig("kl")),
        ]
        for spec, cfg in cases:
            rng = np.random.default_rng(31)
            ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]], scale=5.0)
            member = (init(spec, seed=3), ds, cfg,
                      TrainConfig(epochs=5, batch_size=8, lr0=1e9))
            errors = []
            with np.errstate(over="ignore", invalid="ignore"):
                for run in (lambda: train(*member), lambda: _train_members([member])):
                    with pytest.raises(RuntimeError, match="step") as err:
                        run()
                    errors.append(str(err.value))
            assert errors[0] == errors[1]

    def test_without_consumer_checks_the_final_objective(self, monkeypatch):
        import postmax.model as model_mod

        rng = np.random.default_rng(31)
        ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]])
        member = (init(MlpSpec((2, 4, 2)), seed=3), ds, ObjectiveConfig("kl"),
                  TrainConfig(epochs=3, batch_size=8))
        monkeypatch.setattr(model_mod, "_score", lambda *a, **kw: ([1.0], math.nan))
        with pytest.raises(RuntimeError, match=r"non-finite after epoch 0: nan"):
            train(*member)
        # no per-epoch pass: the check runs once, after the final epoch
        with pytest.raises(RuntimeError, match=r"non-finite after epoch 2: nan"):
            _train_members([member])

    def test_guard_runs_once_per_epoch_and_a_replay_names_the_step(self):
        # Only the member whose initial weights are scaled by 1e148
        # diverges, at step 13, the fourth of epoch 2's five; a guard after
        # every step reports the same pair.
        rng = np.random.default_rng(31)
        ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]], scale=5.0)
        spec = MlpSpec((2, 4, 2))
        model = init(spec, seed=3)
        big = NetworkModel(spec, tuple((W * 1e148, b) for W, b in model.params))
        tc = TrainConfig(epochs=6, batch_size=8, lr0=3.0, seed=0)
        cfg = ObjectiveConfig("kl")
        _train_members([(model, ds, cfg, tc)] * 2)  # the others stay finite
        members = [(model, ds, cfg, tc), (big, ds, cfg, tc), (model, ds, cfg, tc)]
        reductions, epochs = [0], []

        def profile(frame, event, arg):
            if (
                event == "c_call"
                and getattr(arg, "__self__", None) is np.logical_and
                and arg.__name__ == "reduce"
            ):
                reductions[0] += 1

        sys.setprofile(profile)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(
                    RuntimeError, match=r"^parameters became non-finite at epoch 2 step 13;"
                ):
                    _train_members(
                        members, on_epoch=lambda epoch, _: epochs.append(
                            (epoch, reductions[0])
                        ),
                    )
        finally:
            sys.setprofile(None)
        # one guard per epoch, and no on_epoch call for the failing epoch
        assert epochs == [(0, 1), (1, 2)]
        # the three epochs' guards, then the replay's, one per step to 13
        assert reductions[0] == 3 + 14

    def test_a_diverging_objective_member_names_the_correction(self):
        # The member scaled by 1e148 diverges, at step 14 with the
        # objective correction and at 13 without; when it trains with the
        # correction, the message names the correction, and when only a
        # finite member does, it keeps the text that blames lr0.
        rng = np.random.default_rng(31)
        ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.0]], scale=5.0)
        spec = MlpSpec((2, 4, 2))
        model = init(spec, seed=3)
        big = NetworkModel(spec, tuple((W * 1e148, b) for W, b in model.params))
        tc = TrainConfig(epochs=6, batch_size=8, lr0=3.0, seed=0)
        plain = ObjectiveConfig("kl")
        corrected = ObjectiveConfig("kl", "objective", NoiseParams.symmetric(0.2))
        _train_members([(model, ds, corrected, tc)])  # finite by itself
        cases = [
            ((plain, corrected), 14, "the objective correction is the likely cause, as "
             "its estimate can grow without bound on a finite sample; train with "
             "another correction or lower lr0"),
            ((corrected, plain), 13, "lower lr0 or check the data"),
        ]
        for (small_cfg, big_cfg), step, cause in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(RuntimeError) as failed:
                    _train_members([(model, ds, small_cfg, tc), (big, ds, big_cfg, tc)])
            assert str(failed.value) == (
                f"parameters became non-finite at epoch 2 step {step}; {cause}"
            )

    def test_memory_has_no_row_by_class_array(self):
        # K = 1000: labels held one-hot for all 8,000 rows of three members
        # would alone take 192 MB; one batch's one-hot rows, the K x K
        # identity and the other (3, 32, K) workspaces take about 13 MB
        def peak(n):
            rng = np.random.default_rng(83)
            ds = LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 1000, n), 1000)
            tc = TrainConfig(epochs=1, batch_size=32)
            model = init(MlpSpec((4, 8, 1000)), seed=0)
            member = (model, ds, ObjectiveConfig("kl"), tc)
            tracemalloc.start()
            try:
                _train_members([member] * 3, on_epoch=lambda *a: None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2000), peak(8000)
        assert large < 32 * 2**20
        assert large - small < 2 * 2**20


class TestTwoClassColumn:
    """At K = 2 the row max and the row sum fill a two-wide column, which
    the softmax and the head gradient read at equal shapes; every row
    keeps the bits of the (N, 1) column formulas below."""

    # ties, zeros of both signs and logits of +-700, whose softmax rows
    # hold exact zeros
    LOGITS = np.array([
        [0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [3.5, 3.5],
        [-2.0, -2.0], [700.0, -700.0], [-700.0, 700.0], [700.0, 700.0],
        [-700.0, -700.0], [700.0, 0.0], [-0.0, -700.0], [1.25, -0.5],
    ])

    @staticmethod
    def column_softmax(v):
        z = np.exp(v - np.maximum(v[:, :1], v[:, 1:]))
        return z / (z[:, :1] + z[:, 1:])

    @staticmethod
    def column_grad(div_id, D, y, e):
        s = SIMPLEX_SCORE[div_id](D, y)
        if e is not None:
            s = s - SIMPLEX_DRIFT[div_id](D, e - e.sum() * D)
        return s - D * (s[:, :1] + s[:, 1:])

    def test_softmax_rows(self):
        v = np.concatenate([self.LOGITS, np.random.default_rng(5).normal(size=(50, 2))])
        assert same_bits(softmax(v), self.column_softmax(v))
        # forward's rows, through a 2-2 network's matmul and bias add
        W, b = np.array([[1.0, -0.5], [0.0, 1.0]]), np.array([-0.0, 0.0])
        model = NetworkModel(MlpSpec((2, 2)), ((W, b),))
        assert same_bits(forward(model, v), self.column_softmax(v @ W + b))

    @pytest.mark.parametrize("rates", [None, (0.1, 0.25)], ids=["no-rates", "rates"])
    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_logit_grad_rows(self, div_id, rates):
        D = np.concatenate([
            self.column_softmax(self.LOGITS),
            [[1.0, -0.0], [-0.0, 1.0], [0.5, 0.5]],
        ])
        labels = np.arange(len(D)) % 2
        e = None if rates is None else np.array(rates)
        got = jf_simplex_logit_grad_batch(div_id, D, labels, e)
        assert same_bits(got, self.column_grad(div_id, D, _onehot(labels, 2), e))


class TestStepProgram:
    """A step is one prebuilt program of numpy calls: no postmax Python
    function runs inside it but, for a head whose forms allocate, that
    head's one call and the divergence forms it calls."""

    @staticmethod
    def calls_per_step(head, div_id):
        """Calls of postmax functions, by name, that one more epoch of a
        seed's three networks adds, per step."""
        rng = np.random.default_rng(61)
        ds = gaussian_blobs(rng, 50, rng.normal(size=(2, 10)))  # 100 rows
        noisy = corrupt(ds, NoiseParams.symmetric(0.2).to_matrix(2), seed=0)
        rates = NoiseParams.uniform_offdiag([0.1, 0.1])
        model = init(head_spec((10, 16, 2), head, div_id), seed=0)
        package = str(Path(postmax.__file__).parent)

        def calls(epochs):
            """Calls of postmax functions, by name, in one training."""
            tc = TrainConfig(epochs=epochs, batch_size=32, seed=0)
            members = [
                (model, ds, ObjectiveConfig(div_id), tc),
                (model, noisy, ObjectiveConfig(div_id), tc),
                (model, noisy, ObjectiveConfig(div_id, "objective", rates), tc),
            ]
            seen = Counter()

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_filename.startswith(package):
                    seen[frame.f_code.co_name] += 1

            sys.setprofile(profile)
            try:
                _train_members(members)
            finally:
                sys.setprofile(None)
            return seen

        two, three = calls(2), calls(3)
        steps = 4  # batches of 32, 32, 32 and 4 rows
        extra = {name: (three[name] - two[name]) / steps for name in three | two}
        return {name: n for name, n in extra.items() if n}

    def test_a_kl_step_calls_no_postmax_function(self):
        assert self.calls_per_step("simplex", "kl") == {"_cosine_lr": 1}

    @pytest.mark.parametrize(
        "head, div_id, head_calls",
        [
            ("raw_t", "gan", {"_raw_logit_grad": 1, "_gan_raw_slopes": 1}),
            # the one call runs the score's and the drift's lambdas
            ("simplex", "sl", {"_simplex_forms": 1, "<lambda>": 2}),
        ],
    )
    def test_an_allocating_head_adds_only_its_call(self, head, div_id, head_calls):
        want = {"_cosine_lr": 1, **head_calls}
        assert self.calls_per_step(head, div_id) == want


class TestPublicGradientIsTheStep:
    """objective_and_gradients runs a full-batch step's program: one epoch
    of one batch moves each parameter by exactly lr0 times its gradient
    on the rows in the step's order."""

    @pytest.mark.parametrize("mode", ["none", "objective"])
    @pytest.mark.parametrize("head, div_id", [("simplex", "kl"), ("raw_t", "gan")])
    @pytest.mark.parametrize(
        "sizes, n",
        [((100, 100, 3), 256), ((1, 8, 2), 24), ((10, 16, 2), 32), ((10, 16, 2), 800)],
    )
    def test_one_full_batch_epoch_takes_the_public_gradient(
        self, sizes, n, head, div_id, mode
    ):
        rng = np.random.default_rng(101)
        k = sizes[-1]
        ds = LabeledDataset(rng.normal(size=(n, sizes[0])), rng.integers(0, k, n), k)
        noise = NoiseParams.uniform_offdiag(np.full(k, 0.1 / k))
        cfg = ObjectiveConfig(div_id, mode, None if mode == "none" else noise)
        model = init(head_spec(sizes, head, div_id), seed=3)
        tc = TrainConfig(epochs=1, batch_size=n, lr0=0.05, seed=9)
        [trained] = _train_members([(model, ds, cfg, tc)])
        order = np.random.default_rng(tc.seed).permutation(n)
        _, grads = objective_and_gradients(
            model, ds.features[order], ds.labels[order], cfg
        )
        for before, grad, after in zip(model.params, grads, trained.params):
            for p, g, q in zip(before, grad, after):
                assert same_bits(q, p + g * tc.lr0)


class TestCorrectionIdentity:
    """The paper's correction identity through the training path.  On an
    exact-population sample, whose noisy label counts are exactly
    100 * ((1 - sum(e)) * p + e) for clean counts 100 * p, the corrected
    objective's full-batch gradient is (1 - sum(e)) times the clean one,
    so the network trained on noisy labels with the objective correction
    at lr0 equals the clean network trained at lr0 * (1 - sum(e))."""

    E = (0.1, 0.05, 0.15)
    P_TENTHS = np.array(
        [[1, 2, 7], [3, 3, 4], [5, 4, 1], [2, 6, 2], [8, 1, 1], [4, 1, 5]]
    )

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    def test_corrected_network_equals_clean_one(self, head, div_id):
        X = np.repeat(np.random.default_rng(5).normal(size=(6, 4)), 100, axis=0)

        def sample(counts):
            labels = np.concatenate([np.repeat(np.arange(3), c) for c in counts])
            return LabeledDataset(X, labels, 3)

        clean = sample(10 * self.P_TENTHS)
        noisy = sample(7 * self.P_TENTHS + np.array([10, 5, 15]))
        noise = NoiseParams.uniform_offdiag(self.E)
        model = init(head_spec((4, 8, 3), head, div_id, "tanh"), seed=0)
        tc = TrainConfig(epochs=200, batch_size=600, lr0=0.05, seed=0)
        scaled = replace(tc, lr0=tc.lr0 * (1.0 - sum(self.E)))

        def trained(ds, cfg, train_config):
            [result] = _train_members([(model, ds, cfg, train_config)])
            return result

        target = trained(clean, ObjectiveConfig(div_id), scaled)

        def gap(other):
            return max(
                np.abs(a - b).max()
                for la, lb in zip(target.params, other.params)
                for a, b in zip(la, lb)
            )

        corrected = trained(noisy, ObjectiveConfig(div_id, "objective", noise), tc)
        uncorrected = trained(noisy, ObjectiveConfig(div_id), tc)
        assert gap(corrected) <= 1e-12
        assert gap(uncorrected) > 0.05


class TestLoggedValueIdentity:
    """The corrected value the scorer logs holds the paper's identity: with
    noisy label posteriors (1 - sum(e)) * p + e, the mean over labels of
    the corrected rows that evaluate() reduces is (1 - sum(e)) times the
    uncorrected rows' mean under p, for every head and divergence."""

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    def test_noisy_value_less_bias_is_the_scaled_clean_value(self, head, div_id):
        rng = np.random.default_rng(29)
        n, k = 50, 3
        v = rng.normal(scale=2.0, size=(n, k))
        p = rng.dirichlet(np.ones(k), size=n)
        e = np.array([0.05, 0.1, 0.15])
        p_noisy = (1.0 - e.sum()) * p + e
        div = get_divergence(div_id)
        D = softmax(v) if head == "simplex" else None

        def expected(posteriors, rates):
            rows = [_head_rows(div, v, D, np.full(n, y), rates) for y in range(k)]
            return sum(posteriors[:, y] * rows[y] for y in range(k))

        gap = expected(p_noisy, e) - (1.0 - e.sum()) * expected(p, None)
        assert np.abs(gap).max() <= 1e-12


class TestRunawayDecomposition:
    """The corrected value the scorer logs is the sum over labels j of
    R_j = mean_n[(1{y_n = j} - e_j) * (a_n[j] + c_n)], a and c the head's
    per-label and row terms, for every head and divergence; a runaway of
    the logged value on a finite sample is a runaway of these parts."""

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    def test_label_parts_sum_to_the_logged_value(self, head, div_id):
        rng = np.random.default_rng(41)
        clean = gaussian_blobs(rng, 30, [[-2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        noise = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15])
        ds = corrupt(clean, noise.to_matrix(3), seed=3)
        cfg = ObjectiveConfig(div_id, "objective", noise)
        tc = TrainConfig(epochs=20, batch_size=16, lr0=0.02, seed=0)
        model = init(head_spec((2, 8, 3), head, div_id), seed=1)
        trained, trace = train(model, ds, cfg, tc)
        div = get_divergence(div_id)
        _, v = forward_parts(trained.spec, trained.params, ds.features)
        if head == "simplex":
            log_D = v - v.max(axis=1, keepdims=True)
            log_D -= np.log(np.exp(log_D).sum(axis=1, keepdims=True))
            a, c = div.simplex_terms(softmax(v), log_D)
        else:
            a, c = div.link(v), -div.raw_conj(v).sum(axis=1)
        e = noise.flip_rates(3)
        parts = [np.mean(((ds.labels == j) - e[j]) * (a[:, j] + c)) for j in range(3)]
        logged = trace.objective[-1]
        assert logged == evaluate(trained, ds, cfg)[1]
        assert math.fsum(parts) == pytest.approx(logged, rel=1e-12, abs=0.0)


def decimal_simplex_value(div_id, logits, labels, e):
    """The mean simplex-head objective at T = f'(D) of logit rows, less the
    e-weighted objective at every label when e is given, in 50-digit
    decimal arithmetic from each divergence's f' and f*; kl's simplex value
    is one below its T-space value."""
    with localcontext() as ctx:
        ctx.prec = 50
        one = Decimal(1)
        total = Decimal(0)
        for row, y in zip(logits, labels):
            v = [Decimal(float(x)) for x in row]
            top = max(v)
            log_sum = sum((x - top).exp() for x in v).ln()
            D = [(x - top - log_sum).exp() for x in v]
            if div_id == "kl":  # f'(u) = log u + 1, f*(t) = exp(t - 1)
                T = [d.ln() + one for d in D]
                conj = sum((t - one).exp() for t in T) + one
            elif div_id == "gan":  # f'(u) = log(u/(u+1)), f*(t) = -log(1 - e^t)
                T = [(d / (d + one)).ln() for d in D]
                conj = sum(-(one - t.exp()).ln() for t in T)
            else:  # f'(u) = -1/(u+1), f*(t) = -(log(-t) + t)
                T = [-one / (d + one) for d in D]
                conj = sum(-((-t).ln() + t) for t in T)
            J = [t - conj for t in T]
            value = J[y]
            if e is not None:
                value -= sum(Decimal(float(r)) * j for r, j in zip(e, J))
            total += value
        return float(total / len(labels))


class TestExtremeSimplexOutputs:
    """The simplex head's logged value reads log D from the logits, so it is
    finite, warning-free and exact at logit gaps where softmax entries
    underflow to zero; a floor on D would freeze it from a gap of about 28."""

    E = (0.1, 0.2, 0.0)  # one rate of zero, at the lowest class

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("mode", ["none", "objective"])
    @pytest.mark.parametrize("gap", [10.0, 30.0, 100.0, 800.0, 1e6, 1e300])
    def test_value_is_finite_and_exact(self, gap, mode, div_id):
        logits = np.array([[0.0, -gap, -2.0 * gap]])
        model = NetworkModel(MlpSpec((1, 3)), ((logits, np.zeros(3)),))
        X, labels = np.ones((3, 1)), np.array([0, 1, 2])
        noise = NoiseParams.uniform_offdiag(self.E)
        cfg = ObjectiveConfig(div_id, mode, None if mode == "none" else noise)
        _, value = evaluate(model, LabeledDataset(X, labels, 3), cfg)
        public, grads = objective_and_gradients(model, X, labels, cfg)
        assert math.isfinite(value) and public == value
        assert all(np.isfinite(g).all() for layer in grads for g in layer)
        if gap <= 800.0:
            e = None if mode == "none" else self.E
            want = decimal_simplex_value(div_id, np.repeat(logits, 3, 0), labels, e)
            assert abs(value - want) <= 1e-12 * abs(want)


class TestEvaluate:
    def test_zero_rate_posterior_correction_is_identity(self):
        rng = np.random.default_rng(43)
        ds = gaussian_blobs(rng, 15, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 2)), seed=1)
        plain = evaluate(model, ds, ObjectiveConfig("kl"))
        zero = NoiseParams.uniform_offdiag([0.0, 0.0])
        corrected = evaluate(
            model, ds, ObjectiveConfig("kl", correction="posterior", noise=zero)
        )
        assert plain == corrected

    def test_posterior_correction_at_large_raw_outputs(self):
        # exp(800) overflows; ranking must still pick the largest output
        # (and emit no overflow warning, an error in this suite)
        rng = np.random.default_rng(43)
        ds = gaussian_blobs(rng, 5, [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ds = LabeledDataset(ds.features, np.zeros(15, dtype=int), k=3)
        spec = MlpSpec((2, 3), head="raw_t", divergence="gan")
        b = np.array([800.0, 790.0, 0.0])
        model = NetworkModel(spec, ((np.zeros((2, 3)), b),))
        noise = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15])
        acc, obj = evaluate(model, ds, ObjectiveConfig("gan", "posterior", noise))
        assert acc == 1.0
        assert math.isfinite(obj)

    def test_class_count_mismatch_rejected(self):
        rng = np.random.default_rng(43)
        ds = gaussian_blobs(rng, 15, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 3)), seed=1)
        with pytest.raises(ValueError, match="class count"):
            evaluate(model, ds, ObjectiveConfig("kl"))

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        ds = gaussian_blobs(rng, 15, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 2)), seed=1)
        assert evaluate(model, ds, ObjectiveConfig("kl")) == evaluate(
            model, ds, ObjectiveConfig("kl")
        )

    def test_enumerated_bayes_accuracy(self):
        # four abstract points, injected optimal outputs: accuracy must
        # equal the enumerated best-guess mass exactly
        counts = np.array(
            [[6, 3, 1], [2, 10, 3], [1, 2, 12], [8, 7, 5]], dtype=float
        )
        n = int(counts.sum())
        posterior = counts / counts.sum(axis=1, keepdims=True)
        T_table = optimal_T_from_posterior("kl", posterior)

        feats, labels = [], []
        for m in range(4):
            for j in range(3):
                for _ in range(int(counts[m, j])):
                    row = np.zeros(4)
                    row[m] = 1.0
                    feats.append(row)
                    labels.append(j)
        ds = LabeledDataset(np.array(feats), np.array(labels), k=3)

        spec = MlpSpec((4, 3), head="raw_t", divergence="kl")
        model = NetworkModel(spec, ((T_table, np.zeros(3)),))
        acc, _ = evaluate(model, ds, ObjectiveConfig("kl"))
        bayes = counts.max(axis=1).sum() / n
        assert acc == bayes == 0.6


def full_array_scores(model, dataset, cfg):
    """evaluate() and forward() as one pass over whole (N, width) arrays,
    the form block scoring replaced: (accuracy, objective, head outputs)."""
    spec, labels = model.spec, dataset.labels
    div = get_divergence(cfg.divergence)
    _, v = forward_parts(spec, model.params, dataset.features)
    D = softmax(v) if spec.head == "simplex" else None
    heads = div.link(v) if D is None else D
    scores = v if D is None else D
    if cfg.correction == "posterior":
        e = cfg.noise.flip_rates(spec.k)
        scores = div.raw_rank(v, e) if D is None else D - e
    acc = float(np.mean(np.argmax(scores, axis=1) == labels))
    e = cfg.noise.flip_rates(spec.k) if cfg.correction == "objective" else None
    if D is None:
        return acc, float(_raw_rows(div, v, labels, e).mean()), heads
    # log D from the logits, v - max - log sum exp(v - max)
    log_D = v - v.max(axis=1, keepdims=True)
    log_D -= np.log(np.exp(log_D).sum(axis=1, keepdims=True))
    return acc, float(_rows(*div.simplex_terms(D, log_D), labels, e).mean()), heads


class TestBlockScoring:
    """evaluate() and forward() run in row blocks of at most 1,024 rows,
    and every scalar and head output keeps the full-array pass's bits."""

    @pytest.mark.parametrize(
        "sizes, activation",
        [((10, 16, 2), "relu"), ((100, 256, 10), "relu"), ((6, 12, 8, 3), "tanh")],
        ids=["10-16-2-relu", "100-256-10-relu", "6-12-8-3-tanh"],
    )
    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_blocks_keep_the_full_array_bits(self, sizes, activation, head, div_id):
        rng = np.random.default_rng(71)
        k = sizes[-1]
        n = 2500  # three blocks of 832, 832 and 836 rows
        ds = LabeledDataset(rng.normal(size=(n, sizes[0])), rng.integers(0, k, n), k)
        model = init(head_spec(sizes, head, div_id, activation), seed=5)
        noise = NoiseParams.uniform_offdiag(rng.uniform(0.02, 0.3 / k, k))
        for mode in ("none", "objective", "posterior"):
            cfg = ObjectiveConfig(div_id, mode, None if mode == "none" else noise)
            acc, value, heads = full_array_scores(model, ds, cfg)
            assert evaluate(model, ds, cfg) == (acc, value), mode
            assert same_bits(forward(model, ds.features), heads)

    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    def test_one_pass_scores_each_mode_as_its_own_call(self, head):
        rng = np.random.default_rng(73)
        ds = gaussian_blobs(rng, 40, rng.normal(size=(3, 4)))
        model = init(head_spec((4, 8, 3), head, "kl"), seed=2)
        noise = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15])
        cfgs = [ObjectiveConfig("kl", m, noise) for m in ("none", "posterior")]
        one_pass = _evaluate_modes(model, ds, cfgs)
        assert one_pass == [evaluate(model, ds, cfg) for cfg in cfgs]
        mixed = [*cfgs, ObjectiveConfig("kl", "objective", noise)]
        with pytest.raises(ValueError, match="share the objective"):
            _evaluate_modes(model, ds, mixed)

    @pytest.mark.parametrize("head", ["simplex", "raw_t"])
    def test_memory_stays_within_a_block(self, head):
        # 20,000 x 256 hidden activations alone would take 41 MB
        rng = np.random.default_rng(79)
        n = 20000
        ds = LabeledDataset(rng.normal(size=(n, 100)), rng.integers(0, 10, n), 10)
        model = init(head_spec((100, 256, 10), head, "gan"), seed=0)
        noise = NoiseParams.uniform_offdiag(np.full(10, 0.02))
        cfg = ObjectiveConfig("gan", "objective", noise)
        tracemalloc.start()
        try:
            evaluate(model, ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("k", [3, 5, 10, 30])  # 30: past the running max's cut
    def test_running_row_max_keeps_the_reductions_softmax(self, k):
        rng = np.random.default_rng(k)
        v = rng.normal(size=(300, k)) * 30.0
        v[:50] = rng.integers(-2, 3, size=(50, k))  # ties in the row max
        v[50:100] = rng.choice([0.0, -0.0, -1.0], size=(50, k))  # signed zeros
        assert same_bits(softmax(v), reference_softmax(v))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init(MlpSpec((3, 5, 2), activation="tanh"), seed=21)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        for (Wa, ba), (Wb, bb) in zip(model.params, loaded.params):
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_raw_head_round_trip(self, tmp_path):
        model = init(MlpSpec((3, 2), head="raw_t", divergence="sl"), seed=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).spec.divergence == "sl"

    def test_load_rejects_non_finite_params(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init(MlpSpec((3, 2)), seed=2), path)
        payload = json.loads(path.read_text())
        payload["params"][0]["b"][1] = math.nan
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize(
        "bad", ["1.5", True, 10**400], ids=["str", "true", "10**400"]
    )
    def test_load_rejects_a_parameter_no_float_holds(self, tmp_path, bad):
        # numpy reads the first two as 1.5 and 1.0, and overflows on the third
        path = tmp_path / "model.json"
        save_model(init(MlpSpec((3, 2)), seed=2), path)
        payload = json.loads(path.read_text())
        payload["params"][0]["W"][0][1] = bad
        path.write_text(json.dumps(payload))
        want = r"^malformed model file: params\[0\]'s W and b must hold numbers"
        with pytest.raises(ValueError, match=want):
            load_model(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        model = init(MlpSpec((3, 2)), seed=2)
        save_model(model, path)
        payload = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(payload)
        with pytest.raises(ValueError):
            load_model(path)
