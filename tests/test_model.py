"""Tests for the network, analytic backprop, and the training loop."""

import math

import numpy as np
import pytest

from postmax.divergence import (
    DIVERGENCE_IDS,
    get_divergence,
    optimal_T_from_posterior,
)
from postmax.model import (
    MlpSpec,
    NetworkModel,
    TrainConfig,
    _backprop,
    _cosine_lr,
    _forward_parts,
    _train_members,
    evaluate,
    forward,
    init,
    load_model,
    objective_and_gradients,
    save_model,
    train,
)
from postmax.noise import LabeledDataset, NoiseParams, corrupt, symmetric_matrix
from postmax.objective import (
    ObjectiveConfig,
    corrected_grad_batch,
    corrected_jf_batch,
    jf_batch,
    jf_grad_batch,
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


def simplex_cfg(div_id, correction="none", noise=None):
    return ObjectiveConfig(
        divergence=div_id, correction=correction, noise=noise, head="simplex"
    )


def raw_cfg(div_id, correction="none", noise=None):
    return ObjectiveConfig(
        divergence=div_id, correction=correction, noise=noise, head="raw_t"
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
            for make_cfg, spec in (
                (simplex_cfg, MlpSpec((2, 3, 2), activation="tanh")),
                (
                    raw_cfg,
                    MlpSpec(
                        (2, 3, 2),
                        activation="tanh",
                        head="raw_t",
                        divergence=div_id,
                    ),
                ),
            ):
                for correction in ("none", "objective"):
                    cfg = make_cfg(
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
        cfg = simplex_cfg("kl")
        _, grads = objective_and_gradients(model, X, y, cfg)
        fd = self.finite_difference(model, X, y, cfg, h=1e-7)
        for (gW, gb), (fW, fb) in zip(grads, fd):
            np.testing.assert_allclose(gW, fW, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(gb, fb, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("correction", ["none", "objective"])
    def test_raw_head_matches_id_route(self, div_id, correction):
        # objective_and_gradients resolves the spec once and passes the
        # object on; the same pieces called with the id give the same bits
        rng = np.random.default_rng(17)
        X = rng.normal(size=(9, 3))
        y = rng.integers(0, 4, size=9)
        noise = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15, 0.02])
        cfg = raw_cfg(div_id, correction, noise if correction != "none" else None)
        model = init(MlpSpec((3, 5, 4), head="raw_t", divergence=div_id), seed=4)
        value, grads = objective_and_gradients(model, X, y, cfg)
        hs, zs, v = _forward_parts(model.spec, model.params, X)
        out = forward(model, X)
        if correction == "none":
            want = jf_batch(div_id, out, y)
            g = jf_grad_batch(div_id, out, y)
        else:
            e = noise.flip_rates(4)
            want = corrected_jf_batch(div_id, out, y, e)
            g = corrected_grad_batch(div_id, out, y, e)
        g_v = g * get_divergence(div_id).link_prime(v) / X.shape[0]
        assert value == want
        for got, ref in zip(grads, _backprop(model.spec, model.params, hs, zs, g_v)):
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_head_mismatch_rejected(self):
        model = init(MlpSpec((3, 2)), seed=0)
        with pytest.raises(ValueError):
            objective_and_gradients(
                model, np.zeros((2, 3)), [0, 1], raw_cfg("kl")
            )

    def test_link_divergence_mismatch_rejected(self):
        model = init(MlpSpec((3, 2), head="raw_t", divergence="gan"), seed=0)
        with pytest.raises(ValueError):
            objective_and_gradients(model, np.zeros((2, 3)), [0, 1], raw_cfg("kl"))


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
            model, ds, simplex_cfg("kl"), TrainConfig(epochs=0, batch_size=8)
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
            trained, trace = train(model, ds, simplex_cfg("kl"), cfg)
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
            simplex_cfg("kl"),
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
            simplex_cfg("kl"),
            TrainConfig(epochs=4, batch_size=8),
            eval_dataset=held,
        )
        assert len(trace.test_accuracy) == 4
        assert len(trace.objective) == 4

    def test_divergence_aborts_with_diagnostic(self):
        # The simplex head trains through an unchecked kernel, so its
        # non-finite softmax rows must still stop training at the step
        # where they appear.  The (epoch, step) pairs are where these
        # seeds abort when every step re-validates its inputs.
        cases = [
            (MlpSpec((2, 4, 2), head="raw_t", divergence="kl"), raw_cfg("kl"), 0, 2),
            (MlpSpec((2, 4, 2)), simplex_cfg("kl"), 4, 22),
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

    def test_shape_mismatches_rejected(self):
        rng = np.random.default_rng(37)
        ds = gaussian_blobs(rng, 10, [[-1.0, 0.0], [1.0, 0.0]])
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            train(init(MlpSpec((3, 2)), 0), ds, simplex_cfg("kl"), cfg)
        with pytest.raises(ValueError):
            train(init(MlpSpec((2, 3)), 0), ds, simplex_cfg("kl"), cfg)

    def test_corrected_objective_trains(self):
        rng = np.random.default_rng(41)
        ds = gaussian_blobs(rng, 25, [[-1.5, 0.0], [1.5, 0.0]])
        noise = NoiseParams.uniform_offdiag([0.1, 0.2])
        model = init(MlpSpec((2, 4, 2)), seed=3)
        _, trace = train(
            model,
            ds,
            simplex_cfg("kl", correction="objective", noise=noise),
            TrainConfig(epochs=10, batch_size=16),
        )
        assert all(math.isfinite(v) for v in trace.objective)


def assert_same_training(a, b):
    """Two (model, trace) results agree bit for bit."""
    (model_a, trace_a), (model_b, trace_b) = a, b

    def same_params(pa, pb):
        return all(
            np.array_equal(x, y) for la, lb in zip(pa, pb) for x, y in zip(la, lb)
        )

    assert same_params(model_a.params, model_b.params)
    assert trace_a.objective == trace_b.objective
    assert trace_a.train_accuracy == trace_b.train_accuracy
    assert trace_a.test_accuracy == trace_b.test_accuracy


class TestTrainMembers:
    NOISE = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15])

    def members(self, make_cfg, div_id):
        """Clean, noisy, noisy-corrected and posterior members of one seed;
        60 rows in batches of 16 leave a ragged last batch of 12."""
        rng = np.random.default_rng(53)
        ds = gaussian_blobs(rng, 20, [[-1.0, 0.0], [1.0, 0.5], [0.0, -1.0]])
        noisy = corrupt(ds, symmetric_matrix(3, 0.3), seed=2)
        return [
            (ds, make_cfg(div_id)),
            (noisy, make_cfg(div_id)),
            (noisy, make_cfg(div_id, "objective", self.NOISE)),
            (noisy, make_cfg(div_id, "posterior", self.NOISE)),
        ]

    @pytest.mark.parametrize(
        "make_cfg, div_id, layer_sizes, activation",
        [
            (simplex_cfg, "kl", (2, 6, 3), "relu"),
            (simplex_cfg, "gan", (2, 6, 3), "relu"),
            (simplex_cfg, "sl", (2, 6, 3), "relu"),
            (simplex_cfg, "kl", (2, 5, 4, 3), "tanh"),
            (simplex_cfg, "gan", (2, 3), "relu"),
            (raw_cfg, "gan", (2, 6, 3), "relu"),
            (raw_cfg, "gan", (2, 5, 4, 3), "tanh"),
        ],
    )
    def test_each_member_equals_its_solo_training(
        self, make_cfg, div_id, layer_sizes, activation
    ):
        spec = MlpSpec(
            layer_sizes,
            activation=activation,
            head=make_cfg(div_id).head,
            divergence=div_id if make_cfg is raw_cfg else None,
        )
        model = init(spec, seed=6)
        members = self.members(make_cfg, div_id)
        tc = TrainConfig(epochs=4, batch_size=16, seed=8)
        held = gaussian_blobs(
            np.random.default_rng(59), 5, [[-1.0, 0.0], [1.0, 0.5], [0.0, -1.0]]
        )
        lockstep = _train_members(model, members, tc, eval_dataset=held)
        assert len(lockstep) == len(members)
        for (ds, cfg), result in zip(members, lockstep):
            assert_same_training(result, train(model, ds, cfg, tc, eval_dataset=held))

    def test_members_must_share_features_and_divergence(self):
        members = self.members(simplex_cfg, "kl")
        ds = members[0][0]
        moved = LabeledDataset(ds.features + 1.0, ds.labels, k=3)
        model = init(MlpSpec((2, 4, 3)), seed=0)
        tc = TrainConfig(epochs=1, batch_size=16)
        with pytest.raises(ValueError, match="share the training features"):
            _train_members(model, members + [(moved, simplex_cfg("kl"))], tc)
        with pytest.raises(ValueError, match="share the divergence"):
            _train_members(model, members + [(ds, simplex_cfg("gan"))], tc)


class TestEvaluate:
    def test_zero_rate_posterior_correction_is_identity(self):
        rng = np.random.default_rng(43)
        ds = gaussian_blobs(rng, 15, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 2)), seed=1)
        plain = evaluate(model, ds, simplex_cfg("kl"))
        zero = NoiseParams.uniform_offdiag([0.0, 0.0])
        corrected = evaluate(
            model, ds, simplex_cfg("kl", correction="posterior", noise=zero)
        )
        assert plain == corrected

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        ds = gaussian_blobs(rng, 15, [[-1.0, 0.0], [1.0, 0.0]])
        model = init(MlpSpec((2, 4, 2)), seed=1)
        assert evaluate(model, ds, simplex_cfg("kl")) == evaluate(
            model, ds, simplex_cfg("kl")
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
        acc, _ = evaluate(model, ds, raw_cfg("kl"))
        bayes = counts.max(axis=1).sum() / n
        assert acc == bayes == 0.6


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

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        model = init(MlpSpec((3, 2)), seed=2)
        save_model(model, path)
        payload = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(payload)
        with pytest.raises(ValueError):
            load_model(path)
