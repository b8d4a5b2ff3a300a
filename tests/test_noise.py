"""Tests for transition matrices, noise parameters, and corruption."""

import tracemalloc

import numpy as np
import pytest

from postmax.noise import (
    LabeledDataset,
    NoiseParams,
    TransitionMatrix,
    _check_stochastic,
    _counter_uniforms,
    corrupt,
)


def make_dataset(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        features=rng.normal(size=(n, 3)),
        labels=rng.integers(0, k, n),
        k=k,
    )


class TestSymmetricMatrix:
    def test_binary_forty_percent(self):
        tm = NoiseParams.symmetric(0.4).to_matrix(2)
        np.testing.assert_allclose(tm.entries, [[0.6, 0.4], [0.4, 0.6]])

    def test_zero_noise_is_identity(self):
        tm = NoiseParams.symmetric(0.0).to_matrix(10)
        np.testing.assert_allclose(tm.entries, np.eye(10))

    def test_four_class_spread(self):
        tm = NoiseParams.symmetric(0.6).to_matrix(4)
        assert tm.entries[0, 0] == pytest.approx(0.4)
        assert tm.entries[0, 1] == pytest.approx(0.2)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            NoiseParams.symmetric(0.5).to_matrix(2)
        with pytest.raises(ValueError):
            NoiseParams.symmetric(-0.1).to_matrix(2)
        with pytest.raises(ValueError):
            NoiseParams.symmetric(float("nan")).to_matrix(2)
        NoiseParams.symmetric(0.89).to_matrix(10)  # just under (K-1)/K

    def test_rows_stochastic(self):
        tm = NoiseParams.symmetric(0.3).to_matrix(7)
        np.testing.assert_allclose(tm.entries.sum(axis=1), 1.0, atol=1e-12)


class TestUniformOffdiagMatrix:
    def test_binary_example(self):
        tm = NoiseParams.uniform_offdiag([0.1, 0.3]).to_matrix(2)
        np.testing.assert_allclose(tm.entries, [[0.7, 0.3], [0.1, 0.9]])

    def test_zeros_is_identity(self):
        tm = NoiseParams.uniform_offdiag([0.0, 0.0, 0.0]).to_matrix(3)
        np.testing.assert_allclose(tm.entries, np.eye(3))

    def test_equal_rates_match_symmetric(self):
        tm = NoiseParams.uniform_offdiag([0.1, 0.1, 0.1]).to_matrix(3)
        sym = NoiseParams.symmetric(0.2).to_matrix(3)
        np.testing.assert_allclose(tm.entries, sym.entries, atol=1e-15)

    def test_rate_sum_bound(self):
        with pytest.raises(ValueError):
            NoiseParams.uniform_offdiag([0.5, 0.5]).to_matrix(2)
        with pytest.raises(ValueError):
            NoiseParams.uniform_offdiag([-0.1, 0.2]).to_matrix(2)
        with pytest.raises(ValueError, match="finite"):
            NoiseParams.uniform_offdiag([float("nan"), 0.2]).to_matrix(2)


class TestTransitionMatrixValidation:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.4], [0.1, 0.9]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.1, -0.1], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TransitionMatrix(np.full((2, 2), np.nan))

    def test_stacked_checks_every_matrix(self):
        good = np.stack([np.eye(3), NoiseParams.symmetric(0.3).to_matrix(3).entries])
        _check_stochastic(good)
        for index, value, match in (
            ((1, 2, 0), -0.1, r"\[0, 1\]"),
            ((0, 1, 1), np.nan, r"\[0, 1\]"),
            ((1, 0, 0), 0.5, "sum to 1"),
        ):
            bad = good.copy()
            bad[index] = value
            with pytest.raises(ValueError, match=match):
                _check_stochastic(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.ones((2, 3)) / 3.0)

    def test_entries_read_only(self):
        tm = NoiseParams.symmetric(0.1).to_matrix(3)
        with pytest.raises(ValueError):
            tm.entries[0, 0] = 0.0


class TestCorrupt:
    def test_identity_matrix_keeps_labels(self):
        ds = make_dataset(500, 4)
        out = corrupt(ds, NoiseParams.symmetric(0.0).to_matrix(4), seed=3)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.provenance == "corrupted"

    def test_deterministic(self):
        ds = make_dataset(1000, 3)
        tm = NoiseParams.symmetric(0.3).to_matrix(3)
        a = corrupt(ds, tm, seed=11)
        b = corrupt(ds, tm, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_outcome(self):
        ds = make_dataset(1000, 3)
        tm = NoiseParams.symmetric(0.3).to_matrix(3)
        a = corrupt(ds, tm, seed=11)
        b = corrupt(ds, tm, seed=12)
        assert np.any(a.labels != b.labels)

    def test_features_bit_exact(self):
        ds = make_dataset(200, 2)
        out = corrupt(ds, NoiseParams.symmetric(0.4).to_matrix(2), seed=0)
        assert np.array_equal(out.features, ds.features)

    def test_shares_the_clean_feature_array(self):
        ds = make_dataset(200, 3)
        out = corrupt(ds, NoiseParams.symmetric(0.4).to_matrix(3), seed=0)
        assert out.features is ds.features
        assert not out.features.flags.writeable

    def test_flip_fraction_concentrates(self):
        n = 100_000
        ds = make_dataset(n, 2, seed=5)
        out = corrupt(ds, NoiseParams.symmetric(0.4).to_matrix(2), seed=7)
        flipped = np.mean(out.labels != ds.labels)
        assert abs(flipped - 0.4) <= 3.0 * np.sqrt(0.4 * 0.6 / n)

    def test_recovers_generating_matrix(self):
        n = 1_000_000
        ds = make_dataset(n, 5, seed=1)
        tm = NoiseParams.symmetric(0.3).to_matrix(5)
        noisy = corrupt(ds, tm, seed=2)
        counts = np.zeros((5, 5))
        np.add.at(counts, (ds.labels, noisy.labels), 1.0)
        est = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(est - tm.entries)) < 0.01

    def test_per_sample_draws_are_index_keyed(self):
        # corrupting a prefix of the dataset reproduces the prefix of the
        # full corruption, because each sample's draw depends only on
        # (seed, sample index)
        ds = make_dataset(400, 3, seed=9)
        tm = NoiseParams.symmetric(0.5).to_matrix(3)
        full = corrupt(ds, tm, seed=21)
        head = LabeledDataset(ds.features[:100], ds.labels[:100], k=3)
        part = corrupt(head, tm, seed=21)
        np.testing.assert_array_equal(part.labels, full.labels[:100])

    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_labels_equal_the_cumulative_comparison(self, k):
        # the (n, K) reference: a row's new label counts its class's
        # cumulative probabilities at or below its variate
        ds = make_dataset(5000, k, seed=k)
        rng = np.random.default_rng(k)
        entries = rng.random((k, k)) ** 4
        tm = TransitionMatrix(entries / entries.sum(axis=1, keepdims=True))
        u = _counter_uniforms(13, ds.n)
        cum = np.cumsum(tm.entries, axis=1)[ds.labels]
        want = np.minimum((u[:, None] >= cum).sum(axis=1), k - 1)
        np.testing.assert_array_equal(corrupt(ds, tm, seed=13).labels, want)

    def test_memory_is_linear_in_the_rows(self):
        # an (n, K) float array would be 160 MB here
        n, k = 20_000, 1000
        ds = LabeledDataset(np.zeros((n, 1)), np.arange(n) % k, k)
        tm = NoiseParams.symmetric(0.2).to_matrix(k)
        tracemalloc.start()
        try:
            corrupt(ds, tm, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * n  # eight 8-byte values per row

    def test_rejects_recorruption(self):
        ds = make_dataset(50, 2)
        tm = NoiseParams.symmetric(0.2).to_matrix(2)
        once = corrupt(ds, tm, seed=0)
        with pytest.raises(ValueError):
            corrupt(once, tm, seed=0)

    def test_rejects_class_mismatch(self):
        ds = make_dataset(50, 2)
        with pytest.raises(ValueError):
            corrupt(ds, NoiseParams.symmetric(0.2).to_matrix(3), seed=0)


class TestNoiseParams:
    def test_symmetric_rates(self):
        p = NoiseParams.symmetric(0.3)
        np.testing.assert_allclose(p.flip_rates(4), [0.1, 0.1, 0.1, 0.1])
        np.testing.assert_allclose(p.to_matrix(4).entries, 0.1 + 0.6 * np.eye(4))

    def test_uniform_offdiag_rates(self):
        p = NoiseParams.uniform_offdiag([0.1, 0.3])
        np.testing.assert_allclose(p.flip_rates(2), [0.1, 0.3])

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams.uniform_offdiag([0.6, 0.5])
        with pytest.raises(ValueError):
            NoiseParams.symmetric(-0.1)
        with pytest.raises(ValueError):
            NoiseParams(kind="mystery")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                NoiseParams.symmetric(bad)
            with pytest.raises(ValueError, match="finite"):
                NoiseParams.uniform_offdiag([0.1, bad])

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("kind", ["symmetric", "uniform_offdiag"])
    def test_matrix_flips_into_each_class_at_its_rate(self, kind, k):
        # the matrix corrupt draws from and the rates the correction
        # subtracts describe one noise: off the diagonal, column j is e_j
        if kind == "symmetric":
            params = NoiseParams.symmetric(0.4 * (k - 1) / k)
        else:
            params = NoiseParams.uniform_offdiag(np.linspace(0.01, 0.3, k) / k)
        e = params.flip_rates(k)
        entries = params.to_matrix(k).entries
        off = ~np.eye(k, dtype=bool)
        np.testing.assert_array_equal(entries[off], np.broadcast_to(e, (k, k))[off])
        np.testing.assert_allclose(entries.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: NoiseParams(kind="uniform_offdiag"),
                "uniform off-diagonal noise requires a rate vector e",
            ),
            (
                lambda: NoiseParams.symmetric(0.1).to_matrix(1),
                "need at least two classes",
            ),
            (
                lambda: NoiseParams.uniform_offdiag([0.1, 0.2]).flip_rates(1),
                "need at least two classes",
            ),
        ],
        ids=["no-rates", "to_matrix-one-class", "flip_rates-one-class"],
    )
    def test_rejects_with_its_message(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("e", [[], [0.2], [[0.1, 0.2]], 0.1])
    def test_construction_rejects_anything_but_k_rates(self, e):
        # the length rule K >= 2 holds when the parameters are built, not
        # first when they meet a class count
        with pytest.raises(ValueError, match="vector of length K >= 2"):
            NoiseParams.uniform_offdiag(e)


class TestLabeledDataset:
    @pytest.mark.parametrize(
        "features, provenance, message",
        [
            (np.ones((0, 2)), "clean", "features must be a nonempty N x D matrix"),
            (np.ones((2, 0)), "clean", "features must be a nonempty N x D matrix"),
            (np.ones(2), "clean", "features must be a nonempty N x D matrix"),
            (np.ones((2, 2)), "noisy", "provenance must be 'clean' or 'corrupted'"),
        ],
        ids=["no-rows", "no-columns", "vector", "provenance"],
    )
    def test_rejects_with_its_message(self, features, provenance, message):
        labels = np.zeros(len(features), dtype=int)
        with pytest.raises(ValueError, match=f"^{message}$"):
            LabeledDataset(features, labels, k=2, provenance=provenance)

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((3, 2)), np.array([0, 1, 2]), k=2)

    def test_arrays_read_only(self):
        ds = make_dataset(10, 2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_writable_features_are_copied(self):
        feats = np.ones((3, 2))
        view = feats[:]
        view.setflags(write=False)  # read-only, but feats still writes it
        for given in (feats, view):
            ds = LabeledDataset(given, np.array([0, 1, 0]), k=2)
            assert not np.shares_memory(ds.features, feats)
            assert not ds.features.flags.writeable
        feats[0, 0] = 99.0
        assert ds.features[0, 0] == 1.0
