"""Tests for posterior estimation, prediction, and noise correction."""

import numpy as np
import pytest

from postmax.divergence import DIVERGENCE_IDS, optimal_T_from_posterior
from postmax.noise import NoiseParams, TransitionMatrix
from postmax.posterior import (
    PosteriorMatrix,
    accuracy,
    estimate_posterior,
    noisy_posterior_forward,
    posterior_correct,
    predict,
)


def random_simplex(rng, n, k):
    rows = rng.uniform(0.01, 1.0, size=(n, k))
    return rows / rows.sum(axis=1, keepdims=True)


class TestEstimatePosterior:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        P = random_simplex(rng, 200, 5)
        for div_id in DIVERGENCE_IDS:
            T = optimal_T_from_posterior(div_id, P)
            est = estimate_posterior(div_id, T)
            assert not est.normalized
            np.testing.assert_allclose(est.values, P, rtol=1e-9)

    def test_kl_frozen_unnormalized(self):
        est = estimate_posterior("kl", [[1.0, 1.0]])
        np.testing.assert_allclose(est.values, [[1.0, 1.0]])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            estimate_posterior("sl", [[0.5, -0.5]])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            estimate_posterior("kl", [1.0, 1.0])


class TestPredict:
    def test_argmax(self):
        assert predict([[0.2, 0.8]]).tolist() == [1]

    def test_tie_breaks_low(self):
        assert predict([[0.5, 0.5]]).tolist() == [0]
        assert predict([[0.2, 0.4, 0.4]]).tolist() == [1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        rows = random_simplex(rng, 100, 4)
        scales = rng.uniform(0.1, 10.0, size=(100, 1))
        np.testing.assert_array_equal(predict(rows), predict(rows * scales))

    def test_accepts_posterior_matrix(self):
        pm = PosteriorMatrix([[0.1, 0.9], [0.8, 0.2]])
        assert predict(pm).tolist() == [1, 0]


class TestNoisyForward:
    def test_frozen_binary(self):
        out = noisy_posterior_forward([0.7, 0.3], [0.1, 0.3])
        np.testing.assert_allclose(out, [0.52, 0.48], atol=1e-15)

    def test_zero_rates_identity(self):
        p = np.array([0.2, 0.5, 0.3])
        np.testing.assert_array_equal(
            noisy_posterior_forward(p, [0.0, 0.0, 0.0]), p
        )

    def test_output_on_simplex(self):
        rng = np.random.default_rng(7)
        rows = random_simplex(rng, 500, 4)
        e = np.array([0.1, 0.05, 0.2, 0.15])
        out = noisy_posterior_forward(rows, e)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(500), atol=1e-12)
        assert np.all(out >= 0.0)

    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(9)
        rows = random_simplex(rng, 20, 3)
        e = [0.1, 0.2, 0.05]
        out = noisy_posterior_forward(rows, e)
        for i in range(20):
            np.testing.assert_array_equal(
                out[i], noisy_posterior_forward(rows[i], e)
            )

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.5], [0.6, 0.5])
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.5], [-0.1, 0.2])
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.5], [0.1, 0.2, 0.3])

    def test_rejects_non_simplex_input(self):
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.6], [0.1, 0.1])
        with pytest.raises(ValueError):
            noisy_posterior_forward([1.2, -0.2], [0.1, 0.1])


class TestPosteriorCorrect:
    def test_frozen_binary(self):
        corrected = posterior_correct([[0.52, 0.48]], [0.1, 0.3])
        np.testing.assert_allclose(corrected.values, [[0.42, 0.18]], atol=1e-15)
        assert predict(corrected).tolist() == [0]

    def test_rescaled_inverts_forward(self):
        rng = np.random.default_rng(11)
        P = random_simplex(rng, 100, 4)
        e = [0.1, 0.05, 0.2, 0.15]
        noisy = noisy_posterior_forward(P, e)
        back = posterior_correct(noisy, e, rescale=True)
        np.testing.assert_allclose(back.values, P, rtol=1e-12)

    def test_zero_rates_unchanged(self):
        rows = [[0.3, 0.7], [0.9, 0.1]]
        out = posterior_correct(rows, [0.0, 0.0])
        np.testing.assert_array_equal(out.values, rows)

    def test_accepts_symmetric_params(self):
        # symmetric parameters expand to the equal flip-in vector
        noise = NoiseParams.symmetric(0.3)
        out = posterior_correct([[0.5, 0.3, 0.2]], noise)
        np.testing.assert_allclose(
            out.values, [[0.35, 0.15, 0.05]], atol=1e-15
        )

    def test_rejects_custom_params(self):
        tm = TransitionMatrix([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(ValueError):
            posterior_correct([[0.5, 0.5]], NoiseParams.custom(tm, seed=0))

    def test_negatives_preserved_for_prediction(self):
        # an undershooting estimate goes below zero after subtraction and
        # must stay there: clamping could flip the argmax
        corrected = posterior_correct([[0.05, 0.95]], [0.1, 0.3])
        np.testing.assert_allclose(corrected.values, [[-0.05, 0.65]], atol=1e-15)
        assert predict(corrected).tolist() == [1]

    def test_accepts_posterior_matrix_input(self):
        pm = PosteriorMatrix([[0.52, 0.48]])
        out = posterior_correct(pm, [0.1, 0.3])
        np.testing.assert_allclose(out.values, [[0.42, 0.18]], atol=1e-15)


class TestNormalizedReporting:
    def test_clamps_and_normalizes(self):
        pm = PosteriorMatrix([[-0.05, 0.65]])
        norm = pm.to_normalized()
        assert norm.normalized
        np.testing.assert_allclose(norm.values, [[0.0, 1.0]])

    def test_normalized_flag_validated(self):
        with pytest.raises(ValueError):
            PosteriorMatrix([[0.5, 0.6]], normalized=True)
        with pytest.raises(ValueError):
            PosteriorMatrix([[-0.1, 1.1]], normalized=True)

    def test_all_negative_row_rejected(self):
        pm = PosteriorMatrix([[-0.2, -0.3]])
        with pytest.raises(ValueError):
            pm.to_normalized()

    def test_values_read_only(self):
        pm = PosteriorMatrix([[0.5, 0.5]])
        with pytest.raises(ValueError):
            pm.values[0, 0] = 0.9


class TestAccuracy:
    def test_extremes_and_half(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
        assert accuracy([0, 1, 2], [1, 2, 0]) == 0.0
        assert accuracy([0, 1, 0, 1], [0, 1, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestArgmaxInvariance:
    def test_symmetric_noise_keeps_argmax(self):
        # affine map with equal offsets preserves the ordering of rows
        rng = np.random.default_rng(13)
        for k in range(2, 11):
            rows = random_simplex(rng, 250, k)
            clean = predict(rows)
            for eta in (0.1, 0.3, 0.5 * (k - 1) / k, 0.99 * (k - 1) / k):
                e = np.full(k, eta / (k - 1))
                noisy = noisy_posterior_forward(rows, e)
                np.testing.assert_array_equal(predict(noisy), clean)

    def test_correction_restores_argmax(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            e = rng.uniform(0.0, 0.8 / k, size=k)
            rows = random_simplex(rng, 40, k)
            clean = predict(rows)
            noisy = noisy_posterior_forward(rows, e)
            restored = predict(posterior_correct(noisy, e))
            np.testing.assert_array_equal(restored, clean)

    def test_unequal_rates_can_flip_argmax(self):
        # the witness that makes correction necessary
        noisy = noisy_posterior_forward([0.6, 0.4], [0.0, 0.5])
        np.testing.assert_allclose(noisy, [0.3, 0.7], atol=1e-15)
        assert predict([[0.6, 0.4]]).tolist() == [0]
        assert predict([noisy]).tolist() == [1]

