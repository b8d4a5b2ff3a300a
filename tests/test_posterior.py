"""Tests for posterior estimation, prediction, and noise correction."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from postmax.divergence import (
    DIVERGENCE_IDS,
    optimal_T_from_posterior,
    posterior_from_T,
)
from postmax.noise import NoiseParams
from postmax.posterior import (
    accuracy,
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
            est = posterior_from_T(div_id, T)
            np.testing.assert_allclose(est, P, rtol=1e-9)

    def test_kl_frozen_unnormalized(self):
        est = posterior_from_T("kl", [[1.0, 1.0]])
        np.testing.assert_allclose(est, [[1.0, 1.0]])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            posterior_from_T("sl", [[0.5, -0.5]])


class TestPredict:
    def test_argmax(self):
        assert predict([[0.2, 0.8]]).tolist() == [1]

    def test_tie_breaks_low(self):
        assert predict([[0.5, 0.5]]).tolist() == [0]
        assert predict([[0.2, 0.4, 0.4]]).tolist() == [1]

    @pytest.mark.parametrize(
        "rows", [0.5, [0.2, 0.8], [[[0.2, 0.8]]]], ids=["0-d", "1-d", "3-d"]
    )
    def test_rejects_all_but_a_matrix(self, rows):
        with pytest.raises(ValueError, match="^expected an N x K matrix$"):
            predict(rows)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        rows = random_simplex(rng, 100, 4)
        scales = rng.uniform(0.1, 10.0, size=(100, 1))
        np.testing.assert_array_equal(predict(rows), predict(rows * scales))


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

    def test_dyadic_rows_and_rates_exact(self):
        # every product and sum is a dyadic rational with few bits, so
        # (1 - sum(e)) * p + e rounds nowhere and the bits are pinned
        rows = [[0.25, 0.5, 0.25], [0.125, 0.375, 0.5], [1.0, 0.0, 0.0]]
        e = [0.125, 0.0625, 0.0625]
        keep = 1 - sum(Fraction(x) for x in e)
        want = np.array(
            [[float(keep * Fraction(p) + Fraction(x)) for p, x in zip(row, e)]
             for row in rows]
        )
        assert want[0].tolist() == [0.3125, 0.4375, 0.25]
        assert np.array_equal(noisy_posterior_forward(rows, e), want)
        assert np.array_equal(noisy_posterior_forward(rows[1], e), want[1])

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.5], [0.6, 0.5])
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.5], [-0.1, 0.2])
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.5], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="finite"):
            noisy_posterior_forward([0.5, 0.5], [np.nan, 0.2])
        with pytest.raises(ValueError, match="finite"):
            posterior_correct([[0.5, 0.5]], [0.1, np.nan])

    def test_rejects_non_simplex_input(self):
        with pytest.raises(ValueError):
            noisy_posterior_forward([0.5, 0.6], [0.1, 0.1])
        with pytest.raises(ValueError):
            noisy_posterior_forward([1.2, -0.2], [0.1, 0.1])
        for bad in ([np.nan, 0.5], [np.nan, np.nan], [[0.5, 0.5], [0.5, np.nan]]):
            with pytest.raises(ValueError, match="probability vectors"):
                noisy_posterior_forward(bad, [0.1, 0.1])

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, -0.1, 0.9, 1.0 + 1e-8]
    )
    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_rejects_any_bad_entry(self, bad, k):
        # the bad value replaces the last entry of the last row, and the
        # other rows stay valid
        rows = random_simplex(np.random.default_rng(k), 6, k)
        rows[-1, -1] = bad
        with pytest.raises(ValueError, match="probability"):
            noisy_posterior_forward(rows, np.zeros(k))

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_sum_tolerance_edge(self, k):
        # k < 8 sums by a pass over the class columns, k >= 8 by numpy's
        # own row sum; both read 1e-9 the same way
        rows = random_simplex(np.random.default_rng(k), 6, k)
        within = rows.copy()
        within[np.arange(6), np.arange(6) % k] += 5e-10
        noisy_posterior_forward(within, np.zeros(k))
        for r in range(6):
            past = rows.copy()
            past[r, r % k] += 2e-9
            with pytest.raises(ValueError, match="probability"):
                noisy_posterior_forward(past, np.zeros(k))

    def test_overflowing_sum_is_refused_without_a_warning(self):
        rows = random_simplex(np.random.default_rng(12), 6, 12)
        rows[-1, :2] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="probability vectors"):
                noisy_posterior_forward(rows, np.zeros(12))


class TestPosteriorCorrect:
    def test_frozen_binary(self):
        corrected = posterior_correct([[0.52, 0.48]], [0.1, 0.3])
        np.testing.assert_allclose(corrected, [[0.42, 0.18]], atol=1e-15)
        assert predict(corrected).tolist() == [0]

    def test_rescaled_inverts_forward(self):
        rng = np.random.default_rng(11)
        P = random_simplex(rng, 100, 4)
        e = [0.1, 0.05, 0.2, 0.15]
        noisy = noisy_posterior_forward(P, e)
        back = posterior_correct(noisy, e) / (1.0 - sum(e))
        np.testing.assert_allclose(back, P, rtol=1e-12)

    def test_zero_rates_unchanged(self):
        rows = [[0.3, 0.7], [0.9, 0.1]]
        out = posterior_correct(rows, [0.0, 0.0])
        np.testing.assert_array_equal(out, rows)

    def test_accepts_symmetric_params(self):
        # symmetric parameters expand to the equal flip-in vector, which
        # is what evaluation passes
        rates = NoiseParams.symmetric(0.3).flip_rates(3)
        out = posterior_correct([[0.5, 0.3, 0.2]], rates)
        np.testing.assert_allclose(out, [[0.35, 0.15, 0.05]], atol=1e-15)

    def test_negatives_preserved_for_prediction(self):
        # an undershooting estimate goes below zero after subtraction and
        # must stay there: clamping could flip the argmax
        corrected = posterior_correct([[0.05, 0.95]], [0.1, 0.3])
        np.testing.assert_allclose(corrected, [[-0.05, 0.65]], atol=1e-15)
        assert predict(corrected).tolist() == [1]

    def test_rejects_non_finite_rows(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                posterior_correct([[0.5, 0.5], [bad, 0.5]], [0.1, 0.1])

    def test_rejects_non_matrix(self):
        for bad in ([0.5, 0.5], [[[0.5, 0.5]]], [[1.0]], 0.5):
            with pytest.raises(ValueError, match="N x K matrix"):
                posterior_correct(bad, [0.1, 0.1])


@pytest.mark.parametrize("k", [2, 3])
def test_empty_stack_of_rows_gives_empty_results(k):
    rows = np.empty((0, k))
    e = np.full(k, 0.1)
    assert predict(rows).shape == (0,)
    assert posterior_correct(rows, e).shape == (0, k)
    assert noisy_posterior_forward(rows, e).shape == (0, k)


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

