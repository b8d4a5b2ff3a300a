"""Tests for the training objective, bias terms, and exact-sum oracles."""

from dataclasses import fields

import numpy as np
import pytest

from postmax import objective
from postmax.divergence import (
    DIVERGENCE_IDS,
    _as_spec,
    _check_positive,
    get_divergence,
    optimal_T_from_posterior,
)
from postmax.noise import NoiseParams, TransitionMatrix, uniform_offdiag_matrix
from postmax.objective import (
    POSTERIOR_FLOOR,
    DiscreteJoint,
    ObjectiveConfig,
    _check_T,
    active_passive_split,
    bias_multiclass,
    bias_simplex_batch,
    corrected_grad_batch,
    corrected_grad_sample,
    corrected_jf_batch,
    cross_entropy,
    cross_entropy_logit_grad,
    exact_bias,
    exact_jf,
    exact_jf_noisy,
    jf_batch,
    jf_grad_batch,
    jf_grad_sample,
    jf_simplex_batch,
    jf_simplex_kl,
    jf_simplex_kl_logit_grad,
    jf_simplex_logit_grad_batch,
    noisy_joint,
)
from postmax.objective import (
    _bias_simplex_rows,
    _check_pmf,
    _column_width,
    _exact_bias,
    _exact_jf,
    _jf_simplex_rows,
    _onehot,
    _rate_terms,
    _raw_logit_grad,
    _row_sum_op,
    _run,
    _row_max_program,
    _simplex_logit_grad_program,
)
from postmax.noise import _check_rates, _row_labels
from postmax.posterior import _as_rows, _check_probability_rows

# Reference formulas for the checks below, written from the closed forms
# per divergence and never from the DivergenceSpec table, so comparing the
# library against them is not circular.


def bias_binary(spec, T, e0: float, e1: float) -> float:
    """Noise-induced bias of the two-class objective for flip rates e0, e1."""
    e = _check_rates([e0, e1], 2)
    spec = _as_spec(spec)
    T = _check_T(spec, T)
    if T.shape[1] != 2:
        raise ValueError("binary bias needs two output columns")
    per_sample = T @ e - e.sum() * spec.conj(T).sum(axis=1)
    return float(np.mean(per_sample))


def positive_row(D_row, label):
    """One strictly positive finite row, on the simplex or off it, and its
    label, checked as bias_simplex_batch checks its rows."""
    D = _as_rows(D_row, "positive values", ndim=1)
    _check_positive(D)
    return D, _row_labels(label, D)


def jf_simplex_gan(D_row, label) -> float:
    """GAN objective of one sample expressed in the simplex variable."""
    D, label = positive_row(D_row, label)
    return float(np.log(D[label] / (D[label] + 1.0)) - np.log1p(D).sum())


def jf_simplex_sl(D_row, label) -> float:
    """SL objective of one sample expressed in the simplex variable."""
    D, label = positive_row(D_row, label)
    inv = 1.0 / (D + 1.0)
    return float(-inv[label] + np.sum(-inv - np.log1p(D)))


def jf_simplex_grad_D(div_id, D_row, label) -> np.ndarray:
    """Gradient of the per-sample simplex objective w.r.t. D itself."""
    D, label = positive_row(D_row, label)
    if div_id == "kl":
        grad = np.zeros_like(D)
        grad[label] = 1.0 / D[label]
        return grad
    if div_id == "gan":
        grad = -1.0 / (D + 1.0)
        grad[label] += 1.0 / D[label] - 1.0 / (D[label] + 1.0)
        return grad
    if div_id == "sl":
        inv = 1.0 / (D + 1.0)
        grad = inv * inv - inv
        grad[label] += inv[label] * inv[label]
        return grad
    raise ValueError(f"unknown divergence id {div_id!r}")


def jf_simplex_grad_batch(div_id: str, D, labels) -> np.ndarray:
    """Per-sample gradients of the simplex objective w.r.t. D, stacked."""
    D, labels = _check_probability_rows(D, labels)
    n = np.arange(D.shape[0])
    if div_id == "kl":
        grad = np.zeros_like(D)
        grad[n, labels] = 1.0 / D[n, labels]
    elif div_id == "gan":
        grad = -1.0 / (D + 1.0)
        Dy = D[n, labels]
        grad[n, labels] += 1.0 / Dy - 1.0 / (Dy + 1.0)
    elif div_id == "sl":
        inv = 1.0 / (D + 1.0)
        grad = inv * inv - inv
        grad[n, labels] += inv[n, labels] ** 2
    else:
        raise ValueError(f"unknown divergence id {div_id!r}")
    return grad


def conjugate(div_id: str, t):
    """Closed-form conjugate f*(t)."""
    t = np.asarray(t, dtype=float)
    if div_id == "kl":
        return np.exp(t - 1.0)
    if div_id == "gan":
        return -np.log(1.0 - np.exp(t))
    if div_id == "sl":
        return -(np.log(-t) + t)
    raise ValueError(f"unknown divergence id {div_id!r}")


def generator_curvature(div_id: str, u):
    """Closed-form generator second derivative f''(u)."""
    u = np.asarray(u, dtype=float)
    if div_id == "kl":
        return 1.0 / u
    if div_id == "gan":
        return 1.0 / (u * (u + 1.0))
    if div_id == "sl":
        return 1.0 / (u + 1.0) ** 2
    raise ValueError(f"unknown divergence id {div_id!r}")


def bias_simplex_grad_batch(div_id: str, D, e) -> np.ndarray:
    """Per-sample gradients of the simplex-variable bias w.r.t. D."""
    D = _as_rows(D, "positive values")
    _check_positive(D)
    e = _check_rates(e, D.shape[1])
    return generator_curvature(div_id, D) * (e[None, :] - e.sum() * D)


def random_T(div_id, rng, shape):
    """In-domain, moderately sized T drawn through the posterior map."""
    p = rng.uniform(0.05, 0.95, size=shape)
    return optimal_T_from_posterior(div_id, p)


def random_joint(rng, m, k):
    pmf = rng.uniform(0.1, 1.0, size=(m, k))
    return DiscreteJoint(pmf / pmf.sum())


# (divergence, M, K) -> float.hex of _exact_jf and _exact_bias on the
# tables test_unchecked_twins_keep_their_bits draws
EXACT_TWIN_PINS = {
    ("gan", 1, 2): ("-0x1.fc00a604b4094p+0", "-0x1.42a29ba1f975cp+0"),
    ("kl", 1, 2): ("-0x1.89a11ecb350fcp+0", "-0x1.10bcb2656dd50p-1"),
    ("sl", 1, 2): ("-0x1.6c968aca8271fp+1", "-0x1.09aac97611cf3p+1"),
    ("gan", 8, 2): ("-0x1.f66e320cee1bap+0", "-0x1.ad9b5a5b026a6p-1"),
    ("kl", 8, 2): ("-0x1.069a7469d7e48p+0", "-0x1.641ed694f929ep-2"),
    ("sl", 8, 2): ("-0x1.6a08506d9f032p+1", "-0x1.c54c2d21b408ep-1"),
    ("gan", 8, 5): ("-0x1.9f85b55435770p+1", "-0x1.0dfaca8c6c15fp+1"),
    ("kl", 8, 5): ("-0x1.35db39a8359d8p+1", "-0x1.3976e495b294ap+0"),
    ("sl", 8, 5): ("-0x1.847840b27fdbbp+2", "-0x1.6ec4624812560p+1"),
    ("gan", 8, 9): ("-0x1.2d87423dc2a7bp+2", "-0x1.310867e93ac92p+1"),
    ("kl", 8, 9): ("-0x1.22820caf09d0bp+2", "-0x1.13862f5a9ea95p+1"),
    ("sl", 8, 9): ("-0x1.4da55713b5462p+3", "-0x1.aeb064f41cab7p+2"),
}


class TestJfBatch:
    def test_kl_frozen_value(self):
        # T at label is 1, and exp(1 - 1) = 1 per column: 1 - 2 = -1
        assert jf_batch("kl", [[1.0, 1.0]], [0]) == pytest.approx(-1.0)

    def test_mean_over_samples(self):
        T = [[1.0, 1.0], [1.0, 1.0]]
        assert jf_batch("kl", T, [0, 1]) == pytest.approx(-1.0)

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(7)
        for div_id in DIVERGENCE_IDS:
            T = random_T(div_id, rng, (50, 4))
            labels = rng.integers(0, 4, size=50)
            manual = np.mean(
                [
                    T[n, labels[n]] - conjugate(div_id, T[n]).sum()
                    for n in range(50)
                ]
            )
            assert jf_batch(div_id, T, labels) == pytest.approx(manual, rel=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            jf_batch("kl", [[1.0, 1.0]], [2])
        with pytest.raises(ValueError):
            jf_batch("kl", [[1.0, 1.0]], [-1])
        with pytest.raises(ValueError):
            jf_batch("kl", [[1.0, 1.0]], [0, 1])

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            jf_batch("sl", [[1.0, -0.5]], [0])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            jf_batch("kl", [1.0, 1.0], [0])


class TestGradients:
    def test_kl_frozen_gradient(self):
        np.testing.assert_allclose(
            jf_grad_sample("kl", [1.0, 1.0], 0), [0.0, -1.0], atol=1e-15
        )

    def test_gan_frozen_gradient(self):
        t = np.log(1.0 / 3.0)  # conjugate derivative is 0.5 here
        np.testing.assert_allclose(
            jf_grad_sample("gan", [t, t], 0), [0.5, -0.5], rtol=1e-12
        )

    def test_sl_frozen_gradient(self):
        np.testing.assert_allclose(
            jf_grad_sample("sl", [-0.5, -0.5], 0), [0.0, -1.0], atol=1e-15
        )

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for div_id in DIVERGENCE_IDS:
            for _ in range(20):
                T_row = random_T(div_id, rng, 3)
                label = int(rng.integers(0, 3))
                grad = jf_grad_sample(div_id, T_row, label)
                fd = np.empty(3)
                for j in range(3):
                    up, dn = T_row.copy(), T_row.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[j] = (
                        jf_batch(div_id, up[None, :], [label])
                        - jf_batch(div_id, dn[None, :], [label])
                    ) / (2 * h)
                np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(13)
        T = random_T("gan", rng, (30, 5))
        labels = rng.integers(0, 5, size=30)
        batch = jf_grad_batch("gan", T, labels)
        for n in range(30):
            np.testing.assert_array_equal(
                batch[n], jf_grad_sample("gan", T[n], labels[n])
            )

    def test_expected_gradient_vanishes_at_posterior(self):
        # drawing labels from p, the mean gradient at the matching T is zero
        rng = np.random.default_rng(17)
        for div_id in DIVERGENCE_IDS:
            p = rng.uniform(0.05, 0.95, size=4)
            p /= p.sum()
            T_row = optimal_T_from_posterior(div_id, p)
            expected = sum(
                p[y] * jf_grad_sample(div_id, T_row, y) for y in range(4)
            )
            np.testing.assert_allclose(expected, np.zeros(4), atol=1e-9)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            jf_grad_sample("kl", [1.0, 1.0], 2)


class TestBias:
    def test_binary_frozen_value(self):
        # 0.1 + 0.3 at T = 1 minus 0.4 * (two unit conjugates) = -0.4
        assert bias_binary("kl", [[1.0, 1.0]], 0.1, 0.3) == pytest.approx(-0.4)

    def test_multiclass_matches_binary(self):
        rng = np.random.default_rng(19)
        for div_id in DIVERGENCE_IDS:
            T = random_T(div_id, rng, (25, 2))
            b2 = bias_binary(div_id, T, 0.1, 0.3)
            bk = bias_multiclass(div_id, T, [0.1, 0.3])
            assert b2 == bk

    def test_rejects_bad_rates(self):
        T = [[1.0, 1.0]]
        with pytest.raises(ValueError):
            bias_binary("kl", T, 0.6, 0.5)
        with pytest.raises(ValueError):
            bias_binary("kl", T, -0.1, 0.2)
        with pytest.raises(ValueError):
            bias_multiclass("kl", T, [0.1, 0.2, 0.3])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            bias_binary("kl", [[1.0, 1.0, 1.0]], 0.1, 0.2)


class TestCorrections:
    def test_zero_rates_change_nothing(self):
        rng = np.random.default_rng(23)
        T = random_T("kl", rng, (20, 3))
        labels = rng.integers(0, 3, size=20)
        zero = [0.0, 0.0, 0.0]
        assert corrected_jf_batch("kl", T, labels, zero) == jf_batch(
            "kl", T, labels
        )
        np.testing.assert_array_equal(
            corrected_grad_batch("kl", T, labels, zero),
            jf_grad_batch("kl", T, labels),
        )

    def test_corrected_value_is_batch_minus_bias(self):
        rng = np.random.default_rng(29)
        for div_id in DIVERGENCE_IDS:
            T = random_T(div_id, rng, (15, 4))
            labels = rng.integers(0, 4, size=15)
            e = [0.05, 0.1, 0.02, 0.08]
            got = corrected_jf_batch(div_id, T, labels, e)
            want = jf_batch(div_id, T, labels) - bias_multiclass(div_id, T, e)
            assert got == pytest.approx(want, rel=1e-14)

    def test_corrected_gradient_finite_difference(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        e = [0.1, 0.05, 0.15]
        for div_id in DIVERGENCE_IDS:
            T_row = random_T(div_id, rng, 3)
            label = int(rng.integers(0, 3))
            grad = corrected_grad_sample(div_id, T_row, label, e)
            fd = np.empty(3)
            for j in range(3):
                up, dn = T_row.copy(), T_row.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    corrected_jf_batch(div_id, up[None, :], [label], e)
                    - corrected_jf_batch(div_id, dn[None, :], [label], e)
                ) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_expected_corrected_gradient_vanishes_under_noise(self):
        # labels drawn from the noisy posterior, gradient taken with the
        # correction: the mean still vanishes at the clean-posterior T
        rng = np.random.default_rng(37)
        e = np.array([0.1, 0.3])
        for div_id in DIVERGENCE_IDS:
            p = rng.uniform(0.2, 0.8, size=2)
            p /= p.sum()
            q = (1.0 - e.sum()) * p + e
            T_row = optimal_T_from_posterior(div_id, p)
            expected = sum(
                q[y] * corrected_grad_sample(div_id, T_row, y, e)
                for y in range(2)
            )
            np.testing.assert_allclose(expected, np.zeros(2), atol=1e-9)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(41)
        e = [0.05, 0.1, 0.02]
        T = random_T("sl", rng, (20, 3))
        labels = rng.integers(0, 3, size=20)
        batch = corrected_grad_batch("sl", T, labels, e)
        for n in range(20):
            np.testing.assert_allclose(
                batch[n],
                corrected_grad_sample("sl", T[n], labels[n], e),
                rtol=1e-14,
            )


    @pytest.mark.parametrize(
        "fn",
        [
            lambda T, y, e: corrected_jf_batch("sl", T, y, e),
            lambda T, y, e: corrected_grad_batch("sl", T, y, e),
        ],
        ids=["corrected_jf_batch", "corrected_grad_batch"],
    )
    def test_outputs_checked_once_per_call(self, fn, monkeypatch):
        calls = []
        check = objective._check_in_domain
        monkeypatch.setattr(
            objective, "_check_in_domain", lambda *a: calls.append(1) or check(*a)
        )
        rng = np.random.default_rng(43)
        fn(random_T("sl", rng, (6, 3)), rng.integers(0, 3, size=6), [0.05, 0.1, 0.02])
        assert len(calls) == 1


@pytest.mark.parametrize("row", [[[1.0, 1.0], [1.0, 1.0]], [1.0]], ids=["2-D", "K=1"])
@pytest.mark.parametrize(
    "fn",
    [
        lambda T: jf_grad_sample("kl", T, 0),
        lambda T: corrected_grad_sample("kl", T, 0, [0.1, 0.1]),
        lambda T: active_passive_split("kl", T, 0),
    ],
    ids=["jf_grad_sample", "corrected_grad_sample", "active_passive_split"],
)
def test_T_row_references_reject_anything_but_one_row(fn, row):
    with pytest.raises(ValueError, match="one row of network outputs"):
        fn(row)


def test_corrected_grad_sample_rejects_a_non_finite_gradient():
    # exp overflows past kl's outputs near 710: the row is in the domain,
    # and the gradient it gives is not finite
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="conjugate derivative of 'kl' produced"):
            corrected_grad_sample("kl", [800.0, 0.0], 0, [0.1, 0.1])


class TestActivePassive:
    def test_parts_sum_to_sample_term(self):
        rng = np.random.default_rng(43)
        for div_id in DIVERGENCE_IDS:
            for _ in range(25):
                T_row = random_T(div_id, rng, 4)
                label = int(rng.integers(0, 4))
                active, passive = active_passive_split(div_id, T_row, label)
                whole = jf_batch(div_id, T_row[None, :], [label])
                assert active + passive == pytest.approx(whole, abs=1e-12)

    def test_active_ignores_other_outputs(self):
        T_a = np.array([0.5, 1.0, 2.0])
        T_b = np.array([0.5, -3.0, 7.0])
        a1, _ = active_passive_split("kl", T_a, 0)
        a2, _ = active_passive_split("kl", T_b, 0)
        assert a1 == a2

    def test_passive_ignores_label_output(self):
        T_a = np.array([0.5, 1.0, 2.0])
        T_b = np.array([9.0, 1.0, 2.0])
        _, p1 = active_passive_split("kl", T_a, 0)
        _, p2 = active_passive_split("kl", T_b, 0)
        assert p1 == p2


class TestSimplexForms:
    def test_kl_at_certain_prediction(self):
        assert jf_simplex_kl([1.0, 0.0], 0) == pytest.approx(-1.0)

    def test_kl_at_uniform_ten_classes(self):
        D = np.full(10, 0.1)
        assert jf_simplex_kl(D, 3) == pytest.approx(np.log(0.1) - 1.0)

    def test_kl_is_negative_cross_entropy_shifted(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            D = rng.uniform(0.05, 1.0, size=5)
            D /= D.sum()
            y = int(rng.integers(0, 5))
            assert jf_simplex_kl(D, y) == pytest.approx(
                -cross_entropy(D, y) - 1.0, rel=1e-14
            )

    def test_kl_logit_grad_negates_cross_entropy_grad(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            D = rng.uniform(0.05, 1.0, size=6)
            D /= D.sum()
            y = int(rng.integers(0, 6))
            np.testing.assert_allclose(
                jf_simplex_kl_logit_grad(D, y),
                -cross_entropy_logit_grad(D, y),
                atol=1e-12,
            )

    def test_kl_logit_grad_finite_difference(self):
        rng = np.random.default_rng(59)
        h = 1e-6
        v = rng.normal(size=5)
        y = 2

        def value(logits):
            z = np.exp(logits - logits.max())
            return jf_simplex_kl(z / z.sum(), y)

        z = np.exp(v - v.max())
        grad = jf_simplex_kl_logit_grad(z / z.sum(), y)
        fd = np.empty(5)
        for j in range(5):
            up, dn = v.copy(), v.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (value(up) - value(dn)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_gan_matches_substitution(self):
        # evaluating in the simplex variable equals plugging the optimal
        # T for that row into the generic objective, term by term
        rng = np.random.default_rng(61)
        for _ in range(30):
            D = rng.uniform(0.05, 1.0, size=4)
            D /= D.sum()
            y = int(rng.integers(0, 4))
            T_row = optimal_T_from_posterior("gan", D)
            direct = jf_batch("gan", T_row[None, :], [y])
            assert jf_simplex_gan(D, y) == pytest.approx(direct, abs=1e-12)

    def test_sl_matches_substitution(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            D = rng.uniform(0.05, 1.0, size=4)
            D /= D.sum()
            y = int(rng.integers(0, 4))
            T_row = optimal_T_from_posterior("sl", D)
            direct = jf_batch("sl", T_row[None, :], [y])
            assert jf_simplex_sl(D, y) == pytest.approx(direct, abs=1e-12)

    def test_kl_substitution_offset_is_one(self):
        # the raw substitution carries a constant +1 that the simplex
        # form drops; the difference must be exactly that constant
        rng = np.random.default_rng(71)
        for _ in range(30):
            D = rng.uniform(0.05, 1.0, size=4)
            D /= D.sum()
            y = int(rng.integers(0, 4))
            T_row = optimal_T_from_posterior("kl", D)
            direct = jf_batch("kl", T_row[None, :], [y])
            assert direct - jf_simplex_kl(D, y) == pytest.approx(1.0, abs=1e-12)

    def test_grad_D_finite_difference(self):
        rng = np.random.default_rng(73)
        h = 1e-7
        values = {"gan": jf_simplex_gan, "sl": jf_simplex_sl}
        for div_id, fn in values.items():
            for _ in range(15):
                D = rng.uniform(0.1, 1.0, size=4)
                y = int(rng.integers(0, 4))
                grad = jf_simplex_grad_D(div_id, D, y)
                fd = np.empty(4)
                for j in range(4):
                    up, dn = D.copy(), D.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[j] = (fn(up, y) - fn(dn, y)) / (2 * h)
                np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_grad_D_kl_frozen(self):
        np.testing.assert_allclose(
            jf_simplex_grad_D("kl", [0.25, 0.25, 0.5], 2),
            [0.0, 0.0, 2.0],
            rtol=1e-15,
        )

    def test_rejects_zero_component(self):
        with pytest.raises(ValueError):
            jf_simplex_gan([1.0, 0.0], 0)
        with pytest.raises(ValueError):
            jf_simplex_sl([1.0, 0.0], 0)

    def test_kl_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            jf_simplex_kl([0.5, 0.6], 0)
        # a NaN component passes both the sign and the sum comparison
        for fn in (jf_simplex_kl, cross_entropy, jf_simplex_kl_logit_grad,
                   cross_entropy_logit_grad):
            for row in ([np.nan, 1.0], [np.inf, 1.0]):
                with pytest.raises(ValueError, match="finite"):
                    fn(row, 1)

    def test_grad_D_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            jf_simplex_grad_D("js", [0.5, 0.5], 0)


class TestSimplexBatch:
    def test_value_matches_per_row(self):
        rng = np.random.default_rng(103)
        fns = {"kl": jf_simplex_kl, "gan": jf_simplex_gan, "sl": jf_simplex_sl}
        D = rng.uniform(0.05, 1.0, size=(40, 5))
        D /= D.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 5, size=40)
        for div_id, fn in fns.items():
            want = np.mean([fn(D[i], labels[i]) for i in range(40)])
            assert jf_simplex_batch(div_id, D, labels) == pytest.approx(
                want, rel=1e-13
            )

    def test_grad_matches_per_row(self):
        rng = np.random.default_rng(107)
        D = rng.uniform(0.05, 1.0, size=(30, 4))
        D /= D.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=30)
        for div_id in DIVERGENCE_IDS:
            batch = jf_simplex_grad_batch(div_id, D, labels)
            for i in range(30):
                np.testing.assert_allclose(
                    batch[i],
                    jf_simplex_grad_D(div_id, D[i], labels[i]),
                    rtol=1e-13,
                )

    def test_kl_bias_equals_weighted_log_mean(self):
        # on simplex rows the linear and conjugate constants cancel,
        # leaving the flip-rate-weighted mean of log D
        rng = np.random.default_rng(109)
        D = rng.uniform(0.05, 1.0, size=(25, 3))
        D /= D.sum(axis=1, keepdims=True)
        e = np.array([0.1, 0.05, 0.2])
        want = float(np.mean(np.log(D) @ e))
        assert bias_simplex_batch("kl", D, e) == pytest.approx(want, rel=1e-12)

    def test_bias_matches_T_space_bias(self):
        rng = np.random.default_rng(113)
        D = rng.uniform(0.05, 1.0, size=(20, 4))
        D /= D.sum(axis=1, keepdims=True)
        e = [0.05, 0.1, 0.02, 0.08]
        for div_id in DIVERGENCE_IDS:
            T = optimal_T_from_posterior(div_id, D)
            assert bias_simplex_batch(div_id, D, e) == pytest.approx(
                bias_multiclass(div_id, T, e), rel=1e-12
            )

    def test_bias_rejects_an_overflowing_conjugate(self):
        # rows inside f''s domain whose conjugate overflows; pyproject.toml
        # turns a numpy warning into an error, so these must be ValueErrors
        D, e = [[1e308, 1e308]], [0.1, 0.1]
        for div_id in ("kl", "gan"):
            with pytest.raises(ValueError, match="non-finite"):
                bias_simplex_batch(div_id, D, e)
        assert bias_simplex_batch("sl", D, e) == pytest.approx(-283.678, rel=1e-5)

    def test_bias_grad_finite_difference(self):
        rng = np.random.default_rng(127)
        h = 1e-7
        e = [0.1, 0.05, 0.15]
        for div_id in DIVERGENCE_IDS:
            D = rng.uniform(0.2, 0.8, size=(1, 3))
            grad = bias_simplex_grad_batch(div_id, D, e)[0]
            fd = np.empty(3)
            for j in range(3):
                up, dn = D.copy(), D.copy()
                up[0, j] += h
                dn[0, j] -= h
                # the bias formula itself is defined off the simplex
                fd[j] = (
                    bias_simplex_batch(div_id, up, e)
                    - bias_simplex_batch(div_id, dn, e)
                ) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_unchecked_twins_match_public(self, div_id):
        # floored softmax rows, as the per-epoch training objective sees them
        rng = np.random.default_rng(167)
        D = rng.uniform(0.05, 1.0, size=(30, 4))
        D[:2] = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]]
        D = np.maximum(D / D.sum(axis=1, keepdims=True), POSTERIOR_FLOOR)
        labels = rng.integers(0, 4, size=30)
        e = np.array([0.1, 0.05, 0.15, 0.02])
        spec = get_divergence(div_id)
        # the rows the product path reads, reduced as the public functions reduce
        jf_rows = _jf_simplex_rows(spec, D, labels)
        assert jf_rows.mean() == jf_simplex_batch(div_id, D, labels)
        assert _bias_simplex_rows(spec, D, e).mean() == bias_simplex_batch(div_id, D, e)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            jf_simplex_batch("kl", [[0.5, 0.6]], [0])
        with pytest.raises(ValueError):
            jf_simplex_batch("gan", [[0.0, 1.0]], [0])
        with pytest.raises(ValueError):
            jf_simplex_batch("js", [[0.5, 0.5]], [0])

    def test_zero_away_from_the_label_matches_the_per_row_reference(self):
        # the label-positivity rule reads the label's component only
        row = [1.0, 0.0, 0.0]
        assert jf_simplex_batch("kl", [row], [0]) == jf_simplex_kl(row, 0) == -1.0
        with pytest.raises(ValueError, match="component at the label"):
            jf_simplex_batch("kl", [row], [1])


def simplex_logit_grad(spec, D, onehot, rates):
    """_simplex_logit_grad_program run into new arrays, with no checks."""
    col = np.empty(D.shape[:-1] + (_column_width(D.shape[-1]),))
    out, work = np.empty(D.shape), (np.empty(D.shape), col)
    _run(_simplex_logit_grad_program(spec, D, onehot, rates, out, work))
    return out


class TestSimplexLogitGrad:
    def interior_rows(self, seed, n=25, k=4):
        rng = np.random.default_rng(seed)
        D = rng.uniform(0.05, 1.0, size=(n, k))
        D /= D.sum(axis=1, keepdims=True)
        return D, rng.integers(0, k, size=n)

    def test_matches_factored_route_interior(self):
        D, labels = self.interior_rows(131)
        for div_id in DIVERGENCE_IDS:
            g = jf_simplex_grad_batch(div_id, D, labels)
            factored = D * (g - np.sum(g * D, axis=1, keepdims=True))
            fused = jf_simplex_logit_grad_batch(div_id, D, labels)
            np.testing.assert_allclose(fused, factored, rtol=1e-12, atol=1e-14)

    def test_matches_factored_route_with_bias(self):
        D, labels = self.interior_rows(133)
        e = [0.1, 0.05, 0.15, 0.02]
        for div_id in DIVERGENCE_IDS:
            g = jf_simplex_grad_batch(div_id, D, labels)
            g = g - bias_simplex_grad_batch(div_id, D, e)
            factored = D * (g - np.sum(g * D, axis=1, keepdims=True))
            fused = jf_simplex_logit_grad_batch(div_id, D, labels, e)
            np.testing.assert_allclose(fused, factored, rtol=1e-12, atol=1e-14)

    def test_kl_matches_per_row_helper(self):
        D, labels = self.interior_rows(137)
        fused = jf_simplex_logit_grad_batch("kl", D, labels)
        for i in range(D.shape[0]):
            np.testing.assert_allclose(
                fused[i], jf_simplex_kl_logit_grad(D[i], labels[i]), atol=1e-14
            )

    def test_finite_on_simplex_boundary(self):
        # exact zeros appear when a softmax saturates; gradients must
        # remain finite there for every divergence
        D = np.array([[1.0, 0.0, 0.0], [0.7, 0.3, 0.0]])
        labels = [0, 1]
        e = [0.1, 0.05, 0.15]
        for div_id in DIVERGENCE_IDS:
            for rates in (None, e):
                out = jf_simplex_logit_grad_batch(div_id, D, labels, rates)
                assert np.all(np.isfinite(out))

    def test_kl_boundary_matches_closed_form(self):
        D = np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]])
        labels = np.array([0, 0, 1])
        e = np.array([0.1, 0.3])
        onehot = np.eye(2)[labels]
        plain = jf_simplex_logit_grad_batch("kl", D, labels)
        np.testing.assert_allclose(plain, onehot - D, atol=1e-15)
        corrected = jf_simplex_logit_grad_batch("kl", D, labels, e)
        want = (onehot - D) - (e[None, :] - e.sum() * D)
        np.testing.assert_allclose(corrected, want, atol=1e-15)

    def test_finite_difference_through_softmax(self):
        rng = np.random.default_rng(139)
        h = 1e-6
        e = [0.1, 0.2, 0.05]
        softmax = lambda v: np.exp(v - v.max()) / np.exp(v - v.max()).sum()
        for div_id in DIVERGENCE_IDS:
            v = rng.normal(size=3)
            label = int(rng.integers(0, 3))
            for rates in (None, e):
                def value(vec):
                    row = softmax(vec)[None, :]
                    val = jf_simplex_batch(div_id, row, [label])
                    if rates is not None:
                        val -= bias_simplex_batch(div_id, row, rates)
                    return val

                grad = jf_simplex_logit_grad_batch(
                    div_id, softmax(v)[None, :], [label], rates
                )[0]
                fd = np.empty(3)
                for j in range(3):
                    up, dn = v.copy(), v.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[j] = (value(up) - value(dn)) / (2 * h)
                np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    @pytest.mark.parametrize("rates", [None, [0.1, 0.05, 0.15, 0.02]])
    def test_unchecked_kernel_matches_public(self, div_id, rates):
        D, labels = self.interior_rows(141)
        # rows with components that are exactly zero, as a saturated
        # softmax produces them
        D[:3] = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.4, 0.0], [0.0, 0.0, 0.0, 1.0]]
        e = None if rates is None else np.array(rates)
        assert np.array_equal(
            simplex_logit_grad(
                get_divergence(div_id), D, _onehot(labels, 4), _rate_terms(e)
            ),
            jf_simplex_logit_grad_batch(div_id, D, labels, rates),
        )

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_stacked_kernel_matches_each_slice(self, div_id):
        # one call over (M, N, K) rows, with a zero rate row for a slice
        # that has no rates, gives each slice's own gradient bit for bit
        spec = get_divergence(div_id)
        slices = [self.interior_rows(seed) for seed in (151, 157, 163)]
        D = np.stack([rows for rows, _ in slices])
        onehot = np.stack([_onehot(labels, 4) for _, labels in slices])
        rates = [None, np.array([0.1, 0.05, 0.15, 0.02]), np.array([0.2, 0, 0.1, 0.1])]
        e = np.stack([np.zeros(4) if r is None else r for r in rates])
        stacked = simplex_logit_grad(spec, D, onehot, _rate_terms(e))
        for m, ((rows, labels), r) in enumerate(zip(slices, rates)):
            assert np.array_equal(
                stacked[m], jf_simplex_logit_grad_batch(div_id, rows, labels, r)
            )

    def test_rejects_off_simplex_rows(self):
        with pytest.raises(ValueError, match="simplex"):
            jf_simplex_logit_grad_batch("kl", [[0.5, 0.6]], [0])
        with pytest.raises(ValueError):
            jf_simplex_logit_grad_batch("kl", [[-0.1, 1.1]], [0])

    def test_rejects_bad_labels_and_rates(self):
        D = [[0.5, 0.5], [0.25, 0.75]]
        with pytest.raises(ValueError, match="labels"):
            jf_simplex_logit_grad_batch("kl", D, [0, 2])
        with pytest.raises(ValueError, match="labels"):
            jf_simplex_logit_grad_batch("kl", D, [0])
        with pytest.raises(ValueError, match="flip rates"):
            jf_simplex_logit_grad_batch("kl", D, [0, 1], [0.6, 0.5])
        with pytest.raises(ValueError, match="flip rates"):
            jf_simplex_logit_grad_batch("kl", D, [0, 1], [0.1, 0.1, 0.1])


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestRowReductions:
    """_row_max_program's and _row_sum_op's calls against numpy's own
    last-axis reductions, in every entry of their _column_width column."""

    @staticmethod
    def column(a):
        return np.empty(a.shape[:-1] + (_column_width(a.shape[-1]),))

    def spread(self, rng, shape):
        # entries over 16 decades, and zeros of both signs
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        a[..., 0, :1] = 0.0
        a[..., 1, :1] = -0.0
        return a

    def arrays(self, k):
        # (M, B, K) rows, the first rows of one as a ragged last batch
        # reads them, and (N, K) rows
        rng = np.random.default_rng(181 + k)
        full = self.spread(rng, (3, 32, k))
        return [full, full[:, :7, :], self.spread(rng, (15, 32, k))[:, :31],
                self.spread(rng, (800, k)), self.spread(rng, (1, 2, k))]

    @pytest.mark.parametrize("k", [*range(2, 13), 24, 25, 1000])
    def test_row_max_equals_maximum_reduce(self, k):
        for a in self.arrays(k):
            out = self.column(a)
            want = np.maximum.reduce(a, axis=-1, keepdims=True)
            _run(_row_max_program(a, out))
            assert same_bits(out, np.broadcast_to(want, out.shape))

    @pytest.mark.parametrize(
        "shape, calls",
        [
            ((3, 32, 2), 1),  # two columns: one np.maximum
            ((1, 1, 32, 2), 1),
            ((3, 32, 4), 3),  # 96 rows >= 20 x 4: running
            ((3, 32, 5), 1),  # 96 rows < 20 x 5: the reduction
            ((10, 32, 16), 15),
            ((1024, 24), 23),
            ((1024, 25), 1),  # past 24 columns: the reduction
            ((3, 32, 1000), 1),
        ],
    )
    def test_row_max_runs_where_it_was_timed_faster(self, shape, calls):
        a = np.zeros(shape)
        assert len(_row_max_program(a, self.column(a))) == calls

    @pytest.mark.parametrize("k", range(2, 13))
    def test_row_sum_equals_add_reduce(self, k):
        for a in self.arrays(k):
            out = self.column(a)
            want = np.broadcast_to(np.add.reduce(a, axis=-1, keepdims=True), out.shape)
            assert same_bits(_row_sum_op(a)(), want)
            assert _row_sum_op(a, out)() is out and same_bits(out, want)

    def test_two_negative_zeros_keep_their_sign(self):
        # the one row where two columns' sum differs from the reduction's
        a = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])
        assert same_bits(_row_sum_op(a)(), [[-0.0, -0.0], [0.0, 0.0], [0.0, 0.0]])
        assert same_bits(np.add.reduce(a, axis=-1, keepdims=True), np.zeros((3, 1)))


@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_raw_kernel_zero_rate_row_is_no_rates(div_id):
    # one call over (M, N, K) raw outputs, with a zero rate row for a
    # member that has no rates, gives each member's own gradient bit for bit
    spec = get_divergence(div_id)
    rng = np.random.default_rng(167)
    v = rng.normal(scale=3.0, size=(3, 20, 4))
    onehot = _onehot(rng.integers(0, 4, size=(3, 20)), 4)
    rates = [None, np.array([0.1, 0.05, 0.15, 0.02]), np.array([0.2, 0, 0.1, 0.1])]
    e = np.stack([np.zeros(4) if r is None else r for r in rates])
    stacked = _raw_logit_grad(spec, v, onehot, _rate_terms(e))
    for m, r in enumerate(rates):
        assert np.array_equal(
            stacked[m], _raw_logit_grad(spec, v[m], onehot[m], _rate_terms(r))
        )
    assert np.array_equal(
        _raw_logit_grad(spec, v, onehot, _rate_terms(np.zeros((3, 4)))),
        _raw_logit_grad(spec, v, onehot, None),
    )


@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_spec_object_and_id_give_identical_results(div_id):
    rng = np.random.default_rng(149)
    spec = get_divergence(div_id)
    D = rng.uniform(0.05, 1.0, size=(20, 4))
    D /= D.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, size=20)
    e = [0.1, 0.05, 0.15, 0.02]
    T = random_T(div_id, rng, (20, 4))
    for fn, args in (
        (jf_simplex_batch, (D, labels)),
        (bias_simplex_batch, (D, e)),
        (jf_simplex_logit_grad_batch, (D, labels)),
        (jf_simplex_logit_grad_batch, (D, labels, e)),
        (jf_batch, (T, labels)),
        (jf_grad_batch, (T, labels)),
        (corrected_jf_batch, (T, labels, e)),
        (corrected_grad_batch, (T, labels, e)),
    ):
        assert np.array_equal(fn(spec, *args), fn(div_id, *args)), fn.__name__


class TestDiscreteJoint:
    def test_marginal_and_posterior(self):
        joint = DiscreteJoint([[0.28, 0.12], [0.18, 0.42]])
        np.testing.assert_allclose(joint.p_x, [0.4, 0.6])
        np.testing.assert_allclose(joint.posterior, [[0.7, 0.3], [0.3, 0.7]])

    def test_rejects_bad_pmf(self):
        with pytest.raises(ValueError):
            DiscreteJoint([[0.5, 0.6]])
        with pytest.raises(ValueError):
            DiscreteJoint([[0.9, -0.1], [0.1, 0.1]])
        with pytest.raises(ValueError):
            DiscreteJoint([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            DiscreteJoint([0.5, 0.5])

    def test_rejects_nan(self):
        # NaN fails every comparison, so the total's test must fail on it
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteJoint([[np.nan, 0.5], [0.25, 0.25]])

    def test_stacked_pmf_checks_every_table(self):
        good = np.full((4, 3, 2), 1.0 / 6.0)
        _check_pmf(good)
        for index, value, match in (
            ((2, 0, 0), -1e-3, "nonnegative"),
            ((3, 1, 1), 0.5, "sum to 1"),
            ((1, 0, 0), np.nan, "sum to 1"),
        ):
            bad = good.copy()
            bad[index] = value
            with pytest.raises(ValueError, match=match):
                _check_pmf(bad)
        empty_point = np.zeros((2, 2, 2))
        empty_point[:, 0] = 0.5
        with pytest.raises(ValueError, match="positive probability"):
            _check_pmf(empty_point)

    def test_pmf_read_only(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        with pytest.raises(ValueError):
            joint.pmf[0, 0] = 0.9


class TestExactOracles:
    def test_identity_matrix_changes_nothing(self):
        rng = np.random.default_rng(79)
        joint = random_joint(rng, 6, 3)
        T = random_T("kl", rng, (6, 3))
        eye = TransitionMatrix(np.eye(3))
        assert exact_jf_noisy("kl", joint, eye, T) == exact_jf("kl", joint, T)

    def test_noisy_joint_frozen_binary(self):
        # 0.7 * 0.7 + 0.3 * 0.1 = 0.52 and 0.7 * 0.3 + 0.3 * 0.7 = 0.48
        joint = DiscreteJoint([[0.7, 0.3]])
        tm = TransitionMatrix([[0.7, 0.3], [0.1, 0.9]])
        noisy = noisy_joint(joint, tm)
        np.testing.assert_allclose(noisy.pmf, [[0.52, 0.48]], atol=1e-15)

    def test_binary_identity_quick(self):
        # noisy value = (1 - e0 - e1) * clean value + bias, exactly
        rng = np.random.default_rng(83)
        for trial in range(10):
            e0, e1 = rng.uniform(0.01, 0.45, size=2)
            tm = TransitionMatrix([[1.0 - e1, e1], [e0, 1.0 - e0]])
            joint = random_joint(rng, 5, 2)
            for div_id in DIVERGENCE_IDS:
                T = random_T(div_id, rng, (5, 2))
                lhs = exact_jf_noisy(div_id, joint, tm, T)
                rhs = (1.0 - e0 - e1) * exact_jf(div_id, joint, T) + exact_bias(
                    div_id, joint, T, [e0, e1]
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_multiclass_identity_quick(self):
        rng = np.random.default_rng(89)
        for trial in range(10):
            e = rng.uniform(0.01, 0.15, size=5)
            tm = uniform_offdiag_matrix(e)
            joint = random_joint(rng, 4, 5)
            for div_id in DIVERGENCE_IDS:
                T = random_T(div_id, rng, (4, 5))
                lhs = exact_jf_noisy(div_id, joint, tm, T)
                rhs = (1.0 - e.sum()) * exact_jf(div_id, joint, T) + exact_bias(
                    div_id, joint, T, e
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_correction_recovers_scaled_clean_value(self):
        rng = np.random.default_rng(97)
        e = np.array([0.1, 0.2, 0.05])
        tm = uniform_offdiag_matrix(e)
        joint = random_joint(rng, 5, 3)
        for div_id in DIVERGENCE_IDS:
            T = random_T(div_id, rng, (5, 3))
            corrected = exact_jf_noisy(div_id, joint, tm, T) - exact_bias(
                div_id, joint, T, e
            )
            assert corrected == pytest.approx(
                (1.0 - e.sum()) * exact_jf(div_id, joint, T), abs=1e-12
            )

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_unchecked_twins_equal_public_functions(self, div_id):
        rng = np.random.default_rng(101)
        spec = get_divergence(div_id)
        for m, k in ((8, 2), (8, 5), (3, 4)):
            joint = random_joint(rng, m, k)
            T = random_T(div_id, rng, (m, k))
            e = rng.uniform(0.01, 0.9 / k, size=k)
            conj_rows = spec.conj(T).sum(axis=1)
            assert _exact_jf(joint.pmf, T, conj_rows) == exact_jf(div_id, joint, T)
            assert _exact_bias(joint.pmf, T, conj_rows, e) == exact_bias(
                div_id, joint, T, e
            )
            tm = uniform_offdiag_matrix(e)
            assert _exact_jf(
                joint.pmf @ tm.entries, T, conj_rows
            ) == exact_jf_noisy(div_id, joint, tm, T)

    def test_unchecked_twins_keep_their_bits(self):
        # float.hex of _exact_jf and _exact_bias per (divergence, M, K) as
        # the 2-D forms computed them before they took leading axes
        rng = np.random.default_rng(113)
        for (div_id, m, k), want in EXACT_TWIN_PINS.items():
            spec = get_divergence(div_id)
            pmf = rng.uniform(0.1, 1.0, size=(m, k))
            pmf /= pmf.sum()
            T = spec.f_prime(rng.uniform(0.05, 0.95, size=(m, k)))
            e = rng.uniform(0.01, 0.9 / k, size=k)
            conj_rows = spec.conj(T).sum(axis=1)
            got = (
                float(_exact_jf(pmf, T, conj_rows)).hex(),
                float(_exact_bias(pmf, T, conj_rows, e)).hex(),
            )
            assert got == want, (div_id, m, k)

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_unchecked_twins_stack_table_by_table(self, div_id):
        rng = np.random.default_rng(127)
        spec = get_divergence(div_id)
        for shape in ((6, 8, 3), (2, 3, 4, 2), (1, 1, 2)):
            pmf = rng.uniform(0.1, 1.0, size=shape)
            pmf /= pmf.sum(axis=(-2, -1), keepdims=True)
            T = random_T(div_id, rng, shape)
            e = rng.uniform(0.01, 0.9 / shape[-1], size=shape[:-2] + shape[-1:])
            conj_rows = spec.conj(T).sum(axis=-1)
            jf = _exact_jf(pmf, T, conj_rows)
            bias = _exact_bias(pmf, T, conj_rows, e)
            assert jf.shape == bias.shape == shape[:-2]
            for i in np.ndindex(*shape[:-2]):
                assert same_bits(jf[i], _exact_jf(pmf[i], T[i], conj_rows[i]))
                assert same_bits(
                    bias[i], _exact_bias(pmf[i], T[i], conj_rows[i], e[i])
                )

    def test_shape_mismatch_rejected(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        with pytest.raises(ValueError):
            exact_jf("kl", joint, np.ones((2, 2)))
        with pytest.raises(ValueError):
            noisy_joint(joint, TransitionMatrix(np.eye(3)))


class TestObjectiveConfig:
    def test_accepts_plain_training(self):
        cfg = ObjectiveConfig(divergence="kl")
        assert cfg.correction == "none"
        # the head is the model's MlpSpec's, not the objective's
        assert [f.name for f in fields(cfg)] == ["divergence", "correction", "noise"]

    def test_accepts_correction_with_noise(self):
        noise = NoiseParams.uniform_offdiag([0.1, 0.3])
        cfg = ObjectiveConfig(
            divergence="gan", correction="objective", noise=noise
        )
        assert cfg.noise is noise

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(divergence="js")
        with pytest.raises(ValueError):
            ObjectiveConfig(divergence="kl", correction="both")

    def test_rejects_spec_object(self):
        # only a registered id is accepted; a spec object used to pass
        # here and fail at the first training step
        with pytest.raises(ValueError, match="unknown divergence id"):
            ObjectiveConfig(get_divergence("kl"))

    def test_rejects_correction_without_noise(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(divergence="kl", correction="objective")
