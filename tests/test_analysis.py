"""Tests for pointwise optima, bias bounds, and theorem-verification drivers."""

import json
import math

import numpy as np
import pytest

from postmax.analysis import (
    _solve_pointwise,
    _target_posterior,
    check_argmax_invariance,
    check_binary_identity,
    check_correction_exactness,
    check_first_order_bias,
    check_multiclass_identity,
    check_pointwise_optimum,
    check_posterior_gap_bound,
    rates_from_transition,
    taylor_bias_bound,
    training_bias_expression,
    verify_theorems,
)
from postmax.divergence import (
    DIVERGENCE_IDS,
    get_divergence,
    optimal_T_from_posterior,
    posterior_from_T,
)
from postmax.noise import TransitionMatrix, symmetric_matrix, uniform_offdiag_matrix
from postmax.objective import DiscreteJoint, exact_bias


def solve_optimal_T_discrete(div_id, joint, tm=None):
    """Closed-form and searched optimal T tables under optional noise."""
    return _solve_pointwise(get_divergence(div_id), _target_posterior(joint, tm))


class TestRatesFromTransition:
    def test_extracts_uniform_offdiag(self):
        tm = uniform_offdiag_matrix([0.1, 0.05, 0.2])
        np.testing.assert_allclose(rates_from_transition(tm), [0.1, 0.05, 0.2])

    def test_symmetric_is_a_special_case(self):
        tm = symmetric_matrix(4, 0.3)
        np.testing.assert_allclose(rates_from_transition(tm), np.full(4, 0.1))

    def test_rejects_non_uniform_structure(self):
        tm = TransitionMatrix(
            [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]]
        )
        with pytest.raises(ValueError):
            rates_from_transition(tm)

    def test_rejects_total_mass_one(self):
        tm = TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            rates_from_transition(tm)


class TestSolveOptimalT:
    def test_clean_kl_closed_form(self):
        joint = DiscreteJoint([[0.28, 0.12], [0.18, 0.42]])
        sol = solve_optimal_T_discrete("kl", joint)
        np.testing.assert_allclose(
            sol.closed_form, np.log(joint.posterior) + 1.0, rtol=1e-12
        )

    def test_binary_noisy_posterior(self):
        # the searched route must land on the same noisy posterior as
        # the affine closed form
        joint = DiscreteJoint([[0.7, 0.3]])
        tm = uniform_offdiag_matrix([0.1, 0.3])
        for div_id in DIVERGENCE_IDS:
            sol = solve_optimal_T_discrete(div_id, joint, tm)
            np.testing.assert_allclose(
                posterior_from_T(div_id, sol.closed_form),
                [[0.52, 0.48]],
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                posterior_from_T(div_id, sol.searched),
                [[0.52, 0.48]],
                atol=1e-6,
            )

    def test_identity_noise_equals_clean(self):
        joint = DiscreteJoint([[0.28, 0.12], [0.18, 0.42]])
        eye = TransitionMatrix(np.eye(2))
        clean = solve_optimal_T_discrete("gan", joint)
        noisy = solve_optimal_T_discrete("gan", joint, eye)
        np.testing.assert_array_equal(clean.closed_form, noisy.closed_form)

    def test_routes_agree_in_posterior_space(self):
        rng = np.random.default_rng(7)
        for div_id in DIVERGENCE_IDS:
            pmf = rng.uniform(0.1, 1.0, size=(4, 3))
            joint = DiscreteJoint(pmf / pmf.sum())
            tm = uniform_offdiag_matrix([0.1, 0.05, 0.15])
            sol = solve_optimal_T_discrete(div_id, joint, tm)
            assert sol.max_posterior_gap(div_id) <= 1e-6

    def test_batch_search_equals_one_joint_at_a_time(self):
        # every element stops on its own test, so batching changes no bit
        rng = np.random.default_rng(3)
        joints = [
            DiscreteJoint(pmf / pmf.sum())
            for pmf in (rng.uniform(0.1, 1.0, size=(m, 3)) for m in (2, 5, 3))
        ]
        tm = uniform_offdiag_matrix([0.1, 0.05, 0.15])
        for div_id in DIVERGENCE_IDS:
            single = [solve_optimal_T_discrete(div_id, j, tm) for j in joints]
            targets = np.concatenate([_target_posterior(j, tm) for j in joints])
            batch = _solve_pointwise(get_divergence(div_id), targets)
            np.testing.assert_array_equal(
                batch.searched, np.concatenate([s.searched for s in single])
            )
            np.testing.assert_array_equal(
                batch.closed_form, np.concatenate([s.closed_form for s in single])
            )

    def test_class_count_mismatch(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        with pytest.raises(ValueError):
            solve_optimal_T_discrete("kl", joint, TransitionMatrix(np.eye(3)))


class TestTaylorBiasBound:
    def test_zero_at_equality(self):
        T = np.array([1.0, 1.0])
        assert taylor_bias_bound("kl", T, T) == 0.0

    def test_frozen_kl_value(self):
        # norms computed by hand: sqrt(0.02) * sqrt(e^0.2 + e^-0.2)
        got = taylor_bias_bound("kl", [1.0, 1.0], [1.1, 0.9])
        want = math.sqrt(0.02) * math.sqrt(math.exp(0.2) + math.exp(-0.2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            taylor_bias_bound("sl", [-0.5, -0.5], [-0.5, 0.5])
        with pytest.raises(ValueError):
            taylor_bias_bound("sl", [-0.5, 0.5], [-0.5, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            taylor_bias_bound("kl", [1.0, 1.0], [1.0, 1.0, 1.0])

    def test_dominates_small_posterior_gaps(self):
        # quick version of the near-convergence sweep
        rng = np.random.default_rng(11)
        for div_id in DIVERGENCE_IDS:
            held = 0
            for _ in range(500):
                p = rng.uniform(0.05, 0.95, size=4)
                T_star = optimal_T_from_posterior(div_id, p)
                T_i = T_star - rng.uniform(-1e-2, 1e-2, size=4)
                bound = taylor_bias_bound(div_id, T_star, T_i)
                gap = np.sum(
                    np.abs(
                        posterior_from_T(div_id, T_star)
                        - posterior_from_T(div_id, T_i)
                    )
                )
                held += gap <= bound
            assert held >= 495


class TestTrainingBiasExpression:
    def test_zero_everything(self):
        T = optimal_T_from_posterior("kl", np.array([0.5, 0.3, 0.2]))
        out = training_bias_expression(
            "kl", [0.5, 0.3, 0.2], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], T
        )
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_zero_delta_gives_pure_noise_bias(self):
        p = np.array([0.5, 0.3, 0.2])
        e = np.array([0.1, 0.05, 0.15])
        T = optimal_T_from_posterior("gan", (1 - e.sum()) * p + e)
        out = training_bias_expression("gan", p, e, np.zeros(3), T)
        np.testing.assert_allclose(out, e.sum() * p - e, rtol=1e-12)

    def test_matches_direct_bias_for_small_delta(self):
        rng = np.random.default_rng(13)
        for div_id in DIVERGENCE_IDS:
            for _ in range(100):
                p = rng.uniform(0.1, 1.0, size=3)
                p /= p.sum()
                raw = rng.uniform(0.0, 1.0, size=3)
                e = raw / raw.sum() * 0.3
                q = (1 - e.sum()) * p + e
                T_noisy = optimal_T_from_posterior(div_id, q)
                delta = rng.uniform(-1e-3, 1e-3, size=3)
                expr = training_bias_expression(div_id, p, e, delta, T_noisy)
                direct = p - posterior_from_T(div_id, T_noisy - delta)
                np.testing.assert_allclose(expr, direct, atol=1e-4)

    def test_stacked_rows_match_row_by_row(self):
        rng = np.random.default_rng(19)
        p = rng.uniform(0.1, 1.0, size=(6, 3))
        p /= p.sum(axis=1, keepdims=True)
        raw = rng.uniform(0.0, 1.0, size=(6, 3))
        # each row's rates sum below 1, all rows together do not
        e = raw / raw.sum(axis=1, keepdims=True) * 0.4
        delta = rng.uniform(-1e-3, 1e-3, size=(6, 3))
        for div_id in DIVERGENCE_IDS:
            q = (1.0 - e.sum(axis=1, keepdims=True)) * p + e
            T = optimal_T_from_posterior(div_id, q)
            stacked = training_bias_expression(div_id, p, e, delta, T)
            rows = [
                training_bias_expression(div_id, p[i], e[i], delta[i], T[i])
                for i in range(6)
            ]
            np.testing.assert_array_equal(stacked, np.array(rows))
        e[4] = [0.5, 0.3, 0.2]
        with pytest.raises(ValueError, match="flip rates"):
            training_bias_expression("kl", p, e, delta, T)

    def test_validation(self):
        T = optimal_T_from_posterior("kl", np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            training_bias_expression("kl", [0.5, 0.5], [0.6, 0.5], [0.0, 0.0], T)
        with pytest.raises(ValueError):
            training_bias_expression("kl", [0.5, 0.5, 0.0], [0.0, 0.0], [0.0, 0.0], T)


# repr(max_error) of each verify_theorems report, in report order, as the
# per-trial scalar checks computed them before the checks were batched;
# the batched checks draw in the same order and must reproduce every bit.
PINNED_MAX_ERRORS = {
    0: (
        "8.881784197001252e-16",
        "1.7763568394002505e-15",
        "4.4996524506402125e-08",
        "0.0",
        "0.0",
        "0.005",
        "0.2500006419661718",
    ),
    1: (
        "8.881784197001252e-16",
        "2.6645352591003757e-15",
        "4.673727205251055e-08",
        "0.0",
        "0.0",
        "0.0035",
        "0.2500142333456774",
    ),
    2: (
        "8.881784197001252e-16",
        "1.7763568394002505e-15",
        "5.0497085846146206e-08",
        "0.0",
        "0.0",
        "0.005",
        "0.25001418164668493",
    ),
}


class TestCheckDrivers:
    @pytest.mark.parametrize("seed", sorted(PINNED_MAX_ERRORS))
    def test_reports_pinned(self, seed):
        got = tuple(repr(r.max_error) for r in verify_theorems(seed))
        assert got == PINNED_MAX_ERRORS[seed]

    def test_all_pass_at_default_settings(self):
        assert check_binary_identity(0).passed
        assert check_multiclass_identity(1).passed
        assert check_pointwise_optimum(2, configs=20).passed
        assert check_argmax_invariance(3, n_vectors=1000).passed
        assert check_correction_exactness(4, trials=1000).passed
        assert check_posterior_gap_bound(5, trials=2000).passed
        assert check_first_order_bias(6, trials=200).passed

    def test_corrupted_bias_fails_identity(self):
        # mutation sanity check: a wrong bias must be caught
        def corrupted(div_id, joint, T, e):
            return exact_bias(div_id, joint, T, e) + 1e-6

        report = check_binary_identity(0, bias_fn=corrupted)
        assert not report.passed
        assert report.max_error > 1e-12

    def test_reports_deterministic(self):
        a = verify_theorems(seed=5)
        b = verify_theorems(seed=5)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_report_serialization(self, tmp_path):
        path = tmp_path / "reports.json"
        reports = verify_theorems(seed=0, report_path=path)
        raw = json.loads(path.read_text())
        assert all(
            set(r) == {"theorem_id", "trials", "max_error", "threshold", "pass"}
            for r in raw
        )
        assert raw == [r.to_dict() for r in reports]
        assert all(r.passed for r in reports)
