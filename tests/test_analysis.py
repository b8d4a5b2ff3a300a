"""Tests for pointwise optima, bias bounds, and theorem-verification drivers."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from postmax.analysis import (
    _INVPHI,
    _binary_identity_gaps,
    _bracket,
    _first_max,
    _golden_section_max,
    _multiclass_identity_gaps,
    _row_max,
    _row_sums,
    _solve_pointwise,
    _untied_simplex,
    check_argmax_invariance,
    check_binary_identity,
    check_correction_exactness,
    check_first_order_bias,
    check_multiclass_identity,
    check_pointwise_optimum,
    check_posterior_gap_bound,
    training_bias_expression,
    verify_theorems,
)
from postmax.divergence import (
    _REGISTRY,
    DIVERGENCE_IDS,
    get_divergence,
    optimal_T_from_posterior,
    posterior_from_T,
)
from postmax.noise import NoiseParams, TransitionMatrix
from postmax.objective import (
    DiscreteJoint,
    _exact_bias,
    exact_bias,
    exact_jf,
)
from references import noisy_joint


def _target_posterior(joint, tm):
    """Posterior over the labels the optimum sees: (1 - sum(e)) * p + e.

    tm is None or uniform off-diagonal, so every off-diagonal entry of
    its column j is e_j; the one below the diagonal (wrapping) is read.
    """
    e = np.zeros(joint.k)
    if tm is not None:
        if tm.k != joint.k:
            raise ValueError("class counts differ")
        cols = np.arange(tm.k)
        e = tm.entries[(cols + 1) % tm.k, cols]
    return (1.0 - e.sum()) * joint.posterior + e


def solve_optimal_T_discrete(div_id, joint, tm=None):
    """Closed-form and searched optimal T tables under optional noise,
    as the pair (closed, searched)."""
    return _solve_pointwise(get_divergence(div_id), _target_posterior(joint, tm))


class TestSolveOptimalT:
    def test_clean_kl_closed_form(self):
        joint = DiscreteJoint([[0.28, 0.12], [0.18, 0.42]])
        closed, _ = solve_optimal_T_discrete("kl", joint)
        np.testing.assert_allclose(
            closed, np.log(joint.posterior) + 1.0, rtol=1e-12
        )

    def test_binary_noisy_posterior(self):
        # the searched route must land on the same noisy posterior as
        # the affine closed form
        joint = DiscreteJoint([[0.7, 0.3]])
        tm = NoiseParams.uniform_offdiag([0.1, 0.3]).to_matrix(2)
        for div_id in DIVERGENCE_IDS:
            closed, searched = solve_optimal_T_discrete(div_id, joint, tm)
            np.testing.assert_allclose(
                posterior_from_T(div_id, closed),
                [[0.52, 0.48]],
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                posterior_from_T(div_id, searched),
                [[0.52, 0.48]],
                atol=1e-6,
            )

    def test_identity_noise_equals_clean(self):
        joint = DiscreteJoint([[0.28, 0.12], [0.18, 0.42]])
        eye = TransitionMatrix(np.eye(2))
        clean, _ = solve_optimal_T_discrete("gan", joint)
        noisy, _ = solve_optimal_T_discrete("gan", joint, eye)
        np.testing.assert_array_equal(clean, noisy)

    def test_routes_agree_in_posterior_space(self):
        rng = np.random.default_rng(7)
        for div_id in DIVERGENCE_IDS:
            pmf = rng.uniform(0.1, 1.0, size=(4, 3))
            joint = DiscreteJoint(pmf / pmf.sum())
            tm = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15]).to_matrix(3)
            closed, searched = solve_optimal_T_discrete(div_id, joint, tm)
            spec = get_divergence(div_id)
            gap = np.abs(spec.conj_prime(closed) - spec.conj_prime(searched))
            assert np.max(gap) <= 1e-6

    def test_batch_search_equals_one_joint_at_a_time(self):
        # every element stops on its own test, so batching changes no bit
        rng = np.random.default_rng(3)
        joints = [
            DiscreteJoint(pmf / pmf.sum())
            for pmf in (rng.uniform(0.1, 1.0, size=(m, 3)) for m in (2, 5, 3))
        ]
        tm = NoiseParams.uniform_offdiag([0.1, 0.05, 0.15]).to_matrix(3)
        for div_id in DIVERGENCE_IDS:
            single = [solve_optimal_T_discrete(div_id, j, tm) for j in joints]
            targets = np.concatenate([_target_posterior(j, tm) for j in joints])
            closed, searched = _solve_pointwise(get_divergence(div_id), targets)
            np.testing.assert_array_equal(
                searched, np.concatenate([s for _, s in single])
            )
            np.testing.assert_array_equal(
                closed, np.concatenate([c for c, _ in single])
            )

    def test_class_count_mismatch(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        with pytest.raises(ValueError):
            solve_optimal_T_discrete("kl", joint, TransitionMatrix(np.eye(3)))


def golden_section_by_scatter(spec, q, lo, hi, tol):
    """_golden_section_max as it was first written: full-size state arrays,
    gathered and scattered through the live index every iteration."""
    a, b = lo.copy(), hi.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = q * c - spec.conj(c)
    fd = q * d - spec.conj(d)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        la, lb, lc, ld = a[live], b[live], c[live], d[live]
        lfc, lfd = fc[live], fd[live]
        left = lfc > lfd
        la = np.where(left, la, lc)
        lb = np.where(left, ld, lb)
        kept = np.where(left, lc, ld)
        f_kept = np.where(left, lfc, lfd)
        new = np.where(left, lb - _INVPHI * (lb - la), la + _INVPHI * (lb - la))
        f_new = q[live] * new - spec.conj(new)
        a[live], b[live] = la, lb
        c[live] = np.where(left, new, kept)
        fc[live] = np.where(left, f_new, f_kept)
        d[live] = np.where(left, kept, new)
        fd[live] = np.where(left, f_kept, f_new)
        live = live[lb - la > tol]
    return 0.5 * (a + b)


def bracket_by_two_loops(spec, q, guess):
    """_bracket as it was first written, one expansion loop per side.

    Also returns how many entries each side's loop grew."""
    dom_lo, dom_hi = spec.conj_domain

    lo = guess - 1.0
    if dom_lo > -math.inf:
        lo = np.where(lo <= dom_lo, dom_lo + 0.5 * (guess - dom_lo), lo)
    grow = np.flatnonzero(q - spec.conj_prime(lo) <= 0.0)
    grown_lo = grow.size
    while grow.size:
        if dom_lo == -math.inf:
            lo[grow] = guess[grow] - 2.0 * (guess[grow] - lo[grow])
        else:
            lo[grow] = dom_lo + 0.5 * (lo[grow] - dom_lo)
        grow = grow[q[grow] - spec.conj_prime(lo[grow]) <= 0.0]

    hi = guess + 1.0
    if dom_hi < math.inf:
        hi = np.where(hi >= dom_hi, dom_hi - 0.5 * (dom_hi - guess), hi)
    grow = np.flatnonzero(q - spec.conj_prime(hi) >= 0.0)
    grown_hi = grow.size
    while grow.size:
        if dom_hi == math.inf:
            hi[grow] = guess[grow] + 2.0 * (hi[grow] - guess[grow])
        else:
            hi[grow] = dom_hi - 0.5 * (dom_hi - hi[grow])
        grow = grow[q[grow] - spec.conj_prime(hi[grow]) >= 0.0]
    return lo, hi, (grown_lo, grown_hi)


class TestBracket:
    SHIFTS = (-50.0, -10.0, -1.5, 0.0, 1.5, 10.0, 50.0)

    def _cases(self, div_id):
        """Guesses moved from the maximizer f'(q) by each of SHIFTS; one
        that leaves a finite domain lands between the maximizer and that
        edge, 1 .. 1e-9 of the way from the edge."""
        spec = get_divergence(div_id)
        rng = np.random.default_rng(5)
        q = np.tile(rng.uniform(0.01, 0.99, size=5000), len(self.SHIFTS))
        best = optimal_T_from_posterior(spec, q)
        guess = best + np.repeat(self.SHIFTS, 5000)
        near = 10.0 ** -rng.uniform(0.0, 9.0, size=q.size)
        for edge in spec.conj_domain:
            if math.isfinite(edge):
                out = (guess - edge) * (best - edge) <= 0.0
                guess[out] = edge + near[out] * (best[out] - edge)
        return spec, q, guess

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_brackets_the_sign_change(self, div_id):
        spec, q, guess = self._cases(div_id)
        lo, hi = _bracket(spec, q, guess)
        assert np.all(q - spec.conj_prime(lo) > 0.0)
        assert np.all(q - spec.conj_prime(hi) < 0.0)
        dom_lo, dom_hi = spec.conj_domain
        assert np.all((dom_lo < lo) & (lo < hi) & (hi < dom_hi))

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_equals_the_two_loops(self, div_id):
        spec, q, guess = self._cases(div_id)
        lo, hi = _bracket(spec, q, guess)
        want_lo, want_hi, grown = bracket_by_two_loops(spec, q, guess)
        assert np.array_equal(lo, want_lo)
        assert np.array_equal(hi, want_hi)
        # every side's loop grows thousands of entries but sl's upper one:
        # sl's maximizers lie in (-1, -1/2), so the upper end's clipped
        # start guess / 2 is always above them
        grown_lo, grown_hi = grown
        assert grown_lo > 2000 and (grown_hi > 2000 or div_id == "sl")


class TestGoldenSectionMax:
    TOL = 1e-10

    def _cases(self, div_id):
        """q with brackets of every width: from the search's own bracket
        down to closed and below-tolerance ones, so entries finish at
        different iterations or never start."""
        spec = get_divergence(div_id)
        rng = np.random.default_rng(11)
        q = rng.uniform(0.01, 0.99, size=400)
        mid = optimal_T_from_posterior(spec, q)
        lo, hi = _bracket(spec, q, mid)
        # shrink each bracket toward its maximizer by a factor 1 .. 1e-12
        shrink = 10.0 ** -rng.uniform(0.0, 12.0, size=q.size)
        lo = mid - (mid - lo) * shrink
        hi = mid + (hi - mid) * shrink
        lo[:20] = hi[:20]  # closed
        hi[20:40] = lo[20:40] + 0.5 * self.TOL  # open but within tol
        hi[40:60] = lo[40:60] + self.TOL  # exactly at tol
        return spec, q, lo, hi

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_equals_the_scatter_loop(self, div_id):
        spec, q, lo, hi = self._cases(div_id)
        got = _golden_section_max(spec, q, lo, hi, self.TOL)
        want = golden_section_by_scatter(spec, q, lo, hi, self.TOL)
        assert np.array_equal(got, want)
        # the widths above make entries close at many different steps
        steps = np.ceil(np.log((hi - lo)[60:] / self.TOL) / -np.log(_INVPHI))
        assert np.unique(steps[steps > 0]).size > 20

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_inputs_are_not_written(self, div_id):
        spec, q, lo, hi = self._cases(div_id)
        before = (q.copy(), lo.copy(), hi.copy())
        _golden_section_max(spec, q, lo, hi, self.TOL)
        assert all(map(np.array_equal, before, (q, lo, hi)))

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_empty_and_all_closed(self, div_id):
        spec = get_divergence(div_id)
        empty = np.empty(0)
        assert _golden_section_max(spec, empty, empty, empty, self.TOL).shape == (0,)
        spec, q, lo, hi = self._cases(div_id)
        got = _golden_section_max(spec, q[:40], lo[:40], hi[:40], self.TOL)
        assert np.array_equal(got, 0.5 * (lo[:40] + hi[:40]))


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

    @pytest.mark.parametrize(
        "p, delta, message",
        [
            (0.5, 0.0, "arguments must hold the classes on their last axis"),
            ([0.5, 0.5], [0.0, 0.0, 0.0], "all arguments must share one shape"),
            ([0.5, 0.5], [[0.0, 0.0]], "all arguments must share one shape"),
        ],
        ids=["0-d", "delta-length", "delta-stacked"],
    )
    def test_rejects_shapes_with_its_message(self, p, delta, message):
        T = optimal_T_from_posterior("kl", np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            training_bias_expression("kl", p, [0.1, 0.1], delta, T)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, bad):
        T = optimal_T_from_posterior("kl", np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="flip rates"):
            training_bias_expression("kl", [0.5, 0.5], [bad, 0.1], [0.0, 0.0], T)
        # in any row of a stack
        p = np.full((3, 2), 0.5)
        e = np.full((3, 2), 0.1)
        e[1, 1] = bad
        with pytest.raises(ValueError, match="flip rates"):
            training_bias_expression("kl", p, e, np.zeros((3, 2)), np.tile(T, (3, 1)))


# repr(max_error) of each verify_theorems report, in report order, as the
# per-trial scalar checks computed them before the checks were batched
# (seeds 3-5: as the checks computed them through the validating oracles
# and per-trial draws); the checks draw in the same order and must
# reproduce every bit.
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
    3: (
        "8.881784197001252e-16",
        "1.7763568394002505e-15",
        "4.5264393788713164e-08",
        "0.0",
        "0.0",
        "0.0041",
        "0.2500024486248543",
    ),
    4: (
        "8.881784197001252e-16",
        "2.6645352591003757e-15",
        "5.5787955810515655e-08",
        "0.0",
        "0.0",
        "0.0038",
        "0.24999995034206862",
    ),
    5: (
        "8.881784197001252e-16",
        "2.6645352591003757e-15",
        "4.780886420086006e-08",
        "0.0",
        "0.0",
        "0.0047",
        "0.25000313684420533",
    ),
}

# each report's trials, the same at every pinned seed: the argmax sweep
# keeps all 9 x 4 x 10^4 of its rows and the correction check all
# 9 x 1112 of its rows, so a tie filter that drops a row shows here
PINNED_TRIALS = (300, 300, 300, 360_000, 10_008, 30_000, 3_000)


class TestCheckDrivers:
    @pytest.mark.parametrize("seed", sorted(PINNED_MAX_ERRORS))
    def test_reports_pinned(self, seed):
        reports = verify_theorems(seed)
        assert tuple(repr(r.max_error) for r in reports) == PINNED_MAX_ERRORS[seed]
        assert tuple(r.trials for r in reports) == PINNED_TRIALS

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
        def corrupted(pmf, T, conj_rows, e):
            return _exact_bias(pmf, T, conj_rows, e) + 1e-6

        report = check_binary_identity(0, bias_fn=corrupted)
        assert not report.passed
        assert report.max_error > 1e-12

    def test_reports_deterministic(self):
        a = verify_theorems(seed=5)
        b = verify_theorems(seed=5)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_check_seeds_wrap_past_the_largest_seed(self, monkeypatch):
        import postmax.analysis as analysis_mod

        seeds = []
        for name in (
            "check_binary_identity", "check_multiclass_identity",
            "check_pointwise_optimum", "check_argmax_invariance",
            "check_correction_exactness", "check_posterior_gap_bound",
            "check_first_order_bias",
        ):
            monkeypatch.setattr(analysis_mod, name, seeds.append)
        verify_theorems(2**128 - 3)
        assert seeds == [2**128 - 3, 2**128 - 2, 2**128 - 1, 0, 1, 2, 3]

    @pytest.mark.parametrize(
        "check",
        [check_pointwise_optimum, check_posterior_gap_bound, check_first_order_bias],
    )
    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_a_non_finite_kernel_fails_the_report(self, monkeypatch, div_id, check):
        # the checks call the kernels unchecked, so a NaN reaches the report,
        # whichever divergence it comes from
        nan_prime = dataclasses.replace(
            get_divergence(div_id), conj_prime=lambda t: np.full_like(t, np.nan)
        )
        monkeypatch.setitem(_REGISTRY, div_id, nan_prime)
        report = check(0, 20)
        assert report.passed is False
        assert math.isnan(report.max_error)

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


def reference_identity_gaps(seed, trials, k, binary):
    """The identity checks' gaps, one trial at a time through the public
    validating oracles, drawing each trial's variates with rng.uniform."""
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(trials):
        if binary:
            e = rng.uniform(0.01, 0.45, size=2)
            e0, e1 = e
            tm = TransitionMatrix([[1.0 - e1, e1], [e0, 1.0 - e0]])
            scale = 1.0 - e0 - e1
        else:
            e = rng.uniform(0.01, 0.9 / k, size=k)
            tm = NoiseParams.uniform_offdiag(e).to_matrix(len(e))
            scale = 1.0 - e.sum()
        pmf = rng.uniform(0.1, 1.0, size=(8, k))
        joint = DiscreteJoint(pmf / pmf.sum())
        noisy = noisy_joint(joint, tm)
        row = []
        for div_id in DIVERGENCE_IDS:
            T = optimal_T_from_posterior(div_id, rng.uniform(0.05, 0.95, size=(8, k)))
            lhs = exact_jf(div_id, noisy, T)
            rhs = scale * exact_jf(div_id, joint, T) + exact_bias(div_id, joint, T, e)
            row.append(abs(lhs - rhs))
        gaps.append(row)
    return np.array(gaps)


class TestBatchedIdentityChecks:
    """Every trial's gap, at every divergence, against the per-trial loop;
    gaps are absolute values, so equal gaps have equal bits."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binary_gaps_match_per_trial_reference(self, seed):
        got = _binary_identity_gaps(seed, 100)
        want = reference_identity_gaps(seed, 100, 2, binary=True)
        np.testing.assert_array_equal(got, want, strict=True)

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiclass_gaps_match_per_trial_reference(self, seed, k):
        got = _multiclass_identity_gaps(seed, 100, k)
        want = reference_identity_gaps(seed, 100, k, binary=False)
        np.testing.assert_array_equal(got, want, strict=True)

    def test_report_is_the_largest_gap(self):
        report = check_multiclass_identity(3, trials=7, k=4)
        gaps = reference_identity_gaps(3, 7, 4, binary=False)
        assert report.trials == gaps.size == 7 * len(DIVERGENCE_IDS)
        assert report.max_error == gaps.max()

    def test_bias_fn_gets_stacked_trials(self):
        shapes = []

        def recording(pmf, T, conj_rows, e):
            shapes.append((pmf.shape, T.shape, conj_rows.shape, e.shape))
            return _exact_bias(pmf, T, conj_rows, e)

        assert check_multiclass_identity(0, trials=6, k=3, bias_fn=recording).passed
        assert shapes == [((6, 8, 3), (6, 8, 3), (6, 8), (6, 3))] * len(
            DIVERGENCE_IDS
        )

    def test_nan_bias_fails(self):
        def nan_bias(pmf, T, conj_rows, e):
            out = _exact_bias(pmf, T, conj_rows, e)
            out[3] = np.nan
            return out

        report = check_binary_identity(0, trials=5, bias_fn=nan_bias)
        assert math.isnan(report.max_error) and not report.passed


# finite values rich in exact ties at the max, signed zeros and subnormals
TIE_VALUES = (-1.5, -5e-324, -0.0, 0.0, 5e-324, 2.5e-310, 0.5, 1.0)


class TestFirstMax:
    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("n", [0, 1, 7, 10_000])
    def test_matches_argmax(self, k, n):
        rng = np.random.default_rng(100 * k + n)
        for rows in (rng.choice(TIE_VALUES, size=(n, k)), rng.random((n, k))):
            got = _first_max(np.ascontiguousarray(rows.T))
            assert np.array_equal(got, np.argmax(rows, axis=1))

    def test_ties_signed_zeros_and_subnormals(self):
        rows = np.array(
            [
                [-0.0, 0.0, -1.0],
                [0.0, -0.0, -0.0],
                [-1.0, -0.0, 0.0],
                [5e-324, 0.0, 5e-324],
                [0.0, 5e-324, 5e-324],
                [2.5e-310, 5e-324, 2.5e-310],
                [0.5, 1.0, 1.0],
            ]
        )
        got = _first_max(np.ascontiguousarray(rows.T))
        assert got.tolist() == [0, 0, 1, 0, 1, 0, 1]
        assert np.array_equal(got, np.argmax(rows, axis=1))


class TestColumnPasses:
    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("n", [1, 7, 1_000])
    def test_row_sums_keep_the_bits_of_the_row_sum(self, k, n):
        rng = np.random.default_rng(100 * k + n)
        for rows in (rng.choice(TIE_VALUES, size=(n, k)), rng.random((n, k))):
            got = _row_sums(rows)
            assert got.tobytes() == rows.sum(axis=1).tobytes()

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("n", [1, 7, 1_000])
    def test_row_max_is_the_max_of_nonnegative_rows(self, k, n):
        rng = np.random.default_rng(100 * k + n)
        for rows in (np.abs(rng.choice(TIE_VALUES, size=(n, k))), rng.random((n, k))):
            got = _row_max(rows)
            assert got.tobytes() == rows.max(axis=1).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_row_max_carries_a_nan(self, k):
        rows = np.random.default_rng(k).random((4 * k, k))
        for j in range(k):
            rows[2 * j, j] = np.nan
        got = _row_max(rows)
        assert np.isnan(got[::2][:k]).all()
        assert np.array_equal(got, rows.max(axis=1), equal_nan=True)


def untied_simplex_by_sort(rng, n, k):
    """_untied_simplex as it was written first: each row sorted in full."""
    rows = rng.uniform(0.01, 1.0, size=(n, k))
    rows = rows / rows.sum(axis=1, keepdims=True)
    sorted_rows = np.sort(rows, axis=1)
    return rows[sorted_rows[:, -1] - sorted_rows[:, -2] > 1e-9]


def untied_simplex_as_before(rng, n, k):
    """_untied_simplex before its running row sum: rows.sum(axis=1)."""
    rows = rng.uniform(0.01, 1.0, size=(n, k))
    rows = rows / rows.sum(axis=1, keepdims=True)
    top = np.maximum(rows[:, 0], rows[:, 1])
    second = np.minimum(rows[:, 0], rows[:, 1])
    for j in range(2, k):
        second = np.maximum(second, np.minimum(top, rows[:, j]))
        top = np.maximum(top, rows[:, j])
    return rows.compress(top - second > 1e-9, axis=0)


class TenthsRng:
    """A generator whose uniform draws are rounded up to tenths, so many
    rows tie at their top two and the filter drops them."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def uniform(self, low, high, size):
        return np.ceil(self._rng.uniform(low, high, size) * 10.0) / 10.0


class TestUntiedSimplex:
    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keeps_the_sorted_filters_rows(self, k, seed):
        for make in (np.random.default_rng, TenthsRng):
            got = _untied_simplex(make(seed), 2_000, k)
            want = untied_simplex_by_sort(make(seed), 2_000, k)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("n", [1, 7, 10_000])
    def test_rows_equal_the_summed_normalisation(self, k, n):
        for make in (np.random.default_rng, TenthsRng):
            got = _untied_simplex(make(k), n, k)
            assert np.array_equal(got, untied_simplex_as_before(make(k), n, k))

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_class_rows_are_contiguous(self, k):
        # the argmax check takes (K, n) class rows as the result's .T
        rows = _untied_simplex(np.random.default_rng(k), 1_000, k)
        assert rows.shape[1] == k
        assert rows.T.flags.c_contiguous

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_tied_rows_are_dropped(self, k):
        rows = _untied_simplex(TenthsRng(0), 2_000, k)
        assert 0 < rows.shape[0] < 2_000
        top_two = np.sort(rows, axis=1)[:, -2:]
        assert np.all(top_two[:, 1] - top_two[:, 0] > 1e-9)


def traced_peak(check) -> int:
    """check(0)'s tracemalloc peak in bytes, after one untraced call."""
    check(0)
    tracemalloc.start()
    try:
        check(0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Each class count's, or each divergence's, arrays are released
    before the next draw, so a check holds one draw's working set."""

    def test_argmax_check_holds_three_draws(self):
        largest_draw = 8 * 10_000 * 10  # n_vectors rows of K = 10
        assert traced_peak(check_argmax_invariance) <= 3 * largest_draw

    def test_gap_bound_holds_six_arrays(self):
        array = 8 * 10_000 * 4  # one (trials, 4) table
        assert traced_peak(check_posterior_gap_bound) <= 6 * array


COUNT_CASES = [
    (check_binary_identity, {"trials": 0}, "trials"),
    (check_binary_identity, {"trials": -3}, "trials"),
    (check_multiclass_identity, {"trials": 0}, "trials"),
    (check_multiclass_identity, {"k": 1}, "k"),
    (check_pointwise_optimum, {"configs": 0}, "configs"),
    (check_argmax_invariance, {"n_vectors": 0}, "n_vectors"),
    (check_correction_exactness, {"trials": 0}, "trials"),
    (check_posterior_gap_bound, {"trials": 0}, "trials"),
    (check_first_order_bias, {"trials": 0}, "trials"),
]


@pytest.mark.parametrize(
    "check, kwargs, name",
    COUNT_CASES,
    ids=[f"{c.__name__}-{next(iter(kw.items()))}" for c, kw, _ in COUNT_CASES],
)
def test_check_rejects_count_before_drawing(monkeypatch, check, kwargs, name):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking its counts")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=rf"^{name} must be at least"):
        check(0, **kwargs)
