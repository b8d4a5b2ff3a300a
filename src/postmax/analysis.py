"""Pointwise optima, bias bounds, and the theorem-verification drivers.

Two redundant routes to the per-point optimum anchor everything here: a
closed form through the generator's derivative, and an independent 1-D
golden-section maximization of the exact objective term.  On top of
those sit the first-order bias bound, the iteration-bias expression, and
seeded drivers that sweep each claimed identity and emit structured
pass/fail reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from postmax.divergence import (
    DIVERGENCE_IDS,
    _as_spec,
    conj_second,
    optimal_T_from_posterior,
    posterior_from_T,
)
from postmax.noise import TransitionMatrix, uniform_offdiag_matrix
from postmax.objective import DiscreteJoint, exact_bias, exact_jf, exact_jf_noisy
from postmax.posterior import noisy_posterior_forward, posterior_correct, predict

GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PointwiseSolution:
    """Closed-form and independently searched T tables, kept separate.

    Collapsing the two routes would defeat the cross-check, so both are
    returned and compared in posterior space by the caller.
    """

    closed_form: np.ndarray
    searched: np.ndarray

    def max_posterior_gap(self, spec) -> float:
        a = posterior_from_T(spec, self.closed_form)
        b = posterior_from_T(spec, self.searched)
        return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    trials: int
    max_error: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "trials": self.trials,
            "max_error": self.max_error,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _report(theorem_id: str, trials: int, max_error: float, threshold: float):
    return TheoremReport(
        theorem_id=theorem_id,
        trials=trials,
        max_error=float(max_error),
        threshold=float(threshold),
        passed=bool(max_error <= threshold),
    )


def rates_from_transition(tm: TransitionMatrix) -> np.ndarray:
    """Extract per-class flip-in rates from a uniform off-diagonal matrix."""
    ent = tm.entries
    k = tm.k
    e = np.empty(k)
    for j in range(k):
        col = np.delete(ent[:, j], j)
        if np.ptp(col) > 1e-12:
            raise ValueError(
                "transition matrix is not uniform off-diagonal: "
                f"column {j} has unequal off-diagonal entries"
            )
        e[j] = col[0]
    if e.sum() >= 1.0:
        raise ValueError("total flip-in mass must be below 1")
    return e


def _golden_section_max(spec, q, lo, hi, tol: float = GOLDEN_TOL) -> np.ndarray:
    """Elementwise maximizer of q*t - f*(t) on [lo, hi].

    Every element runs the scalar golden-section recurrence and stops on
    its own test b - a > tol, so each result is independent of the
    others in the batch.
    """
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
        # left keeps [a, d] with c as its upper interior point; right
        # keeps [c, b] with d as its lower one
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


def _bracket(spec, q, guess):
    """Intervals around the maximizers of q*t - f*(t), found by sign changes.

    The slope q - (f*)'(t) is strictly decreasing, so expand each side
    geometrically (halving the gap toward a finite domain edge) until the
    signs differ.
    """
    dom_lo, dom_hi = spec.conj_domain

    lo = guess - 1.0
    if dom_lo > -math.inf:
        lo = np.where(lo <= dom_lo, dom_lo + 0.5 * (guess - dom_lo), lo)
    grow = np.flatnonzero(q - spec.conj_prime(lo) <= 0.0)
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
    while grow.size:
        if dom_hi == math.inf:
            hi[grow] = guess[grow] + 2.0 * (hi[grow] - guess[grow])
        else:
            hi[grow] = dom_hi - 0.5 * (dom_hi - hi[grow])
        grow = grow[q[grow] - spec.conj_prime(hi[grow]) >= 0.0]
    return lo, hi


def _target_posterior(joint: DiscreteJoint, tm: Optional[TransitionMatrix]):
    """Posterior over the labels the optimum sees: (1 - sum(e)) * p + e."""
    if tm is None:
        e = np.zeros(joint.k)
    else:
        if tm.k != joint.k:
            raise ValueError("class counts differ")
        e = rates_from_transition(tm)
    return (1.0 - e.sum()) * joint.posterior + e


def _solve_pointwise(spec, q) -> PointwiseSolution:
    """Closed form f'(q) and the searched maximizer for each entry of q."""
    closed = optimal_T_from_posterior(spec, q)
    flat_q = q.ravel()
    lo, hi = _bracket(spec, flat_q, closed.ravel())
    searched = _golden_section_max(spec, flat_q, lo, hi).reshape(q.shape)
    return PointwiseSolution(closed_form=closed, searched=searched)


def taylor_bias_bound(spec, T_star, T_i) -> float:
    """First-order cap on the posterior gap between two output vectors."""
    spec = _as_spec(spec)
    T_star = np.asarray(T_star, dtype=float).ravel()
    T_i = np.asarray(T_i, dtype=float).ravel()
    if T_star.shape != T_i.shape:
        raise ValueError("vectors must have equal length")
    curv = conj_second(spec, T_i)
    posterior_from_T(spec, T_star)  # domain check on the other argument
    diff = T_star - T_i
    return float(
        math.sqrt(np.dot(diff, diff)) * math.sqrt(np.dot(curv, curv))
    )


def training_bias_expression(spec, p_star_clean, e, delta, T_star_noisy) -> np.ndarray:
    """First-order gap between the clean optimum and an iterate's estimate.

    Component j combines the pure noise bias with a curvature term at
    the iterate: sum(e) * p_j - e_j + delta_j * (f*)''(T_noisy_j - delta_j).
    Arguments may be stacks of rows; the last axis holds the classes and
    each row's flip rates are checked on their own.
    """
    spec = _as_spec(spec)
    p = np.asarray(p_star_clean, dtype=float)
    e = np.asarray(e, dtype=float)
    delta = np.asarray(delta, dtype=float)
    T_star = np.asarray(T_star_noisy, dtype=float)
    if not (p.shape == e.shape == delta.shape == T_star.shape):
        raise ValueError("all arguments must share one shape")
    e_total = e.sum(axis=-1, keepdims=True)
    if np.any(e < 0.0) or np.any(e_total >= 1.0):
        raise ValueError("flip rates must be nonnegative and sum to less than 1")
    curv = conj_second(spec, T_star - delta)
    return e_total * p - e + delta * curv


def _random_joint(rng, m: int, k: int) -> DiscreteJoint:
    pmf = rng.uniform(0.1, 1.0, size=(m, k))
    return DiscreteJoint(pmf / pmf.sum())


def _random_T(rng, div_id: str, shape) -> np.ndarray:
    p = rng.uniform(0.05, 0.95, size=shape)
    return optimal_T_from_posterior(div_id, p)


def check_binary_identity(
    seed: int, trials: int = 100, bias_fn=exact_bias
) -> TheoremReport:
    """Noisy objective = scaled clean objective + bias, two classes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        e0, e1 = rng.uniform(0.01, 0.45, size=2)
        tm = TransitionMatrix([[1.0 - e1, e1], [e0, 1.0 - e0]])
        joint = _random_joint(rng, 8, 2)
        for div_id in DIVERGENCE_IDS:
            T = _random_T(rng, div_id, (8, 2))
            lhs = exact_jf_noisy(div_id, joint, tm, T)
            rhs = (1.0 - e0 - e1) * exact_jf(div_id, joint, T) + bias_fn(
                div_id, joint, T, [e0, e1]
            )
            worst = max(worst, abs(lhs - rhs))
    return _report(
        "binary_objective_identity", trials * len(DIVERGENCE_IDS), worst, 1e-12
    )


def check_multiclass_identity(
    seed: int, trials: int = 100, k: int = 5, bias_fn=exact_bias
) -> TheoremReport:
    """Same decomposition under uniform off-diagonal noise, K classes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        e = rng.uniform(0.01, 0.9 / k, size=k)
        tm = uniform_offdiag_matrix(e)
        joint = _random_joint(rng, 8, k)
        for div_id in DIVERGENCE_IDS:
            T = _random_T(rng, div_id, (8, k))
            lhs = exact_jf_noisy(div_id, joint, tm, T)
            rhs = (1.0 - e.sum()) * exact_jf(div_id, joint, T) + bias_fn(
                div_id, joint, T, e
            )
            worst = max(worst, abs(lhs - rhs))
    return _report(
        "multiclass_objective_identity", trials * len(DIVERGENCE_IDS), worst, 1e-12
    )


def check_pointwise_optimum(seed: int, configs: int = 100) -> TheoremReport:
    """Closed form vs golden-section search, compared in posterior space.

    Each divergence's configs are drawn in turn, then solved as one batch.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for div_id in DIVERGENCE_IDS:
        targets = []
        for _ in range(configs):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            joint = _random_joint(rng, m, k)
            if rng.random() < 0.5:
                e = rng.uniform(0.01, 0.9 / k, size=k)
                tm = uniform_offdiag_matrix(e)
            else:
                tm = None
            targets.append(_target_posterior(joint, tm).ravel())
        sol = _solve_pointwise(_as_spec(div_id), np.concatenate(targets))
        worst = max(worst, sol.max_posterior_gap(div_id))
    return _report(
        "pointwise_optimum_consistency", configs * len(DIVERGENCE_IDS), worst, 1e-6
    )


def _random_simplex(rng, n: int, k: int) -> np.ndarray:
    rows = rng.uniform(0.01, 1.0, size=(n, k))
    return rows / rows.sum(axis=1, keepdims=True)


def check_argmax_invariance(seed: int, n_vectors: int = 10_000) -> TheoremReport:
    """Symmetric noise below the tolerance edge never moves the argmax."""
    rng = np.random.default_rng(seed)
    total = 0
    mismatched = 0
    for k in range(2, 11):
        rows = _random_simplex(rng, n_vectors, k)
        sorted_rows = np.sort(rows, axis=1)
        unique = sorted_rows[:, -1] - sorted_rows[:, -2] > 1e-9
        rows = rows[unique]
        clean = predict(rows)
        edge = (k - 1) / k
        for eta in (0.1, 0.3, 0.5 * edge, 0.99 * edge):
            e = np.full(k, eta / (k - 1))
            noisy = noisy_posterior_forward(rows, e)
            mismatched += int(np.sum(predict(noisy) != clean))
            total += rows.shape[0]
    frac = mismatched / total
    return _report("symmetric_argmax_invariance", total, frac, 0.0)


def check_correction_exactness(seed: int, trials: int = 10_000) -> TheoremReport:
    """Subtracting flip-in rates restores the clean argmax exactly."""
    rng = np.random.default_rng(seed)
    per_k = max(1, -(-trials // 9))  # ceil: never undershoot the request
    total = 0
    mismatched = 0
    for k in range(2, 11):
        rows = _random_simplex(rng, per_k, k)
        sorted_rows = np.sort(rows, axis=1)
        unique = sorted_rows[:, -1] - sorted_rows[:, -2] > 1e-9
        rows = rows[unique]
        clean = predict(rows)
        raw = rng.uniform(0.0, 1.0, size=k)
        e = raw / raw.sum() * rng.uniform(0.1, 0.95)
        noisy = noisy_posterior_forward(rows, e)
        restored = predict(posterior_correct(noisy, e))
        mismatched += int(np.sum(restored != clean))
        total += rows.shape[0]
    frac = mismatched / total
    return _report("correction_restores_argmax", total, frac, 0.0)


def check_posterior_gap_bound(seed: int, trials: int = 10_000) -> TheoremReport:
    """The curvature bound covers the posterior gap near convergence."""
    rng = np.random.default_rng(seed)
    worst_fraction = 0.0
    k = 4
    for div_id in DIVERGENCE_IDS:
        p = rng.uniform(0.05, 0.95, size=(trials, k))
        T_star = optimal_T_from_posterior(div_id, p)
        delta = rng.uniform(-1e-2, 1e-2, size=(trials, k))
        T_i = T_star - delta
        curv = conj_second(div_id, T_i)
        bound = np.sqrt(np.sum(delta**2, axis=1)) * np.sqrt(
            np.sum(curv**2, axis=1)
        )
        gap = np.sum(
            np.abs(posterior_from_T(div_id, T_star) - posterior_from_T(div_id, T_i)),
            axis=1,
        )
        violations = float(np.mean(gap > bound))
        worst_fraction = max(worst_fraction, violations)
    return _report(
        "posterior_gap_bound", trials * len(DIVERGENCE_IDS), worst_fraction, 0.01
    )


def check_first_order_bias(seed: int, trials: int = 1_000) -> TheoremReport:
    """Halving the iterate gap shrinks the expression's residual ~4x.

    The expression drops quadratic terms, so its residual against the
    directly computed bias must fall at least 3x when delta is halved.
    """
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    k = 3
    for div_id in DIVERGENCE_IDS:
        # one trial's draws at a time, in the order a per-trial loop takes
        p = np.empty((trials, k))
        raw = np.empty((trials, k))
        scale = np.empty((trials, 1))
        delta = np.empty((trials, k))
        for t in range(trials):
            p[t] = rng.uniform(0.1, 1.0, size=k)
            raw[t] = rng.uniform(0.0, 1.0, size=k)
            scale[t] = rng.uniform(0.05, 0.4)
            delta[t] = rng.uniform(-1e-3, 1e-3, size=k)
        p /= p.sum(axis=1, keepdims=True)
        e = raw / raw.sum(axis=1, keepdims=True) * scale
        q = (1.0 - e.sum(axis=1, keepdims=True)) * p + e
        T_noisy = optimal_T_from_posterior(div_id, q)
        residuals = []
        for d in (delta, delta / 2.0):
            expr = training_bias_expression(div_id, p, e, d, T_noisy)
            direct = p - posterior_from_T(div_id, T_noisy - d)
            residuals.append(np.max(np.abs(expr - direct), axis=1))
        res_full, res_half = residuals
        ratio = float(res_half.mean() / res_full.mean())
        worst_ratio = max(worst_ratio, ratio)
    return _report(
        "first_order_bias_residual",
        trials * len(DIVERGENCE_IDS),
        worst_ratio,
        1.0 / 3.0,
    )


def verify_theorems(seed: int, report_path=None) -> list:
    """Run every identity and bound check; failures are reported, not raised."""
    reports = [
        check_binary_identity(seed),
        check_multiclass_identity(seed + 1),
        check_pointwise_optimum(seed + 2),
        check_argmax_invariance(seed + 3),
        check_correction_exactness(seed + 4),
        check_posterior_gap_bound(seed + 5),
        check_first_order_bias(seed + 6),
    ]
    if report_path is not None:
        save_reports(reports, report_path)
    return reports


def save_reports(reports, path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)

