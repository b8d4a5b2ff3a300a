"""Pointwise optima, bias bounds, and the theorem-verification drivers.

Two redundant routes to the per-point optimum anchor everything here: a
closed form through the generator's derivative, and an independent 1-D
golden-section maximization of the exact objective term.  On top of
those sit the first-order bias bound, the iteration-bias expression, and
seeded drivers that sweep each claimed identity and emit structured
pass/fail reports.

Each driver validates its own arguments once.  On the values it draws,
which lie inside every domain by construction, it calls the divergence
table's kernels (f_prime, conj_prime, conj_second) directly, and sums or
takes maxima over a row's classes as running passes over the class
columns (_row_sums, _row_max).  The public maps are called where they are
what a check is about: the correction round trip and the iteration-bias
expression.  A non-finite kernel value fails the report it reaches, with
a NaN max_error, instead of raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from postmax.divergence import (
    DIVERGENCE_IDS,
    MAX_SEED,
    _as_spec,
    _integer,
    _seed,
    conj_second,
    get_divergence,
    # unused here; perfbench/spans.py wraps analysis.<name> for these two
    optimal_T_from_posterior,
    posterior_from_T,
)
from postmax.noise import _check_rates, _check_stochastic, _offdiag_entries
from postmax.objective import (
    _check_pmf,
    _exact_bias,
    _exact_jf,
    # unused here; perfbench/spans.py wraps analysis.<name> for these three
    exact_bias,
    exact_jf,
    exact_jf_noisy,
)
from postmax.posterior import noisy_posterior_forward, posterior_correct, predict

GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    trials: int
    max_error: float
    threshold: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "trials", _integer(self.trials, "trials", least=0))

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


def _golden_section_max(spec, q, lo, hi, tol: float = GOLDEN_TOL) -> np.ndarray:
    """Elementwise maximizer of q*t - f*(t) on [lo, hi].

    Every element runs the scalar golden-section recurrence and stops on
    its own test b - a > tol, so each result is independent of the
    others in the batch.  The state of the unfinished elements is held
    compacted, in arrays that are stepped whole; they are compressed only
    in an iteration where some bracket closes, and each element's
    midpoint 0.5 * (a + b) is written into the result once, when it does.
    """
    out = 0.5 * (lo + hi)
    live = np.flatnonzero(hi - lo > tol)
    a, b, q = lo[live], hi[live], q[live]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = q * c - spec.conj(c)
    fd = q * d - spec.conj(d)
    while live.size:
        left = fc > fd
        # left keeps [a, d] with the old c as its upper interior point and
        # probes a new lower one; right keeps [c, b] with the old d as its
        # lower interior point and probes a new upper one
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        width = b - a
        new = np.where(left, b - _INVPHI * width, a + _INVPHI * width)
        f_new = q * new - spec.conj(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        still_open = width > tol
        if not still_open.all():
            closed = ~still_open
            out[live[closed]] = 0.5 * (a[closed] + b[closed])
            live, a, b, c, d, fc, fd, q = (
                x[still_open] for x in (live, a, b, c, d, fc, fd, q)
            )
    return out


def _bracket(spec, q, guess):
    """Intervals around the maximizers of q*t - f*(t), found by sign changes.

    The slope q - (f*)'(t) is strictly decreasing, so expand each side
    geometrically (halving the gap toward a finite domain edge) until the
    signs differ.
    """
    dom_lo, dom_hi = spec.conj_domain
    lo = _bracket_end(spec, q, guess, dom_lo, -1.0)
    hi = _bracket_end(spec, q, guess, dom_hi, 1.0)
    return lo, hi


def _bracket_end(spec, q, guess, edge, side):
    """_bracket's lower (side -1.0) or upper (side 1.0) ends; edge is the
    domain's on that side.  side * x is x or exactly -x, and a - b is
    exactly -(b - a), so each side has the bits of a loop of its own."""
    end = guess + side
    finite = math.isfinite(edge)
    if finite:
        end = np.where(side * end >= side * edge, edge + 0.5 * (guess - edge), end)
    grow = np.flatnonzero(side * (q - spec.conj_prime(end)) >= 0.0)
    while grow.size:
        if finite:
            end[grow] = edge + 0.5 * (end[grow] - edge)
        else:
            end[grow] = guess[grow] + 2.0 * (end[grow] - guess[grow])
        grow = grow[side * (q[grow] - spec.conj_prime(end[grow])) >= 0.0]
    return end


def _solve_pointwise(spec, q):
    """Closed form f'(q) and the searched maximizer for each entry of q,
    returned apart as (closed, searched): the cross-check compares the two
    routes in posterior space."""
    closed = spec.f_prime(q)
    flat_q = q.ravel()
    lo, hi = _bracket(spec, flat_q, closed.ravel())
    searched = _golden_section_max(spec, flat_q, lo, hi).reshape(q.shape)
    return closed, searched


def training_bias_expression(spec, p_star_clean, e, delta, T_star_noisy) -> np.ndarray:
    """First-order gap between the clean optimum and an iterate's estimate.

    Component j combines the pure noise bias with a curvature term at
    the iterate: sum(e) * p_j - e_j + delta_j * (f*)''(T_noisy_j - delta_j).
    Arguments may be stacks of rows; the last axis holds the classes and
    each row's flip rates are checked on their own.
    """
    spec = _as_spec(spec)
    p = np.asarray(p_star_clean, dtype=float)
    if p.ndim == 0:
        raise ValueError("arguments must hold the classes on their last axis")
    e = _check_rates(e, p.shape[-1], p.shape[:-1])
    delta = np.asarray(delta, dtype=float)
    T_star = np.asarray(T_star_noisy, dtype=float)
    if not (p.shape == delta.shape == T_star.shape):
        raise ValueError("all arguments must share one shape")
    e_total = e.sum(axis=-1, keepdims=True)
    curv = conj_second(spec, T_star - delta)
    return e_total * p - e + delta * curv


def _uniform(u, low: float, high: float) -> np.ndarray:
    """Generator.uniform(low, high)'s values from its random() variates u."""
    return low + (high - low) * u


_IDENTITY_POINTS = 8  # points x of each identity trial's joint


def _identity_draws(rng, trials: int, k: int, e_high: float):
    """Every trial's draws, taken in one call.

    Row t of the variates holds what a per-trial loop draws, in its
    order: the rates uniform(0.01, e_high, k), the joint's
    uniform(0.1, 1, (8, K)), then one uniform(0.05, 0.95, (8, K)) of
    posteriors per divergence in DIVERGENCE_IDS order; Generator.uniform
    is _uniform of random().  Returns the rates (trials, K), the joint
    pmfs (trials, 8, K) and the posterior tables, one per divergence.
    """
    mk = _IDENTITY_POINTS * k
    u = rng.random((trials, k + (1 + len(DIVERGENCE_IDS)) * mk))

    def table(i, low, high):  # the i-th (8, K) table after the rates
        cols = u[:, k + i * mk : k + (i + 1) * mk]
        return _uniform(cols, low, high).reshape(trials, _IDENTITY_POINTS, k)

    raw = table(0, 0.1, 1.0)
    pmf = raw / raw.sum(axis=(1, 2), keepdims=True)
    posteriors = [table(i, 0.05, 0.95) for i in range(1, 1 + len(DIVERGENCE_IDS))]
    return _uniform(u[:, :k], 0.01, e_high), pmf, posteriors


def _identity_gaps(pmf, entries, e, scale, posteriors, bias_fn) -> np.ndarray:
    """|noisy objective - (scale * clean objective + bias)| of every trial
    (rows) at every divergence (columns), each at the T table f'(p) of
    its posteriors p.

    The stacked joints pmf and transition matrices entries get the
    checks DiscreteJoint and TransitionMatrix make; f'(p) is in every
    domain, so the oracles run unchecked and share each T's summed
    conjugate.
    """
    _check_pmf(pmf)
    _check_stochastic(entries)
    noisy = np.matmul(pmf, entries)
    gaps = []
    for div_id, p in zip(DIVERGENCE_IDS, posteriors):
        spec = get_divergence(div_id)
        T = spec.f_prime(p)
        conj_rows = spec.conj(T).sum(axis=-1)
        lhs = _exact_jf(noisy, T, conj_rows)
        rhs = scale * _exact_jf(pmf, T, conj_rows) + bias_fn(pmf, T, conj_rows, e)
        gaps.append(np.abs(lhs - rhs))
    return np.stack(gaps, axis=1)


def _binary_identity_gaps(seed: int, trials: int, bias_fn=_exact_bias) -> np.ndarray:
    """check_binary_identity's gaps, one row per trial."""
    rng = np.random.default_rng(_seed(seed))
    e, pmf, posteriors = _identity_draws(rng, trials, 2, 0.45)
    e0, e1 = e[:, 0], e[:, 1]
    entries = np.stack([1.0 - e1, e1, e0, 1.0 - e0], axis=1).reshape(trials, 2, 2)
    return _identity_gaps(pmf, entries, e, 1.0 - e0 - e1, posteriors, bias_fn)


def _multiclass_identity_gaps(
    seed: int, trials: int, k: int, bias_fn=_exact_bias
) -> np.ndarray:
    """check_multiclass_identity's gaps, one row per trial."""
    rng = np.random.default_rng(_seed(seed))
    e, pmf, posteriors = _identity_draws(rng, trials, k, 0.9 / k)
    return _identity_gaps(
        pmf, _offdiag_entries(e), e, 1.0 - e.sum(axis=1), posteriors, bias_fn
    )


def check_binary_identity(
    seed: int, trials: int = 100, bias_fn=_exact_bias
) -> TheoremReport:
    """Noisy objective = scaled clean objective + bias, two classes.

    bias_fn(pmf, T, conj_rows, e) is objective._exact_bias's signature and
    takes every trial at once: pmf and T (trials, 8, K), conj_rows
    (trials, 8) and e (trials, K), returning one bias per trial.
    """
    trials = _integer(trials, "trials", least=1)
    gaps = _binary_identity_gaps(seed, trials, bias_fn)
    return _report("binary_objective_identity", gaps.size, np.max(gaps), 1e-12)


def check_multiclass_identity(
    seed: int, trials: int = 100, k: int = 5, bias_fn=_exact_bias
) -> TheoremReport:
    """Same decomposition under uniform off-diagonal noise, K classes.

    bias_fn gets every trial at once, pmf and T (trials, 8, K), conj_rows
    (trials, 8) and e (trials, K), and returns one bias per trial.
    """
    trials = _integer(trials, "trials", least=1)
    k = _integer(k, "k", least=2)
    gaps = _multiclass_identity_gaps(seed, trials, k, bias_fn)
    return _report("multiclass_objective_identity", gaps.size, np.max(gaps), 1e-12)


def check_pointwise_optimum(seed: int, configs: int = 100) -> TheoremReport:
    """Closed form vs golden-section search, compared in posterior space.

    Each divergence's configs are drawn in turn, then solved as one batch;
    the error is the largest |(f*)'(closed) - (f*)'(searched)| over both
    routes' T tables, which _solve_pointwise returns apart.
    Half the configs target the noisy posterior (1 - sum(e)) * p + e of
    drawn flip-in rates e, the rest the clean posterior p.
    """
    configs = _integer(configs, "configs", least=1)
    rng = np.random.default_rng(_seed(seed))
    worst = 0.0
    for div_id in DIVERGENCE_IDS:
        targets = []
        for _ in range(configs):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            # DiscreteJoint.posterior, without validating a joint
            joint = rng.uniform(0.1, 1.0, size=(m, k))
            joint /= joint.sum()
            target = joint / joint.sum(axis=1)[:, None]
            if rng.random() < 0.5:
                e = rng.uniform(0.01, 0.9 / k, size=k)
                target = (1.0 - e.sum()) * target + e
            targets.append(target.ravel())
        spec = get_divergence(div_id)
        closed, searched = _solve_pointwise(spec, np.concatenate(targets))
        gap = np.max(np.abs(spec.conj_prime(closed) - spec.conj_prime(searched)))
        worst = np.maximum(worst, gap)
    return _report(
        "pointwise_optimum_consistency", configs * len(DIVERGENCE_IDS), worst, 1e-6
    )


def _row_sums(rows) -> np.ndarray:
    """rows.sum(axis=1) of (n, K) rows with the same bits.

    numpy runs an op along a short last axis as one inner loop per row,
    while each op over a column view is one long pass.  numpy adds a last
    axis shorter than 8 from left to right, starting from +0.0 (so a row
    of -0.0 sums to +0.0), and the running add over the columns gives its
    bits; from 8 it keeps eight partial sums, and the sum is its own.
    """
    if rows.shape[1] >= 8:
        return rows.sum(axis=1)
    total = rows[:, 0] + 0.0
    for j in range(1, rows.shape[1]):
        total += rows[:, j]
    return total


def _row_max(rows) -> np.ndarray:
    """rows.max(axis=1) of nonnegative (n, K) rows, K >= 2, by a running
    np.maximum over the columns; a NaN in a row is its max."""
    top = np.maximum(rows[:, 0], rows[:, 1])
    for j in range(2, rows.shape[1]):
        np.maximum(top, rows[:, j], out=top)
    return top


def _untied_simplex(rng, n: int, k: int) -> np.ndarray:
    """n simplex rows drawn from rng, less those whose two largest
    components lie within 1e-9 of each other.

    The row sums come from the drawn rows, as in _row_sums; the rows are
    normalised into one class-major (K, n) array, the top two run over its
    class rows, and the kept rows return as the .T view of a (K, m) array.
    """
    rows = rng.uniform(0.01, 1.0, size=(n, k))
    cols = np.divide(rows.T, _row_sums(rows), order="C")
    del rows
    top = np.maximum(cols[0], cols[1])
    second = np.minimum(cols[0], cols[1])
    below_top = np.empty_like(top)
    for col in cols[2:]:
        np.minimum(top, col, out=below_top)
        np.maximum(second, below_top, out=second)
        np.maximum(top, col, out=top)
    return cols.compress(top - second > 1e-9, axis=1).T


def _first_max(cols) -> np.ndarray:
    """np.argmax(cols.T, axis=1) of finite class-major (K, n) rows.

    Ties resolve to the lowest class index: a row's index is the number
    of leading classes strictly below its max.
    """
    peak = cols.max(axis=0)
    below = cols[0] < peak
    index = below.astype(np.intp)
    for col in cols[1:-1]:
        below &= col < peak
        index += below
    return index


def check_argmax_invariance(seed: int, n_vectors: int = 10_000) -> TheoremReport:
    """Symmetric noise below the tolerance edge never moves the argmax.

    Each k's rows are simplex rows by construction, and they are pushed
    through every eta's noise unchecked; every eta lies below the edge by
    construction.  The rows are held class-major, the (k, n) array behind
    _untied_simplex's view, because numpy runs an op along a short last
    axis as one inner loop per row; the noise map is the same two IEEE
    operations, (1 - sum(e)) * p then + e, as noisy_posterior_forward's,
    into one buffer.  Each k's arrays are released before the next draw.
    """
    n_vectors = _integer(n_vectors, "n_vectors", least=1)
    rng = np.random.default_rng(_seed(seed))
    total = 0
    mismatched = 0
    for k in range(2, 11):
        cols = _untied_simplex(rng, n_vectors, k).T
        clean = _first_max(cols)
        noisy = np.empty_like(cols)
        edge = (k - 1) / k
        for eta in (0.1, 0.3, 0.5 * edge, 0.99 * edge):
            e = np.full(k, eta / (k - 1))
            np.multiply(1.0 - e.sum(), cols, out=noisy)
            noisy += e[:, None]
            mismatched += int(np.count_nonzero(_first_max(noisy) != clean))
            total += cols.shape[1]
        del cols, clean, noisy
    frac = mismatched / total
    return _report("symmetric_argmax_invariance", total, frac, 0.0)


def check_correction_exactness(seed: int, trials: int = 10_000) -> TheoremReport:
    """Subtracting flip-in rates restores the clean argmax exactly."""
    trials = _integer(trials, "trials", least=1)
    rng = np.random.default_rng(_seed(seed))
    per_k = max(1, -(-trials // 9))  # ceil: never undershoot the request
    total = 0
    mismatched = 0
    for k in range(2, 11):
        rows = _untied_simplex(rng, per_k, k)
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
    """The curvature bound covers the posterior gap near convergence.

    T* = f'(p) of p in [0.05, 0.95] moved by |delta| <= 1e-2 stays inside
    every conjugate domain, so the kernels run unchecked; a divergence
    with a non-finite gap or bound reports NaN.  Each divergence's arrays
    are released before the next draw.
    """
    trials = _integer(trials, "trials", least=1)
    rng = np.random.default_rng(_seed(seed))
    worst_fraction = 0.0
    k = 4
    for div_id in DIVERGENCE_IDS:
        spec = get_divergence(div_id)
        T_star = spec.f_prime(rng.uniform(0.05, 0.95, size=(trials, k)))
        delta = rng.uniform(-1e-2, 1e-2, size=(trials, k))
        T_i = T_star - delta
        curv = spec.conj_second(T_i)
        bound = np.sqrt(_row_sums(np.square(delta, out=delta)))
        bound *= np.sqrt(_row_sums(np.square(curv, out=curv)))
        del delta, curv
        diff = spec.conj_prime(T_star)
        diff -= spec.conj_prime(T_i)
        gap = _row_sums(np.abs(diff, out=diff))
        del T_star, T_i, diff
        violations = float(np.mean(gap > bound))
        if not (np.isfinite(gap).all() and np.isfinite(bound).all()):
            violations = math.nan  # gap > bound is False at a NaN
        worst_fraction = np.maximum(worst_fraction, violations)
    return _report(
        "posterior_gap_bound", trials * len(DIVERGENCE_IDS), worst_fraction, 0.01
    )


def check_first_order_bias(seed: int, trials: int = 1_000) -> TheoremReport:
    """Halving the iterate gap shrinks the expression's residual ~4x.

    The expression drops quadratic terms, so its residual against the
    directly computed bias must fall at least 3x when delta is halved.
    The noisy posterior q and q's optimum moved by |delta| <= 1e-3 lie
    inside every domain, so the direct bias runs the kernels unchecked.
    """
    trials = _integer(trials, "trials", least=1)
    rng = np.random.default_rng(_seed(seed))
    worst_ratio = 0.0
    k = 3
    for div_id in DIVERGENCE_IDS:
        spec = get_divergence(div_id)
        # row t holds the draws a per-trial loop takes, in its order:
        # uniform(0.1, 1, k), uniform(0, 1, k), uniform(0.05, 0.4) and
        # uniform(-1e-3, 1e-3, k); uniform(lo, hi) is lo + (hi - lo) * random()
        u = rng.random((trials, 3 * k + 1))
        p = _uniform(u[:, :k], 0.1, 1.0)
        raw = _uniform(u[:, k : 2 * k], 0.0, 1.0)
        scale = _uniform(u[:, 2 * k : 2 * k + 1], 0.05, 0.4)
        delta = _uniform(u[:, 2 * k + 1 :], -1e-3, 1e-3)
        p /= _row_sums(p)[:, None]
        e = raw / _row_sums(raw)[:, None] * scale
        q = (1.0 - _row_sums(e)[:, None]) * p + e
        T_noisy = spec.f_prime(q)
        residuals = []
        for d in (delta, delta / 2.0):
            expr = training_bias_expression(spec, p, e, d, T_noisy)
            direct = p - spec.conj_prime(T_noisy - d)
            residuals.append(_row_max(np.abs(expr - direct)))
        res_full, res_half = residuals
        ratio = float(res_half.mean() / res_full.mean())
        worst_ratio = np.maximum(worst_ratio, ratio)
    return _report(
        "first_order_bias_residual",
        trials * len(DIVERGENCE_IDS),
        worst_ratio,
        1.0 / 3.0,
    )


def verify_theorems(seed: int, report_path=None) -> list:
    """Run every identity and bound check; failures are reported, not raised.

    A non-finite value a check computes is one such failure: the report
    carries a NaN max_error and does not pass.  The i-th check, counting
    from 0, takes seed + i, wrapped past MAX_SEED to 0."""
    seed = _seed(seed)
    checks = (
        check_binary_identity,
        check_multiclass_identity,
        check_pointwise_optimum,
        check_argmax_invariance,
        check_correction_exactness,
        check_posterior_gap_bound,
        check_first_order_bias,
    )
    reports = [check((seed + i) % (MAX_SEED + 1)) for i, check in enumerate(checks)]
    if report_path is not None:
        with open(report_path, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
    return reports

