"""MAP prediction and test-time noise correction.

A trained network's outputs T convert to class-posterior estimates via
the conjugate derivative of the divergence generator, which
divergence.posterior_from_T computes.  Under uniform
off-diagonal label noise the estimated posterior is an affine map of the
clean one, so subtracting the per-class flip-in rates recovers a vector
with the clean argmax.  Posterior rows and flip rates are plain arrays.
Every row input is an N x K matrix with K >= 2, the shape rule of
_as_rows; noisy_posterior_forward alone also reads one row, as 1 x K.
Corrected values may dip slightly below zero at finite sample size; they
are kept as-is, since clamping before the argmax could flip predictions.
_row_sums sums rows here and in analysis, by class columns below K = 8.
"""

from __future__ import annotations

import numpy as np

from postmax.divergence import conj_prime  # unused here; perfbench/spans.py wraps it
from postmax.noise import _check_labels, _check_rates


def predict(p) -> np.ndarray:
    """Rowwise argmax; ties resolve to the lowest class index."""
    vals = np.asarray(p, dtype=float)
    if vals.ndim != 2:
        raise ValueError("expected an N x K matrix")
    return np.argmax(vals, axis=1).astype(np.int64)


def noisy_posterior_forward(clean_p, e) -> np.ndarray:
    """Posterior over noisy labels implied by flip-in rates e.

    Accepts one simplex row or a stack of rows, and returns the input's
    shape; component i becomes (1 - sum(e)) * p_i + e_i, which stays on
    the simplex.
    """
    p = np.asarray(clean_p, dtype=float)
    rows = _check_probability_rows(p[None] if p.ndim == 1 else p)
    e = _check_rates(e, rows.shape[1])
    return ((1.0 - e.sum()) * rows + e).reshape(p.shape)


def _as_rows(x, what: str) -> np.ndarray:
    """The shape rule of every row input: x as floats, if it is an N x K
    matrix of K >= 2 entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"expected an N x K matrix of {what} with K >= 2")
    return arr


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


def _check_probability_rows(p, labels=None):
    """The probability-row rule, the one check of every input that must
    lie on the simplex: p is an N x K matrix (_as_rows), every entry is
    >= 0 and each row sums to 1 within 1e-9; NaN and +-inf fail.

    Returns p as floats.  Given labels, one per row, it also returns them
    checked, and each row's component at its label must be positive: the
    callers that pass labels take its log.
    """
    rows = _as_rows(p, "probabilities")
    # NaN and -inf fail the sign test, so no sum meets them; +inf and a
    # sum that overflows fail the tolerance; a stack of no rows passes
    valid = np.all(rows >= 0.0)
    if valid:
        with np.errstate(over="ignore"):
            valid = np.all(np.abs(_row_sums(rows) - 1.0) <= 1e-9)
    if not valid:
        raise ValueError(
            "rows must be probability vectors: finite, nonnegative and on "
            "the simplex within 1e-9"
        )
    if labels is None:
        return rows
    labels = _check_labels(labels, *rows.shape)
    if not np.all(rows[np.arange(rows.shape[0]), labels] > 0.0):
        raise ValueError("the row's component at the label must be positive")
    return rows, labels


def posterior_correct(noisy_p, e) -> np.ndarray:
    """Subtract flip-in rates from estimated noisy posteriors.

    noisy_p is an N x K matrix of finite values with K >= 2.  The result
    is (1 - sum(e)) times the clean posterior; dividing by that positive
    constant leaves predictions unchanged.  Negative components are
    preserved: clamping before the argmax could flip predictions.
    """
    vals = _as_rows(noisy_p, "posterior estimates")
    if not np.all(np.isfinite(vals)):
        raise ValueError("posterior estimates must be finite")
    return vals - _check_rates(e, vals.shape[1])


def accuracy(preds, labels) -> float:
    """Fraction of exact label matches."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("predictions and labels must be equal-length vectors")
    return _batch_mean(preds == labels)


def _batch_mean(rows) -> float:
    """The mean of a batch's per-row terms, the one rule of every batch
    mean: a batch has at least one row, so none reads an empty slice."""
    if rows.shape[0] == 0:
        raise ValueError("a batch mean needs at least one row")
    return float(rows.mean())

