"""MAP prediction and test-time noise correction.

A trained network's outputs T convert to class-posterior estimates via
the conjugate derivative of the divergence generator, which
divergence.posterior_from_T computes.  Under uniform
off-diagonal label noise the estimated posterior is an affine map of the
clean one, so subtracting the per-class flip-in rates recovers a vector
with the clean argmax.  Posterior rows and flip rates are plain arrays.
Corrected values may dip slightly below zero at finite sample size; they
are kept as-is, since clamping before the argmax could flip predictions.
"""

from __future__ import annotations

import numpy as np

from postmax.divergence import conj_prime  # unused here; perfbench/spans.py wraps it
from postmax.noise import _check_rates, _row_labels


def predict(p) -> np.ndarray:
    """Rowwise argmax; ties resolve to the lowest class index."""
    vals = np.asarray(p, dtype=float)
    if vals.ndim != 2:
        raise ValueError("expected an N x K matrix")
    return np.argmax(vals, axis=1).astype(np.int64)


def noisy_posterior_forward(clean_p, e) -> np.ndarray:
    """Posterior over noisy labels implied by flip-in rates e.

    Accepts one simplex row or a stack of rows; component i becomes
    (1 - sum(e)) * p_i + e_i, which stays on the simplex.
    """
    p = np.asarray(clean_p, dtype=float)
    p = _check_probability_rows(p, ndim=1 if p.ndim == 1 else 2)
    return _noisy_forward(p, _check_rates(e, p.shape[-1]))


def _as_rows(x, what: str, ndim: int = 2) -> np.ndarray:
    """The shape rule of every row input: x as floats, if it is one row
    (ndim 1) or an N x K matrix (ndim 2) of K >= 2 entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim or arr.shape[-1] < 2:
        shape = "one row" if ndim == 1 else "an N x K matrix"
        raise ValueError(f"expected {shape} of {what} with K >= 2")
    return arr


def _check_probability_rows(p, labels=None, ndim: int = 2):
    """The probability-row rule, the one check of every input that must
    lie on the simplex: p is one row or an N x K matrix (_as_rows), every
    entry is >= 0 and each row sums to 1 within 1e-9; NaN and +-inf fail.

    Returns p as floats.  Given labels, one per row (one for one row), it
    also returns them checked, and each row's component at its label must
    be positive: the callers that pass labels divide by it or take its log.
    """
    p = _as_rows(p, "probabilities", ndim)
    rows = np.atleast_2d(p)
    # NaN and -inf fail the sign test, so no sum meets them; +inf and a
    # sum that overflows fail the tolerance; a stack of no rows passes
    valid = np.all(rows >= 0.0)
    if valid:
        # the sums run over column views, one long pass per class, since
        # numpy sums along a short last axis one inner loop per row; only
        # the tolerance reads them, so their order reaches no output
        sums = rows[:, 0].copy()
        with np.errstate(over="ignore"):
            for j in range(1, rows.shape[1]):
                sums += rows[:, j]
        valid = np.all(np.abs(sums - 1.0) <= 1e-9)
    if not valid:
        raise ValueError(
            "rows must be probability vectors: finite, nonnegative and on "
            "the simplex within 1e-9"
        )
    if labels is None:
        return p
    labels = _row_labels(labels, p)
    if not np.all(rows[np.arange(rows.shape[0]), labels] > 0.0):
        raise ValueError("the row's component at the label must be positive")
    return p, labels


def _noisy_forward(rows, e) -> np.ndarray:
    """noisy_posterior_forward on rows and rates the caller has checked."""
    return (1.0 - e.sum()) * rows + e


def posterior_correct(noisy_p, e, rescale: bool = False) -> np.ndarray:
    """Subtract flip-in rates from estimated noisy posteriors.

    noisy_p is an N x K matrix of finite values with K >= 2.  With
    rescale, rows are divided by (1 - sum(e)); a positive constant, so
    predictions are unchanged either way.  Negative components are
    preserved: clamping before the argmax could flip predictions.
    """
    vals = _as_rows(noisy_p, "posterior estimates")
    if not np.all(np.isfinite(vals)):
        raise ValueError("posterior estimates must be finite")
    e = _check_rates(e, vals.shape[1])
    corrected = vals - e
    if rescale:
        corrected = corrected / (1.0 - e.sum())
    return corrected


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

