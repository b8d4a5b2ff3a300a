"""Posterior estimation, MAP prediction, and test-time noise correction.

A trained network's outputs T convert to class-posterior estimates via
the conjugate derivative of the divergence generator.  Under uniform
off-diagonal label noise the estimated posterior is an affine map of the
clean one, so subtracting the per-class flip-in rates recovers a vector
with the clean argmax.  Posterior rows and flip rates are plain arrays.
Corrected values may dip slightly below zero at finite sample size; they
are kept as-is, since clamping before the argmax could flip predictions.
"""

from __future__ import annotations

import numpy as np

from postmax.divergence import conj_prime


def estimate_posterior(spec, T_outputs) -> np.ndarray:
    """Map network outputs to posterior estimates via the conjugate slope."""
    T = np.asarray(T_outputs, dtype=float)
    if T.ndim != 2 or T.shape[1] < 2:
        raise ValueError("network outputs must form an N x K matrix")
    return conj_prime(spec, T)


def predict(p) -> np.ndarray:
    """Rowwise argmax; ties resolve to the lowest class index."""
    vals = np.asarray(p, dtype=float)
    if vals.ndim != 2:
        raise ValueError("expected an N x K matrix")
    return np.argmax(vals, axis=1).astype(np.int64)


def _check_rates(e, k: int) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.shape[0] != k:
        raise ValueError(f"flip rates must be a length-{k} vector")
    if not (np.all(e >= 0.0) and e.sum() < 1.0):  # NaN fails both
        raise ValueError(
            "flip rates must be finite, nonnegative and sum to less than 1"
        )
    return e


def noisy_posterior_forward(clean_p, e) -> np.ndarray:
    """Posterior over noisy labels implied by flip-in rates e.

    Accepts one simplex row or a stack of rows; component i becomes
    (1 - sum(e)) * p_i + e_i, which stays on the simplex.
    """
    p = np.asarray(clean_p, dtype=float)
    rows = np.atleast_2d(p)
    if rows.shape[1] < 2:
        raise ValueError("expected rows of length K >= 2")
    e = _check_rates(e, rows.shape[1])
    _check_probability_rows(rows)
    out = _noisy_forward(rows, e)
    return out[0] if p.ndim == 1 else out


def _check_probability_rows(rows) -> None:
    # the sums run over column views, one long pass per class, since
    # numpy sums along a short last axis one inner loop per row; only
    # the tolerance reads them, so their order reaches no output
    sums = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        sums += rows[:, j]
    # NaN fails both; a stack of no rows passes
    if not (np.all(rows >= 0.0) and np.all(np.abs(sums - 1.0) <= 1e-9)):
        raise ValueError("rows must be probability vectors")


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
    vals = np.asarray(noisy_p, dtype=float)
    if vals.ndim != 2 or vals.shape[1] < 2:
        raise ValueError("expected an N x K matrix with K >= 2")
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
    if preds.shape[0] == 0:
        raise ValueError("cannot score an empty batch")
    return float(np.mean(preds == labels))

