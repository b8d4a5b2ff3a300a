"""Posterior estimation, MAP prediction, and test-time noise correction.

A trained network's outputs T convert to class-posterior estimates via
the conjugate derivative of the divergence generator.  Under uniform
off-diagonal label noise the estimated posterior is an affine map of the
clean one, so subtracting the per-class flip-in rates recovers a vector
with the clean argmax.  Corrected values may dip slightly below zero at
finite sample size; they are kept as-is for prediction and clamped only
when producing normalized rows for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from postmax.divergence import conj_prime
from postmax.noise import NoiseParams

NORMALIZED_ROW_TOL = 1e-6


@dataclass(frozen=True)
class PosteriorMatrix:
    """Per-sample class-posterior estimates, one row per sample.

    Unnormalized matrices hold raw estimates: typically near-simplex and
    nonnegative, but bias-corrected rows may carry small negative
    components that prediction must see unaltered.  Normalized matrices
    are reporting output: nonnegative rows summing to 1 within 1e-6.
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("values must be an N x K matrix with K >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        if self.normalized:
            if np.any(arr < 0.0):
                raise ValueError("normalized rows must be nonnegative")
            if np.max(np.abs(arr.sum(axis=1) - 1.0)) > NORMALIZED_ROW_TOL:
                raise ValueError(
                    f"normalized rows must sum to 1 within {NORMALIZED_ROW_TOL}"
                )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def to_normalized(self) -> "PosteriorMatrix":
        """Clamp negatives to zero and rescale each row to sum to 1."""
        vals = np.clip(self.values, 0.0, None)
        sums = vals.sum(axis=1, keepdims=True)
        if np.any(sums <= 0.0):
            raise ValueError("cannot normalize a row with no positive mass")
        return PosteriorMatrix(vals / sums, normalized=True)


def estimate_posterior(spec, T_outputs) -> PosteriorMatrix:
    """Map network outputs to posterior estimates via the conjugate slope."""
    T = np.asarray(T_outputs, dtype=float)
    if T.ndim != 2 or T.shape[1] < 2:
        raise ValueError("network outputs must form an N x K matrix")
    return PosteriorMatrix(conj_prime(spec, T), normalized=False)


def predict(p) -> np.ndarray:
    """Rowwise argmax; ties resolve to the lowest class index."""
    vals = p.values if isinstance(p, PosteriorMatrix) else np.asarray(p, dtype=float)
    if vals.ndim != 2:
        raise ValueError("expected an N x K matrix")
    return np.argmax(vals, axis=1).astype(np.int64)


def _check_rates(e, k: int) -> np.ndarray:
    if isinstance(e, NoiseParams):
        e = e.flip_rates(k)
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.shape[0] != k:
        raise ValueError(f"flip rates must be a length-{k} vector")
    if np.any(e < 0.0) or e.sum() >= 1.0:
        raise ValueError("flip rates must be nonnegative and sum to less than 1")
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
    if np.any(rows < 0.0) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows must be probability vectors")
    out = (1.0 - e.sum()) * rows + e
    return out[0] if p.ndim == 1 else out


def posterior_correct(noisy_p, e, rescale: bool = False) -> PosteriorMatrix:
    """Subtract flip-in rates from estimated noisy posteriors.

    With rescale, rows are divided by (1 - sum(e)); a positive constant,
    so predictions are unchanged either way.  Negative components are
    preserved: clamping before the argmax could flip predictions.
    """
    vals = noisy_p.values if isinstance(noisy_p, PosteriorMatrix) else None
    if vals is None:
        vals = np.atleast_2d(np.asarray(noisy_p, dtype=float))
    if vals.shape[1] < 2:
        raise ValueError("expected rows of length K >= 2")
    e = _check_rates(e, vals.shape[1])
    corrected = vals - e
    if rescale:
        corrected = corrected / (1.0 - e.sum())
    return PosteriorMatrix(corrected, normalized=False)


def accuracy(preds, labels) -> float:
    """Fraction of exact label matches."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("predictions and labels must be equal-length vectors")
    if preds.shape[0] == 0:
        raise ValueError("cannot score an empty batch")
    return float(np.mean(preds == labels))

