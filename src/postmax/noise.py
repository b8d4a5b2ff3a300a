"""Label-noise models: transition matrices and dataset corruption.

Labels are 0-based integers everywhere.  A transition matrix entry
entries[i][j] is the probability that a clean label i is observed as j.
NoiseParams describes symmetric or uniform off-diagonal noise, the two
models with per-class flip-in rates, and to_matrix builds either one's
transition matrix; corrupt takes any transition matrix.
The two inputs the corrections read besides the network's rows each
have one rule, owned here: _check_labels for labels and _check_rates for
flip-in rates, whose length K >= 2 NoiseParams checks when it is built.
Every library entry point that takes either calls them; the row rules
are posterior._check_probability_rows and objective._check_T.
Corruption draws one uniform variate per sample from a counter-based
generator keyed on the seed, with the sample index selecting the stream
position, so the outcome for a sample never depends on processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from postmax.divergence import _integer, _is_real, _seed

ROW_SUM_TOL = 1e-12


def _check_labels(labels, n: int, k: int) -> np.ndarray:
    """The label rule: n labels, one per sample, each an integer in [0, k).

    Integer and bool arrays pass as they are; float arrays, and object
    arrays of numbers, must hold integral values.  Range and integrality
    are tested before any cast to int, so NaN, infinities, huge floats and
    Python ints past float's range fail here rather than in numpy's cast.
    Returns a new int64 array.
    """
    labs = np.asarray(labels)
    if labs.ndim != 1 or labs.shape[0] != n:
        raise ValueError("labels must be one integer per sample")
    if labs.dtype.kind in "biu":
        valid = not ((labs < 0).any() or (labs >= k).any())
    elif labs.dtype.kind in "fO":
        try:
            vals = labs.astype(float)
        except OverflowError:  # an object array's int past float's range
            vals = np.nan  # fails the range test, as a huge float does
        valid = ((vals >= 0.0) & (vals < k) & (np.floor(vals) == vals)).all()
    else:
        valid = False
    if not valid:
        raise ValueError(f"labels must be integers in [0, {k})")
    return labs.astype(np.int64)


def _check_rates(e, k: int, lead: tuple = ()) -> np.ndarray:
    """The flip-rate rule: k finite, nonnegative rates that sum to less
    than 1.  e has shape lead + (k,), one rate vector along the last axis
    per leading index, each checked on its own.  Returns e as floats."""
    e = np.asarray(e, dtype=float)
    if e.shape != (*lead, k):
        raise ValueError(f"flip rates must have shape {(*lead, k)}, got {e.shape}")
    # NaN fails both comparisons, and an infinite rate sums to inf or NaN
    if not (np.all(e >= 0.0) and np.all(e.sum(axis=-1) < 1.0)):
        raise ValueError(
            "flip rates must be finite, nonnegative and sum to less than 1"
        )
    return e


def _check_stochastic(entries: np.ndarray) -> None:
    """TransitionMatrix's value checks on the K x K matrix on the last two
    axes of entries, for each leading index."""
    if not np.all((entries >= 0.0) & (entries <= 1.0)):  # NaN lies in neither
        raise ValueError("transition probabilities must lie in [0, 1]")
    if np.any(np.abs(entries.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
        raise ValueError(f"each row must sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class TransitionMatrix:
    """K x K row-stochastic matrix of label-flip probabilities."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("transition matrix must be square with K >= 2")
        _check_stochastic(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class NoiseParams:
    """Noise model description: symmetric or uniform off-diagonal.

    Symmetric noise flips a label to each other class with probability
    eta/(K-1).  Uniform off-diagonal noise flips into class j with
    probability e[j] regardless of the source class.  Both have the
    per-class flip-in rates the correction formulas take.  Every rate
    must be finite.  The parameters describe the noise only: the seed of
    a draw is corrupt's argument.
    """

    kind: str  # "symmetric" | "uniform_offdiag"
    eta: Optional[float] = None
    e: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind == "symmetric":
            if not (_is_real(self.eta) and math.isfinite(self.eta) and self.eta >= 0.0):
                raise ValueError("symmetric noise requires a finite eta >= 0")
            object.__setattr__(self, "eta", float(self.eta))
        elif self.kind == "uniform_offdiag":
            if self.e is None:
                raise ValueError("uniform off-diagonal noise requires a rate vector e")
            if not all(map(_is_real, np.asarray(self.e, dtype=object).ravel())):
                raise ValueError(f"flip rates must be numbers, got {self.e!r}")
            e = np.asarray(self.e, dtype=float)
            if e.ndim != 1 or e.shape[0] < 2:
                raise ValueError("flip rates must be a vector of length K >= 2")
            object.__setattr__(self, "e", tuple(_check_rates(e, e.shape[0]).tolist()))
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @classmethod
    def symmetric(cls, eta: float) -> "NoiseParams":
        return cls(kind="symmetric", eta=eta)

    @classmethod
    def uniform_offdiag(cls, e: Sequence[float]) -> "NoiseParams":
        return cls(kind="uniform_offdiag", e=e)

    def _check_classes(self, k: int) -> None:
        """The rules that read the class count k, allocating nothing."""
        if k < 2:
            raise ValueError("need at least two classes")
        if self.kind == "symmetric":
            if self.eta >= (k - 1) / k:
                raise ValueError("eta must satisfy 0 <= eta < (K-1)/K")
        elif len(self.e) != k:
            raise ValueError(f"flip rates have length {len(self.e)}, expected {k}")

    def to_matrix(self, k: int) -> TransitionMatrix:
        self._check_classes(k)
        if self.kind == "symmetric":
            entries = np.full((k, k), self.eta / (k - 1))
            np.fill_diagonal(entries, 1.0 - self.eta)
            return TransitionMatrix(entries)
        return TransitionMatrix(_offdiag_entries(np.asarray(self.e)))

    def flip_rates(self, k: int) -> np.ndarray:
        """Per-class flip-in rates e for the correction formulas."""
        self._check_classes(k)
        if self.kind == "symmetric":
            return np.full(k, self.eta / (k - 1))
        return np.asarray(self.e, dtype=float)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer labels in [0, K).

    Features are held read-only.  An array the caller can still write
    through is copied; a read-only one that owns its memory, such as
    another dataset's features, is shared.  provenance records whether
    corrupt produced the labels; which noise did is not kept.
    """

    features: np.ndarray
    labels: np.ndarray
    k: int
    provenance: str = "clean"  # "clean" | "corrupted"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a nonempty N x D matrix")
        object.__setattr__(self, "k", _integer(self.k, "k", least=2))
        labs = _check_labels(self.labels, feats.shape[0], self.k)
        if self.provenance not in ("clean", "corrupted"):
            raise ValueError("provenance must be 'clean' or 'corrupted'")
        if feats.flags.writeable or feats.base is not None:
            feats = feats.copy()
            feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _offdiag_entries(e: np.ndarray) -> np.ndarray:
    """Uniform off-diagonal matrix entries for rate rows e (..., K),
    unchecked: one (..., K, K) matrix per row; column j is e[j] off the diagonal."""
    k = e.shape[-1]
    entries = np.repeat(e[..., None, :], k, axis=-2)
    # row i keeps the label with probability 1 - sum_{j != i} e_j
    diag = np.arange(k)
    entries[..., diag, diag] = 1.0 - (e.sum(axis=-1, keepdims=True) - e)
    return entries


def _counter_uniforms(seed: int, n: int) -> np.ndarray:
    # Philox is counter-based: with a fixed key, stream position i always
    # yields the same variate, so sample i's draw is a pure function of
    # (seed, i) and corruption is order-independent.
    gen = np.random.Generator(np.random.Philox(key=_seed(seed)))
    return gen.random(n)


def corrupt(ds: LabeledDataset, tm: TransitionMatrix, seed: int) -> LabeledDataset:
    """Replace each label by a draw from its transition-matrix row.

    Features are carried over untouched: the result shares the input's
    read-only feature array and is marked provenance="corrupted"; the
    matrix and seed are not stored on it.  The same (dataset, matrix,
    seed) always produces the same output, and the draw for sample i
    does not depend on any other sample.
    """
    if ds.k != tm.k:
        raise ValueError(f"dataset has {ds.k} classes but the matrix has {tm.k}")
    if ds.provenance != "clean":
        raise ValueError("refusing to corrupt an already corrupted dataset")
    u = _counter_uniforms(seed, ds.n)
    # A row's new label is the count of its class's cumulative
    # probabilities at or below its variate, clamped to K - 1: one sorted
    # search per class, over the rows of that class, so no (n, K) array
    # is built.
    order = np.argsort(ds.labels, kind="stable")
    ends = np.cumsum(np.bincount(ds.labels, minlength=ds.k)).tolist()
    new_labels = np.empty(ds.n, np.int64)
    for c, (lo, hi) in enumerate(zip([0, *ends], ends)):
        rows = order[lo:hi]
        cum = np.cumsum(tm.entries[c])
        new_labels[rows] = np.searchsorted(cum, u[rows], side="right")
    np.minimum(new_labels, ds.k - 1, out=new_labels)
    return LabeledDataset(ds.features, new_labels, ds.k, provenance="corrupted")

