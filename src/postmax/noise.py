"""Label-noise models: transition matrices and dataset corruption.

Labels are 0-based integers everywhere.  A transition matrix entry
entries[i][j] is the probability that a clean label i is observed as j.
Corruption draws one uniform variate per sample from a counter-based
generator keyed on the seed, with the sample index selecting the stream
position, so the outcome for a sample never depends on processing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """K x K row-stochastic matrix of label-flip probabilities."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("transition matrix must be square with K >= 2")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(arr.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"each row must sum to 1 within {ROW_SUM_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class NoiseParams:
    """Noise model description: symmetric, uniform off-diagonal, or custom.

    Symmetric noise flips a label to each other class with probability
    eta/(K-1).  Uniform off-diagonal noise flips into class j with
    probability e[j] regardless of the source class.  Custom wraps an
    arbitrary transition matrix; corrections reject it because the
    correction formulas are defined only for the first two models.
    """

    kind: str  # "symmetric" | "uniform_offdiag" | "custom"
    eta: Optional[float] = None
    e: Optional[tuple[float, ...]] = None
    matrix: Optional[TransitionMatrix] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind == "symmetric":
            if self.eta is None or self.eta < 0.0:
                raise ValueError("symmetric noise requires eta >= 0")
        elif self.kind == "uniform_offdiag":
            if self.e is None:
                raise ValueError("uniform off-diagonal noise requires a rate vector e")
            e = tuple(float(v) for v in self.e)
            if any(v < 0.0 for v in e):
                raise ValueError("flip rates must be nonnegative")
            if sum(e) >= 1.0:
                raise ValueError("flip rates must sum to less than 1")
            object.__setattr__(self, "e", e)
        elif self.kind == "custom":
            if self.matrix is None:
                raise ValueError("custom noise requires a transition matrix")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @classmethod
    def symmetric(cls, eta: float, seed: int = 0) -> "NoiseParams":
        return cls(kind="symmetric", eta=float(eta), seed=seed)

    @classmethod
    def uniform_offdiag(cls, e: Sequence[float], seed: int = 0) -> "NoiseParams":
        return cls(kind="uniform_offdiag", e=tuple(float(v) for v in e), seed=seed)

    @classmethod
    def custom(cls, matrix: TransitionMatrix, seed: int = 0) -> "NoiseParams":
        return cls(kind="custom", matrix=matrix, seed=seed)

    def to_matrix(self, k: int) -> TransitionMatrix:
        if self.kind == "symmetric":
            return symmetric_matrix(k, self.eta)
        if self.kind == "uniform_offdiag":
            if len(self.e) != k:
                raise ValueError(f"rate vector has length {len(self.e)}, expected {k}")
            return uniform_offdiag_matrix(self.e)
        return self.matrix

    def flip_rates(self, k: int) -> np.ndarray:
        """Per-class flip-in rates e for the correction formulas."""
        if self.kind == "symmetric":
            if k < 2:
                raise ValueError("need at least two classes")
            if self.eta >= (k - 1) / k:
                raise ValueError("eta must be below (K-1)/K")
            return np.full(k, self.eta / (k - 1))
        if self.kind == "uniform_offdiag":
            if len(self.e) != k:
                raise ValueError(f"rate vector has length {len(self.e)}, expected {k}")
            return np.asarray(self.e, dtype=float)
        raise ValueError("corrections support only symmetric or uniform off-diagonal noise")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer labels in [0, K)."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    provenance: str = "clean"  # "clean" | "corrupted"
    noise: Optional[NoiseParams] = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a nonempty N x D matrix")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must be one integer per sample")
        if not np.issubdtype(labs.dtype, np.integer):
            if not np.all(labs == labs.astype(np.int64)):
                raise ValueError("labels must be integers")
        labs = labs.astype(np.int64)
        if self.k < 2:
            raise ValueError("need at least two classes")
        if np.any(labs < 0) or np.any(labs >= self.k):
            raise ValueError(f"labels must lie in [0, {self.k})")
        if self.provenance not in ("clean", "corrupted"):
            raise ValueError("provenance must be 'clean' or 'corrupted'")
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


def symmetric_matrix(k: int, eta: float) -> TransitionMatrix:
    """Matrix that keeps a label with probability 1-eta and spreads eta evenly."""
    if k < 2:
        raise ValueError("need at least two classes")
    if eta < 0.0 or eta >= (k - 1) / k:
        raise ValueError("eta must satisfy 0 <= eta < (K-1)/K")
    off = eta / (k - 1)
    entries = np.full((k, k), off)
    np.fill_diagonal(entries, 1.0 - eta)
    return TransitionMatrix(entries)


def uniform_offdiag_matrix(e: Sequence[float]) -> TransitionMatrix:
    """Matrix whose off-diagonal column j is constant e[j]."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.shape[0] < 2:
        raise ValueError("e must be a vector of length K >= 2")
    if np.any(e < 0.0):
        raise ValueError("flip rates must be nonnegative")
    if e.sum() >= 1.0:
        raise ValueError("flip rates must sum to less than 1")
    k = e.shape[0]
    entries = np.tile(e, (k, 1))
    # row i keeps the label with probability 1 - sum_{j != i} e_j
    np.fill_diagonal(entries, 1.0 - (e.sum() - e))
    return TransitionMatrix(entries)


def _counter_uniforms(seed: int, n: int) -> np.ndarray:
    # Philox is counter-based: with a fixed key, stream position i always
    # yields the same variate, so sample i's draw is a pure function of
    # (seed, i) and corruption is order-independent.
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random(n)


def corrupt(ds: LabeledDataset, tm: TransitionMatrix, seed: int) -> LabeledDataset:
    """Replace each label by a draw from its transition-matrix row.

    Features are carried over untouched.  The same (dataset, matrix, seed)
    always produces the same output, and the draw for sample i does not
    depend on any other sample.
    """
    if ds.k != tm.k:
        raise ValueError(f"dataset has {ds.k} classes but the matrix has {tm.k}")
    if ds.provenance != "clean":
        raise ValueError("refusing to corrupt an already corrupted dataset")
    u = _counter_uniforms(seed, ds.n)
    cum = np.cumsum(tm.entries, axis=1)[ds.labels]
    new_labels = np.minimum((u[:, None] >= cum).sum(axis=1), ds.k - 1)
    params = NoiseParams.custom(tm, seed=seed)
    return LabeledDataset(
        features=ds.features,
        labels=new_labels,
        k=ds.k,
        provenance="corrupted",
        noise=params,
    )

