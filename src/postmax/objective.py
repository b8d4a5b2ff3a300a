"""Training objective, noise-bias terms, corrections, and exact oracles.

The objective for a batch of network outputs T (one row per sample, one
column per class) and labels y is

    mean_n [ T[n, y_n] - sum_i f*(T[n, i]) ]

and is maximized.  At the population optimum, (f*)'(T) equals the class
posterior.  Under uniform off-diagonal label noise the noisy-data value
of this objective decomposes into a scaled clean value plus a bias that
depends only on the flip rates; subtracting an estimate of that bias
during training makes the noisy maximizer coincide with the clean one.

One rule, _rows, gives every head's per-row objective, a[y] + c at label
y, from per-label terms a (T itself for outputs T) and a row term c (-sum
f*(T)), and the bias of rates e as the e-weighted objective at every
label.  So for any a and c, the mean corrected row over labels drawn from
(1 - sum(e)) * p + e is (1 - sum(e)) times the mean row under p.

Each row input is an N x K matrix, K >= 2, and has one rule: network
outputs pass _check_T (inside the conjugate domain); simplex rows pass
posterior._check_probability_rows, which also rejects a zero at the
label, where jf_simplex_batch takes its log; the rows of
bias_simplex_batch, off the simplex, lie in the domain of f'.

The gradients here are derived analytically, and the test suite checks
them against centered finite differences and against the per-row
references of tests/references.py, which import nothing from this module.
DiscreteJoint supports exact (closed-sum) expectations on finite
domains, which is what the identity oracles are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from postmax.divergence import (
    DivergenceSpec,
    _as_spec,
    _check_in_domain,
    _check_positive,
    _finish,
    conj_prime,  # unused here, like conj_second; perfbench/spans.py wraps both
    conj_second,
    get_divergence,
)
from postmax.noise import (
    NoiseParams,
    TransitionMatrix,
    _check_labels,
    _check_rates,
)
from postmax.posterior import _as_rows, _batch_mean, _check_probability_rows

_CORRECTIONS = ("none", "objective", "posterior")


@dataclass(frozen=True)
class ObjectiveConfig:
    """What to train: divergence, correction mode and noise.  The output
    head is the model's, named by its MlpSpec."""

    divergence: str
    correction: str = "none"
    noise: Optional[NoiseParams] = None

    def __post_init__(self):
        get_divergence(self.divergence)  # a registered id, not a spec object
        if self.correction not in _CORRECTIONS:
            raise ValueError(f"correction must be one of {_CORRECTIONS}")
        if self.correction != "none" and self.noise is None:
            raise ValueError("a correction mode requires noise parameters")


def _check_pmf(pmf: np.ndarray) -> None:
    """DiscreteJoint's value checks on the M x K pmf on the last two axes
    of pmf, for each leading index; a NaN total fails them."""
    if np.any(pmf < 0.0):
        raise ValueError("pmf entries must be nonnegative")
    if not np.all(np.abs(pmf.sum(axis=(-2, -1)) - 1.0) <= 1e-12):
        raise ValueError("pmf must sum to 1 within 1e-12")
    if np.any(pmf.sum(axis=-1) <= 0.0):
        raise ValueError("every point must carry positive probability")


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint distribution on M abstract points and K classes.

    pmf[m, j] is the probability of pair (x_m, y=j).  Expectations over
    such a joint are finite sums, so objective identities can be checked
    without sampling error.
    """

    pmf: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pmf, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError("pmf must be an M x K matrix with K >= 2")
        _check_pmf(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pmf", arr)

    @property
    def m(self) -> int:
        return self.pmf.shape[0]

    @property
    def k(self) -> int:
        return self.pmf.shape[1]

    @property
    def p_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    @property
    def posterior(self) -> np.ndarray:
        return self.pmf / self.p_x[:, None]


def _check_T(spec: DivergenceSpec, T, labels=None):
    """The network-output rule: T is an N x K matrix (_as_rows) inside
    spec's open conjugate domain.  Returns T as floats, and with labels
    given, one per row, them checked too."""
    T = _as_rows(T, "network outputs")
    _check_in_domain(spec, T)
    return T if labels is None else (T, _check_labels(labels, *T.shape))


def jf_batch(spec, T, labels) -> float:
    """Sample mean of T at the label minus the summed conjugate of T."""
    spec = _as_spec(spec)
    return _jf(spec, *_check_T(spec, T, labels))


def _jf(spec: DivergenceSpec, T, labels) -> float:
    """jf_batch on outputs, labels and a spec the caller has checked."""
    return _batch_mean(_rows(T, -spec.conj(T).sum(axis=1), labels))


def _rows(a, c, labels, e=None) -> np.ndarray:
    """The one objective-row rule, without input checks: per-label terms a
    (N, K) and a row term c, (N,) or a scalar, give a[n, y_n] + c[n], less
    with rate row e the bias, the e-weighted objective at every label."""
    value = a[np.arange(a.shape[0]), labels] + c
    if e is not None:
        value -= _bias_rows(a, c, e)
    return value


def _bias_rows(a, c, e) -> np.ndarray:
    """The bias of _rows' terms a and c under rate row e, per row:
    sum_y e_y * (a[y] + c) = a @ e + sum(e) * c."""
    return a @ e + e.sum() * c


def jf_grad_batch(spec, T, labels) -> np.ndarray:
    """Per-sample ascent gradients, one row per sample."""
    spec = _as_spec(spec)
    return _jf_grad(spec, *_check_T(spec, T, labels))


def _jf_grad(spec: DivergenceSpec, T, labels) -> np.ndarray:
    """jf_grad_batch on outputs, labels and a spec the caller has checked."""
    grad = -spec.conj_prime(T)
    grad[np.arange(T.shape[0]), labels] += 1.0
    return grad


def _bias(spec: DivergenceSpec, T, e) -> float:
    """The mean noise bias of rates e at outputs T, all caller-checked."""
    return _batch_mean(_bias_rows(T, -spec.conj(T).sum(axis=1), e))


def corrected_jf_batch(spec, T, labels, e) -> float:
    """Objective on noisy labels minus the estimated bias, same batch."""
    spec = _as_spec(spec)
    T, labels = _check_T(spec, T, labels)
    return _jf(spec, T, labels) - _bias(spec, T, _check_rates(e, T.shape[1]))


def corrected_grad_batch(spec, T, labels, e) -> np.ndarray:
    """Per-sample gradients of the bias-corrected objective."""
    spec = _as_spec(spec)
    T = _check_T(spec, T)
    e = _check_rates(e, T.shape[1])
    grad = _jf_grad(spec, T, _check_labels(labels, *T.shape))
    return grad - (e[None, :] - e.sum() * spec.conj_prime(T))


def jf_simplex_batch(div_id, D, labels) -> float:
    """Mean change-of-variable objective over a batch of simplex rows."""
    spec = _as_spec(div_id)
    D, labels = _check_probability_rows(D, labels)
    with np.errstate(divide="ignore"):  # a zero off the label is never read
        log_D = np.log(D)
    return _batch_mean(_rows(*spec.simplex_terms(D, log_D), labels))


def bias_simplex_batch(div_id, D, e) -> float:
    """Mean noise bias at T = f'(D) over rows D in the domain of f'; for kl
    it exceeds the simplex head's bias by sum(e), for gan and sl not at all."""
    D = _as_rows(D, "positive values")
    _check_positive(D)
    e = _check_rates(e, D.shape[1])
    spec = _as_spec(div_id)
    with np.errstate(all="ignore"):  # a conjugate that overflows fails _finish
        bias = _bias(spec, spec.f_prime(D), e)
    return _finish(bias, True, f"noise bias of {spec.id!r}")


def jf_simplex_logit_grad_batch(div_id, D, labels, e=None) -> np.ndarray:
    """Per-sample ascent gradients w.r.t. pre-softmax logits.

    Folding the softmax jacobian into the gradient cancels every 1/D
    factor, so rows where a class probability has underflowed to exact
    zero still get finite gradients.  Agrees with the factored route
    (gradient in D, then jacobian) on interior rows; subtracts the bias
    gradient when flip-in rates are given.
    """
    spec = _as_spec(div_id)
    D = _check_probability_rows(D)
    labels = _check_labels(labels, D.shape[0], D.shape[1])
    if e is not None:
        e = _check_rates(e, D.shape[1])
    col = np.empty((D.shape[0], _column_width(D.shape[1])))
    out, work = np.empty(D.shape), (np.empty(D.shape), col)
    onehot = _onehot(labels, D.shape[1])
    _run(_simplex_logit_grad_program(spec, D, onehot, _rate_terms(e), out, work))
    return out


def _onehot(labels, k: int) -> np.ndarray:
    """Float one-hot rows, one per label along a new last axis."""
    return (labels[..., None] == np.arange(k)).astype(float)


def _run(program) -> None:
    """Run a program: a sequence of zero-argument calls, in order."""
    for op in program:
        op()


def _column_width(k: int) -> int:
    """The width of _row_max_program's and _row_sum_op's column for rows
    of k entries: 2 at k = 2, both holding the row's value, else 1."""
    return 2 if k == 2 else 1


def _row_sum_op(a, out=None):
    """A call that writes the row sums over the last axis of a into out,
    a _column_width column (a new array for None), and returns it.

    Two columns are one np.add of a and a[..., ::-1], which costs less per
    call than a reduction at every row count; from three the reduction
    is faster at a step's few rows.  The reduction starts from +0.0, so
    a row of two -0.0 sums to -0.0 here and to +0.0 there; every other
    row gets the reduction's bits.
    """
    if a.shape[-1] == 2:
        return partial(np.add, a, a[..., ::-1], out)
    return partial(np.add.reduce, a, -1, None, out, True)


def _row_max_program(a, out) -> tuple:
    """A program that writes the row maxima over the last axis of a into
    out, a _column_width column: one np.maximum of a and a[..., ::-1] for
    two columns, and from three a running np.maximum over the column
    views where timeit found it faster (at most 24 columns, at least 20
    rows per column), else the reduction.  A max is exact, so a softmax
    gets the same bits from each; only the sign of a zero maximum may
    differ, which no softmax entry reads.  np.maximum takes out by
    keyword only: numpy 2.4 deprecates a third positional argument."""
    k = a.shape[-1]
    if k == 2:
        return (partial(np.maximum, a, a[..., ::-1], out=out),)
    if k > 24 or a.size // k < 20 * k:
        return (partial(np.maximum.reduce, a, -1, None, out, True),)
    cols = [a[..., j : j + 1] for j in range(k)]
    return (
        partial(np.maximum, cols[0], cols[1], out=out),
        *(partial(np.maximum, out, c, out=out) for c in cols[2:]),
    )


def _rate_terms(e, rows=None):
    """The terms of rate rows e, shape (..., K), that the logit gradients
    read: (e[..., None, :], sum(e)[..., None, None], 1 - sum(e) likewise),
    or None for no rates.  Given rows, each term is a new (..., rows, K)
    array of those values instead, so the kernels multiply and subtract
    it without broadcasting; the step builds these once per training."""
    if e is None:
        return None
    total = e.sum(axis=-1)[..., None, None]
    terms = e[..., None, :], total, 1.0 - total
    if rows is None:
        return terms
    shape = e.shape[:-1] + (rows, e.shape[-1])
    return tuple(np.broadcast_to(t, shape).copy() for t in terms)


def _simplex_logit_grad_program(spec: DivergenceSpec, D, onehot, rates, out, work):
    """A program that writes jf_simplex_logit_grad_batch into out, without
    input checks.

    For callers that have validated labels and rates once and feed
    softmax rows: D and the one-hot label rows share a shape (..., N, K),
    and rates is None or _rate_terms of one rate row per leading index,
    shape (..., K), broadcast or at D's shape.  A zero rate row adds no
    drift and leaves its rows' gradients unchanged bit for bit.  out must
    not be onehot; work is a (..., N, K) array and a _column_width column.
    kl's identity forms add no call, so its program is plain ufunc calls;
    the gan and sl forms allocate, and run as one call that writes the
    drifted score into the scratch."""
    tmp, col = work
    ops = []
    if rates is not None:
        row, total, _ = rates
        ops += [
            partial(np.multiply, total, D, tmp),
            partial(np.subtract, row, tmp, tmp),
        ]
    s = tmp
    if spec.simplex_score is not None:
        ops.append(partial(_simplex_forms, spec, D, onehot, rates is not None, tmp))
    elif rates is not None:
        ops.append(partial(np.subtract, onehot, tmp, tmp))
    else:
        s = onehot
    return (
        *ops,
        _row_sum_op(s, col),
        partial(np.multiply, D, col, out),
        partial(np.subtract, s, out, out),
    )


def _simplex_forms(spec: DivergenceSpec, D, onehot, drifted: bool, out) -> None:
    """out = the score s of D and onehot, minus the drift form of the
    drift held in out when drifted."""
    s = spec.simplex_score(D, onehot)
    if drifted:
        np.subtract(s, spec.simplex_drift(D, out), out=out)
    else:
        np.copyto(out, s)


def _raw_rows(spec: DivergenceSpec, v, labels, e) -> np.ndarray:
    """_rows at T = link(v) of raw outputs v (N, K), without input checks;
    the conjugate enters in closed form in v, so gan and sl take every
    finite v."""
    return _rows(spec.link(v), -spec.raw_conj(v).sum(axis=1), labels, e)


def _raw_logit_grad(spec: DivergenceSpec, v, onehot, rates, out=None) -> np.ndarray:
    """Ascent gradient of _raw_rows' per-sample terms w.r.t. v, without
    input checks: (onehot - e) * link'(v) - (1 - sum(e)) * raw_score(v).
    Shapes, rates, the zero rate row and out are
    _simplex_logit_grad_program's."""
    link_prime, score = spec.raw_slopes(v)
    if rates is not None:
        row, _, keep = rates
        onehot = onehot - row
        score = score * keep
    return np.subtract(onehot * link_prime, score, out=out)


def _checked_table(spec, joint: DiscreteJoint, T_table):
    """The spec and T table of an exact oracle, checked against the joint."""
    spec = _as_spec(spec)
    T = _check_T(spec, T_table)
    if T.shape != joint.pmf.shape:
        raise ValueError("T table must match the joint's shape")
    return spec, T


def exact_jf(spec, joint: DiscreteJoint, T_table) -> float:
    """Closed-sum objective value on a finite domain; no sampling."""
    spec, T = _checked_table(spec, joint, T_table)
    return float(_exact_jf(joint.pmf, T, spec.conj(T).sum(axis=1)))


def _exact_jf(pmf, T, conj_rows):
    """exact_jf on a pmf and T table the caller has checked, given each
    row's summed conjugate conj_rows = spec.conj(T).sum(axis=-1).

    pmf and T are (..., M, K), one table per leading index, and the result
    is one value per leading index; every table gets the bits it gets alone.
    """
    return np.sum(pmf * T, axis=(-2, -1)) - _row_dot(pmf.sum(axis=-1), conj_rows)


def _row_dot(a, b):
    """np.dot of the last axes of a and b, one per leading index: matmul
    of a 1 x M by an M x 1 matrix is the one BLAS ddot np.dot makes."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def exact_jf_noisy(spec, joint: DiscreteJoint, tm: TransitionMatrix, T_table) -> float:
    """Closed-sum objective value with labels pushed through tm."""
    if joint.k != tm.k:
        raise ValueError("class counts differ")
    return exact_jf(spec, DiscreteJoint(joint.pmf @ tm.entries), T_table)


def exact_bias(spec, joint: DiscreteJoint, T_table, e) -> float:
    """Closed-sum noise bias on a finite domain, for identity oracles."""
    spec, T = _checked_table(spec, joint, T_table)
    e = _check_rates(e, joint.k)
    return float(_exact_bias(joint.pmf, T, spec.conj(T).sum(axis=1), e))


def _exact_bias(pmf, T, conj_rows, e):
    """exact_bias on a pmf, T table and rates the caller has checked, with
    conj_rows and leading indices as in _exact_jf and one rate row e
    (..., K) per table."""
    # T @ e per table, through the gemv that 2-D T @ e makes
    per_point = np.matmul(T, e[..., :, None])[..., 0]
    per_point -= e.sum(axis=-1, keepdims=True) * conj_rows
    return _row_dot(pmf.sum(axis=-1), per_point)
