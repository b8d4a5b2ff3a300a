"""Training objective, noise-bias terms, corrections, and exact oracles.

The objective for a batch of network outputs T (one row per sample, one
column per class) and labels y is

    mean_n [ T[n, y_n] - sum_i f*(T[n, i]) ]

and is maximized.  At the population optimum, (f*)'(T) equals the class
posterior.  Under uniform off-diagonal label noise the noisy-data value
of this objective decomposes into a scaled clean value plus a bias that
depends only on the flip rates; subtracting an estimate of that bias
during training makes the noisy maximizer coincide with the clean one.

Each row input has one rule.  Network outputs pass _check_T (one row or
an N x K matrix, K >= 2, in the conjugate domain); simplex rows pass
posterior._check_probability_rows, which also rejects a zero at the
label where a function takes its log or divides by it; the rows of
bias_simplex_batch, off the simplex, lie in the domain of f'.

The per-sample gradients here are derived analytically and validated
against centered finite differences in the test suite rather than
trusted.  DiscreteJoint supports exact (closed-sum) expectations on
finite domains, which is what the identity oracles are built on.
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
    _row_labels,
)
from postmax.posterior import _as_rows, _batch_mean, _check_probability_rows

# The floor of the simplex head's rows where the objective's value is
# taken from them (model._head_rows), so a row driven to the boundary
# keeps the value finite; the gradient reads the rows unfloored.
POSTERIOR_FLOOR = 1e-12

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


def _check_T(spec: DivergenceSpec, T, labels=None, ndim: int = 2):
    """The network-output rule: T is one row or an N x K matrix (_as_rows)
    inside spec's open conjugate domain.  Returns T as floats, and with
    labels given, one per row (one for one row), them checked too."""
    T = _as_rows(T, "network outputs", ndim)
    _check_in_domain(spec, T)
    return T if labels is None else (T, _row_labels(labels, T))


def jf_batch(spec, T, labels) -> float:
    """Sample mean of T at the label minus the summed conjugate of T."""
    spec = _as_spec(spec)
    return _jf(spec, *_check_T(spec, T, labels))


def _jf(spec: DivergenceSpec, T, labels) -> float:
    """jf_batch on outputs, labels and a spec the caller has checked."""
    n = np.arange(T.shape[0])
    return _batch_mean(T[n, labels] - spec.conj(T).sum(axis=1))


def jf_grad_sample(spec, T_row, label) -> np.ndarray:
    """Ascent gradient of one sample's objective term in T."""
    spec = _as_spec(spec)
    T, label = _check_T(spec, T_row, label, ndim=1)
    grad = -spec.conj_prime(T)
    grad[label] += 1.0
    return grad


def jf_grad_batch(spec, T, labels) -> np.ndarray:
    """Per-sample ascent gradients, one row per sample."""
    spec = _as_spec(spec)
    return _jf_grad(spec, *_check_T(spec, T, labels))


def _jf_grad(spec: DivergenceSpec, T, labels) -> np.ndarray:
    """jf_grad_batch on outputs, labels and a spec the caller has checked."""
    grad = -spec.conj_prime(T)
    grad[np.arange(T.shape[0]), labels] += 1.0
    return grad


def bias_multiclass(spec, T, e) -> float:
    """Noise-induced bias of the objective under per-class flip-in rates e."""
    spec = _as_spec(spec)
    T = _check_T(spec, T)
    return _bias(spec, T, _check_rates(e, T.shape[1]))


def _bias(spec: DivergenceSpec, T, e) -> float:
    """bias_multiclass on outputs, rates and a spec the caller has checked."""
    return _batch_mean(_bias_rows(spec, T, e))


def _bias_rows(spec: DivergenceSpec, T, e) -> np.ndarray:
    """_bias's per-sample terms, one per row of T."""
    return T @ e - e.sum() * spec.conj(T).sum(axis=1)


def corrected_jf_batch(spec, T, labels, e) -> float:
    """Objective on noisy labels minus the estimated bias, same batch."""
    spec = _as_spec(spec)
    T, labels = _check_T(spec, T, labels)
    return _jf(spec, T, labels) - _bias(spec, T, _check_rates(e, T.shape[1]))


def corrected_grad_sample(spec, T_row, label, e) -> np.ndarray:
    """Ascent gradient of one sample's bias-corrected objective term."""
    spec = _as_spec(spec)
    T, label = _check_T(spec, T_row, label, ndim=1)
    e = _check_rates(e, T.shape[0])
    cp = _finish(spec.conj_prime(T), False, f"conjugate derivative of {spec.id!r}")
    grad = -cp
    grad[label] += 1.0
    return grad - (e - e.sum() * cp)


def corrected_grad_batch(spec, T, labels, e) -> np.ndarray:
    """Per-sample gradients of the bias-corrected objective."""
    spec = _as_spec(spec)
    T = _check_T(spec, T)
    e = _check_rates(e, T.shape[1])
    grad = _jf_grad(spec, T, _row_labels(labels, T))
    return grad - (e[None, :] - e.sum() * spec.conj_prime(T))


def active_passive_split(spec, T_row, label) -> tuple[float, float]:
    """Split one sample's objective term into label-only and rest-only parts.

    The first component depends only on the output at the label, the
    second only on the outputs at the other classes, and they sum to the
    sample's objective term exactly.
    """
    spec = _as_spec(spec)
    T, label = _check_T(spec, T_row, label, ndim=1)
    conj_vals = spec.conj(T)
    active = float(T[label] - conj_vals[label])
    # every output but the label's, in order; never touches the label output
    others = np.concatenate((conj_vals[:label], conj_vals[label + 1 :]))
    passive = float(-others.sum())
    return active, passive


def jf_simplex_kl(D_row, label) -> float:
    """KL objective of one sample under a simplex-valued head.

    Equals log of the label's probability minus one, i.e. the negative
    cross-entropy minus one; the raw substitution T = log(D)+1 gives a
    value one unit higher, a constant that never affects maximization.
    """
    D, label = _check_probability_rows(D_row, label, ndim=1)
    return float(np.log(D[label]) - 1.0)


def cross_entropy(D_row, label) -> float:
    """Reference cross-entropy of one simplex row, for equivalence checks."""
    D, label = _check_probability_rows(D_row, label, ndim=1)
    return float(-np.log(D[label]))


def cross_entropy_logit_grad(D_row, label) -> np.ndarray:
    """Gradient of the cross-entropy w.r.t. pre-softmax logits."""
    D, label = _check_probability_rows(D_row, label, ndim=1)
    grad = D.copy()
    grad[label] -= 1.0
    return grad


def jf_simplex_kl_logit_grad(D_row, label) -> np.ndarray:
    """Gradient of jf_simplex_kl w.r.t. pre-softmax logits.

    Derived through the generic chain dJ/dD -> softmax, independently of
    the cross-entropy shortcut, so the two can be compared.
    """
    D, label = _check_probability_rows(D_row, label, ndim=1)
    g = np.zeros_like(D)
    g[label] = 1.0 / D[label]  # dJ/dD
    return D * (g - np.dot(g, D))


def jf_simplex_batch(div_id, D, labels) -> float:
    """Mean change-of-variable objective over a batch of simplex rows."""
    spec = _as_spec(div_id)
    D, labels = _check_probability_rows(D, labels)
    return _batch_mean(_jf_simplex_rows(spec, D, labels))


def _jf_simplex_rows(spec: DivergenceSpec, D, labels) -> np.ndarray:
    """jf_simplex_batch's per-row terms, on rows, labels and a spec the
    caller has checked."""
    return spec.simplex_value(D, D[np.arange(D.shape[0]), labels])


def bias_simplex_batch(div_id, D, e) -> float:
    """Mean noise bias over rows in the domain of f', in the simplex variable."""
    D = _as_rows(D, "positive values")
    _check_positive(D)
    e = _check_rates(e, D.shape[1])
    spec = _as_spec(div_id)
    with np.errstate(all="ignore"):  # a conjugate that overflows fails _finish
        bias = _batch_mean(_bias_simplex_rows(spec, D, e))
    return _finish(bias, True, f"noise bias of {spec.id!r}")


def _bias_simplex_rows(spec: DivergenceSpec, D, e) -> np.ndarray:
    """bias_simplex_batch's per-row terms, on rows and rates the caller has
    checked; the registered f' are finite on strictly positive finite
    rows."""
    return _bias_rows(spec, spec.f_prime(D), e)


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
    """Per-row objective at T = link(v) of raw outputs v (N, K), minus the
    bias of rate row e when given, without input checks; the conjugate
    enters in closed form in v, so gan and sl take every finite v."""
    T = spec.link(v)
    conj = spec.raw_conj(v).sum(axis=1)
    value = T[np.arange(v.shape[0]), labels] - conj
    if e is not None:
        value -= T @ e - e.sum() * conj
    return value


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


def noisy_joint(joint: DiscreteJoint, tm: TransitionMatrix) -> DiscreteJoint:
    """Joint over (x, noisy label) obtained by pushing labels through tm."""
    if joint.k != tm.k:
        raise ValueError("class counts differ")
    return DiscreteJoint(joint.pmf @ tm.entries)


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
    return exact_jf(spec, noisy_joint(joint, tm), T_table)


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
