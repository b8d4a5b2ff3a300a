"""Every public entry point that takes labels or flip rates applies the
one label rule of noise._check_labels and the one rate rule of
noise._check_rates.  pyproject.toml turns warnings into errors, so a
case that raised a numpy warning instead of a ValueError fails here."""

import math

import numpy as np
import pytest

from postmax.analysis import training_bias_expression
from postmax.divergence import optimal_T_from_posterior
from postmax.model import MlpSpec, init, objective_and_gradients
from postmax.noise import LabeledDataset, NoiseParams, uniform_offdiag_matrix
from postmax.objective import (
    DiscreteJoint,
    ObjectiveConfig,
    active_passive_split,
    bias_multiclass,
    bias_simplex_batch,
    corrected_grad_batch,
    corrected_grad_sample,
    corrected_jf_batch,
    cross_entropy,
    cross_entropy_logit_grad,
    exact_bias,
    jf_batch,
    jf_grad_batch,
    jf_grad_sample,
    jf_simplex_batch,
    jf_simplex_kl,
    jf_simplex_kl_logit_grad,
    jf_simplex_logit_grad_batch,
)
from postmax.posterior import noisy_posterior_forward, posterior_correct

K = 3
E = [0.1, 0.05, 0.2]
D = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])  # two simplex rows
T = optimal_T_from_posterior("kl", D)
X = np.array([[0.5, -1.0], [2.0, 0.25]])
MODEL = init(MlpSpec((2, 4, K)), seed=0)
CORRECTED = ObjectiveConfig("kl", "objective", NoiseParams.uniform_offdiag(E))

# entry point -> function of a two-sample label vector
BATCH_LABELS = {
    "LabeledDataset": lambda y: LabeledDataset(X, y, K).labels,
    "jf_batch": lambda y: jf_batch("kl", T, y),
    "jf_grad_batch": lambda y: jf_grad_batch("kl", T, y),
    "jf_simplex_batch": lambda y: jf_simplex_batch("kl", D, y),
    "jf_simplex_logit_grad_batch": lambda y: jf_simplex_logit_grad_batch("kl", D, y),
    "objective_and_gradients": lambda y: objective_and_gradients(
        MODEL, X, y, CORRECTED
    ),
    "corrected_jf_batch": lambda y: corrected_jf_batch("kl", T, y, E),
    "corrected_grad_batch": lambda y: corrected_grad_batch("kl", T, y, E),
}
# entry point -> function of one label
SCALAR_LABEL = {
    "jf_grad_sample": lambda y: jf_grad_sample("kl", T[0], y),
    "corrected_grad_sample": lambda y: corrected_grad_sample("kl", T[0], y, E),
    "active_passive_split": lambda y: active_passive_split("kl", T[0], y),
    "jf_simplex_kl": lambda y: jf_simplex_kl(D[0], y),
    "cross_entropy": lambda y: cross_entropy(D[0], y),
    "cross_entropy_logit_grad": lambda y: cross_entropy_logit_grad(D[0], y),
    "jf_simplex_kl_logit_grad": lambda y: jf_simplex_kl_logit_grad(D[0], y),
}
BAD_LABELS = [1.5, -1, K, math.nan, math.inf, 1e30]

# entry point -> function of one rate vector for K classes
RATES = {
    "NoiseParams.uniform_offdiag": lambda e: (
        NoiseParams.uniform_offdiag(e).flip_rates(K)
    ),
    "uniform_offdiag_matrix": uniform_offdiag_matrix,
    "bias_multiclass": lambda e: bias_multiclass("kl", T, e),
    "corrected_jf_batch": lambda e: corrected_jf_batch("kl", T, [0, 1], e),
    "corrected_grad_batch": lambda e: corrected_grad_batch("kl", T, [0, 1], e),
    "corrected_grad_sample": lambda e: corrected_grad_sample("kl", T[0], 0, e),
    "bias_simplex_batch": lambda e: bias_simplex_batch("kl", D, e),
    "jf_simplex_logit_grad_batch": lambda e: jf_simplex_logit_grad_batch(
        "kl", D, [0, 1], e
    ),
    "exact_bias": lambda e: exact_bias("kl", DiscreteJoint(D / 2.0), T, e),
    "noisy_posterior_forward": lambda e: noisy_posterior_forward(D, e),
    "posterior_correct": lambda e: posterior_correct(D, e),
    "training_bias_expression": lambda e: training_bias_expression(
        "kl", D[0], e, np.zeros(K), T[0]
    ),
}
BAD_RATES = {
    "nan": [math.nan, 0.1, 0.1],
    "inf": [math.inf, 0.1, 0.1],
    "negative": [-0.1, 0.1, 0.1],
    "sum_one": [0.5, 0.25, 0.25],
    "wrong_length": [0.2],
}


def flat(out) -> np.ndarray:
    """Every number in a result of nested tuples, lists and arrays."""
    if isinstance(out, (tuple, list)):
        return np.concatenate([flat(part) for part in out])
    return np.ravel(np.asarray(out, dtype=float))


@pytest.mark.parametrize("bad", BAD_LABELS, ids=repr)
@pytest.mark.parametrize("entry", list(BATCH_LABELS))
def test_batch_entry_rejects_bad_label(entry, bad):
    with pytest.raises(ValueError, match="labels"):
        BATCH_LABELS[entry](np.array([0, bad]))


@pytest.mark.parametrize("bad", BAD_LABELS, ids=repr)
@pytest.mark.parametrize("entry", list(SCALAR_LABEL))
def test_scalar_entry_rejects_bad_label(entry, bad):
    with pytest.raises(ValueError, match="labels"):
        SCALAR_LABEL[entry](bad)


@pytest.mark.parametrize("entry", list(BATCH_LABELS))
def test_batch_entry_reads_floats_and_bools_as_ints(entry):
    fn = BATCH_LABELS[entry]
    want = flat(fn(np.array([1, 0])))
    for same in (np.array([1.0, 0.0]), np.array([True, False])):
        np.testing.assert_array_equal(flat(fn(same)), want)


@pytest.mark.parametrize("entry", list(SCALAR_LABEL))
def test_scalar_entry_reads_floats_and_bools_as_ints(entry):
    fn = SCALAR_LABEL[entry]
    want = flat(fn(1))
    for same in (1.0, np.float64(1.0), True, np.True_):
        np.testing.assert_array_equal(flat(fn(same)), want)


@pytest.mark.parametrize(
    "fn",
    [jf_simplex_kl, cross_entropy, cross_entropy_logit_grad, jf_simplex_kl_logit_grad],
)
def test_per_row_reference_rejects_zero_at_label(fn):
    with pytest.raises(ValueError, match="label"):
        fn([1.0, 0.0, 0.0], 1)
    fn([1.0, 0.0, 0.0], 0)  # zeros away from the label are fine


@pytest.mark.parametrize("case", list(BAD_RATES))
@pytest.mark.parametrize("entry", list(RATES))
def test_rate_entry_rejects_bad_rates(entry, case):
    with pytest.raises(ValueError, match="flip rates"):
        RATES[entry](BAD_RATES[case])


@pytest.mark.parametrize("entry", list(RATES))
def test_rate_entry_takes_good_rates(entry):
    RATES[entry](E)
