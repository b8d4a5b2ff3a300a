"""Each batch kernel and exact oracle against its per-row reference in
tests/references.py, row by row, for every divergence and several class
counts.  The references are plain numpy from the divergence table, so a
fault in a kernel's indexing, its rate terms or its reduction shows
here whatever the divergence or width."""

import numpy as np
import pytest

from postmax.divergence import DIVERGENCE_IDS, optimal_T_from_posterior
from postmax.noise import NoiseParams
from postmax.objective import (
    DiscreteJoint,
    bias_simplex_batch,
    corrected_grad_batch,
    corrected_jf_batch,
    exact_bias,
    exact_jf,
    exact_jf_noisy,
    jf_batch,
    jf_grad_batch,
    jf_simplex_batch,
    jf_simplex_logit_grad_batch,
)
from references import (
    active_passive_split,
    bias_multiclass,
    corrected_grad_sample,
    cross_entropy,
    cross_entropy_logit_grad,
    jf_grad_sample,
    jf_simplex_kl,
    jf_simplex_kl_logit_grad,
    noisy_joint,
)

N = 12
WIDTHS = [2, 3, 5]


def simplex_rows(k: int, seed: int, boundary: bool = False):
    """N interior simplex rows of k classes and their labels; with
    boundary, every row but the first has a zero away from its label."""
    rng = np.random.default_rng([seed, k])
    D = rng.uniform(0.05, 1.0, size=(N, k))
    labels = rng.integers(0, k, size=N)
    if boundary:
        off = (labels[1:] + 1) % k
        D[np.arange(1, N), off] = 0.0
    return D / D.sum(axis=1, keepdims=True), labels


def rates(k: int) -> np.ndarray:
    """k distinct flip-in rates that sum to 0.3."""
    e = np.linspace(1.0, 2.0, k)
    return 0.3 * e / e.sum()


def outputs(div_id: str, k: int, seed: int):
    """N in-domain network-output rows of k classes and their labels."""
    D, labels = simplex_rows(k, seed)
    return optimal_T_from_posterior(div_id, D), labels


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_jf_grad_batch_is_the_reference_row_by_row(div_id, k):
    T, labels = outputs(div_id, k, 1)
    batch = jf_grad_batch(div_id, T, labels)
    for n in range(N):
        np.testing.assert_array_equal(batch[n], jf_grad_sample(div_id, T[n], labels[n]))


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_corrected_grad_batch_is_the_reference_row_by_row(div_id, k):
    T, labels = outputs(div_id, k, 2)
    e = rates(k)
    batch = corrected_grad_batch(div_id, T, labels, e)
    for n in range(N):
        want = corrected_grad_sample(div_id, T[n], labels[n], e)
        np.testing.assert_allclose(batch[n], want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_jf_batch_of_one_row_is_active_plus_passive(div_id, k):
    T, labels = outputs(div_id, k, 3)
    for n in range(N):
        active, passive = active_passive_split(div_id, T[n], labels[n])
        whole = jf_batch(div_id, T[n : n + 1], [labels[n]])
        assert whole == pytest.approx(active + passive, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_corrected_jf_batch_subtracts_the_reference_bias(div_id, k):
    T, labels = outputs(div_id, k, 4)
    e = rates(k)
    bias = jf_batch(div_id, T, labels) - corrected_jf_batch(div_id, T, labels, e)
    assert bias == pytest.approx(bias_multiclass(div_id, T, e), rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_bias_simplex_batch_is_the_reference_bias_at_f_prime(div_id, k):
    D, _ = simplex_rows(k, 5)
    e = rates(k)
    T = optimal_T_from_posterior(div_id, D)
    assert bias_simplex_batch(div_id, D, e) == bias_multiclass(div_id, T, e)


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_exact_bias_on_a_uniform_marginal_is_the_reference_mean(div_id, k):
    # a joint whose N points each carry mass 1/N weighs the rows as a mean
    D, _ = simplex_rows(k, 6)
    T, _ = outputs(div_id, k, 7)
    e = rates(k)
    exact = exact_bias(div_id, DiscreteJoint(D / N), T, e)
    assert exact == pytest.approx(bias_multiclass(div_id, T, e), rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("k", WIDTHS)
@pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
def test_exact_jf_noisy_is_exact_jf_of_the_reference_joint(div_id, k):
    D, _ = simplex_rows(k, 8)
    T, _ = outputs(div_id, k, 9)
    joint = DiscreteJoint(D / N)
    tm = NoiseParams.uniform_offdiag(rates(k)).to_matrix(k)
    noisy = noisy_joint(joint, tm)
    assert type(noisy) is DiscreteJoint
    assert exact_jf_noisy(div_id, joint, tm, T) == exact_jf(div_id, noisy, T)


@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
@pytest.mark.parametrize("k", WIDTHS)
def test_simplex_kl_value_is_the_reference_row_by_row(k, boundary):
    D, labels = simplex_rows(k, 10, boundary)
    want = [jf_simplex_kl(D[n], labels[n]) for n in range(N)]
    for n in range(N):
        got = jf_simplex_batch("kl", D[n : n + 1], [labels[n]])
        assert got == pytest.approx(want[n], rel=1e-15, abs=1e-15)
    assert jf_simplex_batch("kl", D, labels) == pytest.approx(np.mean(want), rel=1e-14)


@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
@pytest.mark.parametrize("k", WIDTHS)
def test_cross_entropy_is_the_negated_simplex_kl_value_less_one(k, boundary):
    D, labels = simplex_rows(k, 11, boundary)
    for n in range(N):
        value = jf_simplex_batch("kl", D[n : n + 1], [labels[n]])
        assert cross_entropy(D[n], labels[n]) == pytest.approx(
            -value - 1.0, rel=1e-14, abs=1e-15
        )


@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
@pytest.mark.parametrize("k", WIDTHS)
def test_simplex_kl_logit_grad_is_the_reference_row_by_row(k, boundary):
    D, labels = simplex_rows(k, 12, boundary)
    batch = jf_simplex_logit_grad_batch("kl", D, labels)
    for n in range(N):
        want = jf_simplex_kl_logit_grad(D[n], labels[n])
        np.testing.assert_allclose(batch[n], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
@pytest.mark.parametrize("k", WIDTHS)
def test_cross_entropy_logit_grad_is_the_negated_simplex_kl_grad(k, boundary):
    D, labels = simplex_rows(k, 13, boundary)
    batch = jf_simplex_logit_grad_batch("kl", D, labels)
    for n in range(N):
        want = cross_entropy_logit_grad(D[n], labels[n])
        np.testing.assert_allclose(-batch[n], want, rtol=0, atol=1e-15)
