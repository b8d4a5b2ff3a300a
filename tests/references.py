"""Per-row references that the tests compare the batch kernels against.

Each is written in plain numpy from the divergence table's conj and
conj_prime, or from the closed forms of the simplex head, and imports
nothing from postmax.objective, postmax.model or postmax.posterior, so a
fault in a kernel cannot hide in its reference.  They do no input
checking: a caller passes rows of K >= 2 entries inside the domain,
labels in [0, K), and rates or a transition matrix of K classes.
"""

import numpy as np

from postmax.divergence import get_divergence


def jf_grad_sample(div_id, T_row, label) -> np.ndarray:
    """Ascent gradient of one sample's objective term in T."""
    grad = -get_divergence(div_id).conj_prime(np.asarray(T_row, dtype=float))
    grad[label] += 1.0
    return grad


def corrected_grad_sample(div_id, T_row, label, e) -> np.ndarray:
    """Ascent gradient of one sample's bias-corrected objective term."""
    e = np.asarray(e, dtype=float)
    cp = get_divergence(div_id).conj_prime(np.asarray(T_row, dtype=float))
    grad = -cp
    grad[label] += 1.0
    return grad - (e - e.sum() * cp)


def active_passive_split(div_id, T_row, label) -> tuple[float, float]:
    """Split one sample's objective term into label-only and rest-only parts.

    The first component depends only on the output at the label, the
    second only on the outputs at the other classes, and they sum to the
    sample's objective term exactly.
    """
    T = np.asarray(T_row, dtype=float)
    conj_vals = get_divergence(div_id).conj(T)
    active = float(T[label] - conj_vals[label])
    # every output but the label's, in order; never touches the label output
    others = np.concatenate((conj_vals[:label], conj_vals[label + 1 :]))
    return active, float(-others.sum())


def bias_multiclass(div_id, T, e) -> float:
    """Mean noise-induced bias of the objective at outputs T (N x K) under
    per-class flip-in rates e: T @ e - sum(e) * sum_i f*(T[:, i])."""
    T, e = np.asarray(T, dtype=float), np.asarray(e, dtype=float)
    conj_rows = get_divergence(div_id).conj(T).sum(axis=1)
    return float(np.mean(T @ e - e.sum() * conj_rows))


def jf_simplex_kl(D_row, label) -> float:
    """KL objective of one sample under a simplex-valued head.

    Equals log of the label's probability minus one, i.e. the negative
    cross-entropy minus one; the raw substitution T = log(D)+1 gives a
    value one unit higher, a constant that never affects maximization.
    """
    return float(np.log(D_row[label]) - 1.0)


def cross_entropy(D_row, label) -> float:
    """Cross-entropy of one simplex row at its label."""
    return float(-np.log(D_row[label]))


def cross_entropy_logit_grad(D_row, label) -> np.ndarray:
    """Gradient of the cross-entropy w.r.t. pre-softmax logits."""
    grad = np.array(D_row, dtype=float)
    grad[label] -= 1.0
    return grad


def jf_simplex_kl_logit_grad(D_row, label) -> np.ndarray:
    """Gradient of jf_simplex_kl w.r.t. pre-softmax logits.

    Derived through the generic chain dJ/dD -> softmax, independently of
    the cross-entropy shortcut, so the two can be compared.
    """
    D = np.asarray(D_row, dtype=float)
    g = np.zeros_like(D)
    g[label] = 1.0 / D[label]  # dJ/dD
    return D * (g - np.dot(g, D))


def noisy_joint(joint, tm):
    """Joint over (x, noisy label) obtained by pushing labels through tm,
    as a joint of joint's own type."""
    return type(joint)(joint.pmf @ tm.entries)
