"""Divergence generators, their convex conjugates, and posterior maps.

Each supported divergence is described by a convex generator f on the
positive reals, its derivative f', the conjugate
f*(t) = sup_u {u*t - f(u)}, and the first two conjugate derivatives.
The "gan" and "sl" generators are kept in the un-normalized forms whose
conjugates match the closed formulas below, so f(1) is a nonzero
constant for them; constants never reach posteriors or gradients.
Because (f*)' inverts f', the map t -> (f*)'(t) turns a trained network
output into a posterior estimate, and p -> f'(p) gives the output the
network should converge to.

Three divergences are provided, selected by string id:

    "kl"   f(u) = u*log(u)                      conj domain: all reals
    "gan"  f(u) = u*log(u) - (u+1)*log(u+1)     conj domain: t < 0
    "sl"   f(u) = -log(u+1)                     conj domain: -1 < t < 0

For "sl" the closed-form supremum differs from the implemented conjugate
by an additive constant; only conjugate derivatives enter posteriors,
gradients, and corrections, so value-level oracle checks are run on
derivatives (see brute_force_conjugate).

Each entry also carries what training needs of its divergence, so a new
divergence is one new DivergenceSpec in the registry below.  A raw network
output v is mapped into the conjugate domain by a smooth, strictly
monotone link whose derivative enters backpropagation analytically:

    kl   identity               (domain is the whole real line)
    gan  -softplus(-v)          (strictly below 0)
    sl   -1/(1 + softplus(v))   (inside (-1, 0))

A simplex head (softmax rows D) trains on the objective at T = f'(D),
written in D directly; the fused score s = D * dJ/dD and the drift
D * f''(D) * (e - sum(e) * D) of the noise-bias gradient are written so
every 1/D factor cancels, keeping them finite where a softmax component
has underflowed to zero.

All operations are pure.  Inputs outside the stated domains raise
ValueError, and non-finite results are treated as domain errors rather
than propagated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

Scalar = Union[float, np.ndarray]


@dataclass(frozen=True)
class DivergenceSpec:
    """Generator, conjugate and their derivatives, plus the raw-head link
    and the simplex-head forms; the simplex fields take unchecked softmax
    rows D and the label column Dy, one-hot labels, or the drift."""

    id: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    conj: Callable[[np.ndarray], np.ndarray]
    conj_prime: Callable[[np.ndarray], np.ndarray]
    conj_second: Callable[[np.ndarray], np.ndarray]
    conj_domain: tuple[float, float]  # open interval of valid t
    link: Callable[[np.ndarray], np.ndarray]  # raw output v -> t in domain
    link_prime: Callable[[np.ndarray], np.ndarray]
    simplex_value: Callable  # (D, Dy) -> per-row objective at T = f'(D)
    simplex_score: Callable  # (D, onehot) -> s = D * dJ/dD
    simplex_drift: Callable  # (D, drift) -> D * f''(D) * drift


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def _kl_f(u):
    return u * np.log(u)


def _kl_f_prime(u):
    return np.log(u) + 1.0


def _kl_conj(t):
    return np.exp(t - 1.0)


def _gan_f(u):
    return u * np.log(u) - (u + 1.0) * np.log1p(u)


def _gan_f_prime(u):
    # log(u / (u+1)), kept in log space for small u
    return np.log(u) - np.log1p(u)


def _gan_conj(t):
    # -log(1 - e^t), stable for t < 0
    return -np.log1p(-np.exp(t))


def _gan_conj_prime(t):
    # e^t / (1 - e^t) = 1 / (e^-t - 1)
    return 1.0 / np.expm1(-t)


def _gan_conj_second(t):
    # e^t / (1 - e^t)^2, written via the first derivative for stability
    cp = _gan_conj_prime(t)
    return cp * (1.0 + cp)


def _sl_f(u):
    return -np.log1p(u)


def _sl_f_prime(u):
    return -1.0 / (u + 1.0)


def _sl_conj(t):
    return -(np.log(-t) + t)


def _sl_conj_prime(t):
    return -1.0 / t - 1.0


def _sl_conj_second(t):
    return 1.0 / (t * t)


_KL = DivergenceSpec(
    id="kl",
    f=_kl_f,
    f_prime=_kl_f_prime,
    conj=_kl_conj,
    conj_prime=_kl_conj,     # conjugate of u*log(u) is its own derivative
    conj_second=_kl_conj,
    conj_domain=(-np.inf, np.inf),
    link=lambda v: v,
    link_prime=np.ones_like,
    simplex_value=lambda D, Dy: np.log(Dy) - 1.0,
    simplex_score=lambda D, onehot: onehot,
    simplex_drift=lambda D, drift: drift,
)

_GAN = DivergenceSpec(
    id="gan",
    f=_gan_f,
    f_prime=_gan_f_prime,
    conj=_gan_conj,
    conj_prime=_gan_conj_prime,
    conj_second=_gan_conj_second,
    conj_domain=(-np.inf, 0.0),
    link=lambda v: -_softplus(-v),
    link_prime=lambda v: _sigmoid(-v),
    simplex_value=lambda D, Dy: (
        np.log(Dy / (Dy + 1.0)) - np.log1p(D).sum(axis=1)
    ),
    simplex_score=lambda D, onehot: (onehot - D) / (1.0 + D),
    simplex_drift=lambda D, drift: drift / (1.0 + D),
)

_SL = DivergenceSpec(
    id="sl",
    f=_sl_f,
    f_prime=_sl_f_prime,
    conj=_sl_conj,
    conj_prime=_sl_conj_prime,
    conj_second=_sl_conj_second,
    conj_domain=(-1.0, 0.0),
    link=lambda v: -1.0 / (1.0 + _softplus(v)),
    link_prime=lambda v: _sigmoid(v) / (1.0 + _softplus(v)) ** 2,
    simplex_value=lambda D, Dy: (
        -1.0 / (Dy + 1.0) + (-1.0 / (D + 1.0) - np.log1p(D)).sum(axis=1)
    ),
    simplex_score=lambda D, onehot: D * (onehot - D) / (1.0 + D) ** 2,
    simplex_drift=lambda D, drift: D * drift / (1.0 + D) ** 2,
)

_REGISTRY = {"kl": _KL, "gan": _GAN, "sl": _SL}

DIVERGENCE_IDS = tuple(sorted(_REGISTRY))


def get_divergence(div_id: str) -> DivergenceSpec:
    """Look up a divergence by its string id ("kl" | "gan" | "sl")."""
    try:
        return _REGISTRY[div_id]
    except KeyError:
        raise ValueError(
            f"unknown divergence id {div_id!r}; expected one of {DIVERGENCE_IDS}"
        ) from None


def _as_spec(spec) -> DivergenceSpec:
    if isinstance(spec, DivergenceSpec):
        return spec
    return get_divergence(spec)


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _finish(arr: np.ndarray, scalar: bool, what: str) -> Scalar:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} produced a non-finite value")
    return float(arr) if scalar else arr


def _check_in_domain(spec: DivergenceSpec, t: np.ndarray) -> None:
    lo, hi = spec.conj_domain
    if not np.all(np.isfinite(t)) or np.any(t <= lo) or np.any(t >= hi):
        raise ValueError(
            f"value outside the open conjugate domain ({lo}, {hi}) "
            f"of divergence {spec.id!r}"
        )


def conj_prime(spec, t: Scalar) -> Scalar:
    """First derivative of the conjugate; inverts f'."""
    spec = _as_spec(spec)
    arr, scalar = _prepare(t)
    _check_in_domain(spec, arr)
    return _finish(spec.conj_prime(arr), scalar, f"conjugate derivative of {spec.id!r}")


def conj_second(spec, t: Scalar) -> Scalar:
    """Second derivative of the conjugate; positive on the domain interior."""
    spec = _as_spec(spec)
    arr, scalar = _prepare(t)
    _check_in_domain(spec, arr)
    return _finish(
        spec.conj_second(arr), scalar, f"conjugate second derivative of {spec.id!r}"
    )


def optimal_T_from_posterior(spec, p: Scalar) -> Scalar:
    """Output value a perfectly trained network takes at posterior p: f'(p)."""
    spec = _as_spec(spec)
    arr, scalar = _prepare(p)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("posterior values must be finite and positive")
    return _finish(spec.f_prime(arr), scalar, f"optimal output map of {spec.id!r}")


def posterior_from_T(spec, t: Scalar) -> Scalar:
    """Posterior estimate read off a network output: (f*)'(t)."""
    return conj_prime(spec, t)


# The grid oracle's last (spec, u_max, n_grid) and its read-only grid u
# and f(u); one slot, so at most one grid is held at a time.
_oracle_grid_slot: list = []


def _oracle_grid(spec: DivergenceSpec, u_max: float, n_grid: int):
    key = (spec, u_max, n_grid)
    if _oracle_grid_slot and _oracle_grid_slot[0][0] == key:
        return _oracle_grid_slot[0][1]
    _oracle_grid_slot.clear()  # free the old grid before building the next
    u = np.logspace(-6.0, np.log10(u_max), n_grid)
    fu = spec.f(u)
    u.setflags(write=False)
    fu.setflags(write=False)
    _oracle_grid_slot.append((key, (u, fu)))
    return u, fu


def brute_force_conjugate(
    spec, t: float, u_max: float = 1e3, n_grid: int = 10**6
) -> float:
    """Independent grid oracle for the conjugate definition.

    Maximizes u*t - f(u) over a log-spaced grid of u in (1e-6, u_max).
    Used to cross-check conj and, through finite differences, conj_prime.
    Derivative comparisons are immune to any additive constant between
    this supremum and the implemented conjugate formula.  The grid and
    f(u) of the last (spec, u_max, n_grid) are kept for the next call.
    """
    spec = _as_spec(spec)
    if n_grid < 10**4:
        raise ValueError("n_grid must be at least 10^4")
    if not (u_max > 0.0):
        raise ValueError("u_max must be positive")
    arr, _ = _prepare(t)
    _check_in_domain(spec, arr)
    u, fu = _oracle_grid(spec, float(u_max), int(n_grid))
    values = u * float(arr)
    values -= fu
    return float(np.max(values))
