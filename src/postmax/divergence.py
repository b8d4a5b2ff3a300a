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
monotone link T = link(v).  The raw head trains on the link composed in
closed form in v with the posterior (f*)'(T), the conjugate f*(T) and the
score (f*)'(T) * link'(v), where s = softplus(v):

         link           posterior  conjugate           score
    kl   v              exp(v-1)   exp(v-1)            exp(v-1)
    gan  -softplus(-v)  exp(v)     softplus(v)         sigmoid(v)
    sl   -1/(1+s)       s          log1p(s) + 1/(1+s)  s*sigmoid(v)/(1+s)**2

For gan and sl these stay finite for every finite v, even where the link
rounds onto its domain's boundary; kl's forms overflow past v ~ 710.
The raw-head gradient reads link'(v) and the score together from one
entry, raw_slopes, which builds what the two share once: gan's one
exponential, sl's softplus, sigmoid and (1+s)**2.
Posterior correction ranks classes by posterior(v) - e, which raw_rank
computes per row scaled so that kl's and gan's exponentials cannot
overflow.

Softplus and sigmoid are computed from t = exp(-|v|), which never
overflows: softplus(v) = max(v, 0) + log1p(t), and sigmoid(v) is
r = 1/(1 + t) for v >= 0 and t*r below, each side computed directly
rather than as one minus the other, which would cancel in the tail
(M. Maechler, "Accurately computing log(1 - exp(-|a|))", Rmpfr
vignette, 2012).

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
    and v-forms and the simplex-head forms; the raw fields take unchecked
    raw outputs v, the simplex fields unchecked softmax rows D and the
    label column Dy, one-hot labels, or the drift."""

    id: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    conj: Callable[[np.ndarray], np.ndarray]
    conj_prime: Callable[[np.ndarray], np.ndarray]
    conj_second: Callable[[np.ndarray], np.ndarray]
    conj_domain: tuple[float, float]  # open interval of valid t
    link: Callable[[np.ndarray], np.ndarray]  # raw output v -> t in domain
    raw_slopes: Callable  # v -> (link'(v), (f*)'(link(v)) * link'(v))
    raw_posterior: Callable  # v -> (f*)'(link(v))
    raw_rank: Callable  # (v, e) -> rows with the argmax of raw_posterior(v) - e
    raw_conj: Callable  # v -> f*(link(v))
    simplex_value: Callable  # (D, Dy) -> per-row objective at T = f'(D)
    simplex_score: Callable  # (D, onehot) -> s = D * dJ/dD
    simplex_drift: Callable  # (D, drift) -> D * f''(D) * drift


def _softplus(x):
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|)
    t = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(t)


def _sigmoid(x):
    # 1 / (1 + e^-x) = r for x >= 0 and e^x * r below, r = 1 / (1 + e^-|x|)
    t = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + t)
    return np.where(x >= 0.0, r, t * r)


def _exp_rank(shift: float):
    """raw_rank of a posterior exp(v - shift): the rows exp(v - shift) - e
    scaled by exp(shift - s) > 0, s = max(shift, row max of v), so neither
    exponential exceeds 1; rows with every v <= shift are left unscaled."""

    def rank(v, e):
        s = np.maximum(v.max(axis=-1, keepdims=True), shift)
        return np.exp(v - s) - e * np.exp(shift - s)

    return rank


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


def _sl_raw_conj(v):
    s = _softplus(v)
    return np.log1p(s) + 1.0 / (1.0 + s)


def _kl_raw_slopes(v):
    return np.ones_like(v), _kl_conj(v)


def _gan_raw_slopes(v):
    # sigmoid(-v) and sigmoid(v) from one t = exp(-|v|): -v >= 0 is v <= 0,
    # for signed zeros and NaN alike
    t = np.exp(-np.abs(v))
    r = 1.0 / (1.0 + t)
    tr = t * r
    return np.where(v <= 0.0, r, tr), np.where(v >= 0.0, r, tr)


def _sl_raw_slopes(v):
    s = _softplus(v)
    sig = _sigmoid(v)
    sq = (1.0 + s) ** 2
    return sig / sq, s * sig / sq


_KL = DivergenceSpec(
    id="kl",
    f=_kl_f,
    f_prime=_kl_f_prime,
    conj=_kl_conj,
    conj_prime=_kl_conj,     # conjugate of u*log(u) is its own derivative
    conj_second=_kl_conj,
    conj_domain=(-np.inf, np.inf),
    link=lambda v: v,
    raw_slopes=_kl_raw_slopes,
    raw_posterior=_kl_conj,
    raw_rank=_exp_rank(1.0),
    raw_conj=_kl_conj,
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
    raw_slopes=_gan_raw_slopes,
    raw_posterior=np.exp,
    raw_rank=_exp_rank(0.0),
    raw_conj=_softplus,
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
    raw_slopes=_sl_raw_slopes,
    raw_posterior=_softplus,
    raw_rank=lambda v, e: _softplus(v) - e,
    raw_conj=_sl_raw_conj,
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
    # a NaN min or max fails its comparison, and an infinite one is not
    # inside its own domain end; an empty t has nothing to check
    if t.size and not (lo < t.min() and t.max() < hi):
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


# The grid oracle's last log grid u, keyed on (u_max, n_grid), and its
# last f(u), keyed on (spec, u_max, n_grid): one slot each, read-only, so
# at most one of each is held at a time.  f(u) is built into one array,
# _ORACLE_BUILD points at a time, so f's temporaries are block-sized and
# stay in cache; f is elementwise, so the bits are those of one call on
# the whole grid.  The grid is cut into blocks of _ORACLE_CHUNK points,
# and the f(u) slot also holds each block's least f(u) and least and
# greatest u, from which brute_force_conjugate bounds the block's values
# u*t - f(u) without reading them (rounding is monotone; see there).  A
# block is scanned through one buffer.
_oracle_u_slot: list = []
_oracle_grid_slot: list = []
_ORACLE_CHUNK = 2**13
_ORACLE_BUILD = 2**15


def _oracle_u(u_max: float, n_grid: int) -> np.ndarray:
    key = (u_max, n_grid)
    if _oracle_u_slot and _oracle_u_slot[0][0] == key:
        return _oracle_u_slot[0][1]
    _oracle_u_slot.clear()
    u = np.logspace(-6.0, np.log10(u_max), n_grid)
    u.setflags(write=False)
    _oracle_u_slot.append((key, u))
    return u


def _oracle_grid(spec: DivergenceSpec, u_max: float, n_grid: int):
    """(u, f(u), and per block: least f(u), least u, greatest u)."""
    key = (spec, u_max, n_grid)
    if _oracle_grid_slot and _oracle_grid_slot[0][0] == key:
        return _oracle_grid_slot[0][1]
    _oracle_grid_slot.clear()  # free the old f(u) before building the next
    u = _oracle_u(u_max, n_grid)
    fu = np.empty_like(u)
    for start in range(0, n_grid, _ORACLE_BUILD):
        block = slice(start, start + _ORACLE_BUILD)
        fu[block] = spec.f(u[block])
    starts = np.arange(0, n_grid, _ORACLE_CHUNK)
    grid = (
        u,
        fu,
        np.minimum.reduceat(fu, starts),
        np.minimum.reduceat(u, starts),
        np.maximum.reduceat(u, starts),
    )
    for arr in grid:
        arr.setflags(write=False)
    _oracle_grid_slot.append((key, grid))
    return grid


def brute_force_conjugate(
    spec, t: float, u_max: float = 1e3, n_grid: int = 10**6
) -> float:
    """Independent grid oracle for the conjugate definition.

    Maximizes u*t - f(u) over a log-spaced grid of u in (1e-6, u_max).
    Used to cross-check conj and, through finite differences, conj_prime.
    Derivative comparisons are immune to any additive constant between
    this supremum and the implemented conjugate formula.  The grid of the
    last (u_max, n_grid) and f(u) of the last (spec, u_max, n_grid) are
    kept for the next call.  A NaN anywhere on the grid gives NaN.

    The result is the maximum of every grid value, computed as
    fl(fl(u*t) - f(u)), but not every value is read.  Rounding is
    monotone, so a block's values are at most its bound
    fl(fl(u_end*t) - min f), with u_end its greatest u for t >= 0 and its
    least u below.  Blocks are scanned in descending bound order until a
    bound is at most the best value found.  A NaN value makes its block's
    bound NaN or +inf, so every such block is scanned first.
    """
    spec = _as_spec(spec)
    if n_grid < 10**4:
        raise ValueError("n_grid must be at least 10^4")
    if not (1e-6 < u_max < np.inf):  # the grid runs up from 1e-6; NaN fails
        raise ValueError("u_max must be finite and above 1e-6")
    arr, _ = _prepare(t)
    _check_in_domain(spec, arr)
    u, fu, f_min, u_lo, u_hi = _oracle_grid(spec, float(u_max), int(n_grid))
    t = float(arr)
    bounds = (u_hi if t >= 0.0 else u_lo) * t
    bounds -= f_min
    # NaN and +inf bounds sort first and never stop the scan
    order = np.argsort(np.where(bounds < np.inf, -bounds, -np.inf))
    buf = np.empty(min(_ORACLE_CHUNK, u.shape[0]))
    best = -np.inf
    for block in order:
        if bounds[block] <= best and bounds[block] < np.inf:
            break
        start = block * _ORACLE_CHUNK
        u_block = u[start : start + _ORACLE_CHUNK]
        values = np.multiply(u_block, t, out=buf[: u_block.shape[0]])
        values -= fu[start : start + _ORACLE_CHUNK]
        top = values.max()
        if np.isnan(top):
            return float(top)
        best = max(best, top)
    return float(best)
