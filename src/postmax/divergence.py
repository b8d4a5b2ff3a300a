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
overflow; no entry holds the posterior alone.

Softplus and sigmoid are computed from t = exp(-|v|), which never
overflows: softplus(v) = max(v, 0) + log1p(t), and sigmoid(v) is
r = 1/(1 + t) for v >= 0 and t*r below, each side computed directly
rather than as one minus the other, which would cancel in the tail
(M. Maechler, "Accurately computing log(1 - exp(-|a|))", Rmpfr
vignette, 2012).

A simplex head (softmax rows D) trains on the objective at T = f'(D),
written in D directly.  Its value is objective._rows of the terms that
simplex_terms gives from D and log D, which the head takes from the
logits, finite at every finite output: kl's a = log D and c = -1, gan's
log D - log1p(D) and -sum log1p(D), sl's -1/(1+D) and sum(-1/(1+D) -
log1p(D)).  The fused score s = D * dJ/dD and the drift
D * f''(D) * (e - sum(e) * D) of the noise-bias gradient are written so
every 1/D factor cancels, keeping them finite where a softmax component
has underflowed to zero.  For kl the score is the one-hot label rows and the drift term
the drift itself, so its entry holds None for both and the head gradient
runs plain ufunc calls in their place.

All operations are pure.  Inputs outside the stated domains raise
ValueError, and non-finite results are treated as domain errors rather
than propagated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

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
    raw_rank: Callable  # (v, e) -> rows with the argmax of (f*)'(link(v)) - e
    raw_conj: Callable  # v -> f*(link(v))
    # (D, log D) -> (a, c): the objective at T = f'(D) is a[y] + c at label y
    simplex_terms: Callable
    # (D, onehot) -> s = D * dJ/dD and (D, drift) -> D * f''(D) * drift;
    # both None where they are the one-hot rows and the drift themselves
    simplex_score: Optional[Callable]
    simplex_drift: Optional[Callable]


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
    raw_rank=_exp_rank(1.0),
    raw_conj=_kl_conj,
    simplex_terms=lambda D, log_D: (log_D, -1.0),
    simplex_score=None,  # s = onehot
    simplex_drift=None,  # the drift itself
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
    raw_rank=_exp_rank(0.0),
    raw_conj=_softplus,
    simplex_terms=lambda D, log_D: (log_D - np.log1p(D), -np.log1p(D).sum(axis=1)),
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
    raw_rank=lambda v, e: _softplus(v) - e,
    raw_conj=_sl_raw_conj,
    simplex_terms=lambda D, log_D: (
        -1.0 / (1.0 + D), (-1.0 / (1.0 + D) - np.log1p(D)).sum(axis=1)
    ),
    simplex_score=lambda D, onehot: D * (onehot - D) / (1.0 + D) ** 2,
    simplex_drift=lambda D, drift: D * drift / (1.0 + D) ** 2,
)

_REGISTRY = {"kl": _KL, "gan": _GAN, "sl": _SL}

DIVERGENCE_IDS = tuple(sorted(_REGISTRY))


def get_divergence(div_id: str) -> DivergenceSpec:
    """Look up a divergence by its string id ("kl" | "gan" | "sl")."""
    spec = _REGISTRY.get(div_id) if isinstance(div_id, str) else None
    if spec is None:
        raise ValueError(
            f"unknown divergence id {div_id!r}; expected one of {DIVERGENCE_IDS}"
        )
    return spec


def _as_spec(spec) -> DivergenceSpec:
    if isinstance(spec, DivergenceSpec):
        return spec
    return get_divergence(spec)


def _integer(value, name: str, least=None, most=None) -> int:
    """The integer rule of every count, width, size and seed, in the
    config and in the library: an int or an integral float, never a bool,
    in [least, most] where they are given, read as an int.  Anything else
    raises ValueError naming the argument."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


# The largest seed: corrupt keys numpy's Philox generator with it, and a
# Philox key holds 128 bits.
MAX_SEED = 2**128 - 1


def _seed(value, name: str = "seed") -> int:
    """The seed rule of the config and the library: _integer's, from 0 to
    MAX_SEED."""
    return _integer(value, name, least=0, most=MAX_SEED)


def _is_real(value) -> bool:
    """Whether value is an int or a float, numpy's included, and no bool."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    return real and not isinstance(value, bool)


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


def _check_positive(u: np.ndarray) -> None:
    """The domain of every registered f': finite, strictly positive values."""
    if not np.all(np.isfinite(u)) or np.any(u <= 0.0):
        raise ValueError("f' takes finite and strictly positive values only")


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
    _check_positive(arr)
    return _finish(spec.f_prime(arr), scalar, f"optimal output map of {spec.id!r}")


def posterior_from_T(spec, t: Scalar) -> Scalar:
    """Posterior estimate read off a network output: (f*)'(t)."""
    return conj_prime(spec, t)


# The grid oracle holds no grid.  Its log grid u of (u_max, n_grid) is cut
# into blocks of _ORACLE_CHUNK points, and for each (spec, u_max, n_grid)
# only four numbers per block are kept, built _ORACLE_BUILD points at a
# time (_build_oracle_bounds).  At most _ORACLE_KEYS keys are held, the
# oldest dropped first.  From these brute_force_conjugate bounds each
# block's values u*t - f(u) without reading them (_oracle_ceilings), and
# it computes u and f(u) again, at most _ORACLE_BUILD points at a time,
# only for the blocks that can hold the maximum.  _oracle_u gives
# logspace's bits at any index and f is elementwise, so every value read
# is the one a scan of the whole grid reads.
_ORACLE_CHUNK = 2**9
_ORACLE_BUILD = 2**15
_ORACLE_KEYS = 8
# far above the relative error of the few roundings between a computed
# value fl(fl(u*t) - f(u)) and the real numbers its ceiling is built from
_ORACLE_MARGIN = 1e-12
_oracle_bounds: dict = {}


def _oracle_u(u_max: float, n_grid: int, index: np.ndarray) -> np.ndarray:
    """np.logspace(-6, log10(u_max), n_grid)[index], bit for bit, computed
    as numpy's linspace computes its points: i * step + start, with the
    last point set to stop, then 10**y in place."""
    start, stop = -6.0, np.log10(u_max)
    y = index * ((stop - start) / (n_grid - 1))
    y += start
    y[index == n_grid - 1] = stop
    return np.power(10.0, y, out=y)


def _build_oracle_bounds(spec: DivergenceSpec, u_max: float, n_grid: int):
    """Rows of per-block least u, greatest u, chord slope s of f, and a
    lower bound on every f(u) - u*s: the least computed one, less
    _ORACLE_MARGIN times the block's greatest |f(u)| + u*|s|, and less
    1e-290 for roundings below the normal range.  An infinite or NaN
    f(u) makes the last row -inf or NaN."""
    bounds = np.empty((4, -(-n_grid // _ORACLE_CHUNK)))
    starts = np.arange(0, _ORACLE_BUILD, _ORACLE_CHUNK)
    for first in range(0, n_grid, _ORACLE_BUILD):
        index = np.arange(first, min(first + _ORACLE_BUILD, n_grid))
        u = _oracle_u(u_max, n_grid, index)
        fu = spec.f(u)
        local = starts[: -(-u.shape[0] // _ORACLE_CHUNK)]
        ends = np.append(local[1:], u.shape[0]) - 1
        block = first // _ORACLE_CHUNK
        u_lo, u_hi, slope, low = bounds[:, block : block + local.shape[0]]
        np.minimum.reduceat(u, local, out=u_lo)
        np.maximum.reduceat(u, local, out=u_hi)
        with np.errstate(all="ignore"):  # NaN and inf only force a read
            np.divide(fu[ends] - fu[local], u[ends] - u[local], out=slope)
            size = np.maximum.reduceat(np.abs(fu), local) + u_hi * np.abs(slope)
            chord_gap = fu - u * np.repeat(slope, ends - local + 1)
            np.minimum.reduceat(chord_gap, local, out=low)
            low -= _ORACLE_MARGIN * size + 1e-290
    bounds.setflags(write=False)
    return bounds


def _oracle_block_bounds(spec: DivergenceSpec, u_max: float, n_grid: int):
    """The bounds of (spec, u_max, n_grid), built on its first use."""
    key = (spec, u_max, n_grid)
    if key not in _oracle_bounds:
        if len(_oracle_bounds) >= _ORACLE_KEYS:
            del _oracle_bounds[next(iter(_oracle_bounds))]
        _oracle_bounds[key] = _build_oracle_bounds(spec, u_max, n_grid)
    return _oracle_bounds[key]


def _oracle_ceilings(bounds: np.ndarray, t: float) -> np.ndarray:
    """Per block, a number that none of its computed values
    fl(fl(u*t) - f(u)) exceeds where it is finite; a NaN or infinite
    value, or an overflow on the way, makes it NaN or infinite.

    With s the block's chord slope, u*t - f(u) = u*(t - s) - (f(u) - u*s):
    the first term is at most its larger value at the block's least and
    greatest u, and the second at least the block's lower bound.  Their
    difference, plus _ORACLE_MARGIN times |t| times the greatest u,
    exceeds what rounding can add to a value; that last product also
    overflows wherever some u*t does.  Near the maximizer t is close to
    s, so a block's ceiling is close to its maximum.
    """
    u_lo, u_hi, slope, low = bounds
    with np.errstate(all="ignore"):  # NaN and inf only force a read
        w = t - slope
        ceilings = np.maximum(u_lo * w, u_hi * w)
        ceilings -= low
        reach = u_hi * abs(t)
        reach *= _ORACLE_MARGIN
        ceilings += reach
    return ceilings


def _oracle_max(spec, u_max, n_grid, blocks, t: float, best: float) -> float:
    """The largest of best and the values u*t - f(u) of the given blocks,
    or the first NaN value met."""
    per_build = _ORACLE_BUILD // _ORACLE_CHUNK
    offsets = np.arange(_ORACLE_CHUNK)
    for i in range(0, blocks.shape[0], per_build):
        index = (blocks[i : i + per_build, None] * _ORACLE_CHUNK + offsets).ravel()
        u = _oracle_u(u_max, n_grid, index[index < n_grid])
        values = u * t
        values -= spec.f(u)
        top = float(values.max())
        if np.isnan(top):
            return top
        best = max(best, top)
    return best


def brute_force_conjugate(
    spec, t: float, u_max: float = 1e3, n_grid: int = 10**6
) -> float:
    """Independent grid oracle for the conjugate definition.

    Maximizes u*t - f(u) over a log-spaced grid of u in (1e-6, u_max).
    Used to cross-check conj and, through finite differences, conj_prime.
    Derivative comparisons are immune to any additive constant between
    this supremum and the implemented conjugate formula.  t is one real
    number and n_grid an integer of at least 10^4.  No grid is kept:
    only per-block bounds of the last few (spec, u_max, n_grid), and a
    call computes u and f(u) for the blocks it reads.  A NaN anywhere on
    the grid gives NaN.

    The result is the maximum of every grid value, computed as
    fl(fl(u*t) - f(u)), but not every value is read.  Each block has a
    ceiling that none of its values exceeds, or a NaN or infinite one.  A
    first pass reads every block whose ceiling is not finite, and the
    block of the highest finite ceiling; a second pass reads every other
    block whose ceiling exceeds the best value found.
    """
    spec = _as_spec(spec)
    n_grid = _integer(n_grid, "n_grid", least=10**4)
    if not (1e-6 < u_max < np.inf):  # the grid runs up from 1e-6; NaN fails
        raise ValueError("u_max must be finite and above 1e-6")
    arr, scalar = _prepare(t)
    if not scalar:
        raise ValueError("t must be a single number")
    _check_in_domain(spec, arr)
    t, u_max = float(arr), float(u_max)
    ceilings = _oracle_ceilings(_oracle_block_bounds(spec, u_max, n_grid), t)
    read = ~np.isfinite(ceilings)
    finite = np.where(read, -np.inf, ceilings)
    read[finite.argmax()] = True
    first = np.flatnonzero(read)
    best = _oracle_max(spec, u_max, n_grid, first, t, -np.inf)
    # a NaN best compares false, so no block is read after it
    finite[first] = -np.inf
    return _oracle_max(spec, u_max, n_grid, np.flatnonzero(finite > best), t, best)
