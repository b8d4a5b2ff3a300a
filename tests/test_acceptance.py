"""Acceptance suite: one check per shipped guarantee, one line per result.

Every test prints "ACCEPTANCE <n> <name>: PASS/FAIL (<detail>)" so a full
run reads as a checklist.  Tolerances and trial counts are part of the
contract; do not relax them.
"""

import time

import numpy as np

from postmax.analysis import (
    check_argmax_invariance,
    check_binary_identity,
    check_correction_exactness,
    check_first_order_bias,
    check_multiclass_identity,
    check_pointwise_optimum,
    check_posterior_gap_bound,
)
from postmax.cli import parse_config, run_experiment
from postmax.divergence import (
    DIVERGENCE_IDS,
    brute_force_conjugate,
    conj_prime,
    get_divergence,
)
from postmax.model import MlpSpec, init, objective_and_gradients
from postmax.noise import NoiseParams
from postmax.objective import (
    ObjectiveConfig,
    bias_simplex_batch,
    corrected_jf_batch,
    jf_batch,
    jf_simplex_batch,
    jf_simplex_logit_grad_batch,
)
from references import (
    active_passive_split,
    corrected_grad_sample,
    cross_entropy,
    cross_entropy_logit_grad,
    jf_grad_sample,
    jf_simplex_kl,
    jf_simplex_kl_logit_grad,
)

# Interior sampling windows for finite differences against the grid
# oracle: chosen so the conjugate slope stays in a well-conditioned
# range and t +- h never leaves the domain.
ORACLE_T_RANGES = {"kl": (-3.0, 3.0), "gan": (-3.0, -0.1), "sl": (-0.9, -0.1)}


def _line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"acceptance {number} {name}: {detail}"


def test_01_conjugate_grid_oracle():
    t0 = time.perf_counter()
    h = 3e-4
    worst = 0.0
    for div_id in DIVERGENCE_IDS:
        lo, hi = ORACLE_T_RANGES[div_id]
        for t in np.linspace(lo, hi, 100):
            fd = (
                brute_force_conjugate(div_id, t + h)
                - brute_force_conjugate(div_id, t - h)
            ) / (2.0 * h)
            worst = max(worst, abs(float(conj_prime(div_id, t)) - fd))
    elapsed = time.perf_counter() - t0
    _line(
        1,
        "conjugate_grid_oracle",
        worst <= 1e-4 and elapsed < 30.0,
        f"max |analytic - grid FD| = {worst:.3e} <= 1e-4, {elapsed:.1f}s < 30s",
    )


def test_02_conjugate_inverts_generator_slope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    u = 10.0 ** rng.uniform(-3.0, 3.0, size=10_000)
    worst = 0.0
    for div_id in DIVERGENCE_IDS:
        spec = get_divergence(div_id)
        back = spec.conj_prime(spec.f_prime(u))
        worst = max(worst, float(np.max(np.abs(back - u) / u)))
    elapsed = time.perf_counter() - t0
    _line(
        2,
        "conjugate_inverts_generator_slope",
        worst <= 1e-9 and elapsed < 1.0,
        f"max rel err = {worst:.3e} <= 1e-9 on 1e4 log-uniform u, "
        f"{elapsed:.2f}s < 1s",
    )


def test_03_binary_noisy_objective_identity():
    t0 = time.perf_counter()
    report = check_binary_identity(seed=3, trials=100)
    elapsed = time.perf_counter() - t0
    _line(
        3,
        "binary_noisy_objective_identity",
        report.passed and report.trials == 300 and elapsed < 5.0,
        f"max |lhs - rhs| = {report.max_error:.3e} <= 1e-12 over "
        f"{report.trials} trials, {elapsed:.1f}s < 5s",
    )


def test_04_multiclass_noisy_objective_identity():
    t0 = time.perf_counter()
    report = check_multiclass_identity(seed=4, trials=100, k=5)
    elapsed = time.perf_counter() - t0
    _line(
        4,
        "multiclass_noisy_objective_identity",
        report.passed and report.trials == 300 and elapsed < 5.0,
        f"max |lhs - rhs| = {report.max_error:.3e} <= 1e-12 over "
        f"{report.trials} trials (K=5), {elapsed:.1f}s < 5s",
    )


def test_05_pointwise_optimum_convergence_oracle():
    t0 = time.perf_counter()
    report = check_pointwise_optimum(seed=5, configs=100)
    elapsed = time.perf_counter() - t0
    _line(
        5,
        "pointwise_optimum_convergence_oracle",
        report.passed and report.trials == 300 and elapsed < 30.0,
        f"max posterior-space gap closed-form vs search = "
        f"{report.max_error:.3e} <= 1e-6 over {report.trials} configs, "
        f"{elapsed:.1f}s < 30s",
    )


def test_06_symmetric_noise_argmax_sweep():
    t0 = time.perf_counter()
    report = check_argmax_invariance(seed=6, n_vectors=10_000)
    elapsed = time.perf_counter() - t0
    _line(
        6,
        "symmetric_noise_argmax_sweep",
        report.passed and report.max_error == 0.0 and report.trials == 360_000
        and elapsed < 10.0,
        f"{report.trials} vectors (K=2..10, four rates each) with "
        f"{int(report.max_error)} argmax changes, {elapsed:.1f}s < 10s",
    )


def test_07_forward_correct_predict_round_trip():
    t0 = time.perf_counter()
    report = check_correction_exactness(seed=7, trials=10_000)
    elapsed = time.perf_counter() - t0
    _line(
        7,
        "forward_correct_predict_round_trip",
        report.passed and report.max_error == 0.0 and report.trials >= 10_000
        and elapsed < 5.0,
        f"{report.trials} random (p, e) pairs, "
        f"{int(report.max_error)} mismatches, {elapsed:.1f}s < 5s",
    )


def test_08_cross_entropy_equivalence():
    rng = np.random.default_rng(8)
    worst_value = 0.0
    worst_grad = 0.0
    for _ in range(1_000):
        k = int(rng.integers(2, 8))
        D = rng.uniform(0.01, 1.0, size=k)
        D /= D.sum()
        y = int(rng.integers(0, k))
        worst_value = max(
            worst_value, abs(jf_simplex_kl(D, y) + cross_entropy(D, y) + 1.0)
        )
        worst_grad = max(
            worst_grad,
            float(
                np.max(
                    np.abs(
                        jf_simplex_kl_logit_grad(D, y)
                        + cross_entropy_logit_grad(D, y)
                    )
                )
            ),
        )
    _line(
        8,
        "cross_entropy_equivalence",
        worst_value <= 1e-12 and worst_grad <= 1e-12,
        f"max |jf + ce + 1| = {worst_value:.3e} <= 1e-12 and max "
        f"|grad sum| = {worst_grad:.3e} <= 1e-12 on 1e3 pairs",
    )


def _fd_param_grads(model, X, labels, cfg, h=1e-5):
    worst = 0.0
    value, grads = objective_and_gradients(model, X, labels, cfg)
    for layer in range(len(model.params)):
        for part in range(2):
            base = model.params[layer][part]
            analytic = grads[layer][part]
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                params_up = [[w.copy(), b.copy()] for w, b in model.params]
                params_dn = [[w.copy(), b.copy()] for w, b in model.params]
                params_up[layer][part][idx] += h
                params_dn[layer][part][idx] -= h
                up, _ = objective_and_gradients(
                    type(model)(model.spec, params_up), X, labels, cfg
                )
                dn, _ = objective_and_gradients(
                    type(model)(model.spec, params_dn), X, labels, cfg
                )
                fd = (up - dn) / (2.0 * h)
                scale = max(abs(fd), abs(float(analytic[idx])), 1e-8)
                worst = max(worst, abs(float(analytic[idx]) - fd) / scale)
    return worst


def test_09_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    h = 1e-6
    e2 = np.array([0.1, 0.3])
    worst_sample = 0.0

    def rel_gap(analytic, fd):
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
        return float(np.max(np.abs(analytic - fd) / scale))

    # Per-sample ascent gradients, plain and corrected, in output space.
    for div_id in DIVERGENCE_IDS:
        spec = get_divergence(div_id)
        lo, hi = ORACLE_T_RANGES[div_id]
        for _ in range(20):
            T = rng.uniform(lo + 0.05, hi - 0.05, size=(1, 2))
            y = int(rng.integers(0, 2))
            for grad_fn, value_fn in (
                (jf_grad_sample, lambda M, lab: jf_batch(div_id, M, [lab])),
                (
                    corrected_grad_sample,
                    lambda M, lab: corrected_jf_batch(div_id, M, [lab], e2),
                ),
            ):
                if grad_fn is jf_grad_sample:
                    analytic = grad_fn(div_id, T[0], y)
                else:
                    analytic = grad_fn(div_id, T[0], y, e2)
                fd = np.empty(2)
                for j in range(2):
                    up, dn = T.copy(), T.copy()
                    up[0, j] += h
                    dn[0, j] -= h
                    fd[j] = (value_fn(up, y) - value_fn(dn, y)) / (2.0 * h)
                worst_sample = max(worst_sample, rel_gap(analytic, fd))

    # Simplex-head logit gradients, plain and corrected.
    softmax = lambda v: np.exp(v - v.max()) / np.exp(v - v.max()).sum()
    e3 = np.array([0.1, 0.05, 0.15])
    for div_id in DIVERGENCE_IDS:
        for _ in range(10):
            v = rng.normal(size=3)
            y = int(rng.integers(0, 3))
            for rates in (None, e3):
                def value(vec):
                    row = softmax(vec)[None, :]
                    val = jf_simplex_batch(div_id, row, [y])
                    if rates is not None:
                        val -= bias_simplex_batch(div_id, row, rates)
                    return val

                analytic = jf_simplex_logit_grad_batch(
                    div_id, softmax(v)[None, :], [y], rates
                )[0]
                fd = np.empty(3)
                for j in range(3):
                    up, dn = v.copy(), v.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[j] = (value(up) - value(dn)) / (2.0 * h)
                worst_sample = max(worst_sample, rel_gap(analytic, fd))

    # Full backprop on a small net for every (divergence, head) pair,
    # with and without the objective correction.
    worst_net = 0.0
    X = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    noise = NoiseParams.uniform_offdiag((0.1, 0.05, 0.15))
    for head in ("raw_t", "simplex"):
        for div_id in DIVERGENCE_IDS:
            spec = MlpSpec(
                layer_sizes=(3, 5, 3),
                activation="tanh",
                head=head,
                divergence=div_id if head == "raw_t" else None,
            )
            model = init(spec, seed=int(rng.integers(0, 10_000)))
            for correction in ("none", "objective"):
                cfg = ObjectiveConfig(
                    div_id,
                    correction,
                    noise if correction != "none" else None,
                )
                worst_net = max(
                    worst_net, _fd_param_grads(model, X, labels, cfg)
                )
    elapsed = time.perf_counter() - t0
    _line(
        9,
        "gradient_suite",
        worst_sample <= 1e-5 and worst_net <= 1e-5,
        f"per-sample max rel gap = {worst_sample:.3e}, backprop max rel "
        f"gap = {worst_net:.3e}, both <= 1e-5, {elapsed:.1f}s",
    )


def test_10_posterior_gap_curvature_bound():
    report = check_posterior_gap_bound(seed=10, trials=10_000)
    _line(
        10,
        "posterior_gap_curvature_bound",
        report.passed and report.trials == 30_000,
        f"worst per-divergence violation fraction = {report.max_error:.4f} "
        f"<= 0.01 over 1e4 trials per divergence (|delta|_inf <= 1e-2)",
    )


def test_11_training_bias_first_order():
    report = check_first_order_bias(seed=11, trials=1_000)
    _line(
        11,
        "training_bias_first_order",
        report.passed and report.trials == 3_000,
        f"mean residual ratio after halving delta = {report.max_error:.3f} "
        f"<= 1/3 over 1e3 trials per divergence",
    )


def test_12_desk_scale_correction_experiment():
    t0 = time.perf_counter()
    tree = {
        "dataset": {
            "source": "synthetic",
            "k": 2,
            "n": 1000,
            "d": 10,
            "class_separation": 4.0,
        },
        "model": {"hidden": [16], "activation": "relu", "head": "simplex"},
        "objective": {
            "divergence": "kl",
            "correction": ["none", "objective", "posterior"],
        },
        "noise": {"kind": "uniform_offdiag", "e": [0.1, 0.3]},
        "train": {"epochs": 60, "batch_size": 32, "lr0": 0.02},
        "seeds": [0, 1, 2, 3, 4],
    }
    records = run_experiment(parse_config(tree))
    mean = lambda mode: float(
        np.mean([r.noisy_test_accuracy for r in records if r.correction == mode])
    )
    clean = float(np.mean([r.clean_test_accuracy for r in records]))
    none_acc = mean("none")
    obj_acc = mean("objective")
    post_acc = mean("posterior")
    gap = clean - none_acc
    obj_recovery = (obj_acc - none_acc) / gap
    post_recovery = (post_acc - none_acc) / gap
    elapsed = time.perf_counter() - t0
    ok = (
        clean >= 0.95
        and obj_acc > none_acc
        and post_acc > none_acc
        and obj_recovery >= 0.4
        and post_recovery >= 0.4
        and elapsed < 300.0
    )
    _line(
        12,
        "desk_scale_correction_experiment",
        ok,
        f"clean={clean:.3f} >= 0.95; none={none_acc:.3f}; "
        f"objective={obj_acc:.3f} recovers {obj_recovery:.0%}; "
        f"posterior={post_acc:.3f} recovers {post_recovery:.0%} "
        f"(each >= 40%); 5 seeds, e=(0.1, 0.3); {elapsed:.0f}s < 300s",
    )


def test_13_symmetric_noise_robustness():
    t0 = time.perf_counter()
    gaps = {}
    for div_id in ("kl", "gan"):
        tree = {
            "dataset": {
                "source": "synthetic",
                "k": 3,
                "n": 3000,
                "d": 10,
                "class_separation": 4.0,
            },
            "model": {"hidden": [8], "activation": "relu", "head": "simplex"},
            "objective": {"divergence": div_id, "correction": "none"},
            "noise": {"kind": "symmetric", "eta": 0.3},
            "train": {"epochs": 40, "batch_size": 32, "lr0": 0.02},
            "seeds": [0, 1, 2, 3, 4],
        }
        records = run_experiment(parse_config(tree))
        noisy = float(np.mean([r.noisy_test_accuracy for r in records]))
        clean = float(np.mean([r.clean_test_accuracy for r in records]))
        gaps[div_id] = 100.0 * (clean - noisy)
    elapsed = time.perf_counter() - t0
    ok = all(gap <= 3.0 for gap in gaps.values()) and elapsed < 300.0
    _line(
        13,
        "symmetric_noise_robustness",
        ok,
        f"clean-minus-noisy accuracy: kl={gaps['kl']:.2f}pts, "
        f"gan={gaps['gan']:.2f}pts, both <= 3pts at eta=0.3 (K=3, 5 "
        f"seeds, no correction); {elapsed:.0f}s < 300s",
    )


def test_14_active_passive_decomposition():
    rng = np.random.default_rng(14)
    worst_sum = 0.0
    exact_locality = True
    for _ in range(10_000 // len(DIVERGENCE_IDS) + 1):
        for div_id in DIVERGENCE_IDS:
            lo, hi = ORACLE_T_RANGES[div_id]
            k = int(rng.integers(2, 6))
            T = rng.uniform(lo + 0.05, hi - 0.05, size=k)
            y = int(rng.integers(0, k))
            active, passive = active_passive_split(div_id, T, y)
            total = jf_batch(div_id, T[None, :], [y])
            worst_sum = max(worst_sum, abs(active + passive - total))
            # Locality: active ignores non-label outputs, passive
            # ignores the label output.  Exact, not approximate.
            T_other = T.copy()
            T_other[(y + 1) % k] = rng.uniform(lo + 0.05, hi - 0.05)
            a2, _ = active_passive_split(div_id, T_other, y)
            T_label = T.copy()
            T_label[y] = rng.uniform(lo + 0.05, hi - 0.05)
            _, p2 = active_passive_split(div_id, T_label, y)
            exact_locality = exact_locality and a2 == active and p2 == passive
    _line(
        14,
        "active_passive_decomposition",
        worst_sum <= 1e-12 and exact_locality,
        f"max |active + passive - objective| = {worst_sum:.3e} <= 1e-12 "
        f"on 1e4 inputs; locality exact",
    )
