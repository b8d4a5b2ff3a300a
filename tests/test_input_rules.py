"""Every public entry point that takes labels or flip rates applies the
one label rule of noise._check_labels and the one rate rule of
noise._check_rates; every one that takes probability rows applies
posterior._check_probability_rows, and every one that takes network
outputs objective._check_T.  A lone row or a lone label, the shapes the
per-row references take, is refused by every entry point that takes a
matrix; only noisy_posterior_forward reads a lone row, as one 1 x K row.  The config reader and the synthetic sampler
refuse the same synthetic parameters by one rule table.  pyproject.toml
turns warnings into errors, so a case that raised a numpy warning instead
of a ValueError fails here.  Every batch mean refuses a batch of no
rows by the one rule of posterior._batch_mean, and the per-row functions
return no rows.  Every count, width, size and seed argument takes the
one integer rule, divergence._integer: an int or an integral float,
never a bool, and every real-valued setting refuses a non-number with a
ValueError."""

import dataclasses
import inspect
import math
import os
import tempfile

import numpy as np
import pytest

import postmax
from postmax.analysis import (
    TheoremReport,
    check_argmax_invariance,
    check_binary_identity,
    check_correction_exactness,
    check_first_order_bias,
    check_multiclass_identity,
    check_pointwise_optimum,
    check_posterior_gap_bound,
    training_bias_expression,
    verify_theorems,
)
from postmax.cli import (
    ConfigError,
    ResultRecord,
    load_csv,
    make_synthetic,
    parse_config,
    run_experiment,
    split_dataset,
)
from postmax.divergence import brute_force_conjugate, optimal_T_from_posterior
from postmax.model import (
    MlpSpec,
    TrainConfig,
    forward,
    init,
    objective_and_gradients,
    train,
)
from postmax.noise import (
    LabeledDataset,
    NoiseParams,
    corrupt,
)
from postmax.objective import (
    DiscreteJoint,
    ObjectiveConfig,
    bias_simplex_batch,
    corrected_grad_batch,
    corrected_jf_batch,
    exact_bias,
    exact_jf,
    jf_batch,
    jf_grad_batch,
    jf_simplex_batch,
    jf_simplex_logit_grad_batch,
)
from postmax.posterior import accuracy, noisy_posterior_forward, posterior_correct

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
BAD_LABELS = [1.5, -1, K, math.nan, math.inf, 1e30, 10**400, "1", None, 1j]
# labels that are not one per row of the two-row inputs above; a lone
# label, the shape the one-row entry points took, is among them
BAD_LABEL_SHAPES = {
    "scalar": 0,
    "one_short": [0],
    "one_long": [0, 1, 0],
    "column": [[0], [1]],
    "row_matrix": [[0, 1]],
    "none": [],
}

# entry point -> function of one rate vector for K classes
RATES = {
    "NoiseParams.uniform_offdiag": lambda e: (
        NoiseParams.uniform_offdiag(e).flip_rates(K)
    ),
    "NoiseParams.uniform_offdiag.to_matrix": lambda e: (
        NoiseParams.uniform_offdiag(e).to_matrix(K).entries
    ),
    "corrected_jf_batch": lambda e: corrected_jf_batch("kl", T, [0, 1], e),
    "corrected_grad_batch": lambda e: corrected_grad_batch("kl", T, [0, 1], e),
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


# entry point -> function of an N x K matrix of probability rows; the
# label is 0 throughout
SIMPLEX_ROWS = {
    "jf_simplex_batch": lambda p: jf_simplex_batch("gan", p, [0] * len(p)),
    "jf_simplex_logit_grad_batch": lambda p: jf_simplex_logit_grad_batch(
        "kl", p, [0] * len(p)
    ),
    # takes one row too, so of the shapes here only 3-D is wrong for it
    "noisy_posterior_forward": lambda p: noisy_posterior_forward(
        p, np.zeros(np.shape(p)[-1])
    ),
}
SIMPLEX_RULE = "K >= 2|probability vectors"


def defect(rows, value, at=(0, -1)) -> np.ndarray:
    """rows with one entry of the first row replaced by value."""
    rows = np.array(rows, dtype=float)
    rows[at] = value
    return rows


BAD_SIMPLEX = {
    "nan": defect(D, math.nan),
    "inf": defect(D, math.inf),
    "-inf": defect(D, -math.inf),
    "negative": defect(defect(D, -0.1), 0.4, (0, 1)),
    "off_by_1e-8": defect(D, D[0, -1] + 1e-8),
    "overflowing_sum": defect(defect(D, 1e308), 1e308, (0, 1)),
    "one_class": np.ones((2, 1)),
    "wrong_ndim": D[None],
}
GOOD_SIMPLEX = {
    "interior": D,
    "zero_away_from_label": [[0.5, 0.0, 0.5], [0.3, 0.7, 0.0]],
    "vertex": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    "off_by_1e-10": defect(D, D[0, -1] + 1e-10),
    "two_classes": [[0.25, 0.75], [0.5, 0.5]],
}

# entry point -> function of an N x K matrix of sl network outputs
T_SL = optimal_T_from_posterior("sl", D)  # inside (-1, 0)
JOINT = DiscreteJoint(D / 2.0)
OUTPUT_ROWS = {
    "jf_batch": lambda T: jf_batch("sl", T, [0] * len(T)),
    "jf_grad_batch": lambda T: jf_grad_batch("sl", T, [0] * len(T)),
    "corrected_jf_batch": lambda T: corrected_jf_batch("sl", T, [0] * len(T), E),
    "corrected_grad_batch": lambda T: corrected_grad_batch("sl", T, [0] * len(T), E),
    "exact_jf": lambda T: exact_jf("sl", JOINT, T),
    "exact_bias": lambda T: exact_bias("sl", JOINT, T, E),
}
OUTPUT_RULE = "K >= 2|conjugate domain"
BAD_OUTPUTS = {
    "nan": defect(T_SL, math.nan),
    "inf": defect(T_SL, math.inf),
    "-inf": defect(T_SL, -math.inf),
    "domain_top": defect(T_SL, 0.0),
    "domain_bottom": defect(T_SL, -1.0),
    "one_class": T_SL[:, :1],
    "wrong_ndim": T_SL[None],
}
GOOD_OUTPUTS = {
    "posterior_map": T_SL,
    "near_domain_top": defect(T_SL, -1e-300),
    "near_domain_bottom": defect(T_SL, -1.0 + 1e-15),
}

# every entry point that takes an N x K matrix only, so a lone row, the
# shape the per-row references took, is refused by the shape rule
ONE_ROW = {
    **{name: (fn, D[0]) for name, fn in SIMPLEX_ROWS.items()
       if name != "noisy_posterior_forward"},
    "bias_simplex_batch": (lambda p: bias_simplex_batch("kl", p, E), D[0]),
    "posterior_correct": (lambda p: posterior_correct(p, E), D[0]),
    **{name: (fn, T_SL[0]) for name, fn in OUTPUT_ROWS.items()},
}

# entry point -> function of its first n rows of inputs, a batch mean
BATCH_MEANS = {
    "accuracy": lambda n: accuracy([0] * n, [0] * n),
    "jf_batch": lambda n: jf_batch("kl", T[:n], [0] * n),
    "corrected_jf_batch": lambda n: corrected_jf_batch("kl", T[:n], [0] * n, E),
    "jf_simplex_batch": lambda n: jf_simplex_batch("kl", D[:n], [0] * n),
    "bias_simplex_batch": lambda n: bias_simplex_batch("kl", D[:n], E),
    "objective_and_gradients": lambda n: objective_and_gradients(
        MODEL, X[:n], [0] * n, CORRECTED
    ),
}
# entry point -> function of its first n rows of inputs, one result row each
PER_ROW = {
    "jf_grad_batch": lambda n: jf_grad_batch("kl", T[:n], [0] * n),
    "corrected_grad_batch": lambda n: corrected_grad_batch("kl", T[:n], [0] * n, E),
    "jf_simplex_logit_grad_batch": lambda n: jf_simplex_logit_grad_batch(
        "kl", D[:n], [0] * n, E
    ),
    "forward": lambda n: forward(MODEL, X[:n]),
}

# entry point-count argument -> (function of that count, a count it takes)
COUNTS = {
    "brute_force_conjugate-n_grid": (
        lambda n: brute_force_conjugate("kl", 0.5, n_grid=n),
        10**4,
    ),
    "check_binary_identity-trials": (lambda n: check_binary_identity(0, trials=n), 2),
    "check_multiclass_identity-trials": (
        lambda n: check_multiclass_identity(0, trials=n),
        2,
    ),
    "check_multiclass_identity-k": (
        lambda n: check_multiclass_identity(0, trials=2, k=n),
        3,
    ),
    "check_pointwise_optimum-configs": (
        lambda n: check_pointwise_optimum(0, configs=n),
        2,
    ),
    "check_argmax_invariance-n_vectors": (
        lambda n: check_argmax_invariance(0, n_vectors=n),
        10,
    ),
    "check_correction_exactness-trials": (
        lambda n: check_correction_exactness(0, trials=n),
        9,
    ),
    "check_posterior_gap_bound-trials": (
        lambda n: check_posterior_gap_bound(0, trials=n),
        10,
    ),
    "check_first_order_bias-trials": (lambda n: check_first_order_bias(0, trials=n), 2),
    "MlpSpec-layer_sizes": (lambda n: MlpSpec((n, 3, 2)), 2),
    "TrainConfig-epochs": (lambda n: TrainConfig(epochs=n, batch_size=4), 2),
    "TrainConfig-batch_size": (lambda n: TrainConfig(epochs=1, batch_size=n), 4),
    "LabeledDataset-k": (lambda n: LabeledDataset(X, [0, 1], n).k, 3),
    "TheoremReport-trials": (lambda n: TheoremReport("t", n, 0.0, 1.0, True), 2),
    "make_synthetic-k": (lambda n: synthetic_bits(k=n), 3),
    "make_synthetic-n": (lambda n: synthetic_bits(n=n), 10),
    "make_synthetic-d": (lambda n: synthetic_bits(d=n), 2),
}
BAD_COUNTS = [2.5, 10000.7, math.nan, math.inf, -math.inf, True, np.True_, "3", None]


def synthetic_bits(k=3, n=10, d=2, seed=0) -> bytes:
    """Every number make_synthetic draws, as bytes."""
    ds, posterior = make_synthetic(k, n, d, 1.0, seed=seed)
    return flat([ds.features, ds.labels, posterior]).tobytes()


def csv_split_bits(seed) -> bytes:
    """Every number of load_csv's splits of a 10-row CSV file, as bytes."""
    rows = np.column_stack([np.arange(20.0).reshape(10, 2), [0, 1] * 5])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        np.savetxt(path, rows, delimiter=",")
        parts = load_csv(path, seed=seed)
    return flat([[part.features, part.labels] for part in parts]).tobytes()


TEN = LabeledDataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5, 2)

# entry point -> function of its seed, with tiny trial counts
SEEDS = {
    "TrainConfig": lambda s: TrainConfig(epochs=1, batch_size=4, seed=s),
    "ResultRecord": lambda s: ResultRecord(s, "kl", "none", "none", 1.0, 1.0, 0.0, 0.0),
    "init": lambda s: flat(init(MlpSpec((2, 4, K)), seed=s).params).tobytes(),
    "corrupt": lambda s: corrupt(
        TEN, NoiseParams.uniform_offdiag([0.2, 0.3]).to_matrix(2), seed=s
    ).labels.tobytes(),
    "split_dataset": lambda s: flat(
        [[part.features, part.labels] for part in split_dataset(TEN, seed=s)]
    ).tobytes(),
    "load_csv": csv_split_bits,
    "make_synthetic": lambda s: synthetic_bits(seed=s),
    "check_binary_identity": lambda s: check_binary_identity(s, trials=2),
    "check_multiclass_identity": lambda s: check_multiclass_identity(s, trials=2),
    "check_pointwise_optimum": lambda s: check_pointwise_optimum(s, configs=2),
    "check_argmax_invariance": lambda s: check_argmax_invariance(s, n_vectors=10),
    "check_correction_exactness": lambda s: check_correction_exactness(s, trials=9),
    "check_posterior_gap_bound": lambda s: check_posterior_gap_bound(s, trials=10),
    "check_first_order_bias": lambda s: check_first_order_bias(s, trials=2),
    "verify_theorems": verify_theorems,
}
# 2**128 is one past the largest seed, MAX_SEED
BAD_SEEDS = [2.5, -1, 2**128, True, np.True_, math.nan, math.inf, "3", None]

# the argument names whose every public entry point needs a row in COUNTS
# or, for seed, in SEEDS
INTEGER_ARGUMENTS = {
    "seed", "trials", "configs", "n_vectors", "k", "n", "d", "n_grid", "epochs",
    "batch_size", "layer_sizes",
}

# entry point-real argument -> function of that value
REALS = {
    "TrainConfig-lr0": lambda v: TrainConfig(epochs=1, batch_size=4, lr0=v),
    "TrainConfig-momentum": lambda v: TrainConfig(epochs=1, batch_size=4, momentum=v),
    "NoiseParams-eta": lambda v: NoiseParams(kind="symmetric", eta=v),
    "NoiseParams.symmetric-eta": NoiseParams.symmetric,
    "NoiseParams.uniform_offdiag-flip rates": lambda v: NoiseParams.uniform_offdiag(
        [v, 0.2]
    ),
}
BAD_REALS = ["0.1", math.inf, math.nan, True, None]

# case -> make_synthetic's parameters, every combination of k in {1, 2, 3},
# n at k - 1 and k, d at 0, k - 2 and k - 1, and a class separation of
# -1, 0, NaN or infinity
SYNTHETIC = {
    f"k{k}-n{n}-d{d}-sep{sep}": {"k": k, "n": n, "d": d, "class_separation": sep}
    for k, n, d, sep in [
        *(
            (k, n, d, sep)
            for k in (1, 2, 3)
            for n in (k - 1, k)
            for d in (0, k - 2, k - 1)
            for sep in (-1.0, 0.0, math.nan, math.inf)
        ),
        # a fractional size breaks its key's rule, and an integral float keeps it
        (2.5, 3, 2, 1.0), (3, 10.5, 2, 1.0), (3, 3, 2.5, 1.0),
        (3.0, 3, 2, 1.0), (3, 4.0, 2, 1.0), (3, 3, 2.0, 1.0),
    ]
}
# values no draw can hold: n x d past the run budget, MAX_RUN_FLOATS,
# which make_synthetic and a run refuse before they draw, and a
# separation float() cannot hold, which its key's rule refuses
TOO_LARGE = {
    "n": {"k": 2, "n": 10**400, "d": 2, "class_separation": 1.0},
    "d": {"k": 2, "n": 10, "d": 10**400, "class_separation": 1.0},
    "class_separation": {"k": 2, "n": 10, "d": 2, "class_separation": 10**400},
}
SYNTHETIC.update({f"{key}-10**400": params for key, params in TOO_LARGE.items()})


def label_id(label) -> str:
    """A label's test id: its repr, or its digit count for a long int."""
    text = repr(label)
    return text if len(text) <= 20 else f"int_of_{len(text)}_digits"


def flat(out) -> np.ndarray:
    """Every number in a result of nested tuples, lists and arrays."""
    if isinstance(out, (tuple, list)):
        return np.concatenate([flat(part) for part in out])
    return np.ravel(np.asarray(out, dtype=float))


@pytest.mark.parametrize("bad", BAD_LABELS, ids=label_id)
@pytest.mark.parametrize("entry", list(BATCH_LABELS))
def test_batch_entry_rejects_bad_label(entry, bad):
    with pytest.raises(ValueError, match="labels"):
        BATCH_LABELS[entry](np.array([0, bad]))


@pytest.mark.parametrize("case", list(BAD_LABEL_SHAPES))
@pytest.mark.parametrize("entry", list(BATCH_LABELS))
def test_batch_entry_rejects_labels_not_one_per_row(entry, case):
    with pytest.raises(ValueError, match="^labels must be one integer per sample$"):
        BATCH_LABELS[entry](BAD_LABEL_SHAPES[case])


@pytest.mark.parametrize("entry", list(BATCH_LABELS))
def test_batch_entry_reads_floats_and_bools_as_ints(entry):
    fn = BATCH_LABELS[entry]
    want = flat(fn(np.array([1, 0])))
    for same in (np.array([1.0, 0.0]), np.array([True, False])):
        np.testing.assert_array_equal(flat(fn(same)), want)


@pytest.mark.parametrize("case", list(BAD_RATES))
@pytest.mark.parametrize("entry", list(RATES))
def test_rate_entry_rejects_bad_rates(entry, case):
    with pytest.raises(ValueError, match="flip rates"):
        RATES[entry](BAD_RATES[case])


@pytest.mark.parametrize("entry", list(RATES))
def test_rate_entry_takes_good_rates(entry):
    RATES[entry](E)


@pytest.mark.parametrize("case", list(BAD_SIMPLEX))
@pytest.mark.parametrize("entry", list(SIMPLEX_ROWS))
def test_simplex_entry_rejects_bad_rows(entry, case):
    with pytest.raises(ValueError, match=SIMPLEX_RULE):
        SIMPLEX_ROWS[entry](BAD_SIMPLEX[case])


@pytest.mark.parametrize("case", list(GOOD_SIMPLEX))
@pytest.mark.parametrize("entry", list(SIMPLEX_ROWS))
def test_simplex_entry_takes_good_rows(entry, case):
    assert np.all(np.isfinite(flat(SIMPLEX_ROWS[entry](GOOD_SIMPLEX[case]))))


@pytest.mark.parametrize("case", [c for c in BAD_SIMPLEX if c != "wrong_ndim"])
def test_one_row_of_noisy_posterior_forward_takes_the_matrix_rule(case):
    # its one-row form is one 1 x K row; every defect sits in the first row
    with pytest.raises(ValueError, match=SIMPLEX_RULE):
        noisy_posterior_forward(BAD_SIMPLEX[case][0], np.zeros(K))


@pytest.mark.parametrize("case", list(GOOD_SIMPLEX))
def test_one_row_of_noisy_posterior_forward_is_the_matrix_row(case):
    rows = np.asarray(GOOD_SIMPLEX[case], dtype=float)
    e = np.linspace(0.05, 0.1, rows.shape[1])
    out = noisy_posterior_forward(rows[0], e)
    assert out.shape == rows[0].shape
    np.testing.assert_array_equal(out, noisy_posterior_forward(rows, e)[0])


@pytest.mark.parametrize("entry", list(ONE_ROW))
def test_matrix_entry_rejects_one_row(entry):
    fn, row = ONE_ROW[entry]
    with pytest.raises(ValueError, match="^expected an N x K matrix of .* with K >= 2$"):
        fn(row)


@pytest.mark.parametrize("case", list(BAD_OUTPUTS))
@pytest.mark.parametrize("entry", list(OUTPUT_ROWS))
def test_output_entry_rejects_bad_rows(entry, case):
    with pytest.raises(ValueError, match=OUTPUT_RULE):
        OUTPUT_ROWS[entry](BAD_OUTPUTS[case])


@pytest.mark.parametrize("case", list(GOOD_OUTPUTS))
@pytest.mark.parametrize("entry", list(OUTPUT_ROWS))
def test_output_entry_takes_good_rows(entry, case):
    assert np.all(np.isfinite(flat(OUTPUT_ROWS[entry](GOOD_OUTPUTS[case]))))


@pytest.mark.parametrize("entry", list(BATCH_MEANS))
def test_batch_mean_rejects_no_rows(entry):
    with pytest.raises(ValueError, match="at least one row"):
        BATCH_MEANS[entry](0)
    assert np.all(np.isfinite(flat(BATCH_MEANS[entry](2))))


@pytest.mark.parametrize("entry", list(PER_ROW))
def test_per_row_entry_returns_no_rows_for_none(entry):
    assert PER_ROW[entry](0).shape == (0, K)
    assert PER_ROW[entry](2).shape == (2, K)


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", list(COUNTS))
def test_count_rejects_non_integer(entry, bad):
    name = entry.partition("-")[2]
    # the synthetic sizes state their range, as _SYNTHETIC words it
    rule = f"^{name} must be an integer( from .*)?, got "
    with pytest.raises(ValueError, match=rule):
        COUNTS[entry][0](bad)


@pytest.mark.parametrize("entry", list(COUNTS))
def test_count_reads_integral_floats_as_ints(entry):
    fn, count = COUNTS[entry]
    want = repr(fn(count))
    for same in (float(count), np.float64(count), np.int64(count)):
        assert repr(fn(same)) == want


@pytest.mark.parametrize("bad", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("entry", list(SEEDS))
def test_seed_rejects_non_integer(entry, bad):
    rule = f"^seed must be (an integer|at least 0|at most {2**128 - 1}), got "
    with pytest.raises(ValueError, match=rule):
        SEEDS[entry](bad)


@pytest.mark.parametrize("entry", list(SEEDS))
def test_seed_reads_integral_floats_and_numpy_ints_bit_for_bit(entry):
    want = repr(SEEDS[entry](3))
    for same in (3.0, np.float64(3.0), np.int64(3)):
        assert repr(SEEDS[entry](same)) == want


def test_integral_float_epochs_train_as_ints():
    def trained(epochs):
        tc = TrainConfig(epochs=epochs, batch_size=4, seed=1)
        model0 = init(MlpSpec((2, 4, 2)), seed=0)
        model, trace = train(model0, TEN, ObjectiveConfig("kl"), tc)
        return flat(model.params).tobytes(), trace

    assert trained(2.0) == trained(2)


def test_every_public_integer_argument_has_a_row():
    """Each count, width, size or seed that a name in postmax.__all__
    takes, as a parameter or a dataclass field, has a row above, and
    each row names one."""
    found = set()
    for name in postmax.__all__:
        obj = getattr(postmax, name)
        if dataclasses.is_dataclass(obj):
            arguments = [f.name for f in dataclasses.fields(obj)]
        elif inspect.isfunction(obj):
            arguments = list(inspect.signature(obj).parameters)
        else:
            continue
        found |= {(name, a) for a in arguments if a in INTEGER_ARGUMENTS}
    rows = {tuple(entry.split("-", 1)) for entry in COUNTS}
    rows |= {(entry, "seed") for entry in SEEDS}
    assert found - rows == set(), "no row for these arguments"
    assert rows - found == set(), "these rows name no public argument"


@pytest.mark.parametrize("bad", BAD_REALS, ids=repr)
@pytest.mark.parametrize("entry", list(REALS))
def test_real_setting_rejects_non_number_or_out_of_range(entry, bad):
    with pytest.raises(ValueError, match=entry.partition("-")[2]):
        REALS[entry](bad)


def synthetic_tree(params) -> dict:
    """The smallest config tree that draws params."""
    return {
        "dataset": {"source": "synthetic", **params},
        "objective": {"divergence": "kl"},
    }


@pytest.mark.parametrize("case", list(SYNTHETIC))
def test_synthetic_config_and_sampler_share_one_rule(case):
    params = SYNTHETIC[case]
    try:
        make_synthetic(**params, seed=0)
    except ConfigError as err:
        if str(err).startswith("make_synthetic would hold "):
            # past the budget, which the run judges: every key's rule holds
            assert parse_config(synthetic_tree(params)).synthetic == params
            return
        key, _, requirement = str(err).partition(" must be ")
        with pytest.raises(ConfigError) as refused:
            parse_config(synthetic_tree(params))
        assert str(refused.value) == f"invalid 'dataset.{key}': must be {requirement}"
    else:
        assert parse_config(synthetic_tree(params)).synthetic == params


@pytest.mark.parametrize("key", ["class_separation"])
def test_synthetic_value_no_draw_holds_is_refused_under_its_key(key):
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        make_synthetic(**TOO_LARGE[key], seed=0)
    with pytest.raises(ConfigError, match=rf"^invalid 'dataset\.{key}': must be "):
        parse_config(synthetic_tree(TOO_LARGE[key]))


@pytest.mark.parametrize("key", ["n", "d"])
def test_synthetic_draw_past_the_budget_is_refused(key):
    rule = "would hold [0-9,]+ floats, over MAX_RUN_FLOATS = 268,435,456; "
    largest = "its largest term is features"
    with pytest.raises(ConfigError, match=f"^make_synthetic {rule}{largest}"):
        make_synthetic(**TOO_LARGE[key], seed=0)
    cfg = parse_config(synthetic_tree(TOO_LARGE[key]))
    with pytest.raises(ConfigError, match=f"^the run {rule}"):
        run_experiment(cfg)


@pytest.mark.parametrize("case", ["k2-n2-d1-sep0.0", "k3-n3-d2-sep0.0"])
def test_synthetic_good_cases_are_taken(case):
    params = SYNTHETIC[case]
    ds, _ = make_synthetic(**params, seed=0)
    assert (ds.n, ds.d, ds.k) == (params["n"], params["d"], params["k"])
    assert parse_config(synthetic_tree(params)).synthetic == params
