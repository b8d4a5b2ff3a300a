"""Datasets, experiment configs, the experiment protocol and reports.

The command line lives in `postmax.commands`; this module holds what it
runs.  Data loading, the experiment protocol, and the report formats are
specified precisely so that runs are reproducible: the same config file
and seeds produce identical result records (wall time excepted).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from array import array
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .divergence import DIVERGENCE_IDS, _integer, _is_real, _seed
from .model import (
    _ACTIVATIONS,
    _BLOCK_ROWS,
    _HEADS,
    MlpSpec,
    TrainConfig,
    _check,
    _check_budget,
    _evaluate_modes,
    _step_floats,
    _train_members,
    evaluate,
    init,
    train,
)
from .noise import LabeledDataset, NoiseParams, corrupt
from .objective import _CORRECTIONS, ObjectiveConfig

TEST_FRACTION = 0.2

TABLE_COLUMNS = ("No Cor.", "O.F. Cor.", "P. Cor.", "No Noise")

_FORMATS = ("csv", "json", "table")  # what report writes


class ConfigError(ValueError):
    """A config file or config tree is malformed."""


# ---------------------------------------------------------------------------
# datasets


def _csv_dataset(path) -> LabeledDataset:
    """Read a CSV file into a dataset of K = largest label + 1 classes.

    The last column is the label; a single header line is allowed.  K
    must be at least 2 and at most the number of data rows, so a label
    must be below it.  Any malformed content is reported with its line
    number.  The memory of a run on the file, K x K matrices among it, is
    model.MAX_RUN_FLOATS' to judge, once the file is read; reading holds
    about 2 x N x D floats, the rows' one flat array and the features.
    """
    table = array("d")  # every data row's values, one row after another
    width: Optional[int] = None
    top = (-1.0, 0, "")  # the largest label so far, its line and its cell
    # utf-8-sig drops a byte order mark, which would make line 1 a header
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise ConfigError(
                    f"{path}: line {lineno}: expected at least two columns"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                if not table and lineno == 1:
                    continue  # header line
                raise ConfigError(
                    f"{path}: line {lineno}: non-numeric value"
                ) from None
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{path}: line {lineno}: non-finite value")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ConfigError(
                    f"{path}: line {lineno}: expected {width} columns, "
                    f"got {len(values)}"
                )
            label = values[-1]
            if not float(label).is_integer() or label < 0:
                raise ConfigError(
                    f"{path}: line {lineno}: label must be a nonnegative integer"
                )
            if label > top[0]:
                top = (label, lineno, parts[-1])
            table.extend(values)
    if not table:
        raise ConfigError(f"{path}: no data rows")
    rows = np.frombuffer(table).reshape(-1, width)
    largest, lineno, cell = top
    if largest >= len(rows):
        raise ConfigError(
            f"{path}: line {lineno}: label {cell} makes more classes than "
            f"the {len(rows)} data rows"
        )
    if largest < 1:
        raise ConfigError(f"{path}: labels must cover at least two classes")
    return LabeledDataset(rows[:, :-1], rows[:, -1], int(largest) + 1)


def load_csv(path, seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Load a CSV dataset and return standardized (train, test) splits.

    The split is an 80/20 partition by a seeded permutation.  Features
    are standardized per column using statistics of the training split
    only; constant columns are left unscaled.
    """
    return _standardized(*split_dataset(_csv_dataset(path), seed))


def _standardized(
    train_ds: LabeledDataset, test_ds: LabeledDataset
) -> tuple[LabeledDataset, LabeledDataset]:
    """Both splits standardized as load_csv standardizes them."""
    mean = train_ds.features.mean(axis=0)
    std = train_ds.features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return tuple(
        replace(ds, features=(ds.features - mean) / std) for ds in (train_ds, test_ds)
    )


def split_dataset(
    ds: LabeledDataset, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """80/20 train/test partition of a dataset by a seeded permutation."""
    n_test = int(round(TEST_FRACTION * ds.n))
    if n_test < 1 or ds.n - n_test < 1:
        raise ConfigError(f"cannot split {ds.n} rows into nonempty train and test parts")
    perm = np.random.default_rng(_seed(seed)).permutation(ds.n)

    def make(idx):
        features = ds.features[idx]
        features.setflags(write=False)  # so the dataset holds it, not a copy
        return replace(ds, features=features, labels=ds.labels[idx])

    return make(perm[n_test:]), make(perm[:n_test])


def make_synthetic(
    k: int, n: int, d: int, class_separation: float, seed: int = 0
) -> tuple[LabeledDataset, np.ndarray]:
    """Sample a balanced spherical Gaussian mixture with known posterior.

    Class means sit at the vertices of a regular simplex with pairwise
    distance ``class_separation``, embedded in a seeded random frame
    (this needs d >= k-1).  Returns the dataset together with the exact
    posterior of each sample under the generating mixture, so learned
    posteriors can be compared against the best achievable ones.  A draw
    whose arrays, the posterior's among them, would hold more than
    model.MAX_RUN_FLOATS floats is refused before it starts.
    """
    params = dict(k=k, n=n, d=d, class_separation=class_separation)
    k, n, d, _ = _checked_synthetic(params).values()
    terms = {**_draw_terms(k, n, d), "posterior": 3 * n * k}
    _check_budget(terms, "make_synthetic", ConfigError)
    ds, means, counts = _sample_synthetic(**params, seed=seed)
    # Exact mixture posterior: unit-variance components with priors
    # proportional to the class counts.  Squared distances go one class
    # at a time, so no (n, k, d) difference is held.
    sq = np.empty((ds.n, ds.k))
    for c in range(ds.k):
        sq[:, c] = ((ds.features - means[c]) ** 2).sum(axis=1)
    logits = -0.5 * sq + np.log(counts / ds.n)
    logits -= logits.max(axis=1, keepdims=True)
    posterior = np.exp(logits)
    posterior /= posterior.sum(axis=1, keepdims=True)
    return ds, posterior


def _separation(value, name: str, least: float) -> float:
    """A class separation as a float: an int or a float from least to the
    largest float."""
    if not (_is_real(value) and least <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite float of at least {least}")
    return float(value)


# The synthetic draw's rules, checked in this order: key -> (its rule,
# taking the value, key and least, then its least value given the keys
# before it, and what it must be).  k equidistant means span k - 1
# dimensions, every class has a row, and a separation must be a float;
# how large a draw may be is model.MAX_RUN_FLOATS' to judge.
# _sample_synthetic and parse_config both check by this table.
_SYNTHETIC = {
    "k": (_integer, lambda p: 2, "an integer from {least} up"),
    "n": (_integer, lambda p: p["k"], "an integer from {least} up for k = {k}"),
    "d": (_integer, lambda p: max(1, p["k"] - 1),
          "an integer from {least} dimensions up for k = {k}"),
    "class_separation": (_separation, lambda p: 0.0, "finite and nonnegative"),
}


def _checked_synthetic(params: dict, fault: str = "{key} must be {what}") -> dict:
    """params as their _SYNTHETIC rules read them.  The first that breaks
    its rule raises ConfigError, fault naming the key and what it must be."""
    checked = {}  # the keys before this one, as their rules read them
    for key, (rule, bound, requirement) in _SYNTHETIC.items():
        least, value = bound(checked), params[key]
        try:
            checked[key] = rule(value, key, least)
        except ValueError:
            what = requirement.format(least=least, **checked)
            message = fault.format(key=key, what=what)
            raise ConfigError(f"{message}, got {value!r}") from None
    return checked


def _draw_terms(k: int, n: int, d: int) -> dict:
    """The floats of the synthetic draw's large arrays: the features with
    their temporaries and split, which peak at about 2.1 n x d in the draw
    and 2.0 n x d in the split, its input included, and the means' frame,
    its k x k and d x (k - 1) factors."""
    return {"features": 4 * n * d, "synthetic frame": 5 * k * k + 3 * d * k}


def _sample_synthetic(
    k: int, n: int, d: int, class_separation: float, seed: int
) -> tuple[LabeledDataset, np.ndarray, np.ndarray]:
    """make_synthetic's dataset, with the class means and counts that its
    posterior reads; for callers that need the samples only.  A parameter
    that breaks its _SYNTHETIC rule raises ConfigError naming it."""
    params = dict(k=k, n=n, d=d, class_separation=class_separation)
    k, n, d, class_separation = _checked_synthetic(params).values()

    rng = np.random.default_rng(_seed(seed))
    # Regular simplex with unit-free coordinates: center the k standard
    # basis vectors, keep the k-1 informative directions, then rotate
    # into d dimensions with a random orthonormal frame.
    centered = np.eye(k) - 1.0 / k
    u, s, _ = np.linalg.svd(centered)
    coords = u[:, : k - 1] * s[: k - 1]  # pairwise distance sqrt(2)
    frame, _ = np.linalg.qr(rng.normal(size=(d, k - 1)))
    means = (class_separation / np.sqrt(2.0)) * coords @ frame.T

    base, extra = divmod(n, k)
    counts = np.array([base + (1 if c < extra else 0) for c in range(k)])
    labels = np.repeat(np.arange(k), counts)
    # each class's mean added to its run of rows in place: the bits of
    # means[labels] + normal, without an (n, d) array of means
    features = rng.normal(size=(n, d))
    for c, stop in enumerate(np.cumsum(counts)):
        features[stop - counts[c] : stop] += means[c]
    order = rng.permutation(n)
    shuffled = features[order]
    shuffled.setflags(write=False)  # so the dataset holds it, not a copy
    return LabeledDataset(shuffled, labels[order], k), means, counts


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: data source, objective, noise, net, and seeds.

    parse_config checks every value, and every rule across values, under
    a key it names.
    """

    source: str  # "csv" | "synthetic"
    csv_path: Optional[str]
    synthetic: Optional[dict]
    split_seed: int
    divergence: str
    corrections: tuple[str, ...]
    noise: Optional[NoiseParams]
    hidden: tuple[int, ...]
    activation: str
    head: str
    train: TrainConfig
    seeds: tuple[int, ...]
    out_path: Optional[str]
    out_format: str


# Converters from a config value to a field value.  Each takes the value
# as YAML gives it and raises ValueError naming what it expected.  Every
# integer is read by divergence._integer, the library's one integer rule.


def _as_given(value):
    """value itself; for the synthetic draw's keys, which _SYNTHETIC reads."""
    return value


def _real_text(value):
    """A string float() reads as that float, as _number reads one, and
    any other value as it is; for the separation, whose _SYNTHETIC rule
    refuses an int past the largest float, which float() would raise on."""
    return float(value) if isinstance(value, str) else value


def _number(value) -> float:
    """An int, a float or a string float() reads, never a bool.  PyYAML
    reads an exponent without a point, such as 1e-3, as a string."""
    if not (_is_real(value) or isinstance(value, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _readable_path(value) -> str:
    path = _string(value)
    try:
        with open(path, "r", encoding="utf-8"):
            pass
    except OSError as err:
        raise ValueError(f"not readable: {err}") from None
    return path


def _list(convert):
    def convert_list(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(map(convert, value))

    return convert_list


def _choice(options: tuple[str, ...]):
    def convert(value) -> str:
        if not (isinstance(value, str) and value in options):
            raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
        return value

    return convert


def _distinct(values: tuple) -> tuple:
    """values, if nonempty and free of repeats: a repeated seed or
    correction mode would repeat its records in every mean."""
    if not values or len(set(values)) != len(values):
        raise ValueError(f"expected nonempty and distinct values, got {list(values)}")
    return values


def _modes(value) -> tuple[str, ...]:
    """One correction mode, or a list of distinct ones, as a tuple."""
    mode = _choice(_CORRECTIONS)
    return _distinct((mode(value),) if isinstance(value, str) else _list(mode)(value))


def _ruled(rule: str, convert):
    """convert, then model.py's single-field rule of that name."""
    return lambda value: _check(rule, convert(value))


def _rates(value) -> NoiseParams:
    return NoiseParams.uniform_offdiag(_list(_number)(value))


_REQUIRED = object()  # the default of a key that every config gives

# (section, key) -> (converter, default, variant); section None is the
# root.  A key with a variant (key, value) is read only when its section
# gives that key that value, and is unknown otherwise.
_CONFIG = {
    (None, "seeds"): (
        lambda seeds: _distinct(_list(_seed)(seeds)),
        (0,),
        None,
    ),
    ("dataset", "source"): (_choice(("csv", "synthetic")), _REQUIRED, None),
    ("dataset", "path"): (_readable_path, _REQUIRED, ("source", "csv")),
    ("dataset", "k"): (_as_given, 2, ("source", "synthetic")),
    ("dataset", "n"): (_as_given, 600, ("source", "synthetic")),
    ("dataset", "d"): (_as_given, 10, ("source", "synthetic")),
    ("dataset", "class_separation"): (_real_text, 4.0, ("source", "synthetic")),
    ("dataset", "split_seed"): (partial(_seed, name="split_seed"), 0, None),
    ("model", "hidden"): (_list(partial(_integer, name="width", least=1)), (32,), None),
    ("model", "activation"): (_choice(_ACTIVATIONS), "relu", None),
    ("model", "head"): (_choice(_HEADS), "simplex", None),
    ("objective", "divergence"): (_choice(DIVERGENCE_IDS), _REQUIRED, None),
    ("objective", "correction"): (_modes, ("none",), None),
    ("noise", "kind"): (_choice(("symmetric", "uniform_offdiag")), _REQUIRED, None),
    ("noise", "eta"): (
        lambda eta: NoiseParams.symmetric(_number(eta)),
        _REQUIRED,
        ("kind", "symmetric"),
    ),
    ("noise", "e"): (_rates, _REQUIRED, ("kind", "uniform_offdiag")),
    ("train", "epochs"): (partial(_integer, name="epochs", least=0), 100, None),
    ("train", "batch_size"): (partial(_integer, name="batch_size", least=1), 32, None),
    ("train", "lr0"): (_ruled("lr0", _number), 0.02, None),
    ("train", "momentum"): (_ruled("momentum", _number), 0.9, None),
    ("output", "path"): (_string, None, None),
    ("output", "format"): (_choice(_FORMATS), "table", None),
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _CONFIG if section))


def _read(tree: dict, section: Optional[str]) -> dict:
    """The converted values of one section of tree, or of its root keys,
    with defaults filled in; an absent section reads as an empty one."""
    where = section or "<root>"
    if section is not None:
        tree = tree.get(section, {})
    if not isinstance(tree, dict):
        raise ConfigError(f"section '{where}' must be a mapping")
    values = {}
    for (in_section, key), (convert, default, variant) in _CONFIG.items():
        if in_section != section or (
            variant is not None and values[variant[0]] != variant[1]
        ):
            continue
        if key not in tree:
            if default is _REQUIRED:
                raise ConfigError(f"section '{where}' requires '{key}'")
            values[key] = default
            continue
        try:
            values[key] = convert(tree[key])
        except (ValueError, OverflowError) as err:  # float() of a huge int
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(f"invalid '{name}': {err}") from None
    allowed = set(values) | set(_SECTIONS if section is None else ())
    unknown = sorted(str(key) for key in set(tree) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in section '{where}' "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    return values


def parse_config(tree: dict) -> ExperimentConfig:
    """Validate a config tree and build an ExperimentConfig.

    Unknown keys anywhere in the tree are hard errors, and every
    malformed value is reported as a ConfigError naming its key.  A
    synthetic source's keys are checked against _SYNTHETIC, the rules
    the draw itself checks, once the whole dataset section is read.
    """
    root = _read(tree, None)
    dataset = _read(tree, "dataset")
    synthetic = None
    if dataset["source"] == "synthetic":
        synthetic = _checked_synthetic(
            {key: dataset[key] for key in _SYNTHETIC},
            "invalid 'dataset.{key}': must be {what}",
        )
    model = _read(tree, "model")
    objective = _read(tree, "objective")
    output = _read(tree, "output")
    noise = None  # no noise section, or a null one: clean labels
    if tree.get("noise") is not None:
        rates = _read(tree, "noise")
        noise = rates.get("eta", rates.get("e"))  # each reads as NoiseParams
    for mode in objective["correction"]:
        if mode != "none" and noise is None:
            raise ConfigError(
                f"invalid 'objective.correction': '{mode}' requires a noise section"
            )
    # the noise rules that read K; a CSV's K is known only once it is read
    if synthetic is not None and noise is not None:
        k = synthetic["k"]
        try:
            noise._check_classes(k)
        except ValueError as err:
            key = "eta" if noise.kind == "symmetric" else "e"
            raise ConfigError(f"invalid 'noise.{key}': {err} for k = {k}") from None
    return ExperimentConfig(
        source=dataset["source"],
        csv_path=dataset.get("path"),
        synthetic=synthetic,
        split_seed=dataset["split_seed"],
        divergence=objective["divergence"],
        corrections=objective["correction"],
        noise=noise,
        hidden=model["hidden"],
        activation=model["activation"],
        head=model["head"],
        train=TrainConfig(**_read(tree, "train")),
        seeds=root["seeds"],
        out_path=output["path"],
        out_format=output["format"],
    )


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file into a validated ExperimentConfig."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from None
    except RecursionError:
        raise ConfigError(f"{path}: YAML nested too deeply") from None
    if tree is None:
        raise ConfigError(f"{path}: empty config")
    return parse_config(tree)


# ---------------------------------------------------------------------------
# experiment protocol


@dataclass(frozen=True)
class ResultRecord:
    """One training run: clean baseline vs noisy-trained accuracy."""

    seed: int
    divergence: str
    noise: str
    correction: str
    clean_test_accuracy: float
    noisy_test_accuracy: float
    final_objective: float
    wall_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.divergence not in DIVERGENCE_IDS:
            raise ValueError(f"unknown divergence {self.divergence!r}")
        if self.correction not in _CORRECTIONS:
            raise ValueError(f"unknown correction {self.correction!r}")
        for name in ("clean_test_accuracy", "noisy_test_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("final_objective", "wall_seconds"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


# How a record field of each type is read back: the CSV cell's converter
# and the JSON value's types (JSON writes 1.0 as 1, so a float field takes
# an int); a JSON bool, though an int in Python, fits no field.
_READ_AS = {"int": (int, int), "str": (str, str), "float": (float, (int, float))}
_RECORD_TYPES = {f.name: _READ_AS[f.type] for f in fields(ResultRecord)}
RECORD_COLUMNS = tuple(_RECORD_TYPES)


def describe_noise(noise: Optional[NoiseParams]) -> str:
    if noise is None:
        return "none"
    if noise.kind == "symmetric":
        return f"symmetric(eta={noise.eta!r})"
    rates = ",".join(repr(float(v)) for v in noise.e)
    return f"uniform_offdiag(e={rates})"


def _mlp_spec(cfg: ExperimentConfig, d: int, k: int) -> MlpSpec:
    """The network of cfg for data of d features and k classes."""
    return MlpSpec(
        layer_sizes=(d, *cfg.hidden, k),
        activation=cfg.activation,
        head=cfg.head,
        divergence=cfg.divergence if cfg.head == "raw_t" else None,
    )


def _run_terms(cfg: ExperimentConfig, n: int, d: int, k: int) -> dict:
    """The floats of the large arrays of cfg's run as run_experiment runs
    it, by what holds them, from the config and the data's n rows, d
    features and k classes alone, in integer arithmetic.  Each term bounds
    its arrays' peak, counting all n rows where a split holds fewer; a
    network's parameter rows are its initial and trained ones and the
    step's parameters, velocity and gradient, which the update reuses.
    Training releases the step's workspaces, velocity and gradient before
    the final train-set check's scoring blocks are allocated; the budget
    still sums every term, so it stays an upper bound on the peak."""
    S = len(cfg.seeds)
    G = 1 + len(_noisy_trainings(cfg))  # the networks each seed trains
    B = min(cfg.train.batch_size, n)
    sizes = (d, *cfg.hidden, k)
    params = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    rows = min(_BLOCK_ROWS, n)
    data = {"features": 4 * n * d} if cfg.source == "csv" else _draw_terms(k, n, d)
    return {
        **data,
        "noise matrix": 0 if cfg.noise is None else 2 * k * k,
        "one-hot identity": k * k,
        "training labels": 3 * (S * G + S) * n,
        "parameters": 5 * S * G * params,
        "step workspaces": _step_floats(_mlp_spec(cfg, d, k), S, G, B)
        + 8 * S * G * B * k,
        "scoring blocks": rows * (sum(cfg.hidden) + 6 * k + 1) + 4 * n,
    }


def _noisy_trainings(cfg: ExperimentConfig) -> dict:
    """The noisy networks a seed trains besides its clean one, in order of
    first use: each one's training config, mapped to the configs of the
    modes it is scored for.  Only the objective correction changes the
    gradient, so none and posterior share one; it is empty without noise."""
    trainings = {}
    for mode in cfg.corrections if cfg.noise is not None else ():
        scored = ObjectiveConfig(cfg.divergence, mode, cfg.noise)
        trained = scored if mode == "objective" else replace(scored, correction="none")
        trainings.setdefault(trained, []).append(scored)
    return trainings


def _dataset(cfg: ExperimentConfig) -> LabeledDataset:
    """cfg's whole dataset, once its run's _run_terms fit the budget: a
    synthetic run is checked before the draw, a CSV one once the file is
    read.  A run past it raises ConfigError."""
    ds = _csv_dataset(cfg.csv_path) if cfg.source == "csv" else None
    shape = (cfg.synthetic[key] for key in "ndk") if ds is None else (ds.n, ds.d, ds.k)
    _check_budget(_run_terms(cfg, *shape), "the run", ConfigError)
    if ds is None:
        ds, _, _ = _sample_synthetic(seed=cfg.split_seed, **cfg.synthetic)
    return ds


def _load_splits(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """_dataset's (train, test) splits, a CSV's standardized."""
    splits = split_dataset(_dataset(cfg), seed=cfg.split_seed)
    return _standardized(*splits) if cfg.source == "csv" else splits


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run the experiment protocol and return one record per (seed, mode).

    Per seed: corrupt the training split (the test split is never
    corrupted), train the clean baseline and one network per distinct
    training objective, and evaluate every correction mode on the clean
    test split.  Posterior correction acts only at evaluation, so the
    `none` and `posterior` modes share one noisy training, and one scoring
    pass gives both their accuracies and the uncorrected objective they
    share.  The `objective` mode's expected gradient is (1 - sum(e)) times
    the clean one, so it trains at an effective learning rate of
    (1 - sum(e)) * lr0: 0.6 * lr0 for flip rates e = (0.1, 0.3).  With
    noise, final_objective is the mean objective J on the clean test
    labels, minus the bias of e for `objective` and uncorrected for `none`
    and `posterior`.  Every seed's networks train in one lockstep call,
    with no per-epoch metrics.  The wall time of each record is that call's time
    divided by the number of seeds, plus an equal share of the scoring
    pass that gave the record: without noise, the clean network's pass
    shares among every mode; with noise, the noisy network's pass shares
    among the modes it serves.  Identical configs and seeds give
    identical records apart from wall time.  A run whose _run_terms sum
    past model.MAX_RUN_FLOATS is refused with a ConfigError naming the
    total and the largest term: before the draw for a synthetic source,
    whose shape the config gives, and once the file is read for a CSV one.
    """
    trainings = _noisy_trainings(cfg)
    per_seed = 1 + len(trainings)
    train_ds, test_ds = _load_splits(cfg)
    spec = _mlp_spec(cfg, train_ds.d, train_ds.k)
    plain = ObjectiveConfig(cfg.divergence)
    noise_desc = describe_noise(cfg.noise)
    members = []  # per seed: the clean baseline, then each noisy mode
    for seed in cfg.seeds:
        model0 = init(spec, seed=seed)
        tc = replace(cfg.train, seed=seed)
        members.append((model0, train_ds, plain, tc))
        if cfg.noise is not None:
            noisy_train = corrupt(train_ds, cfg.noise.to_matrix(train_ds.k), seed=seed)
            members += [(model0, noisy_train, c, tc) for c in trainings]
    t0 = time.perf_counter()
    trained = _train_members(members)
    train_wall = (time.perf_counter() - t0) / len(cfg.seeds)
    records = []
    for i, seed in enumerate(cfg.seeds):
        clean_model, *noisy = trained[i * per_seed : (i + 1) * per_seed]
        t0 = time.perf_counter()
        clean_acc, clean_obj = evaluate(clean_model, test_ds, plain)
        clean_s = time.perf_counter() - t0
        # mode -> (accuracy, objective, wall time)
        scored = {
            mode: (clean_acc, clean_obj, train_wall + clean_s / len(cfg.corrections))
            for mode in cfg.corrections
        }
        for modes, network in zip(trainings.values(), noisy):
            t0 = time.perf_counter()
            results = _evaluate_modes(network, test_ds, modes)
            wall = train_wall + (time.perf_counter() - t0) / len(modes)
            for mode_cfg, (acc, obj) in zip(modes, results):
                scored[mode_cfg.correction] = (acc, obj, wall)
        for mode in cfg.corrections:
            acc, obj, wall = scored[mode]
            records.append(
                ResultRecord(
                    seed=seed,
                    divergence=cfg.divergence,
                    noise=noise_desc,
                    correction=mode,
                    clean_test_accuracy=float(clean_acc),
                    noisy_test_accuracy=float(acc),
                    final_objective=float(obj),
                    wall_seconds=float(wall),
                )
            )
    return records


# ---------------------------------------------------------------------------
# reporting


def _sorted_records(records: Sequence[ResultRecord]) -> list[ResultRecord]:
    return sorted(
        records, key=lambda r: (r.divergence, r.noise, r.correction, r.seed)
    )


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return mean, std


def summarize(records: Sequence[ResultRecord]) -> list[dict]:
    """Group records by (divergence, noise, correction); mean and sample std."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list[ResultRecord]] = {}
    for rec in _sorted_records(records):
        groups.setdefault((rec.divergence, rec.noise, rec.correction), []).append(rec)
    rows = []
    for (div, noise, mode), recs in sorted(groups.items()):
        noisy_mean, noisy_std = _mean_std([r.noisy_test_accuracy for r in recs])
        clean_mean, clean_std = _mean_std([r.clean_test_accuracy for r in recs])
        rows.append(
            {
                "divergence": div,
                "noise": noise,
                "correction": mode,
                "runs": len(recs),
                "noisy_mean": noisy_mean,
                "noisy_std": noisy_std,
                "clean_mean": clean_mean,
                "clean_std": clean_std,
            }
        )
    return rows


def _records_to_csv(records: Sequence[ResultRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for rec in _sorted_records(records):
        writer.writerow(asdict(rec).values())  # floats as repr
    for row in summarize(records):
        out.write(
            "# summary,{divergence},{noise},{correction},runs={runs},"
            "noisy={noisy_mean!r}+-{noisy_std!r},"
            "clean={clean_mean!r}+-{clean_std!r}\n".format(**row)
        )
    return out.getvalue()


def _records_to_json(records: Sequence[ResultRecord]) -> str:
    payload = {
        "records": [asdict(rec) for rec in _sorted_records(records)],
        "summary": summarize(records),
    }
    return json.dumps(payload, indent=2) + "\n"


def _pct(mean: float, std: float) -> str:
    return f"{100.0 * mean:.2f}+-{100.0 * std:.2f}"


def _records_to_table(records: Sequence[ResultRecord]) -> str:
    """Accuracy (percent, mean+-std) per correction mode and clean baseline."""
    summary = summarize(records)
    cells: dict[tuple, dict[str, str]] = {}
    mode_col = {"none": "No Cor.", "objective": "O.F. Cor.", "posterior": "P. Cor."}
    for row in summary:
        key = (row["divergence"], row["noise"])
        entry = cells.setdefault(key, {})
        entry[mode_col[row["correction"]]] = _pct(row["noisy_mean"], row["noisy_std"])
        entry.setdefault("No Noise", _pct(row["clean_mean"], row["clean_std"]))
    header = ["divergence", "noise"] + list(TABLE_COLUMNS)
    body = [
        [div, noise] + [cells[(div, noise)].get(col, "-") for col in TABLE_COLUMNS]
        for div, noise in sorted(cells)
    ]
    widths = [
        max(len(str(row[i])) for row in [header] + body)
        for i in range(len(header))
    ]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def report(records: Sequence[ResultRecord], format: str = "table") -> str:
    """Serialize records as csv, json, or a summary table."""
    if not records:
        raise ValueError("no records to report")
    if format == "csv":
        return _records_to_csv(records)
    if format == "json":
        return _records_to_json(records)
    if format == "table":
        return _records_to_table(records)
    raise ValueError(f"format must be one of {', '.join(_FORMATS)}")


def _record_fields(row, format: str) -> dict:
    """A parsed report row's fields by column: a csv row's cells, read, or
    a JSON row, an object with every column at its type."""
    if format == "csv":
        if len(row) != len(RECORD_COLUMNS):
            raise ValueError(f"expected {len(RECORD_COLUMNS)} fields, got {len(row)}")
        cells = zip(_RECORD_TYPES.items(), row)
        return {c: read(cell) for (c, (read, _)), cell in cells}
    if not isinstance(row, dict) or sorted(row) != sorted(RECORD_COLUMNS):
        keys = ", ".join(RECORD_COLUMNS)
        raise ValueError(f"expected an object with the keys {keys}")
    mistyped = [
        c
        for c, (_, types) in _RECORD_TYPES.items()
        if not isinstance(row[c], types) or isinstance(row[c], bool)
    ]
    if mistyped:
        raise ValueError(f"mistyped {', '.join(mistyped)}")
    return row


def parse_report(text: str, format: str) -> list[ResultRecord]:
    """Read records back from report output (csv or json only).

    A malformed record raises ValueError naming its 1-based position.
    """
    if format == "csv":
        lines = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
        ]
        rows = csv.reader(lines)
        if next(rows, None) != list(RECORD_COLUMNS):
            raise ValueError("unrecognized record csv header")
    elif format == "json":
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("the JSON is nested too deeply") from None
        rows = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(rows, list):
            raise ValueError("expected a JSON object with a 'records' list")
    else:
        raise ValueError("only csv and json reports can be parsed back")
    records = []
    for i, row in enumerate(rows, start=1):
        try:
            records.append(ResultRecord(**_record_fields(row, format)))
        except ValueError as err:
            raise ValueError(f"record {i}: {err}") from None
    return records
