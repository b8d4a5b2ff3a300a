"""Command-line workflows: datasets, experiments, verification, reports.

Everything here is glue.  Data loading, the experiment protocol, and the
report formats are specified precisely so that runs are reproducible:
the same config file and seeds produce identical result records (wall
time excepted).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Sequence

import click
import numpy as np
import yaml

from .analysis import verify_theorems
from .divergence import DIVERGENCE_IDS
from .model import (
    MlpSpec,
    TrainConfig,
    _train_members,
    evaluate,
    init,
    load_model,
    save_model,
    train,
)
from .noise import LabeledDataset, NoiseParams, corrupt
from .objective import _CORRECTIONS, ObjectiveConfig

TEST_FRACTION = 0.2

TABLE_COLUMNS = ("No Cor.", "O.F. Cor.", "P. Cor.", "No Noise")


class ConfigError(ValueError):
    """A config file or config tree is malformed."""


# ---------------------------------------------------------------------------
# datasets


def _parse_csv_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """Read feature rows and integer labels from a CSV file.

    The last column is the label; a single header line is allowed.  Any
    malformed content is reported with its line number.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    width: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
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
                if not rows and lineno == 1:
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
            rows.append(values[:-1])
            labels.append(int(label))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=int)


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    n_test = int(round(TEST_FRACTION * n))
    if n_test < 1 or n - n_test < 1:
        raise ConfigError(
            f"cannot split {n} rows into nonempty train and test parts"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return perm[n_test:], perm[:n_test]


def load_csv(path, seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Load a CSV dataset and return standardized (train, test) splits.

    The split is an 80/20 partition by a seeded permutation.  Features
    are standardized per column using statistics of the training split
    only; constant columns are left unscaled.
    """
    features, labels = _parse_csv_rows(path)
    train_idx, test_idx = _split_indices(len(labels), seed)
    k = int(labels.max()) + 1
    if k < 2:
        raise ConfigError(f"{path}: labels must cover at least two classes")
    mean = features[train_idx].mean(axis=0)
    std = features[train_idx].std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    scaled = (features - mean) / std
    train_ds = LabeledDataset(scaled[train_idx], labels[train_idx], k)
    test_ds = LabeledDataset(scaled[test_idx], labels[test_idx], k)
    return train_ds, test_ds


def split_dataset(
    ds: LabeledDataset, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """80/20 train/test partition of a dataset by a seeded permutation."""
    train_idx, test_idx = _split_indices(ds.n, seed)
    make = lambda idx: LabeledDataset(
        ds.features[idx], ds.labels[idx], ds.k, ds.provenance
    )
    return make(train_idx), make(test_idx)


def make_synthetic(
    k: int, n: int, d: int, class_separation: float, seed: int = 0
) -> tuple[LabeledDataset, np.ndarray]:
    """Sample a balanced spherical Gaussian mixture with known posterior.

    Class means sit at the vertices of a regular simplex with pairwise
    distance ``class_separation``, embedded in a seeded random frame
    (this needs d >= k-1).  Returns the dataset together with the exact
    posterior of each sample under the generating mixture, so learned
    posteriors can be compared against the best achievable ones.
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    if n < k:
        raise ConfigError("n must be at least k")
    if d < 1:
        raise ConfigError("d must be at least 1")
    if d < k - 1:
        raise ConfigError(
            f"equidistant means for {k} classes need at least {k - 1} dimensions"
        )
    if not (np.isfinite(class_separation) and class_separation >= 0.0):
        raise ConfigError("class_separation must be finite and nonnegative")

    rng = np.random.default_rng(seed)
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
    features = means[labels] + rng.normal(size=(n, d))
    order = rng.permutation(n)
    features, labels = features[order], labels[order]

    # Exact mixture posterior: unit-variance components with priors
    # proportional to the class counts.  Squared distances go one class
    # at a time, so no (n, k, d) difference is held.
    sq = np.empty((n, k))
    for c in range(k):
        sq[:, c] = ((features - means[c]) ** 2).sum(axis=1)
    logits = -0.5 * sq + np.log(counts / n)
    logits -= logits.max(axis=1, keepdims=True)
    posterior = np.exp(logits)
    posterior /= posterior.sum(axis=1, keepdims=True)
    return LabeledDataset(features, labels, k), posterior


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: data source, objective, noise, net, and seeds."""

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

    def __post_init__(self):
        if self.source not in ("csv", "synthetic"):
            raise ConfigError("dataset source must be 'csv' or 'synthetic'")
        if not self.seeds:
            raise ConfigError("seeds must be a nonempty list")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        _modes(self.corrections)
        for mode in self.corrections:
            if mode != "none" and self.noise is None:
                raise ConfigError(
                    f"correction '{mode}' requires a noise section"
                )
        if not self.corrections:
            raise ConfigError("at least one correction mode is required")
        _out_format(self.out_format)
        # Objective-level validation (divergence id, head name).
        ObjectiveConfig(self.divergence, "none", None, self.head)


def _require_mapping(tree, section: str) -> dict:
    if not isinstance(tree, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    return tree


def _check_keys(tree: dict, allowed: Sequence[str], section: str) -> None:
    unknown = sorted(str(key) for key in set(tree) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in section '{section}' "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _field(tree: dict, section: Optional[str], key: str, convert, default=None):
    """convert(tree[key]), or convert(default) when the key is absent.

    A ValueError, TypeError or OverflowError (int() of an infinite
    float) from the conversion, or from a constructor it calls, becomes
    a ConfigError naming the key.
    """
    try:
        return convert(tree.get(key, default))
    except (TypeError, ValueError, OverflowError) as err:
        name = key if section is None else f"{section}.{key}"
        raise ConfigError(f"invalid '{name}': {err}") from None


def _int_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _modes(value) -> tuple[str, ...]:
    """One correction mode, or a list of them, as a tuple of modes."""
    if isinstance(value, str):
        value = [value]
    elif not isinstance(value, (list, tuple)):
        raise ConfigError("expected a mode or a list of modes")
    modes = tuple(str(m) for m in value)
    for mode in modes:
        if mode not in _CORRECTIONS:
            raise ConfigError(f"correction must be one of {_CORRECTIONS}")
    return modes


_TRAIN_PROBE = {"epochs": 0, "batch_size": 1}  # stand-ins that TrainConfig accepts


def _train_field(tree: dict, key: str, convert, default):
    """_field of a train key, put through TrainConfig's own checks with
    stand-ins for the other fields."""

    def checked(value):
        probe = TrainConfig(**{**_TRAIN_PROBE, key: convert(value)})
        return getattr(probe, key)

    return _field(tree, "train", key, checked, default)


def _out_format(value) -> str:
    value = str(value)
    if value not in ("csv", "json", "table"):
        raise ConfigError("output format must be csv, json, or table")
    return value


def _parse_noise(tree) -> Optional[NoiseParams]:
    if tree is None:
        return None
    tree = _require_mapping(tree, "noise")
    _check_keys(tree, ("kind", "eta", "e"), "noise")
    kind = tree.get("kind")
    if kind == "symmetric":
        if "eta" not in tree:
            raise ConfigError("symmetric noise requires 'eta'")
        if "e" in tree:
            raise ConfigError("symmetric noise takes 'eta', not 'e'")
        return _field(
            tree, "noise", "eta", lambda eta: NoiseParams.symmetric(float(eta))
        )
    if kind == "uniform_offdiag":
        if "e" not in tree:
            raise ConfigError("uniform_offdiag noise requires 'e'")
        if "eta" in tree:
            raise ConfigError("uniform_offdiag noise takes 'e', not 'eta'")
        e = tree["e"]
        if not isinstance(e, (list, tuple)) or not e:
            raise ConfigError("'e' must be a nonempty list of rates")
        return _field(
            tree,
            "noise",
            "e",
            lambda e: NoiseParams.uniform_offdiag(tuple(float(v) for v in e)),
        )
    raise ConfigError("noise kind must be 'symmetric' or 'uniform_offdiag'")


def parse_config(tree: dict) -> ExperimentConfig:
    """Validate a config tree and build an ExperimentConfig.

    Unknown keys anywhere in the tree are hard errors, and every
    malformed value is reported as a ConfigError naming its key.
    """
    tree = _require_mapping(tree, "<root>")
    _check_keys(
        tree,
        ("dataset", "model", "objective", "noise", "train", "seeds", "output"),
        "<root>",
    )

    if "dataset" not in tree:
        raise ConfigError("section 'dataset' is required")
    ds = _require_mapping(tree["dataset"], "dataset")
    source = ds.get("source")
    csv_path = None
    synthetic = None
    split_seed = 0
    if source == "csv":
        _check_keys(ds, ("source", "path", "split_seed"), "dataset")
        if "path" not in ds:
            raise ConfigError("csv datasets require 'path'")
        csv_path = str(ds["path"])
        split_seed = _field(ds, "dataset", "split_seed", int, 0)
        try:
            with open(csv_path, "r", encoding="utf-8"):
                pass
        except (OSError, ValueError) as err:
            raise ConfigError(f"dataset path is not readable: {err}") from None
    elif source == "synthetic":
        _check_keys(
            ds,
            ("source", "k", "n", "d", "class_separation", "split_seed"),
            "dataset",
        )
        synthetic = {
            "k": _field(ds, "dataset", "k", int, 2),
            "n": _field(ds, "dataset", "n", int, 600),
            "d": _field(ds, "dataset", "d", int, 10),
            "class_separation": _field(
                ds, "dataset", "class_separation", float, 4.0
            ),
        }
        split_seed = _field(ds, "dataset", "split_seed", int, 0)
    else:
        raise ConfigError("dataset source must be 'csv' or 'synthetic'")

    model_tree = _require_mapping(tree.get("model", {}), "model")
    _check_keys(model_tree, ("hidden", "activation", "head"), "model")
    if not isinstance(model_tree.get("hidden", []), (list, tuple)):
        raise ConfigError("'hidden' must be a list of layer widths")
    # MlpSpec's own checks, with stand-in input and output widths
    hidden = _field(
        model_tree, "model", "hidden",
        lambda h: MlpSpec((1, *_int_tuple(h), 2)).layer_sizes[1:-1], [32],
    )
    activation = _field(
        model_tree, "model", "activation",
        lambda a: MlpSpec((1, 2), str(a)).activation, "relu",
    )
    # ObjectiveConfig's own checks, with a stand-in divergence
    head = _field(
        model_tree, "model", "head",
        lambda h: ObjectiveConfig(DIVERGENCE_IDS[0], head=str(h)).head, "simplex",
    )

    if "objective" not in tree:
        raise ConfigError("section 'objective' is required")
    obj = _require_mapping(tree["objective"], "objective")
    _check_keys(obj, ("divergence", "correction"), "objective")
    if "divergence" not in obj:
        raise ConfigError("objective requires 'divergence'")
    divergence = _field(
        obj, "objective", "divergence", lambda d: ObjectiveConfig(str(d)).divergence
    )
    corrections = _field(obj, "objective", "correction", _modes, "none")

    noise = _parse_noise(tree.get("noise"))

    train_tree = _require_mapping(tree.get("train", {}), "train")
    _check_keys(train_tree, ("epochs", "batch_size", "lr0", "momentum"), "train")
    train_config = TrainConfig(
        epochs=_train_field(train_tree, "epochs", int, 100),
        batch_size=_train_field(train_tree, "batch_size", int, 32),
        lr0=_train_field(train_tree, "lr0", float, 0.02),
        momentum=_train_field(train_tree, "momentum", float, 0.9),
    )

    if not isinstance(tree.get("seeds", []), (list, tuple)):
        raise ConfigError("'seeds' must be a list of integers")
    seeds = _field(tree, None, "seeds", _int_tuple, [0])

    out_tree = _require_mapping(tree.get("output", {}), "output")
    _check_keys(out_tree, ("path", "format"), "output")
    out_path = out_tree.get("path")
    out_format = _field(out_tree, "output", "format", _out_format, "table")

    try:
        return ExperimentConfig(
            source=source,
            csv_path=csv_path,
            synthetic=synthetic,
            split_seed=split_seed,
            divergence=divergence,
            corrections=corrections,
            noise=noise,
            hidden=hidden,
            activation=activation,
            head=head,
            train=train_config,
            seeds=seeds,
            out_path=str(out_path) if out_path is not None else None,
            out_format=out_format,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file into a validated ExperimentConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from None
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


def _load_splits(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if cfg.source == "csv":
        return load_csv(cfg.csv_path, seed=cfg.split_seed)
    ds, _ = make_synthetic(seed=cfg.split_seed, **cfg.synthetic)
    return split_dataset(ds, seed=cfg.split_seed)


def _mlp_spec(cfg: ExperimentConfig, train_ds: LabeledDataset) -> MlpSpec:
    return MlpSpec(
        layer_sizes=(train_ds.d, *cfg.hidden, train_ds.k),
        activation=cfg.activation,
        head=cfg.head,
        divergence=cfg.divergence if cfg.head == "raw_t" else None,
    )


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run the experiment protocol and return one record per (seed, mode).

    Per seed: corrupt the training split (the test split is never
    corrupted), train the clean baseline and one network per distinct
    training objective, and evaluate every correction mode on the clean
    test split.  Posterior correction acts only at evaluation, so the
    `none` and `posterior` modes share one noisy training.  Every seed's
    networks train in one lockstep call, with no per-epoch metrics.  The
    wall time of each record is that call's time divided by the number of
    seeds, plus the record's own evaluation.  Identical configs and seeds
    give identical records apart from wall time.
    """
    train_ds, test_ds = _load_splits(cfg)
    spec = _mlp_spec(cfg, train_ds)
    plain = ObjectiveConfig(cfg.divergence, "none", None, cfg.head)
    noise_desc = describe_noise(cfg.noise)
    # only the objective correction changes the gradient
    train_mode = {
        mode: "objective" if mode == "objective" else "none"
        for mode in cfg.corrections
    }
    noisy_modes = []  # distinct training modes, in order of first use
    if cfg.noise is not None:
        noisy_modes = list(dict.fromkeys(train_mode.values()))
    noisy_cfgs = [
        ObjectiveConfig(cfg.divergence, t, cfg.noise, cfg.head) for t in noisy_modes
    ]
    members = []  # per seed: the clean baseline, then each noisy mode
    for seed in cfg.seeds:
        model0 = init(spec, seed=seed)
        tc = replace(cfg.train, seed=seed)
        members.append((model0, train_ds, plain, tc))
        if cfg.noise is not None:
            noisy_train = corrupt(train_ds, cfg.noise.to_matrix(train_ds.k), seed=seed)
            members += [(model0, noisy_train, c, tc) for c in noisy_cfgs]
    t0 = time.perf_counter()
    trained = _train_members(members)
    train_wall = (time.perf_counter() - t0) / len(cfg.seeds)
    per_seed = 1 + len(noisy_modes)
    records = []
    for i, seed in enumerate(cfg.seeds):
        clean_model, *noisy = trained[i * per_seed : (i + 1) * per_seed]
        noisy_models = dict(zip(noisy_modes, noisy))
        t0 = time.perf_counter()
        clean_acc, clean_obj = evaluate(clean_model, test_ds, plain)
        clean_wall = train_wall + time.perf_counter() - t0
        for mode in cfg.corrections:
            if cfg.noise is None:
                acc, obj = clean_acc, clean_obj
                wall = clean_wall
            else:
                t0 = time.perf_counter()
                m = noisy_models[train_mode[mode]]
                ocfg = ObjectiveConfig(cfg.divergence, mode, cfg.noise, cfg.head)
                acc, obj = evaluate(m, test_ds, ocfg)
                wall = train_wall + time.perf_counter() - t0
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
    raise ValueError("format must be csv, json, or table")


def parse_report(text: str, format: str) -> list[ResultRecord]:
    """Read records back from report output (csv or json only).

    A malformed record raises ValueError naming its 1-based position.
    """
    records = []
    if format == "csv":
        lines = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
        ]
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != list(RECORD_COLUMNS):
            raise ValueError("unrecognized record csv header")
        for i, row in enumerate(reader, start=1):
            if len(row) != len(RECORD_COLUMNS):
                raise ValueError(
                    f"record {i}: expected {len(RECORD_COLUMNS)} fields, "
                    f"got {len(row)}"
                )
            cells = zip(_RECORD_TYPES.values(), row)
            try:
                record = ResultRecord(*(read(c) for (read, _), c in cells))
            except ValueError as err:
                raise ValueError(f"record {i}: {err}") from None
            records.append(record)
        return records
    if format == "json":
        payload = json.loads(text)
        rows = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(rows, list):
            raise ValueError("expected a JSON object with a 'records' list")
        for i, row in enumerate(rows, start=1):
            if not isinstance(row, dict) or sorted(row) != sorted(RECORD_COLUMNS):
                raise ValueError(
                    f"record {i}: expected an object with the keys "
                    + ", ".join(RECORD_COLUMNS)
                )
            mistyped = [
                c
                for c, (_, types) in _RECORD_TYPES.items()
                if not isinstance(row[c], types) or isinstance(row[c], bool)
            ]
            if mistyped:
                raise ValueError(f"record {i}: mistyped {', '.join(mistyped)}")
            try:
                record = ResultRecord(**row)
            except ValueError as err:
                raise ValueError(f"record {i}: {err}") from None
            records.append(record)
        return records
    raise ValueError("only csv and json reports can be parsed back")


# ---------------------------------------------------------------------------
# command line


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _fail_write(path, err: OSError) -> None:
    _fail(f"cannot write {path}: {err.strerror or err}")


def _check_writable(path) -> None:
    """Fail before a long run if path cannot be opened for writing.

    An existing file keeps its contents, and a file the check creates is
    removed again, so a run that fails later leaves no trace at path.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as err:
        _fail_write(path, err)
    if not existed:
        os.remove(path)


def _config_from_flag(config_path) -> ExperimentConfig:
    if config_path is None:
        _fail("--config is required for this command")
    try:
        return load_config(config_path)
    except ConfigError as err:
        _fail(str(err))


@click.group()
def main():
    """Posterior-maximization training under label noise."""


@main.command(name="corrupt")
@click.option("--config", "config_path", type=click.Path(), required=False)
@click.option("--seed", type=int, default=None, help="Override the run seed.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def corrupt_cmd(config_path, seed, out_path):
    """Corrupt a dataset's labels and write the result as CSV."""
    cfg = _config_from_flag(config_path)
    if cfg.noise is None:
        _fail("corrupt requires a noise section in the config")
    run_seed = cfg.seeds[0] if seed is None else seed
    try:
        if cfg.source == "csv":
            features, labels = _parse_csv_rows(cfg.csv_path)
            k = int(labels.max()) + 1
            ds = LabeledDataset(features, labels, k)
        else:
            ds, _ = make_synthetic(seed=cfg.split_seed, **cfg.synthetic)
        noisy = corrupt(ds, cfg.noise.to_matrix(ds.k), seed=run_seed)
    except (ConfigError, ValueError) as err:
        _fail(str(err))
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for x, y in zip(noisy.features, noisy.labels):
                fh.write(",".join(repr(float(v)) for v in x) + f",{int(y)}\n")
    except OSError as err:
        _fail_write(out_path, err)
    click.echo(f"wrote {noisy.n} rows to {out_path}")


@main.command(name="train")
@click.option("--config", "config_path", type=click.Path(), required=False)
@click.option("--seed", type=int, default=None, help="Override the run seed.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def train_cmd(config_path, seed, out_path):
    """Train one model (first correction mode) and save it as JSON."""
    cfg = _config_from_flag(config_path)
    run_seed = cfg.seeds[0] if seed is None else seed
    _check_writable(out_path)
    try:
        train_ds, test_ds = _load_splits(cfg)
        spec = _mlp_spec(cfg, train_ds)
        mode = cfg.corrections[0]
        ocfg = ObjectiveConfig(cfg.divergence, mode, cfg.noise, cfg.head)
        if cfg.noise is not None:
            train_ds = corrupt(train_ds, cfg.noise.to_matrix(train_ds.k), run_seed)
        model0 = init(spec, seed=run_seed)
        model, _ = train(model0, train_ds, ocfg, replace(cfg.train, seed=run_seed))
        acc, obj = evaluate(model, test_ds, ocfg)
    except (ConfigError, ValueError, RuntimeError) as err:
        _fail(str(err))
    try:
        save_model(model, out_path)
    except OSError as err:
        _fail_write(out_path, err)
    click.echo(
        f"seed={run_seed} correction={mode} "
        f"test_accuracy={acc:.4f} objective={obj:.6f}"
    )


@main.command(name="eval")
@click.option("--config", "config_path", type=click.Path(), required=False)
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option(
    "--format",
    "out_format",
    type=click.Choice(["json", "table"]),
    default="table",
)
def eval_cmd(config_path, model_path, out_format):
    """Evaluate a saved model on the config's clean test split."""
    cfg = _config_from_flag(config_path)
    try:
        model = load_model(model_path)
    except OSError as err:
        _fail(f"cannot read model: {err}")
    except ValueError as err:
        _fail(str(err))
    try:
        _, test_ds = _load_splits(cfg)
        ocfg = ObjectiveConfig(
            cfg.divergence, cfg.corrections[0], cfg.noise, cfg.head
        )
        acc, obj = evaluate(model, test_ds, ocfg)
    except (ConfigError, ValueError, RuntimeError) as err:
        _fail(str(err))
    if out_format == "json":
        click.echo(json.dumps({"test_accuracy": acc, "objective": obj}))
    else:
        click.echo(f"test_accuracy={acc:.4f} objective={obj:.6f}")


@main.command(name="verify")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(), default=None)
def verify_cmd(seed, out_path):
    """Check the library's core identities on fresh random trials."""
    if seed < 0:
        _fail(f"--seed must be a non-negative integer, got {seed}")
    if out_path is not None:
        _check_writable(out_path)
    try:
        reports = verify_theorems(seed, report_path=out_path)
    except OSError as err:
        _fail_write(out_path, err)
    width = max(len(r.theorem_id) for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        click.echo(
            f"{r.theorem_id.ljust(width)}  trials={r.trials:<6d} "
            f"max_error={r.max_error:.3e}  threshold={r.threshold:.3e}  {status}"
        )
    if not all(r.passed for r in reports):
        click.echo("verification failed", err=True)
        sys.exit(2)
    click.echo("all checks passed")


@main.command(name="sweep")
@click.option("--config", "config_path", type=click.Path(), required=False)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option(
    "--format",
    "out_format",
    type=click.Choice(["csv", "json", "table"]),
    default=None,
)
def sweep_cmd(config_path, out_path, out_format):
    """Run the full seeds x corrections experiment and report results."""
    cfg = _config_from_flag(config_path)
    dest = out_path or cfg.out_path
    if dest is not None:
        _check_writable(dest)
    try:
        records = run_experiment(cfg)
    except (ConfigError, ValueError, RuntimeError) as err:
        _fail(str(err))
    fmt = out_format or cfg.out_format
    text = report(records, format=fmt)
    if dest is not None:
        try:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            _fail_write(dest, err)
        click.echo(f"wrote {len(records)} records to {dest}")
        if fmt != "table":
            click.echo(report(records, format="table"), nl=False)
    else:
        click.echo(text, nl=False)


@main.command(name="report")
@click.argument("in_path", type=click.Path())
@click.option(
    "--format",
    "out_format",
    type=click.Choice(["csv", "json", "table"]),
    default="table",
)
def report_cmd(in_path, out_format):
    """Reformat a saved records file (csv or json input)."""
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        _fail(f"cannot read records: {err}")
    in_format = "json" if text.lstrip().startswith("{") else "csv"
    try:
        records = parse_report(text, in_format)
        out = report(records, format=out_format)
    except ValueError as err:
        _fail(f"invalid records file: {err}")
    click.echo(out, nl=False)


if __name__ == "__main__":
    main()
