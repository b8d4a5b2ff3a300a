"""Dataset loading, experiment protocol, reporting, and the CLI surface."""

import contextlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import postmax
from postmax.cli import (
    _CONFIG,
    RECORD_COLUMNS,
    ConfigError,
    ResultRecord,
    _csv_dataset,
    _run_terms,
    _sample_synthetic,
    describe_noise,
    load_config,
    load_csv,
    make_synthetic,
    parse_config,
    parse_report,
    report,
    run_experiment,
    split_dataset,
    summarize,
)
from postmax.commands import main
from postmax.divergence import DIVERGENCE_IDS
from postmax.model import SERIAL_VERSION, MlpSpec, init, load_model, save_model, train
from postmax.noise import LabeledDataset, NoiseParams, corrupt
from postmax.objective import ObjectiveConfig
from postmax.posterior import accuracy, predict


def write_csv(path, features, labels, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for x, y in zip(features, labels):
            fh.write(",".join(repr(float(v)) for v in x) + f",{int(y)}\n")


# six data rows after a header; line 4 holds the label to test
SIX_ROWS = "x,y\n0.5,0\n1.5,1\n2.5,{label}\n3.5,0\n4.5,1\n5.5,0\n"


@pytest.fixture
def csv_569(tmp_path):
    rng = np.random.default_rng(7)
    features = rng.normal(size=(569, 30))
    labels = rng.integers(0, 2, size=569)
    path = tmp_path / "data.csv"
    write_csv(path, features, labels)
    return path, features, labels


class TestLoadCsv:
    def test_split_sizes(self, csv_569):
        path, _, _ = csv_569
        train, test = load_csv(path, seed=0)
        assert train.n == 455
        assert test.n == 114
        assert train.k == 2 and test.k == 2
        assert train.d == 30

    def test_same_seed_same_split(self, csv_569):
        path, _, _ = csv_569
        a_train, a_test = load_csv(path, seed=3)
        b_train, b_test = load_csv(path, seed=3)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.features, b_test.features)

    def test_different_seed_different_split(self, csv_569):
        path, _, _ = csv_569
        a, _ = load_csv(path, seed=0)
        b, _ = load_csv(path, seed=1)
        assert not np.array_equal(a.labels, b.labels)

    def test_header_line_skipped(self, tmp_path, csv_569):
        path, features, labels = csv_569
        with_header = tmp_path / "with_header.csv"
        cols = ",".join(f"f{i}" for i in range(30)) + ",label"
        write_csv(with_header, features, labels, header=cols)
        a, _ = load_csv(path, seed=0)
        b, _ = load_csv(with_header, seed=0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_standardization_uses_train_stats_only(self, csv_569):
        path, features, labels = csv_569
        train, test = load_csv(path, seed=0)
        assert np.allclose(train.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(train.features.std(axis=0), 1.0, atol=1e-12)
        # Recover the split and standardize independently.
        n_test = round(0.2 * 569)
        perm = np.random.default_rng(0).permutation(569)
        train_idx, test_idx = perm[n_test:], perm[:n_test]
        mean = features[train_idx].mean(axis=0)
        std = features[train_idx].std(axis=0)
        expected_test = (features[test_idx] - mean) / std
        assert np.allclose(test.features, expected_test, atol=1e-12)
        assert np.array_equal(test.labels, labels[test_idx])
        # Test columns are not re-centered on their own statistics.
        assert not np.allclose(test.features.mean(axis=0), 0.0, atol=1e-3)

    def test_constant_column_left_unscaled(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(50, 3))
        features[:, 1] = 2.5
        path = tmp_path / "const.csv"
        write_csv(path, features, rng.integers(0, 2, size=50))
        train, _ = load_csv(path, seed=0)
        assert np.allclose(train.features[:, 1], 0.0)

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        headless = SIX_ROWS.split("\n", 1)[1].format(label=1)
        path.write_bytes(b"\xef\xbb\xbf" + headless.encode())
        train, test = load_csv(path)
        assert train.n + test.n == 6

    def test_reader_peak_stays_inside_the_features_term(self, tmp_path):
        # the run budget counts a CSV's features as 4 x n x d floats; a
        # reader that held each row as a Python list peaked near 7 x n x d
        n, d = 20000, 10
        rng = np.random.default_rng(17)
        features, labels = rng.normal(size=(n, d)), rng.integers(0, 3, size=n)
        path = tmp_path / "wide.csv"
        write_csv(path, features, labels)
        tree = config_tree(dataset={"source": "csv", "path": str(path)})
        features_term = _run_terms(parse_config(tree), n, d, 3)["features"]
        tracemalloc.start()
        try:
            ds = _csv_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)
        assert peak <= 8 * features_term == 8 * 4 * n * d

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_csv(path)

    def test_header_only_in_first_line(self, tmp_path):
        path = tmp_path / "late_header.csv"
        path.write_text("1.0,2.0,0\na,b,label\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,3.0,1\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,0.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        # float() parses these, and one such cell would turn its whole
        # column non-finite once the training split is standardized
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0,0\n1.0,{cell},1\n3.0,4.0,0\n")
        with pytest.raises(ConfigError, match="line 2: non-finite value"):
            load_csv(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,-1\n")
        with pytest.raises(ConfigError, match="label"):
            load_csv(path)

    def test_single_row_rejected(self, tmp_path):
        # one row holds one class, so the class rule rejects it first
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0,0\n")
        with pytest.raises(ConfigError, match="two classes"):
            load_csv(path)

    def test_two_rows_rejected_by_the_split(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        with pytest.raises(ConfigError, match="split"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["6", "1e6", "1e30"])
    def test_label_at_or_past_the_row_count_rejected(self, tmp_path, label):
        # K = largest label + 1 may not exceed the six data rows
        path = tmp_path / "big.csv"
        path.write_text(SIX_ROWS.format(label=label))
        with pytest.raises(ConfigError, match=f"line 4: label {label} makes more"):
            load_csv(path)

    def test_class_maximum(self, tmp_path):
        # K may reach the row count and has no bound of its own: the
        # memory of a run on the file is the run budget's to judge
        path = tmp_path / "k.csv"
        rows = "0.5,0\n" * 1000
        path.write_text(rows + "0.5,1000\n")
        assert load_csv(path)[0].k == 1001
        path.write_text(rows + "0.5,1001\n")
        with pytest.raises(
            ConfigError, match="line 1001: label 1001 makes more classes than the 1001"
        ):
            load_csv(path)

    def test_label_below_the_row_count_accepted(self, tmp_path):
        path = tmp_path / "k6.csv"
        path.write_text(SIX_ROWS.format(label=5))
        train, test = load_csv(path)
        assert train.k == test.k == 6

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "mono.csv"
        rows = "".join(f"{i}.0,0\n" for i in range(20))
        path.write_text(rows)
        with pytest.raises(ConfigError, match="two classes"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="no data rows"):
            load_csv(path)


class TestMakeSynthetic:
    def test_balanced_counts(self):
        ds, _ = make_synthetic(k=4, n=40, d=6, class_separation=3.0, seed=0)
        assert np.bincount(ds.labels).tolist() == [10, 10, 10, 10]

    def test_remainder_spread_over_first_classes(self):
        ds, _ = make_synthetic(k=3, n=11, d=4, class_separation=3.0, seed=0)
        assert sorted(np.bincount(ds.labels).tolist()) == [3, 4, 4]

    def test_posterior_rows_on_simplex(self):
        _, post = make_synthetic(k=3, n=200, d=5, class_separation=2.0, seed=1)
        assert np.all(post >= 0.0)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_separation_posterior_is_uniform(self):
        ds, post = make_synthetic(k=3, n=300, d=4, class_separation=0.0, seed=2)
        assert np.allclose(post, 1.0 / 3.0, atol=1e-12)
        # Ties resolve to class 0, so accuracy is the class-0 share.
        acc = accuracy(predict(post), ds.labels)
        assert acc == pytest.approx(1.0 / 3.0)

    def test_wide_separation_bayes_accuracy(self):
        ds, post = make_synthetic(k=2, n=2000, d=2, class_separation=6.0, seed=3)
        assert accuracy(predict(post), ds.labels) >= 0.99

    def test_mean_spacing_matches_separation(self):
        sep = 5.0
        ds, _ = make_synthetic(k=3, n=60_000, d=4, class_separation=sep, seed=4)
        means = np.stack(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        )
        for i in range(3):
            for j in range(i + 1, 3):
                gap = float(np.linalg.norm(means[i] - means[j]))
                assert gap == pytest.approx(sep, abs=0.05)

    def test_posterior_is_calibrated(self):
        # Bin samples by stated class-0 probability; the empirical
        # frequency of label 0 in each bin must track the stated value.
        ds, post = make_synthetic(k=2, n=50_000, d=3, class_separation=2.0, seed=5)
        for lo in np.arange(0.1, 0.9, 0.1):
            mask = (post[:, 0] >= lo) & (post[:, 0] < lo + 0.1)
            assert mask.sum() > 200
            freq = float((ds.labels[mask] == 0).mean())
            stated = float(post[mask, 0].mean())
            assert freq == pytest.approx(stated, abs=0.04)

    @pytest.mark.parametrize(
        "k, n, d, seed", [(2, 1000, 10, 0), (10, 5000, 100, 1)], ids=["desk", "wide"]
    )
    def test_posterior_equals_broadcast_formula(self, k, n, d, seed):
        ds, post = make_synthetic(k=k, n=n, d=d, class_separation=4.0, seed=seed)
        # the generator's draws, replayed to recover the class means
        rng = np.random.default_rng(seed)
        u, s, _ = np.linalg.svd(np.eye(k) - 1.0 / k)
        frame, _ = np.linalg.qr(rng.normal(size=(d, k - 1)))
        means = (4.0 / np.sqrt(2.0)) * (u[:, : k - 1] * s[: k - 1]) @ frame.T
        counts = np.bincount(ds.labels, minlength=k)
        labels = np.repeat(np.arange(k), counts)
        features = means[labels] + rng.normal(size=(n, d))
        np.testing.assert_array_equal(ds.features, features[rng.permutation(n)])
        # the (n, k, d) difference the per-class loop replaces
        sq = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        logits = -0.5 * sq + np.log(counts / n)
        logits -= logits.max(axis=1, keepdims=True)
        want = np.exp(logits)
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(post, want)

    @pytest.mark.parametrize(
        "k, n, d, seed", [(2, 1000, 10, 0), (10, 5000, 100, 1)], ids=["desk", "wide"]
    )
    def test_sampler_draws_the_same_dataset(self, k, n, d, seed):
        ds, _ = make_synthetic(k=k, n=n, d=d, class_separation=4.0, seed=seed)
        sampled, means, counts = _sample_synthetic(k, n, d, 4.0, seed)
        assert sampled.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(sampled.labels, ds.labels) and sampled.k == k
        assert means.shape == (k, d)
        assert counts.tolist() == np.bincount(ds.labels, minlength=k).tolist()

    @pytest.mark.parametrize("k, n, d, seed", [(3, 20001, 40, 2), (10, 2**14, 64, 3)])
    def test_in_place_draw_keeps_the_bits_of_the_broadcast_sum(self, k, n, d, seed):
        # each class's mean is added to its rows of the normal draw in
        # place, which holds at most two n x d arrays at once, where the
        # sum means[labels] + normal held three
        tracemalloc.start()
        try:
            ds, means, counts = _sample_synthetic(k, n, d, 4.0, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rng = np.random.default_rng(seed)
        rng.normal(size=(d, k - 1))  # the frame's draw
        normal = rng.normal(size=(n, d))
        order = rng.permutation(n)
        summed = means[np.repeat(np.arange(k), counts)] + normal
        assert ds.features.tobytes() == summed[order].tobytes()
        assert peak < 2.5 * 8 * n * d

    def test_deterministic(self):
        a, pa = make_synthetic(k=2, n=50, d=3, class_separation=1.0, seed=9)
        b, pb = make_synthetic(k=2, n=50, d=3, class_separation=1.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(pa, pb)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_synthetic(k=1, n=10, d=2, class_separation=1.0, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic(k=3, n=2, d=4, class_separation=1.0, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic(k=2, n=10, d=0, class_separation=1.0, seed=0)
        with pytest.raises(ConfigError, match="dimensions"):
            make_synthetic(k=4, n=10, d=2, class_separation=1.0, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic(k=2, n=10, d=2, class_separation=-1.0, seed=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                make_synthetic(k=2, n=10, d=2, class_separation=bad, seed=0)


class TestSplitDataset:
    def test_sizes_and_provenance(self):
        ds, _ = make_synthetic(k=2, n=100, d=3, class_separation=2.0, seed=0)
        train, test = split_dataset(ds, seed=0)
        assert train.n == 80 and test.n == 20
        assert train.provenance == "clean" and test.provenance == "clean"

    def test_partition_is_exact(self):
        ds, _ = make_synthetic(k=2, n=100, d=3, class_separation=2.0, seed=0)
        train, test = split_dataset(ds, seed=4)
        merged = np.concatenate([train.features, test.features])
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(ds.features, axis=0)
        )

    @pytest.mark.parametrize("k, n, d", [(10, 20000, 50), (2, 20000, 50)])
    def test_split_holds_one_copy_of_the_rows(self, k, n, d):
        # each split's indexed rows are read-only, so the dataset keeps
        # them: about n x d new floats, where a copy of each made 1.65
        ds, _, _ = _sample_synthetic(k, n, d, 4.0, seed=1)
        tracemalloc.start()
        try:
            train, test = split_dataset(ds, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        perm = np.random.default_rng(3).permutation(n)
        n_test = int(round(0.2 * n))
        for part, idx in ((train, perm[n_test:]), (test, perm[:n_test])):
            assert part.features.tobytes() == ds.features[idx].tobytes()
            assert np.array_equal(part.labels, ds.labels[idx])
        assert peak < 1.1 * 8 * n * d


def config_tree(**overrides):
    tree = {
        "dataset": {
            "source": "synthetic",
            "k": 2,
            "n": 200,
            "d": 3,
            "class_separation": 4.0,
        },
        "model": {"hidden": [8], "activation": "relu", "head": "simplex"},
        "objective": {"divergence": "kl", "correction": "none"},
        "train": {"epochs": 10, "batch_size": 32},
        "seeds": [0],
    }
    tree.update(overrides)
    return tree


# Values a YAML document can hold: scalars (YAML's .inf and .nan among
# them), lists and mappings, with non-string keys.
yaml_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.text(max_size=6)
)
yaml_trees = st.recursive(
    yaml_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=4),
    max_leaves=12,
)

# scalars weighted up, so a leaf edit is mostly one wrong value
yaml_values = yaml_scalars | yaml_trees

CONFIG_KEYS = {
    "dataset": ("source", "k", "n", "d", "class_separation", "split_seed"),
    "model": ("hidden", "activation", "head"),
    "objective": ("divergence", "correction"),
    "noise": ("kind", "eta", "e"),
    "train": ("epochs", "batch_size", "lr0", "momentum"),
    "output": ("path", "format"),
}
# (section, key): key None replaces the whole section, section None is a
# root-level key
EDIT_PATHS = (
    [(None, "seeds")]
    + [(section, None) for section in CONFIG_KEYS]
    + [(section, key) for section, keys in CONFIG_KEYS.items() for key in keys]
)


@st.composite
def config_trees(draw):
    """A valid tree with one to three entries set to arbitrary values."""
    tree = config_tree(noise={"kind": "symmetric", "eta": 0.2})
    edits = draw(st.lists(st.sampled_from(EDIT_PATHS), min_size=1, max_size=3))
    for section, key in edits:
        value = draw(yaml_values)
        if section is None:
            tree[key] = value
        elif key is None:
            tree[section] = value
        elif isinstance(tree.get(section, {}), dict):
            tree[section] = {**tree.get(section, {}), key: value}
    return tree


class TestConfig:
    def test_defaults(self):
        cfg = parse_config(config_tree())
        assert cfg.hidden == (8,)
        assert cfg.corrections == ("none",)
        assert cfg.noise is None
        assert cfg.train.lr0 == 0.02
        assert cfg.out_format == "table"

    def test_correction_list_normalized(self):
        tree = config_tree(
            objective={"divergence": "gan", "correction": ["none", "objective"]},
            noise={"kind": "symmetric", "eta": 0.2},
        )
        cfg = parse_config(tree)
        assert cfg.corrections == ("none", "objective")
        assert cfg.noise.kind == "symmetric"

    @pytest.mark.parametrize(
        "section,bad",
        [
            ("dataset", {"source": "synthetic", "k": 2, "shape": 3}),
            ("model", {"hidden": [8], "depth": 2}),
            ("objective", {"divergence": "kl", "loss": "ce"}),
            ("noise", {"kind": "symmetric", "eta": 0.1, "rate": 0.1}),
            ("train", {"epochs": 5, "optimizer": "adam"}),
            ("output", {"path": "x.csv", "mode": "w"}),
            ("train", {"epochs": 5, "snapshot_every": 2}),
        ],
    )
    def test_unknown_keys_rejected_per_section(self, section, bad):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(config_tree(**{section: bad}))

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(config_tree(extras={}))

    def test_missing_sections(self):
        tree = config_tree()
        del tree["dataset"]
        with pytest.raises(ConfigError, match="dataset"):
            parse_config(tree)
        tree = config_tree()
        del tree["objective"]
        with pytest.raises(ConfigError, match="objective"):
            parse_config(tree)

    def test_csv_source_requires_existing_path(self, tmp_path):
        tree = config_tree(dataset={"source": "csv", "path": str(tmp_path / "nope.csv")})
        with pytest.raises(ConfigError, match="not readable"):
            parse_config(tree)

    def test_correction_without_noise_rejected(self):
        tree = config_tree(
            objective={"divergence": "kl", "correction": "objective"}
        )
        with pytest.raises(ConfigError, match="noise"):
            parse_config(tree)

    def test_seeds_validation(self):
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config(config_tree(seeds=[]))
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(config_tree(seeds=[1, 1]))

    def test_noise_kind_parameter_pairing(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config(config_tree(noise={"kind": "symmetric", "e": [0.1, 0.1]}))
        with pytest.raises(ConfigError, match="'e'"):
            parse_config(config_tree(noise={"kind": "uniform_offdiag", "eta": 0.1}))

    def test_train_invariants_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(config_tree(train={"epochs": -1, "batch_size": 8}))

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"noise": {"kind": "symmetric", "eta": "abc"}}, "noise.eta"),
            (
                {
                    "dataset": {
                        "source": "synthetic", "k": 2, "n": 200, "d": "abc",
                    }
                },
                "dataset.d",
            ),
            ({"noise": {"kind": "uniform_offdiag", "e": [0.6, 0.5]}}, "noise.e"),
            ({"seeds": ["a"]}, "seeds"),
            ({"model": {"hidden": [8], "activation": "sigmoid"}}, "model.activation"),
            ({"model": {"hidden": [0]}}, "model.hidden"),
            ({"model": {"hidden": [-4]}}, "model.hidden"),
            ({"model": {"hidden": [8], "head": "logits"}}, "model.head"),
            ({"objective": {"divergence": "bogus"}}, "objective.divergence"),
            (
                {"objective": {"divergence": "kl", "correction": ["none", "bogus"]}},
                "objective.correction",
            ),
            (
                {"objective": {"divergence": "kl", "correction": "bogus"}},
                "objective.correction",
            ),
            ({"train": {"epochs": -1}}, "train.epochs"),
            ({"train": {"batch_size": 0}}, "train.batch_size"),
            ({"train": {"lr0": 0}}, "train.lr0"),
            ({"train": {"momentum": 1.5}}, "train.momentum"),
            ({"output": {"format": "xml"}}, "output.format"),
            ({"train": {"epochs": 2.7}}, "train.epochs"),
            ({"model": {"hidden": [8.9]}}, "model.hidden"),
            ({"train": {"epochs": True}}, "train.epochs"),
            ({"train": {"lr0": True}}, "train.lr0"),
            ({"output": {"path": {"a": 1}}}, "output.path"),
            ({"dataset": {"source": "csv", "path": 5}}, "dataset.path"),
            ({"seeds": [-1]}, "seeds"),
            (
                {"dataset": {"source": "synthetic", "split_seed": -3}},
                "dataset.split_seed",
            ),
            (
                {"objective": {"divergence": "kl", "correction": ["none", "none"]}},
                "objective.correction",
            ),
            ({"dataset": {"source": "synthetic", "k": 1}}, "dataset.k"),
            (
                {"dataset": {"source": "synthetic", "class_separation": math.inf}},
                "dataset.class_separation",
            ),
            ({"dataset": {"source": "synthetic", "k": 5, "n": 3}}, "dataset.n"),
            ({"dataset": {"source": "synthetic", "k": 5, "d": 3}}, "dataset.d"),
            (
                {
                    "dataset": {"source": "synthetic", "k": 3},
                    "noise": {"kind": "uniform_offdiag", "e": [0.1, 0.1]},
                },
                "noise.e",
            ),
            ({"noise": {"kind": "symmetric", "eta": 0.7}}, "noise.eta"),
            (
                {
                    "dataset": {"source": "synthetic", "k": 3},
                    "noise": {"kind": "symmetric", "eta": 0.7},
                },
                "noise.eta",
            ),
            ({"seeds": []}, "seeds"),
            ({"seeds": [1, 1]}, "seeds"),
            (
                {"objective": {"divergence": "kl", "correction": []}},
                "objective.correction",
            ),
            (  # a correction other than none, and no noise section
                {"objective": {"divergence": "kl", "correction": ["none", "posterior"]}},
                "objective.correction",
            ),
            ({"train": {"lr0": math.inf}}, "train.lr0"),
        ],
    )
    def test_malformed_values_name_their_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(config_tree(**overrides))

    def test_integral_floats_and_exponent_strings_read_as_numbers(self):
        cfg = parse_config(
            config_tree(
                model={"hidden": [8.0]},
                train={"epochs": 2.0, "batch_size": 32, "lr0": "1e-3"},
            )
        )
        assert cfg.hidden == (8,) and cfg.train.epochs == 2
        assert cfg.train.lr0 == 1e-3

    @pytest.mark.parametrize("section,key", list(_CONFIG))
    def test_every_table_key_names_itself_in_errors(self, section, key):
        tree = config_tree(noise={"kind": "symmetric", "eta": 0.2})
        variant = _CONFIG[section, key][2]
        if section is None:
            target = tree
        elif variant is None:
            target = tree.setdefault(section, {})
        else:
            target = tree[section] = dict([variant])
        target[key] = {"a": 1}
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=f"^invalid '{name}': "):
            parse_config(tree)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(tree=yaml_trees | config_trees())
    def test_arbitrary_trees_raise_only_config_errors(self, tree):
        try:
            parse_config(tree)
        except ConfigError:
            pass

    def test_load_config_yaml_errors(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dataset: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(empty)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")


class TestRunExperiment:
    def test_clean_golden_run(self):
        cfg = parse_config(
            config_tree(train={"epochs": 30, "batch_size": 32}, seeds=[0, 1])
        )
        records = run_experiment(cfg)
        assert len(records) == 2
        for rec in records:
            assert rec.noise == "none"
            assert rec.noisy_test_accuracy == rec.clean_test_accuracy
            assert rec.clean_test_accuracy >= 0.95

    def test_zero_rate_correction_matches_no_correction(self):
        base = config_tree(
            objective={"divergence": "kl", "correction": ["none", "objective"]},
            noise={"kind": "uniform_offdiag", "e": [0.0, 0.0]},
            train={"epochs": 15, "batch_size": 32},
            seeds=[0, 1],
        )
        records = run_experiment(parse_config(base))
        by_mode = {}
        for rec in records:
            by_mode.setdefault(rec.correction, {})[rec.seed] = rec
        for seed in (0, 1):
            plain = by_mode["none"][seed]
            corrected = by_mode["objective"][seed]
            assert corrected.noisy_test_accuracy == plain.noisy_test_accuracy
            assert corrected.final_objective == plain.final_objective

    def test_clean_baseline_shared_across_modes(self):
        tree = config_tree(
            objective={"divergence": "kl", "correction": ["none", "posterior"]},
            noise={"kind": "symmetric", "eta": 0.2},
            train={"epochs": 10, "batch_size": 32},
            seeds=[0],
        )
        records = run_experiment(parse_config(tree))
        assert len(records) == 2
        assert (
            records[0].clean_test_accuracy == records[1].clean_test_accuracy
        )

    def test_deterministic_apart_from_wall_time(self):
        tree = config_tree(
            noise={"kind": "symmetric", "eta": 0.3},
            train={"epochs": 8, "batch_size": 16},
            seeds=[0, 1],
        )
        a = run_experiment(parse_config(tree))
        b = run_experiment(parse_config(tree))
        strip = lambda recs: [
            (r.seed, r.divergence, r.noise, r.correction,
             r.clean_test_accuracy, r.noisy_test_accuracy, r.final_objective)
            for r in recs
        ]
        assert strip(a) == strip(b)

    def test_one_noisy_training_for_none_and_posterior(self, monkeypatch):
        import postmax.cli as cli_mod

        calls = []
        real_train_members = cli_mod._train_members

        def counting_train_members(members):
            calls.append([cfg.correction for _, _, cfg, _ in members])
            return real_train_members(members)

        monkeypatch.setattr(cli_mod, "_train_members", counting_train_members)
        tree = config_tree(
            objective={
                "divergence": "kl",
                "correction": ["none", "objective", "posterior"],
            },
            noise={"kind": "uniform_offdiag", "e": [0.1, 0.3]},
            train={"epochs": 5, "batch_size": 32},
            seeds=[0, 1],
        )
        records = run_experiment(parse_config(tree))
        # one lockstep call per sweep, whose members are, per seed, the
        # clean baseline, one noisy training shared by none and posterior,
        # and one for the objective correction
        assert calls == [["none", "none", "objective"] * 2]
        assert sum(len(members) for members in calls) == 2 * (1 + 2)
        by_mode = {(r.seed, r.correction): r for r in records}
        for seed in (0, 1):
            assert (
                by_mode[seed, "none"].final_objective
                == by_mode[seed, "posterior"].final_objective
            )

    def test_one_scoring_pass_per_trained_network(self, monkeypatch):
        import postmax.model as model_mod

        rows = []
        real_score = model_mod._score

        def counting_score(spec, div, params, X, *args, **kwargs):
            rows.append(X.shape[0])
            return real_score(spec, div, params, X, *args, **kwargs)

        monkeypatch.setattr(model_mod, "_score", counting_score)
        tree = config_tree(
            objective={
                "divergence": "kl",
                "correction": ["none", "objective", "posterior"],
            },
            noise={"kind": "uniform_offdiag", "e": [0.1, 0.3]},
            train={"epochs": 2, "batch_size": 32},
            seeds=[0, 1],
        )
        run_experiment(parse_config(tree))
        # 160 training rows: each network's final check; 40 test rows: the
        # clean network, the noisy one for none and posterior together,
        # and the objective-corrected one, per seed
        assert Counter(rows) == {160: 2 * 3, 40: 2 * 3}

    @pytest.mark.parametrize(
        "model, objective, noise",
        [
            (
                {"hidden": [8], "activation": "relu", "head": "simplex"},
                {
                    "divergence": "kl",
                    "correction": ["none", "objective", "posterior"],
                },
                {"kind": "uniform_offdiag", "e": [0.1, 0.3]},
            ),
            (
                {"hidden": [8], "activation": "tanh", "head": "raw_t"},
                {"divergence": "gan", "correction": ["posterior", "objective"]},
                {"kind": "symmetric", "eta": 0.2},
            ),
            (
                {"hidden": [8], "activation": "relu", "head": "simplex"},
                {"divergence": "sl", "correction": "none"},
                None,
            ),
        ],
    )
    def test_multi_seed_sweep_equals_one_sweep_per_seed(
        self, model, objective, noise
    ):
        # every seed's networks share one lockstep call, yet each seed's
        # records are those of a sweep over that seed alone
        seeds = [3, 0, 1]
        tree = config_tree(
            model=model, objective=objective, noise=noise,
            train={"epochs": 4, "batch_size": 48}, seeds=seeds,
        )
        strip = lambda recs: [replace(r, wall_seconds=0.0) for r in recs]
        joint = run_experiment(parse_config(tree))
        alone = [
            r
            for seed in seeds
            for r in run_experiment(parse_config({**tree, "seeds": [seed]}))
        ]
        assert strip(joint) == strip(alone)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="accuracy"):
            ResultRecord(0, "kl", "none", "none", 1.2, 0.5, 0.0, 0.1)


class TestReport:
    def records(self):
        vals = [
            (0, "kl", "symmetric(eta=0.2)", "none", 0.97, 0.91, -1.1, 0.5),
            (1, "kl", "symmetric(eta=0.2)", "none", 0.95, 0.89, -1.2, 0.5),
            (0, "kl", "symmetric(eta=0.2)", "objective", 0.97, 0.94, -1.0, 0.6),
            (1, "kl", "symmetric(eta=0.2)", "objective", 0.95, 0.96, -1.05, 0.6),
        ]
        return [ResultRecord(*v) for v in vals]

    def test_summary_single_record_std_zero(self):
        rows = summarize([self.records()[0]])
        assert len(rows) == 1
        assert rows[0]["noisy_std"] == 0.0
        assert rows[0]["clean_std"] == 0.0
        assert rows[0]["runs"] == 1

    def test_summary_uses_sample_std(self):
        rows = summarize(self.records())
        none_row = [r for r in rows if r["correction"] == "none"][0]
        assert none_row["noisy_mean"] == pytest.approx(0.90)
        assert none_row["noisy_std"] == pytest.approx(
            np.std([0.91, 0.89], ddof=1)
        )

    def test_csv_json_csv_round_trip_lossless(self):
        recs = self.records() + [
            ResultRecord(2, "sl", "none", "none", 1 / 3, 2 / 3, -0.123456789, 0.7)
        ]
        csv_text = report(recs, format="csv")
        via_json = report(parse_report(csv_text, "csv"), format="json")
        back = parse_report(via_json, "json")
        assert report(back, format="csv") == csv_text
        assert any(r.clean_test_accuracy == 1 / 3 for r in back)

    def test_order_is_deterministic(self):
        recs = self.records()
        assert report(recs, "csv") == report(list(reversed(recs)), "csv")

    def test_table_layout(self):
        text = report(self.records(), format="table")
        for col in ("No Cor.", "O.F. Cor.", "P. Cor.", "No Noise"):
            assert col in text
        assert "kl" in text
        # Mode without records renders as a placeholder.
        assert "-" in text

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            report([], format="csv")
        with pytest.raises(ValueError, match="no records"):
            summarize([])

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            report(self.records(), format="xml")
        with pytest.raises(ValueError, match="csv and json"):
            parse_report("x", "table")

    def test_describe_noise(self):
        assert describe_noise(None) == "none"
        assert describe_noise(NoiseParams.symmetric(0.2)) == "symmetric(eta=0.2)"
        assert (
            describe_noise(NoiseParams.uniform_offdiag((0.1, 0.3)))
            == "uniform_offdiag(e=0.1,0.3)"
        )

    def test_pinned_bytes(self):
        # integer accuracies, as a JSON file may hold them, and a noise
        # string with a comma, which CSV must quote
        recs = [
            ResultRecord(
                1, "sl", "uniform_offdiag(e=0.1,0.3)", "posterior",
                0.8125, 2 / 3, -0.123456789012345, 1 / 3,
            ),
            ResultRecord(0, "gan", "none", "none", 1, 0, -2.5, 0.25),
        ]
        assert report(recs, "csv") == (
            "seed,divergence,noise,correction,clean_test_accuracy,"
            "noisy_test_accuracy,final_objective,wall_seconds\n"
            "0,gan,none,none,1,0,-2.5,0.25\n"
            '1,sl,"uniform_offdiag(e=0.1,0.3)",posterior,0.8125,'
            "0.6666666666666666,-0.123456789012345,0.3333333333333333\n"
            "# summary,gan,none,none,runs=1,noisy=0.0+-0.0,clean=1.0+-0.0\n"
            "# summary,sl,uniform_offdiag(e=0.1,0.3),posterior,runs=1,"
            "noisy=0.6666666666666666+-0.0,clean=0.8125+-0.0\n"
        )
        assert report(recs, "json") == """\
{
  "records": [
    {
      "seed": 0,
      "divergence": "gan",
      "noise": "none",
      "correction": "none",
      "clean_test_accuracy": 1,
      "noisy_test_accuracy": 0,
      "final_objective": -2.5,
      "wall_seconds": 0.25
    },
    {
      "seed": 1,
      "divergence": "sl",
      "noise": "uniform_offdiag(e=0.1,0.3)",
      "correction": "posterior",
      "clean_test_accuracy": 0.8125,
      "noisy_test_accuracy": 0.6666666666666666,
      "final_objective": -0.123456789012345,
      "wall_seconds": 0.3333333333333333
    }
  ],
  "summary": [
    {
      "divergence": "gan",
      "noise": "none",
      "correction": "none",
      "runs": 1,
      "noisy_mean": 0.0,
      "noisy_std": 0.0,
      "clean_mean": 1.0,
      "clean_std": 0.0
    },
    {
      "divergence": "sl",
      "noise": "uniform_offdiag(e=0.1,0.3)",
      "correction": "posterior",
      "runs": 1,
      "noisy_mean": 0.6666666666666666,
      "noisy_std": 0.0,
      "clean_mean": 0.8125,
      "clean_std": 0.0
    }
  ]
}
"""


@pytest.fixture
def cli_config(tmp_path):
    tree = config_tree(
        noise={"kind": "symmetric", "eta": 0.2},
        train={"epochs": 8, "batch_size": 32},
        output={"path": str(tmp_path / "records.csv"), "format": "csv"},
    )
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


RECORD_ROW = dict(
    zip(RECORD_COLUMNS, (0, "kl", "none", "none", 1.0, 1.0, 0.0, 0.0))
)


VERIFY_SEED_0_STDOUT = (
    "binary_objective_identity      trials=300    max_error=8.882e-16  "
    "threshold=1.000e-12  pass\n"
    "multiclass_objective_identity  trials=300    max_error=1.776e-15  "
    "threshold=1.000e-12  pass\n"
    "pointwise_optimum_consistency  trials=300    max_error=4.500e-08  "
    "threshold=1.000e-06  pass\n"
    "symmetric_argmax_invariance    trials=360000 max_error=0.000e+00  "
    "threshold=0.000e+00  pass\n"
    "correction_restores_argmax     trials=10008  max_error=0.000e+00  "
    "threshold=0.000e+00  pass\n"
    "posterior_gap_bound            trials=30000  max_error=5.000e-03  "
    "threshold=1.000e-02  pass\n"
    "first_order_bias_residual      trials=3000   max_error=2.500e-01  "
    "threshold=3.333e-01  pass\n"
    "all checks passed\n"
)


class TestCommandLine:
    def test_corrupt_writes_flipped_labels(self, tmp_path, cli_config):
        runner = CliRunner()
        out = tmp_path / "noisy.csv"
        result = runner.invoke(
            main, ["corrupt", "--config", str(cli_config), "--out", str(out)]
        )
        assert result.exit_code == 0
        ds, _ = make_synthetic(k=2, n=200, d=3, class_separation=4.0, seed=0)
        noisy = np.array(
            [int(float(line.rsplit(",", 1)[1])) for line in out.read_text().splitlines()]
        )
        flips = (noisy != ds.labels).mean()
        assert 0.1 < flips < 0.3

    @pytest.mark.parametrize("command", ["corrupt", "sweep"])
    @pytest.mark.parametrize(
        "noise, key",
        [
            ({"kind": "symmetric", "eta": math.nan}, "noise.eta"),
            ({"kind": "uniform_offdiag", "e": [0.1, math.nan]}, "noise.e"),
        ],
        ids=["eta", "e"],
    )
    def test_nan_noise_rate_exits_one(self, tmp_path, command, noise, key):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config_tree(noise=noise)))
        out = tmp_path / "out.csv"
        result = CliRunner().invoke(
            main, [command, "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: invalid '{key}': " in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_corrupt_reads_a_csv_source(self, tmp_path, csv_569):
        data, features, labels = csv_569
        noise = {"kind": "symmetric", "eta": 0.2}
        tree = config_tree(dataset={"source": "csv", "path": str(data)}, noise=noise)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(tree))
        out = tmp_path / "noisy.csv"
        result = CliRunner().invoke(
            main, ["corrupt", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = np.loadtxt(out, delimiter=",")
        # the file's own features, unstandardized, and every row
        assert np.array_equal(rows[:, :-1], features)
        clean = LabeledDataset(features, labels, 2)
        want = corrupt(clean, NoiseParams.symmetric(0.2).to_matrix(2), seed=0)
        assert np.array_equal(rows[:, -1], want.labels)

    @pytest.mark.parametrize("command", ["corrupt", "sweep"])
    @pytest.mark.parametrize("label", ["1e6", "1e30"])
    def test_csv_label_past_the_row_count_exits_one(self, tmp_path, command, label):
        data = tmp_path / "big.csv"
        data.write_text(SIX_ROWS.format(label=label))
        tree = config_tree(
            dataset={"source": "csv", "path": str(data)},
            noise={"kind": "symmetric", "eta": 0.2},
        )
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(tree))
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            result = CliRunner().invoke(
                main, [command, "--config", str(path), "--out", str(out)]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: {data}: line 4: label {label} ")
        assert "Traceback" not in result.output
        assert not out.exists()
        # nothing sized by the label: a 1e6-class output layer alone is 64 MB
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["corrupt", "sweep"])
    def test_csv_label_past_the_class_maximum_exits_one(self, tmp_path, command):
        # 600 KB: 100,000 rows, so K = 100,000 passes the row bound, and the
        # run budget refuses its K x K noise matrix, 160 GB, once the file
        # is read; the output layer and the step's workspaces would be
        # 100,000 wide
        data = tmp_path / "wide.csv"
        data.write_text("0.5,0\n" * 99_999 + "0.5,99999\n")
        tree = config_tree(
            dataset={"source": "csv", "path": str(data)},
            noise={"kind": "symmetric", "eta": 0.2},
        )
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(tree))
        out = tmp_path / "out.csv"
        result = CliRunner().invoke(
            main, [command, "--config", str(path), "--out", str(out)]
        )
        # the budget's error, so nothing sized by K was built
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        total = sum(_run_terms(parse_config(tree), 100_000, 1, 100_000).values())
        assert result.output == (
            f"error: the run would hold {total:,} floats, over MAX_RUN_FLOATS = "
            "268,435,456; its largest term is noise matrix, 20,000,000,000 floats\n"
        )
        assert not out.exists()

    def test_sweep_past_the_label_bound_exits_one(self, tmp_path, monkeypatch):
        import postmax.cli as cli_mod

        # 100,000 rows of K = 2 classes: a 560-seed, three-network sweep
        # would hold 1,680 networks' training labels and 560 seeds' epoch
        # orders, 3 x 2,240 x 100,000 indices counted, past the budget
        data = tmp_path / "classes.csv"
        data.write_text("".join(f"0.5,{i % 2}\n" for i in range(100_000)))
        tree = config_tree(
            dataset={"source": "csv", "path": str(data)},
            objective={
                "divergence": "kl", "correction": ["none", "objective", "posterior"]
            },
            noise={"kind": "symmetric", "eta": 0.2},
            seeds=list(range(560)),
        )
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(tree))
        out = tmp_path / "out.csv"
        called = []
        for name in ("corrupt", "init", "_train_members"):
            monkeypatch.setattr(
                cli_mod, name, lambda *a, name=name, **k: called.append(name)
            )
        result = CliRunner().invoke(
            main, ["sweep", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        total = sum(_run_terms(parse_config(tree), 100_000, 1, 2).values())
        assert result.output == (
            f"error: the run would hold {total:,} floats, over MAX_RUN_FLOATS = "
            "268,435,456; its largest term is training labels, 672,000,000 floats\n"
        )
        assert called == [] and not out.exists()

    def test_synthetic_sweep_past_the_label_bound_is_refused_undrawn(
        self, monkeypatch
    ):
        import postmax.cli as cli_mod
        import postmax.model as model_mod

        # 15 networks of 203 rows: with the budget one float below the
        # run's total the draw is refused, and at the total it is drawn
        cfg = parse_config(
            config_tree(
                dataset={"source": "synthetic", "k": 2, "n": 203, "d": 1},
                objective={
                    "divergence": "kl",
                    "correction": ["none", "objective", "posterior"],
                },
                noise={"kind": "symmetric", "eta": 0.2},
                seeds=[0, 1, 2, 3, 4],
            )
        )

        def drawn(*args, **kwargs):
            raise AssertionError("drew the synthetic data")

        monkeypatch.setattr(cli_mod, "_sample_synthetic", drawn)
        terms = _run_terms(cfg, 203, 1, 2)
        total = sum(terms.values())
        assert terms["training labels"] == 3 * (15 + 5) * 203
        monkeypatch.setattr(model_mod, "MAX_RUN_FLOATS", total - 1)
        with pytest.raises(ConfigError) as refused:
            run_experiment(cfg)
        assert str(refused.value).startswith(
            f"the run would hold {total:,} floats, "
            f"over MAX_RUN_FLOATS = {total - 1:,}; "
        )
        monkeypatch.setattr(model_mod, "MAX_RUN_FLOATS", total)
        with pytest.raises(AssertionError, match="drew"):
            run_experiment(cfg)

    def test_corrupt_seed_override_changes_output(self, tmp_path, cli_config):
        runner = CliRunner()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["corrupt", "--config", str(cli_config), "--out", str(a)])
        runner.invoke(
            main,
            ["corrupt", "--config", str(cli_config), "--seed", "5", "--out", str(b)],
        )
        assert a.read_text() != b.read_text()

    def test_train_then_eval(self, tmp_path, cli_config):
        runner = CliRunner()
        model_path = tmp_path / "model.json"
        trained = runner.invoke(
            main, ["train", "--config", str(cli_config), "--out", str(model_path)]
        )
        assert trained.exit_code == 0
        assert "test_accuracy=" in trained.output
        model = load_model(model_path)
        assert model.spec.layer_sizes == (3, 8, 2)
        evaluated = runner.invoke(
            main,
            [
                "eval",
                "--config",
                str(cli_config),
                "--model",
                str(model_path),
                "--format",
                "json",
            ],
        )
        assert evaluated.exit_code == 0
        payload = json.loads(evaluated.output)
        reported = float(trained.output.split("test_accuracy=")[1].split()[0])
        assert payload["test_accuracy"] == pytest.approx(reported, abs=1e-4)

    def test_train_writes_the_model_train_returns(self, tmp_path):
        # postmax train skips train()'s per-epoch metrics, not its bits
        tree = config_tree(
            objective={"divergence": "gan", "correction": ["objective", "none"]},
            noise={"kind": "uniform_offdiag", "e": [0.1, 0.3]},
            train={"epochs": 6, "batch_size": 24},
        )
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(tree))
        out = tmp_path / "model.json"
        argv = ["train", "--config", str(config), "--seed", "3", "--out", str(out)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output

        cfg = parse_config(tree)
        clean, _ = make_synthetic(seed=cfg.split_seed, **cfg.synthetic)
        train_ds, _ = split_dataset(clean, seed=cfg.split_seed)
        noisy = corrupt(train_ds, cfg.noise.to_matrix(2), seed=3)
        spec = MlpSpec((3, 8, 2), activation="relu", head="simplex")
        ocfg = ObjectiveConfig("gan", "objective", cfg.noise)
        model, _ = train(init(spec, seed=3), noisy, ocfg, replace(cfg.train, seed=3))
        reference = tmp_path / "reference.json"
        save_model(model, reference)
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [{"version": 1}, [1, 2], {"version": 1, "spec": [], "params": []}],
    )
    def test_eval_malformed_model_exits_one(self, tmp_path, cli_config, payload):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        result = CliRunner().invoke(
            main, ["eval", "--config", str(cli_config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"version": 1}', "malformed model file: missing key 'spec'"),
            ("hello", "model file is not JSON: Expecting value: line 1 column 1"),
        ],
        ids=["missing-key", "not-json"],
    )
    def test_eval_model_file_error_names_the_fault(
        self, tmp_path, cli_config, text, message
    ):
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        result = CliRunner().invoke(
            main, ["eval", "--config", str(cli_config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert f"error: {message}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(spec=[]), "'spec' must be an object, got list"),
            (
                lambda p: p["params"][0].update(W="x"),
                "'params[0].W' must be a list, got str",
            ),
            (lambda p: p.update(params=3), "'params' must be a list, got int"),
            (
                lambda p: p["params"][1].update(b=[[0.0], 1.0]),
                "params[1]'s W and b must hold numbers in nested lists of equal lengths",
            ),
            (
                lambda p: p["params"][0]["W"][0].__setitem__(0, "1.5"),
                "params[0]'s W and b must hold numbers in nested lists of equal lengths",
            ),
            (
                lambda p: p["params"][1]["b"].__setitem__(0, True),
                "params[1]'s W and b must hold numbers in nested lists of equal lengths",
            ),
        ],
        ids=[
            "list-spec", "string-W", "int-params", "ragged-b", "string-entry",
            "true-entry",
        ],
    )
    def test_eval_model_of_wrong_types_names_the_key(
        self, tmp_path, cli_config, edit, message
    ):
        model_path = tmp_path / "model.json"
        save_model(init(MlpSpec((3, 8, 2)), seed=0), model_path)
        payload = json.loads(model_path.read_text())
        edit(payload)
        model_path.write_text(json.dumps(payload))
        result = CliRunner().invoke(
            main, ["eval", "--config", str(cli_config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert f"error: malformed model file: {message}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "width, bad", [(2, 2.5), (1, True), (2, "2")], ids=["2.5", "true", "'2'"]
    )
    def test_eval_model_of_non_integer_width_exits_one(
        self, tmp_path, cli_config, width, bad
    ):
        # the file's parameters fit the width that int(bad) reads
        model_path = tmp_path / "model.json"
        save_model(init(MlpSpec((3, width, 2)), seed=0), model_path)
        payload = json.loads(model_path.read_text())
        payload["spec"]["layer_sizes"][1] = bad
        model_path.write_text(json.dumps(payload))
        result = CliRunner().invoke(
            main, ["eval", "--config", str(cli_config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: layer_sizes must be an integer, got {bad!r}" in result.output
        assert "Traceback" not in result.output

    def test_eval_class_count_mismatch_exits_one(self, tmp_path, cli_config):
        # a 3-output model on the config's 2-class data
        model_path = tmp_path / "model.json"
        save_model(init(MlpSpec((3, 8, 3)), seed=0), model_path)
        result = CliRunner().invoke(
            main, ["eval", "--config", str(cli_config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: dataset class count" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "model_spec, config_head",
        [
            (MlpSpec((3, 8, 2)), "raw_t"),
            (MlpSpec((3, 8, 2), head="raw_t", divergence="kl"), "simplex"),
        ],
        ids=["simplex-model", "raw_t-model"],
    )
    def test_eval_head_mismatch_exits_one(self, tmp_path, model_spec, config_head):
        # the model file names its head; a config naming another is an error
        model_path = tmp_path / "model.json"
        save_model(init(model_spec, seed=0), model_path)
        tree = config_tree(
            model={"hidden": [8], "activation": "relu", "head": config_head}
        )
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(tree))
        result = CliRunner().invoke(
            main, ["eval", "--config", str(config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            f"error: the model's head is {model_spec.head!r}, "
            f"but the config's model.head is {config_head!r}"
        )
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "where, message",
        [("missing.json", "No such file or directory"), (".", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_eval_unreadable_model_exits_one(
        self, tmp_path, cli_config, where, message
    ):
        model_path = tmp_path / where
        result = CliRunner().invoke(
            main, ["eval", "--config", str(cli_config), "--model", str(model_path)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: cannot read model: " in result.output
        assert message in result.output
        assert "Traceback" not in result.output

    def test_sweep_then_report(self, tmp_path, cli_config):
        runner = CliRunner()
        records_path = tmp_path / "records.csv"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--config",
                str(cli_config),
                "--out",
                str(records_path),
                "--format",
                "csv",
            ],
        )
        assert result.exit_code == 0
        records = parse_report(records_path.read_text(), "csv")
        assert len(records) == 1
        reported = runner.invoke(
            main, ["report", str(records_path), "--format", "json"]
        )
        assert reported.exit_code == 0
        payload = json.loads(reported.output)
        assert len(payload["records"]) == 1
        assert payload["summary"][0]["noisy_std"] == 0.0

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("a.json", json.dumps({"records": [1]}), "record 1"),
            ("b.json", json.dumps({"records": [{"seed": 0}]}), "record 1"),
            (
                "d.json",
                json.dumps({"records": [dict(zip(RECORD_COLUMNS, ["0"] * 8))]}),
                "record 1: mistyped seed, clean_test_accuracy",
            ),
            (
                "g.json",
                json.dumps(
                    {
                        "records": [
                            {**RECORD_ROW, "seed": True, "noisy_test_accuracy": False}
                        ]
                    }
                ),
                "record 1: mistyped seed, noisy_test_accuracy",
            ),
            (
                "c.csv",
                ",".join(RECORD_COLUMNS) + "\n0,kl\n",
                "record 1: expected 8 fields, got 2",
            ),
            (
                "e.json",
                json.dumps(
                    {"records": [RECORD_ROW, {**RECORD_ROW, "correction": "bogus"}]}
                ),
                "record 2: unknown correction 'bogus'",
            ),
            (
                "f.csv",
                ",".join(RECORD_COLUMNS) + "\n0,kl,none,none,1,1,0,0\n"
                "1,js,none,none,1,1,0,0\n",
                "record 2: unknown divergence 'js'",
            ),
            (
                "g.json",
                json.dumps(
                    {
                        "records": [
                            RECORD_ROW, {**RECORD_ROW, "final_objective": math.nan}
                        ]
                    }
                ),
                "record 2: final_objective must be finite, got nan",
            ),
            (
                "h.csv",
                ",".join(RECORD_COLUMNS) + "\n0,kl,none,none,0.9,0.9,0.5,-inf\n",
                "record 1: wall_seconds must be finite, got -inf",
            ),
        ],
        ids=[
            "json-non-object",
            "json-missing-fields",
            "json-mistyped",
            "json-bool",
            "csv-short",
            "json-unknown-correction",
            "csv-unknown-divergence",
            "json-nan-objective",
            "csv-infinite-wall",
        ],
    )
    def test_report_malformed_records_exit_one(self, tmp_path, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: invalid records file: {where}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_report_reads_records_after_a_byte_order_mark(self, tmp_path, out_format):
        records = TestReport().records()
        path = tmp_path / f"records.{out_format}"
        path.write_text(report(records, format=out_format), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        result = CliRunner().invoke(main, ["report", str(path), "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert result.output == report(records, format="csv")

    def test_report_reads_a_json_array_as_json(self, tmp_path):
        # the JSON reader's message, not the csv header's
        path = tmp_path / "records.json"
        path.write_text(" [1, 2]")
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 1
        assert result.output == (
            "error: invalid records file: "
            "expected a JSON object with a 'records' list\n"
        )

    def test_report_undecodable_records_exit_one(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(b"\xff\xfe" + ",".join(RECORD_COLUMNS).encode())
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: cannot read records: 'utf-8' codec can't decode" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["corrupt", "--config", "{config}"],
            ["train", "--config", "{config}"],
            ["sweep", "--config", "{config}"],
            ["verify"],
        ],
        ids=lambda args: args[0],
    )
    def test_unwritable_out_exits_one(self, tmp_path, cli_config, args, monkeypatch):
        # the path is checked before any data is loaded, trained or checked
        def never(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        for runner in (
            "postmax.cli.run_experiment",
            "postmax.model._train_members",
            "postmax.analysis.verify_theorems",
        ):
            monkeypatch.setattr(runner, never)
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(config=cli_config) for a in args] + ["--out", str(out)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}" in result.output
        assert "Traceback" not in result.output

    def test_corrupt_checks_out_before_it_loads_or_draws(
        self, tmp_path, cli_config, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("loaded or corrupted before --out was checked")

        for name in ("postmax.cli._dataset", "postmax.noise.corrupt"):
            monkeypatch.setattr(name, never)
        out = tmp_path / "missing" / "noisy.csv"
        argv = ["corrupt", "--config", str(cli_config), "--out", str(out)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot write {out}: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "args, runner",
        [
            (["train", "--config", "{config}"], "postmax.model._train_members"),
            (["sweep", "--config", "{config}"], "postmax.cli.run_experiment"),
            (["verify"], "postmax.analysis.verify_theorems"),
        ],
        ids=lambda v: v.rsplit(".", 1)[-1] if isinstance(v, str) else v[0],
    )
    def test_failed_run_leaves_out_untouched(
        self, tmp_path, cli_config, args, runner, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise RuntimeError("run failed")

        monkeypatch.setattr(runner, fail)
        existing, new = tmp_path / "existing.txt", tmp_path / "new.txt"
        existing.write_text("earlier results\n")
        for out in (existing, new):
            argv = [a.format(config=cli_config) for a in args] + ["--out", str(out)]
            result = CliRunner().invoke(main, argv)
            assert result.exit_code != 0
        assert existing.read_text() == "earlier results\n"
        assert not new.exists()

    def test_verify_passes(self):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--seed", "0"])
        assert result.exit_code == 0
        assert result.output.count("pass") >= 7
        assert "all checks passed" in result.output

    def test_verify_seed_0_stdout_is_pinned(self):
        # the reports' every printed digit, byte for byte
        result = CliRunner().invoke(main, ["verify", "--seed", "0"])
        assert result.exit_code == 0
        assert result.stdout == VERIFY_SEED_0_STDOUT

    def test_python_dash_m_postmax_runs_without_warnings(self):
        # the package's own __main__, so runpy finds no half-imported cli
        env = dict(os.environ)
        src = str(Path(postmax.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "postmax", "verify", "--seed", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "all checks passed" in done.stdout

    def test_diverging_training_prints_only_its_error(self, tmp_path):
        # the step's overflow reaches the finiteness guard, which names the
        # step; numpy prints no warning of its own on the way
        config = tmp_path / "config.yaml"
        train = {"epochs": 10, "batch_size": 32, "lr0": 1.0e9}
        config.write_text(yaml.safe_dump(config_tree(train=train)))
        env = dict(os.environ)
        src = str(Path(postmax.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "postmax", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == (
            "error: parameters became non-finite at epoch 3 step 19; "
            "lower lr0 or check the data\n"
        )

    def test_verify_negative_seed_exits_one(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran with a negative seed")

        monkeypatch.setattr("postmax.analysis.verify_theorems", never)
        result = CliRunner().invoke(main, ["verify", "--seed", "-1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: --seed must be a non-negative integer, got -1" in result.output
        assert "Traceback" not in result.output

    def test_verify_seed_past_the_largest_exits_one(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran with a seed past 2**128 - 1")

        monkeypatch.setattr("postmax.analysis.verify_theorems", never)
        result = CliRunner().invoke(main, ["verify", "--seed", str(2**128)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"error: --seed must be at most {2**128 - 1}, got {2**128}\n"
        )

    def test_verify_failure_exits_two(self, monkeypatch):
        from postmax.analysis import TheoremReport

        def fake_verify(seed, report_path=None):
            return [
                TheoremReport("binary_objective_identity", 10, 1.0, 1e-12, False)
            ]

        monkeypatch.setattr("postmax.analysis.verify_theorems", fake_verify)
        runner = CliRunner()
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_config_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(config_tree(mystery=1)))
        runner = CliRunner()
        result = runner.invoke(
            main, ["train", "--config", str(bad), "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 1
        assert "unknown key" in result.output

    def test_malformed_value_exits_one_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            yaml.safe_dump(config_tree(noise={"kind": "symmetric", "eta": "abc"}))
        )
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(bad)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: invalid 'noise.eta'" in result.output
        assert "Traceback" not in result.output

    def test_missing_config_exits_one(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["train", "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 1
        assert "--config" in result.output


# What a records field or a model entry may be set to: JSON's values,
# the numbers and names the files hold, and cells that are not numbers
file_values = yaml_values | st.sampled_from(
    [*DIVERGENCE_IDS, "none", "objective", "posterior", "nan", "-inf", "1e400",
     10**400, -1, 2**64, 0.5, "", '"', ",", "\n", "\ufeff"]
)


@st.composite
def records_texts(draw):
    """A records file: csv or JSON rows of RECORD_ROW with up to three
    fields set, dropped or added, or an arbitrary JSON document."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        row = dict(RECORD_ROW)
        for key in draw(st.lists(st.sampled_from(RECORD_COLUMNS + ("x",)), max_size=3)):
            if draw(st.booleans()):
                row[key] = draw(file_values)
            else:
                row.pop(key, None)
        rows.append(row)
    kind = draw(st.sampled_from(["csv", "json", "tree"]))
    if kind == "tree":
        return json.dumps(draw(file_values))
    if kind == "json":
        return json.dumps({"records": rows})
    header = RECORD_COLUMNS
    if draw(st.integers(0, 7)) == 7:
        header = draw(st.sampled_from([RECORD_COLUMNS[:-1], ("seed",), ()]))
    lines = [",".join(header)]
    lines += [",".join(str(row.get(c, "")) for c in RECORD_COLUMNS) for row in rows]
    return draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines) + "\n"


MODEL_PAYLOAD = {
    "version": SERIAL_VERSION,
    "spec": {
        "layer_sizes": [3, 4, 2], "activation": "relu", "head": "simplex",
        "divergence": None,
    },
    "params": [
        {"W": [[0.1] * 4] * 3, "b": [0.0] * 4},
        {"W": [[0.2] * 2] * 4, "b": [0.0] * 2},
    ],
}
# where an edit may land in MODEL_PAYLOAD: None is the whole file
MODEL_PATHS = [
    None, ("version",), ("spec",), ("params",),
    *[("spec", key) for key in MODEL_PAYLOAD["spec"]],
    ("spec", "layer_sizes", 0), ("spec", "layer_sizes", 1), ("params", 0),
    ("params", 1, "W"), ("params", 1, "b"), ("params", 0, "W", 2),
    ("params", 0, "W", 0, 1), ("params", 1, "b", 0),
]


@st.composite
def model_texts(draw):
    """A model file: MODEL_PAYLOAD with up to three entries set to
    arbitrary values, or that payload's text cut short."""
    payload = json.loads(json.dumps(MODEL_PAYLOAD))
    for path in draw(st.lists(st.sampled_from(MODEL_PATHS), max_size=3)):
        value = draw(file_values)
        if path is None:
            payload = value
            continue
        *parents, last = path
        # an entry an earlier edit replaced is left as that edit made it
        with contextlib.suppress(LookupError, TypeError):
            node = payload
            for key in parents:
                node = node[key]
            node[last] = value
    text = json.dumps(payload)
    if draw(st.integers(0, 7)) < 7:
        return text
    return text[: draw(st.integers(0, len(text)))]


class TestFileFuzz:
    """Every records file and model file the commands are given ends in
    exit 0, or exit 1 with one error: line and no traceback."""

    @staticmethod
    def assert_clean_exit(result):
        assert result.exit_code in (0, 1), result.output
        assert "Traceback" not in result.output
        if result.exit_code == 1:
            assert isinstance(result.exception, SystemExit), result.exception
            assert result.output.startswith("error: "), result.output
            assert result.output.count("\n") == 1

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(text=records_texts(), out_format=st.sampled_from(["csv", "json", "table"]))
    def test_report_records_files(self, tmp_path_factory, text, out_format):
        path = tmp_path_factory.getbasetemp() / "fuzz-records"
        path.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, ["report", str(path), "--format", out_format])
        self.assert_clean_exit(result)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(text=model_texts())
    def test_eval_model_files(self, tmp_path_factory, text):
        base = tmp_path_factory.getbasetemp()
        config, model = base / "fuzz-config.yaml", base / "fuzz-model.json"
        if not config.exists():
            dataset = {"source": "synthetic", "k": 2, "n": 40, "d": 3}
            config.write_text(yaml.safe_dump(config_tree(dataset=dataset)))
        model.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(
            main, ["eval", "--config", str(config), "--model", str(model)]
        )
        self.assert_clean_exit(result)


# input -> (config tree overrides, its run's largest term): the k = 11,585
# draw, whose k x k frame alone is 1.07 GB; a hidden layer of 10**9 units;
# and a CSV of K = 1,000 classes, which the test refuses by patching the
# budget one float below its run's total
OVERSIZED = {
    "k11585": (
        {"dataset": {"source": "synthetic", "k": 11_585, "n": 11_585, "d": 11_584}},
        "synthetic frame",
    ),
    "hidden1e9": ({"model": {"hidden": [10**9]}}, "scoring blocks"),
    "csv-k1000": ({}, "scoring blocks"),
}


class TestOversizedRuns:
    """Every command that runs from a config refuses a run past the
    budget before it draws, corrupts, initializes or trains anything."""

    @pytest.mark.parametrize("case", list(OVERSIZED))
    @pytest.mark.parametrize("command", ["sweep", "train", "eval", "corrupt"])
    def test_run_past_the_budget_exits_one(self, tmp_path, monkeypatch, command, case):
        import postmax.cli as cli_mod
        import postmax.model as model_mod
        import postmax.noise as noise_mod

        overrides, largest = OVERSIZED[case]
        tree = config_tree(noise={"kind": "symmetric", "eta": 0.2}, **overrides)
        if case == "csv-k1000":
            data = tmp_path / "k1000.csv"
            data.write_text("".join(f"{i / 7},{i % 1000}\n" for i in range(2000)))
            tree["dataset"] = {"source": "csv", "path": str(data)}
            total = sum(_run_terms(parse_config(tree), 2000, 1, 1000).values())
            monkeypatch.setattr(model_mod, "MAX_RUN_FLOATS", total - 1)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(tree))

        def never(*args, **kwargs):
            raise AssertionError("allocated for the run")

        for module, name in [
            (cli_mod, "_sample_synthetic"), (cli_mod, "corrupt"), (cli_mod, "init"),
            (cli_mod, "_train_members"), (noise_mod, "corrupt"), (model_mod, "init"),
            (model_mod, "_train_members"),
        ]:
            monkeypatch.setattr(module, name, never)
        out = tmp_path / "out"
        argv = [command, "--config", str(config)]
        if command == "eval":
            model = tmp_path / "model.json"
            save_model(init(MlpSpec((3, 4, 2)), seed=0), model)
            argv += ["--model", str(model)]
        else:
            argv += ["--out", str(out)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        first = result.output.splitlines()[0]
        assert first.startswith("error: the run would hold ")
        assert f"; its largest term is {largest}, " in first
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("case", ["csv-4-8-1000", "synthetic-10-4096-2", "draw"])
    def test_total_bounds_the_peak(self, tmp_path, monkeypatch, case):
        # where arrays dominate, the total the budget counts is at least
        # the tracemalloc peak and at most three times it
        import postmax.model as model_mod

        if case == "draw":  # n x d = 2**22
            run = partial(make_synthetic, 10, 2**16, 64, 4.0, seed=0)
        else:
            tree = config_tree(
                noise={"kind": "symmetric", "eta": 0.2},
                objective={
                    "divergence": "kl", "correction": ["none", "objective", "posterior"]
                },
                train={"epochs": 1, "batch_size": 64},
                model={"hidden": [4096]},
                dataset={"source": "synthetic", "k": 2, "n": 600, "d": 10},
                seeds=[0, 1, 2, 3, 4],
            )
            if case == "csv-4-8-1000":
                data = tmp_path / "k1000.csv"
                rows = [f"{i % 7},{i % 5},{i % 3},{i % 11},{i % 1000}" for i in range(8000)]
                data.write_text("\n".join(rows) + "\n")
                tree |= {"dataset": {"source": "csv", "path": str(data)}, "seeds": [0]}
                tree["model"] = {"hidden": [8]}
                tree["train"] = {"epochs": 1, "batch_size": 256}
            run = partial(run_experiment, parse_config(tree))
        monkeypatch.setattr(model_mod, "MAX_RUN_FLOATS", 0)
        with pytest.raises(ConfigError) as refused:
            run()
        monkeypatch.undo()
        [total] = re.findall(r"would hold ([0-9,]+) floats", str(refused.value))
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * int(total.replace(",", "")) <= 3 * peak
