"""The ``postmax`` command line: one click command per workflow.

This module imports only click and the standard library when it loads.
Each command imports the library modules it runs when it runs, so
`postmax verify` never loads the config reader or the training code, and
no other command loads the theorem checks.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

import click

if TYPE_CHECKING:
    from .cli import ExperimentConfig


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
    from .cli import ConfigError, load_config

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
    from .cli import ConfigError, _dataset
    from .noise import corrupt

    cfg = _config_from_flag(config_path)
    if cfg.noise is None:
        _fail("corrupt requires a noise section in the config")
    run_seed = cfg.seeds[0] if seed is None else seed
    _check_writable(out_path)
    try:
        ds = _dataset(cfg)
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
    from .cli import ConfigError, _load_splits, _mlp_spec
    from .model import _train_members, evaluate, init, save_model
    from .noise import corrupt
    from .objective import ObjectiveConfig

    cfg = _config_from_flag(config_path)
    run_seed = cfg.seeds[0] if seed is None else seed
    _check_writable(out_path)
    try:
        train_ds, test_ds = _load_splits(cfg)
        spec = _mlp_spec(cfg, train_ds.d, train_ds.k)
        mode = cfg.corrections[0]
        ocfg = ObjectiveConfig(cfg.divergence, mode, cfg.noise)
        if cfg.noise is not None:
            train_ds = corrupt(train_ds, cfg.noise.to_matrix(train_ds.k), run_seed)
        model0 = init(spec, seed=run_seed)
        # the model train() would return, without its per-epoch metrics:
        # as in sweep, the objective is checked once, after the final epoch
        member = (model0, train_ds, ocfg, replace(cfg.train, seed=run_seed))
        [model] = _train_members([member])
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
    from .cli import ConfigError, _load_splits
    from .model import evaluate, load_model
    from .objective import ObjectiveConfig

    cfg = _config_from_flag(config_path)
    try:
        model = load_model(model_path)
    except OSError as err:
        _fail(f"cannot read model: {err}")
    except ValueError as err:
        _fail(str(err))
    if model.spec.head != cfg.head:
        _fail(
            f"the model's head is {model.spec.head!r}, "
            f"but the config's model.head is {cfg.head!r}"
        )
    try:
        _, test_ds = _load_splits(cfg)
        ocfg = ObjectiveConfig(cfg.divergence, cfg.corrections[0], cfg.noise)
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
    from .analysis import verify_theorems
    from .divergence import MAX_SEED

    if seed < 0:
        _fail(f"--seed must be a non-negative integer, got {seed}")
    if seed > MAX_SEED:
        _fail(f"--seed must be at most {MAX_SEED}, got {seed}")
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
    from .cli import ConfigError, report, run_experiment

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
    from .cli import parse_report, report

    try:
        # utf-8-sig drops a byte order mark, which would hide either format
        with open(in_path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        _fail(f"cannot read records: {err}")
    # an object or an array is JSON, so the JSON reader names what is wrong
    in_format = "json" if text.lstrip().startswith(("{", "[")) else "csv"
    try:
        records = parse_report(text, in_format)
        out = report(records, format=out_format)
    except ValueError as err:
        _fail(f"invalid records file: {err}")
    click.echo(out, nl=False)


if __name__ == "__main__":
    main()
