"""Tests for the package's documented surface: README's example, __all__,
the console script, and what importing the package and running a command
loads."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
import yaml

import postmax
import references
from postmax.cli import _CONFIG, parse_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["trace"].objective) == 60
    assert namespace["test_accuracy"] >= 0.9


def test_readme_config_reference_covers_the_config_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```yaml\n(.*?)```", section, flags=re.S)
    tree = yaml.safe_load(block)
    parse_config(tree)
    for (name, key), (_, _, variant) in _CONFIG.items():
        given = tree if name is None else tree[name]
        # a key of the variant the example does not take is a comment
        assert key in given or (
            variant is not None and re.search(rf"# {key}: ", block)
        ), (name, key)


def test_all_is_sorted_unique_and_resolves():
    names = postmax.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(postmax, name)]
    assert missing == []


# the per-row references the tests compare the batch kernels against
REFERENCES = (
    "jf_grad_sample",
    "corrected_grad_sample",
    "active_passive_split",
    "jf_simplex_kl",
    "cross_entropy",
    "cross_entropy_logit_grad",
    "jf_simplex_kl_logit_grad",
    "bias_multiclass",
    "noisy_joint",
)


def test_per_row_references_live_beside_the_tests_only():
    assert all(callable(getattr(references, name)) for name in REFERENCES)
    modules = [m.name for m in pkgutil.iter_modules(postmax.__path__)]
    modules = [name for name in modules if not name.startswith("__")]
    assert {"noise", "objective", "posterior"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"postmax.{name}")
        assert [n for n in REFERENCES if hasattr(module, n)] == [], name


def test_all_is_listed_by_dir_and_unknown_names_raise():
    assert set(postmax.__all__) <= set(dir(postmax))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        postmax.nonexistent


def test_console_script_names_the_click_group():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    [(script, module, name)] = re.findall(
        r'^(\w+) = "([\w.]+):(\w+)"$', section.group(1), re.M
    )
    assert script == "postmax"
    assert isinstance(getattr(importlib.import_module(module), name), click.Group)


def modules_after(code: str) -> set:
    """The modules a fresh interpreter has loaded once it has run code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_command(argv: list) -> str:
    """Code that runs `python -m postmax *argv` and requires exit code 0."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['postmax', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('postmax', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
    )


def test_import_postmax_loads_no_module_of_the_package():
    loaded = modules_after(
        "import postmax\nassert set(postmax.__all__) <= set(dir(postmax))"
    )
    assert {m for m in loaded if m.startswith("postmax.")} == set()
    assert {"click", "yaml"} & loaded == set()


def test_import_cli_loads_neither_click_yaml_nor_analysis():
    loaded = modules_after("import postmax.cli")
    assert "postmax.model" in loaded
    assert {"click", "yaml", "postmax.analysis"} & loaded == set()


def test_verify_command_loads_neither_config_nor_training_code():
    loaded = modules_after(run_command(["verify", "--seed", "0"]))
    assert "postmax.analysis" in loaded
    assert {"yaml", "postmax.cli", "postmax.model"} & loaded == set()


def test_sweep_command_does_not_load_the_theorem_checks(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "dataset": {"source": "synthetic", "k": 2, "n": 60, "d": 2},
                "model": {"hidden": [4]},
                "objective": {"divergence": "kl", "correction": "none"},
                "train": {"epochs": 1, "batch_size": 16},
                "seeds": [0],
            }
        )
    )
    loaded = modules_after(run_command(["sweep", "--config", str(config)]))
    assert {"yaml", "postmax.model"} <= loaded
    assert "postmax.analysis" not in loaded


# the memory bounds the run budget replaced, the pass-through helpers
# that one builder per step phase and one scoring entry replaced, and the
# simplex value forms and floor that the one objective-row rule replaced;
# also the per-row references, matrix wrappers and one-row label rule that
# left the product for tests/references.py and NoiseParams.to_matrix
RETIRED_NAMES = (
    "MAX_CSV_CLASSES",
    "MAX_SWEEP_LABELS",
    "MAX_SYNTHETIC_FLOATS",
    "_check_sweep_labels",
    "_forward_ops",
    "_backprop_ops",
    "_evaluate",
    "_head_value",
    "_jf_simplex",
    "_bias_simplex",
    "_noisy_forward",
    "POSTERIOR_FLOOR",
    "simplex_value",
    "_jf_simplex_rows",
    "_bias_simplex_rows",
    "_mean_value",
    *REFERENCES,
    "symmetric_matrix",
    "uniform_offdiag_matrix",
    "_row_labels",
)
# whole words only: _evaluate_modes and simplex_terms are current names
RETIRED = re.compile(r"\b(" + "|".join(RETIRED_NAMES) + r")\b")


def test_readme_states_the_run_budget_and_no_retired_bound():
    from postmax.model import MAX_RUN_FLOATS

    text = README.read_text(encoding="utf-8")
    [exponent] = re.findall(r"`MAX_RUN_FLOATS = 2\*\*(\d+)`", text)
    assert 2 ** int(exponent) == MAX_RUN_FLOATS
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in [README, *sources]:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            named = RETIRED.findall(line)
            assert named == [], f"{path.name}:{lineno} names {named}"
