"""Tests for the package's documented surface: README's example and __all__."""

import re
from pathlib import Path

import postmax

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["trace"].objective) == 60
    assert namespace["test_accuracy"] >= 0.9


def test_all_is_sorted_unique_and_resolves():
    names = postmax.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(postmax, name)]
    assert missing == []
