"""Every name a module in src/ or tests/ imports is used in that module."""

import ast
import importlib.util
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]

# Bound on purpose and unused: perfbench/spans.py replaces these names in
# their modules with timing wrappers, so they must stay bound there.
WRAPPED_BY_NAME = {
    "src/postmax/analysis.py": {"exact_bias", "exact_jf", "exact_jf_noisy"},
    "src/postmax/objective.py": {"conj_second"},
    "src/postmax/model.py": {
        "bias_simplex_batch",
        "corrected_grad_batch",
        "corrected_jf_batch",
        "jf_batch",
        "jf_grad_batch",
        "jf_simplex_batch",
        "jf_simplex_logit_grad_batch",
        "posterior_correct",
        "predict",
    },
}


def unused_imports(tree: ast.Module) -> set:
    """Names bound by imports that nothing in the module reads; names
    listed in __all__ count as read."""
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    found = {}
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        names = unused_imports(tree) - WRAPPED_BY_NAME.get(rel, set())
        if names:
            found[rel] = sorted(names)
    assert found == {}


def test_allowlist_rows_are_still_wrapped():
    # an entry whose row leaves the span table must leave here too, and
    # its import with it
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rows = {
        (module.__name__, name)
        for module, name, _ in spans.boundaries(ModuleType("workloads"))
    }
    allowed = {
        (rel.removeprefix("src/").removesuffix(".py").replace("/", "."), name)
        for rel, names in WRAPPED_BY_NAME.items()
        for name in names
    }
    assert allowed - rows == set()


def test_detects_an_unused_import():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom a import b, c\n"
        "__all__ = ['c']\nnp.zeros(1)\n"
    )
    assert unused_imports(tree) == {"os", "b"}
