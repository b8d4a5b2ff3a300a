"""Every name a module in src/ or tests/ imports is used in that module,
and every name src/ defines at module level is named somewhere else."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]

# Bound on purpose and unused: perfbench/spans.py replaces these names in
# their modules with timing wrappers, so they must stay bound there.
WRAPPED_BY_NAME = {
    "src/postmax/analysis.py": {
        "exact_bias",
        "exact_jf",
        "exact_jf_noisy",
        "optimal_T_from_posterior",
        "posterior_from_T",
    },
    "src/postmax/cli.py": {"train"},
    "src/postmax/objective.py": {"conj_prime", "conj_second"},
    "src/postmax/posterior.py": {"conj_prime"},
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
    listed in a literal __all__ count as read (a computed one lists no
    imported names)."""
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
            if isinstance(node.value, (ast.List, ast.Tuple)) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
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


def _defined_names(node: ast.stmt) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # click reaches a decorated *_cmd command through its decorator
        if node.name.endswith("_cmd") and node.decorator_list:
            return []
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    names = []
    for t in targets:
        elts = t.elts if isinstance(t, ast.Tuple) else [t]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def unnamed_definitions(text: str, words: Counter) -> set:
    """Module-level definitions in text whose name occurs in words only
    inside the definition itself; dunder names are exempt."""
    lines = text.splitlines()
    dead = set()
    for node in ast.parse(text).body:
        span = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        own = Counter(re.findall(r"\w+", span))
        for name in _defined_names(node):
            if not name.startswith("__") and words[name] == own[name]:
                dead.add(name)
    return dead


def test_every_definition_is_named_elsewhere():
    sources = sorted((ROOT / "src").rglob("*.py"))
    others = (
        sorted((ROOT / "tests").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.md"))
        + [ROOT / "README.md"]
    )
    texts = {p: p.read_text(encoding="utf-8") for p in sources + others}
    words = Counter(re.findall(r"\w+", "\n".join(texts.values())))
    found = {}
    for path in sources:
        dead = unnamed_definitions(texts[path], words)
        if dead:
            found[path.relative_to(ROOT).as_posix()] = sorted(dead)
    assert found == {}


def test_detects_an_unnamed_definition():
    text = (
        "TOL = 1e-6\n__version__ = '1'\nA, B = 1, TOL\n"
        "def f():\n    return f()\n\n"
        "@main.command()\ndef run_cmd():\n    pass\n"
    )
    words = Counter(re.findall(r"\w+", text + "\nprint(B)\n"))
    assert unnamed_definitions(text, words) == {"A", "f"}
