"""Every name a library module imports is used by that module."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lyndon2d"

# dictmatch keeps least_rotation bound only for perfbench's trace hook on
# dictmatch.least_rotation (ROADMAP item 5).
ALLOWED_UNUSED = {("dictmatch", "least_rotation")}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_unused_imports_detects_a_leftover():
    assert unused_imports("import hashlib\nimport json\njson.dumps(1)\n") == {"hashlib"}
    assert unused_imports("from a import b as c, d\nd()\n") == {"c"}


def test_library_modules_use_every_import():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found.update((path.stem, name) for name in unused_imports(path.read_text()))
    assert found == ALLOWED_UNUSED


def test_dictmatch_computes_words_through_alg2_2dlw():
    # alg2_2dlw checks the rows it is given; a builder driven by hand would
    # fork a second path to the same word
    tree = ast.parse((PACKAGE / "dictmatch.py").read_text())
    from_lw2d = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lw2d"
        for a in node.names
    }
    # an imported name is used, as test_library_modules_use_every_import checks
    assert "alg2_2dlw" in from_lw2d
    assert "TwoDLWBuilder" not in from_lw2d


def test_perfbench_hook_targets_exist():
    # perfbench wraps these names from outside the library; a rename drops a
    # layer from its traces.
    path = PACKAGE.parent.parent / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("perfbench_bench_trace", path)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = set()
    for _, mod_name, cls_name, attr, _ in bench_trace.HOOKS:
        owner = importlib.import_module(f"lyndon2d.{mod_name}")
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        if not hasattr(owner, attr):
            missing.add((mod_name, attr))
    assert not missing
    module_targets = {(mod, attr) for _, mod, cls_name, attr, _ in bench_trace.HOOKS if not cls_name}
    assert ALLOWED_UNUSED <= module_targets
