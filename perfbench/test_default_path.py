"""The benchmark measures the default production path and nothing else.

Run with ``python3 -m pytest perfbench -q`` from the repository root.

The analysis modes ROADMAP item 1 deletes (parallel engine, static
prefilter, multipass, streaming / parallel pre-processing, the record
decoder) must never be selected by the benchmark, so deleting them can
neither break it nor silently change what it measures.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

#: modules slated for deletion by ROADMAP item 1
DOOMED_MODULES = ("repro.core.parallel", "repro.static.prefilter",
                  "repro.trace.partition", "repro.core.preprocessing")
CONFIG_BUILDERS = ("AutoCheckConfig", "make_config", "prepare_app_analysis")


def _sources():
    return sorted(p for p in HERE.glob("*.py")
                  if not p.name.startswith("test_"))


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


@pytest.mark.parametrize("path", _sources(), ids=lambda p: p.name)
def test_no_mode_field_is_set(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) in CONFIG_BUILDERS:
            keywords = {k.arg for k in node.keywords}
            assert not keywords & set(bench.MODE_FIELDS), (
                f"{path.name}:{node.lineno} sets {keywords & set(bench.MODE_FIELDS)}")
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    assert target.attr not in bench.MODE_FIELDS, (
                        f"{path.name}:{node.lineno} assigns {target.attr}")


@pytest.mark.parametrize("path", _sources(), ids=lambda p: p.name)
def test_no_doomed_module_is_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        for name in names:
            assert not name.startswith(DOOMED_MODULES), (
                f"{path.name}:{node.lineno} imports {name}")


def test_runtime_guard_accepts_every_benchmark_config():
    from repro.apps.registry import app_names, get_app

    for name in app_names(include_example=True, include_extras=True):
        app = get_app(name)
        source = app.source()
        bench.make_config(app, app.main_loop(source))
        bench.make_config(app, app.main_loop(source), use_cache=True,
                          cache_dir="unused")


def test_runtime_guard_rejects_a_mode():
    from repro.apps.registry import get_app
    from repro.core.config import AutoCheckConfig

    app = get_app("example")
    config = AutoCheckConfig(main_loop=app.main_loop())
    bench.assert_default_path(config)
    fields = AutoCheckConfig.__dataclass_fields__
    if "streaming_preprocessing" not in fields:
        pytest.skip("the streaming mode no longer exists")
    config.streaming_preprocessing = True
    with pytest.raises(RuntimeError, match="streaming_preprocessing"):
        bench.assert_default_path(config)
