"""Every function the benchmark times or traces must still exist.

``perfbench/hooks.py`` reports a target it cannot find as absent and the run
goes on, so a renamed function would silently drop out of the measurements.
This test resolves the trace targets (``SPANS``, ``COUNTS``) and the work
targets ``perfbench/run.py`` hands to its child processes, reading both files
without running the benchmark.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks",
                                                  PERFBENCH / "hooks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _work_targets():
    """The "module:attr" string literals of run.py, i.e. its work targets."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    return sorted({node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and re.fullmatch(r"[a-z_]+:[A-Za-z_][\w.]*", node.value)})


HOOKS = _hooks()
TRACE_TARGETS = sorted({t for table in (HOOKS.SPANS, HOOKS.COUNTS)
                        for targets in table.values() for t in targets})
WORK_TARGETS = _work_targets()


def test_work_targets_are_found():
    for target in ("encoder:train_encoder", "tagger:train_tagger",
                   "parser:train_parser", "parser:Parser.predict_heads"):
        assert target in WORK_TARGETS


@pytest.mark.parametrize("target", TRACE_TARGETS + WORK_TARGETS)
def test_benchmark_target_resolves(target):
    found = HOOKS._resolve(target)
    assert found is not None, f"{target} is gone; the benchmark would stop timing it"
    assert callable(found[2])
