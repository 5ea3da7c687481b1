"""The names the benchmark in ``perfbench/`` patches or calls still exist.

The tracer swaps ``owner.__dict__[attr]`` for a wrapper, so each hook must be
defined on the owner itself, not inherited or imported lazily.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_wrapped_and_counted_names_exist(tracing):
    hooks = [(target, attr) for target, attr, _ in tracing.WRAP_POINTS + tracing.COUNTED]
    assert hooks
    missing = [f"{target}.{attr}" for target, attr in hooks
               if attr not in vars(tracing._resolve(target))]
    assert missing == []


def test_worker_and_tracer_helpers_exist():
    from labelset import tensor, training

    assert "batch_iterator" in vars(training)
    assert len(tensor.active_tape()) >= 0


def test_worker_predict_argv_parses():
    # the argv perfbench/worker.py hands to ``labelset predict``
    from labelset import cli

    args = cli.build_parser().parse_args(
        ["predict", "--checkpoint", "c", "--input", "i", "--output", "o"])
    assert (args.func, args.checkpoint, args.input, args.output) == (cli.cmd_predict, "c", "i", "o")


def benchmark_imports() -> list[tuple[str, str]]:
    """Every ``from labelset... import name`` in ``perfbench/*.py``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                    and node.module.split(".")[0] == "labelset":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:   # a submodule, imported as ``from package import module``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_imports_exists():
    imports = benchmark_imports()
    assert ("labelset.data", "Dataset") in imports and ("labelset.cli", "load_splits") in imports
    missing = [f"{module}.{name}" for module, name in imports if not resolves(module, name)]
    assert missing == []
