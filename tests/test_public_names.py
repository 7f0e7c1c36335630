"""Code outside the package must keep working against it.

`hyperaut.__all__` is the public surface, and perfbench/tracing.py swaps the
(module, function) pairs of its BOUNDARIES table for timing wrappers, so a
deletion or rename in src/ would otherwise only show up when a traced
benchmark run fails.  The table is read from the file, not imported.  The
benchmark's own self-test runs here too, and the test oracles must not
borrow the library's private helpers, or they would share the code they
check.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import hyperaut

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
ORACLES = ROOT / "tests" / "oracles.py"


def _boundaries():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "BOUNDARIES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES table in {TRACING}")


def test_public_names_and_traced_boundaries_resolve():
    for name in hyperaut.__all__:
        assert hasattr(hyperaut, name), name
    boundaries = _boundaries()
    assert boundaries
    for module_name, func_name in boundaries:
        module = importlib.import_module(f"hyperaut.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)


def test_benchmark_selftest_passes():
    # Runs one small round of every workload with its checks, and feeds each
    # check wrong answers built by dataclasses.replace on the report fields.
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


def test_oracles_import_no_private_library_names():
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(ORACLES.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hyperaut")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not private, private
