"""Names that code outside the package relies on must keep resolving.

`hyperaut.__all__` is the public surface, and perfbench/tracing.py swaps the
(module, function) pairs of its BOUNDARIES table for timing wrappers, so a
deletion or rename in src/ would otherwise only show up when a traced
benchmark run fails.  The table is read from the file, not imported.
"""

import ast
import importlib
from pathlib import Path

import hyperaut

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
