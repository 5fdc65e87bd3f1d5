"""The benchmark's tracer wraps functions by module attribute; they must exist.

`perfbench/tracing.py` patches each (module, attribute) pair in its WRAPPED
table and expects fixed call counts.  A refactor that moves or renames one of
those functions fails here, in the test suite, before it fails the benchmark.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_still_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for name, (module, attr) in tracing.WRAPPED.items():
        assert callable(getattr(module, attr, None)), name
