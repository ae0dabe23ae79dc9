"""The benchmark's span tracer finds every function it names.

bench/spans.py wraps each function in its LAYERS table by name, so a
function that is renamed or deleted here crashes a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import qsscarrier
import qsscarrier.experiments  # noqa: F401  (loads every traced module)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_traced_name():
    spans = _load_spans()
    measure = qsscarrier.qcore.measure
    with spans.Tracer(qsscarrier).installed():
        assert qsscarrier.qcore.measure is not measure
    assert qsscarrier.qcore.measure is measure
