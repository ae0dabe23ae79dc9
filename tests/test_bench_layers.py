"""The benchmark's span tracer finds every function it names, and the
runners reach the ones they should.

bench/spans.py wraps each function in its LAYERS table by name, so a
function that is renamed or deleted here crashes a traced benchmark run,
and one the runners stop calling reads 0 calls in it.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import qsscarrier
import qsscarrier.experiments  # noqa: F401  (loads every traced module)
from qsscarrier.adversary import MaintenancePolicy
from qsscarrier.protocol import ProtocolConfig, Variant

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


def test_tracer_counts_states_built_from_outside_amplitudes_only():
    # the qcore.StateVector.builds metric counts the class's __post_init__
    qcore, gates = qsscarrier.qcore, qsscarrier.gates
    tracer = _load_spans().Tracer(qsscarrier)
    with tracer.installed():
        state = qcore.from_amplitudes(("a", "b"), np.array([1.0, 0.0, 0.0, 0.0]))
        assert tracer.builds == 1
        plus = qcore.apply_unitary(state, gates.H, ["a"])
        qcore.measure_reset(plus, ("a",), np.array([[0.25]]))
        plus.relabeled({"a": "x"})
        assert tracer.builds == 1


# traced names a run_trials call does not reach: the runners measure with
# measure_reset and validate no unitary, h_theta's results are cached, and
# the runners seed by columns and run their trials as one batch
UNREACHED = {
    "qcore.measure",
    "qcore.validate_unitary",
    "gates.h_theta",
    "experiments.trial_rngs",
    "experiments.run_honest_trial",
    "experiments.run_attack_trial",
}


def test_runners_reach_every_other_traced_name():
    spans = _load_spans()
    experiments = qsscarrier.experiments
    config = ProtocolConfig(
        variant=Variant.THETA, angles=experiments.symmetric_triple(2 * math.pi / 3), num_rounds=4
    )
    tracer = spans.Tracer(qsscarrier)
    with tracer.installed():
        for policy in (None, MaintenancePolicy.RANDOM_GUESS):
            experiments.aggregate(experiments.run_trials(config, 3, policy=policy, instrument_disguise=policy is None))
    calls = dict(zip(tracer.names, tracer.calls))
    assert UNREACHED <= set(calls) and len(calls) - len(UNREACHED) == 18
    assert [name for name, n in calls.items() if n == 0 and name not in UNREACHED] == []
