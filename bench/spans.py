"""Span tracing of qsscarrier's public functions, installed from outside.

While installed, every function named in LAYERS is replaced on its module by
a wrapper that records one span (name, start, end, parent span) and counts
the call.  The program's modules call each other through module attributes
(``qcore.apply_unitary(...)``) or module globals, so the wrappers see every
call made inside the program.  ``StateVector`` constructions are counted
without spans, because every construction recomputes the state's norm.

Spans stay in memory in flat typed arrays and are written out once, when the
run ends.  A span's self time is its duration minus the time covered by its
child spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "qcore": (
        "apply_unitary",
        "measure",
        "probability_of_one",
        "reduced_density",
        "trace_distance",
        "fidelity",
        "validate_unitary",
    ),
    "gates": ("h_theta",),
    "protocol": ("init_session", "encode_round", "deliver_and_decode", "toggle_carrier"),
    "adversary": (
        "synthesize_split_unitary",
        "execute_split",
        "attack_decode_and_forward",
        "maintain_carriers",
        "fraud_pattern_fidelity",
    ),
    "detection": ("select_rounds", "evaluate"),
    "experiments": (
        "trial_rngs",
        "build_announcements",
        "run_honest_trial",
        "run_attack_trial",
        "aggregate",
    ),
}
BUILDS_METRIC = "qcore.StateVector.builds"
CALLS_UNIT = "1/trial-round"
SELF_UNIT = "us/trial-round"


class Tracer:
    """Call counts, self times and spans of the functions in LAYERS."""

    def __init__(self, package: ModuleType) -> None:
        self._targets = [
            (getattr(package, module), fn) for module, fns in LAYERS.items() for fn in fns
        ]
        self.names = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
        self._state_vector = package.qcore.StateVector
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.builds = 0
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        originals = [getattr(module, fn) for module, fn in self._targets]
        open_spans: list[int] = []
        covered: list[float] = []
        for name_id, ((module, fn), orig) in enumerate(zip(self._targets, originals)):
            setattr(module, fn, self._wrap(name_id, orig, open_spans, covered))
        sv = self._state_vector
        orig_post_init = sv.__post_init__

        def counted_post_init(state) -> None:
            self.builds += 1
            orig_post_init(state)

        sv.__post_init__ = counted_post_init
        try:
            yield self
        finally:
            sv.__post_init__ = orig_post_init
            for (module, fn), orig in zip(self._targets, originals):
                setattr(module, fn, orig)

    def _wrap(self, name_id: int, fn, open_spans: list[int], covered: list[float]):
        calls, self_s = self.calls, self.self_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(idx)
            covered.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                inner = covered.pop()
                starts[idx] = t0
                ends[idx] = t1
                calls[name_id] += 1
                self_s[name_id] += (t1 - t0) - inner
                if covered:
                    covered[-1] += t1 - t0

        return span

    def per_layer(self, trial_rounds: int, host_speed: float) -> dict[str, dict]:
        """Calls and self microseconds per trial-round, plus state builds.

        Self times are in reference microseconds: wall time times host_speed,
        the run's mean speed relative to the reference host.
        """
        out = {}
        for name, n, s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = {"value": n / trial_rounds, "unit": CALLS_UNIT}
            out[f"{name}.self_us"] = {"value": s * host_speed * 1e6 / trial_rounds, "unit": SELF_UNIT}
        out[BUILDS_METRIC] = {"value": self.builds / trial_rounds, "unit": CALLS_UNIT}
        return out

    def write(self, stem: Path, summary: dict) -> None:
        """Write the spans (.npz) and the counts with the run summary (.json)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            stem.with_suffix(".npz"),
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.uint16),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        doc = dict(summary)
        doc["calls"] = dict(zip(self.names, self.calls))
        doc["self_s"] = dict(zip(self.names, self.self_s))
        doc["state_vector_builds"] = self.builds
        doc["spans"] = len(self.span_start)
        stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
