"""Tests of the benchmark's own output checks.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py

Small real runs of each workload's configs must pass the checks; the same
results corrupted on purpose must fail them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import checks
import run
import spans

qss = run.import_program()
WORKLOADS = run.workloads(qss)
ROUNDS = 12


def small_call(name: str, call: int = 0, trials: int = 3, seed: int = 7):
    wl = WORKLOADS[name]
    c = wl.calls[call]
    config = dataclasses.replace(c.config, num_rounds=ROUNDS)
    return run.run_call(qss.experiments, dataclasses.replace(c, config=config), trials, seed)


def failures(name: str, results, stats) -> list[str]:
    return checks.check_call(name, results, stats, ROUNDS, run.ANNOUNCE_FRACTION, checks.Tally())


@pytest.mark.parametrize("name,call", [("plain-split", 0), ("hardened-guess", 0), ("honest-short", 0), ("honest-short", 1)])
def test_uncorrupted_results_pass(name, call):
    results, stats = small_call(name, call)
    assert failures(name, results, stats) == []


def test_flipped_claim_is_reported():
    results, stats = small_call("honest-short")
    first = results[0]
    ann = first.announcements[0]
    flipped = dataclasses.replace(ann, bob_claim=1 - ann.bob_claim)
    results[0] = dataclasses.replace(first, announcements=[flipped, *first.announcements[1:]])
    found = failures("honest-short", results, stats)
    assert any("recount" in f for f in found), found


def test_recovery_below_one_on_plain_split_is_reported():
    results, stats = small_call("plain-split")
    i = next(i for i, r in enumerate(results) if r.hypothesis != "unknown")
    results[i] = dataclasses.replace(results[i], recovered_fraction=0.99)
    found = failures("plain-split", results, stats)
    assert any("bit recovery" in f for f in found), found


def test_flagged_honest_trial_is_reported():
    results, stats = small_call("honest-short", call=1)
    report = dataclasses.replace(results[2].report, verdict="cheating_detected")
    results[2] = dataclasses.replace(results[2], report=report)
    found = failures("honest-short", results, stats)
    assert any("honest trial was flagged" in f for f in found), found


def test_hardened_run_check_needs_detection():
    tally = checks.Tally(trials=1000, detected=1000, rate_sum=460.0, recovered_sum=580.0)
    assert checks.check_run("hardened-guess", tally) == []
    caught_less = dataclasses.replace(tally, detected=960)
    assert any("caught Bob" in f for f in checks.check_run("hardened-guess", caught_less))


def test_binomial_lower_bound():
    # P(Bin(10, 0.5) < 1) = 2**-10; P(Bin(10, 0.5) < 2) = 11 * 2**-10
    assert checks.binomial_lower_bound(10, 0.5, 2**-10) == 1
    assert checks.binomial_lower_bound(10, 0.5, 11 * 2**-10 - 1e-15) == 1
    assert checks.binomial_lower_bound(10, 0.5, 11 * 2**-10 + 1e-15) == 2


def test_benchmark_json_names_every_traced_metric():
    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.Tracer(qss).per_layer(1, 1.0))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
