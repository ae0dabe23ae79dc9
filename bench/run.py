"""Benchmark of qsscarrier's seeded Monte Carlo workloads.

Run from the repository root:

    python3 bench/run.py --workload plain-split --seed 1 --seconds 40 --trace 0

One run imports qsscarrier from this checkout's src/, makes one small
warm-up call, then runs whole batches of the workload through the public API
(experiments.run_trials with workers=1, then experiments.aggregate) until
--seconds have passed.  Every batch is checked independently (checks.py) and
a few trials are replayed alone from their spawned seeds.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (throughput, set-up time,
peak memory).  Both times are given in reference seconds: after every batch
a fixed kernel of this file's own (reference_rate) is timed, each batch's
wall time is scaled by the host speed the kernels around it saw, and the
set-up time by the mean host speed of the run, so that the shared host's
drift in speed cancels out.  With --trace 1 the public functions of every
module are wrapped in spans (spans.py) around each batch, and the metrics are
calls and self time per trial-round of each function; the spans and counts
are written under bench/results/.  An operation is one trial.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

ANNOUNCE_FRACTION = 0.2
HARDENED_THETA = 2.0 * math.pi / 3.0
WARMUP_TRIALS = 2
REPLAY_BATCHES = 3  # one trial of each of the first batches is replayed alone
SEED_STRIDE = 1_000_000  # base seeds of one --seed: seed * SEED_STRIDE + 10 * batch + call
REFERENCE_ITERS = 2000  # iterations of the reference kernel, timed before the first batch and after each
REFERENCE_RATE = 24_000.0  # kernel iterations per second that make one reference second


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (10 ms granularity)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of proc(5), counted after the command name
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def reference_rate() -> float:
    """Iterations per second of a fixed kernel that needs nothing but numpy.

    It does what the program's gate engine does most, on the same sizes: a
    two-qubit tensordot on a 6-qubit register, an axis move, a marginal
    probability, a renormalisation and some interpreter work.  Its inputs
    never change, so its speed follows the host's alone.
    """
    rng = np.random.default_rng(0)
    state = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    gate = (rng.standard_normal((4, 4)) + 0j).reshape(2, 2, 2, 2)
    t0 = time.perf_counter()
    for i in range(REFERENCE_ITERS):
        t = np.tensordot(gate, state.reshape((2,) * 6), axes=((2, 3), (1, 4)))
        t = np.moveaxis(t, (0, 1), (1, 4)).reshape(-1)
        p = float(np.sum(np.abs(t.reshape((2,) * 6)[:, :, 1]) ** 2))
        state = t / math.sqrt(float(np.vdot(t, t).real))
        record = {"i": i, "p": p}
        _ = [key for key in record]
    return REFERENCE_ITERS / (time.perf_counter() - t0)


def import_program():
    """Import qsscarrier from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qsscarrier
        from qsscarrier import experiments  # noqa: F401  (loads every module)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qsscarrier from {SRC}: {exc}") from None
    if SRC not in Path(qsscarrier.__file__).resolve().parents:
        raise SystemExit(f"bench: imported qsscarrier from {qsscarrier.__file__}, not {SRC}")
    return qsscarrier


@dataclass(frozen=True)
class Call:
    """One run_trials call of a batch."""

    config: object  # qsscarrier.protocol.ProtocolConfig
    policy: object  # qsscarrier.adversary.MaintenancePolicy, None for honest runs
    instrument: bool


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    trials: int  # per run_trials call
    calls: tuple[Call, ...]

    @property
    def trial_rounds(self) -> int:
        """Trial-rounds in one batch."""
        return self.trials * self.rounds * len(self.calls)


def workloads(qss) -> dict[str, Workload]:
    from qsscarrier.adversary import MaintenancePolicy
    from qsscarrier.protocol import AnnounceOrder, ProtocolConfig, Variant

    def config(variant, rounds):
        angles = None
        if variant is Variant.THETA:
            angles = qss.experiments.symmetric_triple(HARDENED_THETA)
        return ProtocolConfig(
            variant=variant,
            angles=angles,
            num_rounds=rounds,
            announce_fraction=ANNOUNCE_FRACTION,
            announce_order=AnnounceOrder.BOB_LAST,
        )

    plain100, theta100 = config(Variant.PLAIN, 100), config(Variant.THETA, 100)
    plain10, theta10 = config(Variant.PLAIN, 10), config(Variant.THETA, 10)
    return {
        wl.name: wl
        for wl in (
            Workload("plain-split", 100, 16, (Call(plain100, MaintenancePolicy.PLAIN_HADAMARD, False),)),
            Workload("hardened-guess", 100, 16, (Call(theta100, MaintenancePolicy.RANDOM_GUESS, False),)),
            Workload("honest-short", 10, 50, (Call(plain10, None, True), Call(theta10, None, True))),
        )
    }


def base_seed(seed: int, batch: int, call: int) -> int:
    return seed * SEED_STRIDE + 10 * batch + call


def run_call(experiments, call: Call, trials: int, seed: int):
    results = experiments.run_trials(
        call.config,
        trials,
        base_seed=seed,
        policy=call.policy,
        instrument_disguise=call.instrument,
        workers=1,
    )
    return results, experiments.aggregate(results)


def replay(qss, call: Call, seed: int, trials: int, index: int):
    """Run trial `index` of a run_trials call alone from its spawned seed."""
    child = np.random.SeedSequence(seed).spawn(trials)[index]
    ex = qss.experiments
    if call.policy is None:
        return ex.run_honest_trial(call.config, child, instrument_disguise=call.instrument)
    return ex.run_attack_trial(call.config, call.policy, child)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("plain-split", "hardened-guess", "honest-short"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    qss = import_program()
    experiments = qss.experiments
    wl = workloads(qss)[args.workload]
    failures: list[str] = []

    # set-up: the import above plus one small call of each of the workload's configs
    for i, call in enumerate(wl.calls):
        results, stats = run_call(experiments, call, WARMUP_TRIALS, base_seed(args.seed, 0, i))
        failures += checks.check_call(wl.name, results, stats, wl.rounds, ANNOUNCE_FRACTION, checks.Tally())
    setup_wall_s = seconds_since_process_start()

    tracer = spans.Tracer(qss) if args.trace else None
    tally = checks.Tally()
    timed_s = 0.0  # wall seconds of the timed calls
    reference_s = 0.0  # the same, scaled to a host that runs the reference kernel at REFERENCE_RATE
    speed_before = reference_rate()
    attempted = failed = 0
    batch = 0
    started = time.perf_counter()
    while batch == 0 or time.perf_counter() - started < args.seconds:
        batch += 1
        seeds = [base_seed(args.seed, batch, i) for i in range(len(wl.calls))]
        outputs = []
        t0 = time.perf_counter()
        for call, seed in zip(wl.calls, seeds):
            try:
                if tracer is None:
                    outputs.append(run_call(experiments, call, wl.trials, seed))
                else:
                    with tracer.installed():
                        outputs.append(run_call(experiments, call, wl.trials, seed))
            except Exception:
                traceback.print_exc()
                outputs.append(None)
        wall = time.perf_counter() - t0
        speed_after = reference_rate()
        timed_s += wall
        reference_s += wall * (speed_before + speed_after) / 2 / REFERENCE_RATE
        speed_before = speed_after
        attempted += wl.trials * len(wl.calls)
        failed += wl.trials * sum(out is None for out in outputs)

        for out in outputs:
            if out is not None:
                failures += checks.check_call(wl.name, *out, wl.rounds, ANNOUNCE_FRACTION, tally)
        if batch <= REPLAY_BATCHES:
            pick = (args.seed + batch) % (wl.trials * len(wl.calls))
            c, index = divmod(pick, wl.trials)
            if outputs[c] is not None:
                again = replay(qss, wl.calls[c], seeds[c], wl.trials, index)
                if again != outputs[c][0][index]:
                    failures.append(f"batch {batch}: trial {index} replayed alone differs")
    failures += checks.check_run(wl.name, tally)

    for line in failures[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    measured = (attempted - failed) * wl.rounds
    wall_rate = measured / timed_s
    rate = measured / reference_s
    host_speed = reference_s / timed_s  # 1.0 on a host that runs the kernel at REFERENCE_RATE
    setup_s = setup_wall_s * host_speed
    print(
        f"bench: {wl.name} seed {args.seed}: {batch} batches of {wl.trial_rounds} trial-rounds,"
        f" {rate:.1f} trial-rounds per reference s, {wall_rate:.1f} per wall s"
        f"{' (traced)' if tracer else ''}, host at {host_speed:.3f} of reference speed,"
        f" setup {setup_s:.3f} reference s, {setup_wall_s:.3f} wall s, {len(failures)} check failures",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "trial_rounds_per_s": {"value": rate, "unit": "trial-rounds/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.per_layer(measured, host_speed)
        tracer.write(
            RESULTS / f"trace-{wl.name}",
            {
                "workload": wl.name,
                "seed": args.seed,
                "batches": batch,
                "trial_rounds": measured,
                "traced_trial_rounds_per_s": rate,
                "traced_trial_rounds_per_wall_s": wall_rate,
                "host_speed": host_speed,
            },
        )
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
