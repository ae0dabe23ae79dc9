"""Layer costs of the gate engine: per gate, per measurement, per round phase,
per round, per trial, and the kernel calls one lockstep round makes.

    python benchmarks/engine_costs.py --src src --label after --out costs.json

Without --out the JSON goes to standard output.

Times, in wall microseconds on the machine it runs on, one one-qubit gate
(H on m1), one CNOT (a -> m1), one measurement (m1), one attacked round of
the plain split (Alice's encoding, Bob's decode-and-forward with Charlie's
decode, the maintained toggle) and one whole 100-round plain-split trial
(experiments.run_trials), at batch sizes 1, 16 and 1000.  The round phases
are timed one by one on the same sizes: Alice's odd and even encodings, the
honest decode, and Bob's decode-and-forward and the maintained toggle of an
odd round after the split, each from a saved session state.  The summing
kernels (measure_reset on one and on two targets, reduced_density with its
validation, fidelity, check_norm and excited_mass) are timed on an honest
session just after Alice's round-1 encoding, at batch sizes 1, 16 and 50.
Each cost is the median of --repeats timings and is given per call and per
trial.

The per-trial section times what a trial pays once: building its RNG
streams from the run's base seed (the streams an honest trial reads, and
the three of an attacked one), its protocol-stream measurement draws (the
two reads of one honest round from pre-drawn uniforms, plus the random(2R)
that pre-draws a 10-round trial's share), the announcement phase
(select_rounds, build_announcements and evaluate on a 10-round honest
transcript at fraction 0.2) and one whole instrumented 10-round honest trial.  Stream set-up is timed at batch sizes 16 and 50 as
one trial_rngs call per trial (numpy's own objects, the reference the
tests hold the runners to) and as the one experiments.TrialStreams a batch
builds, together with the protocol stream of a 10-round honest trial drawn
from each (integers(0, 2, size=10) then random(20) per generator, against
TrialStreams.protocol).  The draw costs are taken at batch sizes 16 and 50.

The Bob-stream section times Bob's private draws for one 100-round
random-guess trial at batch size 16, per trial and per trial-round: drawn
lazily, one scalar call per trial and draw as the rounds ask for them, and
drawn ahead as the raw PCG64 words of the whole schedule, decoded
(experiments.decode_stream) and split into the ledger's columns
(adversary.AttackState.draw).

Kernel calls are counted on one plain-split lockstep round of 16 trials (the
mean over 20 rounds after the split): every call the round phases make into
a qcore function that takes a state, plus StateVector.check_norm, counting
only the outermost call when one kernel calls another.  StateVector builds
are counted alongside: those that check their labels and norms, and the
kernel results wrapped over the labels of their input
(StateVector.with_rows).

Every session measures with uniforms drawn ahead (default_rng(t).random
per trial t) and Bob's ledger takes the draws decoded from raw PCG64 words
(PCG64(10_000 + t), experiments.decode_stream), as the runners' sessions
do.  --src may point at the src/ directory of a checkout with one state
class, whose lone state is the batch of one (qcore.StateVector holds
(trials, 2**n) rows and qcore.StateBatch is gone), and whose sessions and
Bob's ledger take those pre-drawn columns (adversary.bob_kinds exists).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BATCH_SIZES = (1, 16, 1000)
KERNEL_BATCH_SIZES = (1, 16, 50)
TRIAL_BATCH_SIZES = (16, 50)
ROUNDS = 100
SHORT_ROUNDS = 10


def timed(fn, repeats: int, warmup: bool = True) -> float:
    """Median wall seconds of fn() over the repeats, after one warm-up call."""
    if warmup:
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def cost(seconds: float, calls: int, trials: int) -> dict:
    return {
        "us_per_call": round(seconds / calls * 1e6, 3),
        "us_per_trial": round(seconds / (calls * trials) * 1e6, 4),
    }


def uniforms(batch: int, count: int) -> np.ndarray:
    """count measurement uniforms for each of `batch` trials, drawn ahead."""
    return np.array([np.random.default_rng(t).random(count) for t in range(batch)])


def attacked_session(qss, batch: int):
    """A plain-split session of `batch` trials, right after round 2's toggle,
    with its attack ledger."""
    from qsscarrier.adversary import MaintenancePolicy
    from qsscarrier.protocol import ProtocolConfig

    proto, adv = qss.protocol, qss.adversary
    policy = MaintenancePolicy.PLAIN_HADAMARD
    config = ProtocolConfig(num_rounds=ROUNDS)
    su = adv.synthesize_split_unitary()
    kinds = adv.bob_kinds(policy, ROUNDS)
    count = qss.experiments.word_count(kinds)
    words = np.array([np.random.PCG64(10_000 + t).random_raw(count) for t in range(batch)])
    bob = qss.experiments.decode_stream(words, kinds)
    # two reads in round 1, then Charlie's one read per round
    drawn = uniforms(batch, ROUNDS + 1)
    session = proto.init_session(config, uniforms=drawn, extra_labels=adv.ATTACK_EXTRA_LABELS)
    proto.encode_round(session, np.ones(batch, dtype=int))
    proto.deliver_and_decode(session)
    proto.toggle_carrier(session)
    proto.encode_round(session, np.zeros(batch, dtype=int))
    attack = adv.execute_split(session, su, policy, bob)
    adv.forward_round2_counterfeit(session, attack)
    adv.maintain_carriers(session, attack)
    return session, attack


# qcore functions that take a state: the kernels a round phase calls
KERNELS = (
    "apply_unitary", "apply_one_qubit_gates", "permute", "measure", "measure_reset",
    "probability_of_one", "excited_mass", "fidelity", "reduced_density", "trace_distance",
)
PHASE_CALLS = 100


def honest_session(qss, batch: int, round_index: int):
    """An honest plain session of `batch` trials at the start of the given round."""
    from qsscarrier.protocol import ProtocolConfig

    proto = qss.protocol
    session = proto.init_session(ProtocolConfig(num_rounds=ROUNDS), uniforms=uniforms(batch, 2 * ROUNDS))
    for r in range(1, round_index):
        proto.encode_round(session, np.full(batch, r % 2))
        proto.deliver_and_decode(session)
        proto.toggle_carrier(session)
    return session


def phase_costs(qss, batch: int, repeats: int) -> dict:
    """Per call of each round phase, from a saved session state each time."""
    proto, adv = qss.protocol, qss.adversary
    q = np.arange(batch) % 2  # a mix of 0s and 1s

    def replay(session, phase, *args):
        """Time PHASE_CALLS calls of phase, each on a copy of the saved session."""
        copies = [copy.copy(session) for _ in range(PHASE_CALLS)]
        t0 = time.perf_counter()
        for s in copies:
            phase(s, *args)
        return time.perf_counter() - t0

    def median_of(session, phase, *args):
        replay(session, phase, *args)
        return statistics.median(replay(session, phase, *args) for _ in range(repeats))

    odd, even = honest_session(qss, batch, 1), honest_session(qss, batch, 2)
    encoded = honest_session(qss, batch, 1)
    proto.encode_round(encoded, q)
    attacked, attacks = attacked_session(qss, batch)
    decoded = copy.copy(attacked)
    proto.encode_round(attacked, q)
    # the copies share their round columns and the attack ledger, which the
    # phases only overwrite; each copy reads the uniforms from the saved position
    seconds = {
        "encode_odd": median_of(odd, proto.encode_round, q),
        "encode_even": median_of(even, proto.encode_round, q),
        "honest_decode": median_of(encoded, proto.deliver_and_decode),
        "bob_decode_forward": median_of(attacked, adv.attack_decode_and_forward, attacks),
        "maintained_toggle": median_of(decoded, adv.maintain_carriers, attacks),
    }
    return {name: cost(sec, PHASE_CALLS, batch) for name, sec in seconds.items()}


def kernel_costs(qss, repeats: int) -> dict:
    """Per call of the summing kernels on the honest session of round 1, just
    after Alice's encoding (one bit per trial), at each kernel batch size."""
    qcore, proto = qss.qcore, qss.protocol
    calls = 200
    out = {}
    for batch in KERNEL_BATCH_SIZES:
        session = honest_session(qss, batch, 1)
        proto.encode_round(session, np.arange(batch) % 2)
        states, drawn = session.states, uniforms(batch, 2)
        expected = proto.expected_full_state(session)
        kernels = {
            "measure_reset_1": lambda: qcore.measure_reset(states, ("m1",), drawn[:, :1]),
            "measure_reset_2": lambda: qcore.measure_reset(states, ("m1", "m2"), drawn),
            "reduced_density": lambda: qcore.reduced_density(states, proto.MESSAGE_LABELS),
            "fidelity": lambda: qcore.fidelity(states, expected),
            "check_norm": states.check_norm,
            "excited_mass": lambda: qcore.excited_mass(states, proto.MESSAGE_LABELS),
        }
        for name, kernel in kernels.items():
            seconds = timed(lambda: [kernel() for _ in range(calls)], repeats)
            out.setdefault(name, {})[batch] = cost(seconds, calls, batch)
    return out


def stream_setup(ex, base_seed: int, trials: int, attacked: bool) -> list:
    """One trial_rngs call per trial of a run_trials batch: each trial's
    generators, built from its key."""
    entropy, spawn_key, pool_size = ex.trial_key(base_seed)
    streams = ex.ALL_STREAMS if attacked else ex.HONEST_STREAMS
    return [ex.trial_rngs((entropy, spawn_key + (t,), pool_size), streams) for t in range(trials)]


def columnar_setup(ex, base_seed: int, trials: int, attacked: bool):
    """The one TrialStreams a run_trials batch builds for its trials."""
    entropy, spawn_key, pool_size = ex.trial_key(base_seed)
    streams = ex.ALL_STREAMS if attacked else ex.HONEST_STREAMS
    return ex.TrialStreams([(entropy, spawn_key + (t,), pool_size) for t in range(trials)], streams)


def lazy_protocol_stream(streams: list) -> None:
    """A 10-round honest trial's protocol stream from each trial's generators."""
    for rng_p, *_ in streams:
        rng_p.integers(0, 2, size=SHORT_ROUNDS)
        rng_p.random(2 * SHORT_ROUNDS)


def trial_costs(qss, repeats: int) -> dict:
    """What one trial pays once, per trial (see the module docstring)."""
    from qsscarrier.protocol import ProtocolConfig

    qcore, proto, ex, detection = qss.qcore, qss.protocol, qss.experiments, qss.detection
    calls, trials = 20, 50
    out = {}
    for kind in ("honest", "attacked"):
        attacked = kind == "attacked"
        setup = {}
        for batch in TRIAL_BATCH_SIZES:
            gens = [stream_setup(ex, c, batch, attacked) for c in range(calls)]
            columnar = [columnar_setup(ex, c, batch, attacked) for c in range(calls)]
            ways = {
                "trial_rngs": lambda: [stream_setup(ex, c, batch, attacked) for c in range(calls)],
                "trial_rngs_protocol_stream": lambda: [lazy_protocol_stream(g) for g in gens],
                "columnar": lambda: [columnar_setup(ex, c, batch, attacked) for c in range(calls)],
                "columnar_protocol_stream": lambda: [
                    s.protocol(SHORT_ROUNDS, 2 * SHORT_ROUNDS) for s in columnar
                ],
            }
            for name, way in ways.items():
                # the lazy draws advance the generators; later repeats draw on
                setup.setdefault(name, {})[batch] = cost(timed(way, repeats), calls, batch)
        out[f"stream_setup_{kind}"] = setup

    draws = {}
    for batch in TRIAL_BATCH_SIZES:
        session = honest_session(qss, batch, 1)
        proto.encode_round(session, np.arange(batch) % 2)
        states, drawn = session.states, uniforms(batch, 2)
        gens = [np.random.default_rng(t) for t in range(batch)]
        kernels = {
            "measure_pre_drawn": lambda: qcore.measure_reset(states, proto.MESSAGE_LABELS, drawn),
            "pre_draw_short_trial": lambda: [g.random(2 * SHORT_ROUNDS) for g in gens],
        }
        for name, kernel in kernels.items():
            seconds = timed(lambda: [kernel() for _ in range(calls)], repeats)
            draws.setdefault(name, {})[batch] = cost(seconds, calls, batch)
    out["draws"] = draws

    config = ProtocolConfig(num_rounds=SHORT_ROUNDS)
    results = ex.run_trials(config, trials, base_seed=1)

    def announce():
        for t, res in enumerate(results):
            rounds = detection.select_rounds(SHORT_ROUNDS, 0.2, np.random.default_rng(t))
            anns = ex.build_announcements(res.transcript, rounds)
            detection.evaluate(res.transcript, anns)

    out["announcement_phase"] = cost(timed(announce, repeats), 1, trials)
    run = functools.partial(ex.run_trials, config, trials, base_seed=2, instrument_disguise=True)
    seconds = timed(run, repeats)
    out["honest_short_trial"] = cost(seconds, 1, trials)
    out["honest_short_trial"]["us_per_trial_round"] = round(seconds / (trials * SHORT_ROUNDS) * 1e6, 3)
    return out


def count_kernel_calls(qss, rounds: int = 20, batch: int = 16) -> dict:
    """Outermost qcore kernel calls and StateVector builds per lockstep round."""
    qcore, proto, adv = qss.qcore, qss.protocol, qss.adversary
    session, attacks = attacked_session(qss, batch)
    counts = {"builds": 0}
    depth = [0]

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                counts[name] = counts.get(name, 0) + 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    originals = {name: getattr(qcore, name) for name in KERNELS}
    state_cls = qcore.StateVector
    check_norm, post_init, with_rows = state_cls.check_norm, state_cls.__post_init__, state_cls.with_rows
    counts["rewraps"] = 0

    def counted_post_init(state):
        counts["builds"] += 1
        post_init(state)

    def counted_with_rows(state, rows):
        counts["rewraps"] += 1
        return with_rows(state, rows)

    for name, fn in originals.items():
        setattr(qcore, name, counted(name, fn))
    state_cls.check_norm = counted("check_norm", check_norm)
    state_cls.__post_init__ = counted_post_init
    state_cls.with_rows = counted_with_rows
    try:
        for r in range(rounds):
            proto.encode_round(session, np.full(batch, r % 2))
            adv.attack_decode_and_forward(session, attacks)
            adv.maintain_carriers(session, attacks)
    finally:
        for name, fn in originals.items():
            setattr(qcore, name, fn)
        state_cls.check_norm, state_cls.__post_init__, state_cls.with_rows = check_norm, post_init, with_rows
    builds, rewraps = counts.pop("builds"), counts.pop("rewraps")
    return {
        "batch": batch,
        "kernel_calls_per_round": round(sum(counts.values()) / rounds, 2),
        "by_kernel": {name: n / rounds for name, n in sorted(counts.items())},
        "state_builds_per_round": round(builds / rounds, 2),
        "state_with_rows_per_round": round(rewraps / rounds, 2),
    }


def bob_stream_costs(qss, repeats: int, batch: int = 16) -> dict:
    """Bob's draws for one ROUNDS-round random-guess trial, lazy against
    drawn ahead (see the module docstring), per trial and per trial-round."""
    from qsscarrier.adversary import MaintenancePolicy

    adv, ex, policy = qss.adversary, qss.experiments, MaintenancePolicy.RANDOM_GUESS
    # the streams are built once, outside the timings; each timed call draws on
    gens = [np.random.default_rng(10_000 + t) for t in range(batch)]
    streams = [np.random.PCG64(10_000 + t) for t in range(batch)]
    schedule = adv.bob_kinds(policy, ROUNDS)
    count = ex.word_count(schedule)

    def lazy():
        [g.random() for g in gens]  # the coin of the toggle ending round 2
        for r in range(3, ROUNDS + 1):
            [g.random() for g in gens]  # his two measurements
            [g.random() for g in gens]
            if r % 2 == 0:
                [int(g.integers(0, 2)) for g in gens]  # his claim
            else:
                [g.random() for g in gens]  # the coin of a forward toggle

    def pre_drawn():
        words = np.array([s.random_raw(count) for s in streams])
        adv.AttackState.draw(policy, ROUNDS, ex.decode_stream(words, schedule))

    kinds = {"lazy": lazy, "pre_drawn": pre_drawn}
    out = {}
    for name, fn in kinds.items():
        seconds = timed(fn, repeats)
        out[name] = cost(seconds, 1, batch)
        out[name]["us_per_trial_round"] = round(seconds / (batch * ROUNDS) * 1e6, 4)
    return {"batch": batch, "rounds": ROUNDS, **out}


def measure_costs(qss, repeats: int) -> dict:
    from qsscarrier import gates
    from qsscarrier.adversary import MaintenancePolicy
    from qsscarrier.protocol import ProtocolConfig

    qcore, proto, adv = qss.qcore, qss.protocol, qss.adversary
    out = {"gate_1q": {}, "gate_cnot": {}, "measure": {}, "phase": {}, "round": {}, "trial": {}}
    for batch in BATCH_SIZES:
        session, _ = attacked_session(qss, batch)
        state = session.states
        calls = 200
        plus = qcore.apply_unitary(state, gates.H, ["m1"])
        drawn = uniforms(batch, 1)
        kernels = {
            "gate_1q": lambda: qcore.apply_unitary(state, gates.H, ["m1"]),
            "gate_cnot": lambda: qcore.apply_unitary(state, gates.CNOT, ["a", "m1"]),
            "measure": lambda: qcore.measure(plus, "m1", drawn),
        }
        for name, kernel in kernels.items():
            seconds = timed(lambda: [kernel() for _ in range(calls)], repeats)
            out[name][batch] = cost(seconds, calls, batch)

        out["phase"][batch] = phase_costs(qss, batch, repeats)
        rounds = 20

        def play_rounds():
            s, a = attacked_session(qss, batch)
            t0 = time.perf_counter()
            for r in range(rounds):
                proto.encode_round(s, np.full(batch, r % 2))
                adv.attack_decode_and_forward(s, a)
                adv.maintain_carriers(s, a)
            return time.perf_counter() - t0

        play_rounds()
        seconds = statistics.median(play_rounds() for _ in range(repeats))
        out["round"][batch] = cost(seconds, rounds, batch)
        config = ProtocolConfig(num_rounds=ROUNDS)
        # the largest batch runs once: the smaller ones have warmed everything up
        seconds = timed(
            lambda: qss.experiments.run_trials(config, batch, policy=MaintenancePolicy.PLAIN_HADAMARD),
            repeats if batch < 1000 else 1,
            warmup=batch < 1000,
        )
        out["trial"][batch] = cost(seconds, 1, batch)
        out["trial"][batch]["us_per_trial_round"] = round(seconds / (batch * ROUNDS) * 1e6, 3)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="src/ directory of the checkout to time")
    p.add_argument("--label", required=True, help="name of this measurement in the output")
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--out", help="JSON file to write (default: standard output)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import qsscarrier
    from qsscarrier import experiments  # noqa: F401  (loads every module)

    doc = {
        "label": args.label,
        "src": args.src,
        "batch_sizes": list(BATCH_SIZES),
        "unit": "wall microseconds, median of repeats",
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "costs": measure_costs(qsscarrier, args.repeats),
        "kernel_calls": count_kernel_calls(qsscarrier),
    }
    doc["costs"]["kernel"] = kernel_costs(qsscarrier, args.repeats)
    doc["costs"]["trial_setup"] = trial_costs(qsscarrier, args.repeats)
    doc["costs"]["bob_stream"] = bob_stream_costs(qsscarrier, args.repeats)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
