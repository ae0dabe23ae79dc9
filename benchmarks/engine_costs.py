"""Layer costs of the gate engine: per gate, per measurement, per round, per trial.

    python benchmarks/engine_costs.py --src src --label after --out costs.json

Times, in wall microseconds on the machine it runs on, one one-qubit gate
(H on m1), one CNOT (a -> m1), one measurement (m1), one attacked round of
the plain split (Alice's encoding, Bob's decode-and-forward with Charlie's
decode, the maintained toggle) and one whole 100-round plain-split trial
(experiments.run_trials), at batch sizes 1, 16 and 1000.  Each cost is the
median of --repeats timings and is given per call and per trial.  --src may
point at the src/ directory of any checkout: a checkout whose engine runs one
trial at a time is timed on lone states, batch size 1 only for the kernels,
and trial by trial inside run_trials.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BATCH_SIZES = (1, 16, 1000)
ROUNDS = 100


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


def attacked_session(qss, batch: int):
    """A plain-split session of `batch` trials, right after round 2's toggle."""
    from qsscarrier.adversary import MaintenancePolicy
    from qsscarrier.protocol import ProtocolConfig

    proto, adv = qss.protocol, qss.adversary
    config = ProtocolConfig(num_rounds=ROUNDS)
    su = adv.synthesize_split_unitary()
    gens = [np.random.default_rng(t) for t in range(batch)]
    bob = [np.random.default_rng(10_000 + t) for t in range(batch)]
    if batch == 1:
        session = proto.init_session(config, rng=gens[0], extra_labels=adv.ATTACK_EXTRA_LABELS)
        proto.encode_round(session, 1)
        proto.deliver_and_decode(session)
        proto.toggle_carrier(session)
        proto.encode_round(session, 0)
        attack = adv.execute_split(session, su, MaintenancePolicy.PLAIN_HADAMARD, bob[0])
        adv.forward_round2_counterfeit(session, attack)
        adv.maintain_carriers(session, attack)
        return session, attack
    session = proto.init_session(config, rng=gens, extra_labels=adv.ATTACK_EXTRA_LABELS)
    proto.encode_round(session, np.ones(batch, dtype=int))
    proto.deliver_and_decode_all(session)
    proto.toggle_carrier(session)
    proto.encode_round(session, np.zeros(batch, dtype=int))
    attacks = adv.execute_split_all(session, su, MaintenancePolicy.PLAIN_HADAMARD, bob)
    adv.forward_round2_counterfeit_all(session, attacks)
    adv.maintain_carriers_all(session, attacks)
    return session, attacks


def measure_costs(qss, repeats: int) -> dict:
    from qsscarrier import gates
    from qsscarrier.adversary import MaintenancePolicy
    from qsscarrier.protocol import ProtocolConfig

    qcore, proto, adv = qss.qcore, qss.protocol, qss.adversary
    batched = hasattr(qcore, "StateBatch")
    out = {"gate_1q": {}, "gate_cnot": {}, "measure": {}, "round": {}, "trial": {}}
    for batch in BATCH_SIZES:
        if batch == 1 or batched:
            session, attack = attacked_session(qss, batch)
            state = session.state if batch == 1 else session.states
            gens = session.rng if batch == 1 else session.rngs
            calls = 200
            plus = qcore.apply_unitary(state, gates.H, ["m1"])
            kernels = {
                "gate_1q": lambda: qcore.apply_unitary(state, gates.H, ["m1"]),
                "gate_cnot": lambda: qcore.apply_unitary(state, gates.CNOT, ["a", "m1"]),
                "measure": lambda: qcore.measure(plus, "m1", gens),
            }
            for name, kernel in kernels.items():
                seconds = timed(lambda: [kernel() for _ in range(calls)], repeats)
                out[name][batch] = cost(seconds, calls, batch)

            rounds = 20

            def play_rounds():
                s, a = attacked_session(qss, batch)
                t0 = time.perf_counter()
                for r in range(rounds):
                    if batch == 1:
                        proto.encode_round(s, r % 2)
                        adv.attack_decode_and_forward(s, a)
                        adv.maintain_carriers(s, a)
                    else:
                        proto.encode_round(s, np.full(batch, r % 2))
                        adv.attack_decode_and_forward_all(s, a)
                        adv.maintain_carriers_all(s, a)
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
    p.add_argument("--out", required=True, help="JSON file to write")
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
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
