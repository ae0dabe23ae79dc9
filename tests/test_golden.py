"""Golden transcripts: three seeded 10-round trials pinned value by value.

The values were recorded before the round phases were fused into gathers
and measure-and-reset kernels, from the gate-by-gate engine.  Any later edit
to the engine that moves one bit, one claim or one ulp of a carrier
fidelity fails here.
"""

import math

from qsscarrier.adversary import MaintenancePolicy
from qsscarrier.experiments import run_attack_trial, run_honest_trial, symmetric_triple
from qsscarrier.protocol import ProtocolConfig, Variant

PLAIN = ProtocolConfig(num_rounds=10)
THETA = ProtocolConfig(variant=Variant.THETA, angles=symmetric_triple(2 * math.pi / 3), num_rounds=10)

ONE = "0x1.0000000000000p+0"
NEAR = "0x1.ffffffffffffcp-1"

GOLDEN = {
    "plain-split": dict(
        q=[1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
        bob=[1, None, 1, 0, 1, 0, 1, 0, 1, 1],
        charlie=[1, 0, 1, 1, 1, 1, 1, 0, 1, 0],
        announcements=[(2, 1, 1, 0), (4, 1, 0, 1)],
        fidelity=[ONE] + [NEAR] * 9,
    ),
    "hardened-guess": dict(
        q=[0, 1, 1, 1, 0, 0, 0, 1, 0, 0],
        bob=[0, None, 1, 0, 0, 1, 0, 0, 0, 1],
        charlie=[0, 1, 1, 1, 0, 1, 0, 0, 0, 0],
        announcements=[(2, 1, 0, 1), (6, 0, 1, 1)],
        fidelity=[
            ONE, "0x1.ffffffffffffep-1", NEAR, "0x0.0p+0", "0x1.2000000000003p-1",
            "0x0.0p+0", "0x1.0000000000000p-106", "0x0.0p+0", "0x1.7ffffffffffecp-3", "0x0.0p+0",
        ],
    ),
    "honest-instrumented": dict(
        q=[0, 1, 1, 0, 1, 0, 1, 0, 0, 0],
        bob=[0, 0, 1, 1, 1, 1, 1, 0, 0, 0],
        charlie=[0, 1, 1, 1, 1, 1, 1, 0, 0, 0],
        announcements=[(5, 1, 1, 1), (6, 0, 1, 1)],
        fidelity=[ONE] * 10,
    ),
}


def _trial(name):
    if name == "plain-split":
        return run_attack_trial(PLAIN, MaintenancePolicy.PLAIN_HADAMARD, seed=11)
    if name == "hardened-guess":
        return run_attack_trial(THETA, MaintenancePolicy.RANDOM_GUESS, seed=12)
    return run_honest_trial(THETA, seed=13, instrument_disguise=True)


def _observed(result):
    records = result.transcript.records
    return dict(
        q=[r.q for r in records],
        bob=[r.bob_bit for r in records],
        charlie=[r.charlie_bit for r in records],
        announcements=[
            (a.round_index, a.alice_bit, a.bob_claim, a.charlie_claim) for a in result.announcements
        ],
        fidelity=[r.carrier_fidelity.hex() for r in records],
    )


def test_plain_split_transcript_is_pinned():
    result = _trial("plain-split")
    assert _observed(result) == GOLDEN["plain-split"]
    assert (result.recovered_fraction, result.hypothesis) == (1.0, "psi")


def test_hardened_guess_transcript_is_pinned():
    result = _trial("hardened-guess")
    assert _observed(result) == GOLDEN["hardened-guess"]
    assert (result.recovered_fraction, result.hypothesis) == (0.6, "psi")


def test_honest_instrumented_transcript_is_pinned():
    result = _trial("honest-instrumented")
    assert _observed(result) == GOLDEN["honest-instrumented"]
    assert result.max_disguise_distance.hex() == "0x0.0p+0"
