"""
An honest session, round by round
=================================

Plays eight rounds of the hardened variant by hand, printing what each
receiver measured and how the secret bit is reconstructed.  Afterwards the
announcement check runs over a random subset of rounds, and the disguise
property is measured directly: the in-flight message qubits carry no trace
of the bit.
"""

import numpy as np

from qsscarrier import detection, experiments, protocol
from qsscarrier.protocol import ProtocolConfig, Variant

config = ProtocolConfig(
    variant=Variant.THETA,
    angles=experiments.symmetric_triple(2.0 * np.pi / 3.0),
    num_rounds=8,
    rng_seed=5,
    announce_fraction=0.5,
)

# the trial's streams, drawn up front as a run draws them: the secret bits,
# then the two measurement uniforms of every round
key = experiments.trial_key(config.rng_seed)
streams = experiments.TrialStreams([key], experiments.HONEST_STREAMS)
bits, uniforms = streams.protocol(config.num_rounds, 2 * config.num_rounds)
session = protocol.init_session(config, uniforms)
secrets = bits[0].tolist()

print("round  parity  sent  bob  charlie  reconstructed")
for q in secrets:
    protocol.encode_round(session, q)
    (bob,), (charlie,) = protocol.deliver_and_decode(session)  # one trial's reads
    rec = session.transcripts()[0].records[-1]
    # odd rounds deliver the bit to both readers; even rounds split it so
    # only the XOR of the two readings reveals it
    joint = bob ^ charlie if rec.parity == "even" else bob
    print(f"{rec.round_index:5d}  {rec.parity:6s} {q:5d} {bob:4d} {charlie:8d} {joint:8d}")
    protocol.toggle_carrier(session)

transcript = session.transcripts()[0]
fids = [rec.carrier_fidelity for rec in transcript.records]
print("\ncarrier restored after every round, worst fidelity:", min(fids))

(opened,) = streams.announced(config.num_rounds, config.announce_fraction)
announcements = experiments.build_announcements(transcript, opened)
report = detection.evaluate(transcript, announcements, tolerance=0.0)
print("announced rounds:", [a.round_index for a in announcements])
print("verdict:", report.verdict, f"({report.odd_mismatches} odd,"
      f" {report.even_mismatches} even mismatches)")

# disguise check: for every round, compare the in-flight two-qubit marginal
# for the sent bit against the marginal for its flip
result = experiments.run_honest_trial(config, instrument_disguise=True)
print("\nlargest trace distance between the two in-flight marginals:",
      result.max_disguise_distance)
