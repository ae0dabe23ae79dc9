"""
Splitting the carrier into two fraud pairs
==========================================

Synthesizes the splitting operation, runs it inside a live session, and
names the two Bell pairs it leaves behind.  Then the full man-in-the-middle
run: Bob decodes every later message himself and forwards counterfeits, the
announcement check stays clean, and after the announcements he has read
every secret bit of the session.
"""

import numpy as np

from qsscarrier import adversary, experiments, gates, protocol
from qsscarrier.adversary import MaintenancePolicy
from qsscarrier.protocol import ProtocolConfig, Variant

su = adversary.synthesize_split_unitary()
print("synthesis residuals:  %.2e, %.2e" % su.residuals)
print("unitarity defect:     %.2e" % su.unitarity_defect)

# the receivers' view cannot tell whether the split happened
dists = adversary.no_signaling_distances(su)
for name, d in sorted(dists.items()):
    print(f"  reduced state {name:10s} moved by {d:.2e}")

# play rounds 1 and 2 of a real session and split in round 2
config = ProtocolConfig(variant=Variant.PLAIN, num_rounds=12, rng_seed=3)
# the session's draws in the order the two rounds take them: Alice's bit,
# the two reads of round 1, Alice's next bit; decoded from raw PCG64 words
kinds = "iddi"
words = np.random.PCG64(3).random_raw(experiments.word_count(kinds))[None]
q1, u1, u2, q2 = experiments.decode_stream(words, kinds)[0]
session = protocol.init_session(config, np.array([[u1, u2]]), extra_labels=adversary.ATTACK_EXTRA_LABELS)
policy = MaintenancePolicy.PLAIN_HADAMARD
bob_kinds = adversary.bob_kinds(policy, config.num_rounds)
bob_words = np.random.PCG64(99).random_raw(experiments.word_count(bob_kinds))[None]
protocol.encode_round(session, int(q1))
protocol.deliver_and_decode(session)
protocol.toggle_carrier(session)
protocol.encode_round(session, int(q2))
adversary.execute_split(session, su, policy, experiments.decode_stream(bob_words, bob_kinds))

print("\npost-split pairs, in the Bell basis:")
for pair in (("a", "bt"), ("b", "c")):
    coeffs = gates.bell_decompose(session.states, pair)
    weights = {k.value: round(float(abs(c)) ** 2, 6) for k, c in zip(gates.BellKind, coeffs)}
    print(f"  {pair}:", {k: w for k, w in weights.items() if w > 1e-9})

# the whole attack at Monte Carlo scale: 200 sessions of 50 rounds
config = ProtocolConfig(variant=Variant.PLAIN, num_rounds=50, rng_seed=0,
                        announce_fraction=0.2)
results = experiments.run_trials(config, trials=200, base_seed=0,
                                 policy=MaintenancePolicy.PLAIN_HADAMARD)
stats = experiments.aggregate(results)
print(f"\n200 attacked sessions: detection probability ="
      f" {stats.detection_probability:.4f}")
print(f"bits Bob recovered after the announcements:    "
      f" {stats.mean_recovered_fraction:.4f}")
