"""
Carrier states and the toggling gates
=====================================

Builds the two carrier states, toggles one into the other with the plain
Hadamard triple, and repeats the trip with a generalized angle triple.  Ends
with a triple that violates the angle constraint, to show the identity is
not automatic.
"""

import numpy as np

from qsscarrier import gates, qcore
from qsscarrier.gates import CarrierKind, ThetaTriple

np.set_printoptions(precision=3, suppress=True)

labels = ("a", "b", "c")
ghz = gates.make_carrier(CarrierKind.GHZ, labels)
even = gates.make_carrier(CarrierKind.EVEN_PARITY, labels)

print("ghz amplitudes:        ", np.real(ghz.amps[0]))
print("even-parity amplitudes:", np.real(even.amps[0]))
print("overlap fidelity:      ", qcore.fidelity(ghz, even).item())

# one Hadamard per party swaps the carriers exactly
state = ghz
for lab in labels:
    state = qcore.apply_unitary(state, gates.H, [lab])
print("\nafter H on all three:  fidelity to even-parity =",
      qcore.fidelity(state, even).item())

# the generalized gate keeps the identity whenever the three angles sum to
# zero mod 2pi; from_ab derives the third angle from the first two
tri = ThetaTriple.from_ab(1.3, 2.1)
print("\nangle triple", tuple(round(t, 4) for t in tri.as_tuple()),
      "sums to", round(sum(tri.as_tuple()) % (2 * np.pi), 12))
state = ghz
for lab, ang in zip(labels, tri.as_tuple()):
    state = qcore.apply_unitary(state, gates.h_theta(ang), [lab])
print("toggled fidelity to even-parity:", qcore.fidelity(state, even).item())

# the inverse triple brings the carrier back
for lab, ang in zip(labels, tri.as_tuple()):
    state = qcore.apply_unitary(state, gates.h_theta_inverse(ang), [lab])
print("round trip fidelity to ghz:     ", qcore.fidelity(state, ghz).item())

# break the constraint on purpose: same first two angles, third set to zero
state = ghz
for lab, ang in zip(labels, (1.3, 2.1, 0.0)):
    state = qcore.apply_unitary(state, gates.h_theta(ang), [lab])
print("\nbroken-sum triple fidelity:     ",
      round(qcore.fidelity(state, even).item(), 6), "(identity lost)")
