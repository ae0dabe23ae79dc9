"""Bob's entanglement-splitting attack on the reusable carrier.

In round 2 Bob intercepts both message qubits and applies one 8x8 unitary on
(b, m1, m2) that rips the carrier into two Bell pairs: (a, bt) shared with
Alice and (b, c) shared with Charlie, where bt is the kept message qubit m1.
Which Bell pattern comes out encodes Alice's round-2 bit: PhiPlus pairs for
q2 = 0, PsiPlus pairs for q2 = 1.  The third qubit m2 is left in a fixed
blank state and forwarded as a counterfeit.

From round 3 on Bob plays man-in-the-middle: he decodes Alice's bit through
the (a, bt) pair and re-encodes a counterfeit for Charlie through (b, c).
Reads that go through a Psi-family pair come out complemented, and under the
end-of-round toggles the q2 = 1 branch alternates between the PsiPlus and
PhiMinus forms (the q2 = 0 branch stays PhiPlus), so Bob's records carry a
per-round family tag: the complement applies exactly to the tagged rounds
once the pattern hypothesis is resolved from a public announcement.

Maintenance choices Bob can play at each toggle: the plain Hadamard pair, the
conjugate pair h(-ta) (x) h(-tc), or the transpose pair h(ta)^T (x) h(tc)^T
(inverses of these on inverse-direction rounds).
"""

from __future__ import annotations

import enum
import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import gates, protocol, qcore
from .gates import BellKind
from .protocol import ProtocolSession, Variant

RESIDUAL_TOL = 1e-8
SYNTHESIS_FAIL_TOL = 1e-6

KEPT_LABEL = "bt"
ATTACK_EXTRA_LABELS = (KEPT_LABEL,)


class PatternHypothesis(enum.Enum):
    PHI = "phi"
    PSI = "psi"
    UNKNOWN = "unknown"


class MaintenancePolicy(enum.Enum):
    KNOWN_THETA_U = "u"
    KNOWN_THETA_V = "v"
    RANDOM_GUESS = "random"
    PLAIN_HADAMARD = "plain"


@dataclass(frozen=True)
class SplitUnitary:
    """Synthesized 8x8 splitting operator with its verification numbers."""

    matrix: np.ndarray
    residuals: tuple[float, float]
    unitarity_defect: float
    blank: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
                "residuals": list(self.residuals),
                "unitarity_defect": self.unitarity_defect,
            }
        )


@dataclass
class RawRecord:
    round_index: int
    parity: str
    raw: int
    claim: int
    psi_tagged: bool  # pair was Psi-family at read time under the q2=1 branch: even rounds


@dataclass
class AttackState:
    maintenance_policy: MaintenancePolicy
    rng: np.random.Generator
    pattern_hypothesis: PatternHypothesis = PatternHypothesis.UNKNOWN
    current_guess: str | None = None
    records: dict[int, RawRecord] = field(default_factory=dict)
    round2_bit: int | None = None
    # experiment-side truth for instrumentation; Bob's logic never reads it
    q2_truth: int | None = None

    def learned_bit(self, round_index: int) -> int | None:
        """Bob's best current value for Alice's bit in the given round."""
        if round_index == 2:
            # the split bit IS the pattern: either heard directly or read off
            # the resolved hypothesis
            if self.round2_bit is not None:
                return self.round2_bit
            if self.pattern_hypothesis is PatternHypothesis.UNKNOWN:
                return None
            return int(self.pattern_hypothesis is PatternHypothesis.PSI)
        rec = self.records.get(round_index)
        if rec is None:
            return None
        if not rec.psi_tagged or self.pattern_hypothesis is PatternHypothesis.UNKNOWN:
            return rec.raw
        return rec.raw ^ (self.pattern_hypothesis is PatternHypothesis.PSI)


# ---------------------------------------------------------------------------
# synthesis


def _encoded_round2_state(q: int) -> qcore.StateVector:
    """Even-parity carrier plus Alice's round-2 encoding of q, canonical labels."""
    rest = np.zeros(4)
    rest[0] = 1.0
    amps = np.kron(gates.carrier_amplitudes(gates.CarrierKind.EVEN_PARITY), rest)
    state = qcore.from_amplitudes(("a", "b", "c", "m1", "m2"), amps)
    return protocol.encoded_state(state, "even", q)


def _target_split_state(q: int, blank: np.ndarray) -> qcore.StateVector:
    """Bell(a, m1) x Bell(b, c) x blank(m2); PhiPlus pairs for q=0, PsiPlus for q=1."""
    bell = gates.bell_amplitudes(BellKind.PHI_PLUS if q == 0 else BellKind.PSI_PLUS).reshape(2, 2)
    amps = np.einsum("am,bc,x->abcmx", bell, bell, blank).reshape(-1)
    return qcore.from_amplitudes(("a", "b", "c", "m1", "m2"), amps)


def _group_bm1m2_by_ac(state: qcore.StateVector) -> np.ndarray:
    """Reshape a canonical 5-qubit state into an 8x4 matrix: rows (b,m1,m2), cols (a,c)."""
    t = state.amps.reshape((2,) * 5)
    return np.transpose(t, (1, 3, 4, 0, 2)).reshape(8, 4)


def synthesize_split_unitary(blank: np.ndarray | None = None) -> SplitUnitary:
    """Solve for the splitting operator from its two input/output constraints.

    Each constraint pins the action of U (x) I on one 32-dim state, giving a
    rank-4 linear system over U's 64 entries; the orthogonal complement is
    completed orthonormally and the result is polished by polar projection.
    Raises if either constraint cannot be met, naming the offending one.
    The operator for the default blank |0> is solved once per process and
    shared; its arrays, like every SplitUnitary's, are read-only.
    """
    if blank is None:
        return _default_split_unitary()
    return _solve_split(blank)


@functools.lru_cache(maxsize=1)
def _default_split_unitary() -> SplitUnitary:
    return _solve_split(np.array([1.0, 0.0]))


def _solve_split(blank: np.ndarray) -> SplitUnitary:
    blank = np.asarray(blank, dtype=np.complex128)
    if blank.shape != (2,) or abs(np.linalg.norm(blank) - 1.0) > 1e-12:
        raise ValueError("blank must be a normalized single-qubit state")

    ins = [_encoded_round2_state(q) for q in (0, 1)]
    outs = [_target_split_state(q, blank) for q in (0, 1)]
    x = np.hstack([_group_bm1m2_by_ac(s) for s in ins])
    y = np.hstack([_group_bm1m2_by_ac(s) for s in outs])

    w, sv, vh = np.linalg.svd(x)
    rank = int(np.sum(sv > 1e-12))
    w_in, w_free = w[:, :rank], w[:, rank:]
    images = y @ vh.conj().T[:, :rank] / sv[:rank]
    iso_defect = np.abs(images.conj().T @ images - np.eye(rank)).max()
    if iso_defect > SYNTHESIS_FAIL_TOL:
        raise ValueError(
            "split constraints are not jointly isometric on (b, m1, m2): "
            f"the q=0/q=1 output overlaps disagree with the inputs by {iso_defect:.3e}"
        )
    wz = np.linalg.svd(images)[0]
    u0 = images @ w_in.conj().T + wz[:, rank:] @ w_free.conj().T
    pw, _, pvh = np.linalg.svd(u0)
    u = pw @ pvh  # polar projection onto the unitary group

    residuals = []
    for q in (0, 1):
        moved = qcore.apply_unitary(ins[q], u, ["b", "m1", "m2"])
        residuals.append(float(np.linalg.norm(moved.amps - outs[q].amps)))
    for q, r in enumerate(residuals):
        if r > SYNTHESIS_FAIL_TOL:
            raise ValueError(f"split constraint for q2={q} unmet: residual {r:.3e}")
    return SplitUnitary(
        matrix=gates.read_only(u),
        residuals=(residuals[0], residuals[1]),
        unitarity_defect=qcore.unitarity_defect(u),
        blank=gates.read_only(blank),
    )


def no_signaling_distances(su: SplitUnitary) -> dict[str, float]:
    """Trace distances between the q2=0 and q2=1 cases of everything Bob can
    measure right after the split.  All must vanish: the split may not leak
    the bit it is keyed on."""
    post = [
        qcore.apply_unitary(_encoded_round2_state(q), su.matrix, ["b", "m1", "m2"])
        for q in (0, 1)
    ]
    out = {}
    for keep in (("b",), ("m1",), ("m2",), ("b", "m1", "m2")):
        r0, r1 = (qcore.reduced_density(p, keep) for p in post)
        out["+".join(keep)] = qcore.trace_distance(r0, r1)
    return out


# ---------------------------------------------------------------------------
# attack execution


def execute_split(
    session: ProtocolSession,
    su: SplitUnitary,
    policy: MaintenancePolicy,
    rngs: Sequence[np.random.Generator],
) -> list[AttackState]:
    """Apply the splitting operator during round 2 in every trial and keep m1 as bt.

    Requires the round-2 message to be encoded but not yet delivered, and an
    idle bt slot in every trial.  The label swap m1 <-> bt is bookkeeping
    only; afterwards bt holds the Bell half paired with a, m1 is a fresh |0>,
    and m2 holds the blank counterfeit.  rngs are Bob's generators, one per
    trial; returns one attack ledger per trial.
    """
    if session.round_index != 2 or session.pending_q is None:
        raise ValueError("split must run on the encoded, undelivered round-2 state")
    if KEPT_LABEL not in session.states.labels:
        raise ValueError(f"register has no {KEPT_LABEL!r} slot for the kept qubit")
    if len(rngs) != session.trials:
        raise ValueError(f"{len(rngs)} attacker generators for {session.trials} trials")
    occupied = qcore.probability_of_one(session.states, KEPT_LABEL) > 1e-12
    qcore.check_trials(occupied, f"{KEPT_LABEL!r} slot is occupied")
    st = qcore.apply_unitary(session.states, su.matrix, ["b", "m1", "m2"])
    session.states = st.relabeled({"m1": KEPT_LABEL, KEPT_LABEL: "m1"})
    return [
        AttackState(maintenance_policy=policy, rng=rng, q2_truth=q)
        for rng, q in zip(rngs, session.pending_q.tolist())
    ]


def pattern_pair_state(
    kind_at: BellKind,
    kind_bc: BellKind,
    labels: tuple[str, str, str, str] = ("a", KEPT_LABEL, "b", "c"),
) -> qcore.StateVector:
    """Four-qubit fraud pattern: one Bell pair on the first two labels
    (Alice's side), one on the last two (Charlie's side)."""
    b1 = gates.bell_amplitudes(kind_at).reshape(2, 2)
    b2 = gates.bell_amplitudes(kind_bc).reshape(2, 2)
    return qcore.from_amplitudes(labels, np.einsum("at,bc->atbc", b1, b2).reshape(-1))


# rows of the pattern table: the q2 = 0 orbit, then the q2 = 1 orbit's two forms
_ORBIT_KINDS = (BellKind.PHI_PLUS, BellKind.PSI_PLUS, BellKind.PHI_MINUS)


@functools.lru_cache(maxsize=16)
def _pattern_table(labels: tuple[str, ...]) -> np.ndarray:
    """Amplitudes of each intact-orbit fraud pattern, messages reset, one row
    per kind in _ORBIT_KINDS, laid out in the given register order."""
    axis_of = {"a": 0, KEPT_LABEL: 1, "b": 2, "c": 3, "m1": 4, "m2": 5}
    if sorted(labels) != sorted(axis_of):
        raise ValueError(f"unexpected attack register labels {labels}")
    e0 = np.array([1.0, 0.0])
    rows = []
    for kind in _ORBIT_KINDS:
        bell = gates.bell_amplitudes(kind).reshape(2, 2)
        amps = np.einsum("at,bc,m,n->atbcmn", bell, bell, e0, e0)
        amps = np.transpose(amps, axes=[axis_of[lab] for lab in labels])
        rows.append(qcore.from_amplitudes(labels, amps.reshape(-1)).amps)
    return gates.read_only(np.stack(rows))


def fraud_pattern_fidelity(session: ProtocolSession, attacks: Sequence[AttackState]) -> np.ndarray:
    """Per trial, the fidelity with the intact-orbit pattern the pairs should
    be in right now (truth-side instrumentation): PhiPlus pairs for q2 = 0,
    and for q2 = 1 PsiPlus pairs in even rounds, PhiMinus in odd ones."""
    table = _pattern_table(session.states.labels)
    q2_row = 1 if session.parity == "even" else 2
    which = [0 if a.q2_truth == 0 else q2_row for a in attacks]
    expected = qcore.StateBatch(session.states.labels, table[which])
    return qcore.fidelity(session.states, expected)


def forward_round2_counterfeit(
    session: ProtocolSession, attacks: Sequence[AttackState]
) -> np.ndarray:
    """Send the blank on to Charlie and let him decode round 2 honestly, every trial.

    Bob rotates the blank to |+> first: Charlie's decode CNOT is inert on an
    X eigenstate, so his measurement is uniform noise and the (b, c) pair
    survives.  Forwarding the raw |0> would let that CNOT copy c and collapse
    the pair.  Appends the round-2 records (Bob has no bit of his own here)
    and returns Charlie's reads.
    """
    if session.round_index != 2 or session.pending_q is None:
        raise ValueError("round-2 counterfeit must follow the split in round 2")
    st = qcore.apply_one_qubit_gates(session.states, (("m2", gates.H),))
    st = qcore.permute(st, (("c", "m2", None),))
    (bits,), session.states = qcore.measure_reset(st, ("m2",), session.measurement_draws(1))
    protocol.append_records(session, None, bits, fraud_pattern_fidelity(session, attacks))
    return bits


# Bob's disentangling CNOTs from bt on odd and even rounds, as qcore.permute steps
BOB_DECODE_STEPS = {
    True: ((KEPT_LABEL, "m1", None), (KEPT_LABEL, "m2", None)),
    False: ((KEPT_LABEL, "m1", None),),
}
# the counterfeit for Charlie: X on m2 where the forwarded bit (bit 0) is set,
# then stitched through b and read back by Charlie's decode CNOT from c
COUNTERFEIT_STEPS = ((None, "m2", 0), ("b", "m2", None), ("c", "m2", None))

# the maintenance choice each policy plays; None tosses a fair u/v coin
POLICY_CHOICE: dict[MaintenancePolicy, str | None] = {
    MaintenancePolicy.KNOWN_THETA_U: "u",
    MaintenancePolicy.KNOWN_THETA_V: "v",
    MaintenancePolicy.RANDOM_GUESS: None,
    MaintenancePolicy.PLAIN_HADAMARD: "h",
}


def toss_choice(rng: np.random.Generator) -> str:
    """One fair u/v coin: the guess of a policy whose POLICY_CHOICE is None."""
    return "u" if rng.random() < 0.5 else "v"


@functools.lru_cache(maxsize=128)
def choice_operators(
    angles: gates.ThetaTriple | None, choice: str, forward: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's (bt, b) maintenance operators for one toggle, built and
    validated once per configuration.

    choice "h" is the plain Hadamard pair, "u" the conjugate-angle pair
    h(-ta) (x) h(-tc), "v" the transpose pair h(ta)^T (x) h(tc)^T; inverse
    operators are returned when the toggle runs in the inverse direction.
    """
    if choice not in ("h", "u", "v"):
        raise ValueError(f"unknown maintenance choice {choice!r}")
    if choice == "h":
        pair = (gates.H, gates.H)
    elif angles is None:
        raise ValueError(f"choice {choice!r} needs toggle angles; the plain protocol has none")
    else:
        ta, _, tc = angles.as_tuple()
        if choice == "u":
            pair = (gates.h_theta(-ta), gates.h_theta(-tc))
        else:
            pair = (gates.h_theta(ta).T, gates.h_theta(tc).T)
    return tuple(gates.read_only(m if forward else m.conj().T) for m in pair)


def maintenance_step(
    state: qcore.State,
    angles: gates.ThetaTriple | None,
    choices: str | Sequence[str],
    round_index: int,
) -> qcore.State:
    """The toggle that ends an attacked round: Alice's and Charlie's honest
    toggles on a and c, then Bob's (bt, b) pair, applied in that order.

    choices is one maintenance choice for every trial, or one per trial of a
    batch; each distinct choice's operators are looked up once and gathered
    into per-trial stacks.  All four toggles run as one pass.
    """
    forward = protocol.parity_of(round_index) == "odd"
    on_a, _, on_c = protocol.toggle_ops(angles, round_index)
    if isinstance(choices, str):
        on_bt, on_b = choice_operators(angles, choices, forward)
    else:
        distinct = sorted(set(choices))
        table = np.stack([choice_operators(angles, choice, forward) for choice in distinct])
        picked = table[[distinct.index(choice) for choice in choices]]
        on_bt, on_b = picked[:, 0], picked[:, 1]
    ops = (("a", on_a), ("c", on_c), (KEPT_LABEL, on_bt), ("b", on_b))
    return qcore.apply_one_qubit_gates(state, ops)


def _choose(variant: Variant, attack: AttackState, forward: bool) -> str:
    """Bob's maintenance choice for this toggle direction."""
    policy = attack.maintenance_policy
    choice = POLICY_CHOICE[policy]
    if variant is Variant.PLAIN and choice != "h":
        raise ValueError(f"policy {policy.value!r} needs toggle angles; plain protocol has none")
    if choice is None:
        # one fair coin per toggle-direction pair: drawn at each forward
        # toggle, reused for the inverse one that follows; the lone inverse
        # toggle ending round 2 draws its own
        if forward or attack.current_guess is None:
            attack.current_guess = toss_choice(attack.rng)
        return attack.current_guess
    return choice


def maintain_carriers(session: ProtocolSession, attacks: Sequence[AttackState]) -> list[str]:
    """End-of-round toggle for attacked sessions, every trial.

    Alice and Charlie toggle a and c honestly; Bob applies his maintenance
    choice on (bt, b) instead of the honest toggle on b, one choice per trial.
    Checks every state's norm and advances the round.  Returns the choices
    played ("h", "u" or "v"), one per trial.
    """
    if session.pending_q is not None:
        raise ValueError("cannot toggle with a message still in flight")
    forward = session.parity == "odd"
    policies = {attack.maintenance_policy for attack in attacks}
    if len(policies) == 1 and POLICY_CHOICE[next(iter(policies))] is not None:
        # a fixed policy plays one choice in every trial: checked once, no per-trial stacks
        choices = _choose(session.config.variant, attacks[0], forward)
    else:
        choices = [_choose(session.config.variant, attack, forward) for attack in attacks]
    toggled = maintenance_step(session.states, session.config.angles, choices, session.round_index)
    protocol.end_round(session, toggled)
    return [choices] * len(attacks) if isinstance(choices, str) else choices


def attack_decode_and_forward(
    session: ProtocolSession, attacks: Sequence[AttackState]
) -> np.ndarray:
    """One man-in-the-middle delivery for a round after the split, every trial.

    Bob disentangles the intercepted message with bt, reads his raw bit, then
    re-encodes a counterfeit through b for Charlie's honest decode.  On even
    rounds the counterfeit is raw XOR u for a fresh coin u, which Bob later
    claims as his share: Charlie's read then XORs with u to Alice's bit no
    matter which branch the pattern is in.  Returns Charlie's reads.
    """
    if session.pending_q is None:
        raise ValueError("no message in flight; Alice must encode first")
    if session.round_index <= 2:
        raise ValueError("decode-and-forward applies to rounds after the split")
    odd = session.parity == "odd"
    bob_rngs = [attack.rng for attack in attacks]
    st = qcore.permute(session.states, BOB_DECODE_STEPS[odd])
    (r1, r2), st = qcore.measure_reset(st, protocol.MESSAGE_LABELS, bob_rngs)
    if odd:
        raw = r1
        forward_bits = claims = raw
    else:
        raw = r1 ^ r2
        claims = np.array([int(attack.rng.integers(0, 2)) for attack in attacks])
        forward_bits = raw ^ claims
    st = qcore.permute(st, COUNTERFEIT_STEPS, (forward_bits,))
    (charlie,), session.states = qcore.measure_reset(st, ("m2",), session.measurement_draws(1))

    round_index, parity = session.round_index, session.parity
    for attack, raw_bit, claim in zip(attacks, raw.tolist(), claims.tolist()):
        attack.records[round_index] = RawRecord(
            round_index=round_index,
            parity=parity,
            raw=raw_bit,
            claim=claim,
            psi_tagged=parity == "even",
        )
    protocol.append_records(session, claims, charlie, fraud_pattern_fidelity(session, attacks))
    return charlie


def record_honest_round(attack: AttackState, round_index: int, parity: str, bob_bit: int) -> None:
    """Pre-split rounds Bob played honestly still go into his ledger."""
    attack.records[round_index] = RawRecord(
        round_index=round_index,
        parity=parity,
        raw=bob_bit,
        claim=bob_bit,
        psi_tagged=False,
    )


def resolve_from_round2(attack: AttackState, alice_bit: int) -> PatternHypothesis:
    """Hearing q2 itself names the pattern outright."""
    if attack.pattern_hypothesis is PatternHypothesis.UNKNOWN:
        attack.pattern_hypothesis = (
            PatternHypothesis.PHI if alice_bit == 0 else PatternHypothesis.PSI
        )
    attack.round2_bit = alice_bit
    return attack.pattern_hypothesis


def resolve_pattern(attack: AttackState, announcement: tuple[int, int]) -> PatternHypothesis:
    """Update the pattern hypothesis from one announced (round, alice_bit).

    Only rounds whose record is family-tagged carry pattern information: a
    tagged raw equal to the announcement means the Phi branch, a complemented
    one the Psi branch.  Untagged rounds (odd rounds in protocol runs, where
    both branches show a Phi-family pair) are consistency checks only.  Once
    resolved the hypothesis never reverts.
    """
    round_index, alice_bit = announcement
    rec = attack.records.get(round_index)
    if rec is None:
        raise KeyError(f"no recorded bit for announced round {round_index}")
    if rec.psi_tagged and attack.pattern_hypothesis is PatternHypothesis.UNKNOWN:
        attack.pattern_hypothesis = (
            PatternHypothesis.PHI if rec.raw == alice_bit else PatternHypothesis.PSI
        )
    return attack.pattern_hypothesis
