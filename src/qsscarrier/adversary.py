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
PhiMinus forms (the q2 = 0 branch stays PhiPlus), so Bob's reads of the
even rounds are tagged: the complement applies exactly to them once the
pattern hypothesis is resolved from the public announcements, one array
rule over every trial (pattern_hypotheses).

Maintenance choices Bob can play at each toggle: the plain Hadamard pair, the
conjugate pair h(-ta) (x) h(-tc), or the transpose pair h(ta)^T (x) h(tc)^T
(inverses of these on inverse-direction rounds).
"""

from __future__ import annotations

import enum
import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import gates, protocol, qcore
from .gates import BellKind
from .protocol import ProtocolSession, Variant

RESIDUAL_TOL = 1e-8
SYNTHESIS_FAIL_TOL = 1e-6

KEPT_LABEL = "bt"
ATTACK_EXTRA_LABELS = (KEPT_LABEL,)
# the state the split leaves in m2, the counterfeit Bob forwards in round 2
_BLANK = gates.read_only(np.array([1.0, 0.0]))


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
                "residuals": list(self.residuals),
                "unitarity_defect": self.unitarity_defect,
            }
        )


# pattern hypotheses by code; a resolved code is the round-2 bit it names
HYPOTHESES = (PatternHypothesis.PHI, PatternHypothesis.PSI, PatternHypothesis.UNKNOWN)
UNRESOLVED = HYPOTHESES.index(PatternHypothesis.UNKNOWN)


@dataclass
class AttackState:
    """Bob's ledger for trials played in lockstep, one row per trial.

    raw_bits runs over rounds 1..num_rounds, column r - 1 for round r, and
    holds what Bob read (NO_READ where he read nothing).  The shares he
    claims are the session's Bob column, so the ledger does not keep them.
    Reads of even rounds went through a Psi-family pair in the q2 = 1
    branch, so they are the tagged ones: their complement applies once the
    pattern hypothesis is resolved.  hypotheses holds each trial's code into
    HYPOTHESES, UNRESOLVED until the announcements set it
    (pattern_hypotheses).

    Bob's private stream comes drawn ahead, as the values of the draws
    bob_kinds names (see draw): two measurement uniforms per
    decode-and-forward round (read_draws), the u/v coin uniforms of a
    guessing policy (coin_draws) and his even-round claim bits, the last of
    them kept for an alice-first round-2 claim (claim_draws).
    """

    maintenance_policy: MaintenancePolicy
    read_draws: np.ndarray
    coin_draws: np.ndarray
    claim_draws: np.ndarray
    raw_bits: np.ndarray
    hypotheses: np.ndarray
    # experiment-side truth for instrumentation; Bob's logic never reads it
    q2_truth: np.ndarray

    @classmethod
    def draw(
        cls,
        policy: MaintenancePolicy,
        num_rounds: int,
        values: np.ndarray,
        q2_truth: np.ndarray | None = None,
    ) -> "AttackState":
        """A fresh ledger for num_rounds rounds whose trial t takes Bob's
        whole stream from values[t]: the values of the draws
        bob_kinds(policy, num_rounds) names, integers(0, 2) as 0.0 or 1.0."""
        if num_rounds < 2:
            raise ValueError("the split happens in round 2; need at least 2 rounds")
        steps = _bob_schedule(num_rounds, POLICY_CHOICE[policy] is None)
        count = len(steps.kinds)
        if values.dtype != np.float64 or values.ndim != 2 or values.shape[1] != count:
            raise ValueError(f"Bob's draws need {count} float64 per trial; got {values.dtype} {values.shape}")
        trials = len(values)
        unset = np.full(trials, protocol.NO_READ, dtype=np.int64)
        return cls(
            maintenance_policy=policy,
            read_draws=values[:, steps.reads],
            coin_draws=values[:, steps.coins],
            claim_draws=values[:, steps.claims].astype(np.int64),
            raw_bits=np.full((trials, num_rounds), protocol.NO_READ, dtype=np.int64),
            hypotheses=np.full(trials, UNRESOLVED, dtype=np.int64),
            q2_truth=unset if q2_truth is None else q2_truth.copy(),
        )

    def learned_bits(self) -> np.ndarray:
        """Per trial and round, Bob's best current value for Alice's bit;
        NO_READ where he has none.

        Tagged reads are complemented where the hypothesis resolved to Psi.
        Round 2's bit is the resolved hypothesis itself: the split bit is
        the pattern.
        """
        resolved = self.hypotheses != UNRESOLVED
        learned = self.raw_bits.copy()
        tagged = learned[:, 1::2]  # even rounds
        psi = np.where(resolved, self.hypotheses, 0)[:, np.newaxis]
        learned[:, 1::2] = np.where(tagged == protocol.NO_READ, protocol.NO_READ, tagged ^ psi)
        learned[:, 1] = np.where(resolved, self.hypotheses, protocol.NO_READ)
        return learned


# ---------------------------------------------------------------------------
# Bob's stream, drawn ahead


def bob_kinds(policy: MaintenancePolicy, num_rounds: int) -> str:
    """Bob's draws in an attacked run of num_rounds rounds, in the order the
    run takes them: random() as "d", integers(0, 2) as "i"."""
    return _bob_schedule(num_rounds, POLICY_CHOICE[policy] is None).kinds


@dataclass(frozen=True)
class _BobSchedule:
    """Bob's draws in the order a run takes them, as draw kinds, with the
    positions of each purpose's draws."""

    kinds: str
    reads: np.ndarray
    coins: np.ndarray
    claims: np.ndarray


@functools.lru_cache(maxsize=64)
def _bob_schedule(num_rounds: int, tosses: bool) -> _BobSchedule:
    """Bob's draws in an attacked run of num_rounds rounds.

    A guessing policy (tosses) draws a coin for the inverse toggle ending
    round 2 and one for each forward toggle, reused by the inverse toggle
    after it.  Every round from 3 on draws his two measurements; an even one
    then draws his claim.  Last comes the claim an alice-first Bob makes for
    round 2, which is read only if round 2 is announced.
    """
    steps = "c" if tosses else ""
    for r in range(3, num_rounds + 1):
        steps += "rr" + ("b" if r % 2 == 0 else "c" if tosses else "")
    steps += "b"
    at = np.frombuffer(steps.encode(), dtype="S1")
    return _BobSchedule(
        kinds=steps.replace("r", "d").replace("c", "d").replace("b", "i"),
        reads=np.flatnonzero(at == b"r"),
        coins=np.flatnonzero(at == b"c"),
        claims=np.flatnonzero(at == b"b"),
    )


# ---------------------------------------------------------------------------
# synthesis


def _encoded_round2_state(q: int) -> qcore.StateVector:
    """Even-parity carrier plus Alice's round-2 encoding of q, canonical labels."""
    rest = np.zeros(4)
    rest[0] = 1.0
    amps = np.kron(gates.carrier_amplitudes(gates.CarrierKind.EVEN_PARITY), rest)
    state = qcore.from_amplitudes(("a", "b", "c", "m1", "m2"), amps)
    return protocol.encoded_state(state, "even", q)


def _target_split_state(q: int) -> qcore.StateVector:
    """Bell(a, m1) x Bell(b, c) x blank(m2); PhiPlus pairs for q=0, PsiPlus for q=1."""
    bell = gates.bell_amplitudes(BellKind.PHI_PLUS if q == 0 else BellKind.PSI_PLUS).reshape(2, 2)
    amps = np.einsum("am,bc,x->abcmx", bell, bell, _BLANK).reshape(-1)
    return qcore.from_amplitudes(("a", "b", "c", "m1", "m2"), amps)


def _group_bm1m2_by_ac(state: qcore.StateVector) -> np.ndarray:
    """Reshape a canonical 5-qubit state into an 8x4 matrix: rows (b,m1,m2), cols (a,c)."""
    t = state.amps.reshape((2,) * 5)
    return np.transpose(t, (1, 3, 4, 0, 2)).reshape(8, 4)


@functools.cache
def synthesize_split_unitary() -> SplitUnitary:
    """Solve for the splitting operator from its two input/output constraints.

    Each constraint pins the action of U (x) I on one 32-dim state, giving a
    rank-4 linear system over U's 64 entries; the orthogonal complement is
    completed orthonormally and the result is polished by polar projection.
    Raises if either constraint cannot be met, naming the offending one.
    The operator is solved once per process and shared; its matrix is
    read-only.
    """
    ins = [_encoded_round2_state(q) for q in (0, 1)]
    outs = [_target_split_state(q) for q in (0, 1)]
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
        out["+".join(keep)] = qcore.trace_distance(r0, r1).item()
    return out


# ---------------------------------------------------------------------------
# attack execution


def execute_split(
    session: ProtocolSession,
    su: SplitUnitary,
    policy: MaintenancePolicy,
    draws: np.ndarray,
) -> AttackState:
    """Apply the splitting operator during round 2 in every trial and keep m1 as bt.

    Requires the round-2 message to be encoded but not yet delivered, and an
    idle bt slot in every trial.  The label swap m1 <-> bt is bookkeeping
    only; afterwards bt holds the Bell half paired with a, m1 is a fresh |0>,
    and m2 holds the blank counterfeit.  draws holds the values of Bob's
    draws for the session's rounds, one row per trial (AttackState.draw).
    Returns the attack ledger of every trial.
    """
    if session.round_index != 2 or session.pending_q is None:
        raise ValueError("split must run on the encoded, undelivered round-2 state")
    if KEPT_LABEL not in session.states.labels:
        raise ValueError(f"register has no {KEPT_LABEL!r} slot for the kept qubit")
    if len(draws) != session.trials:
        raise ValueError(f"{len(draws)} rows of Bob's draws for {session.trials} trials")
    occupied = qcore.probability_of_one(session.states, KEPT_LABEL) > 1e-12
    qcore.check_trials(occupied, f"{KEPT_LABEL!r} slot is occupied")
    st = qcore.apply_unitary(session.states, su.matrix, ["b", "m1", "m2"])
    session.states = st.relabeled({"m1": KEPT_LABEL, KEPT_LABEL: "m1"})
    return AttackState.draw(policy, session.config.num_rounds, draws, q2_truth=session.pending_q)


def pattern_pair_state(kind_at: BellKind, kind_bc: BellKind) -> qcore.StateVector:
    """Four-qubit fraud pattern: one Bell pair on (a, bt), Alice's side, and
    one on (b, c), Charlie's side."""
    b1 = gates.bell_amplitudes(kind_at).reshape(2, 2)
    b2 = gates.bell_amplitudes(kind_bc).reshape(2, 2)
    return qcore.from_amplitudes(("a", KEPT_LABEL, "b", "c"), np.einsum("at,bc->atbc", b1, b2).reshape(-1))


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
        rows.append(qcore.from_amplitudes(labels, amps.reshape(-1)).amps[0])
    return gates.read_only(np.stack(rows))


def fraud_pattern_fidelity(session: ProtocolSession, attack: AttackState) -> np.ndarray:
    """Per trial, the fidelity with the intact-orbit pattern the pairs should
    be in right now (truth-side instrumentation): PhiPlus pairs for q2 = 0,
    and for q2 = 1 PsiPlus pairs in even rounds, PhiMinus in odd ones."""
    table = _pattern_table(session.states.labels)
    q2_row = 1 if session.parity == "even" else 2
    which = np.where(attack.q2_truth == 0, 0, q2_row)
    return qcore.fidelity(session.states, session.states.with_rows(table[which]))


def forward_round2_counterfeit(session: ProtocolSession, attack: AttackState) -> np.ndarray:
    """Send the blank on to Charlie and let him decode round 2 honestly, every trial.

    Bob rotates the blank to |+> first: Charlie's decode CNOT is inert on an
    X eigenstate, so his measurement is uniform noise and the (b, c) pair
    survives.  Forwarding the raw |0> would let that CNOT copy c and collapse
    the pair.  Closes round 2 (Bob has no bit of his own here) and returns
    Charlie's reads.
    """
    if session.round_index != 2 or session.pending_q is None:
        raise ValueError("round-2 counterfeit must follow the split in round 2")
    st = qcore.apply_one_qubit_gates(session.states, (("m2", gates.H),))
    st = qcore.permute(st, (("c", "m2", None),))
    (bits,), session.states = qcore.measure_reset(st, ("m2",), session.measurement_draws(1))
    protocol.close_round(session, None, bits, fraud_pattern_fidelity(session, attack))
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


@functools.lru_cache(maxsize=128)
def _choice_stack(angles: gates.ThetaTriple | None, choices: tuple[str, ...], forward: bool) -> np.ndarray:
    """The choices' (bt, b) operators stacked, one (2, 2, 2, 2) slice per choice."""
    return gates.read_only(np.stack([choice_operators(angles, choice, forward) for choice in choices]))


def maintenance_step(
    state: qcore.StateVector,
    angles: gates.ThetaTriple | None,
    choices: str | Sequence[str],
    round_index: int,
) -> qcore.StateVector:
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
        names = np.asarray(choices)
        distinct = tuple(sorted(set(names.tolist())))
        picks = np.zeros(names.shape, dtype=np.intp)
        for i, choice in enumerate(distinct[1:], start=1):
            picks[names == choice] = i
        picked = _choice_stack(angles, distinct, forward)[picks]
        on_bt, on_b = picked[:, 0], picked[:, 1]
    ops = (("a", on_a), ("c", on_c), (KEPT_LABEL, on_bt), ("b", on_b))
    return qcore.apply_one_qubit_gates(state, ops)


def maintain_carriers(session: ProtocolSession, attack: AttackState) -> list[str]:
    """End-of-round toggle for attacked sessions, every trial.

    Alice and Charlie toggle a and c honestly; Bob applies his maintenance
    choice on (bt, b) instead of the honest toggle on b, one choice per trial.
    A guessing policy plays one fair u/v coin per toggle-direction pair: the
    coin drawn for a forward toggle serves the inverse one after it, and the
    lone inverse toggle ending round 2 has its own.  Checks every state's
    norm and advances the round.  Returns the choices played ("h", "u" or
    "v"), one per trial.
    """
    if session.pending_q is not None:
        raise ValueError("cannot toggle with a message still in flight")
    policy = attack.maintenance_policy
    choice = POLICY_CHOICE[policy]
    if session.config.variant is Variant.PLAIN and choice != "h":
        raise ValueError(f"policy {policy.value!r} needs toggle angles; plain protocol has none")
    if choice is None:
        # toss_choice's rule: "u" below one half
        coins = attack.coin_draws[:, (session.round_index - 1) // 2]
        choices = np.where(coins < 0.5, "u", "v")
    else:
        choices = choice
    toggled = maintenance_step(session.states, session.config.angles, choices, session.round_index)
    protocol.end_round(session, toggled)
    return [choices] * session.trials if isinstance(choices, str) else choices.tolist()


def attack_decode_and_forward(session: ProtocolSession, attack: AttackState) -> np.ndarray:
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
    r = session.round_index
    odd = session.parity == "odd"
    st = qcore.permute(session.states, BOB_DECODE_STEPS[odd])
    first = 2 * (r - 3)  # his two measurement uniforms of round r
    (r1, r2), st = qcore.measure_reset(st, protocol.MESSAGE_LABELS, attack.read_draws[:, first : first + 2])
    if odd:
        raw = r1
        forward_bits = claims = raw
    else:
        raw = r1 ^ r2
        claims = attack.claim_draws[:, (r - 4) // 2]
        forward_bits = raw ^ claims
    st = qcore.permute(st, COUNTERFEIT_STEPS, (forward_bits,))
    (charlie,), session.states = qcore.measure_reset(st, ("m2",), session.measurement_draws(1))
    record_reads(attack, r, raw)
    protocol.close_round(session, claims, charlie, fraud_pattern_fidelity(session, attack))
    return charlie


def record_reads(attack: AttackState, round_index: int, raw) -> None:
    """Bob's read of one round, every trial."""
    attack.raw_bits[:, round_index - 1] = raw


def pattern_hypotheses(raw_bits: np.ndarray, announced: np.ndarray, alice_bits: np.ndarray) -> np.ndarray:
    """Every trial's pattern hypothesis code once the announcements are out.

    raw_bits (Bob's reads), announced (the opened rounds) and alice_bits
    (her bits) are (trials, rounds) columns, column r - 1 for round r.  Only
    tagged rounds, the even ones, carry pattern information: a raw read
    equal to Alice's bit means the Phi branch, a complemented one the Psi
    branch.  Hearing q2 itself names the pattern outright, as a raw read of 0
    would.  Rounds open in ascending order and a resolved hypothesis never
    reverts, so the first opened even round decides; with none opened the
    code stays UNRESOLVED.  Raises if Bob has no read of an opened round
    other than round 2, the one he splits.
    """
    unread = announced & (raw_bits == protocol.NO_READ)
    unread[:, 1] = False  # round 2
    if unread.any():
        round_index = int(np.flatnonzero(unread.any(axis=0))[0]) + 1
        raise KeyError(f"no recorded bit for announced round {round_index}")
    heard = announced[:, 1::2]  # even rounds
    raw = raw_bits[:, 1::2].copy()
    raw[:, 0] = 0  # round 2: Alice's bit is the pattern code
    first = heard.argmax(axis=1)[:, np.newaxis]
    codes = np.take_along_axis(raw ^ alice_bits[:, 1::2], first, axis=1)[:, 0]
    return np.where(heard.any(axis=1), codes, UNRESOLVED)
