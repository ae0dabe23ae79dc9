"""Three-party secret sharing over a reusable entangled carrier.

Alice holds qubit a, Bob b, Charlie c; the trio (a, b, c) starts in the GHZ
state and is toggled between GHZ and the even-parity form at the end of every
round.  Each round Alice entangles a fresh two-qubit message (m1 to Bob, m2 to
Charlie) with her carrier qubit:

  odd rounds   message |qq>, CNOT(a->m1) and CNOT(a->m2); each receiver reads
               q on his own after disentangling with his carrier qubit.
  even rounds  message (|q0> + |qbar 1>)/sqrt2, CNOT(a->m1) only; the XOR of
               the two readings is q, so neither receiver learns it alone.

Decoding (CNOT(b->m1), CNOT(c->m2), measure) restores the carrier exactly, so
the same trio is reused every round.  The in-flight message marginal is
independent of q, which is what hides the bit from an eavesdropper.

The toggle is either the plain Hadamard triple or, in the hardened variant,
the phased triple h(ta) x h(tb) x h(tc) with ta+tb+tc = 0 mod 2pi (forward
after odd rounds, inverse after even rounds).
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import gates, qcore
from .gates import CarrierKind, ThetaTriple

CARRIER_LABELS = ("a", "b", "c")
MESSAGE_LABELS = ("m1", "m2")
RESET_TOL = 1e-9
# a round column's value where the party read nothing (Bob in the round he splits)
NO_READ = -1


class Variant(enum.Enum):
    PLAIN = "plain"
    THETA = "theta"


class AnnounceOrder(enum.Enum):
    """Order of public claims inside one announced round.

    ALICE_FIRST: Alice, Bob, Charlie.  BOB_LAST: Alice, Charlie, Bob.
    """

    ALICE_FIRST = "alice-first"
    BOB_LAST = "bob-last"


@dataclass(frozen=True)
class ProtocolConfig:
    variant: Variant = Variant.PLAIN
    angles: ThetaTriple | None = None
    num_rounds: int = 20
    rng_seed: int = 0
    announce_fraction: float = 0.2
    announce_order: AnnounceOrder = AnnounceOrder.BOB_LAST

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if not 0.0 < self.announce_fraction <= 1.0:
            raise ValueError(f"announce_fraction must lie in (0, 1], got {self.announce_fraction}")
        if self.variant is Variant.THETA:
            if self.angles is None:
                raise ValueError("theta variant requires toggle angles")
            self.angles.require_hardened()
        elif self.angles is not None:
            raise ValueError("plain variant takes no toggle angles")


@dataclass
class RoundRecord:
    round_index: int
    parity: str  # "odd" | "even"
    q: int
    bob_bit: int | None
    charlie_bit: int
    carrier_fidelity: float

    def to_json_obj(self) -> dict:
        return {
            "round": self.round_index,
            "parity": self.parity,
            "q": self.q,
            "bob": self.bob_bit,
            "charlie": self.charlie_bit,
            "carrier_fidelity": self.carrier_fidelity,
        }


@dataclass
class Transcript:
    num_rounds: int
    records: list[RoundRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_json_obj()) for r in self.records) + "\n"


def toggle_ops(angles: ThetaTriple | None, round_index: int) -> tuple[np.ndarray, ...]:
    """The one-qubit toggles on (a, b, c) that end the given round, for the
    plain protocol (angles None) or a theta triple."""
    return _toggle_factors(angles, parity_of(round_index) == "odd")


@functools.lru_cache(maxsize=128)
def _toggle_factors(angles: ThetaTriple | None, forward: bool) -> tuple[np.ndarray, ...]:
    """Built and validated once per configuration and direction."""
    ops = (gates.H,) * 3 if angles is None else tuple(gates.h_theta(t) for t in angles.as_tuple())
    # even rounds toggle back with the inverse triple
    return tuple(gates.read_only(m if forward else m.conj().T) for m in ops)


@functools.lru_cache(maxsize=64)
def _carrier_state(labels: tuple[str, ...], kind: CarrierKind) -> qcore.StateVector:
    """Named carrier on (a, b, c), everything else |0>, in the given label layout."""
    if labels[:3] != CARRIER_LABELS:
        raise ValueError(f"register {labels} does not start with the carrier {CARRIER_LABELS}")
    rest = np.zeros(2 ** (len(labels) - 3))
    rest[0] = 1.0
    return qcore.from_amplitudes(labels, np.kron(gates.carrier_amplitudes(kind), rest))


@dataclass
class ProtocolSession:
    """Trials of one configuration played in lockstep, one state row each.

    Every trial sits at the same round and carrier form; each has its own
    protocol stream and its own in-flight bit.  The round values
    are columns of (trials, num_rounds) arrays, column r - 1 for round r:
    Alice's bits, Bob's and Charlie's reads (NO_READ where a party read
    nothing) and the carrier or pattern fidelities; transcripts() turns the
    closed rounds into records.  The protocol's measurements read their
    uniforms from the pre-drawn (trials, measurements) columns, in order.
    """

    config: ProtocolConfig
    states: qcore.StateVector
    carrier_kind: CarrierKind
    q_bits: np.ndarray
    bob_bits: np.ndarray
    charlie_bits: np.ndarray
    fidelities: np.ndarray
    uniforms: np.ndarray
    round_index: int = 1
    rounds_closed: int = 0
    pending_q: np.ndarray | None = None
    uniforms_read: int = 0

    @property
    def trials(self) -> int:
        return self.states.trials

    @property
    def parity(self) -> str:
        return parity_of(self.round_index)

    def transcripts(self) -> list[Transcript]:
        """Every trial's closed rounds as a transcript of the config's length."""
        n = self.rounds_closed
        rounds = range(1, n + 1)
        parities = [parity_of(i) for i in rounds]
        bobs = self.bob_bits[:, :n].astype(object)
        bobs[self.bob_bits[:, :n] == NO_READ] = None
        rows = zip(
            self.q_bits[:, :n].tolist(),
            bobs.tolist(),
            self.charlie_bits[:, :n].tolist(),
            self.fidelities[:, :n].tolist(),
        )
        return [
            Transcript(self.config.num_rounds, list(map(RoundRecord, rounds, parities, q, bob, charlie, fid)))
            for q, bob, charlie, fid in rows
        ]

    def measurement_draws(self, count: int) -> np.ndarray:
        """The next `count` pre-drawn columns, which the next `count` protocol
        measurements of every trial read."""
        stop = self.uniforms_read + count
        if stop > self.uniforms.shape[1]:
            raise ValueError(f"the {self.uniforms.shape[1]} pre-drawn measurement uniforms ran out")
        cols = self.uniforms[:, self.uniforms_read : stop]
        self.uniforms_read = stop
        return cols

    def require_uniforms_spent(self) -> None:
        """Raise if a pre-drawn measurement uniform was never read."""
        if self.uniforms_read != self.uniforms.shape[1]:
            left = self.uniforms.shape[1] - self.uniforms_read
            raise ValueError(f"{left} pre-drawn measurement uniform(s) per trial left unread")


def parity_of(round_index: int) -> str:
    return "odd" if round_index % 2 == 1 else "even"


def init_session(
    config: ProtocolConfig,
    uniforms: np.ndarray,
    extra_labels: tuple[str, ...] = (),
) -> ProtocolSession:
    """Fresh session: GHZ carrier on (a, b, c), message (and extras) in |0>.

    uniforms holds the protocol measurements' draws taken beforehand, one
    row per trial (see ProtocolSession); the session plays one trial per
    row, in lockstep.
    """
    if uniforms.ndim != 2:
        raise ValueError(f"uniforms need one row per trial, got shape {uniforms.shape}")
    labels = CARRIER_LABELS + tuple(extra_labels) + MESSAGE_LABELS
    trials = uniforms.shape[0]
    start = _carrier_state(labels, CarrierKind.GHZ)
    shape = (trials, config.num_rounds)
    return ProtocolSession(
        config=config,
        states=start.with_rows(np.tile(start.amps, (trials, 1))),
        carrier_kind=CarrierKind.GHZ,
        q_bits=np.zeros(shape, dtype=np.int64),
        bob_bits=np.zeros(shape, dtype=np.int64),
        charlie_bits=np.zeros(shape, dtype=np.int64),
        fidelities=np.zeros(shape),
        uniforms=uniforms,
    )


def _require_reset_messages(session: ProtocolSession) -> None:
    mass = qcore.excited_mass(session.states, MESSAGE_LABELS)
    qcore.check_trials(mass > RESET_TOL, "message qubits are not reset to |00>")


# Alice's encodings as qcore.permute steps (control, target, bit): bit 0 is q
ODD_ENCODE_STEPS = ((None, "m1", 0), (None, "m2", 0), ("a", "m1", None), ("a", "m2", None))
EVEN_ENCODE_STEPS = (("m1", "m2", None), (None, "m1", 0), ("a", "m1", None))
# the receivers' disentangling CNOTs before they read
DECODE_STEPS = (("b", "m1", None), ("c", "m2", None))


def encoded_state(state: qcore.StateVector, parity: str, q) -> qcore.StateVector:
    """Alice's full encoding of q applied to a state with reset messages.

    Odd rounds load |qq> and stitch both message qubits to the carrier; even
    rounds load (|q 0> + |qbar 1>)/sqrt2 and stitch only the first, so each
    receiver alone sees noise and the XOR of their reads recovers q.  q holds
    one bit per trial, or one bit for every trial.
    """
    if parity == "odd":
        return qcore.permute(state, ODD_ENCODE_STEPS, (q,))
    state = qcore.apply_one_qubit_gates(state, (("m1", gates.H),))
    return qcore.permute(state, EVEN_ENCODE_STEPS, (q,))


def encode_round(session: ProtocolSession, q) -> None:
    """Alice encodes q for the current round (one bit, or one per trial);
    leaves the message in flight."""
    qs = np.asarray(q)
    if qs.ndim > 1 or qs.size not in (1, session.trials) or not ((qs == 0) | (qs == 1)).all():
        raise ValueError(f"q must be 0 or 1 for each of {session.trials} trial(s), got {q!r}")
    if session.pending_q is not None:
        raise ValueError("previous round's message was never delivered")
    if session.round_index > session.config.num_rounds:
        raise ValueError(f"all {session.config.num_rounds} rounds of the session are played")
    _require_reset_messages(session)
    qs = np.repeat(qs.astype(np.int64).reshape(-1), session.trials // qs.size)
    session.states = encoded_state(session.states, session.parity, qs)
    session.pending_q = qs


def expected_full_state(session: ProtocolSession) -> qcore.StateVector:
    """Named carrier on (a, b, c), everything else |0>, same label layout."""
    return _carrier_state(session.states.labels, session.carrier_kind)


def close_round(
    session: ProtocolSession,
    bob_bits: np.ndarray | None,
    charlie_bits: np.ndarray,
    fidelities: np.ndarray,
) -> None:
    """Write the round's column in every trial: Alice's bit in flight, the
    reads (bob_bits None records no Bob read) and the fidelities."""
    col = session.round_index - 1
    session.q_bits[:, col] = session.pending_q
    session.bob_bits[:, col] = NO_READ if bob_bits is None else bob_bits
    session.charlie_bits[:, col] = charlie_bits
    session.fidelities[:, col] = fidelities
    session.rounds_closed = session.round_index
    session.pending_q = None


def deliver_and_decode(session: ProtocolSession) -> tuple[np.ndarray, np.ndarray]:
    """Bob and Charlie disentangle and read their message qubits, every trial.

    Restores the carrier (fidelity recorded per round), resets the message
    register, and closes the round.  Returns the per-trial
    (bob_bits, charlie_bits).
    """
    if session.pending_q is None:
        raise ValueError("no message in flight; call encode_round first")
    st = qcore.permute(session.states, DECODE_STEPS)
    (bob, charlie), session.states = qcore.measure_reset(st, MESSAGE_LABELS, session.measurement_draws(2))
    fids = qcore.fidelity(session.states, expected_full_state(session))
    close_round(session, bob, charlie, fids)
    return bob, charlie


def toggle_carrier(session: ProtocolSession) -> None:
    """End the round in every trial: flip the carrier form, check every
    state's norm, and advance the round counter."""
    if session.pending_q is not None:
        raise ValueError("cannot toggle with a message still in flight")
    ops = zip(CARRIER_LABELS, toggle_ops(session.config.angles, session.round_index))
    end_round(session, qcore.apply_one_qubit_gates(session.states, ops))


def end_round(session: ProtocolSession, toggled: qcore.StateVector) -> None:
    """Take the toggled states after checking every trial's norm, flip the
    carrier form and advance the round counter."""
    toggled.check_norm()
    session.states = toggled
    session.carrier_kind = (
        CarrierKind.EVEN_PARITY if session.carrier_kind is CarrierKind.GHZ else CarrierKind.GHZ
    )
    session.round_index += 1
