"""Honest protocol sessions: encoding, decoding, disguise, restoration.

The two round shapes carry the secret differently.  Odd rounds give both
receivers the bit directly; even rounds give each receiver uniform noise
whose XOR is the bit.  Either way the in-flight message qubits must look
identical for q = 0 and q = 1, and the carrier must come back exactly.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsscarrier import gates, protocol, qcore
from qsscarrier.gates import CarrierKind, ThetaTriple
from qsscarrier.protocol import (
    AnnounceOrder,
    ProtocolConfig,
    RoundRecord,
    Transcript,
    Variant,
    deliver_and_decode,
    encode_round,
    encoded_state,
    init_session,
    parity_of,
    toggle_carrier,
    toggle_ops,
)

HARDENED = ThetaTriple.from_ab(2 * math.pi / 3, 2 * math.pi / 3)


def theta_config(**kw) -> ProtocolConfig:
    return ProtocolConfig(variant=Variant.THETA, angles=HARDENED, **kw)


def seeded_session(config: ProtocolConfig) -> protocol.ProtocolSession:
    """One trial whose measurements read what default_rng(config.rng_seed)
    draws: two uniforms per round."""
    uniforms = np.random.default_rng(config.rng_seed).random((1, 2 * config.num_rounds))
    return init_session(config, uniforms)


def run_protocol(config: ProtocolConfig) -> Transcript:
    """An honest session played round by round from default_rng(config.rng_seed):
    the bits first, then two measurement uniforms per round."""
    rng = np.random.default_rng(config.rng_seed)
    bits = rng.integers(0, 2, size=config.num_rounds)
    session = init_session(config, rng.random((1, 2 * config.num_rounds)))
    for q in bits:
        encode_round(session, int(q))
        deliver_and_decode(session)
        toggle_carrier(session)
    return session.transcripts()[0]


def test_config_validation_messages():
    with pytest.raises(ValueError, match="num_rounds"):
        ProtocolConfig(num_rounds=0)
    with pytest.raises(ValueError, match="announce_fraction"):
        ProtocolConfig(announce_fraction=0.0)
    with pytest.raises(ValueError, match="announce_fraction"):
        ProtocolConfig(announce_fraction=1.5)
    with pytest.raises(ValueError, match="requires toggle angles"):
        ProtocolConfig(variant=Variant.THETA)
    with pytest.raises(ValueError, match="takes no toggle angles"):
        ProtocolConfig(variant=Variant.PLAIN, angles=HARDENED)
    with pytest.raises(ValueError, match="degenerate"):
        ProtocolConfig(variant=Variant.THETA, angles=ThetaTriple(0.0, 0.0, 0.0))


def test_parity_of():
    assert parity_of(1) == "odd"
    assert parity_of(2) == "even"
    assert [parity_of(i) for i in (3, 4, 5)] == ["odd", "even", "odd"]


def test_init_session_layout():
    s = seeded_session(ProtocolConfig())
    assert s.states.labels == ("a", "b", "c", "m1", "m2")
    assert s.round_index == 1 and s.parity == "odd"
    ghz = protocol.expected_full_state(s)
    assert qcore.fidelity(s.states, ghz) == pytest.approx(1.0)
    s2 = init_session(ProtocolConfig(), np.zeros((1, 40)), extra_labels=("bt",))
    assert s2.states.labels == ("a", "b", "c", "bt", "m1", "m2")


def test_odd_round_delivers_bit_to_both():
    for q in (0, 1):
        s = seeded_session(ProtocolConfig(rng_seed=q))
        encode_round(s, q)
        (bob,), (charlie,) = deliver_and_decode(s)
        assert bob == q and charlie == q
        assert s.transcripts()[0].records[-1].carrier_fidelity >= 1 - 1e-10


def test_even_round_xor_rule():
    # Individually uniform reads whose XOR is the secret.
    for seed in range(8):
        s = seeded_session(ProtocolConfig(rng_seed=seed))
        encode_round(s, 0)
        deliver_and_decode(s)
        toggle_carrier(s)
        q = seed % 2
        encode_round(s, q)
        (bob,), (charlie,) = deliver_and_decode(s)
        assert bob ^ charlie == q
        assert s.transcripts()[0].records[-1].carrier_fidelity >= 1 - 1e-10


def test_even_round_single_reads_are_uniform():
    s = seeded_session(ProtocolConfig(rng_seed=0))
    encode_round(s, 0)
    deliver_and_decode(s)
    toggle_carrier(s)
    for q in (0, 1):
        st = encoded_state(s.states, "even", q)
        # decode first, then look at each receiver's marginal alone
        st = qcore.apply_unitary(st, gates.CNOT, ["b", "m1"])
        st = qcore.apply_unitary(st, gates.CNOT, ["c", "m2"])
        assert qcore.probability_of_one(st, "m1") == pytest.approx(0.5, abs=1e-12)
        assert qcore.probability_of_one(st, "m2") == pytest.approx(0.5, abs=1e-12)


def test_in_flight_messages_are_disguised():
    # The reduced message state must not depend on the secret bit.
    s = seeded_session(ProtocolConfig(rng_seed=3))
    for parity in ("odd", "even"):
        rho0 = qcore.reduced_density(encoded_state(s.states, parity, 0), ["m1", "m2"])
        rho1 = qcore.reduced_density(encoded_state(s.states, parity, 1), ["m1", "m2"])
        assert qcore.trace_distance(rho0, rho1) < 1e-12


def test_toggle_alternates_carrier_kind():
    s = seeded_session(ProtocolConfig(rng_seed=0))
    assert s.carrier_kind is CarrierKind.GHZ
    encode_round(s, 1)
    deliver_and_decode(s)
    toggle_carrier(s)
    assert s.carrier_kind is CarrierKind.EVEN_PARITY
    assert s.round_index == 2
    assert qcore.fidelity(s.states, protocol.expected_full_state(s)) >= 1 - 1e-10


def _toggle_triple(angles, round_index):
    """The 8x8 end-of-round toggle, as one product of the three factors."""
    on_a, on_b, on_c = toggle_ops(angles, round_index)
    return np.kron(np.kron(on_a, on_b), on_c)


def test_theta_toggle_uses_inverse_on_even_rounds():
    fwd = _toggle_triple(HARDENED, 1)
    inv = _toggle_triple(HARDENED, 2)
    assert np.abs(inv - fwd.conj().T).max() < 1e-15
    plain = _toggle_triple(None, 2)
    h3 = np.kron(np.kron(gates.H, gates.H), gates.H)
    assert np.abs(plain - h3).max() < 1e-15


def test_sequencing_errors():
    s = seeded_session(ProtocolConfig(rng_seed=0))
    with pytest.raises(ValueError, match="no message in flight"):
        deliver_and_decode(s)
    encode_round(s, 0)
    with pytest.raises(ValueError, match="never delivered"):
        encode_round(s, 1)
    with pytest.raises(ValueError, match="in flight"):
        toggle_carrier(s)
    with pytest.raises(ValueError, match="q must be 0 or 1"):
        encode_round(seeded_session(ProtocolConfig(rng_seed=0)), 2)


@pytest.mark.parametrize("cfg", [ProtocolConfig(num_rounds=10, rng_seed=4),
                                 theta_config(num_rounds=10, rng_seed=4)])
def test_ten_round_honest_run(cfg):
    # Oracle for a full honest session: every round decodes correctly and
    # the carrier survives every round exactly.
    transcript = run_protocol(cfg)
    assert len(transcript.records) == 10
    for rec in transcript.records:
        if rec.parity == "odd":
            assert rec.bob_bit == rec.q and rec.charlie_bit == rec.q
        else:
            assert rec.bob_bit ^ rec.charlie_bit == rec.q
        assert rec.carrier_fidelity >= 1 - 1e-10


def test_run_protocol_is_deterministic():
    cfg = theta_config(num_rounds=6, rng_seed=12)
    a = run_protocol(cfg).to_jsonl()
    b = run_protocol(cfg).to_jsonl()
    assert a == b


def test_transcript_jsonl_round_trip():
    cfg = ProtocolConfig(num_rounds=5, rng_seed=9)
    t = run_protocol(cfg)
    lines = t.to_jsonl().splitlines()
    assert [json.loads(line) for line in lines] == [r.to_json_obj() for r in t.records]


@st.composite
def transcripts(draw):
    """Well-formed transcripts: rounds 1..n, any bits, Bob's read or none."""
    n = draw(st.integers(min_value=0, max_value=40))
    bit = st.integers(min_value=0, max_value=1)
    records = [
        RoundRecord(i, parity_of(i), draw(bit), draw(st.none() | bit), draw(bit),
                    draw(st.floats(min_value=0.0, max_value=1.0)))
        for i in range(1, n + 1)
    ]
    return Transcript(num_rounds=n, records=records)


# an attacked run's shape: round 2 has no Bob read
@example(Transcript(3, [RoundRecord(1, "odd", 1, 1, 1, 1.0),
                        RoundRecord(2, "even", 0, None, 1, 0.9999999999999996),
                        RoundRecord(3, "odd", 0, 1, 0, 1.0)]))
@settings(max_examples=50, deadline=None)
@given(t=transcripts())
def test_transcript_jsonl_round_trip_property(t):
    text = t.to_jsonl()
    # one line per record, then a newline; an empty transcript is the newline alone
    assert text.endswith("\n") and text.count("\n") == max(len(t.records), 1)
    assert [json.loads(line) for line in text.splitlines() if line] == [r.to_json_obj() for r in t.records]


def test_announce_order_values():
    assert AnnounceOrder.ALICE_FIRST.value == "alice-first"
    assert AnnounceOrder.BOB_LAST.value == "bob-last"
