"""Batched trial engine: batch rows equal lone trials, kernels equal their
per-trial reference, and every vectorized check names the trial that broke it.

run_trials plays all of its trials in lockstep on one (trials, 2**n)
amplitude array.  A trial's arithmetic must not depend on how many trials
share its batch, so every row of a batch has to equal, field for field and
float for float, the same trial replayed alone from its spawned seed.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsscarrier import adversary, experiments, gates, protocol, qcore
from qsscarrier.adversary import MaintenancePolicy
from qsscarrier.experiments import (
    FLIPPED_MESSAGE_INDEX,
    run_attack_trial,
    run_honest_trial,
    run_trials,
    survival_probability,
    symmetric_triple,
)
from qsscarrier.gates import BellKind
from qsscarrier.protocol import AnnounceOrder, ProtocolConfig, Variant

THETA_POLICIES = list(MaintenancePolicy)


@st.composite
def engine_cases(draw):
    variant = draw(st.sampled_from([Variant.PLAIN, Variant.THETA]))
    angles = None
    if variant is Variant.THETA:
        # symmetric triples (g, -2g, g) stay hardened away from multiples of pi/2
        g = draw(st.sampled_from([0.3, 1.0, 2 * math.pi / 3, 2.5, 4.0]))
        angles = symmetric_triple(g)
    config = ProtocolConfig(
        variant=variant,
        angles=angles,
        num_rounds=draw(st.integers(min_value=2, max_value=12)),
        announce_fraction=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        announce_order=draw(st.sampled_from(list(AnnounceOrder))),
    )
    policies = [None, MaintenancePolicy.PLAIN_HADAMARD]
    if variant is Variant.THETA:
        policies = [None] + THETA_POLICIES
    policy = draw(st.sampled_from(policies))
    instrument = policy is None and draw(st.booleans())
    trials = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return config, policy, instrument, trials, seed


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=engine_cases())
def test_batch_rows_equal_lone_trials_and_worker_pool(case):
    config, policy, instrument, trials, seed = case
    batch = run_trials(config, trials, base_seed=seed, policy=policy, instrument_disguise=instrument)
    children = np.random.SeedSequence(seed).spawn(trials)
    for row, child in zip(batch, children):
        if policy is None:
            alone = run_honest_trial(config, child, instrument_disguise=instrument)
        else:
            alone = run_attack_trial(config, policy, child)
        assert alone == row
    pooled = run_trials(config, trials, base_seed=seed, policy=policy,
                        instrument_disguise=instrument, workers=2)
    assert pooled == batch


# kernels ---------------------------------------------------------------------


def _random_batch(rng, labels, trials):
    n = 2 ** len(labels)
    amps = rng.normal(size=(trials, n)) + 1j * rng.normal(size=(trials, n))
    return qcore.StateVector(tuple(labels), amps / np.linalg.norm(amps, axis=1, keepdims=True))


def _row(batch, trial):
    """One trial's state, validated as a state of its own."""
    return qcore.StateVector(batch.labels, batch.amps[trial : trial + 1])


def _random_unitary(rng, dim):
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u


def _tensordot_reference(state, matrix, targets):
    """Per-trial reference gate: contract the matrix into the target axes."""
    k = len(targets)
    axes = [state.position(t) for t in targets]
    tensor = state.amps.reshape((2,) * state.num_qubits)
    t = np.tensordot(matrix.reshape((2,) * (2 * k)), tensor, axes=(range(k, 2 * k), axes))
    return np.moveaxis(t, range(k), axes).reshape(-1)


@pytest.mark.parametrize("seed", range(4))
def test_batch_kernels_equal_lone_kernels_and_reference(seed):
    rng = np.random.default_rng(seed)
    labels = ("a", "b", "c", "d", "e")
    batch = _random_batch(rng, labels, 7)
    ops = [
        (_random_unitary(rng, 2), ["c"]),
        (np.stack([_random_unitary(rng, 2) for _ in range(7)]), ["a"]),
        (gates.CNOT, ["e", "b"]),
        (gates.X, ["d"]),
        (_random_unitary(rng, 4), ["d", "a"]),
        (_random_unitary(rng, 8), ["b", "e", "c"]),
    ]
    for matrix, targets in ops:
        out = qcore.apply_unitary(batch, matrix, targets)
        for t in range(batch.trials):
            m = matrix[t] if matrix.ndim == 3 else matrix
            lone = qcore.apply_unitary(_row(batch, t), m, targets)
            assert np.array_equal(lone.amps, out.amps[t : t + 1])
            assert np.abs(_tensordot_reference(_row(batch, t), m, targets) - lone.amps).max() < 1e-12
        batch = out

    uniforms = np.array([np.random.default_rng(100 + t).random(1) for t in range(batch.trials)])
    bits, collapsed = qcore.measure(batch, "c", uniforms)
    for t in range(batch.trials):
        bit, lone = qcore.measure(_row(batch, t), "c", uniforms[t : t + 1])
        assert bit.tolist() == bits[t : t + 1].tolist()
        assert np.array_equal(lone.amps, collapsed.amps[t : t + 1])
    rho = qcore.reduced_density(batch, ("e", "a"))
    for t in range(batch.trials):
        assert np.array_equal(qcore.reduced_density(_row(batch, t), ("e", "a")), rho[t : t + 1])
    ref = _row(batch, 0)
    fids = qcore.fidelity(batch, ref)
    assert [qcore.fidelity(_row(batch, t), ref).item() for t in range(batch.trials)] == fids.tolist()


def test_measurement_draws_one_uniform_per_trial_in_order():
    # trial t reads row t of the uniforms, and the i-th measured qubit column i
    plus = qcore.apply_one_qubit_gates(qcore.new_register(["a", "b"]), (("a", gates.H), ("b", gates.H)))
    batch = qcore.StateVector(plus.labels, np.tile(plus.amps, (3, 1)))
    uniforms = np.array([np.random.default_rng(s).random(2) for s in (1, 2, 3)])
    bits, _ = qcore.measure(batch, "a", uniforms[:, :1])
    assert bits.tolist() == [int(u < 0.5) for u in uniforms[:, 0]]
    outcomes, _ = qcore.measure_reset(batch, ("b", "a"), uniforms)
    assert [o.tolist() for o in outcomes] == [[int(u < 0.5) for u in col] for col in uniforms.T]


# vectorized checks -----------------------------------------------------------


def _batch_session(trials=3, extra_labels=()):
    """Six-round sessions, trial t measuring with default_rng(t)'s uniforms."""
    uniforms = np.array([np.random.default_rng(s).random(12) for s in range(trials)])
    return protocol.init_session(ProtocolConfig(num_rounds=6), uniforms, extra_labels=extra_labels)


def _flip(state, label, where):
    """X on one qubit in the trials where `where` is set."""
    return qcore.permute(state, ((None, label, 0),), (where,))


def _bob_draws(policy, *seeds):
    """Bob's draws for a six-round run, one row per PCG64 seed."""
    kinds = adversary.bob_kinds(policy, 6)
    count = experiments.word_count(kinds)
    return experiments.decode_stream(np.array([np.random.PCG64(seed).random_raw(count) for seed in seeds]), kinds)


def test_encode_rejects_unreset_message_in_one_trial():
    session = _batch_session()
    session.states = _flip(session.states, "m1", [False, True, False])
    with pytest.raises(ValueError, match=r"not reset.*trial 1;"):
        protocol.encode_round(session, [0, 1, 0])


def test_split_rejects_occupied_slot_in_one_trial():
    session = _batch_session(extra_labels=adversary.ATTACK_EXTRA_LABELS)
    protocol.encode_round(session, [0, 1, 1])
    protocol.deliver_and_decode(session)
    protocol.toggle_carrier(session)
    protocol.encode_round(session, [1, 0, 1])
    session.states = _flip(session.states, "bt", [False, False, True])
    draws = _bob_draws(MaintenancePolicy.PLAIN_HADAMARD, 9, 10, 11)
    with pytest.raises(ValueError, match=r"slot is occupied.*trial 2;"):
        adversary.execute_split(session, adversary.synthesize_split_unitary(),
                                MaintenancePolicy.PLAIN_HADAMARD, draws)


def test_toggles_reject_a_message_in_flight():
    session = _batch_session()
    protocol.encode_round(session, [0, 1, 0])
    with pytest.raises(ValueError, match="in flight"):
        protocol.toggle_carrier(session)
    with pytest.raises(ValueError, match="in flight"):
        adversary.maintain_carriers(session, [])


def test_measure_rejects_zero_probability_branch_in_one_trial():
    amps = np.zeros((3, 2), dtype=np.complex128)
    amps[0, 0] = amps[2, 1] = 1.0
    batch = qcore.new_register(["a"]).with_rows(amps)  # trial 1 holds no state at all
    uniforms = np.array([np.random.default_rng(t).random(1) for t in range(3)])
    with pytest.raises(ValueError, match="zero probability in trial 1"):
        qcore.measure(batch, "a", uniforms)


def test_reduced_density_validates_every_trial():
    amps = np.tile(qcore.new_register(["a", "b"]).amps, (4, 1))
    amps[3] *= 1.01  # trace 1.0201 in the last trial only
    batch = qcore.new_register(["a", "b"]).with_rows(amps)
    with pytest.raises(ValueError, match="trace"):
        qcore.reduced_density(batch, ("a",))
    assert qcore.reduced_density(qcore.StateVector(("a", "b"), amps[:3]), ("a",)).shape == (3, 2, 2)


def test_round_norm_check_names_the_drifting_trial():
    session = _batch_session()
    protocol.encode_round(session, [0, 0, 1])
    protocol.deliver_and_decode(session)
    amps = np.array(session.states.amps)
    amps[2] *= 1.0 + 1e-9
    session.states = session.states.with_rows(amps)
    with pytest.raises(ValueError, match=r"norm deviates.*trial 2;"):
        protocol.toggle_carrier(session)


def test_operator_tables_are_built_once_per_configuration():
    angles = symmetric_triple(2 * math.pi / 3)
    fwd = protocol.toggle_ops(angles, 1)
    assert fwd is protocol.toggle_ops(symmetric_triple(2 * math.pi / 3), 3)
    assert all(not m.flags.writeable for m in fwd)
    assert adversary.choice_operators(angles, "u", True) is adversary.choice_operators(angles, "u", True)


@pytest.mark.parametrize("round_index", [1, 2])
def test_maintenance_step_batch_rows_equal_lone_steps(round_index):
    # maintain_carriers runs the step with one choice per trial, while
    # survival_probability and verify run it on a lone state with one choice
    angles = symmetric_triple(2 * math.pi / 3)
    kinds = [BellKind.PHI_PLUS, BellKind.PSI_PLUS, BellKind.PHI_MINUS]
    choices = ["h", "u", "v"]
    lone = [adversary.pattern_pair_state(kind, kind) for kind in kinds]
    batch = qcore.StateVector(lone[0].labels, np.concatenate([state.amps for state in lone]))
    out = adversary.maintenance_step(batch, angles, choices, round_index)
    for row, state, choice in zip(out.amps, lone, choices):
        alone = adversary.maintenance_step(state, angles, choice, round_index)
        assert np.array_equal(row, alone.amps[0])


@pytest.mark.parametrize("policy", [MaintenancePolicy.KNOWN_THETA_U, MaintenancePolicy.KNOWN_THETA_V])
def test_plain_variant_rejects_policies_that_need_angles(policy):
    session = _batch_session(trials=1, extra_labels=adversary.ATTACK_EXTRA_LABELS)
    attack = adversary.AttackState.draw(policy, 6, _bob_draws(policy, 1))
    with pytest.raises(ValueError, match="plain protocol has none"):
        adversary.maintain_carriers(session, attack)
    with pytest.raises(ValueError, match="plain protocol has none"):
        survival_probability(None, policy, trials=4)


# fused round phases ----------------------------------------------------------

ATTACK_LABELS = ("a", "b", "c", "bt", "m1", "m2")
# every permutation run the round phases play, with its number of per-trial bits
ENGINE_STEP_RUNS = [
    (protocol.ODD_ENCODE_STEPS, 1),
    (protocol.EVEN_ENCODE_STEPS, 1),
    (protocol.DECODE_STEPS, 0),
    (adversary.BOB_DECODE_STEPS[True], 0),
    (adversary.BOB_DECODE_STEPS[False], 0),
    (adversary.COUNTERFEIT_STEPS, 1),
    ((("c", "m2", None),), 0),
]


def _gate_by_gate(batch, steps, bits):
    """Reference: one apply_unitary per CNOT or X, kept only where the step's
    per-trial bit is set."""
    for control, target, bit in steps:
        if control is None:
            moved = qcore.apply_unitary(batch, gates.X, [target])
        else:
            moved = qcore.apply_unitary(batch, gates.CNOT, [control, target])
        if bit is None:
            batch = moved
        else:
            where = np.asarray(bits[bit], dtype=bool)[:, np.newaxis]
            batch = qcore.StateVector(batch.labels, np.where(where, moved.amps, batch.amps))
    return batch


def _same_bits(x, y):
    return x.shape == y.shape and np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


def _bit_patterns(trials, nbits, rng):
    if nbits == 0:
        return [()]
    fixed = [np.zeros(trials, dtype=int), np.ones(trials, dtype=int)]
    mixed = [rng.integers(0, 2, trials) for _ in range(3)] if trials > 1 else []
    return [(pattern,) for pattern in fixed + mixed]


@pytest.mark.parametrize("trials", [1, 16])
@pytest.mark.parametrize("steps,nbits", ENGINE_STEP_RUNS)
def test_fused_gather_equals_gate_by_gate_sequence(steps, nbits, trials):
    rng = np.random.default_rng(len(steps) * 10 + trials)
    batch = _random_batch(rng, ATTACK_LABELS, trials)
    for bits in _bit_patterns(trials, nbits, rng):
        fused = qcore.permute(batch, steps, bits)
        assert _same_bits(fused.amps, _gate_by_gate(batch, steps, bits).amps)
        # a lone state runs the same kernel as the batch of one
        lone = qcore.permute(_row(batch, 0), steps, tuple(int(b[0]) for b in bits))
        assert np.array_equal(lone.amps, fused.amps[:1])


@pytest.mark.parametrize("trials", [1, 16])
@pytest.mark.parametrize("targets", [("m1", "m2"), ("m2",), ("m1",)])
def test_measure_reset_equals_measure_then_flip(targets, trials):
    rng = np.random.default_rng(trials)
    batch = _random_batch(rng, ATTACK_LABELS, trials)
    uniforms = np.array([np.random.default_rng(50 + t).random(len(targets)) for t in range(trials)])
    outcomes, fused = qcore.measure_reset(batch, targets, uniforms)
    ref, reads = batch, []
    for i, target in enumerate(targets):
        bits, ref = qcore.measure(ref, target, uniforms[:, i : i + 1])
        reads.append(bits)
    for target, bits in zip(targets, reads):
        ref = _gate_by_gate(ref, ((None, target, 0),), (bits,))
    assert [o.tolist() for o in outcomes] == [r.tolist() for r in reads]
    # byte equality: the discarded slot holds the same signed zeros too
    assert _same_bits(fused.amps, ref.amps)
    assert np.all(qcore.excited_mass(fused, targets) == 0.0)

    lone_outcomes, lone = qcore.measure_reset(_row(batch, 0), targets, uniforms[:1])
    assert [o.tolist() for o in lone_outcomes] == [o[:1].tolist() for o in outcomes]
    assert np.array_equal(lone.amps, fused.amps[:1])


@pytest.mark.parametrize("trials", [1, 16])
@pytest.mark.parametrize("targets", [("m1", "m2"), ("m2",)])
def test_pre_drawn_uniforms_measure_as_the_generators_draw(targets, trials):
    rng = np.random.default_rng(200 + trials)
    batch = _random_batch(rng, ATTACK_LABELS, trials)
    gens = [np.random.default_rng(80 + t) for t in range(trials)]
    # one random(k) per trial, drawn ahead from copies of the generators
    uniforms = np.array([g.random(len(targets)) for g in copy.deepcopy(gens)])
    outcomes, pre = qcore.measure_reset(batch, targets, uniforms)
    # the reference draws each trial's uniform from its generator as each qubit is read
    lazy, lazy_outcomes = batch, []
    for target in targets:
        bits, lazy = qcore.measure(lazy, target, np.array([[g.random()] for g in gens]))
        lazy = _flip(lazy, target, bits)
        lazy_outcomes.append(bits)
    assert [o.tolist() for o in outcomes] == [o.tolist() for o in lazy_outcomes]
    assert _same_bits(pre.amps, lazy.amps)

    bit, _ = qcore.measure(batch, targets[0], uniforms[:, :1])
    assert bit.tolist() == lazy_outcomes[0].tolist()
    # a lone state reads a (1, targets) array
    lone_outcomes, lone = qcore.measure_reset(_row(batch, 0), targets, uniforms[:1])
    assert [o.tolist() for o in lone_outcomes] == [o[:1].tolist() for o in outcomes]
    assert np.array_equal(lone.amps, pre.amps[:1])


@pytest.mark.parametrize("uniforms,message", [
    (np.full((3, 2), 0.5), r"must be a \(4, 2\) float64 array"),
    (np.full((4, 3), 0.5), r"must be a \(4, 2\) float64 array"),
    (np.full(8, 0.5), r"must be a \(4, 2\) float64 array"),
    (np.zeros((4, 2), dtype=np.float32), r"must be a \(4, 2\) float64 array"),
    (np.full((4, 2), 1.0), r"must lie in \[0, 1\)"),
    (np.full((4, 2), -0.25), r"must lie in \[0, 1\)"),
    (np.full((4, 2), np.nan), r"must lie in \[0, 1\)"),
])
def test_measure_rejects_misshapen_or_out_of_range_uniforms(uniforms, message):
    batch = _random_batch(np.random.default_rng(3), ATTACK_LABELS, 4)
    with pytest.raises(ValueError, match=message):
        qcore.measure_reset(batch, ("m1", "m2"), uniforms)


def test_measure_reset_names_the_trial_with_a_zero_probability_branch():
    amps = np.zeros((4, 4), dtype=np.complex128)
    amps[0, 0] = amps[3, 1] = 1.0  # trials 1 and 2 hold no state at all
    batch = qcore.new_register(["a", "b"]).with_rows(amps)
    uniforms = np.array([np.random.default_rng(t).random(2) for t in range(4)])
    with pytest.raises(ValueError, match="branch 0 of 'a' has zero probability in trial 1$"):
        qcore.measure_reset(batch, ("a", "b"), uniforms)


def test_reset_check_names_the_first_trial_with_m2_set():
    session = _batch_session(trials=4)
    session.states = _flip(session.states, "m2", [False, False, True, True])
    with pytest.raises(ValueError, match=r"not reset.*trial 2; 2 trial\(s\) affected"):
        protocol.encode_round(session, [0, 1, 0, 1])


def test_fixed_policy_plays_one_choice_without_tossing():
    session = _batch_session(trials=3, extra_labels=adversary.ATTACK_EXTRA_LABELS)
    draws = _bob_draws(MaintenancePolicy.PLAIN_HADAMARD, 0, 1, 2)
    attack = adversary.AttackState.draw(MaintenancePolicy.PLAIN_HADAMARD, 6, draws)
    assert attack.coin_draws.shape == (3, 0)
    assert adversary.maintain_carriers(session, attack) == ["h", "h", "h"]


# exact sums, measurement and the flipped marginal -----------------------------
#
# The kernels below sum with np.add.reduce over terms-major arrays; the
# references are the running-sum (cumsum) formulation they replaced, so the
# comparisons are byte for byte.


def _cumsum_total(x):
    return np.cumsum(x, axis=-1)[..., -1]


@st.composite
def sum_cases(draw):
    """Arrays whose last axis holds 1..130 terms, 1..40 columns in all, real or
    complex, C-ordered, F-ordered, sliced or read-only, with values from
    subnormal to 1e300 and signed zeros."""
    terms = draw(st.integers(min_value=1, max_value=130))
    cols = draw(st.integers(min_value=1, max_value=40))
    lead = (cols,) if cols % 2 or draw(st.booleans()) else (2, cols // 2)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    top = draw(st.integers(min_value=0, max_value=300))

    def values(shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-top, top + 1, shape)
        special = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e300], shape)
        return np.where(rng.random(shape) < 0.2, special, v)

    shape = lead + (2 * terms,)
    x = values(shape)
    if draw(st.booleans()):
        # built from its parts, so imaginary parts keep their signed zeros
        x = np.stack([x, values(shape)], axis=-1).view(np.complex128)[..., 0]
    layout = draw(st.sampled_from(["C", "F", "sliced", "read-only"]))
    x = x[..., ::2] if layout == "sliced" else x[..., :terms]
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "read-only":
        x = np.ascontiguousarray(x)
        x.setflags(write=False)
    return x


@settings(max_examples=300, deadline=None)
@given(x=sum_cases())
def test_ordered_sum_equals_running_sum_bitwise(x):
    before = x.copy()
    got, want = qcore._ordered_sum(x), _cumsum_total(x)
    assert got.dtype == want.dtype and _same_bits(got, want)
    assert _same_bits(x, before)


def test_ordered_sum_keeps_all_negative_zero_columns():
    x = np.full((3, 5, 2), -0.0).view(np.complex128)[..., 0]
    for rows in (x, x[:1], x.real):
        total = qcore._ordered_sum(rows)
        assert _same_bits(total, _cumsum_total(rows))
        assert np.signbit(total.view(np.float64)).all()


def _cumsum_branch_weights(rows, axis):
    b = rows.shape[0]
    sq = np.square(np.ascontiguousarray(rows).view(np.float64)).reshape(b, 2**axis, 2, -1)
    return _cumsum_total(np.swapaxes(sq, 1, 2).reshape(b, 2, -1))


def _reference_collapse(batch, targets, uniforms, reset):
    """Measurement as a 4-D broadcast of per-branch factors over cumsum branch
    weights, target i reading uniforms column i, then an X on each target
    read 1 if reset."""
    rows, b, outcomes = batch.amps, batch.trials, []
    for i, target in enumerate(targets):
        axis = batch.position(target)
        weights = _cumsum_branch_weights(rows, axis)
        bits = (uniforms[:, i] < weights[:, 1]).astype(np.int64)
        factor = np.zeros((b, 1, 2, 1))
        factor[np.arange(b), 0, bits, 0] = 1.0 / np.sqrt(weights[np.arange(b), bits])
        parts = np.ascontiguousarray(rows).view(np.float64).reshape(b, 2**axis, 2, -1)
        rows = (parts * factor).view(np.complex128).reshape(b, -1)
        outcomes.append(bits)
    out = qcore.StateVector(batch.labels, rows)
    if reset:
        for target, bits in zip(targets, outcomes):
            out = _gate_by_gate(out, ((None, target, 0),), (bits,))
    return outcomes, out


def _signed_zero_batch(rng, trials):
    """A random batch with some amplitudes set to -0.0 and -0.0j."""
    batch = _random_batch(rng, ATTACK_LABELS, trials)
    amps = batch.amps.copy()
    amps.real[rng.random(amps.shape) < 0.1] = -0.0
    amps.imag[rng.random(amps.shape) < 0.1] = -0.0
    return qcore.StateVector(batch.labels, amps / np.sqrt(qcore._squared_sum(amps))[:, np.newaxis])


@pytest.mark.parametrize("trials", [1, 16])
@pytest.mark.parametrize("targets", [("m1", "m2"), ("a",), ("m2",)])
@pytest.mark.parametrize("reset", [False, True])
def test_measurement_equals_cumsum_reference(targets, trials, reset):
    rng = np.random.default_rng(7 * trials + len(targets))
    batch = _signed_zero_batch(rng, trials)
    uniforms = np.array([np.random.default_rng(90 + t).random(len(targets)) for t in range(trials)])
    if reset:
        outcomes, got = qcore.measure_reset(batch, targets, uniforms)
    else:
        got, outcomes = batch, []
        for i, target in enumerate(targets):
            bits, got = qcore.measure(got, target, uniforms[:, i : i + 1])
            outcomes.append(bits)
    reads, want = _reference_collapse(batch, targets, uniforms, reset)
    assert [o.tolist() for o in outcomes] == [r.tolist() for r in reads]
    assert _same_bits(got.amps, want.amps)


@pytest.mark.parametrize("trials", [1, 16, 50])
def test_reductions_equal_cumsum_references(trials):
    rng = np.random.default_rng(trials)
    batch = _signed_zero_batch(rng, trials)
    other = _signed_zero_batch(rng, trials)
    rows, n = batch.amps, batch.num_qubits
    assert _same_bits(qcore._squared_sum(rows), _cumsum_total(np.square(rows.view(np.float64))))
    for axis in range(n):
        assert _same_bits(qcore._branch_weights(rows, axis), _cumsum_branch_weights(rows, axis))
    for keep in (("m1", "m2"), ("m2", "a"), ("b",), ATTACK_LABELS):
        axes = tuple(batch.position(lab) for lab in keep)
        rest = tuple(i for i in range(n) if i not in axes)
        t = rows[:, qcore._axis_order(n, axes + rest)].reshape(trials, 2 ** len(keep), -1)
        want = _cumsum_total(t[:, :, np.newaxis, :] * t.conj()[:, np.newaxis, :, :])
        assert _same_bits(qcore.reduced_density(batch, keep), want)
    assert _same_bits(qcore.fidelity(batch, other), _fidelity_reference(rows, other.amps))
    assert _same_bits(qcore.fidelity(_row(batch, 0), other), _fidelity_reference(rows[:1], other.amps))
    m = _random_unitary(rng, 8)
    fwd = qcore._axis_order(n, (0, 2, 4, 1, 3, 5))
    grouped = rows[:, fwd].reshape(trials, -1, 8)
    want = np.stack([_cumsum_total(grouped * m[i]) for i in range(8)], axis=-1)
    inv = qcore._axis_order(n, tuple(int(i) for i in np.argsort((0, 2, 4, 1, 3, 5))))
    got = qcore.apply_unitary(batch, m, ["b", "bt", "m2"])
    assert _same_bits(got.amps, want.reshape(trials, -1)[:, inv])


def _fidelity_reference(x, y):
    overlap = _cumsum_total(x.conj() * y)
    return np.square(overlap.real) + np.square(overlap.imag)


def _pre_encode_states(variant, trials):
    """Honest session states at the start of rounds 1 to 4, then a random
    state over the same register for each parity."""
    angles = symmetric_triple(2 * math.pi / 3) if variant is Variant.THETA else None
    uniforms = np.array([np.random.default_rng(s).random(12) for s in range(trials)])
    session = protocol.init_session(ProtocolConfig(variant=variant, angles=angles, num_rounds=6), uniforms)
    for r in range(1, 5):
        yield session.parity, session.states
        protocol.encode_round(session, np.arange(trials) % 2)
        protocol.deliver_and_decode(session)
        protocol.toggle_carrier(session)
    rng = np.random.default_rng(trials)
    for parity in ("odd", "even"):
        yield parity, _random_batch(rng, session.states.labels, trials)


@pytest.mark.parametrize("trials", [1, 16])
@pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.THETA])
def test_flipped_marginal_is_the_sent_marginal_permuted(variant, trials):
    q = (np.arange(trials) + 1) % 2
    for parity, pre in _pre_encode_states(variant, trials):
        sent = qcore.reduced_density(protocol.encoded_state(pre, parity, q), protocol.MESSAGE_LABELS)
        want = qcore.reduced_density(protocol.encoded_state(pre, parity, 1 - q), protocol.MESSAGE_LABELS)
        f = FLIPPED_MESSAGE_INDEX[parity]
        assert _same_bits(sent[:, f][:, :, f], want)


def test_flipped_message_index_is_a_permutation():
    assert all(sorted(f) == [0, 1, 2, 3] for f in FLIPPED_MESSAGE_INDEX.values())
