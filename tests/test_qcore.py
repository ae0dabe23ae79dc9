"""Register simulator tests.

The dense simulator is the foundation everything else trusts, so the
conventions get pinned here explicitly: label position 0 is the most
significant bit, the first target of apply_unitary is the most significant
bit of the matrix index space, a lone state is the batch of one, every
kernel returns per-trial values, and measurements read uniforms drawn
beforehand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsscarrier import gates, qcore


def test_new_register_is_all_zeros():
    st = qcore.new_register(["a", "b", "c"])
    assert st.labels == ("a", "b", "c")
    assert st.amps[0, 0] == 1.0
    assert np.count_nonzero(st.amps) == 1


def test_register_rejects_duplicates_and_size():
    with pytest.raises(ValueError, match="duplicate"):
        qcore.new_register(["a", "a"])
    with pytest.raises(ValueError, match="1..12"):
        qcore.new_register([f"q{i}" for i in range(13)])
    with pytest.raises(ValueError):
        qcore.new_register([])


def test_from_amplitudes_enforces_norm():
    with pytest.raises(ValueError, match="norm"):
        qcore.from_amplitudes(["a"], np.array([1.0, 1.0]))


def test_first_label_is_most_significant_bit():
    # X on the first label must set the high-order index bit, not the low one.
    st = qcore.new_register(["hi", "lo"])
    flipped_hi = qcore.apply_unitary(st, gates.X, ["hi"])
    flipped_lo = qcore.apply_unitary(st, gates.X, ["lo"])
    assert flipped_hi.amps[0, 0b10] == 1.0
    assert flipped_lo.amps[0, 0b01] == 1.0


def test_apply_unitary_first_target_is_matrix_msb():
    # CNOT's control is the high bit of its 4x4 index space, so it must be
    # the first named target regardless of register order.
    st = qcore.new_register(["lo", "hi"])
    st = qcore.apply_unitary(st, gates.X, ["hi"])
    out = qcore.apply_unitary(st, gates.CNOT, ["hi", "lo"])
    # control hi=1 flips lo: state |hi=1, lo=1> = index 0b11 in (lo, hi)...
    # labels are (lo, hi) so index bits are lo,hi -> |1,1> = 3
    assert abs(out.amps[0, 0b11] - 1.0) < 1e-15
    inert = qcore.apply_unitary(qcore.new_register(["lo", "hi"]), gates.CNOT, ["hi", "lo"])
    assert inert.amps[0, 0] == 1.0


def _random_state(rng: np.random.Generator, labels) -> qcore.StateVector:
    n = 2 ** len(labels)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return qcore.from_amplitudes(labels, amps / np.linalg.norm(amps))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(m)
    return u


def test_apply_unitary_matches_dense_kron_oracle():
    # Independent route: permute targets to the front, kron with identity,
    # multiply the flat vector, permute back.
    rng = np.random.default_rng(7)
    st = _random_state(rng, ("a", "b", "c"))
    u = _random_unitary(rng, 4)
    got = qcore.apply_unitary(st, u, ["c", "a"])

    t = st.amps.reshape(2, 2, 2)
    moved = np.moveaxis(t, [2, 0], [0, 1])  # (c, a, b)
    dense = np.kron(u, np.eye(2)) @ moved.reshape(-1)
    back = np.moveaxis(dense.reshape(2, 2, 2), [0, 1], [2, 0])
    assert np.abs(back.reshape(-1) - got.amps).max() < 1e-12


def test_apply_unitary_rejects_bad_shapes_and_targets():
    st = qcore.new_register(["a", "b"])
    with pytest.raises(ValueError, match="shape"):
        qcore.apply_unitary(st, np.eye(4), ["a"])
    with pytest.raises(ValueError, match="duplicate"):
        qcore.apply_unitary(st, np.eye(4), ["a", "a"])
    with pytest.raises(KeyError):
        qcore.apply_unitary(st, np.eye(2), ["z"])


def test_measure_deterministic_branches():
    rng = np.random.default_rng(0)
    one = qcore.apply_unitary(qcore.new_register(["a", "b"]), gates.X, ["b"])
    (bit,), post = qcore.measure(one, "b", rng.random((1, 1)))
    assert bit == 1
    assert qcore.fidelity(post, one) == pytest.approx(1.0)
    (bit0,), _ = qcore.measure(one, "a", rng.random((1, 1)))
    assert bit0 == 0


def test_measure_collapse_renormalizes():
    rng = np.random.default_rng(3)
    st = qcore.apply_unitary(qcore.new_register(["a", "b"]), gates.H, ["a"])
    st = qcore.apply_unitary(st, gates.CNOT, ["a", "b"])
    (bit,), post = qcore.measure(st, "a", rng.random((1, 1)))
    assert np.linalg.norm(post.amps) == pytest.approx(1.0)
    # Bell correlation: the partner is now deterministic.
    (bit2,), _ = qcore.measure(post, "b", rng.random((1, 1)))
    assert bit2 == bit


def test_measure_statistics_frozen():
    # 400 draws on |+> with seed 11: exact count pinned by the seed, and
    # within 4 sigma of the fair mean as a sanity band.
    rng = np.random.default_rng(11)
    plus = qcore.apply_unitary(qcore.new_register(["a"]), gates.H, ["a"])
    ones = sum(qcore.measure(plus, "a", rng.random((1, 1)))[0].item() for _ in range(400))
    assert ones == 218
    assert abs(ones - 200) < 40


def test_reduced_density_of_bell_pair_is_maximally_mixed():
    st = qcore.apply_unitary(qcore.new_register(["a", "b"]), gates.H, ["a"])
    st = qcore.apply_unitary(st, gates.CNOT, ["a", "b"])
    (rho,) = qcore.reduced_density(st, ["a"])
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-15
    assert qcore.purity(rho) == pytest.approx(0.5)


def test_reduced_density_keep_order():
    # |a=0, b=1>: keeping (b, a) must put b's bit in the high position.
    st = qcore.apply_unitary(qcore.new_register(["a", "b"]), gates.X, ["b"])
    rho = qcore.reduced_density(st, ["b", "a"])
    expect = np.zeros((4, 4))
    expect[0b10, 0b10] = 1.0
    assert np.abs(rho - expect).max() < 1e-15


def test_fidelity_requires_matching_labels():
    x = qcore.new_register(["a", "b"])
    y = qcore.new_register(["b", "a"])
    with pytest.raises(ValueError, match="label mismatch"):
        qcore.fidelity(x, y)


def test_fidelity_of_carrier_states():
    # Frozen oracle: <ghz|even-parity> = 2/(2*sqrt(2)*2) so the fidelity is 1/8.
    ghz = gates.make_carrier(gates.CarrierKind.GHZ, ("a", "b", "c"))
    even = gates.make_carrier(gates.CarrierKind.EVEN_PARITY, ("a", "b", "c"))
    assert qcore.fidelity(ghz, even) == pytest.approx(0.125, abs=1e-15)
    assert qcore.fidelity(even, ghz) == pytest.approx(0.125, abs=1e-15)


def test_trace_distance_frozen_example():
    # D(|0><0|, |+><+|) = sin(pi/4) = sqrt(2)/2, by hand.
    zero = qcore.new_register(["a"])
    plus = qcore.apply_unitary(zero, gates.H, ["a"])
    d = qcore.trace_distance(qcore.reduced_density(zero, ["a"]),
                             qcore.reduced_density(plus, ["a"]))
    assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_trace_distance_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        qcore.trace_distance(np.eye(2), np.eye(4))


def test_unitarity_defect_and_validation():
    assert qcore.unitarity_defect(gates.H) < 1e-15
    assert qcore.unitarity_defect(np.eye(2) * 2) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="not unitary"):
        qcore.validate_unitary(np.ones((2, 2)))


def test_relabeled_is_positional():
    # Renaming never moves amplitudes; swapping two names swaps which
    # physical axis each name points at.
    st = qcore.apply_unitary(qcore.new_register(["a", "b"]), gates.X, ["a"])
    swapped = st.relabeled({"a": "b", "b": "a"})
    assert swapped.labels == ("b", "a")
    assert np.array_equal(swapped.amps, st.amps)
    assert qcore.probability_of_one(swapped, "b") == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unitaries_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, ("a", "b", "c"))
    u = _random_unitary(rng, 4)
    out = qcore.apply_unitary(state, u, ["b", "c"])
    assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reduced_density_always_valid(seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, ("a", "b", "c", "d"))
    keep = list(rng.choice(["a", "b", "c", "d"], size=2, replace=False))
    (rho,) = qcore.reduced_density(state, keep)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert 0.25 - 1e-12 <= qcore.purity(rho) <= 1.0 + 1e-12


def test_a_lone_state_is_the_batch_of_one():
    bell = qcore.from_amplitudes(("a", "b"), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    assert bell.amps.shape == (1, 4) and bell.trials == 1
    assert qcore.new_register(["a", "b", "c"]).amps.shape == (1, 8)
    with pytest.raises(ValueError, match=r"expected \(trials, 4\) amplitudes"):
        qcore.from_amplitudes(("a", "b"), np.tile(bell.amps, (2, 1)))


def test_every_kernel_returns_per_trial_values_for_a_lone_state():
    bell = qcore.apply_unitary(qcore.apply_unitary(qcore.new_register(["a", "b"]), gates.H, ["a"]),
                               gates.CNOT, ["a", "b"])
    for values in (qcore.fidelity(bell, bell), qcore.probability_of_one(bell, "a"),
                   qcore.excited_mass(bell, ("b",))):
        assert isinstance(values, np.ndarray) and values.shape == (1,)
    bits, post = qcore.measure(bell, "a", np.array([[0.25]]))
    assert bits.dtype == np.int64 and bits.shape == (1,) and post.amps.shape == (1, 4)
    outcomes, reset = qcore.measure_reset(bell, ("a", "b"), np.array([[0.75, 0.5]]))
    assert [(o.dtype, o.shape) for o in outcomes] == [(np.int64, (1,))] * 2
    assert reset.amps.shape == (1, 4)
    assert qcore.reduced_density(bell, ("b",)).shape == (1, 2, 2)


def test_outside_rows_are_checked_and_kernel_results_are_not():
    rows = np.tile(qcore.new_register(["a", "b"]).amps, (3, 1))
    rows[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match=r"norm deviates.*trial 1;"):
        qcore.StateVector(("a", "b"), rows)
    drifting = qcore.new_register(["a", "b"]).with_rows(rows)
    with pytest.raises(ValueError, match=r"norm deviates.*trial 1;"):
        drifting.check_norm()
    with pytest.raises(ValueError, match="duplicate"):
        drifting.relabeled({"a": "b"})
    assert drifting.relabeled({"a": "x"}).labels == ("x", "b")
