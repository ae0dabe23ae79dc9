"""Gate constructors, carrier states, and toggle-angle bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsscarrier import gates, qcore
from qsscarrier.gates import BellKind, CarrierKind, ThetaTriple


def test_phased_hadamard_at_zero_is_plain():
    assert np.abs(gates.h_theta(0.0) - gates.H).max() < 1e-15


def test_phased_hadamard_column_action():
    # h(t)|0> = e^{it}|+>, h(t)|1> = e^{-it}|->
    t = 0.83
    m = gates.h_theta(t)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    assert np.abs(m[:, 0] - np.exp(1j * t) * plus).max() < 1e-15
    assert np.abs(m[:, 1] - np.exp(-1j * t) * minus).max() < 1e-15


def test_phased_hadamard_inverse():
    t = 2.31
    assert np.abs(gates.h_theta_inverse(t) @ gates.h_theta(t) - np.eye(2)).max() < 1e-15


@settings(max_examples=50, deadline=None)
@given(t=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_phased_hadamard_always_unitary(t):
    assert qcore.unitarity_defect(gates.h_theta(t)) < 1e-12


def test_bell_basis_is_orthonormal():
    assert qcore.unitarity_defect(gates.BELL_BASIS) < 1e-15


def test_carrier_amplitudes():
    ghz = gates.carrier_amplitudes(CarrierKind.GHZ)
    assert ghz[0b000] == ghz[0b111] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(ghz) == 2
    even = gates.carrier_amplitudes(CarrierKind.EVEN_PARITY)
    assert np.count_nonzero(even) == 4
    for idx in (0b000, 0b011, 0b101, 0b110):
        assert even[idx] == pytest.approx(0.5)


def _triple_matrix(ta: float, tb: float, tc: float) -> np.ndarray:
    return np.kron(np.kron(gates.h_theta(ta), gates.h_theta(tb)), gates.h_theta(tc))


def test_plain_triple_toggles_carriers_exactly():
    # Independent dense-kron oracle, no fidelity involved.
    h3 = _triple_matrix(0.0, 0.0, 0.0)
    ghz = gates.carrier_amplitudes(CarrierKind.GHZ)
    even = gates.carrier_amplitudes(CarrierKind.EVEN_PARITY)
    assert np.abs(h3 @ ghz - even).max() < 1e-15
    assert np.abs(h3 @ even - ghz).max() < 1e-15


def test_theta_triple_toggles_up_to_phase():
    tri = ThetaTriple(1.0, 2.0, -3.0)
    m = _triple_matrix(*tri.as_tuple())
    ghz = gates.make_carrier(CarrierKind.GHZ, ("a", "b", "c"))
    even = gates.make_carrier(CarrierKind.EVEN_PARITY, ("a", "b", "c"))
    fwd = qcore.from_amplitudes(("a", "b", "c"), m @ ghz.amps[0])
    inv = qcore.from_amplitudes(("a", "b", "c"), m.conj().T @ even.amps[0])
    assert qcore.fidelity(fwd, even) >= 1 - 1e-10
    assert qcore.fidelity(inv, ghz) >= 1 - 1e-10


@settings(max_examples=50, deadline=None)
@given(a=st.floats(min_value=0.0, max_value=gates.TWO_PI, exclude_max=True),
       b=st.floats(min_value=0.0, max_value=gates.TWO_PI, exclude_max=True))
def test_toggle_identity_for_any_constrained_triple(a, b):
    tri = ThetaTriple.from_ab(a, b)
    m = _triple_matrix(*tri.as_tuple())
    ghz = gates.carrier_amplitudes(CarrierKind.GHZ)
    even = gates.carrier_amplitudes(CarrierKind.EVEN_PARITY)
    assert abs(np.vdot(even, m @ ghz)) ** 2 >= 1 - 1e-10
    assert abs(np.vdot(ghz, m.conj().T @ even)) ** 2 >= 1 - 1e-10


def test_toggle_fails_when_sum_constraint_broken():
    # Negative control: same angles with the derived third nudged off.
    m = _triple_matrix(1.0, 2.0, -3.0 + 0.2)
    ghz = gates.carrier_amplitudes(CarrierKind.GHZ)
    even = gates.carrier_amplitudes(CarrierKind.EVEN_PARITY)
    assert abs(np.vdot(even, m @ ghz)) ** 2 < 1 - 1e-3


def test_bell_decompose_identifies_pure_pairs():
    reg = qcore.new_register(["x", "a", "b"])
    st_ = qcore.apply_unitary(reg, gates.H, ["a"])
    st_ = qcore.apply_unitary(st_, gates.CNOT, ["a", "b"])
    st_ = qcore.apply_unitary(st_, gates.Z, ["b"])  # PhiPlus -> PhiMinus
    coeffs = gates.bell_decompose(st_, ("a", "b"))
    expect = np.zeros(4)
    expect[1] = 1.0
    assert np.abs(coeffs - expect).max() < 1e-12


def test_bell_decompose_is_phase_anchored():
    amps = gates.bell_amplitudes(BellKind.PSI_MINUS) * np.exp(1j * 0.7)
    st_ = qcore.from_amplitudes(("a", "b"), amps)
    coeffs = gates.bell_decompose(st_, ("a", "b"))
    assert coeffs[3] == pytest.approx(1.0)
    assert abs(coeffs[3].imag) < 1e-12


def test_bell_decompose_rejects_entangled_pair():
    ghz = gates.make_carrier(CarrierKind.GHZ, ("a", "b", "c"))
    with pytest.raises(ValueError, match="entangled"):
        gates.bell_decompose(ghz, ("a", "b"))


def test_triple_constraint_enforced():
    with pytest.raises(ValueError, match="residue"):
        ThetaTriple(1.0, 2.0, 3.0)
    tri = ThetaTriple.from_ab(5.0, 4.0)
    assert (tri.a + tri.b + tri.c) % gates.TWO_PI == pytest.approx(0.0, abs=1e-12)
    # angles come back reduced to [0, 2pi)
    assert 0 <= tri.c < gates.TWO_PI


def test_hardened_validation():
    assert not ThetaTriple(0.0, 0.0, 0.0).is_hardened()
    assert not ThetaTriple(math.pi, math.pi, 0.0).is_hardened()
    assert ThetaTriple.from_ab(2 * math.pi / 3, 2 * math.pi / 3).is_hardened()
    with pytest.raises(ValueError, match="degenerate"):
        ThetaTriple(0.0, 0.0, 0.0).require_hardened()
    tri = ThetaTriple.from_ab(1.0, 1.5)
    assert tri.require_hardened() is tri


def test_distance_to_degenerate():
    assert gates.distance_to_degenerate(3.0) == pytest.approx(math.pi - 3.0)
    assert gates.distance_to_degenerate(0.05) == pytest.approx(0.05)
    assert gates.distance_to_degenerate(gates.TWO_PI - 0.01) == pytest.approx(0.01)
    assert gates.distance_to_degenerate(math.pi) == 0.0


def test_best_scalar_distance_on_scalar_multiples():
    m = np.exp(1j * 0.4) * 2.0 * gates.H
    assert gates.best_scalar_distance(m, gates.H) < 1e-14


def test_transpose_matches_negated_angle_only_at_degenerate_points():
    # Frozen oracle values; this degeneracy is what hardened validation guards.
    d = lambda t: gates.best_scalar_distance(gates.h_theta(t).T, gates.h_theta(-t))
    assert d(0.0) < 1e-12
    assert d(math.pi) < 1e-12
    assert d(1.0) == pytest.approx(1.3526114526215745, abs=1e-12)
    assert d(2.5) == pytest.approx(1.084484069410836, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_theta_triple_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="toggle angles must be finite"):
        ThetaTriple(bad, 1.0, -1.0)
    with pytest.raises(ValueError, match="toggle angles must be finite"):
        ThetaTriple.from_ab(1.0, bad)
