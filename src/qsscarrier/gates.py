"""Named gates, carrier and Bell state constructors, and angle bookkeeping.

The protocol's toggle gate is the phased Hadamard

    h_theta(t) = (1/sqrt2) [[e^{it},  e^{-it}],
                            [e^{it}, -e^{-it}]]

which sends |0> to e^{it}|+> and |1> to e^{-it}|->.  A product of three of
them flips the register between the two carrier forms exactly when the three
angles sum to zero mod 2pi; h_theta(0) is the plain Hadamard.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qcore

TWO_PI = 2.0 * math.pi
ANGLE_SUM_TOL = 1e-12
DEGENERATE_GAP = 1e-6

SQRT_HALF = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = SQRT_HALF * np.array([[1, 1], [1, -1]], dtype=np.complex128)
# control is the first (most significant) target label
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=np.complex128,
)

for _g in (X, Z, H, CNOT):
    qcore.validate_unitary(_g)
    _g.setflags(write=False)


def read_only(matrix: np.ndarray) -> np.ndarray:
    """A read-only complex128 copy, for operator tables built once and shared."""
    m = np.array(matrix, dtype=np.complex128)
    m.setflags(write=False)
    return m


def h_theta(theta: float) -> np.ndarray:
    """Phased Hadamard; validated unitary for every angle."""
    ep, em = np.exp(1j * theta), np.exp(-1j * theta)
    m = SQRT_HALF * np.array([[ep, em], [ep, -em]])
    return qcore.validate_unitary(m)


def h_theta_inverse(theta: float) -> np.ndarray:
    return h_theta(theta).conj().T


class BellKind(enum.Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


class CarrierKind(enum.Enum):
    GHZ = "ghz"
    EVEN_PARITY = "even_parity"


_BELL_AMPS = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1]) * SQRT_HALF,
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1]) * SQRT_HALF,
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0]) * SQRT_HALF,
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0]) * SQRT_HALF,
}

# columns in (PhiPlus, PhiMinus, PsiPlus, PsiMinus) order
BELL_BASIS = np.column_stack([_BELL_AMPS[k] for k in BellKind]).astype(np.complex128)
BELL_BASIS.setflags(write=False)


def bell_amplitudes(kind: BellKind) -> np.ndarray:
    return _BELL_AMPS[kind].astype(np.complex128)


def carrier_amplitudes(kind: CarrierKind) -> np.ndarray:
    amps = np.zeros(8, dtype=np.complex128)
    if kind is CarrierKind.GHZ:
        amps[0b000] = amps[0b111] = SQRT_HALF
    else:
        # uniform over the even-weight kets
        for idx in (0b000, 0b011, 0b101, 0b110):
            amps[idx] = 0.5
    return amps


def make_carrier(kind: CarrierKind, labels: tuple[str, str, str]) -> qcore.StateVector:
    return qcore.from_amplitudes(labels, carrier_amplitudes(kind))


def bell_decompose(state: qcore.StateVector, pair: tuple[str, str]) -> np.ndarray:
    """Coefficients of the pair's state in the Bell basis, for a one-trial state.

    The two qubits must be pure on their own (untangled from the rest of the
    register, reduced purity > 1 - 1e-10), otherwise the decomposition is not
    defined and a ValueError is raised.  The returned 4-vector is ordered
    (PhiPlus, PhiMinus, PsiPlus, PsiMinus) with the overall phase fixed so
    the largest-magnitude coefficient is real nonnegative.
    """
    (rho,) = qcore.reduced_density(state, list(pair))
    pur = qcore.purity(rho)
    if pur <= 1.0 - 1e-10:
        raise ValueError(f"pair {pair} is entangled with the rest (purity {pur:.12f})")
    vals, vecs = np.linalg.eigh(rho)
    psi = vecs[:, int(np.argmax(vals))]
    coeffs = BELL_BASIS.conj().T @ psi
    anchor = coeffs[int(np.argmax(np.abs(coeffs)))]
    if abs(anchor) > 0:
        coeffs = coeffs * (anchor.conjugate() / abs(anchor))
    return coeffs


def angle_mod(theta: float) -> float:
    return theta % TWO_PI


def distance_to_degenerate(theta: float) -> float:
    """Distance from the angle to the nearest of {0, pi} on the circle."""
    t = angle_mod(theta)
    return min(abs(t), abs(t - math.pi), abs(t - TWO_PI))


def require_finite(angles) -> None:
    """Raise unless every toggle angle is a finite number."""
    if not all(math.isfinite(t) for t in angles):
        raise ValueError(f"toggle angles must be finite, got {list(angles)}")


@dataclass(frozen=True)
class ThetaTriple:
    """Toggle angles for the three parties; must sum to 0 mod 2pi.

    Angles are stored reduced to [0, 2pi).  Construction enforces the sum
    constraint; hardened() additionally rejects angles within 1e-6 of the
    degenerate points {0, pi} where the transpose coincides with the inverse
    and the countermeasure loses its teeth.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        require_finite((self.a, self.b, self.c))
        object.__setattr__(self, "a", angle_mod(self.a))
        object.__setattr__(self, "b", angle_mod(self.b))
        object.__setattr__(self, "c", angle_mod(self.c))
        s = (self.a + self.b + self.c) % TWO_PI
        if min(s, TWO_PI - s) > ANGLE_SUM_TOL:
            raise ValueError(f"angles must sum to 0 mod 2pi; got residue {s:.3e}")

    @classmethod
    def from_ab(cls, a: float, b: float) -> "ThetaTriple":
        return cls(a, b, -(a + b))

    def is_hardened(self) -> bool:
        return all(distance_to_degenerate(t) > DEGENERATE_GAP for t in (self.a, self.b, self.c))

    def require_hardened(self) -> "ThetaTriple":
        if not self.is_hardened():
            bad = [t for t in (self.a, self.b, self.c) if distance_to_degenerate(t) <= DEGENERATE_GAP]
            raise ValueError(
                f"degenerate toggle angle(s) {bad}: hardened configuration requires "
                f"every angle farther than {DEGENERATE_GAP} from 0 and pi"
            )
        return self

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def best_scalar_distance(m: np.ndarray, reference: np.ndarray) -> float:
    """min over scalars lam of ||m - lam * reference||_F.

    Used to compare operators up to global phase (and magnitude): the optimal
    lam is the Frobenius projection coefficient.
    """
    denom = np.vdot(reference, reference)
    lam = np.vdot(reference, m) / denom
    return float(np.linalg.norm(m - lam * reference))
