"""The algebraic identities behind the simulator, each computed once.

Each check takes explicit angle samples and returns its metric.  suite()
turns them into the records `qsscarrier verify` prints; the acceptance tests
call the same checks on their own seeded samples.  Toggles run as one
Kronecker product, maintained rounds through adversary.maintenance_step.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from . import adversary, gates, qcore
from .adversary import SplitUnitary, pattern_pair_state
from .gates import BellKind, CarrierKind, ThetaTriple

IDENTITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
NO_SIGNALING_TOL = 1e-12
DEGENERACY_FLOOR = 1e-3


def toggle_fidelities(triple: tuple[float, float, float]) -> tuple[float, float]:
    """(forward GHZ -> even-parity, inverse even-parity -> GHZ) fidelities of
    one raw angle triple; both are 1 when the angles sum to 0 mod 2pi."""
    ghz = gates.carrier_amplitudes(CarrierKind.GHZ)
    even = gates.carrier_amplitudes(CarrierKind.EVEN_PARITY)
    ta, tb, tc = triple
    m = np.kron(np.kron(gates.h_theta(ta), gates.h_theta(tb)), gates.h_theta(tc))
    return float(abs(np.vdot(m @ ghz, even)) ** 2), float(abs(np.vdot(m.conj().T @ even, ghz)) ** 2)


def worst_toggle_fidelity(triples: Iterable[tuple[float, float, float]]) -> float:
    """Lowest toggle fidelity over the triples, in either direction."""
    return min(min(toggle_fidelities(triple)) for triple in triples)


def split_bell_weight(su: SplitUnitary) -> float:
    """Lowest Bell weight the raw split matrix leaves on (a, m1) and (b, c):
    PhiPlus pairs from the canonical q2 = 0 round, PsiPlus from q2 = 1."""
    worst = 1.0
    for q, kind in ((0, BellKind.PHI_PLUS), (1, BellKind.PSI_PLUS)):
        state = qcore.apply_unitary(adversary._encoded_round2_state(q), su.matrix, ["b", "m1", "m2"])
        idx = list(BellKind).index(kind)
        for pair in (("a", "m1"), ("b", "c")):
            worst = min(worst, abs(gates.bell_decompose(state, pair)[idx]) ** 2)
    return float(worst)


# the pattern that one plain toggle, H on all four qubits, maps each pattern to
_PLAIN_IMAGE = {
    BellKind.PHI_PLUS: BellKind.PHI_PLUS,
    BellKind.PHI_MINUS: BellKind.PSI_PLUS,
    BellKind.PSI_PLUS: BellKind.PHI_MINUS,
}


def plain_orbit_fidelity(starts: Iterable[BellKind]) -> float:
    """Lowest fidelity of each starting pattern with its plain orbit, checked
    after every one of ten toggles."""
    worst = 1.0
    for kind in starts:
        state = pattern_pair_state(kind, kind)
        for step in range(10):
            state = adversary.maintenance_step(state, None, "h", step + 1)
            kind = _PLAIN_IMAGE[kind]
            worst = min(worst, qcore.fidelity(state, pattern_pair_state(kind, kind)).item())
    return worst


def tracked_triple(ta: float, tc: float) -> ThetaTriple:
    """The triple the maintenance checks run at for an (a, c) angle pair:
    b closes the sum."""
    return ThetaTriple(ta, -(ta + tc), tc)


def require_suite_angles(thetas: list[float]) -> None:
    """Raise ValueError unless suite() can build every triple it derives from
    these angles: the two-angle triple, then the tracked triple of its (a, c)
    pair.  A raw three-angle triple may break the sum, which the suite
    reports as failures, but its (a, c) pair must still give a triple."""
    gates.require_finite(thetas)
    if len(thetas) == 2:
        triple = ThetaTriple.from_ab(thetas[0], thetas[1])
        tracked_triple(triple.a, triple.c)
    else:
        try:
            tracked_triple(thetas[0], thetas[2])
        except ValueError as exc:
            raise ValueError(f"no b closes the sum at a = {thetas[0]}, c = {thetas[2]}: {exc}") from None


def pattern_tracking(pairs: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """(keep, cross-use) over (ta, tc) pairs, in both toggle directions: the
    lowest fidelity with which the conjugate pair u keeps the PhiPlus
    pattern, and the highest a pattern keeps under the other branch's choice
    (u on PhiMinus, v on PhiPlus)."""
    phi_plus = pattern_pair_state(BellKind.PHI_PLUS, BellKind.PHI_PLUS)
    phi_minus = pattern_pair_state(BellKind.PHI_MINUS, BellKind.PHI_MINUS)
    keep, cross = 1.0, 0.0
    for ta, tc in pairs:
        angles = tracked_triple(ta, tc)
        for r in (1, 2):
            keep = min(keep, _kept(phi_plus, angles, "u", r))
            cross = max(cross, _kept(phi_minus, angles, "u", r), _kept(phi_plus, angles, "v", r))
    return keep, cross


def _kept(state: qcore.StateVector, angles: ThetaTriple, choice: str, round_index: int) -> float:
    """Fidelity of a one-trial pattern with itself after one maintenance step."""
    return qcore.fidelity(adversary.maintenance_step(state, angles, choice, round_index), state).item()


def transpose_image(ta: float, tc: float) -> qcore.StateVector:
    """The PhiMinus pattern after one forward toggle under the transpose pair v."""
    phi_minus = pattern_pair_state(BellKind.PHI_MINUS, BellKind.PHI_MINUS)
    return adversary.maintenance_step(phi_minus, tracked_triple(ta, tc), "v", 1)


def psi_overlaps(state: qcore.StateVector) -> tuple[float, float]:
    """Fidelities with the PsiPlus and the PsiMinus patterns."""
    return tuple(qcore.fidelity(state, pattern_pair_state(kind, kind)).item()
                 for kind in (BellKind.PSI_PLUS, BellKind.PSI_MINUS))


def transpose_separation(theta: float) -> float:
    """min over scalars of ||h(t)^T - lam h(-t)||: 0 at t = 0 and pi, where
    the transpose pair collapses to the conjugate pair."""
    return gates.best_scalar_distance(gates.h_theta(theta).T, gates.h_theta(-theta))


def _closest_pattern(state: qcore.StateVector) -> tuple[str, float]:
    best_name, best_fid = "", -1.0
    for k1 in BellKind:
        for k2 in BellKind:
            fid = qcore.fidelity(state, pattern_pair_state(k1, k2)).item()
            if fid > best_fid:
                best_name, best_fid = f"{k1.name}(a,bt) {k2.name}(b,c)", fid
    return best_name, best_fid


# how far the sampled hardened angles keep from the degenerate points 0 and pi
_SAMPLE_MARGIN = 0.3


def _sample_hardened_triple(rng: np.random.Generator) -> ThetaTriple:
    while True:
        a, b = rng.uniform(0.0, gates.TWO_PI, size=2)
        triple = ThetaTriple.from_ab(float(a), float(b))
        if min(gates.distance_to_degenerate(t) for t in triple.as_tuple()) >= _SAMPLE_MARGIN:
            return triple


def _sample_hardened_angle(rng: np.random.Generator) -> float:
    while True:
        t = float(rng.uniform(0.0, gates.TWO_PI))
        if gates.distance_to_degenerate(t) >= _SAMPLE_MARGIN:
            return t


def suite(thetas: list[float] | None, seed: int = 0) -> list[tuple[str, bool | None, str]]:
    """All identity checks as (name, ok, detail); ok=None is informational.

    With no angles given, angles are sampled away from the degenerate points.
    A two-angle input derives the third to satisfy the sum constraint; a
    three-angle input is taken raw, so deliberately broken triples show the
    identities failing.
    """
    rng = np.random.default_rng(seed)
    items = []

    f1, f2 = toggle_fidelities((0.0, 0.0, 0.0))  # h_theta(0) is H exactly
    items.append(("plain-toggle", min(f1, f2) >= 1 - IDENTITY_TOL,
                  f"GHZ<->even-parity fidelities {f1:.12f}, {f2:.12f}"))

    raw_mode = thetas is not None and len(thetas) == 3
    if thetas is None:
        triples = [_sample_hardened_triple(rng).as_tuple() for _ in range(25)]
    elif raw_mode:
        triples = [tuple(thetas)]
    else:
        triples = [ThetaTriple.from_ab(thetas[0], thetas[1]).as_tuple()]

    worst = worst_toggle_fidelity(triples)
    residue = float(np.mod(sum(triples[0]), gates.TWO_PI))
    residue = min(residue, gates.TWO_PI - residue)
    detail = f"worst fidelity {worst:.12f} over {len(triples)} triple(s)"
    if raw_mode and residue > gates.ANGLE_SUM_TOL:
        detail += f" (angle sum residue {residue:.3f} breaks the identity, as the constraint requires)"
    items.append(("theta-toggle", worst >= 1 - IDENTITY_TOL, detail))

    try:
        for triple in triples:
            ThetaTriple(*triple).require_hardened()
        items.append(("hardened-angles", True, "sum constraint and degeneracy gap hold"))
    except ValueError as exc:
        items.append(("hardened-angles", False, str(exc)))

    su = adversary.synthesize_split_unitary()
    items.append(("split-maps", su.unitarity_defect < IDENTITY_TOL and max(su.residuals) < RESIDUAL_TOL,
                  f"residuals {su.residuals[0]:.3e}, {su.residuals[1]:.3e};"
                  f" unitarity defect {su.unitarity_defect:.3e}"))

    ns_worst = max(adversary.no_signaling_distances(su).values())
    items.append(("split-no-signaling", ns_worst < NO_SIGNALING_TOL,
                  f"max trace distance over Bob's subsystems {ns_worst:.3e}"))

    worst_plain = plain_orbit_fidelity((BellKind.PHI_PLUS, BellKind.PHI_MINUS))
    items.append(("plain-maintenance", worst_plain >= 1 - IDENTITY_TOL,
                  f"both patterns track their orbit for 10 toggles; worst fidelity {worst_plain:.12f}"))

    if thetas is None:
        pairs = [(_sample_hardened_angle(rng), _sample_hardened_angle(rng)) for _ in range(10)]
    else:
        pairs = [(triples[0][0], triples[0][2])]
    keep, _ = pattern_tracking(pairs)
    items.append(("conjugate-maintenance", keep >= 1 - IDENTITY_TOL,
                  f"PhiPlus pattern preserved both directions; worst fidelity {keep:.12f}"))

    ta, tc = pairs[0]
    img = transpose_image(ta, tc)
    psi_p, psi_m = psi_overlaps(img)
    name, best = _closest_pattern(img)
    items.append(("transpose-maintenance", None,
                  f"recorded at theta=({ta:.3f}, {tc:.3f}): PhiMinus pattern maps to"
                  f" PsiPlus/PsiMinus pattern with fidelity {psi_p:.6f}/{psi_m:.6f};"
                  f" closest pattern {name} at {best:.6f}"))

    angles = [t for pair in pairs for t in pair]
    hazard = [t for t in angles if gates.distance_to_degenerate(t) <= gates.DEGENERATE_GAP]
    if hazard:
        items.append(("transpose-degeneracy", False,
                      f"degenerate-angle hazard: at theta={hazard[0]:.3f} the transpose pair equals the"
                      " conjugate-angle pair and the defense collapses to the plain toggle"))
    else:
        d0, dpi = transpose_separation(0.0), transpose_separation(np.pi)
        worst_sep = min(transpose_separation(t) for t in angles)
        items.append(("transpose-degeneracy",
                      max(d0, dpi) < IDENTITY_TOL and worst_sep > DEGENERACY_FLOOR,
                      f"transpose = conjugate-angle at 0 and pi (distances {d0:.2e}, {dpi:.2e});"
                      f" distinct elsewhere (min scalar distance {worst_sep:.3e})"))
    return items
