"""End-to-end acceptance gates for the simulator, one test per criterion.

Each test records a PASS/FAIL verdict line (replayed after the run by the
conftest summary hook, and printed inline under -s) and then asserts its
pinned tolerances and runtime budget.  The psi half of the pattern-tracking
criterion is kept as a faithful assertion and marked as an expected
failure: the transpose pair only reaches a Psi pattern at the degenerate
angles, everywhere else the overlap decays as the fourth power of the angle
cosines.  The identity gates (c1-c4, c8) call the checks of
qsscarrier.identities, the catalogue `qsscarrier verify` prints, on their
own seeded samples.
"""

import math
import time

import numpy as np
import pytest

from qsscarrier import adversary, experiments, gates, identities
from qsscarrier.adversary import MaintenancePolicy
from qsscarrier.gates import BellKind, ThetaTriple
from qsscarrier.protocol import AnnounceOrder, ProtocolConfig, Variant

HARDENED_REF = 2.0 * math.pi / 3.0
ANGLE_MARGIN = 0.3  # keeps sampled angles clear of the degenerate points


VERDICT_LINES: list[str] = []


def _verdict(ok: bool, name: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name:22s} {detail}"
    VERDICT_LINES.append(line)
    print(line)


def _hardened_angle(rng: np.random.Generator) -> float:
    while True:
        t = rng.uniform(ANGLE_MARGIN, 2.0 * math.pi - ANGLE_MARGIN)
        if abs(t - math.pi) >= ANGLE_MARGIN:
            return t


def test_c1_toggle_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    triples = [(0.0, 0.0, 0.0)] + [
        ThetaTriple.from_ab(rng.uniform(0.0, gates.TWO_PI), rng.uniform(0.0, gates.TWO_PI)).as_tuple()
        for _ in range(200)
    ]
    worst = identities.worst_toggle_fidelity(triples)
    dt = time.perf_counter() - t0
    ok = worst >= 1.0 - 1e-10 and dt < 1.0
    _verdict(ok, "toggle-identities", f"worst fidelity 1-{1.0 - worst:.1e} over 200 random triples, {dt:.2f}s")
    assert worst >= 1.0 - 1e-10
    assert dt < 1.0


def test_c2_split_maps():
    t0 = time.perf_counter()
    su = adversary.synthesize_split_unitary()
    dists = adversary.no_signaling_distances(su)
    # second route to the same claim: run the raw matrix on the canonical
    # encoded state and name the resulting pairs in the Bell basis
    pair_ok = identities.split_bell_weight(su) >= 1.0 - 1e-8
    dt = time.perf_counter() - t0
    ok = (
        su.unitarity_defect < 1e-10
        and max(su.residuals) < 1e-8
        and max(dists.values()) < 1e-12
        and pair_ok
        and dt < 1.0
    )
    _verdict(
        ok,
        "split-maps",
        f"defect {su.unitarity_defect:.1e}, residual {max(su.residuals):.1e},"
        f" no-signaling {max(dists.values()):.1e}, {dt:.2f}s",
    )
    assert su.unitarity_defect < 1e-10
    assert max(su.residuals) < 1e-8
    assert max(dists.values()) < 1e-12
    assert pair_ok
    assert dt < 1.0


def test_c3_plain_maintenance():
    # both fraud patterns under ten plain rounds: H on all four qubits; the
    # PhiPlus pattern is a fixed point, the PsiPlus one orbits through
    # PhiMinus and back
    worst = identities.plain_orbit_fidelity((BellKind.PHI_PLUS, BellKind.PSI_PLUS))
    ok = worst >= 1.0 - 1e-10
    _verdict(ok, "plain-maintenance", f"worst pattern fidelity 1-{1.0 - worst:.1e} over 10 rounds")
    assert worst >= 1.0 - 1e-10


def test_c4_pattern_tracking_phi_and_cross_use():
    rng = np.random.default_rng(202)
    pairs = [(_hardened_angle(rng), _hardened_angle(rng)) for _ in range(100)]
    # cross-use is wrong-pattern use, scored against the pattern being maintained
    worst_keep, worst_cross = identities.pattern_tracking(pairs)
    ok = worst_keep >= 1.0 - 1e-10 and worst_cross <= 0.9
    _verdict(
        ok,
        "pattern-tracking",
        f"conjugate keeps PhiPlus to 1-{1.0 - worst_keep:.1e},"
        f" cross-use peaks at {worst_cross:.3f} (bound 0.9), 100 angle pairs",
    )
    assert worst_keep >= 1.0 - 1e-10
    assert worst_cross <= 0.9


@pytest.mark.xfail(
    strict=True,
    reason="transpose corrections reach a Psi pattern only at the degenerate angles;"
    " elsewhere the Psi overlap is cos(ta)^4 cos(tc)^4, so the claim fails as stated",
)
def test_c4_pattern_tracking_psi_transpose():
    rng = np.random.default_rng(303)
    worst = 1.0
    sample = None
    for _ in range(20):
        ta, tc = _hardened_angle(rng), _hardened_angle(rng)
        best_psi = max(identities.psi_overlaps(identities.transpose_image(ta, tc)))
        if best_psi < worst:
            worst, sample = best_psi, (ta, tc)
    _verdict(
        False,
        "pattern-tracking-psi",
        f"best Psi overlap {worst:.4f} at angles ({sample[0]:.2f}, {sample[1]:.2f});"
        " exact (sign +) only at 0 and pi",
    )
    assert worst >= 1.0 - 1e-10


def test_c5_undetected_attack_reproduction():
    t0 = time.perf_counter()
    config = ProtocolConfig(
        variant=Variant.PLAIN,
        num_rounds=100,
        rng_seed=0,
        announce_fraction=0.2,
        announce_order=AnnounceOrder.BOB_LAST,
    )
    stats = experiments.aggregate(
        experiments.run_trials(config, trials=1000, base_seed=0, policy=MaintenancePolicy.PLAIN_HADAMARD)
    )
    dt = time.perf_counter() - t0
    ok = stats.detection_probability == 0.0 and stats.mean_recovered_fraction == 1.0 and dt < 60.0
    _verdict(
        ok,
        "undetected-attack",
        f"detection {stats.detection_probability:.4f}, bit recovery"
        f" {stats.mean_recovered_fraction:.4f}, 1000 x 100 rounds, {dt:.0f}s",
    )
    assert stats.detection_probability == 0.0
    assert stats.mean_recovered_fraction == 1.0
    assert dt < 60.0


def test_c6_defense_reproduction():
    t0 = time.perf_counter()
    config = ProtocolConfig(
        variant=Variant.THETA,
        angles=experiments.symmetric_triple(HARDENED_REF),
        num_rounds=100,
        rng_seed=0,
        announce_fraction=0.2,
        announce_order=AnnounceOrder.BOB_LAST,
    )
    stats = experiments.aggregate(
        experiments.run_trials(config, trials=1000, base_seed=0, policy=MaintenancePolicy.RANDOM_GUESS)
    )
    grid = [0.01, 0.1, 0.5, 1.0]
    rows = experiments.sweep(grid, trials=400, num_rounds=100, base_seed=1000)
    probs = [row["detection_probability"] for row in rows]
    # one-sided 95% check that detection does not drop as the angle grows
    ordered = True
    for prev, nxt in zip(probs, probs[1:]):
        se = math.sqrt(prev * (1.0 - prev) / 400.0 + nxt * (1.0 - nxt) / 400.0)
        ordered &= nxt >= prev - 1.645 * se
    dt = time.perf_counter() - t0
    ok = (
        stats.mean_mismatch_rate >= 0.2
        and stats.detection_probability >= 0.99
        and ordered
        and dt < 300.0
    )
    grid_text = "/".join(f"{p:.3f}" for p in probs)
    _verdict(
        ok,
        "defense-power",
        f"detection {stats.detection_probability:.4f}, mismatch {stats.mean_mismatch_rate:.4f},"
        f" grid {grid_text} nondecreasing, {dt:.0f}s",
    )
    assert stats.mean_mismatch_rate >= 0.2
    assert stats.detection_probability >= 0.99
    assert ordered, f"detection not nondecreasing at 95%: {probs}"
    assert dt < 300.0


def test_c7_honest_run_soundness():
    t0 = time.perf_counter()
    configs = {
        "plain": ProtocolConfig(variant=Variant.PLAIN, num_rounds=10, announce_fraction=0.2),
        "theta": ProtocolConfig(
            variant=Variant.THETA,
            angles=experiments.symmetric_triple(HARDENED_REF),
            num_rounds=10,
            announce_fraction=0.2,
        ),
    }
    false_pos = 0
    worst_dist = 0.0
    worst_fid = 1.0
    for config in configs.values():
        results = experiments.run_trials(config, trials=1000, base_seed=0, instrument_disguise=True)
        false_pos += sum(r.report.cheating_detected for r in results)
        worst_dist = max(worst_dist, max(r.max_disguise_distance for r in results))
        worst_fid = min(worst_fid, min(r.min_restore_fidelity for r in results))
    dt = time.perf_counter() - t0
    ok = false_pos == 0 and worst_dist < 1e-12 and worst_fid >= 1.0 - 1e-10
    _verdict(
        ok,
        "honest-soundness",
        f"0 of 2000 trials flagged, disguise distance {worst_dist:.1e},"
        f" restore fidelity 1-{1.0 - worst_fid:.1e}, {dt:.0f}s",
    )
    assert false_pos == 0
    assert worst_dist < 1e-12
    assert worst_fid >= 1.0 - 1e-10


def test_c8_degeneracy_check():
    for t in (0.0, math.pi):
        assert identities.transpose_separation(t) < 1e-10
    rng = np.random.default_rng(404)
    worst = math.inf
    for _ in range(100):
        t = rng.uniform(0.05, 2.0 * math.pi - 0.05)
        while abs(t - math.pi) < 0.05:
            t = rng.uniform(0.05, 2.0 * math.pi - 0.05)
        worst = min(worst, identities.transpose_separation(t))
    with pytest.raises(ValueError, match="degenerate"):
        ThetaTriple.from_ab(0.0, 1.0).require_hardened()
    with pytest.raises(ValueError, match="degenerate"):
        ThetaTriple.from_ab(math.pi, math.pi / 2.0).require_hardened()
    ok = worst > 1e-3
    _verdict(
        ok,
        "transpose-degeneracy",
        f"identity holds at 0 and pi, distance >= {worst:.3f} at 100 other angles,"
        " hardened validation rejects both points",
    )
    assert worst > 1e-3
