"""Announcement sampling and the parity cross-check."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsscarrier import experiments
from qsscarrier.detection import (
    Announcement,
    _announce_count,
    evaluate,
    select_rounds,
)
from qsscarrier.experiments import symmetric_triple
from qsscarrier.protocol import ProtocolConfig, RoundRecord, Transcript, Variant
from qsscarrier.adversary import MaintenancePolicy


def _transcript(rows):
    recs = [RoundRecord(i, "odd" if i % 2 else "even", q, b, c, 1.0)
            for i, q, b, c in rows]
    return Transcript(num_rounds=len(recs), records=recs)


def test_select_rounds_size_and_range():
    rng = np.random.default_rng(0)
    picks = select_rounds(20, 0.2, rng)
    assert len(picks) == 4
    assert picks == sorted(picks)
    assert all(1 <= r <= 20 for r in picks)
    assert len(set(picks)) == len(picks)


def test_select_rounds_ceil_and_full():
    rng = np.random.default_rng(1)
    assert len(select_rounds(10, 0.25, rng)) == 3  # ceil(2.5)
    assert select_rounds(5, 1.0, rng) == [1, 2, 3, 4, 5]


def test_select_rounds_deterministic_per_seed():
    a = select_rounds(50, 0.3, np.random.default_rng(7))
    b = select_rounds(50, 0.3, np.random.default_rng(7))
    assert a == b


def test_select_rounds_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least one round"):
        select_rounds(0, 0.5, rng)
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        select_rounds(10, 0.0, rng)
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        select_rounds(10, 1.2, rng)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       frac=st.floats(min_value=0.01, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@example(n=100, frac=0.55, seed=0)  # the float count, ceil(0.55 * 100), is 56
def test_select_rounds_always_well_formed(n, frac, seed):
    picks = select_rounds(n, frac, np.random.default_rng(seed))
    share = Fraction(repr(frac)) * n
    assert len(picks) == -(-share.numerator // share.denominator)
    assert all(1 <= r <= n for r in picks)
    assert len(set(picks)) == len(picks)


@pytest.mark.parametrize("rounds,count", [(100, 55), (200, 110), (400, 220)])
def test_select_rounds_opens_the_exact_decimal_share(rounds, count):
    # in floats 0.55 * rounds lands just above the integer here
    assert math.ceil(0.55 * rounds) == count + 1
    assert len(select_rounds(rounds, 0.55, np.random.default_rng(0))) == count


def test_announce_count_is_the_ceiling_of_the_exact_share():
    for percent in range(1, 101):
        for rounds in range(1, 401):
            assert _announce_count(rounds, percent / 100) == -(-percent * rounds // 100)
    # the fractions in use keep the counts they had
    for fraction in (0.1, 0.2, 0.25, 0.5, 1.0):
        for rounds in range(1, 1001):
            assert _announce_count(rounds, fraction) == math.ceil(fraction * rounds)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(min_value=1, max_value=300),
                   st.integers(min_value=10_001, max_value=12_000)),
       frac=st.floats(min_value=0.001, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_select_rounds_draws_what_a_choice_over_arange_draws(n, frac, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = select_rounds(n, frac, rng)
    ref = ref_rng.choice(np.arange(1, n + 1), size=len(picks), replace=False)
    assert picks == sorted(int(r) for r in ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_evaluate_odd_round_rule():
    t = _transcript([(1, 1, 1, 1), (3, 0, 1, 0), (5, 1, 1, 0)])
    report = evaluate(t, [
        Announcement(1, 1, 1, 1),   # both match
        Announcement(3, 0, 1, 0),   # bob off
        Announcement(5, 1, 1, 0),   # charlie off
    ])
    assert report.odd_mismatches == 2 and report.even_mismatches == 0
    assert report.rate == pytest.approx(2 / 3)
    assert report.cheating_detected


def test_evaluate_even_round_rule():
    t = _transcript([(2, 1, 0, 1), (4, 0, 1, 1), (6, 1, 1, 1)])
    report = evaluate(t, [
        Announcement(2, 1, 0, 1),   # 0^1 == 1, fine
        Announcement(4, 0, 1, 1),   # 1^1 == 0, fine
        Announcement(6, 1, 1, 1),   # 1^1 != 1, mismatch
    ])
    assert report.even_mismatches == 1 and report.odd_mismatches == 0
    assert report.rate == pytest.approx(1 / 3)


def test_evaluate_one_mismatch_per_round():
    # Both claims wrong in one odd round still count once.
    t = _transcript([(1, 1, 0, 0)])
    report = evaluate(t, [Announcement(1, 1, 0, 0)])
    assert report.odd_mismatches == 1
    assert report.rate == 1.0


def test_evaluate_tolerance_is_strict_greater():
    t = _transcript([(1, 1, 0, 1), (3, 1, 1, 1)])
    anns = [Announcement(1, 1, 0, 1), Announcement(3, 1, 1, 1)]
    assert evaluate(t, anns, tolerance=0.5).verdict == "clean"
    assert evaluate(t, anns, tolerance=0.49).verdict == "cheating_detected"


def test_evaluate_guards():
    t = _transcript([(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="zero rounds"):
        evaluate(t, [])
    with pytest.raises(KeyError, match="round 9"):
        evaluate(t, [Announcement(9, 0, 0, 0)])


def test_mismatches_localize_after_the_split():
    # Full announcement of an attacked run: every failing round sits strictly
    # after round 2 (round 1 was honest; round 2's claim is fabricated to
    # pass under bob-last ordering).
    cfg = ProtocolConfig(variant=Variant.THETA, angles=symmetric_triple(2 * math.pi / 3),
                         num_rounds=30, rng_seed=0, announce_fraction=1.0)
    found_bad = 0
    for seed in range(6):
        res = experiments.run_attack_trial(cfg, MaintenancePolicy.RANDOM_GUESS, seed=seed)
        by_round = {rec.round_index: rec for rec in res.transcript.records}
        for ann in res.announcements:
            rec = by_round[ann.round_index]
            if rec.parity == "odd":
                ok = ann.bob_claim == ann.alice_bit and ann.charlie_claim == ann.alice_bit
            else:
                ok = (ann.bob_claim ^ ann.charlie_claim) == ann.alice_bit
            if not ok:
                found_bad += 1
                assert ann.round_index > 2
    assert found_bad > 0


def test_defense_power_grows_with_announce_fraction():
    # Pinned-seed detection probabilities over the fraction grid; the
    # sequence must be nondecreasing within one-sided binomial slack.
    tri = symmetric_triple(2 * math.pi / 3)
    dets = []
    n = 150
    for frac in (0.1, 0.2, 0.5, 1.0):
        cfg = ProtocolConfig(variant=Variant.THETA, angles=tri, num_rounds=50,
                             rng_seed=0, announce_fraction=frac)
        res = experiments.run_trials(cfg, n, base_seed=21,
                                     policy=MaintenancePolicy.RANDOM_GUESS)
        dets.append(experiments.aggregate(res).detection_probability)
    assert dets == pytest.approx([0.8933333333333333, 0.9466666666666667, 1.0, 1.0],
                                 abs=1e-12)
    for lo, hi in zip(dets, dets[1:]):
        se = math.sqrt(max(lo * (1 - lo), hi * (1 - hi)) * 2 / n)
        assert hi >= lo - 1.645 * se
