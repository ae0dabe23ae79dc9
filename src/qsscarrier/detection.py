"""Public announcement phase and the parity cross-check.

After the quantum rounds finish, a random subset of rounds is opened: Alice
announces the bit she sent, Bob and Charlie announce what they hold for that
round.  Odd rounds gave both receivers the bit directly, so each claim must
match Alice's.  Even rounds split the bit into two shares, so only the XOR
of the claims is checked.  Any announced round that fails its check is a
mismatch; a mismatch rate above the tolerance (zero by default: the honest
protocol is exact) flags cheating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .protocol import Transcript


@dataclass(frozen=True)
class Announcement:
    round_index: int
    alice_bit: int
    bob_claim: int
    charlie_claim: int


@dataclass(frozen=True)
class DetectionReport:
    announced: int
    odd_mismatches: int
    even_mismatches: int
    rate: float
    verdict: str  # "clean" or "cheating_detected"

    @property
    def cheating_detected(self) -> bool:
        return self.verdict == "cheating_detected"


def select_rounds(num_rounds: int, fraction: float, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement of ceil(fraction * num_rounds)
    rounds, with the product taken exactly on the fraction's shortest
    decimal, so no float rounding error opens an extra round."""
    if num_rounds < 1:
        raise ValueError("need at least one round to announce from")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"announce fraction must be in (0, 1], got {fraction}")
    # choice over range(num_rounds) picks the indices a draw from arange(1, num_rounds + 1) would
    picks = rng.choice(num_rounds, size=_announce_count(num_rounds, fraction), replace=False) + 1
    return sorted(picks.tolist())


@functools.lru_cache(maxsize=256)
def _announce_count(num_rounds: int, fraction: float) -> int:
    """ceil(fraction * num_rounds) on the fraction's shortest decimal: in
    floats 0.55 * 200 is 110.00000000000001, which would open 111 rounds."""
    return math.ceil(Fraction(repr(float(fraction))) * num_rounds)


def evaluate(
    transcript: Transcript,
    announcements: list[Announcement],
    tolerance: float = 0.0,
) -> DetectionReport:
    """Cross-check announced claims and report the mismatch rate.

    A round counts as one mismatch no matter how many of its claims are off.
    Raises on an announcement for a round the transcript does not contain.
    """
    if not announcements:
        raise ValueError("announcement phase opened zero rounds")
    by_round = {rec.round_index: rec for rec in transcript.records}
    odd_bad = 0
    even_bad = 0
    for ann in announcements:
        rec = by_round.get(ann.round_index)
        if rec is None:
            raise KeyError(f"announced round {ann.round_index} is not in the transcript")
        if rec.parity == "odd":
            ok = ann.bob_claim == ann.alice_bit and ann.charlie_claim == ann.alice_bit
            odd_bad += not ok
        else:
            even_bad += (ann.bob_claim ^ ann.charlie_claim) != ann.alice_bit
    rate = (odd_bad + even_bad) / len(announcements)
    verdict = "cheating_detected" if rate > tolerance else "clean"
    return DetectionReport(
        announced=len(announcements),
        odd_mismatches=odd_bad,
        even_mismatches=even_bad,
        rate=rate,
        verdict=verdict,
    )
