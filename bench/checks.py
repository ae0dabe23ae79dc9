"""Independent checks of the benchmark workloads' outputs.

Nothing here calls the program's detection code or compares against stored
output.  Mismatches are recounted from each trial's transcript and
announcements with the protocol's rule, the recount is compared with each
DetectionReport and with the aggregate, and each scenario's physics is
checked: the plain split is never caught and recovers every bit, the
hardened toggle catches a guessing Bob, honest parties are never flagged.

The checks return lists of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INTACT_TOL = 1e-10  # carrier or pattern fidelity this close to 1 is intact
DISGUISE_TOL = 1e-12  # largest in-flight trace distance an honest run may show
C6_DETECTION_RATE = 0.99  # detection the hardened protocol must reach (c6)
C6_MIN_MISMATCH = 0.2  # mean mismatch rate a guessing Bob must cause (c6)
FALSE_ALARM = 1e-9  # chance that the binomial check fails a protocol at the c6 rate


def claims_agree(round_index: int, alice: int, bob: int | None, charlie: int) -> bool:
    """The protocol's rule: on odd rounds every claim equals Alice's bit, on
    even rounds Bob's claim XOR Charlie's claim does."""
    if bob is None:
        return False
    if round_index % 2 == 1:
        return bob == alice and charlie == alice
    return (bob ^ charlie) == alice


def binomial_lower_bound(n: int, p: float, alpha: float) -> int:
    """Largest k with P(Binomial(n, p) < k) <= alpha."""
    cdf = 0.0
    for k in range(n + 1):
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        pmf = math.exp(log_pmf)
        if cdf + pmf > alpha:
            return k
        cdf += pmf
    return n


def check_trial(workload: str, res, rounds: int, fraction: float) -> tuple[list[str], float]:
    """Recount one trial; returns (failures, recounted mismatch rate)."""
    bad: list[str] = []
    recs = res.transcript.records
    if res.transcript.num_rounds != rounds or [r.round_index for r in recs] != list(
        range(1, rounds + 1)
    ):
        bad.append(f"transcript does not hold rounds 1..{rounds}")
        return bad, math.nan
    for r in recs:
        if r.parity != ("odd" if r.round_index % 2 else "even"):
            bad.append(f"round {r.round_index} has parity {r.parity!r}")

    anns = res.announcements
    idx = [a.round_index for a in anns]
    if len(idx) != math.ceil(fraction * rounds):
        bad.append(f"{len(idx)} rounds announced, expected ceil({fraction} * {rounds})")
    if len(set(idx)) != len(idx) or not all(1 <= r <= rounds for r in idx):
        bad.append(f"announced rounds {idx} are not distinct rounds of the session")
        return bad, math.nan

    odd_bad = even_bad = 0
    for a in anns:
        rec = recs[a.round_index - 1]
        if a.alice_bit != rec.q:
            bad.append(f"round {a.round_index}: Alice announced {a.alice_bit}, sent {rec.q}")
        if a.charlie_claim != rec.charlie_bit:
            bad.append(f"round {a.round_index}: Charlie's claim differs from his read")
        if not res.attacked and a.bob_claim != rec.bob_bit:
            bad.append(f"round {a.round_index}: honest Bob's claim differs from his read")
        if not claims_agree(a.round_index, a.alice_bit, a.bob_claim, a.charlie_claim):
            if a.round_index % 2:
                odd_bad += 1
            else:
                even_bad += 1
    n_odd = sum(r % 2 for r in idx)
    rate = (odd_bad + even_bad) / len(anns) if anns else math.nan
    rep = res.report
    if (rep.announced, rep.odd_mismatches, rep.even_mismatches) != (len(anns), odd_bad, even_bad):
        bad.append(
            f"report counts {rep.announced}/{rep.odd_mismatches}/{rep.even_mismatches},"
            f" recount {len(anns)}/{odd_bad}/{even_bad} (announced/odd/even)"
        )
    if rep.rate != rate:
        bad.append(f"report rate {rep.rate} != recounted {rate}")
    if rep.cheating_detected != (odd_bad + even_bad > 0):
        bad.append(f"verdict {rep.verdict!r} with {odd_bad + even_bad} recounted mismatches")
    if (res.announced_odd, res.announced_even) != (n_odd, len(idx) - n_odd):
        bad.append("announced odd/even split disagrees with the announced rounds")

    if workload == "plain-split":
        if rep.cheating_detected:
            bad.append("plain split was flagged")
        # Bob resolves his pattern from the first announced even round; with
        # only odd rounds announced (C(50,20)/C(100,20) ~ 9e-8 of 100-round
        # trials) he has nothing to resolve it from and round 2 stays unknown
        if any(r % 2 == 0 for r in idx):
            if res.hypothesis == "unknown" or res.recovered_fraction != 1.0:
                bad.append(f"plain split bit recovery {res.recovered_fraction} is not 1")
        elif res.hypothesis != "unknown":
            bad.append("Bob resolved his pattern without an announced even round")
        if not res.min_pattern_fidelity >= 1.0 - INTACT_TOL:
            bad.append(f"fraud pattern fidelity {res.min_pattern_fidelity!r} is not 1")
    elif workload == "honest-short":
        if rep.cheating_detected:
            bad.append("honest trial was flagged")
        for r in recs:
            if not claims_agree(r.round_index, r.q, r.bob_bit, r.charlie_bit):
                bad.append(f"honest round {r.round_index} breaks the odd/even rule")
        if not res.max_disguise_distance < DISGUISE_TOL:
            bad.append(f"disguise distance {res.max_disguise_distance!r} is not below {DISGUISE_TOL}")
        if not res.min_restore_fidelity >= 1.0 - INTACT_TOL:
            bad.append(f"restore fidelity {res.min_restore_fidelity!r} is not 1")
    return bad, rate


@dataclass
class Tally:
    """Run-wide sums for the statistical scenario checks."""

    trials: int = 0
    detected: int = 0
    rate_sum: float = 0.0
    recovered_sum: float = 0.0


def check_call(workload: str, results, stats, rounds: int, fraction: float, tally: Tally) -> list[str]:
    """Check every trial of one run_trials call and its aggregate."""
    bad: list[str] = []
    rates = []
    for i, res in enumerate(results):
        fails, rate = check_trial(workload, res, rounds, fraction)
        bad += [f"trial {i}: {f}" for f in fails]
        rates.append(rate)
    n = len(results)
    detected = sum(rate > 0 for rate in rates)
    odd_n = sum(r.announced_odd for r in results)
    even_n = sum(r.announced_even for r in results)
    odd_bad = sum(r.report.odd_mismatches for r in results)
    even_bad = sum(r.report.even_mismatches for r in results)
    if (stats.trials, stats.num_rounds) != (n, rounds):
        bad.append(f"aggregate covers {stats.trials} x {stats.num_rounds}, ran {n} x {rounds}")
    if stats.detection_probability != detected / n:
        bad.append(f"aggregate detection {stats.detection_probability} != recounted {detected / n}")
    if not abs(stats.mean_mismatch_rate - math.fsum(rates) / n) <= 1e-12:
        bad.append(f"aggregate mismatch rate {stats.mean_mismatch_rate} != recounted")
    if stats.odd_error_rate != (odd_bad / odd_n if odd_n else 0.0) or stats.even_error_rate != (
        even_bad / even_n if even_n else 0.0
    ):
        bad.append("aggregate odd/even error rates disagree with the reports")
    if workload == "honest-short" and not stats.max_disguise_distance < DISGUISE_TOL:
        bad.append(f"aggregate disguise distance {stats.max_disguise_distance!r}")
    if stats.attacked:
        recovered = math.fsum(r.recovered_fraction for r in results)
        if not abs(stats.mean_recovered_fraction - recovered / n) <= 1e-12:
            bad.append(f"aggregate recovery {stats.mean_recovered_fraction} != trials' mean")
        tally.recovered_sum += recovered
    tally.trials += n
    tally.detected += detected
    tally.rate_sum += math.fsum(rates)
    return bad


def check_run(workload: str, tally: Tally) -> list[str]:
    """Statistical scenario checks over every trial of the run."""
    if workload != "hardened-guess" or tally.trials == 0:
        return []
    bad = []
    floor = binomial_lower_bound(tally.trials, C6_DETECTION_RATE, FALSE_ALARM)
    if tally.detected < floor:
        bad.append(
            f"hardened protocol caught Bob in {tally.detected} of {tally.trials} trials,"
            f" below {floor}, the {FALSE_ALARM:g} quantile at detection {C6_DETECTION_RATE}"
        )
    if not tally.rate_sum / tally.trials >= C6_MIN_MISMATCH:
        bad.append(f"mean mismatch rate {tally.rate_sum / tally.trials} is below {C6_MIN_MISMATCH}")
    if not tally.recovered_sum / tally.trials < 1.0:
        bad.append("guessing Bob recovered every bit through the hardened toggle")
    return bad

