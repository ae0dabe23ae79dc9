"""Monte Carlo harness: honest and attacked runs, detection statistics, sweeps.

Each trial owns three independent RNG streams derived from its seed
(protocol measurements, Bob's private coins, announcement sampling), so
trials can fan out to worker processes and aggregate in any order without
changing results.  Stream i is the child ss.spawn(3)[i] of a fresh
SeedSequence ss of the trial seed, built directly from its key
(entropy, spawn_key + (i,), pool_size): the seed object is never spawned
from, so a trial replays the same from the same seed however often it runs.
Honest runs build only the protocol and announcement streams; Bob's is
never read there.

The runners draw each trial's protocol stream ahead of the rounds: the bits,
then one random(K) for the K measurement uniforms the rounds read in order
(2 per round honest, R + 1 in an R-round attacked run), which gives the
values K lazy random() calls would.  Bob's stream is drawn ahead too, as
the raw words of his PCG64 (adversary.AttackState.draw): it interleaves
random() with integers(0, 2), which reads buffered 32-bit half-words, so
its words are decoded draw by draw as the lazy calls would read them.
Every round value lands in (trials, rounds) columns; the records of a
transcript are built from them once, when the rounds are over.  The
announcement phase reads columns too: every claim, Bob's included, comes off
the transcript, and Bob's pattern hypotheses come from one array rule over
the opened rounds of the whole batch (adversary.pattern_hypotheses).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import adversary, detection, protocol, qcore
from .adversary import MaintenancePolicy, SplitUnitary
from .detection import Announcement, DetectionReport
from .gates import BellKind, ThetaTriple
from .protocol import AnnounceOrder, ProtocolConfig, Transcript, Variant

INTACT_TOL = 1e-10

SeedLike = int | np.random.SeedSequence
# a trial's (entropy, spawn_key, pool_size): its SeedSequence without the hashing
TrialKey = tuple

# stream indices: 0 protocol, 1 Bob, 2 announcements; an honest Bob draws nothing,
# and an attacking one draws raw words from his stream's bit generator alone
ALL_STREAMS = (0, 1, 2)
HONEST_STREAMS = (0, 2)
BOB_STREAM = 1

# basis index i of the (m1, m2) marginal for the flipped bit reads index f[i] of the sent one
FLIPPED_MESSAGE_INDEX = {"odd": (3, 2, 1, 0), "even": (2, 3, 0, 1)}


@dataclass(frozen=True)
class TrialResult:
    transcript: Transcript
    announcements: list[Announcement]
    report: DetectionReport
    announced_odd: int
    announced_even: int
    attacked: bool
    recovered_fraction: float | None = None
    hypothesis: str | None = None
    min_pattern_fidelity: float | None = None
    min_restore_fidelity: float | None = None
    max_disguise_distance: float | None = None


@dataclass(frozen=True)
class AggregateStats:
    trials: int
    num_rounds: int
    attacked: bool
    detection_probability: float
    mean_mismatch_rate: float
    odd_error_rate: float
    even_error_rate: float
    mean_carrier_fidelity: float
    min_carrier_fidelity: float
    mean_recovered_fraction: float | None = None
    max_disguise_distance: float | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "trials": self.trials,
            "rounds": self.num_rounds,
            "attacked": self.attacked,
            "detection_probability": self.detection_probability,
            "mean_mismatch_rate": self.mean_mismatch_rate,
            "odd_error_rate": self.odd_error_rate,
            "even_error_rate": self.even_error_rate,
            "mean_carrier_fidelity": self.mean_carrier_fidelity,
            "min_carrier_fidelity": self.min_carrier_fidelity,
        }
        if self.mean_recovered_fraction is not None:
            obj["mean_recovered_fraction"] = self.mean_recovered_fraction
        if self.max_disguise_distance is not None:
            obj["max_disguise_distance"] = self.max_disguise_distance
        return obj


def trial_key(seed: SeedLike) -> TrialKey:
    """The key of a trial seed's SeedSequence; reads the seed, never spawns from it."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.entropy, ss.spawn_key, ss.pool_size


def trial_rngs(
    seed: SeedLike | TrialKey, streams: tuple[int, ...] = ALL_STREAMS
) -> tuple[np.random.Generator, ...]:
    """The generators of the given streams of one trial, by default
    (protocol, Bob, announcement): what the children of a fresh
    SeedSequence(seed).spawn(3) would seed, order-independent across trials."""
    key = seed if isinstance(seed, tuple) else trial_key(seed)
    return tuple(np.random.Generator(_bit_generator(key, i)) for i in streams)


def _bit_generator(key: TrialKey, stream: int) -> np.random.PCG64:
    entropy, spawn_key, pool_size = key
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key + (stream,), pool_size=pool_size)
    return np.random.PCG64(seq)


def draw_protocol_stream(
    rngs: list[np.random.Generator], num_rounds: int, measurements: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's bits, then its measurement uniforms, from its protocol
    generator: the values the lazy draws of a run would take, in their order."""
    bits = np.empty((len(rngs), num_rounds), dtype=np.int64)
    uniforms = np.empty((len(rngs), measurements))
    for rng, row_bits, row_uniforms in zip(rngs, bits, uniforms):
        row_bits[:] = rng.integers(0, 2, size=num_rounds)
        rng.random(out=row_uniforms)
    return bits, uniforms


def build_announcements(
    transcript: Transcript,
    fraction: float,
    rng: np.random.Generator,
    round2_guess: int | None = None,
) -> list[Announcement]:
    """Open a random subset of rounds and collect the three parties' claims.

    Every claim comes off the transcript, a cheating Bob's too: the Bob
    column holds the shares he claims.  Only round 2, the round he splits,
    has no read of his (bob_bit None), and his claim there is pure
    fabrication: announcing last he names alice XOR charlie and always
    passes; announcing before Charlie he can only guess the blank read
    (round2_guess, his guess of Charlie's bit), which fails half the time.
    """
    rounds = detection.select_rounds(transcript.num_rounds, fraction, rng)
    by_round = {rec.round_index: rec for rec in transcript.records}
    anns = []
    for r in rounds:
        rec = by_round[r]
        alice, bob, charlie = rec.q, rec.bob_bit, rec.charlie_bit
        if bob is None:
            bob = alice ^ (charlie if round2_guess is None else round2_guess)
        anns.append(Announcement(r, alice, bob, charlie))
    return anns


def _parity_split(announcements: list[Announcement]) -> tuple[int, int]:
    odd = sum(1 for a in announcements if a.round_index % 2 == 1)
    return odd, len(announcements) - odd


def _honest_trials(
    config: ProtocolConfig,
    keys: list[TrialKey],
    instrument_disguise: bool,
    tolerance: float,
) -> list[TrialResult]:
    """Honest end-to-end runs of every seed in lockstep, plus their
    announcement checks.

    With instrumentation on, every round also computes the in-flight (m1, m2)
    marginal for the bit actually sent and for its flip; their trace distance
    is what an interceptor without carrier access could exploit.  The flipped
    bit's encoding adds an X on m1 (and m2 in odd rounds) that commutes with
    the rest, so its marginal is the sent one read at permuted indices.  That
    copy is not validated again: reduced_density has just validated the sent
    marginal, and a symmetric permutation moves its entries exactly, computes
    none, and so keeps it Hermitian, of unit trace and with the same spectrum.
    """
    streams = [trial_rngs(key, HONEST_STREAMS) for key in keys]
    rngs_p = [rng_p for rng_p, _ in streams]
    bits, uniforms = draw_protocol_stream(rngs_p, config.num_rounds, 2 * config.num_rounds)
    session = protocol.init_session(config, rng=rngs_p, uniforms=uniforms)
    max_dist = np.zeros(len(keys))
    for r in range(config.num_rounds):
        protocol.encode_round(session, bits[:, r])
        if instrument_disguise:
            sent = qcore.reduced_density(session.states, protocol.MESSAGE_LABELS)
            f = FLIPPED_MESSAGE_INDEX[session.parity]
            max_dist = np.maximum(max_dist, qcore.trace_distance(sent, sent[:, f][:, :, f]))
        protocol.deliver_and_decode(session)
        protocol.toggle_carrier(session)
    session.require_uniforms_spent()

    results = []
    min_fids = session.fidelities.min(axis=1).tolist()
    dists = max_dist.tolist() if instrument_disguise else [None] * len(keys)
    for transcript, (_, rng_ann), min_fid, dist in zip(session.transcripts(), streams, min_fids, dists):
        anns = build_announcements(transcript, config.announce_fraction, rng_ann)
        odd_n, even_n = _parity_split(anns)
        results.append(
            TrialResult(
                transcript=transcript,
                announcements=anns,
                report=detection.evaluate(transcript, anns, tolerance),
                announced_odd=odd_n,
                announced_even=even_n,
                attacked=False,
                min_restore_fidelity=min_fid,
                max_disguise_distance=dist,
            )
        )
    return results


def _attack_trials(
    config: ProtocolConfig,
    policy: MaintenancePolicy,
    keys: list[TrialKey],
    su: SplitUnitary,
    tolerance: float,
) -> list[TrialResult]:
    """Split-attack runs of every seed in lockstep: honest round 1, split in
    round 2, then man-in-the-middle decode-and-forward under the given
    maintenance policy, ending with the announcement phase and Bob's bit
    recovery."""
    if config.num_rounds < 2:
        raise ValueError("the split happens in round 2; need at least 2 rounds")
    streams = [trial_rngs(key, HONEST_STREAMS) for key in keys]
    rngs_p = [rng_p for rng_p, _ in streams]
    # two reads in round 1, then Charlie's one read per round
    bits, uniforms = draw_protocol_stream(rngs_p, config.num_rounds, config.num_rounds + 1)
    session = protocol.init_session(
        config, rng=rngs_p, extra_labels=adversary.ATTACK_EXTRA_LABELS, uniforms=uniforms
    )

    protocol.encode_round(session, bits[:, 0])
    honest_round1, _ = protocol.deliver_and_decode(session)
    protocol.toggle_carrier(session)
    protocol.encode_round(session, bits[:, 1])
    bob_streams = [_bit_generator(key, BOB_STREAM) for key in keys]
    attack = adversary.execute_split(session, su, policy, bob_streams)
    adversary.record_reads(attack, 1, honest_round1)
    adversary.forward_round2_counterfeit(session, attack)
    adversary.maintain_carriers(session, attack)
    for r in range(2, config.num_rounds):
        protocol.encode_round(session, bits[:, r])
        adversary.attack_decode_and_forward(session, attack)
        adversary.maintain_carriers(session, attack)
    session.require_uniforms_spent()

    transcripts = session.transcripts()
    # announcing first, Bob guesses Charlie's round-2 read with his last claim bit
    if config.announce_order is AnnounceOrder.ALICE_FIRST:
        guesses = attack.claim_draws[:, -1].tolist()
    else:
        guesses = [None] * len(keys)
    announced = [
        build_announcements(transcript, config.announce_fraction, rng_ann, guess)
        for transcript, (_, rng_ann), guess in zip(transcripts, streams, guesses)
    ]
    opened = np.zeros(bits.shape, dtype=bool)
    for row, anns in zip(opened, announced):
        row[[ann.round_index - 1 for ann in anns]] = True
    attack.hypotheses = adversary.pattern_hypotheses(attack.raw_bits, opened, bits)
    recovered = ((attack.learned_bits() == bits).sum(axis=1) / config.num_rounds).tolist()
    hypotheses = [adversary.HYPOTHESES[code].value for code in attack.hypotheses.tolist()]
    min_fids = session.fidelities[:, 1:].min(axis=1).tolist()
    results = []
    for transcript, anns, fraction, hypothesis, min_fid in zip(
        transcripts, announced, recovered, hypotheses, min_fids
    ):
        odd_n, even_n = _parity_split(anns)
        results.append(
            TrialResult(
                transcript=transcript,
                announcements=anns,
                report=detection.evaluate(transcript, anns, tolerance),
                announced_odd=odd_n,
                announced_even=even_n,
                attacked=True,
                recovered_fraction=fraction,
                hypothesis=hypothesis,
                min_pattern_fidelity=min_fid,
            )
        )
    return results


def run_honest_trial(
    config: ProtocolConfig,
    seed: SeedLike | None = None,
    instrument_disguise: bool = False,
    tolerance: float = 0.0,
) -> TrialResult:
    """One honest end-to-end run plus its announcement check (see _honest_trials)."""
    seed = config.rng_seed if seed is None else seed
    return _honest_trials(config, [trial_key(seed)], instrument_disguise, tolerance)[0]


def run_attack_trial(
    config: ProtocolConfig,
    policy: MaintenancePolicy,
    seed: SeedLike | None = None,
    su: SplitUnitary | None = None,
    tolerance: float = 0.0,
) -> TrialResult:
    """One full split-attack run (see _attack_trials)."""
    if su is None:
        su = adversary.synthesize_split_unitary()
    seed = config.rng_seed if seed is None else seed
    return _attack_trials(config, policy, [trial_key(seed)], su, tolerance)[0]


def run_trials(
    config: ProtocolConfig,
    trials: int,
    base_seed: int = 0,
    policy: MaintenancePolicy | None = None,
    instrument_disguise: bool = False,
    tolerance: float = 0.0,
    workers: int = 1,
) -> list[TrialResult]:
    """Independent trials, run in lockstep as one batch per process started,
    at most workers and at most the CPU count; policy=None runs honestly.
    Trial t runs from the key of SeedSequence(base_seed).spawn(trials)[t]."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    entropy, spawn_key, pool_size = trial_key(base_seed)
    keys = [(entropy, spawn_key + (t,), pool_size) for t in range(trials)]
    size = -(-trials // min(workers, os.cpu_count() or 1))
    chunks = [keys[i : i + size] for i in range(0, trials, size)]
    if policy is None:
        jobs = [(config, chunk, instrument_disguise, tolerance) for chunk in chunks]
        batch_fn = _honest_trials
    else:
        su = adversary.synthesize_split_unitary()
        jobs = [(config, policy, chunk, su, tolerance) for chunk in chunks]
        batch_fn = _attack_trials
    if len(jobs) > 1:
        with multiprocessing.Pool(len(jobs)) as pool:
            batches = pool.starmap(batch_fn, jobs)
    else:
        batches = [batch_fn(*job) for job in jobs]
    return [result for batch in batches for result in batch]


def aggregate(results: list[TrialResult]) -> AggregateStats:
    """Merge per-trial results by summation; order-independent."""
    n = len(results)
    if n == 0:
        raise ValueError("no trial results to aggregate")
    detected = sum(r.report.cheating_detected for r in results)
    odd_n = sum(r.announced_odd for r in results)
    even_n = sum(r.announced_even for r in results)
    odd_bad = sum(r.report.odd_mismatches for r in results)
    even_bad = sum(r.report.even_mismatches for r in results)
    attacked = results[0].attacked
    if attacked:
        fids = [r.min_pattern_fidelity for r in results]
        recov = [r.recovered_fraction for r in results]
        mean_recov = float(np.mean(recov))
    else:
        fids = [r.min_restore_fidelity for r in results]
        mean_recov = None
    dists = [r.max_disguise_distance for r in results if r.max_disguise_distance is not None]
    return AggregateStats(
        trials=n,
        num_rounds=results[0].transcript.num_rounds,
        attacked=attacked,
        detection_probability=detected / n,
        mean_mismatch_rate=float(np.mean([r.report.rate for r in results])),
        odd_error_rate=odd_bad / odd_n if odd_n else 0.0,
        even_error_rate=even_bad / even_n if even_n else 0.0,
        mean_carrier_fidelity=float(np.mean(fids)),
        min_carrier_fidelity=float(np.min(fids)),
        mean_recovered_fraction=mean_recov,
        max_disguise_distance=max(dists) if dists else None,
    )


def symmetric_triple(theta: float) -> ThetaTriple:
    """Angles with the receiver-side pair equal: (g, -2g mod 2pi, g)."""
    return ThetaTriple.from_ab(theta, float(np.mod(-2.0 * theta, 2.0 * np.pi)))


def sweep(
    grid: list[float],
    trials: int = 200,
    num_rounds: int = 50,
    announce_fraction: float = 0.2,
    policy: MaintenancePolicy = MaintenancePolicy.RANDOM_GUESS,
    base_seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Attack statistics per grid angle theta_a = theta_c = g (theta variant)."""
    rows = []
    for idx, g in enumerate(grid):
        triple = symmetric_triple(g)
        config = ProtocolConfig(
            variant=Variant.THETA,
            angles=triple,
            num_rounds=num_rounds,
            rng_seed=base_seed,
            announce_fraction=announce_fraction,
        )
        stats = aggregate(
            run_trials(config, trials, base_seed + idx, policy=policy, workers=workers)
        )
        rows.append(
            {
                "theta": float(g),
                "angles": list(triple.as_tuple()),
                "trials": trials,
                "rounds": num_rounds,
                "detection_probability": stats.detection_probability,
                "mean_mismatch_rate": stats.mean_mismatch_rate,
                "mean_recovered_fraction": stats.mean_recovered_fraction,
            }
        )
    return rows


def survival_probability(
    angles: ThetaTriple | None,
    policy: MaintenancePolicy,
    trials: int = 2000,
    base_seed: int = 0,
) -> float:
    """Chance one toggle leaves both fraud pairs in exactly the pattern they
    held before it.

    Samples the split bit and the round parity uniformly, places the pairs in
    the pattern the intact orbit would show at that point (PhiPlus pairs for
    q2 = 0; PhiMinus at odd rounds and PsiPlus at even ones for q2 = 1),
    plays one maintenance step, and scores survival as fidelity 1 with the
    pre-toggle pattern.  angles=None runs the plain-protocol variant.
    survival_probability_exact gives the value this estimates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(base_seed)
    policy_choice = adversary.POLICY_CHOICE[policy]
    survived = 0
    for _ in range(trials):
        q2 = int(rng.integers(0, 2))
        odd_round = bool(rng.integers(0, 2))
        survived += _survives(angles, q2, odd_round, policy_choice or adversary.toss_choice(rng))
    return survived / trials


def survival_probability_exact(angles: ThetaTriple | None, policy: MaintenancePolicy) -> float:
    """The value survival_probability estimates, by enumeration.

    The split bit, the round parity and a guessing policy's u/v coin are
    fair and independent, so the at most 2 x 2 x 2 cases it samples are
    equally likely: the chance is the share of them that survive.
    """
    policy_choice = adversary.POLICY_CHOICE[policy]
    cases = [
        _survives(angles, q2, odd_round, choice)
        for q2 in (0, 1)
        for odd_round in (True, False)
        for choice in ((policy_choice,) if policy_choice else ("u", "v"))
    ]
    return sum(cases) / len(cases)


def _survives(angles: ThetaTriple | None, q2: int, odd_round: bool, choice: str) -> bool:
    """Whether one maintenance step with the given choice leaves the pairs
    in the pattern the intact orbit shows for this split bit and parity."""
    if q2 == 0:
        kind = BellKind.PHI_PLUS
    else:
        kind = BellKind.PHI_MINUS if odd_round else BellKind.PSI_PLUS
    state = adversary.pattern_pair_state(kind, kind)
    after = adversary.maintenance_step(state, angles, choice, 1 if odd_round else 2)
    return qcore.fidelity(after, state) >= 1.0 - INTACT_TOL
