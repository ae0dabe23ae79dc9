"""Monte Carlo harness: honest and attacked runs, detection statistics, sweeps.

Each trial owns three independent RNG streams derived from its seed
(protocol measurements, Bob's private coins, announcement sampling), so
trials can fan out to worker processes and aggregate in any order without
changing results.  Stream i is the child ss.spawn(3)[i] of a fresh
SeedSequence ss of the trial seed, built directly from its key
(entropy, spawn_key + (i,), pool_size): the seed object is never spawned
from, so a trial replays the same from the same seed however often it runs.
Honest runs seed only the protocol and announcement streams; Bob's is
never read there.

The runners build no SeedSequence, PCG64 or Generator per trial.  One pass
over columns (pcg64_states) computes the state each (trial, stream) key's
PCG64 would start in, and the batch's streams (TrialStreams) hand out each
trial's values from one PCG64 of the batch's own, re-seated to that trial's
state.  A stream's draws are taken ahead of the rounds as raw words and
decoded by their schedule of random() and integers(0, 2) calls
(decode_stream): the protocol stream's into the bits, then the K
measurement uniforms the rounds read in order (2 per round honest, R + 1 in
an R-round attacked run); Bob's into the draws his schedule names
(adversary.bob_kinds), which interleave random() with integers(0, 2) and so
read buffered 32-bit half-words.  The opened rounds come from numpy's own
Generator.choice (detection.select_rounds) over the re-seated bit
generator.  This module is the one place that knows numpy's seeding and
word format; both follow numpy's C code, not a documented API, so
check_stream_seeding compares them with numpy's own objects once per
process and raises on any difference.

Every round value lands in (trials, rounds) columns; the records of a
transcript are built from them once, when the rounds are over.  The
announcement phase reads columns too: every claim, Bob's included, comes off
the transcript, and Bob's pattern hypotheses come from one array rule over
the opened rounds of the whole batch (adversary.pattern_hypotheses).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import adversary, detection, gates, protocol, qcore
from .adversary import MaintenancePolicy
from .detection import Announcement, DetectionReport
from .gates import BellKind, ThetaTriple
from .protocol import AnnounceOrder, ProtocolConfig, Transcript, Variant

INTACT_TOL = 1e-10

SeedLike = int | np.random.SeedSequence
# a trial's (entropy, spawn_key, pool_size): its SeedSequence without the hashing
TrialKey = tuple

# stream indices: 0 protocol, 1 Bob, 2 announcements; an honest Bob draws nothing
ALL_STREAMS = (0, 1, 2)
HONEST_STREAMS = (0, 2)
PROTOCOL_STREAM, BOB_STREAM, ANNOUNCE_STREAM = ALL_STREAMS

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
    SeedSequence(seed).spawn(3) would seed, order-independent across trials.

    The runners seed the same streams by columns (TrialStreams); this builds
    them one SeedSequence, PCG64 and Generator at a time, with numpy's own
    objects: the reference the tests hold the runners' draws to."""
    entropy, spawn_key, pool_size = seed if isinstance(seed, tuple) else trial_key(seed)
    return tuple(
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key + (i,), pool_size=pool_size))
        )
        for i in streams
    )


# ---------------------------------------------------------------------------
# numpy's stream format: PCG64 seeded by columns, raw words read as draws
#
# numpy seeds PCG64(SeedSequence(entropy, spawn_key, pool_size)) in three
# steps.  The entropy and spawn key are assembled into uint32 words, the
# entropy zero-padded to the pool size when there is a spawn key; mix_entropy
# hashes them into pool_size words; generate_state(4, uint64) expands the
# pool into four seed words.  pcg64_set_seed then takes seed = w0:w1 and
# inc = (w2:w3 << 1) | 1 and steps the LCG twice: state = ((inc + seed) *
# MULT + inc) mod 2**128.  The hash constants advance once per hash call
# whatever the words are.  Because of the padding, the spawn-key words are
# always mixed in after the pool is filled from the entropy alone (a pool
# word the entropy lacks hashes 0, as its padding would).  The keys of a
# batch differ only in those spawn-key words, so the pool words before them
# are mixed once as scalars and the spawn-key words by columns.

_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
# numpy.random.SeedSequence's hashing constants and shift
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
# pcg64_set_seed's LCG multiplier, PCG_DEFAULT_MULTIPLIER_128
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(x) -> list[int]:
    """An int, or a nested sequence of ints, as the uint32 words SeedSequence
    assembles: each int's words least significant first, 0 as one word."""
    if isinstance(x, (int, np.integer)):
        n = int(x)
        if n < 0:
            raise ValueError(f"seed entropy must be non-negative, got {n}")
        words = [n & _M32]
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
        return words
    words = []
    for v in x:
        if type(v) is int and 0 <= v <= _M32:
            words.append(v)
        else:
            words += _uint32_words(v)
    return words


def _hash_consts(start: int, mult: int, calls: int) -> list[int]:
    """The hash constant before each of `calls` hash calls, then after the last."""
    consts = [start]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _mix(x, y):
    """SeedSequence's mix of two pool words, on ints or uint32 arrays."""
    r = (MIX_MULT_L * x - MIX_MULT_R * y) & _M32
    return r ^ r >> XSHIFT


def _mixed_pool(words: list[int], pool_size: int) -> tuple[list[int], int]:
    """mix_entropy over a key's entropy words, as scalars: the pool and the
    hash constant the spawn-key words' mixing starts from."""
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(pool_size)]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[pool_size:]:
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool, hash_const


def _generate_state(keys: Sequence[TrialKey]) -> np.ndarray:
    """SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
    .generate_state(8) of every key, one uint32 row each.

    Keys are grouped by their entropy, pool size and spawn-key length; each
    group mixes its spawn-key words by columns, as a (pool_size, keys) array."""
    groups: dict[tuple, tuple[list[int], list[list[int]]]] = {}
    for row, (entropy, spawn_key, pool_size) in enumerate(keys):
        tail = _uint32_words(spawn_key)
        entropy_key = entropy if type(entropy) is int else tuple(_uint32_words(entropy))
        rows, tails = groups.setdefault((entropy_key, pool_size, len(tail)), ([], []))
        rows.append(row)
        tails.append(tail)
    out = np.empty((len(keys), 8), dtype=np.uint32)
    expand = np.array(_hash_consts(INIT_B, MULT_B, 8), dtype=np.uint32)[:, np.newaxis]
    for (entropy, pool_size, tail_len), (rows, tails) in groups.items():
        first, hash_const = _mixed_pool(_uint32_words(entropy), pool_size)
        pool = np.repeat(np.array(first, dtype=np.uint32)[:, np.newaxis], len(rows), axis=1)
        consts = np.array(_hash_consts(hash_const, MULT_A, tail_len * pool_size), dtype=np.uint32)
        tail_words = np.array(tails, dtype=np.uint32).reshape(len(rows), tail_len)
        for j in range(tail_len):
            c = consts[j * pool_size : (j + 1) * pool_size + 1, np.newaxis]
            value = (tail_words[:, j] ^ c[:-1]) * c[1:]
            pool = _mix(pool, value ^ value >> XSHIFT)
        data = (pool[np.arange(8) % pool_size] ^ expand[:-1]) * expand[1:]
        out[rows] = (data ^ data >> XSHIFT).T
    return out


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> dict:
    """pcg64_set_seed from four seed words: the state dict of a fresh PCG64."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
    state = ((inc + (seed_hi << 64 | seed_lo)) * PCG64_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def pcg64_states(keys: Sequence[TrialKey]) -> list[dict]:
    """The state PCG64(SeedSequence(entropy, spawn_key=spawn_key,
    pool_size=pool_size)) starts in, for each key, computed in one pass."""
    halves = _generate_state(keys).astype(np.uint64)
    # generate_state(4, uint64) reads each pair of uint32 words little-endian
    seeds = halves[:, 0::2] | halves[:, 1::2] << np.uint64(32)
    return [_pcg64_state(*row) for row in seeds.tolist()]


# A Generator's random() is one 64-bit word w of its PCG64, as (w >> 11) *
# 2**-53.  Its integers(0, 2) is bit 31 of a 32-bit half-word: the low half
# of a fresh word, whose high half stays buffered and serves the next
# integers call; random() does not touch that buffer.  So a schedule of
# draws, random() as "d" and integers(0, 2) as "i", fixes which word and bit
# each draw reads, and a trial's whole schedule is one random_raw call.


def word_count(kinds: str) -> int:
    """Words of a schedule of random() ("d") and integers(0, 2) ("i") draws."""
    return kinds.count("d") + (kinds.count("i") + 1) // 2


@functools.lru_cache(maxsize=64)
def _word_layout(kinds: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per draw of a schedule: the word it reads, the shift that brings its
    bits down, and the mask that keeps them."""
    word, shift, fresh, buffered = [], [], 0, None
    for kind in kinds:
        if kind == "d":
            word.append(fresh)
            shift.append(11)
            fresh += 1
        elif kind != "i":
            raise ValueError(f"unknown draw kind {kind!r}")
        elif buffered is None:
            word.append(fresh)
            shift.append(31)
            buffered, fresh = fresh, fresh + 1
        else:
            word.append(buffered)
            shift.append(63)
            buffered = None
    layout = (
        np.array(word, dtype=np.intp),
        np.array(shift, dtype=np.uint64),
        np.array([2**53 - 1 if kind == "d" else 1 for kind in kinds], dtype=np.uint64),
    )
    for part in layout:
        part.setflags(write=False)
    return layout


def decode_stream(words: np.ndarray, kinds: str) -> np.ndarray:
    """The values a schedule of lazy draws takes, one row of raw PCG64 words
    per trial: random() as its double, integers(0, 2) as 0.0 or 1.0."""
    word, shift, mask = _word_layout(kinds)
    picked = (words[:, word] >> shift) & mask
    return picked * np.where(mask == 1, 1.0, 2.0**-53)


def _draws(bitgen: np.random.PCG64, states: list[dict], kinds: str) -> np.ndarray:
    """The values of a schedule of draws from each state, one row per state:
    the schedule's raw words, drawn by re-seating bitgen, decoded."""
    words = np.empty((len(states), word_count(kinds)), dtype=np.uint64)
    for row, state in zip(words, states):
        bitgen.state = state
        row[:] = bitgen.random_raw(len(row))
    return decode_stream(words, kinds)


class TrialStreams:
    """The values a lockstep batch of trials draws, seeded by columns.

    Holds every (trial, stream)'s starting state and one PCG64, re-seated to
    a trial's state before that trial's draws; each batch builds its own, so
    runs in separate threads never share one.  It hands out values only, so
    no caller holds a generator whose state a later call moves.
    """

    def __init__(self, keys: Sequence[TrialKey], streams: tuple[int, ...]) -> None:
        _check_seeding_once()
        states = pcg64_states(
            [(entropy, spawn_key + (s,), pool_size) for entropy, spawn_key, pool_size in keys for s in streams]
        )
        self._states = {s: states[i :: len(streams)] for i, s in enumerate(streams)}
        self._bitgen = np.random.PCG64(0)

    def draws(self, stream: int, kinds: str) -> np.ndarray:
        """Each trial's values of a schedule of random() ("d") and
        integers(0, 2) ("i") draws from the stream, one float64 row per trial."""
        return _draws(self._bitgen, self._states[stream], kinds)

    def protocol(self, num_rounds: int, measurements: int) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's bits, then its measurement uniforms: the values
        integers(0, 2, size=R) and random(K) take, in their order."""
        values = self.draws(PROTOCOL_STREAM, "i" * num_rounds + "d" * measurements)
        return values[:, :num_rounds].astype(np.int64), values[:, num_rounds:]

    def announced(self, num_rounds: int, fraction: float) -> list[list[int]]:
        """Each trial's opened rounds, drawn by detection.select_rounds from a
        Generator over the bit generator re-seated to that trial's state."""
        rng = np.random.Generator(self._bitgen)
        opened = []
        for state in self._states[ANNOUNCE_STREAM]:
            self._bitgen.state = state
            opened.append(detection.select_rounds(num_rounds, fraction, rng))
        return opened


# PCG64(2014)'s key, and a schedule of lazy scalar draws that reads words
# every way a draw can: a low half, doubles between it and its high half,
# two halves in a row, and a high half left buffered; under this key the two
# halves of each word differ in bit 31, so reading them in the wrong order
# or at the wrong bit changes a value
_SCALAR_GUARD_KEY = (2014, (), 4)
_SCALAR_GUARD_KINDS = "iddiiidddid"
# keys the guard runs: entropy shorter than the pool, past it, and as a list;
# spawn words of 2**32 and more; pools of 4, 5 and 8; spawn keys of 0 to 3
# words in one pass, three of them over the same entropy
_GUARD_KEYS = (
    (2014, (0,), 4),
    (2014, (6, 2), 4),
    (2**200 + 2014, (2**40 + 1, 1), 4),
    ([5, 2**33, 0], (3,), 8),
    (2014, (), 5),
    _SCALAR_GUARD_KEY,
)
# (bits, uniforms) of protocol streams with odd and even bit counts
_GUARD_SCHEDULES = ((3, 5), (4, 5))


def check_stream_seeding() -> None:
    """Raise unless the seeding pass starts each guard key's PCG64 where
    numpy's own does, and its raw words decode to the values
    integers(0, 2, size=R) and then random(K) take, for odd and even R; on
    PCG64(2014)'s key, also to the values of lazy scalar random() and
    integers(0, 2) calls."""
    states = pcg64_states(_GUARD_KEYS)
    bitgen = np.random.PCG64(0)
    for key, state in zip(_GUARD_KEYS, states):
        entropy, spawn_key, pool_size = key
        seq = functools.partial(np.random.SeedSequence, entropy, spawn_key=spawn_key, pool_size=pool_size)
        same = np.random.PCG64(seq()).state == state
        for num_rounds, measurements in _GUARD_SCHEDULES:
            lazy = np.random.Generator(np.random.PCG64(seq()))
            expected = lazy.integers(0, 2, size=num_rounds).tolist() + lazy.random(measurements).tolist()
            got = _draws(bitgen, [state], "i" * num_rounds + "d" * measurements)
            same = same and got[0].tolist() == expected
        if key == _SCALAR_GUARD_KEY:
            lazy = np.random.Generator(np.random.PCG64(seq()))
            expected = [lazy.random() if kind == "d" else float(lazy.integers(0, 2)) for kind in _SCALAR_GUARD_KINDS]
            same = same and _draws(bitgen, [state], _SCALAR_GUARD_KINDS)[0].tolist() == expected
        if not same:
            raise RuntimeError(
                f"numpy {np.__version__} seeds or reads PCG64 differently from the columnar pass"
                f" (key {key}); the runners would not reproduce the trials' streams"
            )


@functools.cache
def _check_seeding_once() -> None:
    check_stream_seeding()


def build_announcements(
    transcript: Transcript,
    rounds: Sequence[int],
    round2_guess: int | None = None,
) -> list[Announcement]:
    """Collect the three parties' claims for the opened rounds, ascending.

    Every claim comes off the transcript, a cheating Bob's too: the Bob
    column holds the shares he claims.  Only round 2, the round he splits,
    has no read of his (bob_bit None), and his claim there is pure
    fabrication: announcing last he names alice XOR charlie and always
    passes; announcing before Charlie he can only guess the blank read
    (round2_guess, his guess of Charlie's bit), which fails half the time.
    """
    by_round = {rec.round_index: rec for rec in transcript.records}
    anns = []
    for r in rounds:
        rec = by_round[r]
        alice, bob, charlie = rec.q, rec.bob_bit, rec.charlie_bit
        if bob is None:
            bob = alice ^ (charlie if round2_guess is None else round2_guess)
        anns.append(Announcement(r, alice, bob, charlie))
    return anns


def _trial_results(
    transcripts: list[Transcript],
    opened: list[list[int]],
    guesses: list[int | None],
    tolerance: float,
    attacked: bool,
    **columns,
) -> list[TrialResult]:
    """Each trial's announcements of its opened rounds, their evaluation and
    its TrialResult.  guesses is Bob's round-2 guess per trial (see
    build_announcements); columns maps the remaining TrialResult fields to
    one value per trial."""
    results = []
    for transcript, rounds, guess, *values in zip(transcripts, opened, guesses, *columns.values()):
        anns = build_announcements(transcript, rounds, guess)
        odd = sum(1 for a in anns if a.round_index % 2 == 1)
        results.append(
            TrialResult(
                transcript=transcript,
                announcements=anns,
                report=detection.evaluate(transcript, anns, tolerance),
                announced_odd=odd,
                announced_even=len(anns) - odd,
                attacked=attacked,
                **dict(zip(columns, values)),
            )
        )
    return results


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
    streams = TrialStreams(keys, HONEST_STREAMS)
    bits, uniforms = streams.protocol(config.num_rounds, 2 * config.num_rounds)
    session = protocol.init_session(config, uniforms=uniforms)
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

    n = len(keys)
    return _trial_results(
        session.transcripts(),
        streams.announced(config.num_rounds, config.announce_fraction),
        [None] * n,
        tolerance,
        False,
        min_restore_fidelity=session.fidelities.min(axis=1).tolist(),
        max_disguise_distance=max_dist.tolist() if instrument_disguise else [None] * n,
    )


def _attack_trials(
    config: ProtocolConfig,
    policy: MaintenancePolicy,
    keys: list[TrialKey],
    tolerance: float,
) -> list[TrialResult]:
    """Split-attack runs of every seed in lockstep: honest round 1, split in
    round 2, then man-in-the-middle decode-and-forward under the given
    maintenance policy, ending with the announcement phase and Bob's bit
    recovery."""
    if config.num_rounds < 2:
        raise ValueError("the split happens in round 2; need at least 2 rounds")
    streams = TrialStreams(keys, ALL_STREAMS)
    # two reads in round 1, then Charlie's one read per round
    bits, uniforms = streams.protocol(config.num_rounds, config.num_rounds + 1)
    session = protocol.init_session(config, extra_labels=adversary.ATTACK_EXTRA_LABELS, uniforms=uniforms)

    protocol.encode_round(session, bits[:, 0])
    honest_round1, _ = protocol.deliver_and_decode(session)
    protocol.toggle_carrier(session)
    protocol.encode_round(session, bits[:, 1])
    bob_draws = streams.draws(BOB_STREAM, adversary.bob_kinds(policy, config.num_rounds))
    attack = adversary.execute_split(session, adversary.synthesize_split_unitary(), policy, bob_draws)
    adversary.record_reads(attack, 1, honest_round1)
    adversary.forward_round2_counterfeit(session, attack)
    adversary.maintain_carriers(session, attack)
    for r in range(2, config.num_rounds):
        protocol.encode_round(session, bits[:, r])
        adversary.attack_decode_and_forward(session, attack)
        adversary.maintain_carriers(session, attack)
    session.require_uniforms_spent()

    # announcing first, Bob guesses Charlie's round-2 read with his last claim bit
    if config.announce_order is AnnounceOrder.ALICE_FIRST:
        guesses = attack.claim_draws[:, -1].tolist()
    else:
        guesses = [None] * len(keys)
    rounds = streams.announced(config.num_rounds, config.announce_fraction)
    # every trial opens the same number of rounds
    opened = np.zeros(bits.shape, dtype=bool)
    np.put_along_axis(opened, np.array(rounds) - 1, True, axis=1)
    attack.hypotheses = adversary.pattern_hypotheses(attack.raw_bits, opened, bits)
    return _trial_results(
        session.transcripts(),
        rounds,
        guesses,
        tolerance,
        True,
        recovered_fraction=((attack.learned_bits() == bits).sum(axis=1) / config.num_rounds).tolist(),
        hypothesis=[adversary.HYPOTHESES[code].value for code in attack.hypotheses.tolist()],
        min_pattern_fidelity=session.fidelities[:, 1:].min(axis=1).tolist(),
    )


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
    tolerance: float = 0.0,
) -> TrialResult:
    """One full split-attack run (see _attack_trials)."""
    seed = config.rng_seed if seed is None else seed
    return _attack_trials(config, policy, [trial_key(seed)], tolerance)[0]


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
        jobs = [(config, policy, chunk, tolerance) for chunk in chunks]
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
    b = -2.0 * theta
    gates.require_finite((theta, b))  # before np.mod, which warns on inf
    return ThetaTriple.from_ab(theta, float(np.mod(b, 2.0 * np.pi)))


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
    return qcore.fidelity(after, state).item() >= 1.0 - INTACT_TOL
