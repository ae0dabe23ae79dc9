"""Monte Carlo harness: trial runners, aggregation, sweeps, survival odds."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsscarrier import adversary, detection, experiments, gates, protocol
from qsscarrier.adversary import AttackState, MaintenancePolicy, PatternHypothesis
from qsscarrier.experiments import (
    aggregate,
    build_announcements,
    run_attack_trial,
    run_honest_trial,
    run_trials,
    survival_probability,
    survival_probability_exact,
    sweep,
    symmetric_triple,
    trial_rngs,
)
from qsscarrier.gates import ThetaTriple
from qsscarrier.protocol import AnnounceOrder, ProtocolConfig, Variant

TRI = symmetric_triple(2 * math.pi / 3)
# angles at least 1e-3 from the degenerate points 0 and pi
HARDENED_ANGLE = st.one_of(
    st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
    st.floats(min_value=math.pi + 1e-3, max_value=2 * math.pi - 1e-3),
)


def theta_config(**kw) -> ProtocolConfig:
    return ProtocolConfig(variant=Variant.THETA, angles=TRI, **kw)


def test_symmetric_triple_structure():
    assert TRI.a == pytest.approx(TRI.c)
    assert (TRI.a + TRI.b + TRI.c) % (2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    # the derived middle angle can land on pi; hardening is checked where the
    # triple is used, not at construction
    assert not symmetric_triple(math.pi / 2).is_hardened()
    with pytest.raises(ValueError, match="degenerate"):
        ProtocolConfig(variant=Variant.THETA, angles=symmetric_triple(math.pi / 2),
                       num_rounds=2)


def test_trial_rngs_deterministic_and_independent():
    a = trial_rngs(123)
    b = trial_rngs(123)
    assert len(a) == 3
    for x, y in zip(a, b):
        assert x.random() == y.random()
    c = trial_rngs(124)
    assert a[0].random() != c[0].random()


def test_honest_trial_is_clean_and_exact():
    res = run_honest_trial(theta_config(num_rounds=10), seed=3, instrument_disguise=True)
    assert not res.attacked
    assert not res.report.cheating_detected
    assert res.report.rate == 0.0
    assert res.min_pattern_fidelity is None  # attack-side field
    assert res.min_restore_fidelity >= 1 - 1e-10
    assert res.max_disguise_distance < 1e-12
    assert res.hypothesis is None
    assert len(res.announcements) == 2  # ceil(0.2 * 10)


def test_honest_announcements_echo_the_transcript():
    res = run_honest_trial(ProtocolConfig(num_rounds=15, rng_seed=1), seed=8)
    by_round = {r.round_index: r for r in res.transcript.records}
    for ann in res.announcements:
        rec = by_round[ann.round_index]
        assert ann.alice_bit == rec.q
        assert ann.bob_claim == rec.bob_bit
        assert ann.charlie_claim == rec.charlie_bit


def test_attack_trial_plain_recovers_everything():
    res = run_attack_trial(ProtocolConfig(num_rounds=20, rng_seed=0),
                           MaintenancePolicy.PLAIN_HADAMARD, seed=4)
    assert res.attacked
    assert not res.report.cheating_detected
    assert res.recovered_fraction == 1.0
    # serialized as the enum's value so results survive worker pickling
    assert res.hypothesis in (PatternHypothesis.PHI.value, PatternHypothesis.PSI.value)
    assert res.min_pattern_fidelity >= 1 - 1e-10


def test_attack_trial_requires_two_rounds():
    with pytest.raises(ValueError, match="at least 2"):
        run_attack_trial(ProtocolConfig(num_rounds=1, rng_seed=0),
                         MaintenancePolicy.PLAIN_HADAMARD, seed=0)


def test_attack_trials_frozen_aggregate():
    # 30 trials x 30 rounds at the hardened reference angle, seed 5.
    res = run_trials(theta_config(num_rounds=30), 30, base_seed=5,
                     policy=MaintenancePolicy.RANDOM_GUESS)
    agg = aggregate(res)
    assert agg.trials == 30 and agg.attacked
    assert agg.detection_probability == pytest.approx(23 / 30, abs=1e-12)
    assert agg.mean_mismatch_rate == pytest.approx(0.37777777777777766, abs=1e-12)


def test_aggregate_is_order_independent():
    res = run_trials(ProtocolConfig(num_rounds=8, rng_seed=0), 6, base_seed=9,
                     policy=MaintenancePolicy.PLAIN_HADAMARD)
    assert aggregate(list(reversed(res))) == aggregate(res)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_worker_pool_matches_serial():
    cfg = ProtocolConfig(num_rounds=10, rng_seed=0)
    serial = aggregate(run_trials(cfg, 8, base_seed=2, policy=MaintenancePolicy.PLAIN_HADAMARD))
    pooled = aggregate(run_trials(cfg, 8, base_seed=2, policy=MaintenancePolicy.PLAIN_HADAMARD,
                                  workers=2))
    assert pooled == serial
    honest = aggregate(run_trials(cfg, 8, base_seed=2, workers=2))
    assert honest.detection_probability == 0.0


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the process count asked
    for and the jobs handed over, and runs them in this process, starting
    nothing."""

    processes: list[int] = []
    jobs: list[int] = []

    def __init__(self, processes):
        _RecordingPool.processes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs):
        _RecordingPool.jobs.append(len(jobs))
        return [fn(*job) for job in jobs]


@pytest.mark.parametrize("workers", [3, 64])
def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch, workers):
    monkeypatch.setattr(experiments.multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    _RecordingPool.processes, _RecordingPool.jobs = [], []
    cfg = ProtocolConfig(num_rounds=3, rng_seed=0)
    pooled = run_trials(cfg, 64, base_seed=4, workers=workers)
    assert _RecordingPool.processes == [2]
    # one chunk per process started, and results do not depend on the chunking
    assert _RecordingPool.jobs == _RecordingPool.processes
    assert pooled == run_trials(cfg, 64, base_seed=4)


def test_alice_first_exposes_round2_guessing():
    # Under alice-first ordering Bob must guess Charlie's uniform round-2
    # read, so detection happens only in trials that announce round 2 and
    # then only on a lost coin toss.  Frozen at 200 trials x 10 rounds.
    cfg = ProtocolConfig(num_rounds=10, rng_seed=0,
                         announce_order=AnnounceOrder.ALICE_FIRST)
    res = run_trials(cfg, 200, base_seed=11, policy=MaintenancePolicy.PLAIN_HADAMARD)
    detected = [r for r in res if r.report.cheating_detected]
    assert len(detected) == 19
    for r in detected:
        assert any(ann.round_index == 2 for ann in r.announcements)
    announced_r2 = sum(any(a.round_index == 2 for a in r.announcements) for r in res)
    assert announced_r2 == 32


@pytest.mark.parametrize("order", list(AnnounceOrder))
def test_bob_claims_come_from_the_transcript(order):
    # Bob claims what the transcript's Bob column holds, which for even
    # rounds is his claim bit; round 2, where he read nothing, is fabricated.
    policy = MaintenancePolicy.RANDOM_GUESS
    cfg = theta_config(num_rounds=12, rng_seed=0, announce_fraction=0.9, announce_order=order)
    opened_round2 = 0
    for seed in range(8):
        res = run_attack_trial(cfg, policy, seed=seed)
        (bob_stream,) = trial_rngs(seed, (experiments.BOB_STREAM,))
        kinds = adversary.bob_kinds(policy, cfg.num_rounds)
        words = bob_stream.bit_generator.random_raw(experiments.word_count(kinds))
        draws = experiments.decode_stream(words[np.newaxis], kinds)
        claim_draws = AttackState.draw(policy, cfg.num_rounds, draws).claim_draws[0].tolist()
        bob = {rec.round_index: rec.bob_bit for rec in res.transcript.records}
        assert [bob[r] for r in range(4, 13, 2)] == claim_draws[:-1]
        for ann in res.announcements:
            if ann.round_index != 2:
                assert ann.bob_claim == bob[ann.round_index]
            elif order is AnnounceOrder.ALICE_FIRST:
                assert ann.bob_claim == ann.alice_bit ^ claim_draws[-1]
            else:
                assert ann.bob_claim == ann.alice_bit ^ ann.charlie_claim
            opened_round2 += ann.round_index == 2
    assert opened_round2 > 0


def test_bob_last_round2_always_passes():
    cfg = ProtocolConfig(num_rounds=10, rng_seed=0, announce_fraction=1.0)
    res = run_attack_trial(cfg, MaintenancePolicy.PLAIN_HADAMARD, seed=2)
    r2 = next(a for a in res.announcements if a.round_index == 2)
    assert (r2.bob_claim ^ r2.charlie_claim) == r2.alice_bit


def test_sweep_single_point_matches_run_trials():
    rows = sweep([1.0], trials=10, num_rounds=20, announce_fraction=0.2,
                 policy=MaintenancePolicy.RANDOM_GUESS, base_seed=0)
    assert len(rows) == 1
    row = rows[0]
    cfg = ProtocolConfig(variant=Variant.THETA, angles=symmetric_triple(1.0),
                         num_rounds=20, rng_seed=0, announce_fraction=0.2)
    agg = aggregate(run_trials(cfg, 10, base_seed=0,
                               policy=MaintenancePolicy.RANDOM_GUESS))
    assert row["detection_probability"] == agg.detection_probability == 0.8
    assert row["mean_mismatch_rate"] == agg.mean_mismatch_rate == pytest.approx(0.35)
    assert row["theta"] == 1.0 and row["trials"] == 10 and row["rounds"] == 20


def test_sweep_rejects_degenerate_grid_points():
    with pytest.raises(ValueError, match="degenerate"):
        sweep([0.0], trials=2, num_rounds=4)


def test_survival_probability_invariant():
    # No maintenance policy keeps the exact pattern through a round with
    # probability beyond a fair coin.  Values frozen at 2000 samples, seed 0.
    cases = {
        (True, MaintenancePolicy.KNOWN_THETA_U): 0.482,
        (True, MaintenancePolicy.KNOWN_THETA_V): 0.0,
        (True, MaintenancePolicy.RANDOM_GUESS): 0.2505,
        (True, MaintenancePolicy.PLAIN_HADAMARD): 0.0,
        (False, MaintenancePolicy.PLAIN_HADAMARD): 0.482,
    }
    for (theta, policy), expect in cases.items():
        got = survival_probability(TRI if theta else None, policy,
                                   trials=2000, base_seed=0)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got <= 0.5 + 1e-2


def test_survival_probability_samples_lie_near_the_exact_values():
    # The exact values enumerate the equally likely (q2, parity, coin) cases.
    # Each frozen 2000-sample estimate lies within 4 binomial standard errors
    # of its exact value (a false failure has chance below 1e-4).
    cases = {
        (True, MaintenancePolicy.RANDOM_GUESS): (0.25, 0.2505),
        (True, MaintenancePolicy.KNOWN_THETA_U): (0.5, 0.482),
        (True, MaintenancePolicy.KNOWN_THETA_V): (0.0, 0.0),
        (True, MaintenancePolicy.PLAIN_HADAMARD): (0.0, 0.0),
        (False, MaintenancePolicy.PLAIN_HADAMARD): (0.5, 0.482),
    }
    n = 2000
    for (theta, policy), (exact, sampled) in cases.items():
        angles = TRI if theta else None
        assert survival_probability_exact(angles, policy) == exact
        assert survival_probability(angles, policy, trials=n, base_seed=0) == sampled
        assert abs(sampled - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def test_survival_probability_exact_rejects_choices_the_plain_protocol_lacks():
    with pytest.raises(ValueError, match="plain protocol has none"):
        survival_probability_exact(None, MaintenancePolicy.RANDOM_GUESS)


@pytest.mark.parametrize("trials", [0, -3])
def test_survival_probability_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        survival_probability(TRI, MaintenancePolicy.RANDOM_GUESS, trials=trials)


@settings(max_examples=25, deadline=None)
@given(
    ta=HARDENED_ANGLE,
    tb=HARDENED_ANGLE,
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    rounds=st.integers(min_value=1, max_value=12),
    order=st.sampled_from(AnnounceOrder),
    trials=st.integers(min_value=1, max_value=3),
    instrument=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_honest_runs_are_never_flagged(ta, tb, frac, rounds, order, trials, instrument, seed):
    angles = ThetaTriple.from_ab(ta, tb)
    assume(gates.distance_to_degenerate(angles.c) >= 1e-3)
    config = ProtocolConfig(variant=Variant.THETA, angles=angles, num_rounds=rounds,
                            announce_fraction=frac, announce_order=order)
    results = run_trials(config, trials, base_seed=seed, instrument_disguise=instrument)
    assert len(results) == trials
    for res in results:
        assert res.report.verdict == "clean"
        assert res.report.rate == 0.0


def test_build_announcements_deterministic():
    res = run_honest_trial(ProtocolConfig(num_rounds=12, rng_seed=2), seed=5)
    rounds = detection.select_rounds(12, 0.25, np.random.default_rng(33))
    a = build_announcements(res.transcript, rounds)
    b = build_announcements(res.transcript, detection.select_rounds(12, 0.25, np.random.default_rng(33)))
    assert a == b
    assert [ann.round_index for ann in a] == rounds and len(a) == 3


# keyed streams ---------------------------------------------------------------


def _stream_values(gens):
    return [(g.random(3).tolist(), g.integers(0, 2, size=5).tolist()) for g in gens]


@pytest.mark.parametrize("make", [
    lambda: 42,
    lambda: np.random.SeedSequence(123),
    lambda: np.random.SeedSequence(2**80 + 5),
    lambda: np.random.SeedSequence(5).spawn(3)[1].spawn(4)[2],  # nested spawn key (1, 2)
    lambda: np.random.SeedSequence(9, spawn_key=(7,), pool_size=8),
])
def test_trial_rngs_are_the_children_a_fresh_seed_spawns(make):
    seed = make()
    fresh = np.random.SeedSequence(seed) if isinstance(seed, int) else make()
    expected = _stream_values([np.random.default_rng(child) for child in fresh.spawn(3)])
    assert _stream_values(trial_rngs(seed)) == expected
    assert getattr(seed, "n_children_spawned", 0) == 0
    # a subset of streams builds only those children, in the order asked
    assert _stream_values(trial_rngs(make(), (0, 2))) == [expected[0], expected[2]]


@pytest.mark.parametrize("policy", [None, MaintenancePolicy.RANDOM_GUESS])
def test_replaying_a_seed_sequence_gives_the_same_trial(policy):
    config = theta_config(num_rounds=10, announce_order=AnnounceOrder.ALICE_FIRST)
    seed = np.random.SeedSequence(11).spawn(4)[2]

    def replay():
        if policy is None:
            return run_honest_trial(config, seed, instrument_disguise=True)
        return run_attack_trial(config, policy, seed)

    first, second = replay(), replay()
    assert first == second
    assert seed.n_children_spawned == 0
    batch = run_trials(config, 4, base_seed=11, policy=policy, instrument_disguise=policy is None)
    assert batch[2] == first


def test_opened_rounds_do_not_depend_on_earlier_draws():
    # each trial's opened rounds come from its announcement stream's own
    # start, whether the batch drew its protocol stream before or not
    key = experiments.trial_key(5)
    first = experiments.TrialStreams([key], experiments.HONEST_STREAMS)
    before = first.announced(8, 0.5)
    first.protocol(8, 16)
    second = experiments.TrialStreams([key], experiments.HONEST_STREAMS)
    second.protocol(8, 16)
    (rng,) = trial_rngs(key, (experiments.ANNOUNCE_STREAM,))
    assert before == first.announced(8, 0.5) == second.announced(8, 0.5) == [detection.select_rounds(8, 0.5, rng)]
    assert before == [[3, 4, 5, 7]]


def test_step_api_from_trial_streams_reproduces_the_run():
    # a session played round by round from a trial's streams, as a demo
    # plays one, gives the transcript the runner records for that seed
    config = ProtocolConfig(num_rounds=9)
    streams = experiments.TrialStreams([experiments.trial_key(17)], experiments.HONEST_STREAMS)
    bits, uniforms = streams.protocol(config.num_rounds, 2 * config.num_rounds)
    session = protocol.init_session(config, uniforms)
    for q in bits[0]:
        protocol.encode_round(session, q)
        protocol.deliver_and_decode(session)
        protocol.toggle_carrier(session)
    session.require_uniforms_spent()
    assert session.transcripts()[0].records == run_honest_trial(config, seed=17).transcript.records


@pytest.mark.parametrize("policy", [None, MaintenancePolicy.PLAIN_HADAMARD])
@pytest.mark.parametrize("extra,message", [(1, "1 pre-drawn measurement uniform"), (-1, "ran out")])
def test_runners_check_every_pre_drawn_uniform_is_read(monkeypatch, policy, extra, message):
    draw = experiments.TrialStreams.protocol

    def misdraw(streams, num_rounds, measurements):
        return draw(streams, num_rounds, measurements + extra)

    monkeypatch.setattr(experiments.TrialStreams, "protocol", misdraw)
    with pytest.raises(ValueError, match=message):
        run_trials(ProtocolConfig(num_rounds=4), 3, policy=policy)


# streams seeded by columns --------------------------------------------------

ENTROPY = st.one_of(
    st.integers(min_value=0, max_value=2**256 - 1),
    st.lists(st.integers(min_value=0, max_value=2**64), max_size=5),
)
SPAWN_WORD = st.one_of(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2**32, max_value=2**96))
SPAWN_KEY = st.lists(SPAWN_WORD, max_size=4).map(tuple)


@st.composite
def seed_keys(draw):
    """Keys of a few shared entropies, so one pass mixes equal and unequal
    entropy, pool sizes and assembled-entropy lengths."""
    entropies = draw(st.lists(ENTROPY, min_size=1, max_size=3))
    key = st.tuples(st.sampled_from(entropies), SPAWN_KEY, st.integers(min_value=4, max_value=8))
    return draw(st.lists(key, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(keys=seed_keys())
def test_columnar_states_equal_numpys(keys):
    expected = [
        np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)).state
        for entropy, spawn_key, pool_size in keys
    ]
    assert experiments.pcg64_states(keys) == expected


class LazyStreams(experiments.TrialStreams):
    """The oracle: each trial's streams as separate Generators (trial_rngs),
    each draw one lazy random() or integers(0, 2) call on them, and the
    opened rounds select_rounds on the announcement Generator."""

    def __init__(self, keys, streams):
        self.gens = dict(zip(streams, zip(*(trial_rngs(key, streams) for key in keys))))

    def draws(self, stream, kinds):
        return np.array([
            [g.random() if kind == "d" else float(g.integers(0, 2)) for kind in kinds] for g in self.gens[stream]
        ])

    def announced(self, num_rounds, fraction):
        return [detection.select_rounds(num_rounds, fraction, g) for g in self.gens[experiments.ANNOUNCE_STREAM]]


@settings(max_examples=40, deadline=None)
@given(
    entropy=ENTROPY,
    spawn_key=SPAWN_KEY,
    pool_size=st.integers(min_value=4, max_value=8),
    rounds=st.integers(min_value=2, max_value=9),
    policy=st.sampled_from([None, *MaintenancePolicy]),
    theta=st.booleans(),
    order=st.sampled_from(AnnounceOrder),
    frac=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_runners_draw_what_lazy_streams_give(entropy, spawn_key, pool_size, rounds, policy, theta, order, frac):
    theta = theta or policy not in (None, MaintenancePolicy.PLAIN_HADAMARD)
    config = theta_config(num_rounds=rounds, announce_order=order, announce_fraction=frac) if theta else \
        ProtocolConfig(num_rounds=rounds, announce_order=order, announce_fraction=frac)

    def run():
        seed = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        if policy is None:
            return run_honest_trial(config, seed, instrument_disguise=True)
        return run_attack_trial(config, policy, seed)

    columnar = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "TrialStreams", LazyStreams)
        lazy = run()
    assert columnar == lazy


def test_runners_build_no_generator_per_trial(monkeypatch):
    experiments.check_stream_seeding()
    built = {}

    def counted(cls):
        class Counted(cls):
            def __init__(self, *args, **kwargs):
                built[cls.__name__] = built.get(cls.__name__, 0) + 1
                super().__init__(*args, **kwargs)

        Counted.__name__ = cls.__name__  # a PCG64's state names its class
        return Counted

    for name in ("SeedSequence", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    counts = []
    for trials in (2, 9):
        for policy in (None, MaintenancePolicy.PLAIN_HADAMARD):
            built.clear()
            run_trials(ProtocolConfig(num_rounds=4), trials, base_seed=3, policy=policy)
            counts.append((policy, dict(built)))
    # one SeedSequence reads the base seed's key; one PCG64 and one announcement Generator per batch
    assert counts[:2] == counts[2:]
    assert all(c == {"SeedSequence": 1, "PCG64": 1, "Generator": 1} for _, c in counts)


def _one_lcg_step(seed_hi, seed_lo, seq_hi, seq_lo):
    """pcg64_set_seed without its second LCG step."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) % 2**128
    state = (inc + (seed_hi << 64 | seed_lo)) % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _halves_swapped(generate):
    """Each uint64 seed word assembled from its two uint32 halves high first."""
    return lambda keys: generate(keys)[:, [1, 0, 3, 2, 5, 4, 7, 6]]


def _high_half_first(decode):
    """integers(0, 2) read from each word's high half before its low one."""

    def swapped(words, kinds):
        values = decode(words, kinds)
        ints = np.array([kind == "i" for kind in kinds])
        values[:, ints] = decode((words << np.uint64(32)) | (words >> np.uint64(32)), kinds)[:, ints]
        return values

    return swapped


@pytest.mark.parametrize("mutation", [
    "INIT_A", "MULT_A", "INIT_B", "MULT_B", "MIX_MULT_L", "MIX_MULT_R", "XSHIFT",
    "lcg", "seed halves", "protocol halves",
])
def test_seeding_guard_raises_on_a_wrong_pass(monkeypatch, mutation):
    experiments.check_stream_seeding()  # the true pass passes
    if mutation == "lcg":
        monkeypatch.setattr(experiments, "_pcg64_state", _one_lcg_step)
    elif mutation == "seed halves":
        monkeypatch.setattr(experiments, "_generate_state", _halves_swapped(experiments._generate_state))
    elif mutation == "protocol halves":
        monkeypatch.setattr(experiments, "decode_stream", _high_half_first(experiments.decode_stream))
    else:
        monkeypatch.setattr(experiments, mutation, getattr(experiments, mutation) ^ 1)
    with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}"):
        experiments.check_stream_seeding()


def test_session_takes_its_trials_from_the_uniforms_rows():
    session = protocol.init_session(ProtocolConfig(num_rounds=2), np.zeros((3, 4)))
    assert session.trials == 3 and session.states.trials == 3
    one = protocol.init_session(ProtocolConfig(num_rounds=2), np.zeros((1, 4)))
    assert one.states.labels == protocol.CARRIER_LABELS + protocol.MESSAGE_LABELS


def test_session_rejects_uniforms_without_one_row_per_trial():
    with pytest.raises(ValueError, match="one row per trial"):
        protocol.init_session(ProtocolConfig(num_rounds=2), np.zeros(4))


def test_experiments_import_leaves_the_cli_modules_unloaded():
    # the benchmark loads experiments; CLI-only code must not add to its set-up
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, qsscarrier.experiments; "
             "print(sorted(m for m in ('qsscarrier.cli', 'qsscarrier.identities') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
