"""Command-line front end: run experiments, verify identities, sweep angles.

Reports are machine-readable JSON (a human summary goes to stdout); identical
spec and seed give byte-identical reports apart from the timestamp field.

Exit codes: 0 success, 1 invalid config, 2 identity-suite failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import adversary, experiments, identities
from .adversary import MaintenancePolicy
from .gates import ThetaTriple
from .protocol import AnnounceOrder, ProtocolConfig, Variant

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IDENTITY = 2
EXIT_IO = 3


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_angle_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


# config-file keys and the type each must hold: the one its flag parses to
_CONFIG_KEYS = {
    "rounds": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "variant": ("a string", _is_str),
    "theta": ("a list of two numbers (the third angle is derived)", _is_angle_pair),
    "attack": ("a string", _is_str),
    "policy": ("a string", _is_str),
    "announce_frac": ("a number", _is_number),
    "order": ("a string", _is_str),
    "trials": ("an integer", _is_int),
    "tolerance": ("a number", _is_number),
    "workers": ("an integer", _is_int),
    "out": ("a string", _is_str),
    "transcripts": ("a string", _is_str),
}


class CliError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse takes a token starting with "-" for an option flag unless it
    # matches this; its own pattern misses exponents ("-1e-3") and "-inf"
    NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self.NEGATIVE_NUMBER

    def error(self, message):  # argparse would sys.exit(2); keep 2 for identities
        raise CliError(message)


@dataclass(frozen=True)
class ExperimentSpec:
    """One resolved run request: protocol config plus attack and output choices."""

    config: ProtocolConfig
    attack: str
    policy: MaintenancePolicy | None
    trials: int
    tolerance: float
    workers: int
    out: str | None
    transcripts: str | None

    def echo(self) -> dict:
        cfg = self.config
        return {
            "rounds": cfg.num_rounds,
            "seed": cfg.rng_seed,
            "variant": cfg.variant.value,
            "theta": list(cfg.angles.as_tuple()) if cfg.angles is not None else None,
            "attack": self.attack,
            "policy": self.policy.value if self.policy is not None else None,
            "announce_frac": cfg.announce_fraction,
            "order": cfg.announce_order.value,
            "trials": self.trials,
            "tolerance": self.tolerance,
        }


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError("config file must hold a JSON object of flag values")
    for key, value in obj.items():
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key: {key}")
        what, has_type = _CONFIG_KEYS[key]
        # null leaves the key unset, as if the file did not name it
        if value is not None and not has_type(value):
            raise CliError(f"config key {key} must be {what}, got {value!r}")
    return obj


def _merged(ns: argparse.Namespace, key: str, default):
    value = getattr(ns, key, None)
    if value is not None:
        return value
    if getattr(ns, "config", None):
        file_vals = ns._config_file_values
        if key in file_vals and file_vals[key] is not None:
            return file_vals[key]
    return default


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise CliError("seed must be >= 0")


def _check_run_sizes(trials: int, rounds: int, frac: float, workers: int) -> None:
    if trials < 1:
        raise CliError("trials must be >= 1")
    if rounds < 1:
        raise CliError("rounds must be >= 1")
    if not 0.0 < frac <= 1.0:
        raise CliError("announce fraction must be in (0, 1]")
    if workers < 1:
        raise CliError("workers must be >= 1")


def build_spec(ns: argparse.Namespace) -> ExperimentSpec:
    """Resolve flags, config file, and defaults into a validated spec."""
    ns._config_file_values = _load_config_file(ns.config) if getattr(ns, "config", None) else {}

    rounds = _merged(ns, "rounds", 20)
    seed = _merged(ns, "seed", 0)
    variant_name = _merged(ns, "variant", "plain")
    theta = _merged(ns, "theta", None)
    attack = _merged(ns, "attack", "none")
    policy_name = _merged(ns, "policy", None)
    frac = float(_merged(ns, "announce_frac", 0.2))
    order_name = _merged(ns, "order", "bob-last")
    trials = _merged(ns, "trials", 1)
    tolerance = float(_merged(ns, "tolerance", 0.0))
    workers = _merged(ns, "workers", 1)
    out = _merged(ns, "out", None)
    transcripts = _merged(ns, "transcripts", None)

    _check_seed(seed)
    _check_run_sizes(trials, rounds, frac, workers)
    if not 0.0 <= tolerance < 1.0:
        # a negative tolerance flags every run, one of 1 or more flags none
        raise CliError(f"tolerance must be in [0, 1), got {tolerance}")
    try:
        variant = Variant(variant_name)
    except ValueError:
        raise CliError(f"variant must be plain or theta, got {variant_name!r}") from None
    try:
        order = AnnounceOrder(order_name)
    except ValueError:
        raise CliError(f"order must be alice-first or bob-last, got {order_name!r}") from None
    if attack not in ("none", "split"):
        raise CliError(f"attack must be none or split, got {attack!r}")

    angles = None
    if variant is Variant.THETA:
        if theta is None:
            raise CliError("variant theta requires --theta A B")
        try:
            angles = ThetaTriple.from_ab(float(theta[0]), float(theta[1]))
            angles.require_hardened()
        except ValueError as exc:
            raise CliError(str(exc)) from None
    elif theta is not None:
        raise CliError("--theta is only meaningful with --variant theta")

    policy = None
    if attack == "split":
        if rounds < 2:
            raise CliError("split attack needs at least 2 rounds")
        if policy_name is None:
            raise CliError("attack split requires --policy u|v|random|plain")
        try:
            policy = MaintenancePolicy(policy_name)
        except ValueError:
            raise CliError(f"policy must be u, v, random or plain, got {policy_name!r}") from None
        if variant is Variant.PLAIN and policy is not MaintenancePolicy.PLAIN_HADAMARD:
            raise CliError("policy u|v|random requires --variant theta")
    elif policy_name is not None:
        raise CliError("--policy requires --attack split")

    config = ProtocolConfig(
        variant=variant,
        angles=angles,
        num_rounds=rounds,
        rng_seed=seed,
        announce_fraction=frac,
        announce_order=order,
    )
    return ExperimentSpec(
        config=config,
        attack=attack,
        policy=policy,
        trials=trials,
        tolerance=tolerance,
        workers=workers,
        out=out,
        transcripts=transcripts,
    )


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# run


def cmd_run(ns: argparse.Namespace) -> int:
    spec = build_spec(ns)
    results = experiments.run_trials(
        spec.config,
        spec.trials,
        base_seed=spec.config.rng_seed,
        policy=spec.policy if spec.attack == "split" else None,
        tolerance=spec.tolerance,
        workers=spec.workers,
    )
    stats = experiments.aggregate(results)
    report = {
        "command": "run",
        "timestamp": _timestamp(),
        "config": spec.echo(),
        "results": stats.to_json_obj(),
    }
    print(f"trials:                {stats.trials} x {stats.num_rounds} rounds"
          f" ({'split attack' if stats.attacked else 'honest'})")
    print(f"detection probability: {stats.detection_probability:.4f}")
    print(f"mean mismatch rate:    {stats.mean_mismatch_rate:.4f}")
    print(f"odd/even error rates:  {stats.odd_error_rate:.4f} / {stats.even_error_rate:.4f}")
    print(f"mean carrier fidelity: {stats.mean_carrier_fidelity:.6f}")
    if stats.mean_recovered_fraction is not None:
        print(f"bit recovery rate:     {stats.mean_recovered_fraction:.4f}")
    try:
        if spec.out:
            _write_text(spec.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        if spec.transcripts:
            tdir = Path(spec.transcripts)
            tdir.mkdir(parents=True, exist_ok=True)
            for idx, res in enumerate(results):
                (tdir / f"trial_{idx:04d}.jsonl").write_text(res.transcript.to_jsonl())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(ns: argparse.Namespace) -> int:
    thetas = [float(t) for t in ns.theta] if ns.theta is not None else None
    if thetas is not None and len(thetas) not in (2, 3):
        raise CliError("--theta takes two angles (third derived) or three raw angles")
    _check_seed(ns.seed)
    if thetas is not None:
        try:
            identities.require_suite_angles(thetas)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    items = identities.suite(thetas, seed=ns.seed)
    failed = False
    for name, ok, detail in items:
        if ok is None:
            tag = "INFO"
        elif ok:
            tag = "PASS"
        else:
            tag, failed = "FAIL", True
        print(f"{tag}  {name:24s} {detail}")
    return EXIT_IDENTITY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# sweep and synthesize


def cmd_sweep(ns: argparse.Namespace) -> int:
    grid = [float(g) for g in ns.grid]
    policy = MaintenancePolicy(ns.policy or "random")
    seed = 0 if ns.seed is None else ns.seed
    _check_seed(seed)
    for g in grid:
        try:
            experiments.symmetric_triple(g).require_hardened()
        except ValueError as exc:
            raise CliError(f"grid angle {g}: {exc}") from None
    trials = 200 if ns.trials is None else ns.trials
    rounds = 50 if ns.rounds is None else ns.rounds
    frac = 0.2 if ns.announce_frac is None else ns.announce_frac
    workers = 1 if ns.workers is None else ns.workers
    _check_run_sizes(trials, rounds, frac, workers)
    if rounds < 2:
        raise CliError("split attack needs at least 2 rounds")
    rows = experiments.sweep(
        grid,
        trials=trials,
        num_rounds=rounds,
        announce_fraction=frac,
        policy=policy,
        base_seed=seed,
        workers=workers,
    )
    print(f"{'theta':>8s} {'detect_prob':>12s} {'mismatch':>10s} {'recovered':>10s}")
    for row in rows:
        print(
            f"{row['theta']:8.3f} {row['detection_probability']:12.4f}"
            f" {row['mean_mismatch_rate']:10.4f} {row['mean_recovered_fraction']:10.4f}"
        )
    try:
        if ns.out:
            if ns.out.endswith(".csv"):
                with open(ns.out, "w", newline="") as fh:
                    fields = ["theta", "angles", "trials", "rounds",
                              "detection_probability", "mean_mismatch_rate",
                              "mean_recovered_fraction"]
                    writer = csv.DictWriter(fh, fieldnames=fields)
                    writer.writeheader()
                    writer.writerows(rows)
            else:
                report = {"command": "sweep", "timestamp": _timestamp(), "rows": rows}
                _write_text(ns.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_synthesize(ns: argparse.Namespace) -> int:
    su = adversary.synthesize_split_unitary()
    print(f"residuals:        {su.residuals[0]:.3e}, {su.residuals[1]:.3e}")
    print(f"unitarity defect: {su.unitarity_defect:.3e}")
    try:
        if ns.out:
            _write_text(ns.out, su.to_json() + "\n")
        else:
            print(su.to_json())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsscarrier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Monte Carlo protocol runs, honest or attacked")
    run.add_argument("--rounds", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--variant", choices=["plain", "theta"])
    run.add_argument("--theta", type=float, nargs=2, metavar=("A", "B"),
                     help="toggle angles for a and b; c is derived as -(A+B) mod 2pi")
    run.add_argument("--attack", choices=["none", "split"])
    run.add_argument("--policy", choices=["u", "v", "random", "plain"])
    run.add_argument("--announce-frac", dest="announce_frac", type=float)
    run.add_argument("--order", choices=["alice-first", "bob-last"])
    run.add_argument("--trials", type=int)
    run.add_argument("--tolerance", type=float)
    run.add_argument("--workers", type=int)
    run.add_argument("--out", help="write the aggregate JSON report here")
    run.add_argument("--transcripts", help="directory for per-trial JSONL transcripts")
    run.add_argument("--config", help="JSON file of flag values; explicit flags win")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="check the carrier/attack identities")
    ver.add_argument("--theta", type=float, nargs="+", metavar="T",
                     help="two angles (third derived) or three raw angles")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="attack statistics across toggle angles")
    sw.add_argument("--grid", type=float, nargs="+", required=True,
                    help="angles g; each grid point runs theta_a = theta_c = g")
    sw.add_argument("--trials", type=int)
    sw.add_argument("--rounds", type=int)
    sw.add_argument("--announce-frac", dest="announce_frac", type=float)
    sw.add_argument("--policy", choices=["u", "v", "random", "plain"])
    sw.add_argument("--seed", type=int)
    sw.add_argument("--workers", type=int)
    sw.add_argument("--out", help=".json or .csv table")
    sw.set_defaults(func=cmd_sweep)

    syn = sub.add_parser("synthesize", help="solve for the splitting unitary")
    syn.add_argument("--out", help="write the operator JSON here")
    syn.set_defaults(func=cmd_synthesize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
