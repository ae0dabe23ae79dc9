"""Command-line interface: exit codes, validation messages, reports, determinism.

Commands run in-process through main(argv); one smoke test goes through the
installed console script, or, where it is not installed, through the module
it points at.  Exit codes: 0 ok, 1 bad config, 2 identity-suite failure,
3 i/o error.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsscarrier import cli, experiments
from qsscarrier.cli import main
from qsscarrier.protocol import ProtocolConfig

THETA_REF = "2.0943951023931953"  # 2pi/3, the hardened reference angle


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_honest_minimal(capsys):
    code, out, err = run_main(capsys, "run", "--rounds", "4", "--trials", "2")
    assert code == cli.EXIT_OK
    assert "detection probability: 0.0000" in out
    assert "honest" in out
    assert err == ""


def test_run_attack_summary_lines(capsys):
    code, out, _ = run_main(
        capsys, "run", "--variant", "theta", "--theta", THETA_REF, THETA_REF,
        "--attack", "split", "--policy", "random", "--rounds", "10", "--trials", "3",
    )
    assert code == cli.EXIT_OK
    assert "split attack" in out
    assert "bit recovery rate:" in out


@pytest.mark.parametrize("argv,fragment", [
    (["run", "--trials", "0"], "trials must be >= 1"),
    (["run", "--rounds", "0"], "rounds must be >= 1"),
    (["run", "--announce-frac", "0"], "announce fraction must be in (0, 1]"),
    (["run", "--announce-frac", "1.5"], "announce fraction must be in (0, 1]"),
    (["run", "--workers", "0"], "workers must be >= 1"),
    (["run", "--variant", "theta"], "variant theta requires --theta A B"),
    (["run", "--variant", "theta", "--theta", "0", "0"], "degenerate toggle angle"),
    (["run", "--theta", "1", "2"], "--theta is only meaningful with --variant theta"),
    (["run", "--attack", "split", "--rounds", "1", "--policy", "plain"],
     "split attack needs at least 2 rounds"),
    (["run", "--attack", "split"], "attack split requires --policy"),
    (["run", "--attack", "split", "--policy", "u"], "policy u|v|random requires --variant theta"),
    (["run", "--policy", "plain"], "--policy requires --attack split"),
])
def test_config_rejection_messages(capsys, argv, fragment):
    code, _, err = run_main(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert fragment in err


def test_run_report_deterministic_modulo_timestamp(tmp_path, capsys):
    argv = ["run", "--variant", "theta", "--theta", THETA_REF, THETA_REF,
            "--attack", "split", "--policy", "random",
            "--rounds", "12", "--trials", "4", "--seed", "7"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a, text_a, _ = run_main(capsys, *argv, "--out", str(out_a))
    code_b, text_b, _ = run_main(capsys, *argv, "--out", str(out_b))
    assert code_a == code_b == cli.EXIT_OK
    assert text_a == text_b
    doc_a, doc_b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    assert doc_a.pop("timestamp") != ""
    doc_b.pop("timestamp")
    assert doc_a == doc_b
    assert doc_a["command"] == "run"
    assert doc_a["results"]["trials"] == 4


def test_run_out_io_error(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "r.json"
    code, _, err = run_main(capsys, "run", "--rounds", "3", "--out", str(missing))
    assert code == cli.EXIT_IO
    assert "i/o error" in err


def test_run_writes_transcript_files(tmp_path, capsys):
    tdir = tmp_path / "transcripts"
    code, _, _ = run_main(capsys, "run", "--rounds", "5", "--trials", "3",
                          "--transcripts", str(tdir))
    assert code == cli.EXIT_OK
    files = sorted(p.name for p in tdir.iterdir())
    assert files == ["trial_0000.jsonl", "trial_0001.jsonl", "trial_0002.jsonl"]
    # the defaults of run are ProtocolConfig's
    results = experiments.run_trials(ProtocolConfig(num_rounds=5), 3)
    for name, res in zip(files, results):
        lines = (tdir / name).read_text().splitlines()
        assert len(lines) == 5
        assert [json.loads(line) for line in lines] == [rec.to_json_obj() for rec in res.transcript.records]


def test_config_file_mirrors_flags_with_cli_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"rounds": 6, "trials": 3, "seed": 2}))
    out = tmp_path / "r.json"
    code, _, _ = run_main(capsys, "run", "--config", str(cfg),
                          "--rounds", "4", "--out", str(out))
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["rounds"] == 4      # flag beats file
    assert doc["config"]["trials"] == 3      # file beats default
    assert doc["config"]["seed"] == 2


@pytest.mark.parametrize("content,fragment", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"no_such_key": 1}', "unknown config key"),
])
def test_config_file_rejections(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.json"
    cfg.write_text(content)
    code, _, err = run_main(capsys, "run", "--config", str(cfg))
    assert code == cli.EXIT_CONFIG
    assert fragment in err


@pytest.mark.parametrize("content,fragment", [
    ({"rounds": "x"}, "config key rounds must be an integer"),
    ({"rounds": True}, "config key rounds must be an integer"),
    ({"trials": 2.7, "rounds": 4}, "config key trials must be an integer"),
    ({"seed": "1"}, "config key seed must be an integer"),
    ({"workers": 1.0}, "config key workers must be an integer"),
    ({"tolerance": "abc"}, "config key tolerance must be a number"),
    ({"announce_frac": False}, "config key announce_frac must be a number"),
    ({"theta": 5, "variant": "theta"}, "config key theta must be a list of two numbers"),
    ({"theta": [1.0, 1.5, 2.0], "variant": "theta"}, "config key theta must be a list of two numbers"),
    ({"theta": [1.0, "x"], "variant": "theta"}, "config key theta must be a list of two numbers"),
    ({"variant": 1}, "config key variant must be a string"),
    ({"out": 5, "rounds": 4}, "config key out must be a string"),
])
def test_config_file_values_must_have_their_flag_type(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(content))
    code, out, err = run_main(capsys, "run", "--config", str(cfg))
    assert code == cli.EXIT_CONFIG
    assert fragment in err
    assert out == ""  # rejected before any trial runs


def test_config_file_unreadable(capsys, tmp_path):
    code, _, err = run_main(capsys, "run", "--config", str(tmp_path / "absent.json"))
    assert code == cli.EXIT_CONFIG
    assert "cannot read config file" in err


def test_config_file_bad_policy_value(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"attack": "split", "policy": "x",
                               "variant": "theta", "theta": [1.0, 1.5]}))
    code, _, err = run_main(capsys, "run", "--config", str(cfg))
    assert code == cli.EXIT_CONFIG
    assert "policy must be u, v, random or plain" in err


def test_verify_default_all_identities_hold(capsys):
    code, out, _ = run_main(capsys, "verify", "--seed", "3")
    assert code == cli.EXIT_OK
    assert "FAIL" not in out
    for item in ("plain-toggle", "theta-toggle", "hardened-angles", "split-maps",
                 "split-no-signaling", "plain-maintenance", "conjugate-maintenance",
                 "transpose-maintenance", "transpose-degeneracy"):
        assert item in out
    # the transpose record is informational, never asserted
    assert any(line.startswith("INFO") and "transpose-maintenance" in line
               for line in out.splitlines())


def test_verify_degenerate_angles_flag_the_hazard(capsys):
    code, out, _ = run_main(capsys, "verify", "--theta", "0", "0")
    assert code == cli.EXIT_IDENTITY
    assert "degenerate-angle hazard" in out
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_verify_raw_triple_negative_control(capsys):
    # three raw angles that break the sum constraint: the toggle identity
    # itself must come out red
    code, out, _ = run_main(capsys, "verify", "--theta", "1.0", "1.0", "1.0")
    assert code == cli.EXIT_IDENTITY
    assert any(line.startswith("FAIL") and "theta-toggle" in line
               for line in out.splitlines())


def test_verify_rejects_wrong_angle_count(capsys):
    code, _, err = run_main(capsys, "verify", "--theta", "1.0")
    assert code == cli.EXIT_CONFIG
    assert "two angles" in err


def test_sweep_table_and_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, text, _ = run_main(capsys, "sweep", "--grid", "1.0", THETA_REF,
                             "--trials", "4", "--rounds", "8", "--out", str(out))
    assert code == cli.EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].split() == ["theta", "detect_prob", "mismatch", "recovered"]
    assert len(lines) == 3
    doc = json.loads(out.read_text())
    assert doc["command"] == "sweep"
    assert [row["theta"] for row in doc["rows"]] == [1.0, float(THETA_REF)]


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_main(capsys, "sweep", "--grid", "1.0",
                          "--trials", "3", "--rounds", "6", "--out", str(out))
    assert code == cli.EXIT_OK
    header, row = out.read_text().strip().splitlines()
    assert header.startswith("theta,angles,trials,rounds,detection_probability")
    assert row.startswith("1.0,")


def test_sweep_rejects_degenerate_grid(capsys):
    code, _, err = run_main(capsys, "sweep", "--grid", "0.0", "--trials", "2")
    assert code == cli.EXIT_CONFIG
    assert "grid angle" in err


def test_synthesize_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_main(capsys, "synthesize")
    assert code == cli.EXIT_OK
    assert "unitarity defect" in out
    path = tmp_path / "split.json"
    code2, _, _ = run_main(capsys, "synthesize", "--out", str(path))
    assert code2 == cli.EXIT_OK
    doc = json.loads(path.read_text())
    assert set(doc) == {"matrix", "residuals", "unitarity_defect"}
    assert max(doc["residuals"]) < 1e-8


def test_console_script_smoke():
    exe = shutil.which("qsscarrier")
    env = None
    if exe is None:
        # not installed: run the entry point's module against this checkout
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [exe] if exe else [sys.executable, "-m", "qsscarrier.cli"]
    proc = subprocess.run(cmd + ["run", "--rounds", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "detection probability" in proc.stdout


@pytest.mark.parametrize("argv,fragment", [
    (["--trials", "0"], "trials must be >= 1"),
    (["--rounds", "0"], "rounds must be >= 1"),
    (["--rounds", "1"], "split attack needs at least 2 rounds"),
    (["--announce-frac", "0"], "announce fraction must be in (0, 1]"),
    (["--announce-frac", "1.5"], "announce fraction must be in (0, 1]"),
    (["--workers", "0"], "workers must be >= 1"),
])
def test_sweep_rejects_zero_and_out_of_range_values(tmp_path, capsys, argv, fragment):
    # zeros are values, not missing flags: they must be rejected, never
    # silently replaced by the defaults
    out = tmp_path / "s.json"
    code, _, err = run_main(capsys, "sweep", "--grid", "1.0", *argv, "--out", str(out))
    assert code == cli.EXIT_CONFIG
    assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["-1", "-0.01", "1", "1.5", "nan"])
def test_run_rejects_tolerance_that_cannot_work(capsys, tolerance):
    code, _, err = run_main(capsys, "run", "--trials", "2", "--rounds", "4",
                            "--tolerance", tolerance)
    assert code == cli.EXIT_CONFIG
    assert "tolerance must be in [0, 1)" in err


def test_run_accepts_tolerance_inside_the_unit_interval(capsys):
    code, out, _ = run_main(capsys, "run", "--trials", "2", "--rounds", "4",
                            "--tolerance", "0.5")
    assert code == cli.EXIT_OK
    assert "detection probability: 0.0000" in out


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1", "--rounds", "2"],
    ["sweep", "--grid", "1.0", "--seed", "-1", "--trials", "2", "--rounds", "2"],
    ["verify", "--seed", "-1"],
])
def test_negative_seed_is_rejected(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert "error: seed must be >= 0" in err
    assert out == ""


def test_negative_seed_in_config_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -1, "rounds": 2}))
    code, out, err = run_main(capsys, "run", "--config", str(path))
    assert code == cli.EXIT_CONFIG
    assert "error: seed must be >= 0" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["run", "--variant", "theta", "--theta", "nan", "1", "--rounds", "2"],
    ["run", "--variant", "theta", "--theta", "1", "inf", "--rounds", "2"],
    ["verify", "--theta", "nan", "1"],
    ["verify", "--theta", "1", "2", "inf"],
    ["sweep", "--grid", "nan", "--trials", "2", "--rounds", "2"],
])
def test_non_finite_angles_are_rejected(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert "toggle angles must be finite" in err
    assert "degenerate" not in err and "nan/nan" not in out


@pytest.mark.parametrize("argv,column", [
    (["run", "--variant", "theta", "--theta", "-1e-3", "1", "--rounds", "2", "--trials", "2"], None),
    (["run", "--variant", "theta", "--theta", "1", "-2.5E+1", "--rounds", "2", "--trials", "2"], None),
    (["verify", "--theta", "-1e-3", "1"], None),
    (["sweep", "--grid", "-1e-3", "--trials", "2", "--rounds", "2"], "-0.001"),
])
def test_negative_angles_in_exponent_notation_are_values(capsys, argv, column):
    code, out, err = run_main(capsys, *argv)
    assert code in (cli.EXIT_OK, cli.EXIT_IDENTITY)
    assert "argument" not in err and "unrecognized" not in err
    if column is not None:
        assert out.splitlines()[1].split()[0] == column


@pytest.mark.parametrize("argv", [
    ["run", "--variant", "theta", "--theta", "-inf", "1", "--rounds", "2"],
    ["verify", "--theta", "1", "2", "-inf"],
    ["verify", "--theta", "-nan", "1"],
    ["sweep", "--grid", "-inf", "--trials", "2", "--rounds", "2"],
    ["sweep", "--grid", "1.0", "-INF", "--trials", "2", "--rounds", "2"],
])
def test_negative_non_finite_angles_reach_the_finiteness_check(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the check
        code, out, err = run_main(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert "toggle angles must be finite" in err
    assert out == ""


def test_negative_exponent_angle_is_parsed_as_its_value():
    ns = cli.build_parser().parse_args(["run", "--variant", "theta", "--theta", "-2.5E+1", "-.5"])
    assert ns.theta == [-25.0, -0.5]


# verify's stdout, recorded before the identity checks moved out of the cli
_VERIFY_SHARED = (
    "PASS  plain-toggle             GHZ<->even-parity fidelities 1.000000000000, 1.000000000000",
    "PASS  split-maps               residuals 2.526e-16, 2.526e-16; unitarity defect 3.331e-16",
    "PASS  split-no-signaling       max trace distance over Bob's subsystems 2.737e-48",
    "PASS  plain-maintenance        both patterns track their orbit for 10 toggles;"
    " worst fidelity 1.000000000000",
    "PASS  conjugate-maintenance    PhiPlus pattern preserved both directions;"
    " worst fidelity 1.000000000000",
)


def _verify_lines(toggle, hardened, transpose, degeneracy):
    plain, split, no_signaling, maintenance, conjugate = _VERIFY_SHARED
    return [plain, toggle, hardened, split, no_signaling, maintenance, conjugate,
            transpose, degeneracy]


VERIFY_GOLDEN = {
    (): (cli.EXIT_OK, _verify_lines(
        "PASS  theta-toggle             worst fidelity 1.000000000000 over 25 triple(s)",
        "PASS  hardened-angles          sum constraint and degeneracy gap hold",
        "INFO  transpose-maintenance    recorded at theta=(5.827, 5.426): PhiMinus pattern maps to"
        " PsiPlus/PsiMinus pattern with fidelity 0.119507/0.038288;"
        " closest pattern PSI_PLUS(a,bt) PHI_MINUS(b,c) at 0.211947",
        "PASS  transpose-degeneracy     transpose = conjugate-angle at 0 and pi"
        " (distances 0.00e+00, 2.45e-16); distinct elsewhere (min scalar distance 6.818e-01)",
    )),
    ("--theta", "0", "0"): (cli.EXIT_IDENTITY, _verify_lines(
        "PASS  theta-toggle             worst fidelity 1.000000000000 over 1 triple(s)",
        "FAIL  hardened-angles          degenerate toggle angle(s) [0.0, 0.0, 0.0]: hardened"
        " configuration requires every angle farther than 1e-06 from 0 and pi",
        "INFO  transpose-maintenance    recorded at theta=(0.000, 0.000): PhiMinus pattern maps to"
        " PsiPlus/PsiMinus pattern with fidelity 1.000000/0.000000;"
        " closest pattern PSI_PLUS(a,bt) PSI_PLUS(b,c) at 1.000000",
        "FAIL  transpose-degeneracy     degenerate-angle hazard: at theta=0.000 the transpose pair"
        " equals the conjugate-angle pair and the defense collapses to the plain toggle",
    )),
    ("--theta", "1.0", "1.0", "1.0"): (cli.EXIT_IDENTITY, _verify_lines(
        "FAIL  theta-toggle             worst fidelity 0.980085143325 over 1 triple(s)"
        " (angle sum residue 3.000 breaks the identity, as the constraint requires)",
        "FAIL  hardened-angles          angles must sum to 0 mod 2pi; got residue 3.000e+00",
        "INFO  transpose-maintenance    recorded at theta=(1.000, 1.000): PhiMinus pattern maps to"
        " PsiPlus/PsiMinus pattern with fidelity 0.007263/0.042727;"
        " closest pattern PHI_MINUS(a,bt) PHI_MINUS(b,c) at 0.251370",
        "PASS  transpose-degeneracy     transpose = conjugate-angle at 0 and pi"
        " (distances 0.00e+00, 2.45e-16); distinct elsewhere (min scalar distance 1.353e+00)",
    )),
}


@pytest.mark.parametrize("argv", list(VERIFY_GOLDEN), ids=["default", "degenerate", "raw-triple"])
def test_verify_output_is_pinned(capsys, argv):
    code, out, err = run_main(capsys, "verify", *argv)
    want_code, want_lines = VERIFY_GOLDEN[argv]
    assert (code, out) == (want_code, "\n".join(want_lines) + "\n")
    assert err == ""


# run's inputs, as config-file values and as flags: values of the type each
# key takes (kept small: rounds <= 4, trials <= 2, workers 1), which may still
# be out of range or clash, and values of other types
_TYPED_VALUES = {
    "rounds": st.integers(-1, 4),
    "seed": st.integers(-2, 2**70),
    "variant": st.sampled_from(["plain", "theta", "Theta"]),
    "theta": st.one_of(
        st.just([2.0943951023931953, 2.0943951023931953]),
        st.lists(st.one_of(st.floats(), st.integers(-7, 7)), min_size=2, max_size=2),
    ),
    "attack": st.sampled_from(["none", "split", ""]),
    "policy": st.sampled_from(["u", "v", "random", "plain", "h"]),
    "announce_frac": st.one_of(st.floats(), st.integers(-1, 2)),
    "order": st.sampled_from(["alice-first", "bob-last", "first"]),
    "trials": st.integers(-1, 2),
    "tolerance": st.floats(),
    "workers": st.one_of(st.just(1), st.integers(-1, 0)),
}
_ODD_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=3))
_RUN_INPUTS = st.one_of(
    st.fixed_dictionaries({}, optional=_TYPED_VALUES),
    st.fixed_dictionaries(
        {}, optional={key: st.one_of(values, _ODD_VALUES) for key, values in _TYPED_VALUES.items()}
    ),
)


def _flag_tokens(key, value):
    if value is None:
        return []
    values = value if isinstance(value, list) else [value]
    return ["--" + key.replace("_", "-"), *(str(v) for v in values)]


@example(file_values={}, flag_values={"rounds": 3, "trials": 2})
@example(
    file_values={"variant": "theta", "theta": [1.0, 1.5], "attack": "split", "policy": "random"},
    flag_values={"rounds": 4, "order": "alice-first", "announce_frac": 1},
)
@example(file_values={"attack": "split", "policy": "plain", "rounds": 2}, flag_values={"workers": 1})
@settings(max_examples=30, deadline=None)
@given(
    file_values=_RUN_INPUTS,
    flag_values=_RUN_INPUTS,
)
def test_run_accepts_or_rejects_every_input_cleanly(file_values, flag_values):
    # an accepted input runs and exits 0; a rejected one exits 1 with an
    # error line, never with a traceback or another code
    argv = ["run"]
    for key, value in flag_values.items():
        argv += _flag_tokens(key, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(file_values))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), (argv, file_values, code)
    if code == cli.EXIT_CONFIG:
        assert err.getvalue().startswith("error: "), (argv, file_values, err.getvalue())
    else:
        assert out.getvalue().startswith("trials:"), (argv, file_values, out.getvalue())


_VERIFY_ANGLE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False)


@example(thetas=[1e17, 1.0])
@example(thetas=[1e308, 1e308])
@example(thetas=[1e308, 1e308, 1.0])
@example(thetas=[1.0, 2.0, 3.0])
@settings(max_examples=25, deadline=None)
@given(thetas=st.lists(_VERIFY_ANGLE, min_size=2, max_size=3))
def test_verify_resolves_every_finite_angle_cleanly(thetas):
    # angles the suite can build its triples from run (0, or 2 when an
    # identity fails); any other exits 1 with an error line, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--theta", *map(repr, thetas)])
    assert code in (cli.EXIT_OK, cli.EXIT_IDENTITY, cli.EXIT_CONFIG), (thetas, code)
    if code == cli.EXIT_CONFIG:
        assert err.getvalue().startswith("error: "), (thetas, err.getvalue())
        assert out.getvalue() == ""
    else:
        assert out.getvalue().startswith("PASS  plain-toggle"), (thetas, out.getvalue())


@pytest.mark.parametrize("grid", ["1e308", "-1e308", "9e307"])
def test_sweep_rejects_an_angle_whose_double_overflows_without_a_warning(capsys, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.mod of -2g = -inf would warn
        code, out, err = run_main(capsys, "sweep", "--grid", grid, "--trials", "2", "--rounds", "2")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: grid angle {float(grid)}: toggle angles must be finite")
    assert out == ""
