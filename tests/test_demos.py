"""Every demo script runs to completion against this checkout's package, and
the lines that depend on its seeded draws print the values they always did."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def _run(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run(demo.name)
    assert proc.returncode == 0, proc.stderr


# demo 02's session of seed 5: Alice's bits, the reads, and the rounds opened
HONEST_SESSION_TABLE = """\
round  parity  sent  bob  charlie  reconstructed
    1  odd        0    0        0        0
    2  even       0    1        1        0
    3  odd        1    1        1        1
    4  even       1    1        0        1
    5  odd        1    1        1        1
    6  even       0    1        1        0
    7  odd        0    0        0        0
    8  even       0    1        1        0
"""


def test_honest_session_demo_prints_its_seeded_draws():
    out = _run("02_honest_session.py").stdout
    assert out.startswith(HONEST_SESSION_TABLE)
    assert "\nannounced rounds: [3, 4, 5, 7]\n" in out


def test_splitting_attack_demo_prints_its_seeded_pairs():
    # round 2's bit is 0 under the demo's draws, so both pairs come out PhiPlus
    out = _run("03_splitting_attack.py").stdout
    assert "\n  ('a', 'bt'): {'phi_plus': 1.0}\n  ('b', 'c'): {'phi_plus': 1.0}\n" in out
