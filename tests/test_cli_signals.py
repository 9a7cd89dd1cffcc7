"""The graceful-stop contract of ``campaign run`` and ``matrix``, driven
by a real signal.

The command runs in a subprocess; once its journal's ``begin`` line is
on disk the test sends SIGINT.  The first signal must let the in-flight
job finish, end the journal with ``{"event":"interrupt","reason":
"signal"}`` and exit 75; a ``--resume`` must then publish the same bytes
as an uninterrupted run.  The in-process runs check that the command
puts the caller's signal handlers back.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Scenario size: each job is a few tens of milliseconds, and each
#: command has enough jobs that the signal lands well before the end.
MATRIX_ARGS = [
    "--name", "sig", "--defense", "none", "--defense", "liteworp",
    "--attack", "outofband", "--attack", "relay",
    "--nodes", "30", "--duration", "120", "--attack-start", "10", "--runs", "3",
]


def _campaign(tmp_path: Path):
    """``(argv for a journal path, journal path, its journal file)``."""
    spec = tmp_path / "sig.json"
    spec.write_text(json.dumps({
        "name": "sig",
        "runs": 4,
        "base": {"n_nodes": 30, "duration": 120.0, "attack_start": 10.0},
        "axes": {"n_malicious": [0, 2]},
    }))

    def argv(journal):
        return ["campaign", "run", str(spec), "--quiet", "--no-cache", "--journal", str(journal)]

    journal = tmp_path / "run.jsonl"
    return argv, journal, journal


def _matrix(tmp_path: Path):
    """``(argv for a journal directory, the directory, its first journal)``."""

    def argv(journal_dir):
        return ["matrix", *MATRIX_ARGS, "--quiet", "--no-cache", "--journal-dir", str(journal_dir)]

    journal_dir = tmp_path / "journals"
    return argv, journal_dir, journal_dir / "sig-outofband.journal.jsonl"


def _wait_for_begin(path: Path, proc: subprocess.Popen, deadline: float) -> None:
    while time.monotonic() < deadline:
        if path.exists() and b'"event":"begin"' in path.read_bytes():
            return
        if proc.poll() is not None:
            pytest.fail(f"command exited {proc.returncode} before its journal began")
        time.sleep(0.002)
    proc.kill()
    pytest.fail(f"no begin line in {path}")


@pytest.mark.parametrize("command", ["campaign", "matrix"])
def test_sigint_exits_75_and_resume_matches_uninterrupted(tmp_path, capsys, command):
    argv, where, journal = (_campaign if command == "campaign" else _matrix)(tmp_path)

    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)}
    reference = tmp_path / "reference.json"
    assert main(argv(tmp_path / "reference-journal") + ["--out", str(reference)]) == 0
    capsys.readouterr()
    assert {signum: signal.getsignal(signum) for signum in handlers} == handlers

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv(where)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    _wait_for_begin(journal, proc, time.monotonic() + 60.0)
    proc.send_signal(signal.SIGINT)
    _out, err = proc.communicate(timeout=60.0)
    assert proc.returncode == 75, err.decode()
    assert b"SIGINT received" in err
    assert b"interrupted by signal" in err
    final = json.loads(journal.read_bytes().splitlines()[-1])
    assert final["event"] == "interrupt"
    assert final["reason"] == "signal"

    resumed = tmp_path / "resumed.json"
    assert main(argv(where) + ["--resume", "--out", str(resumed)]) == 0
    capsys.readouterr()
    assert resumed.read_bytes() == reference.read_bytes()
    assert {signum: signal.getsignal(signum) for signum in handlers} == handlers
