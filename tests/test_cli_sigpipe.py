"""``python -m repro`` keeps SIGPIPE ignored and ends quietly when its
reader goes away.

A SIGPIPE default would also kill the CLI when a process-backend
worker's pipe breaks (exit 141, no dead-letter, no ``interrupt`` line),
so the entry point leaves the interpreter's ``SIG_IGN`` in place and
``main`` handles ``BrokenPipeError`` on stdout instead.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
))


def test_entry_point_leaves_sigpipe_ignored():
    code = (
        "import runpy, signal, sys\n"
        "import repro.cli as cli\n"
        "sigpipe = lambda: signal.getsignal(signal.SIGPIPE)\n"
        "cli.main = lambda argv=None: print(sigpipe() == signal.SIG_IGN) or 0\n"
        "sys.argv = ['repro']\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, check=True
    ).stdout
    assert out.strip() == b"True"


def test_piped_into_head_leaves_stderr_empty():
    command = f"{shlex.quote(sys.executable)} -m repro taxonomy | head -n1"
    done = subprocess.run(
        ["sh", "-c", command], env=ENV, capture_output=True, timeout=60
    )
    assert done.stderr == b""
    assert len(done.stdout.splitlines()) == 1


def test_closed_stdout_exits_quietly():
    # The reader is gone before the command writes anything: every write
    # hits a broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "taxonomy"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert err == b""
    assert proc.returncode in (0, 1)
