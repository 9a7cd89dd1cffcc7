"""Smoke test of ``scripts/sample_kernel.py``, the kernel's CPU-time
sampler, on the ``tiny16`` workload: it builds its helper with ``cc``,
samples, and splits every sample three ways.  Skipped where the sampler
cannot run: no compiler or ``addr2line``, not x86-64 Linux, not CPython
3.11, or no C kernel."""

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import accel

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not (shutil.which(os.environ.get("CC", "cc")) and shutil.which("addr2line") and shutil.which("nm"))
    or (platform.system(), platform.machine()) != ("Linux", "x86_64")
    or sys.version_info[:2] != (3, 11)
    or not accel.kernel_available(),
    reason="the sampler needs cc, addr2line and nm on x86-64 Linux, CPython 3.11 and the C kernel",
)


def test_sampler_splits_every_sample_three_ways(tmp_path):
    out = tmp_path / "split.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sample_kernel.py"), "--workload", "tiny16",
         "--repeat", "1", "--min-samples", "20", "--lines", "--json", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("tiny16: ")
    split = json.loads(out.read_text())
    total = split["samples"]
    assert total > 0 and split["missed"] == 0
    assert sum(split["leaf"].values()) == total
    assert sum(split["python"].values()) == total
    assert sum(split["kernel"].values()) == split["leaf"].get("kernel", 0)
    assert sum(split["lines"].values()) == split["leaf"].get("kernel", 0)
    assert all(":" in line for line in split["lines"])
    assert sum(split["libpython"].values()) == split["leaf"].get("libpython", 0)
    assert 0.0 <= split["python_callback_share"] <= 1.0
    # Python frames are named by the functions the program defines.
    assert any(name.startswith("repro/") for name in split["python"])
