"""Where a scenario's time goes inside the C kernel: a CPU-time sampler.

cProfile sees the C ``Simulator.run`` as one call, and the layer tracer
of ``benchmarks/e2e`` turns the C paths off by wrapping the methods they
replace.  This script samples ``Scenario.run`` (for a campaign workload,
the whole ``run_campaign`` call) with ``ITIMER_PROF`` instead.  A small
helper, compiled here with ``cc`` and loaded with ctypes, records at
each ``SIGPROF`` the interrupted instruction, a short native backtrace
(``backtrace(3)``) and the innermost Python frame (read from the thread
state, CPython 3.11 only).  No ``perf`` and no change to
the program are needed.  The samples are split three ways:

1. **kernel**: samples whose leaf is in ``_ckernel``, by C function
   (``addr2line`` on the kernel's symbol table);
2. **libpython**: samples whose leaf is in libpython, by function and by
   the first ``_ckernel`` function below it on the stack (``-`` when a
   Python frame, not the kernel, called into libpython);
3. **python**: every sample by its innermost Python frame.  A sample
   whose innermost frame is ``Scenario.run`` ran with no Python callback
   on the stack, so ``python_callback_share`` is the share of the run in
   Python callbacks.

``--lines`` adds a fourth split, **lines**: the kernel samples by the
source line of ``_ckernel.c`` they hit (``function file:line``, the
innermost inlined function's line when the debug twin names it).  A line
that loads a node's, a guard's or a table cell's state for the first time
in a batch shows up here as a cache miss would.

Usage, from the root of a checkout::

    python3 scripts/sample_kernel.py --workload paper100 [--repeat 5] [--lines]
        [--min-samples N] [--json out.json]

The workloads are those of ``benchmarks/e2e/workloads.py``; each repeat
samples every scenario of the workload's panel at the benchmark seed, or
a campaign workload's whole campaign (inline backend, its journal and
trace export in a temporary directory).
``--min-samples N`` repeats the panel beyond ``--repeat`` until it has N
samples, at most ``MAX_REPEAT`` times in all: a host whose profiling
timer ticks coarsely still gives a short workload enough samples.
See docs/PERFORMANCE.md section 7 for what the split can and cannot say.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import ctypes
import dataclasses
import gc
import json
import os
import platform
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

#: Native frames kept per sample.
DEPTH = 32
#: The interval asked of ITIMER_PROF.  The kernel delivers at most one
#: SIGPROF per scheduler tick of CPU time, so a host with a 4 ms tick
#: samples every 4 ms; the split reports the interval it got.
INTERVAL_US = 1000
#: Rows printed per split (the JSON holds them all).
TOP = 15
#: The most runs of a panel ``--min-samples`` makes.
MAX_REPEAT = 1000

HELPER = r"""
#define _GNU_SOURCE
#define Py_BUILD_CORE
#include <Python.h>
#include <internal/pycore_frame.h>
#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH %(depth)d
typedef struct { void *leaf; void *code; int depth; void *stack[DEPTH]; } Sample;
static Sample *samples;
static long capacity, count, missed;
static PyThreadState *tstate;

static void on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig; (void)info;
    if (count >= capacity) { missed++; return; }
    Sample *s = &samples[count++];
    s->leaf = (void *)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    s->depth = backtrace(s->stack, DEPTH);
    _PyCFrame *cframe = tstate->cframe;
    _PyInterpreterFrame *frame = cframe ? cframe->current_frame : NULL;
    s->code = frame ? (void *)frame->f_code : NULL;
}

int sampler_start(void *state, long interval_us, void *buffer, long size)
{
    void *warm[4];
    backtrace(warm, 4);     /* loads the unwinder outside the handler */
    tstate = state;
    samples = buffer;
    capacity = size;
    count = missed = 0;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, NULL) < 0)
        return -1;
    struct itimerval timer = {{0, interval_us}, {0, interval_us}};
    return setitimer(ITIMER_PROF, &timer, NULL);
}

long sampler_stop(long *lost)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    *lost = missed;
    return count;
}
"""


class Sample(ctypes.Structure):
    _fields_ = [
        ("leaf", ctypes.c_void_p), ("code", ctypes.c_void_p), ("depth", ctypes.c_int),
        ("stack", ctypes.c_void_p * DEPTH),
    ]


def build_helper(workdir: str) -> ctypes.CDLL:
    """Compile the sampling helper with ``cc`` into ``workdir`` and load it."""
    if sys.version_info[:2] != (3, 11):
        raise SystemExit("sample_kernel.py reads CPython 3.11's frame layout")
    source = Path(workdir) / "sampler.c"
    library = Path(workdir) / "sampler.so"
    source.write_text(HELPER % {"depth": DEPTH})
    include = sysconfig.get_paths()["include"]
    subprocess.run(
        [os.environ.get("CC", "cc"), "-O2", "-shared", "-fPIC", f"-I{include}",
         str(source), "-o", str(library)],
        check=True, capture_output=True, text=True,
    )
    helper = ctypes.CDLL(str(library))
    helper.sampler_start.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long]
    helper.sampler_stop.argtypes = [ctypes.POINTER(ctypes.c_long)]
    helper.sampler_stop.restype = ctypes.c_long
    return helper


# ----------------------------------------------------------------------
# Resolving addresses
# ----------------------------------------------------------------------
class Maps:
    """The process's executable mappings: address -> (file, address in it)."""

    def __init__(self) -> None:
        bases: Dict[str, int] = {}
        spans: List[Tuple[int, int, str]] = []
        with open("/proc/self/maps") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in parts[0].split("-"))
                path = parts[5]
                if int(parts[2], 16) == 0:
                    bases.setdefault(path, start)
                if "x" in parts[1]:
                    spans.append((start, end, path))
        spans.sort()
        self._starts = [s for s, _, _ in spans]
        self._spans = spans
        self._bases = bases

    def locate(self, address: int) -> Optional[Tuple[str, int]]:
        i = bisect.bisect_right(self._starts, address) - 1
        if i < 0 or address >= self._spans[i][1]:
            return None
        path = self._spans[i][2]
        return path, address - self._bases.get(path, self._spans[i][0])


def _text_symbols(path: str) -> List[str]:
    out = subprocess.run(["nm", path], check=True, capture_output=True, text=True).stdout
    return sorted(line for line in out.splitlines() if line[17:18] in ("t", "T"))


def debug_twin(workdir: str, loaded: str) -> Optional[str]:
    """The kernel built again with ``-g`` (which changes no instruction),
    so ``addr2line -i`` can name the function inlined at an address; None
    when its symbols do not sit where the loaded kernel's do."""
    from repro.sim import accel

    twin = str(Path(workdir) / "ckernel-debug.so")
    subprocess.run(accel._build_command(twin) + ["-g"], check=True, capture_output=True)
    return twin if _text_symbols(twin) == _text_symbols(loaded) else None


def symbolize(
    requests: Dict[str, set], twins: Dict[str, str]
) -> Dict[Tuple[str, int], Tuple[str, str]]:
    """(function, ``file:line``) for (file, address) pairs, one
    ``addr2line`` per file: the innermost function inlined there when the
    file has a debug twin."""
    names: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for path, addresses in requests.items():
        ordered = sorted(addresses)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-e", twins.get(path, path)] + [hex(a) for a in ordered],
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()
        # Each address prints as its hex form, then (function, file:line)
        # pairs from the innermost inlined function outwards.
        heads = [i for i, line in enumerate(out) if line.startswith("0x")]
        for address, head in zip(ordered, heads):
            function = out[head + 1] if head + 1 < len(out) else "??"
            line = out[head + 2] if head + 2 < len(out) else "??:0"
            names[(path, address)] = (function, os.path.basename(line.split(" ")[0]))
    return names


def _kind(path: str) -> str:
    base = os.path.basename(path)
    if base.startswith("_ckernel"):
        return "kernel"
    if base.startswith("libpython"):
        return "libpython"
    if base.startswith("libc.") or base.startswith("libm."):
        return "libc"
    return "other"


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _panel(spec, seed: int, workdir: str) -> Iterator[Callable[[], object]]:
    """The calls one repeat of ``spec`` samples, each set up untimed: the
    ``run`` of every scenario of its panel, or a campaign workload's
    ``run_campaign`` on the inline backend, its journal and trace export
    in ``workdir``."""
    if spec.kind == "campaign":
        from repro.experiments.campaign import run_campaign

        campaign = spec.campaign_spec(seed)
        trace = os.path.join(workdir, "trace.jsonl")
        journal = os.path.join(workdir, "journal.jsonl")
        obs = dataclasses.replace(campaign.base.obs, trace_path=trace)
        campaign = dataclasses.replace(campaign, base=dataclasses.replace(campaign.base, obs=obs))
        for stale in (trace, journal):
            if os.path.exists(stale):
                os.remove(stale)
        yield lambda: run_campaign(campaign, backend="inline", journal=journal)
        return
    from repro.experiments.scenario import build_scenario

    for scenario_seed in spec.scenario_seeds(seed):
        yield build_scenario(spec.scenario_config(scenario_seed)).run


def sample(workload: str, repeat: int, min_samples: int = 0) -> Dict[str, object]:
    from repro.sim import accel
    from workloads import DEFAULT_SEED, WORKLOADS

    if not accel.kernel_available():
        raise SystemExit("the C kernel is not available")
    spec = WORKLOADS[workload]
    raw: List[Tuple[int, int, Tuple[int, ...]]] = []
    missed = 0
    cpu = 0.0
    with tempfile.TemporaryDirectory() as workdir:
        helper = build_helper(workdir)
        buffer = (Sample * 200_000)()
        state = ctypes.pythonapi.PyThreadState_Get
        state.restype = ctypes.c_void_p
        runs = 0
        while runs < repeat or (len(raw) < min_samples and runs < MAX_REPEAT):
            runs += 1
            for call in _panel(spec, DEFAULT_SEED, workdir):
                lost = ctypes.c_long()
                started = time.process_time()
                if helper.sampler_start(state(), INTERVAL_US, buffer, len(buffer)) != 0:
                    raise SystemExit("could not start the interval timer")
                try:
                    call()
                finally:
                    taken = helper.sampler_stop(ctypes.byref(lost))
                cpu += time.process_time() - started
                missed += lost.value
                for s in buffer[:taken]:
                    raw.append((s.leaf, s.code or 0, tuple(s.stack[: s.depth])))
                del call
        # Python frames: a sampled code pointer is only ever compared with
        # the code objects of the functions alive now, never followed.
        code_names = {
            id(obj.__code__): f"{obj.__code__.co_filename.split('src/')[-1]}:{obj.__qualname__}"
            for obj in gc.get_objects() if type(obj).__name__ == "function"
        }
        kernel_path = sys.modules["repro.sim._ckernel"].__file__
        twin = debug_twin(workdir, kernel_path)
        twins = {kernel_path: twin} if twin else {}
        return _split(raw, Maps(), twins, code_names, missed, cpu, workload, runs)


def _split(raw, maps, twins, code_names, missed, cpu, workload, repeat):
    requests: Dict[str, set] = collections.defaultdict(set)
    located = []
    for leaf, code, stack in raw:
        where = maps.locate(leaf)
        # The backtrace starts in the handler; the interrupted frame is the
        # one whose address is the leaf, callers follow.
        frames = list(stack)
        callers = frames[frames.index(leaf) + 1:] if leaf in frames else frames[2:]
        kernel_caller = None
        for address in callers:
            place = maps.locate(address)
            if place and _kind(place[0]) == "kernel":
                # A return address points after the call.
                kernel_caller = (place[0], place[1] - 1)
                requests[place[0]].add(place[1] - 1)
                break
        if where:
            requests[where[0]].add(where[1])
        located.append((where, kernel_caller, code))
    names = symbolize(requests, twins)
    by_kind: collections.Counter = collections.Counter()
    kernel: collections.Counter = collections.Counter()
    lines: collections.Counter = collections.Counter()
    libpython: collections.Counter = collections.Counter()
    python: collections.Counter = collections.Counter()
    for where, kernel_caller, code in located:
        kind = _kind(where[0]) if where else "other"
        by_kind[kind] += 1
        caller = names.get(kernel_caller, ("-", ""))[0] if kernel_caller else "-"
        if kind == "kernel":
            function, line = names.get(where, ("?", "?:0"))
            kernel[function] += 1
            lines[f"{function} {line}"] += 1
        elif kind == "libpython":
            libpython[f"{names.get(where, ('?', ''))[0]} <- {caller}"] += 1
        python[code_names.get(code, "<no Python frame>" if not code else "<unknown>")] += 1
    total = len(located)
    quiet = sum(n for name, n in python.items() if name.endswith(":Scenario.run"))
    return {
        "workload": workload,
        "repeat": repeat,
        "samples": total,
        "missed": missed,
        "cpu_s": round(cpu, 3),
        "inlined_names": bool(twins),
        "requested_interval_ms": INTERVAL_US / 1000.0,
        "effective_interval_ms": round(1000.0 * cpu / total, 3) if total else None,
        "leaf": dict(by_kind.most_common()),
        "python_callback_share": round(1.0 - quiet / total, 4) if total else None,
        "kernel": dict(kernel.most_common()),
        "lines": dict(lines.most_common()),
        "libpython": dict(libpython.most_common()),
        "python": dict(python.most_common()),
    }


def _print(result: Dict[str, object], top: int, by_line: bool) -> None:
    total = result["samples"] or 1
    print(
        f"{result['workload']}: {result['samples']} samples over {result['cpu_s']} CPU s "
        f"(one per {result['effective_interval_ms']} ms; {result['missed']} missed)"
    )
    print("leaf:", ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in result["leaf"].items()))
    print(f"python callbacks: {100 * (result['python_callback_share'] or 0):.1f}% of samples")
    for title in ("kernel",) + ("lines",) * by_line + ("libpython", "python"):
        print(f"\n{title}:")
        for name, n in list(result[title].items())[:top]:
            print(f"  {100 * n / total:5.1f}%  {n:6d}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="paper100")
    parser.add_argument("--repeat", type=int, default=5, help="runs of the workload's panel")
    parser.add_argument(
        "--min-samples", type=int, default=0,
        help=f"repeat the panel until this many samples (at most {MAX_REPEAT} runs)",
    )
    parser.add_argument("--lines", action="store_true",
                        help="also split the kernel samples by source line")
    parser.add_argument("--json", help="also write the whole split here as JSON")
    args = parser.parse_args(argv)
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        raise SystemExit("sample_kernel.py reads x86-64 Linux signal contexts")
    result = sample(args.workload, args.repeat, args.min_samples)
    _print(result, TOP, args.lines)
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
