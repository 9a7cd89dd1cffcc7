"""Build and select the C-accelerated event kernel.

The hot paths of every experiment are the event dispatch loop, the
channel's per-reception fan-out and LITEWORP's per-reception receive
hook, and the pure-Python :class:`repro.sim.engine.Simulator`,
per-receiver channel and guard logic top out well below what 1000-node
campaigns need.  This module compiles ``_ckernel.c`` (the kernel's
``Simulator``, the channel's ``Medium`` and LITEWORP's ``Guard``) on
demand with the system C compiler, caches the shared object next to the
source, and hands out whichever kernel is active.  The ``Medium`` and the
``Guard`` follow the simulator (:func:`kernel_type`): a scenario on the C
kernel uses both, one on the Python engine neither.

Selection is controlled by the ``REPRO_ACCEL`` environment variable:

- ``auto`` (default): use the C kernel if it builds, else fall back to
  the pure-Python engine silently.
- ``off``: never build or use the C kernel.
- ``require``: fail loudly if the C kernel cannot be built — used by CI
  and the benchmark suite so a broken toolchain cannot masquerade as a
  performance regression.

:func:`reference_mode` switches the whole stack — kernel, channel medium,
LITEWORP guard, radio index — to the straightforward reference
implementations for the duration of a ``with`` block.  The byte-identity
benchmark uses it to run every scenario twice in one process and compare
MetricsReports structurally.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sysconfig
import threading
from typing import Dict, Iterator, List, Mapping, Optional

_SOURCE = os.path.join(os.path.dirname(__file__), "_ckernel.c")

_lock = threading.Lock()
_ckernel = None          # module object once loaded, False once failed
_reference_depth = 0


class AccelError(RuntimeError):
    """Raised when REPRO_ACCEL=require and the C kernel is unavailable."""


def accel_mode() -> str:
    """The effective REPRO_ACCEL setting (auto / off / require)."""
    mode = os.environ.get("REPRO_ACCEL", "auto").strip().lower()
    if mode not in ("auto", "off", "require"):
        raise AccelError(f"REPRO_ACCEL must be auto, off or require, got {mode!r}")
    return mode


def _ext_path() -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(os.path.dirname(__file__), "_ckernel" + suffix)


def _build_command(output: str) -> List[str]:
    """The compiler command that builds _ckernel.c into ``output``."""
    include = sysconfig.get_paths()["include"]
    cc = os.environ.get("CC", "cc")
    return [cc, "-O2", "-shared", "-fPIC", f"-I{include}", _SOURCE, "-o", output]


def _build(ext_path: str) -> None:
    """Compile _ckernel.c into ext_path (atomic rename, safe under races)."""
    # Imported here: a process whose kernel is already built never needs them.
    import subprocess
    import tempfile

    # Not a module suffix: a package walk running meanwhile (another
    # process importing every module of repro) must not load the
    # half-written file.
    fd, tmp = tempfile.mkstemp(
        suffix=".tmp", prefix="_ckernel-", dir=os.path.dirname(ext_path)
    )
    os.close(fd)
    try:
        subprocess.run(_build_command(tmp), check=True, capture_output=True, text=True)
        os.replace(tmp, ext_path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _load() -> Optional[object]:
    """Return the _ckernel module, building it if needed; None on failure."""
    global _ckernel
    if _ckernel is not None:
        return _ckernel or None
    with _lock:
        if _ckernel is not None:
            return _ckernel or None
        try:
            ext_path = _ext_path()
            stale = (
                not os.path.exists(ext_path)
                or os.path.getmtime(ext_path) < os.path.getmtime(_SOURCE)
            )
            if stale:
                _build(ext_path)
            module = importlib.import_module("repro.sim._ckernel")
            from repro.sim.engine import SimulationError

            module._set_error_class(SimulationError)
            _ckernel = module
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            _ckernel = False
            if accel_mode() == "require":
                raise AccelError(
                    f"REPRO_ACCEL=require but the C kernel failed to build/load: {exc}"
                ) from exc
            return None
    return _ckernel or None


def kernel_available() -> bool:
    """Whether the C kernel can be (or has been) loaded under current mode."""
    if accel_mode() == "off":
        return False
    return _load() is not None


def enabled() -> bool:
    """Whether accelerated code paths should be used right now.

    False inside :func:`reference_mode`, when REPRO_ACCEL=off, or when the
    C kernel is unavailable in auto mode.
    """
    if _reference_depth > 0:
        return False
    mode = accel_mode()
    if mode == "off":
        return False
    if mode == "require":
        _load()
        return True
    return _load() is not None


def unwrapped(cls: type, references: Mapping[str, object]) -> bool:
    """The wrapper rule: whether ``cls`` still resolves every name in
    ``references`` to the reference function given for it.

    A C path stands in for a Python method only while this holds, so a
    wrapper installed on the class, or a subclass's override, keeps the
    method on the Python path and sees every call.  Callers ask when they
    build or attach what the C path would run."""
    return all(getattr(cls, name) is function for name, function in references.items())


def features_enabled() -> bool:
    """Whether the radio's spatial grid index is active.

    The grid is the one pure-Python fast path left (the channel and the
    LITEWORP guard follow the kernel, see :func:`kernel_type`).  Unlike
    :func:`enabled` this does not require the C kernel to build — the
    grid is pure Python and independently correct — but it honours
    REPRO_ACCEL=off and :func:`reference_mode` so one switch flips the
    whole stack to the reference implementations.
    """
    return _reference_depth == 0 and accel_mode() != "off"


def reference_active() -> bool:
    """Whether :func:`reference_mode` is currently in force."""
    return _reference_depth > 0


@contextlib.contextmanager
def reference_mode() -> Iterator[None]:
    """Force the reference implementations for the duration of the block.

    Scenarios built inside the block get the pure-Python kernel, hence
    the channel's per-receiver reference path and LITEWORP's Python
    receive hook, and the brute-force radio queries — the exact pre-rearchitecture stack, for in-process A/B
    identity runs.
    """
    global _reference_depth
    _reference_depth += 1
    try:
        yield
    finally:
        _reference_depth -= 1


def make_simulator(start_time: float = 0.0):
    """Instantiate the fastest kernel allowed by mode and reference state."""
    from repro.sim.engine import Simulator

    if _reference_depth > 0 or accel_mode() == "off":
        return Simulator(start_time)
    module = _load()
    if module is None:
        return Simulator(start_time)
    return module.Simulator(start_time)


def kernel_type(sim, name: str):
    """The C kernel's type ``name`` when ``sim`` is the C kernel's
    ``Simulator``, else None (the caller then runs its reference path).

    The one switch for every C type that works beside the kernel: the
    channel's ``Medium`` and LITEWORP's ``Guard``.  Never builds the
    kernel: a C simulator exists only once it is loaded.
    """
    module = _ckernel or None
    if module is not None and type(sim) is module.Simulator:
        return getattr(module, name)
    return None


def kernel_function(name: str):
    """The C kernel's module-level function ``name`` when accelerated
    paths are enabled (:func:`enabled`), else None (the caller then runs
    its reference path).  The trace sink's line encoder is chosen here."""
    if not enabled():
        return None
    module = _load()
    return getattr(module, name) if module is not None else None


def kernel_layout(sim):
    """The C kernel's one ``Layout`` when ``sim`` is its ``Simulator``, else
    None: made once per loaded kernel and shared by every ``Medium`` and
    ``Guard``, it holds the classes they read by slot offset, the layouts
    of the records they build and the references they stand in for, each
    a constant its module captured at import, so a wrapper installed
    before a scenario is built is never taken for the reference."""
    return _layout(kernel_type(sim, "Layout"))


@functools.lru_cache(maxsize=None)
def _layout(layout_type):
    return None if layout_type is None else layout_type(**_layout_arguments())


def _layout_arguments() -> Dict[str, object]:
    # Imported here: the packet, routing and trace modules sit above this one.
    from repro.net import packet
    from repro.routing.cache import RouteEntry
    from repro.sim.trace import KERNEL_LAYOUTS, TRACE_EMIT, TRACE_PUBLISH, TraceRecord

    return dict(
        emit=TRACE_EMIT, publish=TRACE_PUBLISH, describe=packet.FRAME_DESCRIBE,
        size_bytes=packet.FRAME_SIZE_BYTES, key=packet.PACKET_KEY, names=KERNEL_LAYOUTS,
        uids=packet._packet_uids, record_cls=TraceRecord, packet_cls=packet.Packet,
        frame_cls=packet.Frame, request_cls=packet.RouteRequest,
        reply_cls=packet.RouteReply, data_cls=packet.DataPacket, entry_cls=RouteEntry,
    )
