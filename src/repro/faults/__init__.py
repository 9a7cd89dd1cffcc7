"""Fault injection for robustness experiments.

The paper's evaluation assumes a benign environment apart from the
wormhole itself: nodes never crash, links never flap, the channel never
degrades.  This package deliberately breaks those assumptions so the
countermeasure's behaviour under churn can be measured:

- :mod:`repro.faults.plan` — a declarative, JSON-loadable description of
  *what* goes wrong and *when* (crash-stop, crash-recover, link flap,
  ambient-loss burst, MAC saturation, energy depletion, clock drift);
- :mod:`repro.faults.controller` — the executor that arms a plan on a
  live :class:`~repro.net.network.Network` via simulator timers;
- :mod:`repro.faults.harness` — faults against the experiment harness
  itself (worker crash/hang, corrupted results, torn journal writes,
  sink IO errors), validating the campaign supervisor's crash
  consistency rather than the protocol's.

Fault plans are pure data: the same plan applied to the same seeded
scenario reproduces the exact same run, byte for byte.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.controller import FaultController
    from repro.faults.harness import (
        CorruptResult,
        HarnessFault,
        HarnessFaultController,
        HarnessFaultError,
        HarnessFaultPlan,
        HarnessInterrupt,
        InjectedWorkerCrash,
        SinkIOError,
        TornJournalWrite,
        WorkerCrash,
        WorkerHang,
        WorkerSlowdown,
        load_harness_plan,
    )
    from repro.faults.plan import (
        ClockDrift,
        CrashRecover,
        CrashStop,
        EnergyDepletion,
        Fault,
        FaultPlan,
        LinkFlap,
        LossBurst,
        MacSaturation,
    )

__all__ = [
    "ClockDrift",
    "CorruptResult",
    "CrashRecover",
    "CrashStop",
    "EnergyDepletion",
    "Fault",
    "FaultController",
    "FaultPlan",
    "HarnessFault",
    "HarnessFaultController",
    "HarnessFaultError",
    "HarnessFaultPlan",
    "HarnessInterrupt",
    "InjectedWorkerCrash",
    "LinkFlap",
    "LossBurst",
    "MacSaturation",
    "SinkIOError",
    "TornJournalWrite",
    "WorkerCrash",
    "WorkerHang",
    "WorkerSlowdown",
    "load_harness_plan",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.faults.controller": ("FaultController",),
    "repro.faults.harness": (
        "CorruptResult", "HarnessFault", "HarnessFaultController", "HarnessFaultError",
        "HarnessFaultPlan", "HarnessInterrupt", "InjectedWorkerCrash", "SinkIOError",
        "TornJournalWrite", "WorkerCrash", "WorkerHang", "WorkerSlowdown",
        "load_harness_plan",
    ),
    "repro.faults.plan": (
        "ClockDrift", "CrashRecover", "CrashStop", "EnergyDepletion", "Fault", "FaultPlan",
        "LinkFlap", "LossBurst", "MacSaturation",
    ),
})
