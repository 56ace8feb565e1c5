"""repro.faults — deterministic fault injection for the serving path.

The paper's evaluation runs phones over throttled Wi-Fi where
disconnects, stalls, and corrupt frames are the norm; this package
makes that hostility *scriptable and reproducible*.  A seeded (or
hand-written JSON) :class:`~repro.faults.schedule.FaultSchedule`
names exactly which fault hits which seat at which slot; a
:class:`~repro.faults.injection.FaultInjector` hands each event out
once and records the realized timeline; the serving stack
(:mod:`repro.serve`) and the emulated testbed
(:mod:`repro.system.experiment`) consume the same schedule format.
The chaos test tier (``tests/chaos``) asserts that one seed always
yields one fault timeline and one recovery outcome.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.injection": (
            "FaultInjector", "corrupt_frame_bytes", "truncate_frame_bytes",
        ),
        "repro.faults.schedule": (
            "CLIENT_KINDS", "FAULT_CORRUPT_REPORT", "FAULT_CRASH_CLIENT",
            "FAULT_DELAY_REPORT", "FAULT_DISCONNECT", "FAULT_KINDS",
            "FAULT_MIGRATION_STALL", "FAULT_SHARD_KILL", "FAULT_STALL_READ",
            "FAULT_STALL_WRITE", "FAULT_TRUNCATE_FRAME", "SERVER_KINDS",
            "SHARD_KINDS", "TIMED_KINDS", "FaultEvent", "FaultSchedule",
        ),
    },
)

__all__ = [
    "CLIENT_KINDS",
    "FAULT_CORRUPT_REPORT",
    "FAULT_CRASH_CLIENT",
    "FAULT_DELAY_REPORT",
    "FAULT_DISCONNECT",
    "FAULT_KINDS",
    "FAULT_MIGRATION_STALL",
    "FAULT_SHARD_KILL",
    "FAULT_STALL_READ",
    "FAULT_STALL_WRITE",
    "FAULT_TRUNCATE_FRAME",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "SERVER_KINDS",
    "SHARD_KINDS",
    "TIMED_KINDS",
    "corrupt_frame_bytes",
    "truncate_frame_bytes",
]
