"""Trace substrate: synthetic network and motion traces.

The paper drives its simulation with two public bandwidth datasets
(the FCC fixed-broadband measurements and the Ghent 4G/LTE logs) and
with the Firefly motion-trace dataset.  None of those ship with this
reproduction, so this subpackage provides *generators* whose output
matches how the paper consumes the data:

* network traces are piecewise-constant Mbps series, clamped to
  20-100 Mbps, with multi-second holds (Section IV);
* motion traces are 6-DoF pose series with smooth translation on a
  room-scale grid and correlated head rotation, the regime in which a
  linear-regression predictor attains high (but imperfect) accuracy.

See DESIGN.md for the substitution rationale.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.traces.network": (
            "FccWebBrowsingModel", "LteMobilityModel", "NetworkTrace",
            "TraceCatalog", "TraceSegment",
        ),
        "repro.traces.motion": ("MotionConfig", "MotionTraceGenerator"),
        "repro.traces.dataset": ("SlotSchedule", "TraceDataset"),
        "repro.traces.io": (
            "load_network_trace_csv", "load_network_trace_json",
            "load_pose_trace_csv", "save_network_trace_csv",
            "save_network_trace_json", "save_pose_trace_csv",
        ),
        "repro.traces.datasets": ("load_bandwidth_log", "load_fcc_webget_csv"),
    },
)

__all__ = [
    "load_fcc_webget_csv",
    "load_bandwidth_log",
    "load_network_trace_csv",
    "load_network_trace_json",
    "load_pose_trace_csv",
    "save_network_trace_csv",
    "save_network_trace_json",
    "save_pose_trace_csv",
    "TraceSegment",
    "NetworkTrace",
    "FccWebBrowsingModel",
    "LteMobilityModel",
    "TraceCatalog",
    "MotionConfig",
    "MotionTraceGenerator",
    "TraceDataset",
    "SlotSchedule",
]
