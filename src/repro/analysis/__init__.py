"""Closed-form analysis from paper section 5.

- :mod:`repro.analysis.coverage` — detection and false-alarm probability
  as functions of network density and the detection confidence index θ
  (figures 6(a), 6(b), and the analytical curve in figure 10).
- :mod:`repro.analysis.cost` — memory / computation / bandwidth overhead
  model (section 5.2).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.coverage import (
        CoverageParams,
        density_for_detection,
        detection_probability,
        detection_vs_neighbors,
        detection_vs_theta,
        expected_guards,
        false_alarm_probability,
        false_alarm_vs_neighbors,
        guard_region_area,
        guard_region_area_min,
        mean_guard_region_area,
        min_guards,
        per_guard_alert_probability,
        per_guard_false_alarm_probability,
    )
    from repro.analysis.cost import (
        CostModel,
        CostReport,
    )

__all__ = [
    "CostModel",
    "CostReport",
    "CoverageParams",
    "density_for_detection",
    "detection_probability",
    "detection_vs_neighbors",
    "detection_vs_theta",
    "expected_guards",
    "false_alarm_probability",
    "false_alarm_vs_neighbors",
    "guard_region_area",
    "guard_region_area_min",
    "mean_guard_region_area",
    "min_guards",
    "per_guard_alert_probability",
    "per_guard_false_alarm_probability",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.coverage": (
        "CoverageParams", "density_for_detection", "detection_probability",
        "detection_vs_neighbors", "detection_vs_theta", "expected_guards",
        "false_alarm_probability", "false_alarm_vs_neighbors", "guard_region_area",
        "guard_region_area_min", "mean_guard_region_area", "min_guards",
        "per_guard_alert_probability", "per_guard_false_alarm_probability",
    ),
    "repro.analysis.cost": ("CostModel", "CostReport"),
})
