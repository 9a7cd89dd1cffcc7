"""Traffic generation (paper section 6).

"Each node acts as a data source and generates data using an exponential
random distribution with inter-arrival rate of λ.  The destination is
chosen at random and is changed using an exponential random distribution
with rate μ."
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.traffic.generator import TrafficConfig, TrafficGenerator

__all__ = ["TrafficConfig", "TrafficGenerator"]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.traffic.generator": ("TrafficConfig", "TrafficGenerator"),
})
