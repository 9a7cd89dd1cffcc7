"""LITEWORP — the paper's primary contribution.

The protocol has three cooperating pieces, composed per node by
:class:`~repro.core.agent.LiteworpAgent`:

1. **Secure two-hop neighbor discovery**
   (:class:`~repro.core.discovery.NeighborDiscovery`): HELLO broadcast,
   authenticated replies, authenticated neighbor-list broadcast.  After it
   completes, every node knows its first- and second-hop neighbors and the
   legitimacy filters activate.  Experiments may instead install the
   tables from the topology oracle — the paper *assumes* discovery
   completes securely within the compromise-threshold time T_CT.
2. **Local monitoring** (:class:`~repro.core.monitor.LocalMonitor`): the
   guard logic — watch buffer with deadline δ, fabrication detection
   (announced previous hop never transmitted the packet), drop detection
   (watched packet never forwarded), and the per-neighbor malicious
   counters ``MalC`` with weights ``V_f``/``V_d`` over a sliding window.
3. **Response and isolation** (:class:`~repro.core.isolation.IsolationManager`):
   local revocation when ``MalC`` crosses ``C_t``, authenticated alerts to
   the accused node's neighbors, and isolation once ``θ`` distinct valid
   guards have alerted (θ = detection confidence index).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.agent import LiteworpAgent
    from repro.core.config import LiteworpConfig
    from repro.core.discovery import NeighborDiscovery
    from repro.core.isolation import IsolationManager
    from repro.core.liveness import ALIVE, DEAD, SUSPECT, LivenessManager
    from repro.core.monitor import LocalMonitor
    from repro.core.tables import NeighborTable

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "IsolationManager",
    "LiteworpAgent",
    "LiteworpConfig",
    "LivenessManager",
    "LocalMonitor",
    "NeighborDiscovery",
    "NeighborTable",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.agent": ("LiteworpAgent",),
    "repro.core.config": ("LiteworpConfig",),
    "repro.core.discovery": ("NeighborDiscovery",),
    "repro.core.isolation": ("IsolationManager",),
    "repro.core.liveness": ("ALIVE", "DEAD", "SUSPECT", "LivenessManager"),
    "repro.core.monitor": ("LocalMonitor",),
    "repro.core.tables": ("NeighborTable",),
})
