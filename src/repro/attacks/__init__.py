"""Wormhole attack implementations (paper section 3).

The five launch modes of the taxonomy:

==============================  =============================  ==========================
Mode                            Class                          LITEWORP outcome
==============================  =============================  ==========================
Packet encapsulation (3.1)      :class:`TunnelRouting` +       detected (fabrication /
                                coordinator mode               REP drop at the guards)
                                ``"encapsulation"``
Out-of-band channel (3.2)       :class:`TunnelRouting` +       detected (same mechanism)
                                coordinator mode ``"outofband"``
High-power transmission (3.3)   :class:`HighPowerRouting`      rejected (non-neighbor
                                                               check)
Packet relay (3.4)              :class:`RelayAttacker`         rejected (non-neighbor
                                                               check)
Protocol deviation (3.5)        :class:`RushingRouting`        **not** detected (paper
                                                               4.2.3) unless the
                                                               ``watch_data`` extension
                                                               is enabled
==============================  =============================  ==========================

Tunnelled modes are orchestrated by :class:`WormholeCoordinator`, which
also provides the ground truth the metrics need (when each colluder first
acted, how many packets it swallowed).
"""

from repro.attacks.agents import HighPowerRouting, RelayAttacker, RushingRouting, TunnelRouting
from repro.attacks.coordinator import WormholeCoordinator
from repro.attacks.taxonomy import ATTACK_MODES, AttackMode, taxonomy_table

__all__ = [
    "ATTACK_MODES",
    "AttackMode",
    "HighPowerRouting",
    "RelayAttacker",
    "RushingRouting",
    "TunnelRouting",
    "WormholeCoordinator",
    "taxonomy_table",
]
