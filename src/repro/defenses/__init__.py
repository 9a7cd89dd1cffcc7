"""Defense plugin registry and the built-in schemes.

``ScenarioConfig(defense=...)`` resolves through this package: the four
schemes the reproduction grew up with (``liteworp``, ``geo_leash``,
``temporal_leash``, ``none``) plus the two literature baselines added
with the registry (``rtt``, ``snd``) are registered by name in
:mod:`repro.defenses.registry` and load on first use.
Third-party schemes subclass :class:`Defense` and call
:func:`register_defense`; see docs/DEFENSES.md for the full protocol.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.defenses.base import Defense, DefenseContext, DefenseSpec
    from repro.defenses.leash import GeoLeashDefense, TemporalLeashDefense
    from repro.defenses.liteworp import LiteworpDefense
    from repro.defenses.null import NoDefense
    from repro.defenses.registry import (
        available_defenses,
        get_defense,
        register_defense,
        unregister_defense,
    )
    from repro.defenses.rtt import RttConfig, RttDefense
    from repro.defenses.snd import SndConfig, SndDefense

__all__ = [
    "Defense",
    "DefenseContext",
    "DefenseSpec",
    "GeoLeashDefense",
    "LiteworpDefense",
    "NoDefense",
    "RttConfig",
    "RttDefense",
    "SndConfig",
    "SndDefense",
    "TemporalLeashDefense",
    "available_defenses",
    "get_defense",
    "register_defense",
    "unregister_defense",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.defenses.base": ("Defense", "DefenseContext", "DefenseSpec"),
    "repro.defenses.leash": ("GeoLeashDefense", "TemporalLeashDefense"),
    "repro.defenses.liteworp": ("LiteworpDefense",),
    "repro.defenses.null": ("NoDefense",),
    "repro.defenses.registry": (
        "available_defenses", "get_defense", "register_defense", "unregister_defense",
    ),
    "repro.defenses.rtt": ("RttConfig", "RttDefense"),
    "repro.defenses.snd": ("SndConfig", "SndDefense"),
})
