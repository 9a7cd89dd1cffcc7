"""The defense registry: name -> :class:`~repro.defenses.base.Defense`.

The six built-ins are registered by name only: their modules are
imported, and their plugins built, on the first :func:`get_defense` of
that name, so listing them (:func:`available_defenses`) or running a
scenario with one of them loads none of the others.  Third-party code
calls :func:`register_defense` before building scenarios; a built-in
name counts as taken whether or not its module has been loaded.  Lookup
failures list what *is* registered, so a typo'd ``defense=`` fails with
the valid vocabulary in the message.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    from repro.defenses.base import Defense

_REGISTRY: Dict[str, Defense] = {}

#: Built-ins not yet loaded: name -> (module, plugin class).
_BUILTINS: Dict[str, Tuple[str, str]] = {
    "liteworp": ("repro.defenses.liteworp", "LiteworpDefense"),
    "geo_leash": ("repro.defenses.leash", "GeoLeashDefense"),
    "temporal_leash": ("repro.defenses.leash", "TemporalLeashDefense"),
    "none": ("repro.defenses.null", "NoDefense"),
    "rtt": ("repro.defenses.rtt", "RttDefense"),
    "snd": ("repro.defenses.snd", "SndDefense"),
}


def register_defense(defense: Defense, replace: bool = False) -> Defense:
    """Add ``defense`` to the registry under its ``name``.

    Registering a name that is already taken raises unless ``replace``
    is set (tests and third-party overrides use it deliberately).
    """
    name = defense.name
    if not name or not isinstance(name, str):
        raise ValueError(f"defense must declare a non-empty string name, got {name!r}")
    if name == "auto":
        raise ValueError("'auto' is reserved for ScenarioConfig defense resolution")
    if name in _REGISTRY or name in _BUILTINS:
        if not replace:
            raise ValueError(
                f"defense {name!r} is already registered "
                f"({get_defense(name)!r}); pass replace=True to override"
            )
        _BUILTINS.pop(name, None)
    _REGISTRY[name] = defense
    return defense


def unregister_defense(name: str) -> None:
    """Remove a registered defense (primarily for tests)."""
    _REGISTRY.pop(name, None)
    _BUILTINS.pop(name, None)


def get_defense(name: str) -> Defense:
    """The registered defense called ``name``, built on first use if it
    is a built-in.

    Raises ``ValueError`` naming the available defenses on a miss.
    """
    defense = _REGISTRY.get(name)
    if defense is not None:
        return defense
    if name not in _BUILTINS:
        raise ValueError(f"unknown defense {name!r}; available: {available_defenses()}")
    module, plugin = _BUILTINS[name]
    defense = _REGISTRY[name] = getattr(import_module(module), plugin)()
    _BUILTINS.pop(name, None)
    return defense


def available_defenses() -> Tuple[str, ...]:
    """Every registered defense name, sorted, without loading any."""
    return tuple(sorted(_REGISTRY.keys() | _BUILTINS.keys()))
