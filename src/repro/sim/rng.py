"""Named, independently seeded random streams.

Experiments in the paper are averaged over 30 runs with randomised node
placement, traffic, and attacker selection.  To keep those three sources of
randomness independent (so that, e.g., enabling LITEWORP does not shift the
topology draw), every consumer asks the registry for a *named* stream.
Streams are derived deterministically from the root seed and the name, so a
run is fully described by ``(root_seed, config)``.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict


class RngRegistry:
    """Factory for named :class:`random.Random` streams.

    >>> reg = RngRegistry(seed=7)
    >>> a = reg.stream("traffic")
    >>> b = reg.stream("topology")
    >>> a is reg.stream("traffic")
    True
    >>> a is b
    False
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The per-stream seed mixes the root seed with a CRC of the name, so
        distinct names yield independent-looking streams and the mapping is
        stable across processes (unlike ``hash()``, which is salted).
        """
        rng = self._streams.get(name)
        if rng is None:
            derived = (self._seed * 1_000_003 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng

    def fork(self, run_index: int) -> "RngRegistry":
        """Registry for an independent replication (used for the 30-run averages)."""
        return RngRegistry(seed=self._seed * 7919 + run_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={sorted(self._streams)})"


class LazyStream:
    """A stand-in for ``registry.stream(name)`` that creates the stream on
    its first draw.

    A :class:`random.Random` holds 2.5 KiB of state from the moment it
    exists, and some per-node streams are never drawn from (LITEWORP's,
    when neighbour tables come from the oracle).  The stream's seed
    depends only on the root seed and the name, so its draws are the same
    whenever it is created.  Any attribute read creates (or finds) the
    stream and forwards to it; methods are cached on this object as they
    are handed out, so a later ``lazy.random()`` costs what it costs on
    the stream itself.

    >>> lazy = LazyStream(RngRegistry(seed=7), "liteworp:3")
    >>> lazy.random() == RngRegistry(seed=7).stream("liteworp:3").random()
    True
    """

    def __init__(self, registry: RngRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __getattr__(self, attr: str) -> Any:
        if attr in ("_registry", "_name"):  # not set yet (copy, unpickling)
            raise AttributeError(attr)
        value = getattr(self._registry.stream(self._name), attr)
        if callable(value):
            self.__dict__[attr] = value
        return value
