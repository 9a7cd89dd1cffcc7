"""Replication seed derivation.

The paper averages every data point over ~30 independent replications.
Each replication needs its own root seed, derived from the sweep point's
base seed.  The seed scheme is part of the experiment's identity: the
result cache keys on the derived configs, and parallel execution must
derive exactly the same children as serial execution.

:func:`child_seed` maps index 0 to the base seed itself (so a single
replication is literally ``run_scenario(config)``), and hashes
``(base_seed, index)`` through SHA-256 for indices >= 1.  Unlike Python's
builtin ``hash()`` the digest is stable across processes and interpreter
versions, so a parallel worker pool derives byte-identical children.  It
replaced a ``seed + 1000 * index`` scheme that collided across sweep
points whose base seeds differ by a multiple of 1000 (replication 1 of
seed 4 and replication 0 of seed 1004 were the *same* run).
"""

from __future__ import annotations

import hashlib

# Domain-separation prefix: bump the suffix if the derivation ever needs
# to change again, so old and new schemes cannot collide by construction.
_DOMAIN = b"repro.experiments.child-seed.v1"

# Seeds stay inside the non-negative 63-bit range: comfortably big enough
# for independence, and representable exactly everywhere (JSON included).
_SEED_MASK = (1 << 63) - 1


def child_seed(base_seed: int, index: int) -> int:
    """Root seed for replication ``index`` of a sweep point.

    ``index`` 0 returns ``base_seed`` unchanged; higher indices derive an
    independent seed via SHA-256 over ``(base_seed, index)``.
    """
    if index < 0:
        raise ValueError(f"replication index must be non-negative, got {index!r}")
    base_seed = int(base_seed)
    if index == 0:
        return base_seed
    payload = b"%s:%d:%d" % (_DOMAIN, base_seed, index)
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK
