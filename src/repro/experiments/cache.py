"""Content-addressed on-disk cache for scenario results.

Every figure and benchmark in this repository is a pure function of its
:class:`~repro.experiments.scenario.ScenarioConfig`: the simulation is
deterministic given the config (which includes the seed), so a finished
:class:`~repro.metrics.collector.MetricsReport` can be stored once and
replayed forever.  The cache keys each report by

1. a **config digest** — SHA-256 over a canonical, type-tagged rendering
   of the (frozen, recursively dataclass-valued) config, independent of
   field declaration order and stable across processes; and
2. a **code salt** — SHA-256 over the source bytes of the whole ``repro``
   package plus a schema version constant.  Any code change invalidates
   the entire cache wholesale, which is the only safe policy for a
   simulator whose every module can shift results.

Layout::

    <root>/<salt[:16]>/<digest>.json

Each entry stores the full-fidelity report state plus a small header with
the config's repr for humans spelunking the cache directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Dict, Optional, Union

from repro.metrics.collector import MetricsReport
from repro.obs.spans import span

#: Bump when the on-disk entry format (not the simulator) changes shape.
#: 2: MetricsReport grew per-node protocol counters (node_counters).
#: 3: MetricsReport grew causal latency stages (latency_stages); version-2
#:    entries still load (the field defaults to empty on read).
#: 4: ScenarioConfig.defense became a DefenseSpec (name + per-plugin
#:    config block participate in the digest, so two defenses with
#:    otherwise-identical base configs can never collide).
CACHE_SCHEMA_VERSION = 4


# ----------------------------------------------------------------------
# Config hashing
# ----------------------------------------------------------------------
def canonical_value(obj: Any) -> Any:
    """Reduce ``obj`` to nested JSON-safe primitives with type tags.

    Dataclasses carry their qualified class name so two config types whose
    field dicts happen to coincide still hash differently; tuples/lists
    and dicts recurse; everything else must already be JSON-representable.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__qualname__, "__fields__": fields}
    if isinstance(obj, dict):
        return {str(k): canonical_value(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(item) for item in obj]
    if isinstance(obj, frozenset):
        return sorted(canonical_value(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for hashing: {obj!r}")


def config_digest(config: Any) -> str:
    """Stable SHA-256 hex digest of a (dataclass) config."""
    rendered = json.dumps(
        canonical_value(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def code_salt() -> str:
    """Digest of the installed ``repro`` package's source, computed once.

    Hashes every ``.py`` file under the package root in sorted relative-
    path order, so any code edit — engine, channel, protocol, metrics —
    retires all previously cached results.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        package_root = pathlib.Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        hasher.update(b"schema:%d" % CACHE_SCHEMA_VERSION)
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _CODE_SALT = hasher.hexdigest()
    return _CODE_SALT


_CODE_SALT: Optional[str] = None


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of finished scenario reports.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    salt:
        Override for the code-version salt; defaults to :func:`code_salt`.
        Tests use explicit salts to exercise invalidation without editing
        source files.
    fsync:
        fsync entries (and their directory) before the atomic rename
        publishes them, so a machine crash cannot leave a renamed-but-
        empty entry.  Default True; benchmarks can turn it off.
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        salt: Optional[str] = None,
        fsync: bool = True,
    ) -> None:
        self.root = pathlib.Path(root)
        self.salt = salt if salt is not None else code_salt()
        self.fsync = fsync
        self.hits = 0
        self.misses = 0

    def path_for(self, config: Any) -> pathlib.Path:
        """Entry path for ``config`` under the current salt."""
        return self.root / self.salt[:16] / f"{config_digest(config)}.json"

    def get(self, config: Any) -> Optional[MetricsReport]:
        """The cached report for ``config``, or None.  Corrupt or
        foreign-format entries count as misses (and are left in place for
        post-mortems rather than deleted)."""
        with span("cache.lookup"):
            path = self.path_for(config)
            try:
                payload = json.loads(path.read_text())
                report = MetricsReport.from_state(payload["report"])
            except (OSError, ValueError, KeyError, TypeError):
                self.misses += 1
                return None
            self.hits += 1
            return report

    def put(self, config: Any, report: MetricsReport) -> pathlib.Path:
        """Store ``report`` under ``config``'s digest (atomic rename, so a
        parallel worker crashing mid-write never leaves a torn entry)."""
        with span("cache.store"):
            path = self.path_for(config)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": CACHE_SCHEMA_VERSION,
                "config": repr(config),
                "report": report.to_state(),
            }
            text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
            fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                    if self.fsync:
                        # Durability order matters: entry bytes first,
                        # then the rename, then the directory entry — a
                        # crash at any point leaves either the old state
                        # or the complete new one, never a torn entry.
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(temp_name, path)
                if self.fsync:
                    dir_fd = os.open(path.parent, os.O_RDONLY)
                    try:
                        os.fsync(dir_fd)
                    finally:
                        os.close(dir_fd)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
            return path

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters since construction."""
        return {"hits": self.hits, "misses": self.misses}


def open_cache(
    cache: Union[ResultCache, str, pathlib.Path, None],
) -> Optional[ResultCache]:
    """``cache`` itself, or a :class:`ResultCache` rooted at a directory path."""
    return ResultCache(cache) if isinstance(cache, (str, pathlib.Path)) else cache
