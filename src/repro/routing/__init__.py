"""On-demand routing.

The paper evaluates LITEWORP over "a generic on-demand shortest path
routing that floods route requests and unicasts route replies in the
reverse direction" with a cache timeout ``TOut_Route``.  That protocol is
implemented here:

- :class:`~repro.routing.ondemand.OnDemandRouting` — the per-node agent:
  route discovery (flooded REQ with duplicate suppression and random
  forwarding jitter), reverse-pointer route replies, hop-by-hop data
  forwarding, and route-cache eviction.
- :class:`~repro.routing.cache.RouteTable` — next-hop entries with expiry.
- Two destination-side reply metrics (:class:`~repro.routing.config.RoutingConfig`):
  ``"shortest"`` (collect request copies briefly, answer the fewest-hop one
  — the paper's default, vulnerable to hop-count-preserving wormholes) and
  ``"first"`` (answer the earliest copy — the ARAN-style variant the paper
  discusses as a by-product defence against the encapsulation mode).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.routing.cache import RouteEntry, RouteTable
    from repro.routing.config import RoutingConfig
    from repro.routing.ondemand import OnDemandRouting

__all__ = [
    "OnDemandRouting",
    "RouteEntry",
    "RouteTable",
    "RoutingConfig",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.routing.cache": ("RouteEntry", "RouteTable"),
    "repro.routing.config": ("RoutingConfig",),
    "repro.routing.ondemand": ("OnDemandRouting",),
})
