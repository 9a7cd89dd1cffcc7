"""Cryptographic substrate.

LITEWORP assumes "a pre-distribution pair-wise key management protocol"
(paper 4.1) and uses it in exactly two places: authenticating neighbor-
discovery replies / neighbor-list broadcasts, and authenticating alert
messages so that a single malicious guard cannot frame honest nodes.

We simulate predistribution by deriving each pairwise key k(i, j)
deterministically from a deployment master secret — the interface (any two
legitimate nodes share a key; outsiders share none) is identical to the
probabilistic schemes the paper cites.  Authentication is HMAC-SHA256
truncated to 8 bytes, which is unforgeable for simulation purposes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.crypto.auth import Authenticator, AuthError
    from repro.crypto.keys import KeyStore, PairwiseKeyManager

__all__ = [
    "AuthError",
    "Authenticator",
    "KeyStore",
    "PairwiseKeyManager",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.crypto.auth": ("Authenticator", "AuthError"),
    "repro.crypto.keys": ("KeyStore", "PairwiseKeyManager"),
})
