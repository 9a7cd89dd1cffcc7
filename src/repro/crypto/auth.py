"""Message authentication.

Tags are HMAC-SHA256 truncated to :data:`TAG_BYTES`.  Payloads are
canonicalised from simple Python values (ints, strings, bytes, tuples) so
both ends compute the tag over identical bytes without a full serializer.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any

TAG_BYTES = 8


class AuthError(ValueError):
    """Raised when a payload cannot be canonicalised."""


def _canonical(value: Any) -> bytes:
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, bool):
        return b"B:1" if value else b"B:0"
    if isinstance(value, int):
        return f"i:{value}".encode("ascii")
    if isinstance(value, float):
        return f"f:{value!r}".encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if value is None:
        return b"n:"
    if isinstance(value, (tuple, list)):
        parts = b"|".join(_canonical(item) for item in value)
        return b"t:[" + parts + b"]"
    raise AuthError(f"cannot canonicalise {type(value).__name__} for authentication")


class Authenticator:
    """Compute and verify truncated-HMAC tags over structured payloads."""

    @staticmethod
    def tag(key: bytes, *payload: Any) -> bytes:
        """Authentication tag for ``payload`` under ``key``."""
        if not key:
            raise AuthError("empty key")
        message = _canonical(tuple(payload))
        return hmac.new(key, message, hashlib.sha256).digest()[:TAG_BYTES]

    @staticmethod
    def verify(key: bytes | None, tag: bytes, *payload: Any) -> bool:
        """Constant-time verification; a missing key always fails."""
        if not key:
            return False
        expected = Authenticator.tag(key, *payload)
        return hmac.compare_digest(expected, tag)

    @staticmethod
    def forge() -> bytes:
        """A syntactically valid but cryptographically worthless tag —
        what an outsider without keys can produce."""
        return b"\x00" * TAG_BYTES

