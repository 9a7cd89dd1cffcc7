"""Unit tests for the crypto substrate."""

import pytest

from repro.crypto.auth import AuthError, Authenticator, TAG_BYTES
from repro.crypto.keys import PairwiseKeyManager


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_pairwise_key_is_symmetric():
    mgr = PairwiseKeyManager(b"master")
    assert mgr.pairwise_key(1, 2) == mgr.pairwise_key(2, 1)


def test_pairwise_keys_differ_per_pair():
    mgr = PairwiseKeyManager(b"master")
    assert mgr.pairwise_key(1, 2) != mgr.pairwise_key(1, 3)
    assert mgr.pairwise_key(1, 2) != mgr.pairwise_key(2, 3)


def test_pairwise_key_with_self_rejected():
    mgr = PairwiseKeyManager(b"master")
    with pytest.raises(ValueError):
        mgr.pairwise_key(4, 4)


def test_keys_differ_across_masters():
    assert (
        PairwiseKeyManager(b"m1").pairwise_key(1, 2)
        != PairwiseKeyManager(b"m2").pairwise_key(1, 2)
    )


def test_empty_master_rejected():
    with pytest.raises(ValueError):
        PairwiseKeyManager(b"")


def test_enrolled_store_derives_keys():
    mgr = PairwiseKeyManager(b"master")
    store = mgr.enroll(7)
    assert store.has_keys
    assert store.key_with(9) == mgr.pairwise_key(7, 9)


def test_outsider_store_has_no_keys():
    mgr = PairwiseKeyManager(b"master")
    outsider = mgr.outsider(1000)
    assert not outsider.has_keys
    assert outsider.key_with(1) is None


# ----------------------------------------------------------------------
# Authentication
# ----------------------------------------------------------------------
def test_tag_roundtrip():
    key = b"k" * 16
    tag = Authenticator.tag(key, "alert", 1, 2)
    assert len(tag) == TAG_BYTES
    assert Authenticator.verify(key, tag, "alert", 1, 2)


def test_tag_rejects_wrong_payload():
    key = b"k" * 16
    tag = Authenticator.tag(key, "alert", 1, 2)
    assert not Authenticator.verify(key, tag, "alert", 1, 3)


def test_tag_rejects_wrong_key():
    tag = Authenticator.tag(b"key-a", "x")
    assert not Authenticator.verify(b"key-b", tag, "x")


def test_verify_with_missing_key_fails():
    tag = Authenticator.tag(b"key", "x")
    assert not Authenticator.verify(None, tag, "x")
    assert not Authenticator.verify(b"", tag, "x")


def test_forged_tag_fails():
    assert not Authenticator.verify(b"key", Authenticator.forge(), "payload")


def test_payload_type_distinction():
    """The canonical encoding must not confuse 1 and "1"."""
    key = b"key"
    assert Authenticator.tag(key, 1) != Authenticator.tag(key, "1")
    assert Authenticator.tag(key, (1, 2)) != Authenticator.tag(key, (12,))
    assert Authenticator.tag(key, None) != Authenticator.tag(key, 0)
    assert Authenticator.tag(key, True) != Authenticator.tag(key, 1)


def test_nested_tuples_supported():
    key = b"key"
    tag = Authenticator.tag(key, ("list", (1, 2, 3)))
    assert Authenticator.verify(key, tag, ("list", (1, 2, 3)))


def test_uncanonicalisable_payload_raises():
    with pytest.raises(AuthError):
        Authenticator.tag(b"key", object())


def test_empty_key_raises():
    with pytest.raises(AuthError):
        Authenticator.tag(b"", "x")
