"""Fixtures shared by the test modules: the process memos and a MAC count.

balisim keeps four memos for the life of a process, each a
functools.lru_cache: auth.derive_keys (key pairs), auth.prf_s (S
values), deployment._track_codewords (the track programmed last) and
scenario.align_codeword (alignments by codeword).  A test that counts
work empties them through empty_memos.
"""

import pytest

from balisim import auth, codec
from balisim.sim import deployment, scenario

# Every lru_cache in balisim is a memo that empty_memos empties or a
# pure table whose entries hold no state a test could count.
# scenario._time_texts holds the t texts of one dt, each a pure function
# of the dt, so none is ever stale.
MEMOS = (auth.derive_keys, auth.prf_s, deployment._track_codewords,
         scenario.align_codeword)
TABLES = (codec._fields, scenario._time_texts)


@pytest.fixture
def empty_memos():
    """Empty the process memos, and return the function that does it.

    A test calls the function again to go cold mid-test.
    """
    def empty():
        for memo in MEMOS:
            memo.cache_clear()

    empty()
    return empty


# The kind of MAC a message's leading byte makes it (see auth's notes).
MAC_KINDS = {b"\x4b": "kdf", b"\x53": "prf", b"\x01": "tag", b"\x02": "tag"}


@pytest.fixture
def macs(monkeypatch, empty_memos):
    """With the memos emptied, list the key of every MAC from now on by kind.

    Returns {"kdf": [...], "prf": [...], "tag": [...]}; each list holds
    the key of each auth._hmac256 call whose message is of that kind, in
    call order.
    """
    keys = {kind: [] for kind in set(MAC_KINDS.values())}
    hmac256 = auth._hmac256

    def counting(key, msg):
        keys[MAC_KINDS[msg[:1]]].append(key)
        return hmac256(key, msg)

    monkeypatch.setattr(auth, "_hmac256", counting)
    return keys
