"""Consistent hashing onto the identifier ring."""

from __future__ import annotations

import hashlib

#: Number of bits of the identifier space (2**M positions on the ring).
M_BITS = 32


def hash_key(key: str, bits: int = M_BITS) -> int:
    """Hash ``key`` to an integer identifier in ``[0, 2**bits)``.

    SHA-1 is used (as in Chord) and truncated to ``bits`` bits; the function
    is deterministic across runs and platforms.
    """
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big")
    return value % (1 << bits)
