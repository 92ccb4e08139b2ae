"""Seed derivation.

All randomness in the toolkit flows from a single master seed. Stream seeds
for subsystems and individual runs are derived by hashing the master seed
together with a label path (e.g. ``derive_seed(master, "run", 17)``), so any
component can be re-executed in isolation and still reproduce its stream.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *parts) -> int:
    """Derive a 64-bit stream seed from a master seed and a label path.

    Uses BLAKE2b over the decimal rendering of the master seed and the
    string forms of ``parts``. Stable across processes and platforms.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"|")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big")

