"""Randomness sources.

Two interchangeable sources: SeededRng is a deterministic stream derived from
a seed via SHAKE-256 with domain-separation labels, so seeded runs are
bit-for-bit reproducible; SystemRng draws from the OS CSPRNG for production
use.  Every consumer in the package takes either through the same one-method
interface, randbelow; independent child streams (child) come from SeededRng
only.  Randomness picks scalars and choices, never a group: the transparent
group's order is the constant groups.TRANSPARENT_MODULUS.
"""

from __future__ import annotations

import hashlib
import secrets

# Label strings are part of the external interface: changing them changes
# every seeded artifact.
STREAM_LABEL = b"rabe/stream/v1"
CHILD_LABEL = b"rabe/child/v1"


def _seed_bytes(seed: int | str | bytes) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return seed.to_bytes(32, "big")
    raise TypeError(f"unsupported seed type: {type(seed).__name__}")


class SeededRng:
    """Deterministic byte stream: 64-byte blocks of SHAKE-256(STREAM_LABEL ||
    0x00 || seed || counter), the counter running from 0.  The hash state of
    the fixed prefix is kept and copied for each block, and draws read the
    kept blocks by offset."""

    def __init__(self, seed: int | str | bytes):
        self._seed = _seed_bytes(seed)
        self._prefix = hashlib.shake_256(STREAM_LABEL + b"\x00" + self._seed)
        self._counter = 0
        self._buffer = b""
        self._offset = 0

    def randbytes(self, n: int) -> bytes:
        start = self._offset
        if start + n > len(self._buffer):
            buffer = self._buffer[start:]  # the unread tail
            while len(buffer) < n:
                xof = self._prefix.copy()
                xof.update(self._counter.to_bytes(8, "big"))
                buffer += xof.digest(64)
                self._counter += 1
            self._buffer, start = buffer, 0
        self._offset = start + n
        return self._buffer[start : start + n]

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound): reduce a 128-bit-oversized draw so
        the modular bias is negligible."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        width = (bound.bit_length() + 7) // 8 + 16
        return int.from_bytes(self.randbytes(width), "big") % bound

    def child(self, label: str | bytes) -> "SeededRng":
        """Independent stream for a sub-task (e.g. one game trial)."""
        tag = label.encode("utf-8") if isinstance(label, str) else label
        digest = hashlib.shake_256(CHILD_LABEL + b"\x00" + self._seed + b"\x00" + tag).digest(32)
        return SeededRng(digest)


class SystemRng:
    """OS-backed randomness with the same interface."""

    def randbelow(self, bound: int) -> int:
        return secrets.randbelow(bound)  # ValueError unless bound > 0
