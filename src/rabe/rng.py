"""Randomness sources.

Two interchangeable sources: SeededRng is a deterministic stream derived from
a seed via SHAKE-256 with domain-separation labels, so seeded runs are
bit-for-bit reproducible; SystemRng draws from the OS CSPRNG for production
use.  Every consumer in the package takes either through the same one-method
interface, randbelow; independent child streams (child) come from SeededRng
only.
"""

from __future__ import annotations

import hashlib
import secrets

# Label strings are part of the external interface: changing them changes
# every seeded artifact.
STREAM_LABEL = b"rabe/stream/v1"
CHILD_LABEL = b"rabe/child/v1"
MODULUS_LABEL = b"rabe/transparent-modulus/v1"


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
    """Deterministic byte stream: SHAKE-256(label || 0x00 || seed), squeezed
    in 64-byte blocks with a running counter."""

    def __init__(self, seed: int | str | bytes, label: bytes = STREAM_LABEL):
        self._seed = _seed_bytes(seed)
        self._label = label
        self._counter = 0
        self._buffer = b""

    def _refill(self) -> None:
        xof = hashlib.shake_256()
        xof.update(self._label)
        xof.update(b"\x00")
        xof.update(self._seed)
        xof.update(self._counter.to_bytes(8, "big"))
        self._buffer += xof.digest(64)
        self._counter += 1

    def randbytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            self._refill()
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

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


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24; far beyond the 32-bit
    # moduli drawn below.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derive_transparent_modulus(seed: int | str | bytes) -> int:
    """Deterministic prime in [2^31, 2^32): small enough that exponents stay
    cheap to audit, large enough that random collisions never happen in tests."""
    draw = SeededRng(seed, label=MODULUS_LABEL).randbelow(1 << 31)
    candidate = (1 << 31) + draw
    if candidate % 2 == 0:
        candidate += 1
    while not _is_probable_prime(candidate):
        candidate += 2
    return candidate
