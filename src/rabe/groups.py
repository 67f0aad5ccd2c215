"""Pairing-group abstraction with two interchangeable backends.

The scheme is written against a symmetric pairing e(g^a, g~^b) =
e(g, g~)^(ab), realized over an asymmetric curve by keeping mirrored
generator pairs (same exponent in both source groups, see scheme.setup).
Elements carry a side tag: ciphertext-side elements live in source group
"one", key-side elements in "two", pairing outputs in "target"; mixing sides
is an error, which is exactly the discipline that makes the mirroring sound.
Each element and scalar is one slot, written once with the tuple (ctx,
side, payload) or (value, modulus) and read back through properties; neither
is a container.  A context builds its three generator elements once, and
generator(side) hands out that one element of the side.

Backends:

* "transparent": every element stores its discrete logarithm modulo one
  fixed 32-bit prime, TRANSPARENT_MODULUS.  The pairing multiplies
  exponents.  Nothing is hidden, which is the point: tests can audit every
  component of every artifact against its defining formula, field by field.
* "real": BLS12-381 at the usual ~128-bit level (see bls12381).  The
  three generator payloads are bls12381 constants, the target one e(g, g~)
  included, so making a context runs no pairing.  Each generator earns its
  fixed-base table, a signed comb, by use, like any other base (2^11
  entries on G1, 2^10 on G2, 2^7 for any other base and on GT), and keeps
  it while it is among its group's most recent tables.  Nor does
  scheme.setup pair for a deployment's blinding base e(g^alpha, g2): it
  raises the target generator to alpha * beta, and pp stores the element.

Canonical element encoding: the payload alone, an 8-byte big-endian
exponent on the transparent backend, a 96-byte (G1) or 192-byte (G2)
uncompressed point or a 576-byte Fq12 coefficient block on the real one.  No
header states the backend or the side: the envelope states the backend, and
the caller of decode_element the side.  On the real backend an element of
another side or backend is refused by its length; every transparent
element is 8 bytes, so a transparent element of one side decodes as any
other.  Scalars encode as 32-byte little-endian.
"""

from __future__ import annotations

from . import bls12381 as bls
from .errors import BackendMismatchError, EnvelopeError, ParameterError, SideMismatchError

TRANSPARENT = "transparent"
REAL = "real"
BACKENDS = (TRANSPARENT, REAL)

SIDE_ONE = "one"
SIDE_TWO = "two"
SIDE_TARGET = "target"

# the transparent group's order: a prime in [2^31, 2^32), so a draw below it
# takes 20 bytes of a seeded stream
TRANSPARENT_MODULUS = 3301243931


class Scalar:
    """Immutable element of Z_p for the group order p of one context."""

    __slots__ = ("_v",)  # (value, modulus), written once

    def __init__(self, value: int, modulus: int):
        if not 0 <= value < modulus:
            raise ParameterError(f"scalar {value} outside [0, {modulus})")
        _SET_SCALAR(self, (value, modulus))

    value = property(lambda self: self._v[0])
    modulus = property(lambda self: self._v[1])

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return f"Scalar(value={self.value!r}, modulus={self.modulus!r})"

    def __int__(self):
        return self._v[0]

    def encode(self) -> bytes:
        return self._v[0].to_bytes(32, "little")

    @classmethod
    def decode(cls, data: bytes, modulus: int) -> "Scalar":
        if len(data) != 32:
            raise EnvelopeError("scalar encoding must be 32 bytes")
        value = int.from_bytes(data, "little")
        if value >= modulus:
            raise EnvelopeError("non-canonical scalar encoding: value not below the group order")
        return cls(value, modulus)


class GroupElement:
    """Immutable element of one side of one context.

    `*` is the group operation, `**` exponentiation by an int or Scalar,
    `/` multiplies by the inverse.
    """

    __slots__ = ("_v",)  # (ctx, side, payload), written once

    def __init__(self, ctx: "BilinearContext", side: str, payload):
        _SET_ELEMENT(self, (ctx, side, payload))

    ctx = property(lambda self: self._v[0])
    side = property(lambda self: self._v[1])
    payload = property(lambda self: self._v[2])

    def __setattr__(self, *_):
        raise AttributeError("GroupElement is immutable")

    @property
    def backend(self) -> str:
        return self._v[0].backend

    @property
    def transparent_log(self) -> int:
        """Discrete logarithm to the side generator; transparent backend only."""
        if self.backend != TRANSPARENT:
            raise BackendMismatchError("logarithms are only readable on the transparent backend")
        return self._v[2]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        ctx, side, x = self._v
        if other.__class__ is not GroupElement:
            raise BackendMismatchError("elements from different group contexts")
        other_ctx, other_side, y = other._v
        if other_ctx is not ctx and other_ctx.group_id != ctx.group_id:
            raise BackendMismatchError("elements from different group contexts")
        if other_side != side:
            raise SideMismatchError(f"cannot combine side {side} with side {other_side}")
        _SET_ELEMENT(out := _new(GroupElement), (ctx, side, ctx._op(side, x, y)))
        return out

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __pow__(self, exponent) -> "GroupElement":
        ctx, side, x = self._v
        if exponent.__class__ is Scalar:
            k, modulus = exponent._v  # already below its modulus
            if modulus != ctx.prime_order:
                raise BackendMismatchError("scalar from a different group")
        elif isinstance(exponent, int):
            k = exponent % ctx.prime_order
        else:
            return NotImplemented
        _SET_ELEMENT(out := _new(GroupElement), (ctx, side, ctx._exp(side, x, k)))
        return out

    def inverse(self) -> "GroupElement":
        ctx, side, x = self._v
        return GroupElement(ctx, side, ctx._inv(side, x))

    def __eq__(self, other) -> bool:
        if other.__class__ is not GroupElement:
            return False
        ctx, side, x = self._v
        other_ctx, other_side, y = other._v
        return other_ctx.group_id == ctx.group_id and other_side == side and y == x

    def __hash__(self):
        ctx, side, x = self._v
        return hash((ctx.group_id, side, x))

    def __repr__(self):
        return f"<{self.backend} {self.side} element>"

    def encode(self) -> bytes:
        ctx, side, x = self._v
        return ctx._encode_payload(side, x)


# a value built in one step: allocated, then its slot written through the
# slot's own setter, since __setattr__ refuses every write
_new = object.__new__
_SET_SCALAR = Scalar._v.__set__
_SET_ELEMENT = GroupElement._v.__set__


class BilinearContext:
    """Shared interface of both backends."""

    backend: str

    def __init__(self, prime_order: int, group_id: str, generator_payloads):
        self.prime_order = prime_order
        self.group_id = group_id
        # one immutable element per side, handed out by generator()
        self._generators = {
            side: GroupElement(self, side, payload)
            for side, payload in zip((SIDE_ONE, SIDE_TWO, SIDE_TARGET), generator_payloads)
        }

    # -- element construction ------------------------------------------------

    def generator(self, side: str) -> GroupElement:
        try:
            return self._generators[side]
        except (KeyError, TypeError):
            raise ParameterError(f"unknown side {side!r}") from None

    def random_scalar(self, rng) -> Scalar:
        return Scalar(rng.randbelow(self.prime_order), self.prime_order)

    def random_element(self, side: str, rng) -> GroupElement:
        return self.generator(side) ** self.random_scalar(rng)

    # -- pairing -------------------------------------------------------------

    def pair_product(self, pairs) -> GroupElement:
        """prod e(a_i, b_i); on the real backend one shared final
        exponentiation over the combined Miller loops."""
        checked = []
        for a, b in pairs:
            for el, side in ((a, SIDE_ONE), (b, SIDE_TWO)):
                if el.__class__ is not GroupElement or el._v[0].group_id != self.group_id:
                    raise BackendMismatchError("pairing argument from a different context")
                if el._v[1] != side:
                    raise SideMismatchError(f"pairing argument on side {el.side}, expected {side}")
            checked.append((a._v[2], b._v[2]))
        return GroupElement(self, SIDE_TARGET, self._pair_product_payload(checked))

    # -- decoding ------------------------------------------------------------

    def decode_element(self, data: bytes, side: str) -> GroupElement:
        """The element of `side` that data encodes."""
        try:
            payload = self._decode_payload(side, data)
        except ValueError as exc:
            raise EnvelopeError(str(exc)) from None
        return GroupElement(self, side, payload)

    def decode_scalar(self, data: bytes) -> Scalar:
        return Scalar.decode(data, self.prime_order)


class TransparentContext(BilinearContext):
    """Exponent-bookkeeping backend: an element is its discrete log modulo
    the prime `modulus`.  new_context gives the group of order
    TRANSPARENT_MODULUS; a twin at bls12381.R draws the scalars a real
    context draws from the same stream."""

    backend = TRANSPARENT

    def __init__(self, modulus: int):
        super().__init__(modulus, f"{TRANSPARENT}/{modulus}", (1, 1, 1))

    def _op(self, side, x, y):
        return (x + y) % self.prime_order

    def _exp(self, side, x, k):
        return x * k % self.prime_order

    def _inv(self, side, x):
        return -x % self.prime_order

    def _pair_product_payload(self, pairs):
        return sum(a * b for a, b in pairs) % self.prime_order

    def _encode_payload(self, side, payload):
        return payload.to_bytes(8, "big")

    def _decode_payload(self, side, data):
        if len(data) != 8:
            raise ValueError("transparent element payload must be 8 bytes")
        value = int.from_bytes(data, "big")
        if value >= self.prime_order:
            raise ValueError("transparent element exponent out of range")
        return value


class RealContext(BilinearContext):
    """BLS12-381 backend; the context itself is stateless curve data."""

    backend = REAL

    def __init__(self):
        super().__init__(bls.R, f"{REAL}/bls12-381", (bls.G1_GEN, bls.G2_GEN, bls.GT_GEN))

    def _op(self, side, x, y):
        if side == SIDE_ONE:
            return bls.g1_add(x, y)
        if side == SIDE_TWO:
            return bls.g2_add(x, y)
        return bls.fq12_mul(x, y)

    def _exp(self, side, x, k):
        if side == SIDE_ONE:
            return bls.g1_mul(x, k)
        if side == SIDE_TWO:
            return bls.g2_mul(x, k)
        # target elements are pairing outputs, decodes checked by gt_is_valid,
        # and their products, powers and inverses: in GT, where the Frobenius
        # split holds and, in _inv, the inverse is the conjugate
        return bls.fq12_pow_cyclo(x, k)

    def _inv(self, side, x):
        if side == SIDE_ONE:
            return bls.g1_neg(x)
        if side == SIDE_TWO:
            return bls.g2_neg(x)
        return bls.fq12_conj(x)

    def _pair_product_payload(self, pairs):
        return bls.pairing_product(pairs)

    def _encode_payload(self, side, payload):
        if side == SIDE_ONE:
            return bls.g1_to_bytes(payload)
        if side == SIDE_TWO:
            return bls.g2_to_bytes(payload)
        return bls.fq12_to_bytes(payload)

    def _decode_payload(self, side, data):
        if side == SIDE_ONE:
            return bls.g1_from_bytes(data)
        if side == SIDE_TWO:
            return bls.g2_from_bytes(data)
        value = bls.fq12_from_bytes(data)
        if not bls.gt_is_valid(value):
            raise ValueError("target element outside the pairing image")
        return value


def new_context(backend: str = TRANSPARENT, seed=None) -> BilinearContext:
    """Create a group context: the transparent group of order
    TRANSPARENT_MODULUS, or BLS12-381.  Neither holds state, so any two of a
    backend are interchangeable (elements compare by group_id)."""
    # seed is ignored; perfbench/workloads.py still passes it
    if backend == TRANSPARENT:
        return TransparentContext(TRANSPARENT_MODULUS)
    if backend == REAL:
        return RealContext()
    raise ParameterError(f"unknown backend {backend!r}")
