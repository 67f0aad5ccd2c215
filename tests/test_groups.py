import math

import pytest

import rabe.bls12381 as bls
from rabe.errors import BackendMismatchError, EnvelopeError, ParameterError, SideMismatchError
from rabe.groups import (
    REAL,
    SIDE_ONE,
    SIDE_TARGET,
    SIDE_TWO,
    TRANSPARENT,
    TRANSPARENT_MODULUS,
    GroupElement,
    Scalar,
    TransparentContext,
    new_context,
)
from rabe.rng import SeededRng

SIDES = (SIDE_ONE, SIDE_TWO, SIDE_TARGET)
# the payload of each side's identity: exponent 0 on the transparent backend;
# infinity and one on the real one
IDENTITY = {TRANSPARENT: {side: 0 for side in SIDES},
            REAL: {SIDE_ONE: None, SIDE_TWO: None, SIDE_TARGET: bls.FQ12_ONE}}


def identity(ctx, side):
    return GroupElement(ctx, side, IDENTITY[ctx.backend][side])


@pytest.fixture(scope="module")
def tctx():
    return new_context(TRANSPARENT)


@pytest.fixture(scope="module")
def rctx():
    return new_context(REAL)


def test_transparent_bilinearity_100_trials(tctx):
    # oracle: the pairing of g^x and g~^y must have exponent x*y
    rng = SeededRng("bilinearity")
    g = tctx.generator(SIDE_ONE)
    h = tctx.generator(SIDE_TWO)
    for _ in range(100):
        x = tctx.random_scalar(rng)
        y = tctx.random_scalar(rng)
        out = tctx.pair_product([(g ** x, h ** y)])
        assert out.transparent_log == int(x) * int(y) % tctx.prime_order
        assert out == tctx.pair_product([(g ** y, h ** x)])


def test_real_bilinearity(rctx):
    rng = SeededRng("bilinearity-real")
    g = rctx.generator(SIDE_ONE)
    h = rctx.generator(SIDE_TWO)
    gt = rctx.generator(SIDE_TARGET)
    for _ in range(3):
        x = rctx.random_scalar(rng)
        y = rctx.random_scalar(rng)
        lhs = rctx.pair_product([(g ** x, h ** y)])
        assert lhs == rctx.pair_product([(g ** y, h ** x)])
        assert lhs == gt ** (int(x) * int(y))


def test_real_target_generator_runs_no_pairing(monkeypatch):
    def refuse(pairs):
        raise AssertionError("a pairing ran")
    monkeypatch.setattr(bls, "pairing_product", refuse)
    ctx = new_context(REAL)
    assert ctx.generator(SIDE_TARGET).payload == bls.GT_GEN


def test_pair_product_matches_termwise(tctx):
    rng = SeededRng("pair-product")
    g = tctx.generator(SIDE_ONE)
    h = tctx.generator(SIDE_TWO)
    pairs = [(g ** tctx.random_scalar(rng), h ** tctx.random_scalar(rng)) for _ in range(6)]
    prod = identity(tctx, SIDE_TARGET)
    for a, b in pairs:
        prod = prod * tctx.pair_product([(a, b)])
    assert tctx.pair_product(pairs) == prod


def test_real_pair_product_matches_termwise(rctx):
    rng = SeededRng("pair-product-real")
    g = rctx.generator(SIDE_ONE)
    h = rctx.generator(SIDE_TWO)
    pairs = [(g ** rctx.random_scalar(rng), h ** rctx.random_scalar(rng)) for _ in range(3)]
    prod = identity(rctx, SIDE_TARGET)
    for a, b in pairs:
        prod = prod * rctx.pair_product([(a, b)])
    assert rctx.pair_product(pairs) == prod


def test_group_laws(tctx):
    rng = SeededRng("laws")
    for side in SIDES:
        a = tctx.random_element(side, rng)
        b = tctx.random_element(side, rng)
        c = tctx.random_element(side, rng)
        one = identity(tctx, side)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * one == a
        assert a * a.inverse() == one
        assert a / b == a * b.inverse()
        assert a ** 0 == one
        assert a ** 1 == a
        assert a ** (tctx.prime_order - 1) == a.inverse()


def test_real_group_laws(rctx):
    rng = SeededRng("laws-real")
    for side in SIDES:
        a = rctx.random_element(side, rng)
        b = rctx.random_element(side, rng)
        one = identity(rctx, side)
        assert a * b == b * a
        assert a * one == a and one * a == a
        assert a * a.inverse() == one
        assert a / b == a * b.inverse()
        assert a ** 0 == one
        assert a ** (rctx.prime_order - 1) == a.inverse()


def test_real_target_inverse_is_the_field_inverse(rctx):
    # target payloads lie in GT, which is unitary, so the conjugate that
    # inverse() takes is the Fq12 inverse
    rng = SeededRng("target-inverse")
    for _ in range(2):
        a = rctx.random_element(SIDE_TARGET, rng)
        assert a.inverse().payload == bls.fq12_inv(a.payload)


def test_encode_roundtrip_transparent_1000_per_side(tctx):
    rng = SeededRng("roundtrip")
    for side in SIDES:
        for _ in range(1000):
            el = tctx.random_element(side, rng)
            data = el.encode()
            back = tctx.decode_element(data, side)
            assert back == el and back.side == side


def test_encode_roundtrip_real(rctx):
    rng = SeededRng("roundtrip-real")
    lengths = {SIDE_ONE: 96, SIDE_TWO: 192, SIDE_TARGET: 576}
    for side in SIDES:
        for _ in range(4):
            el = rctx.random_element(side, rng)
            data = el.encode()
            assert len(data) == lengths[side]
            assert rctx.decode_element(data, side) == el
        ident = identity(rctx, side)
        assert rctx.decode_element(ident.encode(), side) == ident


def test_side_mixing_is_rejected(tctx):
    rng = SeededRng("sides")
    one = tctx.random_element(SIDE_ONE, rng)
    two = tctx.random_element(SIDE_TWO, rng)
    with pytest.raises(SideMismatchError):
        one * two
    with pytest.raises(SideMismatchError):
        tctx.pair_product([(two, one)])
    with pytest.raises(SideMismatchError):
        tctx.pair_product([(one, one)])


def test_cross_context_mixing_is_rejected(tctx):
    other = TransparentContext(2**31 - 1)  # a Mersenne prime, another group
    assert other.prime_order != tctx.prime_order
    rng = SeededRng("cross")
    a = tctx.random_element(SIDE_ONE, rng)
    b = other.random_element(SIDE_ONE, rng)
    with pytest.raises(BackendMismatchError):
        a * b
    with pytest.raises(BackendMismatchError):
        tctx.pair_product([(b, tctx.random_element(SIDE_TWO, rng))])
    with pytest.raises(BackendMismatchError):
        a ** Scalar(3, other.prime_order)
    with pytest.raises(BackendMismatchError):
        b ** Scalar(3, tctx.prime_order)  # a scalar of the larger group
    with pytest.raises(BackendMismatchError):
        a * 3
    with pytest.raises(TypeError):
        a ** 2.5


def test_scalar_encoding(tctx):
    p = tctx.prime_order
    b = Scalar(2, p)
    assert int(Scalar.decode(b.encode(), p)) == 2
    assert len(Scalar(p - 1, p).encode()) == 32
    with pytest.raises(EnvelopeError):
        Scalar.decode(b"short", p)


def test_scalar_range_and_value_semantics(tctx):
    p = tctx.prime_order
    assert int(Scalar(0, p)) == 0 and int(Scalar(p - 1, p)) == p - 1
    for value in (-1, p):
        with pytest.raises(ParameterError, match="outside"):
            Scalar(value, p)
    s = Scalar(2, p)
    assert s == Scalar(2, p) and hash(s) == hash(Scalar(2, p))
    assert s != Scalar(3, p) and s != Scalar(2, 2**31 - 1) and s != 2
    assert repr(s) == f"Scalar(value=2, modulus={p})"


def test_random_scalar_refuses_a_draw_out_of_range(tctx, rctx):
    # any object with randbelow is an rng; one that answers outside
    # [0, bound) is refused, not turned into a scalar
    class Answers:
        def __init__(self, value):
            self.value = value

        def randbelow(self, bound):
            return self.value

    for ctx in (tctx, rctx):
        p = ctx.prime_order
        assert ctx.random_scalar(Answers(p - 1)) == Scalar(p - 1, p)
        for value in (-1, p, p + 5):
            with pytest.raises(ParameterError, match="outside"):
                ctx.random_scalar(Answers(value))


def test_elements_and_scalars_are_immutable(tctx):
    el = tctx.generator(SIDE_ONE) ** 5
    s = Scalar(2, tctx.prime_order)
    for obj, name in ((el, "ctx"), (el, "side"), (el, "payload"), (s, "value"), (s, "modulus")):
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
        assert getattr(obj, name) is before
    assert el.transparent_log == 5 and int(s) == 2


def test_elements_and_scalars_are_values_not_containers(tctx, rctx):
    # no length, iteration, indexing or addition, on either backend; a
    # scalar multiple is written as a power
    for ctx in (tctx, rctx):
        scalars = (Scalar(2, ctx.prime_order), ctx.random_scalar(SeededRng("values")))
        for obj in (ctx.generator(SIDE_ONE) ** 5, ctx.generator(SIDE_TARGET), *scalars):
            for attempt in (len, iter, lambda o: o[0], lambda o: o + o, lambda o: 3 * o):
                with pytest.raises(TypeError):
                    attempt(obj)


def test_generator_is_one_element_per_side(tctx, rctx):
    for ctx in (tctx, rctx):
        for side in SIDES:
            g = ctx.generator(side)
            assert g.side == side and g == ctx.generator(side)
            assert hash(g) == hash(ctx.generator(side))
        for side in ("four", None, ["one"]):
            with pytest.raises(ParameterError, match="unknown side"):
                ctx.generator(side)


def test_scalar_decode_rejects_non_canonical(tctx):
    p = tctx.prime_order
    assert int(Scalar.decode((p - 1).to_bytes(32, "little"), p)) == p - 1
    for value in (p, p + 2, 2**256 - 1):
        with pytest.raises(EnvelopeError, match="non-canonical"):
            tctx.decode_scalar(value.to_bytes(32, "little"))
    for data in ((2).to_bytes(31, "little"), (2).to_bytes(33, "little")):  # 2 in 31 or 33 bytes
        with pytest.raises(EnvelopeError, match="must be 32 bytes"):
            tctx.decode_scalar(data)


def test_decode_rejects_malformed(tctx, rctx):
    el = tctx.generator(SIDE_ONE) ** 5
    data = el.encode()
    with pytest.raises(EnvelopeError):
        tctx.decode_element(b"", SIDE_ONE)
    with pytest.raises(EnvelopeError):
        tctx.decode_element(data[:-1], SIDE_ONE)
    with pytest.raises(EnvelopeError):
        tctx.decode_element(b"\x00" + data, SIDE_ONE)  # the same value in 9 bytes
    with pytest.raises(EnvelopeError):
        rctx.decode_element(data, SIDE_ONE)  # transparent bytes into the real context
    too_big = (tctx.prime_order).to_bytes(8, "big")
    with pytest.raises(EnvelopeError):
        tctx.decode_element(too_big, SIDE_ONE)


def test_real_decode_rejects_target_bytes_outside_gt(rctx):
    good = rctx.generator(SIDE_TARGET).encode()
    assert rctx.decode_element(good, SIDE_TARGET) == rctx.generator(SIDE_TARGET)
    bad = good[:-1] + bytes([good[-1] ^ 0x01])  # an Fq12 element, but not a pairing output
    with pytest.raises(EnvelopeError, match="outside the pairing image"):
        rctx.decode_element(bad, SIDE_TARGET)


def test_real_decode_rejects_off_curve_bytes(rctx):
    good = rctx.generator(SIDE_ONE).encode()
    bad = good[:2] + bytes([good[2] ^ 0x01]) + good[3:]
    with pytest.raises(EnvelopeError):
        rctx.decode_element(bad, SIDE_ONE)


def test_transparent_log_is_transparent_only(tctx, rctx):
    assert (tctx.generator(SIDE_TWO) ** 7).transparent_log == 7
    with pytest.raises(BackendMismatchError):
        _ = rctx.generator(SIDE_TWO).transparent_log


def test_transparent_modulus_is_a_32_bit_prime():
    p = TRANSPARENT_MODULUS
    assert p.bit_length() == 32
    assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))  # trial division
    assert new_context(TRANSPARENT).prime_order == p


def test_context_determinism():
    a = new_context(TRANSPARENT)
    b = new_context(TRANSPARENT)
    assert a.prime_order == b.prime_order and a.group_id == b.group_id
    # cross-instance elements interoperate because group_id matches
    assert a.generator(SIDE_ONE) * b.generator(SIDE_ONE) == a.generator(SIDE_ONE) ** 2
    with pytest.raises(ParameterError):
        new_context("imaginary")
