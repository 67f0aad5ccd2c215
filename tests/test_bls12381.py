"""Curve-level checks against externally known BLS12-381 values."""

import hashlib
import math
import os
import subprocess
import sys

import pytest

import rabe.bls12381 as bls
from rabe.groups import REAL, SIDE_ONE, SIDE_TARGET, SIDE_TWO, GroupElement, new_context
from rabe.rng import SeededRng

# standard uncompressed serializations of the fixed generators: x || y on
# G1, x1 || x0 || y1 || y0 on G2
G1_GEN_HEX = (
    "17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
    "6c55e83ff97a1aeffb3af00adb22c6bb"
    "08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3ed"
    "d03cc744a2888ae40caa232946c5e7e1"
)
G2_GEN_HEX = (
    "13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049"
    "334cf11213945d57e5ac7d055d042b7e"
    "024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d177"
    "0bac0326a805bbefd48056c8c121bdb8"
    "0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab"
    "3f370d275cec1da1aaa9075ff05f79be"
    "0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c"
    "923ac9cc3baca289e193548608b82801"
)


def _pow(mul, sqr, result, x, e):
    """result * x^e for e >= 0 by plain square-and-multiply: the reference
    that the library's windowed, split powers are checked against."""
    while e:
        if e & 1:
            result = mul(result, x)
        x = sqr(x)
        e >>= 1
    return result


def fq2_pow(x, e):
    return _pow(bls.fq2_mul, bls.fq2_sqr, bls.FQ2_ONE, x, e)


def fq12_pow(x, e):
    return _pow(bls.fq12_mul, bls.fq12_sqr, bls.FQ12_ONE, x, e)


def _fq_sqrt(v):
    """A square root of v in Fq, or None.  Decoding takes no root, so only
    the tests, which make points outside G1 and G2, need one."""
    y = pow(v, (bls.P + 1) // 4, bls.P)  # p = 3 (mod 4)
    return y if y * y % bls.P == v % bls.P else None


def _fq2_sqrt(a):
    """A square root of a in Fq2, or None: Adj and Rodriguez-Henriquez
    (ePrint 2012/685), algorithm 9, for p = 3 (mod 4)."""
    a1 = fq2_pow(a, (bls.P - 3) // 4)
    alpha = bls.fq2_mul(bls.fq2_sqr(a1), a)
    x0 = bls.fq2_mul(a1, a)
    if alpha == (bls.P - 1, 0):
        x = bls.fq2_mul((0, 1), x0)
    else:
        x = bls.fq2_mul(fq2_pow(bls.fq2_add(bls.FQ2_ONE, alpha), (bls.P - 1) // 2), x0)
    return x if bls.fq2_sqr(x) == a else None


def test_field_and_order_constants():
    assert bls.P % 4 == 3
    assert bls.R.bit_length() == 255
    # embedding degree 12: r divides p^12 - 1 but not p - 1
    assert (bls.P**12 - 1) % bls.R == 0
    assert (bls.P - 1) % bls.R != 0


def test_generator_serialization_vectors():
    assert bls.g1_to_bytes(bls.G1_GEN).hex() == G1_GEN_HEX
    assert bls.g2_to_bytes(bls.G2_GEN).hex() == G2_GEN_HEX
    assert bls.g1_from_bytes(bytes.fromhex(G1_GEN_HEX)) == bls.G1_GEN
    assert bls.g2_from_bytes(bytes.fromhex(G2_GEN_HEX)) == bls.G2_GEN


def test_generators_have_order_r():
    assert bls.g1_on_curve(bls.G1_GEN) and bls.g1_in_subgroup(bls.G1_GEN)
    assert bls.g2_on_curve(bls.G2_GEN) and bls.g2_in_subgroup(bls.G2_GEN)
    assert bls.g1_mul(bls.G1_GEN, bls.R) is None
    assert bls.g2_mul(bls.G2_GEN, bls.R) is None
    assert bls.g1_mul(bls.G1_GEN, bls.R - 1) == bls.g1_neg(bls.G1_GEN)


def test_target_generator_is_the_pairing_of_the_generators():
    assert bls.GT_GEN == bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    assert bls.gt_is_valid(bls.GT_GEN) and bls.GT_GEN != bls.FQ12_ONE


def test_point_arithmetic_matches_scalar_identities():
    p2 = bls.g1_add(bls.G1_GEN, bls.G1_GEN)
    p3 = bls.g1_add(p2, bls.G1_GEN)
    assert p2 == bls.g1_mul(bls.G1_GEN, 2)
    assert p3 == bls.g1_mul(bls.G1_GEN, 3)
    assert bls.g1_add(p3, bls.g1_neg(p3)) is None
    assert bls.g1_add(None, p2) == p2
    q2 = bls.g2_add(bls.G2_GEN, bls.G2_GEN)
    assert q2 == bls.g2_mul(bls.G2_GEN, 2)
    assert bls.g2_add(q2, bls.g2_neg(q2)) is None


GROUPS = {
    "G1": (bls.G1_GEN, bls.g1_mul, bls.g1_add, bls.g1_neg),
    "G2": (bls.G2_GEN, bls.g2_mul, bls.g2_add, bls.g2_neg),
}


def _built(group):
    """The group's generator comb, earned by _HOT_USES split-path generator
    powers if it is not held yet."""
    gen, mul, _, _ = GROUPS[group]
    g = bls._G1 if group == "G1" else bls._G2
    for _ in range(bls._HOT_USES):
        mul(gen, bls.R - 1)
    return g.hot[gen]


def _is_comb(value, teeth):
    return isinstance(value, list) and len(value) == 1 << (teeth - 1)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_generator_table_agrees_with_wnaf(group):
    gen, mul, _, _ = GROUPS[group]
    rng = SeededRng(f"fixed-base-{group}")
    _built(group)
    for _ in range(4):
        a, b = rng.randbelow(bls.R), rng.randbelow(bls.R)
        # the inner call reads the generator table, the outer one runs wNAF on [a]G
        assert mul(gen, a * b % bls.R) == mul(mul(gen, a), b)


def _on_wnaf(mul, pt, k):
    """mul(pt, k) with no table for any base, the generators' included:
    the wNAF path, which counts no use."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bls, "_table", lambda *args: None)
        return mul(pt, k)


def _spacing(g, teeth):
    return -(-g.radix.bit_length() // teeth)


def _digits(g, k):
    """The base-radix digits of k mod R, least significant first."""
    k, digits = k % bls.R, []
    while k:
        k, d = divmod(k, g.radix)
        digits.append(d)
    return digits


def _comb_edges(g, teeth):
    """Split-path scalars below R whose every radix digit is a comb edge:
    0 and 1 (made odd, a lone top tooth and every lower tooth -1), 2, the
    top tooth's lowest bit alone and beside bit 0, the top bit, radix - 1
    and radix - 2, and alternating bits; each digit also sits beside one of
    the other parity.  A top digit is kept in [2, radix - 2]: R's top digit
    is radix - 1, and a G1 scalar with top digit 1 may be short enough for
    the NAF chain."""
    top, spacing = g.radix.bit_length(), _spacing(g, teeth)
    lone = 1 << (teeth - 1) * spacing
    edges = (0, 1, 2, lone, lone + 1, 1 << top - 1, g.radix - 2, g.radix - 1,
             int("10" * (top // 2), 2), int("01" * (top // 2), 2))
    n = len(_digits(g, bls.R - 1))
    scalars = []
    for d in edges:
        for other in (d, d ^ 1):
            digits = [d if i % 2 else other for i in range(n)]
            digits[-1] = max(min(digits[-1], g.radix - 2), 2)
            scalars.append(sum(x * g.radix**i for i, x in enumerate(digits)))
    assert all(top < k.bit_length() and k < bls.R and len(_digits(g, k)) == n for k in scalars)
    return scalars


def _assert_comb(g, add, base, table, teeth):
    """Every entry by relations independent of the comb: the teeth B_t =
    [2^(t e)]base by the short path, entry 0 is B_(h-1) less every lower
    tooth, and entry m with bit t set is the entry without it plus 2 B_t,
    each by add."""
    spacing = _spacing(g, teeth)
    mul = {bls._G1: bls.g1_mul, bls._G2: bls.g2_mul, bls._GT: bls.fq12_pow_cyclo}[g]
    assert _is_comb(table, teeth)
    assert (teeth - 1) * spacing < g.radix.bit_length() <= teeth * spacing
    tooth = [mul(base, 1 << t * spacing) for t in range(teeth)]
    entries = [g.unpack(v) for v in table]
    first = tooth[-1]
    for b in tooth[:-1]:
        first = add(first, g.neg(b))
    assert entries[0] == first
    for t in range(teeth - 1):
        twice = add(tooth[t], tooth[t])
        for m in range(1 << t):
            assert entries[m | 1 << t] == add(entries[m], twice), (t, m)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_generator_table_edge_scalars(group, monkeypatch):
    _, mul, add, neg = GROUPS[group]
    g = bls._G1 if group == "G1" else bls._G2
    # a decoded generator, equal to the module's but not the same object
    decode, hex_ = (bls.g1_from_bytes, G1_GEN_HEX) if group == "G1" else (bls.g2_from_bytes, G2_GEN_HEX)
    gen = decode(bytes.fromhex(hex_))
    assert gen == g.gen and gen is not g.gen
    monkeypatch.setattr(g, "hot", {})  # as at import
    last = (1 << 256) - 1
    scalars = (0, 1, 7, 8, 9, 16, 127, 128, 129, 255, 256, *_comb_edges(g, g.gen_teeth),
               bls.R - 1, bls.R, bls.R + 1, last, last + 1)
    uses = 0
    # the first pass runs the wNAF until the table is built, the second
    # reads the table for every split-path scalar
    for k in scalars + scalars:
        uses += k.bit_length() > g.radix.bit_length()
        kg = mul(gen, k)
        assert kg == _on_wnaf(mul, gen, k) and mul(gen, -k) == neg(kg) == _on_wnaf(mul, neg(gen), k), k
        # the _HOT_USES-th scalar longer than the radix builds the
        # generator's comb, keyed by the module's equal generator
        assert _is_comb(g.hot.get(gen), g.gen_teeth) == (uses >= bls._HOT_USES), k
    assert mul(gen, 0) is None and mul(gen, bls.R) is None
    assert mul(gen, 1) == mul(gen, bls.R + 1) == gen and mul(gen, bls.R - 1) == neg(gen)
    assert mul(gen, 9) == add(mul(gen, 8), gen) and mul(gen, 16) == add(mul(gen, 8), mul(gen, 8))
    assert mul(gen, last + 1) == mul(gen, (last + 1) % bls.R)
    # 2^11 entries on G1, 2^10 on G2: no more points than the width-8
    # windowed tables they replace held (2049 and 1025)
    assert g.gen_teeth == {"G1": 12, "G2": 11}[group]
    _assert_comb(g, add, gen, g.hot[gen], g.gen_teeth)


def test_generator_tables_are_unbuilt_after_import():
    code = ("import rabe, rabe.cli, rabe.bls12381 as bls; "
            "print([g.hot for g in (bls._G1, bls._G2)])")
    src = os.path.dirname(os.path.dirname(bls.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[{}, {}]"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_generator_table_waits_for_its_hot_use(group, monkeypatch):
    """A process that makes a few generator powers builds no comb: the
    first _HOT_USES - 1 split-path powers run the interleaved wNAF, and the
    _HOT_USES-th builds the comb, in the group's one LRU."""
    gen, mul, _, _ = GROUPS[group]
    g = bls._G1 if group == "G1" else bls._G2
    monkeypatch.setattr(g, "hot", {})
    built, calls = [], {"dbl": 0}
    comb, dbl = bls._comb, g.dbl
    monkeypatch.setattr(bls, "_comb", lambda *args: built.append(args[2]) or comb(*args))

    def counted(*args):
        calls["dbl"] += 1
        return dbl(*args)
    monkeypatch.setattr(g, "dbl", counted)
    rng = SeededRng(f"gen-hot-{group}")
    spacing = _spacing(g, g.gen_teeth)
    for use in range(1, bls._HOT_USES + 2):
        k = rng.randbelow(bls.R)
        calls.update(dbl=0)
        kg = mul(gen, k)
        doubled = calls["dbl"]
        assert kg == _on_wnaf(mul, gen, k), use
        assert built == ([g.gen_teeth] if use >= bls._HOT_USES else []), use
        assert list(g.hot) == [gen], use
        # the wNAF doubles once per bit of its longest digit, a comb power
        # once per column after the first; the build doubles far more
        if use < bls._HOT_USES:
            assert doubled > g.radix.bit_length() - 8, use
        elif use > bls._HOT_USES:
            assert doubled == spacing - 1, use


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_generator_tables_are_kept_by_use(group, monkeypatch):
    """The generator's comb is one of the group's _HOT_TABLES: kept while
    the generator is in use, evicted once it idles, earned again."""
    gen, mul, _, _ = GROUPS[group]
    g = bls._G1 if group == "G1" else bls._G2
    monkeypatch.setattr(g, "hot", {})
    table = _built(group)
    assert _is_comb(table, g.gen_teeth)

    def tables():
        return [b for b, v in g.hot.items() if isinstance(v, list)]

    # a power by R + 1 is a split-path use at the cost of a one-digit wNAF;
    # [a]G for a small a runs the plain path, which counts no use
    def earn(a):
        pt = mul(gen, a)
        for _ in range(bls._HOT_USES):
            assert mul(pt, bls.R + 1) == pt
        assert _is_comb(g.hot[pt], bls._COMB_TEETH)
    # enough fresh tables to push every other one out twice, the generator
    # used between them
    for a in range(2, 2 * bls._HOT_TABLES + 2):
        earn(a)
        assert mul(gen, bls.R - 2) == _on_wnaf(mul, gen, bls.R - 2)
        assert g.hot[gen] is table, a
    assert len(tables()) == bls._HOT_TABLES
    # idle, it goes at the _HOT_TABLES-th fresh table, count and all
    for i in range(bls._HOT_TABLES):
        earn(2 * bls._HOT_TABLES + 2 + i)
        assert (gen in g.hot) == (i < bls._HOT_TABLES - 1), i
    assert len(tables()) == bls._HOT_TABLES
    # its next _HOT_USES-th split-path use builds an equal table
    for use in range(1, bls._HOT_USES + 1):
        assert mul(gen, bls.R - 2) == _on_wnaf(mul, gen, bls.R - 2)
        assert _is_comb(g.hot[gen], g.gen_teeth) == (use == bls._HOT_USES), use
    assert g.hot[gen] == table and g.hot[gen] is not table
    assert len(tables()) == bls._HOT_TABLES


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_generator_power_cost(group, monkeypatch):
    """A generator power is e - 1 doublings (10 on G1, 5 on G2) and one
    mixed addition per column and radix digit plus one per even digit, at
    most 2 * 11 + 2 on G1 and 4 * 6 + 4 on G2."""
    gen, mul, _, _ = GROUPS[group]
    g = bls._G1 if group == "G1" else bls._G2
    _built(group)
    calls = {"madd": 0, "dbl": 0}

    def counted(name):
        fn = getattr(g, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(g, name, wrapper)

    counted("madd")
    counted("dbl")
    spacing, most = {"G1": (11, 24), "G2": (6, 28)}[group]
    assert spacing == _spacing(g, g.gen_teeth)
    rng = SeededRng(f"gen-cost-{group}")
    cost = set()
    for k in _comb_edges(g, g.gen_teeth) + [bls.R - 1, bls.R + 1] + [rng.randbelow(bls.R) for _ in range(8)]:
        calls.update(madd=0, dbl=0)
        mul(gen, k)
        digits = _digits(g, k)
        madds = len(digits) * spacing + sum(d % 2 == 0 for d in digits)
        assert calls == {"madd": madds, "dbl": spacing - 1}, k
        cost.add(madds)
    assert max(cost) == most and min(cost) == spacing  # R + 1 is one odd digit


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_add_on_doubling_inverse_and_identity(group):
    gen, mul, add, neg = GROUPS[group]
    p = mul(gen, 12345)
    assert add(p, p) == mul(p, 2)
    assert add(p, neg(p)) is None
    assert add(p, None) == p and add(None, p) == p and add(None, None) is None
    assert add(p, gen) == mul(gen, 12346)


def _word_list(data):
    return [int.from_bytes(data[i : i + 48], "big") for i in range(0, len(data), 48)]


def test_uncompressed_roundtrip_of_random_points():
    rng = SeededRng("bls-roundtrip")
    for _ in range(6):
        k = rng.randbelow(bls.R - 1) + 1
        pt = bls.g1_mul(bls.G1_GEN, k)
        data = bls.g1_to_bytes(pt)
        assert len(data) == 96 and _word_list(data) == list(pt)
        assert bls.g1_from_bytes(data) == pt
        (x0, x1), (y0, y1) = qt = bls.g2_mul(bls.G2_GEN, k)
        qdata = bls.g2_to_bytes(qt)
        assert len(qdata) == 192 and _word_list(qdata) == [x1, x0, y1, y0]
        assert bls.g2_from_bytes(qdata) == qt


def test_g2_from_bytes_roundtrips_both_signs_of_y():
    rng = SeededRng("g2-signs")
    for _ in range(3):
        q = bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1)
        data, neg = bls.g2_to_bytes(q), bls.g2_to_bytes(bls.g2_neg(q))
        # -q shares x and no flag bit: only the y words tell the two apart
        assert data[:96] == neg[:96] and data[96:] != neg[96:]
        assert bls.g2_from_bytes(data) == q and bls.g2_from_bytes(neg) == bls.g2_neg(q)


def test_infinity_encoding():
    for encode, decode, size in ((bls.g1_to_bytes, bls.g1_from_bytes, 96),
                                 (bls.g2_to_bytes, bls.g2_from_bytes, 192)):
        inf = encode(None)
        assert len(inf) == size and inf[0] == 0x40 and set(inf[1:]) == {0}
        assert decode(inf) is None


CODECS = {
    "G1": (bls.g1_to_bytes, bls.g1_from_bytes, G1_GEN_HEX),
    "G2": (bls.g2_to_bytes, bls.g2_from_bytes, G2_GEN_HEX),
}


def _raised_by_p(group, word):
    """A subgroup point's encoding with one coordinate word raised by P:
    the same point mod P, with the flag bits still clear."""
    gen, mul, _, neg = GROUPS[group]
    encode = CODECS[group][0]
    at = slice(48 * word, 48 * word + 48)
    for k in range(2, 100):
        pt = mul(gen, k)
        for data in (encode(pt), encode(neg(pt))):
            w = int.from_bytes(data[at], "big") + bls.P
            if w < 1 << 381:
                return data[: at.start] + w.to_bytes(48, "big") + data[at.stop :]
    raise AssertionError(f"no multiple of the {group} generator has a word below 2^381 - P")


def _refuses_every_malformed_encoding(group, off_subgroup):
    """Each way an uncompressed encoding of group is refused, with its
    message, starting from the generator's: the flags, the one infinity,
    every word below P, the curve equation, the subgroup."""
    encode, decode, hex_ = CODECS[group]
    good = bytes.fromhex(hex_)
    size = len(good)
    y_plus_one = good[:-48] + (int.from_bytes(good[-48:], "big") + 1).to_bytes(48, "big")
    bad = {
        "compressed flag": (bytes([good[0] | 0x80]) + good[1:], f"compressed {group}"),
        "compressed infinity": (bytes([0xC0]) + bytes(size - 1), f"compressed {group}"),
        "sign bit": (bytes([good[0] | 0x20]) + good[1:], "sign bit"),
        "infinity with the sign bit": (bytes([0x60]) + bytes(size - 1), "sign bit"),
        "infinity with an x bit": (bytes([0x41]) + bytes(size - 1), f"malformed {group} infinity"),
        "infinity with a last bit": (bytes([0x40]) + bytes(size - 2) + b"\x01", f"malformed {group} infinity"),
        "infinity flag on a point": (bytes([good[0] | 0x40]) + good[1:], f"malformed {group} infinity"),
        "off the curve, (x, y + 1)": (y_plus_one, "not on the curve"),
        "on the curve, outside the subgroup": (encode(off_subgroup), "prime-order subgroup"),
    }
    for word in range(size // 48):  # x then y; c1 before c0 on G2
        at = slice(48 * word, 48 * word + 48)
        bad[f"word {word} = P"] = (good[: at.start] + bls.P.to_bytes(48, "big") + good[at.stop :], "out of range")
        bad[f"word {word} + P"] = (_raised_by_p(group, word), "out of range")
    assert decode(good) == GROUPS[group][0]
    for case, (data, message) in bad.items():
        assert len(data) == size, case
        with pytest.raises(ValueError, match=message):
            decode(data)


def test_from_bytes_rejects_malformed(g1_small_order):
    _refuses_every_malformed_encoding("G1", g1_small_order[11])


def test_g2_from_bytes_rejects_malformed(g2_off_subgroup):
    _refuses_every_malformed_encoding("G2", g2_off_subgroup[0])


def test_decoders_refuse_every_other_length():
    """One encoding per element.  [766]G1 is the first multiple with
    x < 2^373 and [14]G2 the first with x0 < 2^376, so a 95-byte G1 or a
    191-byte G2 string that leaves out a zero top byte of an x word holds
    no flag bit and the point's words, shifted; a longer string, one more
    word."""
    p, q = bls.g1_mul(bls.G1_GEN, 766), bls.g2_mul(bls.G2_GEN, 14)
    assert p[0] < 1 << 373 and q[0][0] < 1 << 376
    g1, g2 = bls.g1_to_bytes(p), bls.g2_to_bytes(q)
    cases = (
        (bls.g1_from_bytes, "G1 encoding must be 96 bytes", g1, g1[1:]),
        (bls.g2_from_bytes, "G2 encoding must be 192 bytes", g2, g2[:48] + g2[49:]),
        (bls.fq12_from_bytes, "Fq12 encoding must be 576 bytes", bls.fq12_to_bytes(bls.FQ12_ONE), None),
    )
    for decode, message, good, short in cases:
        for data in filter(None, (short, good[:-1], good + bytes(1), good + bytes(48))):
            with pytest.raises(ValueError, match=message):
                decode(data)


def test_words_up_to_p_minus_one_are_in_range():
    m = bls.P - 1  # the largest word; P itself is refused (test_fq12_bytes_roundtrip_and_validity)
    top = m.to_bytes(48, "big")
    assert bls.fq12_from_bytes(top * 12) == (((m, m),) * 3,) * 2
    # so a point of words P - 1 reaches the curve and subgroup test
    for decode, words in ((bls.g1_from_bytes, 2), (bls.g2_from_bytes, 4)):
        with pytest.raises(ValueError, match="not on the curve or not in the prime-order subgroup"):
            decode(top * words)


def test_g2_from_bytes_rejects_an_x_with_no_point():
    # x = (x0, 0) for the first x0 whose x^3 + 4(u + 1) is a non-square in Fq2:
    # no y makes a point of it
    x0 = next(a for a in range(1, 40) if _fq2_sqrt(bls.fq2_add((a**3 % bls.P, 0), bls.B2)) is None)
    for y in ((0, 0), (1, 0), (0, 1), (bls.P - 1, bls.P - 1)):
        data = bytes(48) + x0.to_bytes(48, "big") + bls._word_bytes((y[1], y[0]))
        with pytest.raises(ValueError, match="G2 point not on the curve"):
            bls.g2_from_bytes(data)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_affine_batch_with_infinity_matches_one_by_one(group):
    gen, mul, _, _ = GROUPS[group]
    g = bls._G1 if group == "G1" else bls._G2
    p, q = mul(gen, 5), mul(gen, 11)
    # Jacobian points with Z != 1, and infinity between them
    two_q = g.dbl((*q, g.one))
    batch = [g.dbl((*p, g.one)), g.inf, g.madd(two_q, p), g.inf, g.dbl(two_q)]
    assert g.to_affine(batch) == [g.to_affine([pt])[0] for pt in batch]
    assert g.to_affine(batch) == [mul(gen, 10), None, mul(gen, 27), None, mul(gen, 44)]
    assert g.to_affine([g.inf]) == [None] and g.to_affine([]) == []


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_mul_of_negative_zero_and_infinity(group):
    gen, mul, _, neg = GROUPS[group]
    p = mul(gen, 5)
    assert mul(p, -3) == neg(mul(p, 3)) == mul(neg(p), 3)
    assert mul(p, -bls.R) is None
    assert mul(p, 0) is None
    assert mul(None, 7) is None and mul(None, -7) is None and mul(None, 0) is None


def test_from_bytes_rejects_non_square_x():
    # scan small x values, each with y = (x^3 + 4)^((p+1)/4), a root of
    # x^3 + 4 or of its negation; every undecodable one must raise cleanly.
    # An x off the curve (x^3 + 4 a non-square) is refused by
    # g1_in_subgroup's on-curve test, the decoder's one curve check.
    rejected = off_curve = 0
    for x in range(40):
        rhs = (x ** 3 + 4) % bls.P
        off_curve += _fq_sqrt(rhs) is None
        try:
            pt = bls.g1_from_bytes(bls._word_bytes((x, pow(rhs, (bls.P + 1) // 4, bls.P))))
        except ValueError as exc:
            assert "G1 point not on the curve or not in the prime-order subgroup" in str(exc)
            rejected += 1
        else:
            assert bls.g1_on_curve(pt) and bls.g1_in_subgroup(pt)
    assert rejected >= off_curve > 0


def _fq_cube_root_square(t):
    """A square cube root of t in Fq, for t a sixth power; p - 1 = 9m, 3 not dividing m."""
    m = (bls.P - 1) // 9
    base = pow(t, pow(3, -1, m), bls.P)  # a cube root of t up to a ninth root of unity
    ninth = next(pow(a, m, bls.P) for a in range(2, 100) if pow(a, (bls.P - 1) // 3, bls.P) != 1)
    roots = (base * pow(ninth, j, bls.P) % bls.P for j in range(9))
    return next(s for s in roots if pow(s, 3, bls.P) == t and _fq_sqrt(s) is not None)


def test_g1_decoding_refuses_an_order_r_point_of_an_isomorphic_curve():
    """The invalid-curve point that only the curve equation refuses.  For
    (x0, y0) in G1 and c in Fq, (c^2 x0, c^3 y0) has order r on
    y^2 = x^3 + 4c^6, where -phi acts as [z^2] too.  When 4c^6 = -2(c^2 x0)^3 - 4,
    its y^2 is -((c^2 x0)^3 + 4), a square where (c^2 x0)^3 + 4 is not.
    Either y passes the endomorphism half of g1_in_subgroup, and its
    on-curve half must refuse it."""
    for k in range(1, 100):
        x0, _ = bls.g1_mul(bls.G1_GEN, k)
        t = -2 * pow(2 + x0 ** 3, -1, bls.P) % bls.P  # c^6
        if pow(t, (bls.P - 1) // 6, bls.P) == 1:
            break
    x = _fq_cube_root_square(t) * x0 % bls.P  # c^2 x0
    y = _fq_sqrt(-(x ** 3 + 4) % bls.P)
    for pt in ((x, y), (x, bls.P - y)):
        assert not bls.g1_on_curve(pt) and bls._G1.endo(pt) == bls.g1_mul(pt, bls._G1.radix)
        with pytest.raises(ValueError, match="not on the curve"):
            bls.g1_from_bytes(bls.g1_to_bytes(pt))


X = bls.BLS_X  # |z|; the curve parameter z is negative
H1 = (X + 1) ** 2 // 3  # the G1 cofactor (z - 1)^2 / 3
H1_PRIMES = (3, 11, 10177, 859267, 52437899)


def _double_and_add(add, pt, k):
    """[k]pt for k >= 0 by affine double-and-add: the reference for g1_mul and g2_mul."""
    acc = None
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, pt)
    return acc


@pytest.fixture(scope="module")
def g1_small_order():
    """A point of each prime order l dividing H1.

    For l > 3, l^2 divides H1 and E(Fq) holds Z/l x Z/l (l divides p - 1),
    so [H1 R / l] would be infinity: the multiplier strips every factor l.
    """
    rng = SeededRng("g1-cofactor")
    points = {}
    for _ in range(8):
        x = rng.randbelow(bls.P)
        rhs = (x**3 + bls.B1) % bls.P
        y = pow(rhs, (bls.P + 1) // 4, bls.P)
        if y * y % bls.P != rhs:
            continue
        for l in H1_PRIMES:
            m = H1 * bls.R
            while m % l == 0:
                m //= l
            q = _double_and_add(bls.g1_add, (x, y), m)
            if l not in points and q is not None:
                points[l] = q
    assert sorted(points) == list(H1_PRIMES)
    return points


@pytest.fixture(scope="module")
def g2_off_subgroup():
    """Seeded points of the twist outside G2, found by scanning x for a square x^3 + b'."""
    rng = SeededRng("g2-off-subgroup")
    points = []
    x = (rng.randbelow(bls.P), rng.randbelow(bls.P))
    while len(points) < 3:
        x = (x[0] + 1, x[1])
        y = _fq2_sqrt(bls.fq2_add(bls.fq2_mul(bls.fq2_sqr(x), x), bls.B2))
        if y is not None:
            points.append((x, y))
    return points


def test_g1_membership_rejects_each_cofactor_order(g1_small_order):
    assert H1 == 3 * 11**2 * 10177**2 * 859267**2 * 52437899**2
    sub = bls.g1_mul(bls.G1_GEN, 5)
    for l, q in g1_small_order.items():
        assert q is not None and _double_and_add(bls.g1_add, q, l) is None  # order l
        for pt in (q, bls.g1_add(q, sub)):
            assert bls.g1_on_curve(pt) and not bls.g1_in_subgroup(pt), l
            with pytest.raises(ValueError, match="prime-order subgroup"):
                bls.g1_from_bytes(bls.g1_to_bytes(pt))


def test_g2_membership_rejects_points_outside_g2(g2_off_subgroup):
    sub = bls.g2_mul(bls.G2_GEN, 5)
    for q in g2_off_subgroup:
        assert _double_and_add(bls.g2_add, q, bls.R) is not None
        for pt in (q, bls.g2_add(q, sub)):
            assert bls.g2_on_curve(pt) and not bls.g2_in_subgroup(pt)
            with pytest.raises(ValueError, match="prime-order subgroup"):
                bls.g2_from_bytes(bls.g2_to_bytes(pt))


def test_identity_is_in_both_subgroups():
    assert bls.g1_in_subgroup(None) and bls.g2_in_subgroup(None)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_membership_comparison_checks_both_coordinates(group, monkeypatch):
    """The chain's Jacobian (X, Y, Z) is endo(pt) = (x, y) only if X = x Z^2
    and Y = y Z^3.  With the chain's accumulator fixed: (x Z^2, y Z^3, Z)
    passes for any Z; with y negated only x agrees, with x times BETA, a
    cube root of unity in Fq, only y does; Jacobian infinity fails.  No
    rational point of either curve tells a test of y alone from the full
    one, so only this test pins the x half."""
    gen, mul, _, _ = GROUPS[group]
    g = getattr(bls, f"_{group}")
    pt = mul(gen, 5)
    x, y = g.endo(pt)
    beta = (bls.BETA, 0) if group == "G2" else bls.BETA
    accs = [(g.inf, False)]
    for Z in (g.one, mul(gen, 7)[0], mul(gen, 11)[1]):
        zz = g.fmul(Z, Z)
        X, Y = g.fmul(x, zz), g.fmul(y, g.fmul(zz, Z))
        accs += [((X, Y, Z), True), ((X, g.neg((X, Y))[1], Z), False),
                 ((g.fmul(X, beta), Y, Z), False)]
    for acc, want in accs:
        monkeypatch.setattr(bls, "_chain", lambda g, pt, digits: acc)
        assert g.endo_is_radix(pt) is want, acc


def test_membership_tests_cost_only_their_chains(g1_small_order, g2_off_subgroup, monkeypatch):
    """A membership test is the fixed chain of its radix and nothing more:
    z^2 on G1, 127 doublings and 16 mixed additions, and |z| on G2, 63 and
    5, for points in the subgroup and outside it alike.  Neither inverts:
    the chain's Jacobian accumulator is compared with the endo image as
    X = x Z^2 and Y = y Z^3.  The chain digits are made once, at import:
    no membership test, GT check or final exponentiation makes them."""
    rng = SeededRng("membership-cost")
    calls = dict(dbl=0, madd=0, finv=0)

    def counted(g, name):
        fn = getattr(g, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(g, name, wrapper)

    for g in (bls._G1, bls._G2):
        for name in ("dbl", "madd", "finv"):
            counted(g, name)
    cases = [(bls.g1_in_subgroup, pt, (127, 16, 0)) for pt in (
        bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1), *g1_small_order.values())]
    cases += [(bls.g2_in_subgroup, pt, (63, 5, 0)) for pt in (
        bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1), *g2_off_subgroup)]
    monkeypatch.setattr(bls, "_chain_digits", lambda k: pytest.fail(f"chain digits of {k} made"))
    for in_subgroup, pt, cost in cases:
        calls.update(dbl=0, madd=0, finv=0)
        in_subgroup(pt)
        assert (calls["dbl"], calls["madd"], calls["finv"]) == cost, pt
    assert bls.gt_is_valid(bls.GT_GEN)
    bls.final_exponentiation(bls.GT_GEN)


def test_g2_membership_refuses_an_order_r_point_of_an_isomorphic_curve():
    """For Q = (x, y) in G2 and c in Fq with c^6 != 1, (c^2 x, c^3 y) has
    order r on y^2 = x^3 + 4(u + 1)c^6.  psi commutes with this map, since
    c is in Fq, so the point passes the endomorphism half of g2_in_subgroup,
    and its on-curve half must refuse it, in the decoder too."""
    (x, y), c = bls.g2_mul(bls.G2_GEN, 5), 2
    pt = (bls.fq2_mul(x, (c**2, 0)), bls.fq2_mul(y, (c**3, 0)))
    assert not bls.g2_on_curve(pt) and bls._G2.endo(pt) == bls.g2_mul(pt, bls._G2.radix)
    assert not bls.g2_in_subgroup(pt)
    with pytest.raises(ValueError, match="not on the curve"):
        bls.g2_from_bytes(bls.g2_to_bytes(pt))


SPLIT_EDGES = (
    2**64 - 1, 2**64, X - 1, X, X + 1, X**2, X**2 + 1, X**3, bls.R - 1, bls.R, bls.R + 1, 2**256,
)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_mul_agrees_with_double_and_add_across_the_split(group):
    gen, mul, add, neg = GROUPS[group]
    rng = SeededRng(f"split-{group}")
    for _ in range(2):
        pt = mul(gen, rng.randbelow(bls.R - 1) + 1)
        for k in SPLIT_EDGES + (rng.randbelow(bls.R),):
            want = _double_and_add(add, pt, k)
            assert mul(pt, k) == want and mul(pt, -k) == neg(want), k


# the hot-base rule on each group: (group state, mul, the r-torsion base
# with a given exponent)
HOT = {
    "G1": (bls._G1, bls.g1_mul, lambda a: bls.g1_mul(bls.G1_GEN, a)),
    "G2": (bls._G2, bls.g2_mul, lambda a: bls.g2_mul(bls.G2_GEN, a)),
    "GT": (bls._GT, bls.fq12_pow_cyclo,
           lambda a: bls.fq12_pow_cyclo(bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)]), a)),
}


@pytest.mark.parametrize("group", sorted(HOT))
def test_hot_base_results_match_wnaf_across_the_threshold(group, monkeypatch):
    g, mul, base = HOT[group]
    rng = SeededRng(f"hot-{group}")
    pt = base(rng.randbelow(bls.R - 1) + 1)
    monkeypatch.setattr(g, "hot", {})
    scalars = [bls.R - 1, bls.R, bls.R + 1, 2**256] + [rng.randbelow(bls.R) for _ in range(4)]
    for uses, k in enumerate(scalars, 1):
        assert mul(pt, k) == _on_wnaf(mul, pt, k), k
        if uses < bls._HOT_USES:
            assert g.hot[pt] == uses
        else:  # the threshold use builds the comb, later ones read it
            assert _is_comb(g.hot[pt], bls._COMB_TEETH)
    assert list(g.hot) == [pt]


@pytest.mark.parametrize("group", sorted(HOT))
def test_short_scalars_never_count_toward_a_table(group, monkeypatch):
    g, mul, base = HOT[group]
    pt = base(SeededRng(f"short-hot-{group}").randbelow(bls.R - 1) + 1)
    monkeypatch.setattr(g, "hot", {})
    top = (1 << g.radix.bit_length()) - 1
    for _ in range(bls._HOT_USES + 1):
        for k in (3, g.radix, top, -top):
            mul(pt, k)
        # decoding checks membership by powers no longer than the radix, and
        # the pairing's final exponentiation by powers of |z|
        if group == "G1":
            assert bls.g1_from_bytes(bls.g1_to_bytes(pt)) == pt
        elif group == "G2":
            assert bls.g2_from_bytes(bls.g2_to_bytes(pt)) == pt
        else:
            assert bls.gt_is_valid(pt)
            bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    assert g.hot == {}


@pytest.mark.parametrize("group", sorted(HOT))
def test_hot_tables_stay_under_the_cap(group, monkeypatch):
    g, mul, base = HOT[group]
    rng = SeededRng(f"hot-cap-{group}")
    bases = [base(rng.randbelow(bls.R - 1) + 1) for _ in range(bls._HOT_TABLES + 2)]
    monkeypatch.setattr(g, "hot", {})
    for i, pt in enumerate(bases):
        for _ in range(bls._HOT_USES):
            mul(pt, bls.R - 1)
        # past the cap, the least recently used table goes
        tables = [b for b, v in g.hot.items() if isinstance(v, list)]
        assert tables == bases[max(0, i + 1 - bls._HOT_TABLES) : i + 1], i
    # an evicted base counts its uses again, from one
    assert mul(bases[0], bls.R - 2) == _on_wnaf(mul, bases[0], bls.R - 2) and g.hot[bases[0]] == 1
    # so do cold bases, up to a bound of keys; past it the least recently
    # used count goes, and no table
    fresh = [mul(bases[-1], a) for a in range(2, 2 * bls._HOT_TABLES + 3)]
    for pt in fresh:
        mul(pt, bls.R - 1)
    assert [b for b, v in g.hot.items() if isinstance(v, list)] == tables
    assert list(g.hot) == tables + fresh[-bls._HOT_TABLES:]
    assert all(g.hot[pt] == 1 for pt in fresh[-bls._HOT_TABLES:])


@pytest.mark.parametrize("group", sorted(HOT))
def test_comb_entries_add_twice_each_tooth(group, monkeypatch):
    g, mul, base = HOT[group]
    pt = base(SeededRng(f"table-row-{group}").randbelow(bls.R - 1) + 1)
    monkeypatch.setattr(g, "hot", {})
    for _ in range(bls._HOT_USES):
        mul(pt, bls.R - 1)
    _assert_comb(g, g.add, pt, g.hot[pt], bls._COMB_TEETH)


@pytest.mark.parametrize("group", sorted(HOT))
def test_unit_scalars_return_the_base(group, monkeypatch):
    # decrypt raises c2 and k0 to reconstruction coefficients, which are
    # ones for AND/OR policies
    g, mul, base = HOT[group]
    pt = base(SeededRng(f"unit-{group}").randbelow(bls.R - 1) + 1)
    monkeypatch.setattr(g, "hot", {})
    assert mul(pt, 1) is pt and mul(pt, -1) == g.neg(pt)
    # the split path reaches the same points, and only it counts a use
    assert mul(pt, bls.R + 1) == pt and mul(pt, bls.R - 1) == g.neg(pt)
    assert g.hot == {pt: 2}


def test_gt_pow_agrees_with_reference_across_the_split():
    rng = SeededRng("split-GT")
    p = bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1)
    f = bls.pairing_product([(p, bls.G2_GEN)])
    for k in SPLIT_EDGES + (rng.randbelow(bls.R),):
        want = fq12_pow(f, k)
        assert bls.fq12_pow_cyclo(f, k) == want, k
        assert bls.fq12_pow_cyclo(f, -k) == bls.fq12_inv(want), k


def _cyclotomic_outside_gt():
    """The easy part of the final exponentiation of a random Fq12 element:
    in the cyclotomic subgroup, whose order is r times a cofactor, not in GT."""
    rng = SeededRng("gt-cyclotomic")
    g = tuple(tuple(_random_fq2(rng) for _ in range(3)) for _ in range(2))
    f = bls.fq12_mul(bls.fq12_conj(g), bls.fq12_inv(g))
    return bls.fq12_mul(bls.fq12_frob2(f), f)


def test_short_gt_powers_hold_off_gt():
    # exponents no longer than |z| skip the split, so they hold on any
    # cyclotomic element; the final exponentiation and gt_is_valid use them
    f = _cyclotomic_outside_gt()
    assert fq12_pow(f, bls.R) != bls.FQ12_ONE and not bls.gt_is_valid(f)
    rng = SeededRng("short-gt")
    top = (1 << X.bit_length()) - 1
    for k in (2, 3, 1 << (X.bit_length() - 1), X - 1, X, top, rng.randbelow(top)):
        assert bls.fq12_pow_cyclo(f, k) == fq12_pow(f, k), k
        assert bls.fq12_pow_cyclo(f, -k) == bls.fq12_conj(fq12_pow(f, k)), k  # f is unitary


def test_short_scalars_hold_off_the_subgroup(g1_small_order, g2_off_subgroup):
    # scalars no longer than the radix (z^2 on G1, |z| on G2) skip the split,
    # so they give the raw multiple of any curve point; the membership tests use them
    rng = SeededRng("short-scalars")
    sub = bls.g1_mul(bls.G1_GEN, 5)
    g1 = (bls.g1_mul, bls.g1_add, bls.g1_neg)
    cases = [(*g1, q, X**2) for q in g1_small_order.values()]
    cases += [(*g1, bls.g1_add(q, sub), X**2) for q in g1_small_order.values()]
    cases += [(bls.g2_mul, bls.g2_add, bls.g2_neg, q, X) for q in g2_off_subgroup]
    for mul, add, neg, pt, radix in cases:
        top = (1 << radix.bit_length()) - 1
        for k in (2, 3, 1 << (radix.bit_length() - 1), radix - 1, radix, top, rng.randbelow(top)):
            want = _double_and_add(add, pt, k)
            assert mul(pt, k) == want and mul(pt, -k) == neg(want), k


def test_short_power_cost(monkeypatch):
    """A short power is a NAF chain on its base: one doubling per digit below
    the top, a top 1 0 -1 taken as 1 1, one mixed addition of the base or its
    negation per nonzero digit below it and, on G1 and G2, one inversion into
    affine form.  It builds no table and counts no use."""
    rng = SeededRng("short-cost")
    p = bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1)
    q = bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1)
    f = _cyclotomic_outside_gt()
    calls = {}

    def counted(g, name):
        fn = getattr(g, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(g, name, wrapper)

    for g in (bls._G1, bls._G2, bls._GT):
        monkeypatch.setattr(g, "hot", {})
        counted(g, "dbl")
        counted(g, "madd")
    counted(bls._G1, "finv")
    counted(bls._G2, "finv")

    def cost(power, base, k):
        calls.update(dbl=0, madd=0, finv=0)
        power(base, k)
        return calls["dbl"], calls["madd"], calls["finv"]

    assert cost(bls.g2_mul, q, X) == (63, 5, 1)
    assert cost(bls.g1_mul, p, X**2) == (127, 16, 1)
    assert cost(bls.fq12_pow_cyclo, f, X) == (63, 5, 0)
    for power, base, radix, inversions in ((bls.g1_mul, p, X**2, 1), (bls.g2_mul, q, X, 1),
                                           (bls.fq12_pow_cyclo, f, X, 0)):
        top = radix.bit_length()
        # a set bit of (3k XOR k) >> 1 marks each nonzero NAF digit of k; the
        # NAF of 2^top - 1 is 2^top - 2^0, one digit longer than its bits
        for k, doublings in ((2, 1), (3, 1), (1 << (top - 1), top - 1), (radix - 1, top - 1),
                             ((1 << top) - 1, top)):
            want = (doublings, bin((3 * k ^ k) >> 1).count("1") - 1)
            for _ in range(bls._HOT_USES + 1):
                assert cost(power, base, k) == (*want, inversions), k
                assert cost(power, base, -k) == (*want, inversions), -k
    assert bls._G1.hot == bls._G2.hot == bls._GT.hot == {}


def test_endomorphism_constants():
    assert pow(bls.BETA, 3, bls.P) == 1 and bls.BETA != 1
    assert bls.PSI_X == bls.fq2_inv(fq2_pow(bls.XI, (bls.P - 1) // 3))
    assert bls.PSI_Y == bls.fq2_inv(fq2_pow(bls.XI, (bls.P - 1) // 2))
    # psi acts on G2 as [z] and phi on G1 as [-z^2]; with z = -X, each group's
    # endo (-psi, -phi) acts as [radix]
    assert (bls._G2.radix, bls._G1.radix) == (X, X**2)
    assert bls._G2.endo(bls.G2_GEN) == _double_and_add(bls.g2_add, bls.G2_GEN, X)
    assert bls._G1.endo(bls.G1_GEN) == _double_and_add(bls.g1_add, bls.G1_GEN, X**2)
    # on GT, conj o frob1 sends g to g^(-p) = g^(-z) = g^X
    g = bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    assert bls._GT.radix == X
    assert bls._GT.endo(g) == bls.fq12_conj(bls.fq12_frob1(g)) == fq12_pow(g, X)
    f = bls.fq12_frob1(g)
    assert bls.fq12_frob1(g, bls._GAMMA3) == bls.fq12_frob1(bls.fq12_frob1(f)) == bls.fq12_frob2(f)
    # endos[i] is endo^i, so it acts as [X^i] (G2, GT) or [X^(2 i)] (G1)
    for grp, base in ((bls._G1, bls.G1_GEN), (bls._G2, bls.G2_GEN), (bls._GT, g)):
        assert len(grp.endos) == (2 if grp is bls._G1 else 4)
        want = base
        for endo in grp.endos:
            assert endo(base) == want
            want = grp.endo(want)
    # so a reduced scalar has 4 digits in base X and 2 in base X^2
    assert bls.R == X**4 - X**2 + 1 < X**4


def test_pairing_bilinear_and_nondegenerate():
    base = bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    assert base != bls.FQ12_ONE
    assert bls.gt_is_valid(base)
    a, b = 6, 11
    lhs = bls.pairing_product([(bls.g1_mul(bls.G1_GEN, a), bls.g2_mul(bls.G2_GEN, b))])
    assert lhs == fq12_pow(base, a * b)
    assert lhs == bls.fq12_pow_cyclo(base, a * b)
    # pairing with infinity degenerates to one
    assert bls.final_exponentiation(bls.FQ12_ONE) == bls.FQ12_ONE
    for pairs in ([], [(None, bls.G2_GEN)], [(bls.G1_GEN, None)], [(None, None)]):
        assert bls.pairing_product(pairs) == bls.FQ12_ONE
    rng = SeededRng("bilinear")
    for _ in range(2):
        a = rng.randbelow(bls.R - 1) + 1
        b = rng.randbelow(bls.R - 1) + 1
        lhs = bls.pairing_product([(bls.g1_mul(bls.G1_GEN, a), bls.g2_mul(bls.G2_GEN, b))])
        assert lhs == bls.fq12_pow_cyclo(base, a * b % bls.R)


def test_pairing_known_answer():
    # pins the GT convention: outputs are the cube of the standard pairing
    out = bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    digest = hashlib.sha256(bls.fq12_to_bytes(out)).hexdigest()
    assert digest == "06fa588b89fdfb034dbc1c163ecb3dfac228f552b643c7294cc5f2c4dc170b84"


def test_pairing_product_matches_termwise_pairings(monkeypatch):
    # Miller loops multiplied under one final exponentiation, infinity skipped
    rng = SeededRng("pairing-product")
    pairs = [(bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1),
              bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1)) for _ in range(3)]
    termwise = bls.FQ12_ONE
    for p, q in pairs:
        termwise = bls.fq12_mul(termwise, bls.pairing_product([(p, q)]))
    calls = []
    final_exp = bls.final_exponentiation

    def counted(f):
        calls.append(f)
        return final_exp(f)
    monkeypatch.setattr(bls, "final_exponentiation", counted)
    assert bls.pairing_product(pairs[:1] + [(None, bls.G2_GEN)] + pairs[1:]) == termwise
    assert len(calls) == 1


def _fq2_scalar(x, k):
    return (x[0] * k % bls.P, x[1] * k % bls.P)


def _reference_dbl_line(t):
    """The tangent-line step of the Miller loop on the fq2_* helpers: the
    reference for the flat, P-free _dbl_line."""
    X, Y, Z = t
    xx = bls.fq2_sqr(X)
    yy = bls.fq2_sqr(Y)
    zz = bls.fq2_sqr(Z)
    e = _fq2_scalar(bls.fq2_mul_xi(zz), 12)  # 3 b' Z^2, b' = 4 xi
    f = _fq2_scalar(e, 3)
    h = bls.fq2_sub(bls.fq2_sqr(bls.fq2_add(Y, Z)), bls.fq2_add(yy, zz))  # 2 Y Z
    t3 = (
        _fq2_scalar(bls.fq2_mul(bls.fq2_mul(X, Y), bls.fq2_sub(yy, f)), 2),
        bls.fq2_sub(bls.fq2_sqr(bls.fq2_add(yy, f)), _fq2_scalar(bls.fq2_sqr(e), 12)),
        _fq2_scalar(bls.fq2_mul(yy, h), 4),
    )
    return t3, (*bls.fq2_sub(e, yy), *_fq2_scalar(xx, 3), *h)


def _reference_miller_loop(p, q):
    """f_{|z|,Q}(P) for one pair, unconjugated: a per-pair loop that walks T
    beside its products, scales each P-free line by xP and -yP and
    multiplies it in densely; the reference for the prepared lines and the
    shared loop of pairing_product."""
    xp, yp = p
    nyp = -yp % bls.P
    t = (*q, bls.FQ2_ONE)
    f = bls.FQ12_ONE

    def times_line(f, line):
        c0, c1, c4 = line[:2], _fq2_scalar(line[2:4], xp), _fq2_scalar(line[4:], nyp)
        return bls.fq12_mul(f, ((c0, c1, bls.FQ2_ZERO), (bls.FQ2_ZERO, c4, bls.FQ2_ZERO)))
    for bit in bin(bls.BLS_X)[3:]:
        t, line = _reference_dbl_line(t)
        f = times_line(bls.fq12_sqr(f), line)
        if bit == "1":
            t, line = bls._add_line(t, q)
            f = times_line(f, line)
    return f


def _miller_inputs(monkeypatch):
    """pairing_product with the final exponentiation taken out: the list of
    the conjugated shared-loop products it would have raised."""
    inputs = []
    monkeypatch.setattr(bls, "final_exponentiation", lambda f: inputs.append(f) or f)
    return inputs


def test_shared_miller_loop_matches_per_pair_loops(monkeypatch):
    rng = SeededRng("shared-miller-loop")
    g1 = [bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1) for _ in range(7)]
    g2 = [bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1) for _ in range(7)]
    pairs = list(zip(g1, g2))
    cases = [pairs[:1], pairs[:2], pairs[:5], pairs]
    cases += [[(None, g2[0])] + pairs[1:3], pairs[:1] + [(g1[1], None)] + pairs[2:3],
              pairs[:2] + [(None, None)]]
    cases.append([(g1[0], g2[0]), (g1[1], g2[0]), (g1[2], g2[0])])  # a repeated Q
    cases.append([(g1[0], g2[0]), (bls.g1_neg(g1[0]), g2[0])])  # a pair and its negation
    inputs = _miller_inputs(monkeypatch)
    for case in cases:
        del inputs[:]
        bls.pairing_product(case)
        expected = bls.FQ12_ONE
        for p, q in case:
            if p is not None and q is not None:
                expected = bls.fq12_mul(expected, _reference_miller_loop(p, q))
        assert inputs == [bls.fq12_conj(expected)]


def test_prepared_lines_match_the_reference_loop(monkeypatch):
    # each Q's first use makes its lines and counts, the second stores them,
    # later ones read them; every use matches the per-pair loop
    rng = SeededRng("prepared-lines")
    monkeypatch.setattr(bls, "_LINES", {})
    inputs = _miller_inputs(monkeypatch)
    qs = [bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1) for _ in range(3)]
    for uses in range(1, 5):
        for q in qs:
            p = bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1)
            del inputs[:]
            bls.pairing_product([(p, q)])
            assert inputs == [bls.fq12_conj(_reference_miller_loop(p, q))], uses
            stored = bls._LINES[q]
            assert stored == 1 if uses == 1 else stored == [bls._pack(line) for line in bls._g2_lines(q)]
    assert list(bls._LINES) == qs and len(bls._LINES[qs[0]]) == 68  # 63 doublings, 5 additions


def test_products_mix_kept_and_fresh_lines(monkeypatch):
    rng = SeededRng("mixed-lines")
    monkeypatch.setattr(bls, "_LINES", {})
    inputs = _miller_inputs(monkeypatch)
    g1 = [bls.g1_mul(bls.G1_GEN, rng.randbelow(bls.R - 1) + 1) for _ in range(3)]
    kept, fresh, twice = (bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1) for _ in range(3))
    bls.pairing_product([(g1[0], kept)] * 2)
    assert isinstance(bls._LINES[kept], list)
    cases = [
        [(g1[0], kept), (g1[1], fresh)],  # a kept Q beside one on its first use
        [(g1[0], twice), (g1[1], kept), (g1[2], twice)],  # a Q twice in one product
    ]
    for case in cases:
        del inputs[:]
        bls.pairing_product(case)
        expected = bls.FQ12_ONE
        for p, q in case:
            expected = bls.fq12_mul(expected, _reference_miller_loop(p, q))
        assert inputs == [bls.fq12_conj(expected)]
    # the repeated Q's second use, inside the product, stored its lines
    assert bls._LINES[fresh] == 1 and isinstance(bls._LINES[twice], list)


def _lines_of(a):
    """The pairing of G1 with [a]G2 for an a no longer than |z|, which makes
    no table, and the Q it used."""
    q = bls.g2_mul(bls.G2_GEN, a)
    bls.pairing_product([(bls.G1_GEN, q)])
    return q


def test_one_shot_qs_never_push_out_kept_lines(monkeypatch):
    monkeypatch.setattr(bls, "_LINES", {})
    monkeypatch.setattr(bls, "_LINE_QS", 2)
    reused = [_lines_of(a) for a in (2, 3) for _ in range(2)][::2]
    one_shot = [_lines_of(a) for a in range(4, 10)]
    assert [q for q, v in bls._LINES.items() if isinstance(v, list)] == reused
    # two values and four keys in all: the least recently used counts went
    assert list(bls._LINES) == reused + one_shot[-2:]
    assert all(bls._LINES[q] == 1 for q in one_shot[-2:])


def test_kept_lines_stay_under_the_cap(monkeypatch):
    monkeypatch.setattr(bls, "_LINES", {})
    monkeypatch.setattr(bls, "_LINE_QS", 3)
    qs = []
    for a in range(2, 7):
        qs.append(_lines_of(a))
        _lines_of(a)
        # past the cap, the least recently used lines go
        kept = [q for q, v in bls._LINES.items() if isinstance(v, list)]
        assert kept == qs[-3:], a
    # an evicted Q counts its uses again, from one
    assert _lines_of(2) == qs[0] and bls._LINES[qs[0]] == 1
    assert list(bls._LINES) == qs[-3:] + qs[:1]


def test_flat_doubling_line_matches_the_reference():
    # every coordinate P - 1 gives the largest unreduced intermediates
    rng = SeededRng("dbl-line")
    top = bls.P - 1
    inputs = [((top, top),) * 3, ((0, 0), (1, 0), (0, 1))]
    inputs += [tuple(_random_fq2(rng) for _ in range(3)) for _ in range(8)]
    inputs.append((*bls.g2_mul(bls.G2_GEN, 7), bls.FQ2_ONE))
    for t in inputs:
        out = bls._dbl_line(t)
        assert out == _reference_dbl_line(t)
        t3, line = out
        _assert_reduced((t3, (line[:2], line[2:4], line[4:])))  # (2T, line) as an Fq12


_G2_INF = (bls.FQ2_ZERO, bls.FQ2_ONE, bls.FQ2_ZERO)


def _reference_g2_dbl_jac(p):
    """dbl-2009-l on the fq2_* helpers: the reference for the flat
    _g2_dbl_jac."""
    X, Y, Z = p
    if Z == bls.FQ2_ZERO or Y == bls.FQ2_ZERO:
        return _G2_INF
    A = bls.fq2_sqr(X)
    B = bls.fq2_sqr(Y)
    C = bls.fq2_sqr(B)
    D = _fq2_scalar(bls.fq2_sub(bls.fq2_sub(bls.fq2_sqr(bls.fq2_add(X, B)), A), C), 2)
    E = _fq2_scalar(A, 3)
    X3 = bls.fq2_sub(bls.fq2_sqr(E), _fq2_scalar(D, 2))
    Y3 = bls.fq2_sub(bls.fq2_mul(E, bls.fq2_sub(D, X3)), _fq2_scalar(C, 8))
    return X3, Y3, _fq2_scalar(bls.fq2_mul(Y, Z), 2)


def _reference_g2_madd(p, q):
    """madd-2007-bl on the fq2_* helpers: the reference for the flat
    _g2_madd."""
    if q is None:
        return p
    X1, Y1, Z1 = p
    x2, y2 = q
    if Z1 == bls.FQ2_ZERO:
        return (x2, y2, bls.FQ2_ONE)
    Z1Z1 = bls.fq2_sqr(Z1)
    H = bls.fq2_sub(bls.fq2_mul(x2, Z1Z1), X1)
    r = bls.fq2_sub(bls.fq2_mul(bls.fq2_mul(y2, Z1), Z1Z1), Y1)
    if H == bls.FQ2_ZERO:
        return _reference_g2_dbl_jac((x2, y2, bls.FQ2_ONE)) if r == bls.FQ2_ZERO else _G2_INF
    HH = bls.fq2_sqr(H)
    I = _fq2_scalar(HH, 4)
    J = bls.fq2_mul(H, I)
    r = _fq2_scalar(r, 2)
    V = bls.fq2_mul(X1, I)
    X3 = bls.fq2_sub(bls.fq2_sub(bls.fq2_sqr(r), J), _fq2_scalar(V, 2))
    Y3 = bls.fq2_sub(bls.fq2_mul(r, bls.fq2_sub(V, X3)), _fq2_scalar(bls.fq2_mul(Y1, J), 2))
    Z3 = bls.fq2_sub(bls.fq2_sub(bls.fq2_sqr(bls.fq2_add(Z1, H)), Z1Z1), HH)
    return X3, Y3, Z3


def _reference_g2_endo(q):
    """-psi on the fq2_* helpers, on an affine point."""
    x = bls.fq2_mul(bls.fq2_conj(q[0]), bls.PSI_X)
    y = bls.fq2_neg(bls.fq2_mul(bls.fq2_conj(q[1]), bls.PSI_Y))
    return (x, y)


def _reference_g1_dbl_jac(p):
    """dbl-2009-l as the EFD writes it, every step reduced."""
    X, Y, Z = p
    A, B = X * X % bls.P, Y * Y % bls.P
    C = B * B % bls.P
    D = 2 * ((X + B) ** 2 - A - C) % bls.P
    E = 3 * A % bls.P
    X3 = (E * E - 2 * D) % bls.P
    return X3, (E * (D - X3) - 8 * C) % bls.P, 2 * Y * Z % bls.P


def _reference_g1_madd(p, q):
    """madd-2007-bl as the EFD writes it, every step reduced, for distinct x."""
    (X1, Y1, Z1), (x2, y2) = p, q
    Z1Z1 = Z1 * Z1 % bls.P
    H = (x2 * Z1Z1 - X1) % bls.P
    HH = H * H % bls.P
    I = 4 * HH % bls.P
    J = H * I % bls.P
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % bls.P
    V = X1 * I % bls.P
    X3 = (r * r - J - 2 * V) % bls.P
    return X3, (r * (V - X3) - 2 * Y1 * J) % bls.P, ((Z1 + H) ** 2 - Z1Z1 - HH) % bls.P


def test_lazy_g1_formulas_match_the_references():
    """The G1 doubling and mixed addition leave some intermediates
    unreduced, yet every output equals the fully reduced formula's and lies
    in [0, P): the membership comparison and the comb's packing read them."""
    rng = SeededRng("g1-lazy-formulas")
    top = bls.P - 1  # the largest unreduced intermediates
    jacobian = [(top,) * 3] + [tuple(rng.randbelow(bls.P) for _ in range(3)) for _ in range(12)]
    affine = [(2, top)] + [(rng.randbelow(bls.P), rng.randbelow(bls.P)) for _ in range(12)]
    for p in jacobian:
        out = bls._g1_dbl_jac(p)
        assert out == _reference_g1_dbl_jac(p) and all(0 <= v < bls.P for v in out)
        for q in affine:
            out = bls._g1_madd(p, q)
            assert out == _reference_g1_madd(p, q) and all(0 <= v < bls.P for v in out)


def test_flat_g2_formulas_match_the_references():
    # every coordinate P - 1 gives the largest unreduced intermediates
    rng = SeededRng("g2-flat-formulas")
    top = (bls.P - 1, bls.P - 1)
    jacobian = [(top,) * 3] + [tuple(_random_fq2(rng) for _ in range(3)) for _ in range(12)]
    affine = [(top, top)] + [(_random_fq2(rng), _random_fq2(rng)) for _ in range(12)]
    q = bls.g2_mul(bls.G2_GEN, 11)
    jacobian.append(bls._g2_dbl_jac(bls._G2.lift(q)))
    affine.append(q)
    for p in jacobian:
        out = bls._g2_dbl_jac(p)
        assert out == _reference_g2_dbl_jac(p)
        _assert_reduced([out])  # one point as one half
        for a in affine:
            out = bls._g2_madd(p, a)
            assert out == _reference_g2_madd(p, a)
            _assert_reduced([out])
    for a in affine:
        ref = a
        for endo in bls._G2.endos[1:]:  # endo, endo^2, endo^3
            ref = _reference_g2_endo(ref)
            out = endo(a)
            assert len(out) == 2 and out == ref
            _assert_reduced([out])


def test_flat_g2_formulas_agree_over_chained_steps():
    rng = SeededRng("g2-flat-chain")
    base = bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1)
    step = bls.g2_mul(bls.G2_GEN, rng.randbelow(bls.R - 1) + 1)
    acc = ref = bls._G2.lift(base)
    for _ in range(50):
        acc = bls._g2_madd(bls._g2_dbl_jac(acc), step)
        ref = _reference_g2_madd(_reference_g2_dbl_jac(ref), step)
        assert acc == ref
        _assert_reduced([acc])
        acc = ref = bls._G2.lift(bls._G2.endo(bls._G2.to_affine([acc])[0]))
    assert bls.g2_on_curve(bls._G2.to_affine([acc])[0])


def test_flat_g2_formulas_on_their_special_cases():
    q = bls.g2_mul(bls.G2_GEN, 5)
    lifted = bls._G2.lift(q)
    scaled = bls._g2_madd(bls._g2_dbl_jac(lifted), bls.g2_neg(q))  # q again, with Z != 1
    assert scaled[2] != bls.FQ2_ONE and bls._G2.to_affine([scaled])[0] == q
    for p in (lifted, scaled):
        # P == Q takes the doubling branch, P == -Q gives infinity
        doubled = bls._g2_madd(p, q)
        assert doubled == _reference_g2_madd(p, q) == bls._g2_dbl_jac(lifted)
        assert bls._G2.to_affine([doubled])[0] == bls.g2_mul(bls.G2_GEN, 10)
        assert bls._g2_madd(p, bls.g2_neg(q)) == _reference_g2_madd(p, bls.g2_neg(q)) == _G2_INF
        assert bls._g2_madd(p, None) is p
    # infinity as the Jacobian input, and a doubling with Y = 0
    assert bls._g2_madd(_G2_INF, q) == _reference_g2_madd(_G2_INF, q) == (*q, bls.FQ2_ONE)
    assert bls._g2_dbl_jac(_G2_INF) == _G2_INF
    assert bls._g2_dbl_jac((q[0], bls.FQ2_ZERO, bls.FQ2_ONE)) == _G2_INF
    # -psi acts as [|z|] on G2
    assert bls._G2.endo(q) == bls.g2_mul(q, bls.BLS_X)


def test_pair_product_of_inverse_pairs_is_identity():
    ctx = new_context(REAL)
    rng = SeededRng("pair-product")
    g, h = ctx.generator(SIDE_ONE), ctx.generator(SIDE_TWO)
    a = ctx.random_scalar(rng)
    out = ctx.pair_product([(g ** a, h), (g.inverse(), h ** a)])
    assert out == GroupElement(ctx, SIDE_TARGET, bls.FQ12_ONE)


def _random_fq2(rng):
    return (rng.randbelow(bls.P), rng.randbelow(bls.P))


def test_gt_check_rejects_unitary_non_cyclotomic_elements_without_a_power(monkeypatch):
    # f = conj(g) / g is unitary, but for random g it lies outside the cyclotomic
    # subgroup, where cyclotomic squaring does not square
    rng = SeededRng("gt-unitary")
    g = tuple(tuple(_random_fq2(rng) for _ in range(3)) for _ in range(2))
    f = bls.fq12_mul(bls.fq12_conj(g), bls.fq12_inv(g))
    assert bls.fq12_mul(f, bls.fq12_conj(f)) == bls.FQ12_ONE
    assert bls.fq12_cyclo_sqr(f) != bls.fq12_sqr(f)
    base = bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    calls = []
    pow_cyclo = bls.fq12_pow_cyclo

    def counted(*args):
        calls.append(args)
        return pow_cyclo(*args)
    monkeypatch.setattr(bls, "fq12_pow_cyclo", counted)
    assert not bls.gt_is_valid(f)
    assert calls == []
    assert bls.gt_is_valid(base)
    assert len(calls) == 1


def test_gt_check_rejects_cyclotomic_elements_outside_gt():
    # the cyclotomic subgroup's order p^4 - p^2 + 1 is r times a cofactor
    f = _cyclotomic_outside_gt()
    assert bls.fq12_mul(bls.fq12_frob2(bls.fq12_frob2(f)), f) == bls.fq12_frob2(f)
    # the reference power: fq12_pow_cyclo splits a long exponent, which holds only on GT
    assert fq12_pow(f, bls.R) != bls.FQ12_ONE
    assert not bls.gt_is_valid(f)
    # f^p == f^z leaves order gcd(p - z, p^4 - p^2 + 1), with z = -BLS_X
    assert math.gcd(bls.P + bls.BLS_X, bls.P**4 - bls.P**2 + 1) == bls.R
    assert bls.gt_is_valid(bls.FQ12_ONE)
    for k in (1, 5):
        assert bls.gt_is_valid(bls.pairing_product([(bls.g1_mul(bls.G1_GEN, k), bls.G2_GEN)]))


def test_gt_check_refuses_zero():
    """Zero, the one Fq12 element with no inverse, satisfies both equations
    of the GT test, 0 * 0 == 0 and frob1(0) == 0^z, so it is refused
    first.  576 zero bytes decode to it."""
    zero = bls.fq12_from_bytes(bytes(576))
    assert zero == (bls.FQ6_ZERO, bls.FQ6_ZERO)
    assert bls.fq12_mul(bls.fq12_frob2(bls.fq12_frob2(zero)), zero) == bls.fq12_frob2(zero)
    assert bls.fq12_frob1(zero) == bls._exp_neg_z(zero)
    assert not bls.gt_is_valid(zero)
    assert bls.gt_is_valid(bls.FQ12_ONE) and bls.gt_is_valid(bls.GT_GEN)


def test_sparse_line_multiply_and_squaring_match_dense():
    rng = SeededRng("fq12-sparse")
    for _ in range(4):
        x = tuple(tuple(_random_fq2(rng) for _ in range(3)) for _ in range(2))
        c0, c1, c4 = (_random_fq2(rng) for _ in range(3))
        dense = ((c0, c1, bls.FQ2_ZERO), (bls.FQ2_ZERO, c4, bls.FQ2_ZERO))
        assert bls.fq12_mul_014(x, c0, c1, c4) == bls.fq12_mul(x, dense)
        assert bls.fq12_sqr(x) == bls.fq12_mul(x, x)


def _schoolbook_fq12_mul(x, y):
    """x * y in the w-power basis: an element is six Fq2 coefficients of
    w^0..w^5 (storage order (w^0, w^2, w^4), (w^1, w^3, w^5)), and w^6 = xi."""
    def w_coeffs(f):
        (a0, a1, a2), (b0, b1, b2) = f
        return [a0, b0, a1, b1, a2, b2]
    c = [[0, 0] for _ in range(11)]
    for i, (p, q) in enumerate(w_coeffs(x)):
        for j, (r, s) in enumerate(w_coeffs(y)):
            c[i + j][0] += p * r - q * s
            c[i + j][1] += p * s + q * r
    for k in range(10, 5, -1):  # w^k = (1 + u) w^(k-6)
        re, im = c[k]
        c[k - 6][0] += re - im
        c[k - 6][1] += re + im
    c = [(re % bls.P, im % bls.P) for re, im in c[:6]]
    return ((c[0], c[2], c[4]), (c[1], c[3], c[5]))


def _assert_reduced(f):
    assert all(0 <= v < bls.P for half in f for c in half for v in c), f


def test_tower_kernels_match_a_schoolbook_product():
    # every coefficient P - 1 gives the largest unreduced intermediates
    rng = SeededRng("fq12-schoolbook")
    top = ((bls.P - 1, bls.P - 1),) * 3
    zero = (bls.FQ6_ZERO, bls.FQ6_ZERO)
    inputs = [zero, bls.FQ12_ONE, (top, top)]
    inputs += [tuple(tuple(_random_fq2(rng) for _ in range(3)) for _ in range(2)) for _ in range(4)]
    for x in inputs:
        for y in inputs:
            out = bls.fq12_mul(x, y)
            assert out == _schoolbook_fq12_mul(x, y)
            _assert_reduced(out)
            out = bls.fq6_mul(x[0], y[1])
            assert (out, bls.FQ6_ZERO) == _schoolbook_fq12_mul((x[0], bls.FQ6_ZERO), (y[1], bls.FQ6_ZERO))
            _assert_reduced((out, bls.FQ6_ZERO))
            c0, c1, c4 = y[0][0], y[0][1], y[1][1]
            out = bls.fq12_mul_014(x, c0, c1, c4)
            line = ((c0, c1, bls.FQ2_ZERO), (bls.FQ2_ZERO, c4, bls.FQ2_ZERO))
            assert out == _schoolbook_fq12_mul(x, line)
            _assert_reduced(out)
        out = bls.fq12_sqr(x)
        assert out == _schoolbook_fq12_mul(x, x)
        _assert_reduced(out)
        if x != zero:
            inv = bls.fq12_inv(x)
            assert bls.fq12_mul(x, inv) == _schoolbook_fq12_mul(x, inv) == bls.FQ12_ONE
            _assert_reduced(inv)
    for k in (1, 2, rng.randbelow(bls.R - 1) + 1):
        f = bls.pairing_product([(bls.g1_mul(bls.G1_GEN, k), bls.G2_GEN)])
        for _ in range(3):
            out = bls.fq12_cyclo_sqr(f)
            assert out == _schoolbook_fq12_mul(f, f)
            _assert_reduced(out)
            f = out


def test_cyclotomic_pow_agrees_with_generic_pow():
    rng = SeededRng("cyclo")
    f = bls.pairing_product([(bls.G1_GEN, bls.G2_GEN)])
    for _ in range(3):
        k = rng.randbelow(bls.R)
        assert bls.fq12_pow_cyclo(f, k) == fq12_pow(f, k)
    assert bls.fq12_pow_cyclo(f, 0) == bls.FQ12_ONE
    assert bls.fq12_mul(bls.fq12_pow_cyclo(f, bls.R - 1), f) == bls.FQ12_ONE


def test_frobenius_is_pth_power():
    f = bls.pairing_product([(bls.g1_mul(bls.G1_GEN, 5), bls.G2_GEN)])
    assert bls.fq12_frob1(f) == fq12_pow(f, bls.P)
    assert bls.fq12_frob2(f) == fq12_pow(fq12_pow(f, bls.P), bls.P)


def test_frobenius_rows_match_their_derivation():
    # gamma_n^k = xi^(k(p^n - 1)/6), read off the psi literals
    for k in range(6):
        assert bls._GAMMA1[k] == fq2_pow(bls.XI, k * (bls.P - 1) // 6)
        assert bls._GAMMA2[k] == fq2_pow(bls.XI, k * (bls.P**2 - 1) // 6)


def test_fq12_bytes_roundtrip_and_validity():
    f = bls.pairing_product([(bls.G1_GEN, bls.g2_mul(bls.G2_GEN, 9))])
    data = bls.fq12_to_bytes(f)
    assert len(data) == 576
    assert bls.fq12_from_bytes(data) == f
    with pytest.raises(ValueError):
        bls.fq12_from_bytes(data[:-1])
    # every coefficient, the last one too, is checked to lie below P
    for i in (0, 11):
        bad = data[: 48 * i] + bls.P.to_bytes(48, "big") + data[48 * (i + 1) :]
        with pytest.raises(ValueError, match="out of range"):
            bls.fq12_from_bytes(bad)
    # a field constant outside the r-torsion is not a valid pairing value
    assert not bls.gt_is_valid((((2, 0), bls.FQ2_ZERO, bls.FQ2_ZERO), bls.FQ6_ZERO))
