import hashlib

import pytest

import rabe.bls12381 as bls
from rabe.groups import TRANSPARENT_MODULUS
from rabe.rng import SeededRng, SystemRng


def test_seeded_rng_is_deterministic():
    a = SeededRng(7)
    b = SeededRng(7)
    assert [a.randbelow(10**9) for _ in range(20)] == [b.randbelow(10**9) for _ in range(20)]


def test_seeds_differ():
    a = SeededRng(7)
    b = SeededRng(8)
    assert [a.randbelow(10**9) for _ in range(8)] != [b.randbelow(10**9) for _ in range(8)]


def test_child_streams_are_independent_and_stable():
    root = SeededRng(3)
    x = root.child("left").randbelow(2**64)
    y = root.child("right").randbelow(2**64)
    assert x != y
    # children depend only on (seed, label), not on draw order
    again = SeededRng(3)
    again.randbelow(100)
    assert again.child("left").randbelow(2**64) == x


def test_randbytes_stream_is_prefix_stable():
    # drawing 10+10 bytes equals drawing 20 in one call
    a = SeededRng(11)
    b = SeededRng(11)
    assert a.randbytes(10) + a.randbytes(10) == b.randbytes(20)


def test_system_rng_draws_in_range():
    rng = SystemRng()
    seen = {rng.randbelow(4) for _ in range(200)}
    assert seen <= {0, 1, 2, 3}
    assert len(seen) > 1
    for bound in (0, -1):
        with pytest.raises(ValueError):
            rng.randbelow(bound)


def test_seeded_rng_known_answers():
    # pins the stream itself: 64-byte blocks of
    # SHAKE-256(STREAM_LABEL || 0x00 || seed || counter)
    first_block = bytes.fromhex(
        "1a276efc88e2877e7e6b7082ae5f7c8eabf6cc98292b6a39b20bd518988cc877"
        "06149e8d9d50e79f1a7c2649ac1b69a7eba7e817d31f50a19ab5dc3a36619b1c"
    )
    assert SeededRng(2018).randbytes(64) == first_block
    # 10 draws of 20 bytes, then 4 of 48: 392 bytes, so draws straddle blocks
    rng = SeededRng(2018)
    assert [rng.randbelow(TRANSPARENT_MODULUS) for _ in range(10)] == [
        3193151276, 2120314071, 2711834534, 3301025181, 513364984,
        1765657203, 248924224, 3156538872, 3028006232, 878741309,
    ]
    assert [rng.randbelow(bls.R) for _ in range(4)] == [
        0x5D674C5158048428D37BCB44598B6237398D66E9AB692E097D26943C1353DF9E,
        0x055EB6552C8B530850A3DC4E8FAAAFFF6A3533DA57BB2B64F05F91E3BB4C13F6,
        0x4B389B6D8C222269747081634A1B7C66FD585BED5AF19B00F720A2D2F86436EB,
        0x1058C9BE69F892B4896AC29D4736D12C49368BFE0C461C0E766DC5C74BDBBA1E,
    ]
    assert SeededRng(2018).child("x").randbelow(bls.R) == (
        0x6B8B711A7F68DD48B4491654807A75E75906BD3DFBD2227E6CE3E4D747832CDC
    )


def test_seeded_rng_known_answers_across_refills():
    # 200 draws of 20 and 48 bytes with 100 raw bytes among them: 5976
    # bytes, so slices straddle 64-byte blocks and refills of several
    # blocks; the digest was taken from the one-block-at-a-time stream
    rng = SeededRng("refills")
    h = hashlib.sha256()
    for i in range(200):
        if i == 100:
            h.update(rng.randbytes(100))
        bound = bls.R if i % 3 == 2 else TRANSPARENT_MODULUS
        h.update(rng.randbelow(bound).to_bytes(32, "big"))
    assert h.hexdigest() == "9388ecb54bfe5b0888ef03be39e0ffe556deffb96e0b476dbf686196ce5682f7"


def test_seeded_rng_bounds():
    rng = SeededRng(5)
    assert [rng.randbelow(1) for _ in range(3)] == [0, 0, 0]
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            rng.randbelow(bound)
