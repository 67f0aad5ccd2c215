import pytest

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

