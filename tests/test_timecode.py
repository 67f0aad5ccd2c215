import pytest

from rabe import timecode
from rabe.errors import EpochRangeError, ParameterError
from rabe.timecode import (
    backdatable_epochs,
    bit_width,
    check_epoch,
    ct_epoch_bits,
    epoch_bits,
    factored_outside_count,
    factored_regime_check,
    lemma_row,
    outside_vulnerable_count,
    pairwise_counts,
    regime_pair_count,
    zero_positions,
)


def test_bit_width():
    assert bit_width(4) == 2
    assert bit_width(32) == 5
    assert bit_width(65536) == 16
    for bad in (0, 1, 2, 3, 6, 31, 33):
        with pytest.raises(ParameterError):
            bit_width(bad)


def test_epoch_bits_examples():
    assert epoch_bits(5, 32) == "00101"
    assert epoch_bits(7, 32) == "00111"
    assert epoch_bits(25, 32) == "11001"
    assert epoch_bits(1, 32) == "00001"
    assert epoch_bits(31, 32) == "11111"


def test_epoch_bits_range_checks():
    with pytest.raises(EpochRangeError):
        epoch_bits(32, 32)
    with pytest.raises(EpochRangeError):
        epoch_bits(-1, 32)
    check_epoch(1, 32)
    check_epoch(31, 32)
    # epoch 0 is reserved: no encoding, key update or ciphertext has it
    for refuse in (check_epoch, epoch_bits, ct_epoch_bits, backdatable_epochs):
        with pytest.raises(EpochRangeError, match=r"epoch 0 outside \[1, 31\]"):
            refuse(0, 32)
    with pytest.raises(ParameterError):
        bit_width(12)


def test_ct_epoch_bits_keeps_only_the_ones_prefix():
    assert ct_epoch_bits(7, 32) == "00000"
    assert ct_epoch_bits(25, 32) == "11000"
    assert ct_epoch_bits(31, 32) == "11111"
    assert ct_epoch_bits(16, 32) == "10000"
    assert ct_epoch_bits(6, 8) == "110"
    # any epoch below the midpoint starts with 0, so nothing survives
    for t in range(1, 16):
        assert ct_epoch_bits(t, 32) == "00000"


def test_zero_positions():
    assert zero_positions("00101") == {1, 2, 4}
    assert zero_positions("00111") == {1, 2}
    assert zero_positions("00000") == {1, 2, 3, 4, 5}
    assert zero_positions("11111") == frozenset()
    assert zero_positions("110") == {3}


def test_zero_positions_of_the_worked_pair():
    # the (t=5, t*=7) pair: slots needed vs slots kept
    assert zero_positions(epoch_bits(5, 32)) == {1, 2, 4}
    assert zero_positions(ct_epoch_bits(7, 32)) == {1, 2, 3, 4, 5}


def test_backdatable_epochs_lower_half():
    # a lower-half target keeps every slot, so every earlier epoch qualifies
    assert backdatable_epochs(7, 32) == [1, 2, 3, 4, 5, 6]
    assert backdatable_epochs(2, 32) == [1]
    assert backdatable_epochs(1, 32) == []


def test_backdatable_epochs_upper_half():
    # epoch 25 = "11000" keeps slots {3,4,5}; only epochs holding both
    # leading ones can go back to them
    assert backdatable_epochs(25, 32) == [24]
    assert backdatable_epochs(6, 8) == []
    assert backdatable_epochs(31, 32) == []


def test_backdatable_epochs_is_sound_and_complete():
    for max_time in (4, 8, 16, 32, 64):
        for t_star in range(1, max_time):
            kept = zero_positions(ct_epoch_bits(t_star, max_time))
            listed = backdatable_epochs(t_star, max_time)
            assert listed == sorted(listed)
            for t in range(1, t_star):
                wanted = zero_positions(epoch_bits(t, max_time)) <= kept
                assert (t in listed) == wanted, (t, t_star, max_time)


def test_encoding_shapes():
    for max_time in (4, 8, 16, 32, 64):
        tau = bit_width(max_time)
        for t in range(1, max_time):
            bits = epoch_bits(t, max_time)
            cbits = ct_epoch_bits(t, max_time)
            assert len(bits) == len(cbits) == tau
            assert int(bits, 2) == t
            # ct encoding: maximal all-ones prefix survives, the rest zeroed
            prefix = len(bits) - len(bits.lstrip("1"))
            assert cbits == "1" * prefix + "0" * (tau - prefix)
            assert zero_positions(cbits) >= zero_positions(bits)


def test_lemma_counts_match_enumeration():
    for tau in range(2, 9):
        top = 1 << tau
        regime, outside, samples = pairwise_counts(tau)
        assert regime == regime_pair_count(tau)
        assert outside == outside_vulnerable_count(tau)
        # the same counts, epoch by epoch, from the rewindability criterion itself
        per_epoch = [len(backdatable_epochs(t_star, top)) for t_star in range(1, top)]
        assert sum(per_epoch[: top // 2 - 1]) == regime
        assert sum(per_epoch[top // 2 - 1 :]) == outside
        assert all(
            t_star >= top // 2 and t in backdatable_epochs(t_star, top) for t, t_star in samples
        )
        assert len(samples) == min(5, outside)
        row = lemma_row(tau)
        assert row["check"] == "pairwise" and row["ok"]
    assert lemma_row(10)["check"] == "pairwise"  # the widest enumerated pair by pair


def test_factored_regime_check_holds_up_to_tau_12():
    assert all(factored_regime_check(tau) for tau in range(2, 13))
    row = lemma_row(12)
    assert row["check"] == "factored" and row["ok"]
    assert row["regime_vulnerable"] == regime_pair_count(12) == (2047 * 2046) // 2


def test_outside_count_sum_matches_the_per_epoch_count_at_every_width():
    # sum over i < tau-1 of C(2^i, 2): 0, 1, 1+6, 1+6+28, ...
    assert [outside_vulnerable_count(tau) for tau in range(2, 8)] == [0, 1, 7, 35, 155, 651]
    for tau in range(2, 17):
        assert outside_vulnerable_count(tau) == factored_outside_count(tau), tau


def test_lemma_rows_above_the_pairwise_widths_check_the_outside_count(monkeypatch):
    row = lemma_row(11)
    assert row["check"] == "factored" and row["ok"]
    assert row["outside_vulnerable"] == 174251
    # a closed form one pair off is caught above the pairwise widths too
    monkeypatch.setattr("rabe.timecode.outside_vulnerable_count", lambda tau: 174252)
    row = lemma_row(11)
    assert not row["ok"] and row["outside_vulnerable"] == 174251


@pytest.mark.parametrize("width, name, wrong", [
    pytest.param(5, "regime_pair_count", lambda tau: regime_pair_count(tau) + 1, id="regime"),
    pytest.param(5, "outside_vulnerable_count", lambda tau: outside_vulnerable_count(tau) + 1,
                 id="outside"),
    pytest.param(11, "factored_regime_check", lambda tau: False, id="factored-regime"),
])
def test_a_lemma_row_is_ok_only_when_each_check_holds(monkeypatch, width, name, wrong):
    """Each check a row rests on refuses on its own: a closed form one pair
    off, or a lower-half epoch that keeps too few update slots."""
    monkeypatch.setattr(timecode, name, wrong)
    assert not lemma_row(width)["ok"]
