"""Epoch bit encodings.

Epochs t in [1, max_time - 1] are encoded as fixed-width big-endian bit
strings of length tau = log2(max_time).  Key updates bind the exact epoch
(epoch_bits); ciphertexts bind only the maximal leading run of ones
(ct_epoch_bits), zeroing every position from the first 0 onwards so that a
ciphertext can later be moved forward to any epoch whose zero positions are
covered.  That asymmetry is what makes ciphertexts backdatable: whenever the
zero positions of an earlier epoch's exact encoding are a subset of the
ciphertext encoding's zero positions, the earlier epoch's slot value can be
assembled from the published components.

Positions are 1-based from the most significant bit, matching the update
component indexing used by the scheme.
"""

from __future__ import annotations

from .errors import EpochRangeError, ParameterError


def bit_width(max_time: int) -> int:
    """Number of bits tau for a horizon of max_time epochs (a power of two >= 4)."""
    if max_time < 4 or max_time & (max_time - 1) != 0:
        raise ParameterError(f"max_time must be a power of two >= 4, got {max_time}")
    return max_time.bit_length() - 1


def check_epoch(t: int, max_time: int) -> None:
    """Epochs run 1..max_time - 1; epoch 0 is reserved."""
    if not 1 <= t < max_time:
        raise EpochRangeError(f"epoch {t} outside [1, {max_time - 1}]")


def epoch_bits(t: int, max_time: int) -> str:
    """Exact encoding: big-endian binary of t, left-padded with zeros."""
    tau = bit_width(max_time)
    check_epoch(t, max_time)
    return format(t, f"0{tau}b")


def ct_epoch_bits(t: int, max_time: int) -> str:
    """Ciphertext encoding: keep the leading all-ones run of the exact
    encoding, force everything from the first 0 onwards to 0."""
    bits = epoch_bits(t, max_time)
    ones = 0
    while ones < len(bits) and bits[ones] == "1":
        ones += 1
    return bits[:ones] + "0" * (len(bits) - ones)


def zero_positions(bits: str) -> frozenset[int]:
    """1-based indices of the 0 bits, position 1 being the most significant."""
    return frozenset(i + 1 for i, b in enumerate(bits) if b == "0")


def backdatable_epochs(t_star: int, max_time: int) -> list[int]:
    """All epochs t in [1, t_star) whose exact-encoding zero positions are
    covered by the ciphertext-encoding zero positions of t_star, ascending.

    A ciphertext issued for t_star can be rewound to exactly these epochs.
    For every t_star < max_time/2 the ciphertext encoding is all zeros, so
    the whole range [1, t_star) qualifies.  Read as integers, the covering
    says t has a 1 wherever the ciphertext encoding kept one.
    """
    kept = int(ct_epoch_bits(t_star, max_time), 2)
    return [t for t in range(1, t_star) if t & kept == kept]


PAIRWISE_TAU_MAX = 10  # widths up to this are checked pair by pair


def pairwise_counts(tau: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Literal enumeration of every pair 0 < t < t* < 2^tau, through
    backdatable_epochs: the vulnerable pairs with t* in the lower half,
    those outside it, and up to five samples of the latter."""
    top = 1 << tau
    regime = outside = 0
    samples = []
    for t_star in range(2, top):
        listed = backdatable_epochs(t_star, top)
        if t_star < top >> 1:
            regime += len(listed)
        else:
            outside += len(listed)
            samples += [(t, t_star) for t in listed[:5 - len(samples)]]
    return regime, outside, samples


def regime_pair_count(tau: int) -> int:
    """Pairs 0 < t < t* < 2^(tau-1), all of which the lemma says are vulnerable."""
    n = (1 << (tau - 1)) - 1
    return n * (n - 1) // 2


def outside_vulnerable_count(tau: int) -> int:
    """Closed form: the upper-half t* with k leading ones (1 <= k < tau) are
    the 2^(tau-k-1) epochs from their kept prefix on, and each rewinds to the
    earlier ones among them, so they hold C(2^(tau-k-1), 2) vulnerable pairs."""
    return sum((1 << i) * ((1 << i) - 1) // 2 for i in range(tau - 1))


def factored_outside_count(tau: int) -> int:
    """The vulnerable pairs outside the lower half, t* by t*: by the bit rule
    t & kept == kept, with kept t*'s ciphertext encoding read as an integer,
    t* rewinds to exactly the t in kept..t*-1."""
    top = 1 << tau
    return sum(t_star - int(ct_epoch_bits(t_star, top), 2) for t_star in range(top >> 1, top))


def factored_regime_check(tau: int) -> bool:
    """Every lower-half epoch keeps all update slots; checking that per
    epoch covers every pair without enumerating the pairs."""
    top = 1 << tau
    full = frozenset(range(1, tau + 1))
    return all(
        zero_positions(ct_epoch_bits(t_star, top)) == full
        for t_star in range(1, top >> 1)
    )


def lemma_row(tau: int) -> dict:
    """One row of the lemma check: the closed-form counts for width tau.  Up
    to PAIRWISE_TAU_MAX enumeration confirms both.  Above it the factored
    per-epoch checks do: every lower-half t* keeps every update slot, so the
    lower-half count is the closed form's, and the count outside it is
    summed t* by t*."""
    expected_regime = regime_pair_count(tau)
    expected_outside = outside_vulnerable_count(tau)
    if tau <= PAIRWISE_TAU_MAX:
        regime, outside, samples = pairwise_counts(tau)
        ok = regime == expected_regime and outside == expected_outside
        method = "pairwise"
    else:
        regime, outside, samples = expected_regime, factored_outside_count(tau), []
        ok = factored_regime_check(tau) and outside == expected_outside
        method = "factored"
    return {
        "tau": tau,
        "regime_pairs": expected_regime,
        "regime_vulnerable": regime,
        "outside_vulnerable": outside,
        "check": method,
        "ok": ok,
        "outside_samples": samples,
    }
