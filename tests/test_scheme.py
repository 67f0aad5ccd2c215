import dataclasses
import doctest
import os
import subprocess
import sys

import pytest

import rabe
from rabe import bls12381 as bls
from rabe import serial
from rabe.errors import (
    EpochRangeError,
    MissingComponentError,
    ParameterError,
    SideMismatchError,
    UnknownIdentityError,
    UnsatisfiedPolicyError,
)
from rabe.groups import (
    REAL, SIDE_ONE, SIDE_TARGET, SIDE_TWO, TRANSPARENT, GroupElement, TransparentContext,
    new_context,
)
from rabe.policy import parse_policy, reconstruction_coefficients
from rabe.rng import SeededRng
from rabe.scheme import (
    MAX_USERS,
    KeyUpdate,
    decrypt,
    derive_dk,
    encrypt,
    fold_ciphertext,
    keygen,
    revoke,
    setup,
    update_ct,
    update_key,
)
from rabe.timecode import epoch_bits, zero_positions


def make_world(ctx, rng, n_users=8, max_time=32, attr_max=4):
    pp, mk, state, rl = setup(ctx, n_users, max_time, attr_max, rng)
    return pp, mk, state, rl


def lagrange_weight(i, points, x, p):
    num, den = 1, 1
    for j in points:
        if j != i:
            num = num * (x - j) % p
            den = den * (i - j) % p
    return num * pow(den, -1, p) % p


def test_full_roundtrip_transparent():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("roundtrip")
    pp, mk, state, rl = make_world(ctx, rng)
    policy = parse_policy("1 AND (2 OR 3)")
    sk = keygen(pp, mk, state, "alice", policy, rng)
    for epoch in (1, 7, 16, 25, 31):
        ku = update_key(pp, mk, state, rl, epoch, rng)
        dk = derive_dk(sk, ku)
        assert dk is not None and dk.epoch == epoch
        msg = ctx.random_element(SIDE_TARGET, rng)
        ct = encrypt(pp, {1, 2, 4}, epoch, msg, rng)
        ct2 = update_ct(pp, ct, epoch, rng)
        assert ct2 is not None
        assert decrypt(pp, ct2, dk) == msg


def test_full_roundtrip_real_backend():
    ctx = new_context(REAL)
    rng = SeededRng("roundtrip-real")
    pp, mk, state, rl = make_world(ctx, rng, n_users=2, max_time=8, attr_max=2)
    sk = keygen(pp, mk, state, "alice", parse_policy("1 OR 2"), rng)
    ku = update_key(pp, mk, state, rl, 3, rng)
    dk = derive_dk(sk, ku)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {2}, 3, msg, rng)
    assert decrypt(pp, update_ct(pp, ct, 3, rng), dk) == msg
    # mirrored pairs really carry the same exponent on both sides
    g = ctx.generator(SIDE_ONE)
    h = ctx.generator(SIDE_TWO)
    for pair in (pp.g2, pp.u0, pp.t_gens[0]):
        assert ctx.pair_product([(pair.one, h)]) == ctx.pair_product([(g, pair.two)])


@pytest.mark.parametrize("backend", [TRANSPARENT, REAL])
def test_setup_fills_the_blinding_base_with_the_pairing_value(backend):
    """setup makes e(g^alpha, g2) as a power of the target generator, the
    same element the pairing gives, and pp stores it through a round trip."""
    ctx = new_context(backend)
    pp, mk, *_ = setup(ctx, 2, 8, 2, SeededRng(f"blinding-base-{backend}"))
    base = ctx.pair_product([(ctx.generator(SIDE_ONE) ** mk.alpha, pp.g2.two)])
    assert pp.blind == base
    assert serial.pp_from_payload(serial.pp_payload(pp)).blind == base
    # a replaced anchor set keeps no T(x) of the old one
    t1 = pp.eval_t(1, SIDE_ONE)
    assert dataclasses.replace(pp, t_gens=pp.t_gens[::-1]).eval_t(1, SIDE_ONE) != t1


def test_real_exponentiations_make_one_curve_call_each(monkeypatch):
    """The benchmark's cost model: keygen makes 3 * rows * (depth + 1)
    g2_mul calls and builds no key-side T(x), and fold_ciphertext makes one
    fq12_pow_cyclo."""
    ctx = new_context(REAL)
    rng = SeededRng("cost-model")
    pp, mk, state, rl = make_world(ctx, rng, n_users=4, max_time=8, attr_max=3)
    policy = parse_policy("1 AND (2 OR 3)")
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1, 2}, 3, msg, rng)  # warms T(x) on side one
    calls = dict.fromkeys(("g2_mul", "fq12_pow_cyclo"), 0)

    def count(name):
        fn = getattr(bls, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(bls, name, counted)

    for name in calls:
        count(name)
    # with no base hot, keygen's repeated bases (g2.two, and the generator,
    # whose comb has its own teeth) build their combs inside g2_mul, which
    # counts no call either
    monkeypatch.setattr(bls._G2, "hot", {})
    keygen(pp, mk, state, "alice", policy, rng)
    combs = sorted(len(v) for v in bls._G2.hot.values() if not isinstance(v, int))
    assert combs == [1 << (bls._COMB_TEETH - 1), 1 << (bls._G2.gen_teeth - 1)]
    assert len(bls._G2.hot[bls.G2_GEN]) == 1 << (bls._G2.gen_teeth - 1)
    assert all(side != SIDE_TWO for side, _ in pp._t_cache)
    depth = state.capacity.bit_length() - 1
    assert calls == {"g2_mul": 3 * len(policy.rows) * (depth + 1), "fq12_pow_cyclo": 0}
    calls.update(g2_mul=0)
    fold_ciphertext(pp, ct, 3, rng)
    assert calls == {"g2_mul": 0, "fq12_pow_cyclo": 1}


def test_real_decrypt_makes_one_miller_loop_per_pair(monkeypatch):
    """The benchmark's decrypt cost model on BLS12-381: |I| + 2 Miller
    loops and one final exponentiation per decrypt, also once the key's G2
    elements have their lines kept."""
    ctx = new_context(REAL)
    rng = SeededRng("decrypt-cost-model")
    pp, mk, state, rl = make_world(ctx, rng, n_users=2, max_time=4, attr_max=3)
    policy = parse_policy("1 AND (2 OR 3)")
    dk = derive_dk(keygen(pp, mk, state, "alice", policy, rng), update_key(pp, mk, state, rl, 2, rng))
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = update_ct(pp, encrypt(pp, {1, 3}, 2, msg, rng), 2, rng)
    w = reconstruction_coefficients(policy, ct.attrs, ctx.prime_order)
    key_qs = [dk.d1.payload] + [dk.rows[i][1].payload for i in w]
    calls = {}

    def count(name):
        fn = getattr(bls, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(bls, name, counted)

    for name in ("miller_loop", "final_exponentiation"):
        count(name)
    monkeypatch.setattr(bls, "_LINES", {})
    for uses in range(1, 4):
        # the first use counts each Q, the second stores its lines, the third reads them
        assert all(isinstance(bls._LINES.get(q), list) == (uses == 3) for q in key_qs), uses
        calls.update(miller_loop=0, final_exponentiation=0)
        assert decrypt(pp, ct, dk) == msg
        assert calls == {"miller_loop": len(w) + 2, "final_exponentiation": 1}, uses


def test_attribute_generator_matches_interpolation_oracle():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("tgen")
    pp, _, _, _ = make_world(ctx, rng, attr_max=3)
    p = ctx.prime_order
    n = pp.attr_max
    b = pp.g2.one.transparent_log
    anchors = list(range(1, n + 1))
    for x in range(1, n + 1):
        expected = b * pow(x, n, p) % p
        for i, t in zip(anchors, pp.t_gens):
            expected = (expected + lagrange_weight(i, anchors, x, p) * t.one.transparent_log) % p
        assert pp.eval_t(x, SIDE_ONE).transparent_log == expected
        assert pp.eval_t(x, SIDE_TWO).transparent_log == expected
    # the closed form holds on the attribute universe only, as encrypt and
    # keygen admit it
    for x in (0, n + 1, 8):
        for side in (SIDE_ONE, SIDE_TWO):
            with pytest.raises(ParameterError, match=f"attribute {x} outside"):
                pp.eval_t(x, side)
    with pytest.raises(SideMismatchError):
        pp.eval_t(1, SIDE_TARGET)


def test_private_key_components_carry_share_vectors():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("keygen-logs")
    pp, mk, state, _ = make_world(ctx, rng)
    policy = parse_policy("(1 OR 2) AND 3")
    sk = keygen(pp, mk, state, "alice", policy, rng)
    p = ctx.prime_order
    b = pp.g2.two.transparent_log
    path = state.path(state.leaf_for("alice"))
    assert set(sk.parts) == set(path)
    for node in path:
        secret = int(state.node_secrets[node])
        lams = []
        for (k0, k1), attr in zip(sk.parts[node], policy.row_attrs):
            r = k1.transparent_log
            t_log = pp.eval_t(attr, SIDE_TWO).transparent_log
            lam = (k0.transparent_log - t_log * r) * pow(b, -1, p) % p
            lams.append(lam)
        # recombining the recovered shares along a satisfying set gives
        # back this node's secret
        w = reconstruction_coefficients(policy, {1, 3}, p)
        assert sum(c * lams[i] for i, c in w.items()) % p == secret


def test_key_update_components_bind_epoch_and_node():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("ku-logs")
    pp, mk, state, rl = make_world(ctx, rng)
    keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    p = ctx.prime_order
    b = pp.g2.two.transparent_log
    for epoch in (5, 12, 31):
        ku = update_key(pp, mk, state, rl, epoch, rng)
        base = pp.u0.two.transparent_log
        for j in zero_positions(epoch_bits(epoch, pp.max_time)):
            base = (base + pp.u_gens[j - 1].two.transparent_log) % p
        for node, (d0, d1) in ku.parts.items():
            r = d1.transparent_log
            secret = int(state.node_secrets[node])
            expected = (b * (int(mk.alpha) - secret) + base * r) % p
            assert d0.transparent_log == expected


def test_ciphertext_components_share_one_randomness():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("ct-logs")
    pp, _, _, _ = make_world(ctx, rng)
    p = ctx.prime_order
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1, 3}, 25, msg, rng)
    s = ct.c1.transparent_log
    alpha_b = pp.blind.transparent_log
    assert ct.c.transparent_log == (alpha_b * s + msg.transparent_log) % p
    for x, c2x in ct.c2.items():
        assert c2x.transparent_log == pp.eval_t(x, SIDE_ONE).transparent_log * s % p
    assert ct.e1.transparent_log == pp.u0.one.transparent_log * s % p
    # epoch 25 = "11001": the ciphertext encoding "11000" leaves slots 3..5
    assert set(ct.e2) == {3, 4, 5}
    for j, e2j in ct.e2.items():
        assert e2j.transparent_log == pp.u_gens[j - 1].one.transparent_log * s % p


def test_updated_ciphertext_folds_to_exact_epoch_base():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("fold-logs")
    pp, _, _, _ = make_world(ctx, rng)
    p = ctx.prime_order
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {2}, 25, msg, rng)
    ct2 = update_ct(pp, ct, 26, rng)
    s_total = ct2.c1.transparent_log
    assert s_total != ct.c1.transparent_log  # re-randomized
    base = pp.u0.one.transparent_log
    for j in zero_positions(epoch_bits(26, pp.max_time)):
        base = (base + pp.u_gens[j - 1].one.transparent_log) % p
    assert ct2.e_t.transparent_log == base * s_total % p
    alpha_b = pp.blind.transparent_log
    assert ct2.c.transparent_log == (alpha_b * s_total + msg.transparent_log) % p
    for x, c2x in ct2.c2.items():
        assert c2x.transparent_log == pp.eval_t(x, SIDE_ONE).transparent_log * s_total % p


def test_decrypt_decomposes_into_share_and_epoch_layers():
    # the fused product in decrypt equals the two-layer textbook form
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("decomp")
    pp, mk, state, rl = make_world(ctx, rng)
    policy = parse_policy("1 AND 2")
    sk = keygen(pp, mk, state, "alice", policy, rng)
    ku = update_key(pp, mk, state, rl, 9, rng)
    dk = derive_dk(sk, ku)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct2 = update_ct(pp, encrypt(pp, {1, 2}, 9, msg, rng), 9, rng)
    p = ctx.prime_order
    b = pp.g2.two.transparent_log
    s = ct2.c1.transparent_log
    x_node = int(state.node_secrets[dk.node])
    w = reconstruction_coefficients(policy, ct2.attrs, p)
    a1 = GroupElement(ctx, SIDE_TARGET, 0)
    for i, w_i in w.items():
        k0, k1 = dk.rows[i]
        num = ctx.pair_product([(ct2.c1, k0)])
        den = ctx.pair_product([(ct2.c2[policy.row_attrs[i]], k1)])
        a1 = a1 * (num / den) ** w_i
    a2 = ctx.pair_product([(ct2.c1, dk.d0)]) / ctx.pair_product([(ct2.e_t, dk.d1)])
    assert a1.transparent_log == s * b * x_node % p
    assert a2.transparent_log == s * b * (int(mk.alpha) - x_node) % p
    assert ct2.c / (a1 * a2) == msg
    assert decrypt(pp, ct2, dk) == msg


def test_revocation_blocks_key_derivation():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("revoke")
    pp, mk, state, rl = make_world(ctx, rng)
    sk_a = keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    sk_b = keygen(pp, mk, state, "bob", parse_policy("1"), rng)
    revoke(state, rl, "alice", 10, pp.max_time)
    for epoch, alive in ((9, True), (10, False), (20, False)):
        ku = update_key(pp, mk, state, rl, epoch, rng)
        assert (derive_dk(sk_a, ku) is not None) == alive
        dk_b = derive_dk(sk_b, ku)
        assert dk_b is not None
        msg = ctx.random_element(SIDE_TARGET, rng)
        ct2 = update_ct(pp, encrypt(pp, {1}, epoch, msg, rng), epoch, rng)
        assert decrypt(pp, ct2, dk_b) == msg
    with pytest.raises(UnknownIdentityError):
        revoke(state, rl, "stranger", 5, pp.max_time)


def test_forward_update_always_possible():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("forward")
    pp, mk, state, rl = make_world(ctx, rng, max_time=16)
    sk = keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    msg = ctx.random_element(SIDE_TARGET, rng)
    for t in range(1, 16):
        ct = encrypt(pp, {1}, t, msg, rng)
        for t2 in range(t, 16):
            ct2 = update_ct(pp, ct, t2, rng)
            assert ct2 is not None and ct2.epoch == t2
        # spot-check one decryption per origin epoch
        ct2 = update_ct(pp, ct, 15, rng)
        dk = derive_dk(sk, update_key(pp, mk, state, rl, 15, rng))
        assert decrypt(pp, ct2, dk) == msg


def test_backward_update_is_refused_but_folding_is_not():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("backward")
    pp, _, _, _ = make_world(ctx, rng)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1}, 7, msg, rng)
    assert update_ct(pp, ct, 5, rng) is None
    for epoch in (0, 32):  # epoch 0 lies before every ciphertext yet is refused, not None
        with pytest.raises(EpochRangeError, match=f"epoch {epoch} outside"):
            update_ct(pp, ct, epoch, rng)
    folded = fold_ciphertext(pp, ct, 5, rng)
    assert folded.epoch == 5


def test_folding_fails_without_the_needed_slots():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("missing")
    pp, _, _, _ = make_world(ctx, rng, max_time=8)
    msg = ctx.random_element(SIDE_TARGET, rng)
    # epoch 6 = "110" keeps its encoding, so only slot 3 ships
    ct = encrypt(pp, {1}, 6, msg, rng)
    assert set(ct.e2) == {3}
    for target in (1, 2, 3, 4):
        with pytest.raises(MissingComponentError):
            fold_ciphertext(pp, ct, target, rng)
    # epoch 5 = "101" needs exactly slot 2, which the error names
    with pytest.raises(MissingComponentError, match=r"components \[2\]"):
        fold_ciphertext(pp, ct, 5, rng)


def test_decrypt_rejects_unsatisfied_policy():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("unsat")
    pp, mk, state, rl = make_world(ctx, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1 AND 2"), rng)
    dk = derive_dk(sk, update_key(pp, mk, state, rl, 4, rng))
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct2 = update_ct(pp, encrypt(pp, {2, 3}, 4, msg, rng), 4, rng)
    with pytest.raises(UnsatisfiedPolicyError):
        decrypt(pp, ct2, dk)


def test_decrypt_rejects_ciphertext_missing_an_attribute_component():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("shape-ct")
    pp, mk, state, rl = make_world(ctx, rng)
    dk = derive_dk(keygen(pp, mk, state, "alice", parse_policy("1 AND 2"), rng),
                   update_key(pp, mk, state, rl, 4, rng))
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct2 = update_ct(pp, encrypt(pp, {1, 2}, 4, msg, rng), 4, rng)
    assert decrypt(pp, ct2, dk) == msg
    # a ciphertext's attributes are its c2 keys: without c2[2] it is one for
    # attribute 1 alone, which the policy refuses
    short = dataclasses.replace(ct2, c2={1: ct2.c2[1]})
    assert short.attrs == {1}
    with pytest.raises(UnsatisfiedPolicyError):
        decrypt(pp, short, dk)


def test_decrypt_rejects_key_with_wrong_row_count():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("shape-dk")
    pp, mk, state, rl = make_world(ctx, rng)
    dk = derive_dk(keygen(pp, mk, state, "alice", parse_policy("1 AND (2 OR 3)"), rng),
                   update_key(pp, mk, state, rl, 4, rng))
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct2 = update_ct(pp, encrypt(pp, {1, 2, 3}, 4, msg, rng), 4, rng)
    assert decrypt(pp, ct2, dk) == msg
    # the decryption key class refuses to hold such a key at all
    with pytest.raises(ParameterError, match="'rows' holds 1 rows, not 3"):
        dataclasses.replace(dk, rows=dk.rows[:1])
    with pytest.raises(ParameterError, match="'rows' holds 4 rows, not 3"):
        dataclasses.replace(dk, rows=dk.rows + dk.rows[:1])


def test_params_and_private_keys_check_their_shapes():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("shape-pp")
    pp, mk, state, rl = make_world(ctx, rng)
    with pytest.raises(ParameterError, match="'attr_max' is 0, not at least 1"):
        setup(ctx, 8, 32, 0, rng)
    with pytest.raises(ParameterError, match="'t_gens' holds 3 entries, not 4"):
        dataclasses.replace(pp, t_gens=pp.t_gens[:-1])
    with pytest.raises(ParameterError, match="'t_gens' holds 5 entries, not 4"):
        dataclasses.replace(pp, t_gens=pp.t_gens + pp.t_gens[:1])
    with pytest.raises(ParameterError, match="'u_gens' holds 6 entries, not 5"):
        dataclasses.replace(pp, u_gens=pp.u_gens + pp.u_gens[:1])
    sk = keygen(pp, mk, state, "alice", parse_policy("1 AND 2"), rng)
    with pytest.raises(ParameterError, match="'parts' holds 3 rows, not 2"):
        dataclasses.replace(sk, parts={**sk.parts, 1: sk.parts[1] + sk.parts[1][:1]})


def test_setup_draws_every_node_secret_and_keys_only_read_them():
    """Setup draws a secret for each node 1..2*capacity-1, in node order,
    after alpha, beta, the T_i, u0 and the u_j; keygen and update_key read
    the tree's secrets and change none."""
    ctx = new_context(TRANSPARENT)
    pp, mk, state, rl = setup(ctx, 5, 16, 3, SeededRng("secrets"))
    replay = SeededRng("secrets")
    for _ in range(2 + 3 + 1 + 4):
        ctx.random_scalar(replay)
    assert state.capacity == 8
    assert state.node_secrets == {node: ctx.random_scalar(replay) for node in range(1, 16)}
    drawn = dict(state.node_secrets)
    rng = SeededRng("secrets/use")
    for who in ("alice", "bob", "carol"):
        keygen(pp, mk, state, who, parse_policy("1 AND 2"), rng)
    revoke(state, rl, "bob", 3, pp.max_time)
    for epoch in (2, 3, 9):
        update_key(pp, mk, state, rl, epoch, rng)
    assert state.node_secrets == drawn
    assert setup(ctx, 1, 16, 3, rng)[2].node_secrets.keys() == {1}
    for n_users in (0, -3):
        with pytest.raises(ParameterError, match=f"n_users is {n_users}, not at least 1"):
            setup(ctx, n_users, 16, 3, rng)


def test_setup_refuses_n_users_above_the_cap_before_any_draw(no_draws):
    ctx = new_context(TRANSPARENT)
    assert MAX_USERS == 1 << 16
    for n_users in (MAX_USERS + 1, 2**32, 2**30 + 3):
        with pytest.raises(ParameterError, match=f"n_users is {n_users}, above the cap of 65536"):
            setup(ctx, n_users, 16, 3, no_draws)
    # the cap itself passes the check: the master key's draw comes next
    with pytest.raises(AssertionError, match="drew a scalar"):
        setup(ctx, MAX_USERS, 16, 3, no_draws)


def test_epoch_mismatch_yields_garbage_not_plaintext():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("mismatch")
    pp, mk, state, rl = make_world(ctx, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    dk_late = derive_dk(sk, update_key(pp, mk, state, rl, 20, rng))
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct2 = update_ct(pp, encrypt(pp, {1}, 4, msg, rng), 4, rng)
    assert decrypt(pp, ct2, dk_late) != msg


def test_derive_dk_rejects_overlapping_cover():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("overlap")
    pp, mk, state, rl = make_world(ctx, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    ku = update_key(pp, mk, state, rl, 4, rng)
    d = next(iter(ku.parts.values()))
    path = state.path(state.leaf_for("alice"))
    bogus = KeyUpdate(epoch=4, parts={path[0]: d, path[1]: d})
    with pytest.raises(ParameterError):
        derive_dk(sk, bogus)


def test_input_validation():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("validate")
    pp, mk, state, rl = make_world(ctx, rng)
    msg = ctx.random_element(SIDE_TARGET, rng)
    with pytest.raises(ParameterError):
        encrypt(pp, {99}, 5, msg, rng)
    with pytest.raises(EpochRangeError):
        encrypt(pp, {1}, 0, msg, rng)
    with pytest.raises(EpochRangeError):
        update_key(pp, mk, state, rl, 32, rng)
    with pytest.raises(SideMismatchError):
        encrypt(pp, {1}, 5, ctx.random_element(SIDE_ONE, rng), rng)
    other = TransparentContext(2**31 - 1)
    with pytest.raises(SideMismatchError):
        encrypt(pp, {1}, 5, other.random_element(SIDE_TARGET, rng), rng)
    with pytest.raises(ParameterError):
        keygen(pp, mk, state, "zed", parse_policy("9"), rng)
    with pytest.raises(ParameterError):
        setup(ctx, 0, 32, 4, rng)


def test_seeded_runs_reproduce_artifacts_bit_for_bit():
    def build(seed):
        ctx = new_context(TRANSPARENT)
        rng = SeededRng(seed)
        pp, mk, state, rl = make_world(ctx, rng)
        sk = keygen(pp, mk, state, "alice", parse_policy("1 OR 2"), rng)
        ku = update_key(pp, mk, state, rl, 6, rng)
        ct = encrypt(pp, {1}, 6, ctx.random_element(SIDE_TARGET, rng), rng)
        first_row = sk.parts[1][0]
        return (ct.c.encode(), ct.e1.encode(), first_row[0].encode(), ku.parts[1][0].encode())

    assert build(42) == build(42)
    assert build(42) != build(43)


def test_quick_tour_in_the_package_docstring_runs():
    result = doctest.testmod(rabe)
    assert result.failed == 0 and result.attempted >= 11, result


def test_importing_the_package_loads_no_module():
    """Each name has one import path, its owning module: the package root
    imports nothing, and a module loads only what it uses."""
    code = ("import sys, {}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rabe')))")
    src = os.path.dirname(os.path.dirname(rabe.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for module, loaded in ("rabe", "rabe"), ("rabe.rng", "rabe rabe.rng"):
        out = subprocess.run([sys.executable, "-c", code.format(module)], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == loaded
    # the CLI imports the game only in attack-demo, and never the audit
    out = subprocess.run([sys.executable, "-c", code.format("rabe.cli")], env=env,
                         capture_output=True, text=True, check=True)
    assert "rabe.cli" in out.stdout.split()
    assert not {"rabe.game", "rabe.audit"} & set(out.stdout.split())


# ---------------------------------------------------------------------------
# each loaded artifact's check against the deployment


@pytest.fixture(scope="module")
def context_world():
    """A transparent 8/32/4 deployment with bob revoked at epoch 3, so the
    cover at epoch 25 is {3, 5, 8} and alice's dk sits at her leaf, 8."""
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("context-checks")
    pp, mk, state, rl = make_world(ctx, rng)
    policy = parse_policy("1 AND (2 OR 3)")
    sk = keygen(pp, mk, state, "alice", policy, rng)
    keygen(pp, mk, state, "bob", policy, rng)
    revoke(state, rl, "bob", 3, pp.max_time)
    ku = update_key(pp, mk, state, rl, 25, rng)
    ct = encrypt(pp, {1, 2}, 25, ctx.random_element(SIDE_TARGET, rng), rng)  # slots {3, 4, 5}
    artifacts = {"sk": sk, "ku": ku, "dk": derive_dk(sk, ku), "ct": ct,
                 "ct2": update_ct(pp, ct, 25, rng)}
    assert sorted(ku.parts) == [3, 5, 8] and artifacts["dk"].node == 8
    return pp, state, artifacts


def _attrs(*attrs):
    return lambda ct: dataclasses.replace(ct, c2={a: ct.c2[1] for a in attrs})


def _replace(**changes):
    return lambda obj: dataclasses.replace(obj, **changes)


def _parts(edit):
    return lambda obj: dataclasses.replace(obj, parts=edit(obj.parts))


_OUTSIDE_POLICY = parse_policy("1 AND (2 OR 5)")

# (artifact, tampering, the start of the refusal)
TAMPERED = {
    "sk-policy-attr-5": ("sk", _replace(policy=_OUTSIDE_POLICY),
                         "field 'policy': attribute 5 outside [1, 4]"),
    "sk-identity-unknown": ("sk", _replace(identity="mallory"),
                            "field 'identity': identity 'mallory' has no leaf"),
    "sk-part-dropped": ("sk", _parts(lambda p: {n: p[n] for n in (1, 2, 4)}),
                        "field 'parts': nodes [1, 2, 4], not the path [1, 2, 4, 8] of 'alice'"),
    "sk-part-off-the-path": ("sk", _parts(lambda p: {**p, 3: p[1]}),
                             "field 'parts': nodes [1, 2, 3, 4, 8], not"),
    "ku-epoch-zero": ("ku", _replace(epoch=0), "field 'epoch': epoch 0 outside [1, 31]"),
    "ku-epoch-past-the-range": ("ku", _replace(epoch=32), "field 'epoch': epoch 32 outside [1, 31]"),
    "ku-node-zero": ("ku", _parts(lambda p: {**p, 0: p[3]}),
                     "field 'parts': node 0 outside tree of capacity 8"),
    "ku-node-past-the-tree": ("ku", _parts(lambda p: {**p, 16: p[3]}),
                              "field 'parts': node 16 outside tree of capacity 8"),
    "ku-parts-nested": ("ku", _parts(lambda p: {**p, 2: p[3]}),
                        "field 'parts': node 2 and its descendant 5"),
    "ku-parts-under-the-root": ("ku", _parts(lambda p: {**p, 1: p[3]}),
                                "field 'parts': node 1 and its descendant 3"),
    "dk-policy-attr-5": ("dk", _replace(policy=_OUTSIDE_POLICY),
                         "field 'policy': attribute 5 outside [1, 4]"),
    "dk-epoch-zero": ("dk", _replace(epoch=0), "field 'epoch': epoch 0 outside [1, 31]"),
    "dk-epoch-past-the-range": ("dk", _replace(epoch=32), "field 'epoch': epoch 32 outside [1, 31]"),
    "dk-identity-unknown": ("dk", _replace(identity="mallory"),
                            "field 'identity': identity 'mallory' has no leaf"),
    "dk-node-off-the-path": ("dk", _replace(node=3),
                             "field 'node': node 3 is not on the path [1, 2, 4, 8] of 'alice'"),
    "dk-node-past-the-tree": ("dk", _replace(node=16), "field 'node': node 16 is not on the path"),
    "ct-attr-0": ("ct", _attrs(0, 1, 2), "field 'c2': attribute 0 outside [1, 4]"),
    "ct-attr-5": ("ct", _attrs(1, 2, 5), "field 'c2': attribute 5 outside [1, 4]"),
    "ct-epoch-zero": ("ct", _replace(epoch=0), "field 'epoch': epoch 0 outside [1, 31]"),
    "ct-epoch-past-the-range": ("ct", _replace(epoch=32), "field 'epoch': epoch 32 outside [1, 31]"),
    "ct-slot-dropped": ("ct", lambda ct: dataclasses.replace(ct, e2={3: ct.e2[3], 4: ct.e2[4]}),
                        "field 'e2': slots [3, 4], not [3, 4, 5], the zero positions of epoch 25"),
    "ct-slot-added": ("ct", lambda ct: dataclasses.replace(ct, e2={**ct.e2, 1: ct.e2[3]}),
                      "field 'e2': slots [1, 3, 4, 5], not [3, 4, 5]"),
    "ct2-attr-5": ("ct2", _attrs(1, 5), "field 'c2': attribute 5 outside [1, 4]"),
    "ct2-epoch-zero": ("ct2", _replace(epoch=0), "field 'epoch': epoch 0 outside [1, 31]"),
    "ct2-epoch-past-the-range": ("ct2", _replace(epoch=32),
                                 "field 'epoch': epoch 32 outside [1, 31]"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_each_context_check_refuses_its_tampered_artifact(context_world, case):
    pp, tree, artifacts = context_world
    name, tamper, refusal = TAMPERED[case]
    artifacts[name].check(pp, tree)
    with pytest.raises(ParameterError) as info:
        tamper(artifacts[name]).check(pp, tree)
    assert str(info.value).startswith(refusal), info.value


@pytest.mark.parametrize("backend, widths, users", [
    (TRANSPARENT, (4, 8, 16, 32, 64), 6),
    (REAL, (8, 32), 3),
], ids=[TRANSPARENT, REAL])
def test_every_artifact_a_run_makes_passes_its_check(backend, widths, users):
    """Keys at every depth of the cover, with users revoked at drawn epochs,
    and ciphertexts moved forward, at several epoch widths."""
    ctx = new_context(backend)
    checked = {"sk": 0, "ku": 0, "dk": 0, "ct": 0, "ct2": 0}
    dk_nodes = set()
    for max_time in widths:
        rng = SeededRng(f"context-complete/{backend}/{max_time}")
        pp, mk, state, rl = setup(ctx, users + 2, max_time, 3, rng)
        sks = [keygen(pp, mk, state, f"u{i}", parse_policy("1 AND (2 OR 3)"), rng)
               for i in range(users)]
        for sk in sks[: users // 2]:
            revoke(state, rl, sk.identity, 1 + rng.randbelow(max_time - 1), max_time)
        epochs = sorted({1, max_time - 1} | {1 + rng.randbelow(max_time - 1) for _ in range(2)})
        made = [("sk", sk) for sk in sks]
        for t in epochs:
            ku = update_key(pp, mk, state, rl, t, rng)
            made.append(("ku", ku))
            for sk in sks:
                dk = derive_dk(sk, ku)
                if dk is not None:
                    made.append(("dk", dk))
                    dk_nodes.add((max_time, dk.node >= state.capacity))
            ct = encrypt(pp, {1, 2}, t, ctx.random_element(SIDE_TARGET, rng), rng)
            t2 = t + rng.randbelow(max_time - t)
            made += [("ct", ct), ("ct2", update_ct(pp, ct, t2, rng))]
        for kind, artifact in made:
            artifact.check(pp, state)
            checked[kind] += 1
    assert all(checked.values()), checked
    # some keys sit at leaves and some above them
    assert {leaf for _, leaf in dk_nodes} == {True, False}
