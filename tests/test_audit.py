"""The audit layer must accept honest artifacts and flag every tampered field."""

import dataclasses

import pytest

from rabe import audit
from rabe.errors import BackendMismatchError
from rabe.groups import REAL, SIDE_ONE, SIDE_TARGET, SIDE_TWO, TRANSPARENT, new_context
from rabe.policy import parse_policy
from rabe.rng import SeededRng
from rabe.scheme import (
    KeyUpdate,
    OriginalCiphertext,
    PrivateKey,
    UpdatedCiphertext,
    derive_dk,
    encrypt,
    fold_ciphertext,
    keygen,
    revoke,
    setup,
    update_ct,
    update_key,
)


def build(seed="audit"):
    ctx = new_context(TRANSPARENT)
    rng = SeededRng(seed)
    pp, mk, state, rl = setup(ctx, 4, 16, 3, rng)
    policy = parse_policy("1 AND (2 OR 3)")
    sk = keygen(pp, mk, state, "alice", policy, rng)
    ku = update_key(pp, mk, state, rl, 5, rng)
    dk = derive_dk(sk, ku)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1, 2}, 5, msg, rng)
    ct2 = update_ct(pp, ct, 5, rng)
    return ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2


def test_honest_artifacts_audit_clean():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    checks = []
    checks += audit.audit_private_key(pp, mk, state, sk)
    checks += audit.audit_key_update(pp, mk, state, rl, ku)
    checks += audit.audit_decryption_key(pp, mk, state, dk)
    checks += audit.audit_original_ct(pp, mk, ct, message=msg)
    checks += audit.audit_updated_ct(pp, mk, ct2, message=msg)
    assert checks and not audit.failures(checks)
    audit.assert_clean(checks)
    report = audit.format_report(checks)
    assert "ok" in report and "FAIL" not in report


def test_backdated_ciphertext_is_a_well_formed_earlier_ciphertext():
    # folding back in time produces an artifact indistinguishable from an
    # honest update to that epoch; the audit must agree
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    earlier = fold_ciphertext(pp, ct, 3, rng)
    audit.assert_clean(audit.audit_updated_ct(pp, mk, earlier, message=msg))


def test_revoked_cover_is_checked():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    keygen(pp, mk, state, "bob", parse_policy("2"), rng)
    revoke(state, rl, "alice", 6, pp.max_time)
    ku6 = update_key(pp, mk, state, rl, 6, rng)
    audit.assert_clean(audit.audit_key_update(pp, mk, state, rl, ku6))
    # an update claiming the pre-revocation cover no longer matches
    stale = KeyUpdate(epoch=6, parts=ku.parts)
    bad = audit.failures(audit.audit_key_update(pp, mk, state, rl, stale))
    assert bad


def test_tampered_private_key_row_is_flagged():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    node = next(iter(sk.parts))
    rows = list(sk.parts[node])
    k0, k1 = rows[0]
    rows[0] = (k0 * pp.g2.two, k1)  # shift one share component
    tampered = PrivateKey(identity=sk.identity, policy=sk.policy, parts={**sk.parts, node: tuple(rows)})
    bad = audit.failures(audit.audit_private_key(pp, mk, state, tampered))
    assert bad
    with pytest.raises(audit.AuditError):
        audit.assert_clean(audit.audit_private_key(pp, mk, state, tampered))


def test_share_vector_must_encode_the_node_secret():
    # swap two nodes' row sets: every row is internally well-formed, but the
    # shares no longer recombine to the right node secret
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    nodes = sorted(sk.parts)
    a, b = nodes[0], nodes[1]
    swapped = dict(sk.parts)
    swapped[a], swapped[b] = sk.parts[b], sk.parts[a]
    tampered = PrivateKey(identity=sk.identity, policy=sk.policy, parts=swapped)
    assert audit.failures(audit.audit_private_key(pp, mk, state, tampered))


def test_tampered_update_component_is_flagged():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    node, (d0, d1) = next(iter(ku.parts.items()))
    tampered = KeyUpdate(epoch=ku.epoch, parts={**ku.parts, node: (d0 * pp.u0.two, d1)})
    assert audit.failures(audit.audit_key_update(pp, mk, state, rl, tampered))


def test_tampered_ciphertext_fields_are_flagged():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    g1 = ctx.generator(SIDE_ONE)

    wrong_c = OriginalCiphertext(
        epoch=ct.epoch, c=ct.c * pp.blind,
        c1=ct.c1, c2=ct.c2, e1=ct.e1, e2=ct.e2,
    )
    assert audit.failures(audit.audit_original_ct(pp, mk, wrong_c, message=msg))
    # without the message the blinding cannot be checked, the rest still can
    audit.assert_clean(audit.audit_original_ct(pp, mk, wrong_c))

    wrong_attr = OriginalCiphertext(
        epoch=ct.epoch, c=ct.c, c1=ct.c1,
        c2={**ct.c2, 2: ct.c2[2] * g1}, e1=ct.e1, e2=ct.e2,
    )
    assert audit.failures(audit.audit_original_ct(pp, mk, wrong_attr, message=msg))

    missing_slot = OriginalCiphertext(
        epoch=ct.epoch, c=ct.c, c1=ct.c1, c2=ct.c2,
        e1=ct.e1, e2={j: v for j, v in ct.e2.items() if j != 2},
    )
    assert audit.failures(audit.audit_original_ct(pp, mk, missing_slot, message=msg))

    wrong_fold = UpdatedCiphertext(
        epoch=ct2.epoch, c=ct2.c, c1=ct2.c1, c2=ct2.c2,
        e_t=ct2.e_t * pp.u_gens[0].one,
    )
    assert audit.failures(audit.audit_updated_ct(pp, mk, wrong_fold, message=msg))


def test_inconsistent_randomness_across_components_is_flagged():
    # c2 components taken from a second encryption share no randomness with c1
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    other = encrypt(pp, ct.attrs, ct.epoch, msg, rng)
    frankenstein = OriginalCiphertext(
        epoch=ct.epoch, c=ct.c, c1=ct.c1,
        c2=other.c2, e1=ct.e1, e2=ct.e2,
    )
    assert audit.failures(audit.audit_original_ct(pp, mk, frankenstein, message=msg))


def test_audit_requires_the_transparent_backend():
    ctx = new_context(REAL)
    rng = SeededRng("real-audit")
    pp, mk, state, rl = setup(ctx, 2, 8, 2, rng)
    with pytest.raises(BackendMismatchError):
        audit.read_params(pp, mk)


def test_mirror_violation_in_params_is_flagged():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    h = ctx.generator(SIDE_TWO)
    from rabe.scheme import MirroredPair, PublicParams

    crooked = PublicParams(
        ctx=pp.ctx, max_time=pp.max_time, attr_max=pp.attr_max,
        blind=pp.blind, g2=pp.g2, t_gens=pp.t_gens,
        u0=MirroredPair(pp.u0.one, pp.u0.two * h), u_gens=pp.u_gens,
    )
    logs, checks = audit.read_params(crooked, mk)
    assert audit.failures(checks)


def test_wrong_blinding_base_in_params_is_flagged():
    ctx, rng, pp, mk, state, rl, policy, sk, ku, dk, msg, ct, ct2 = build()
    assert not audit.failures(audit.read_params(pp, mk)[1])
    pp = dataclasses.replace(pp, blind=pp.blind * ctx.generator(SIDE_TARGET))
    logs, checks = audit.read_params(pp, mk)
    assert [c.label for c in audit.failures(checks)] == ["blind = e(g, g~)^(alpha beta)"]
