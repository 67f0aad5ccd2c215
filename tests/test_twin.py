"""The transparent twin of the real backend.

A TransparentContext of order bls12381.R draws from a seeded stream exactly
the scalars a real context draws from it.  So the scheme, run on both with
the same stream, makes on the real backend each element as its side's
generator raised to the twin element's logarithm, which rabe.audit checks
against its defining formula.  Every real element gets an exact expected
value, whatever path (chains, tables, kept lines, GT powers) computed it.
The twin is never serialized: an 8-byte transparent element cannot hold a
255-bit logarithm.
"""

import dataclasses

import pytest

from rabe import audit
from rabe import bls12381 as bls
from rabe.game import BackdateAdversary, challenger_run, transcript_payload
from rabe.groups import REAL, SIDE_TARGET, GroupElement, Scalar, TransparentContext, new_context
from rabe.policy import AccessPolicy, parse_policy
from rabe.rng import SeededRng
from rabe.scheme import (
    decrypt, derive_dk, encrypt, keygen, revoke, setup, update_ct, update_key,
)

REAL_CTX = new_context(REAL)


def twin():
    return TransparentContext(bls.R)


def lift(element: GroupElement) -> GroupElement:
    """The real counterpart of a twin element: its side's real generator
    raised to the element's logarithm."""
    return REAL_CTX.generator(element.side) ** element.transparent_log


def _leaves(obj, path="", out=None) -> dict:
    """path -> value for every element, scalar and plain value obj holds,
    walking dataclass fields (not the context or private caches), mappings
    and sequences."""
    out = {} if out is None else out
    if isinstance(obj, AccessPolicy):
        out[path] = obj.formula
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name != "ctx" and not f.name.startswith("_"):
                _leaves(getattr(obj, f.name), f"{path}.{f.name}", out)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            _leaves(obj[key], f"{path}[{key!r}]", out)
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            _leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = obj
    return out


def assert_lift_equal(twin_obj, real_obj) -> int:
    """Each element of real_obj is the lift of its twin; every scalar and
    plain value is equal.  Returns the number of elements compared."""
    twins, reals = _leaves(twin_obj), _leaves(real_obj)
    assert twins.keys() == reals.keys()
    elements = 0
    for path, value in twins.items():
        if isinstance(value, GroupElement):
            assert value.ctx.prime_order == bls.R and reals[path].backend == REAL, path
            assert lift(value) == reals[path], path
            elements += 1
        elif isinstance(value, Scalar):
            assert value.value == reals[path].value, path
        else:
            assert value == reals[path], path
    return elements


def _scenario(ctx, seed, n_users, max_time, attr_max):
    """Two keys, a revocation, key updates before and after it, and a
    ciphertext moved forward to be decrypted.  Returns every artifact, and
    the audit of each when ctx is the twin."""
    rng = SeededRng(seed)
    pp, mk, tree, rl = setup(ctx, n_users, max_time, attr_max, rng)
    top = " AND ".join(str(x) for x in range(1, attr_max + 1))
    sk_a = keygen(pp, mk, tree, "alice", parse_policy("1 OR 2"), rng)
    sk_b = keygen(pp, mk, tree, "bob", parse_policy(top), rng)
    before, revoked, after = 2, max_time // 2, max_time - 1
    ku_before = update_key(pp, mk, tree, rl, before, rng)
    revoke(tree, rl, "bob", revoked, max_time)
    ku_after = update_key(pp, mk, tree, rl, after, rng)  # makes node secrets off bob's path
    dk_a = derive_dk(sk_a, ku_after)
    dk_b = derive_dk(sk_b, ku_before)
    assert derive_dk(sk_b, ku_after) is None
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, set(range(1, attr_max + 1)), 1, msg, rng)
    ct_after = update_ct(pp, ct, after, rng)
    ct_before = update_ct(pp, ct, before, rng)
    out = decrypt(pp, ct_after, dk_a)
    assert out == msg and decrypt(pp, ct_before, dk_b) == msg
    artifacts = {
        "pp": pp, "mk": mk, "tree": tree, "rl": rl, "sk_a": sk_a, "sk_b": sk_b,
        "ku_before": ku_before, "ku_after": ku_after, "dk_a": dk_a, "dk_b": dk_b,
        "msg": msg, "ct": ct, "ct_after": ct_after, "ct_before": ct_before, "out": out,
    }
    if ctx.backend == REAL:
        return artifacts, []
    checks = audit.read_params(pp, mk)[1]
    for sk in (sk_a, sk_b):
        checks += audit.audit_private_key(pp, mk, tree, sk)
    for ku in (ku_before, ku_after):
        checks += audit.audit_key_update(pp, mk, tree, rl, ku)
    for dk in (dk_a, dk_b):
        checks += audit.audit_decryption_key(pp, mk, tree, dk)
    checks += audit.audit_original_ct(pp, mk, ct, msg)
    for uct in (ct_after, ct_before):
        checks += audit.audit_updated_ct(pp, mk, uct, msg)
    return artifacts, checks


# (sizes, the elements the scenario makes: pp alone holds 2 (attr_max + tau + 2) + 1)
WIDTHS = [((4, 8, 2), 77), ((8, 32, 4), 123)]


@pytest.mark.parametrize("sizes, elements", WIDTHS)
def test_every_real_element_is_the_lift_of_its_audited_twin(sizes, elements):
    seed = f"twin/{sizes}"
    twin_artifacts, checks = _scenario(twin(), seed, *sizes)
    real_artifacts, _ = _scenario(REAL_CTX, seed, *sizes)
    audit.assert_clean(checks)
    assert len(checks) > 100
    assert assert_lift_equal(twin_artifacts, real_artifacts) == elements


def test_a_shifted_twin_lifts_to_no_real_element():
    """The comparison can fail: every log one off misses its real element."""
    twin_artifacts, _ = _scenario(twin(), "twin/shift", 4, 8, 2)
    real_artifacts, _ = _scenario(REAL_CTX, "twin/shift", 4, 8, 2)
    reals = _leaves(real_artifacts)
    for path, value in _leaves(twin_artifacts).items():
        if isinstance(value, GroupElement):
            shifted = GroupElement(value.ctx, value.side, (value.payload + 1) % bls.R)
            assert lift(shifted) != reals[path], path


def test_a_real_game_and_its_twin_play_the_same_transcript():
    def play(ctx):
        rng = SeededRng("twin/game")
        return challenger_run(BackdateAdversary(rng.child("adversary")), ctx=ctx,
                              rng=rng.child("challenger"), capture=True)

    twin_tr, real_tr = play(twin()), play(REAL_CTX)
    assert real_tr.won
    assert transcript_payload(real_tr) == {**transcript_payload(twin_tr), "backend": REAL}
    assert twin_tr.artifacts.keys() == real_tr.artifacts.keys()
    assert assert_lift_equal(twin_tr.artifacts, real_tr.artifacts) == 94
