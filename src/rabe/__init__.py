"""Revocable key-policy attribute-based encryption with epoch-bound
ciphertexts, the backdating attack that defeats its revocation, and the
indistinguishability game harness that measures the attack.

Every name is imported from the module that owns it; importing the package
alone loads none of them.  Quick tour:

    >>> from rabe.groups import new_context
    >>> from rabe.policy import parse_policy
    >>> from rabe.rng import SeededRng
    >>> from rabe.scheme import setup, keygen, update_key, derive_dk, encrypt, update_ct, decrypt
    >>> ctx = new_context("transparent")
    >>> rng = SeededRng(1)
    >>> pp, mk, tree, rl = setup(ctx, n_users=8, max_time=32, attr_max=4, rng=rng)
    >>> sk = keygen(pp, mk, tree, "alice", parse_policy("1 AND 2"), rng)
    >>> m = ctx.random_element("target", rng)
    >>> ct = encrypt(pp, {1, 2}, 7, m, rng)
    >>> ku = update_key(pp, mk, tree, rl, 7, rng)
    >>> dk = derive_dk(sk, ku)
    >>> decrypt(pp, update_ct(pp, ct, 7, rng), dk) == m
    True

The attack in one line: fold_ciphertext (via game.backdate_ciphertext)
moves that ciphertext *backwards* to any epoch whose update slots it
carries, undoing revocation; see game.BackdateAdversary for the full
five-step version.
"""
