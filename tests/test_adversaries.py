"""Adversaries that hold something, against the weaker model.

The paper's second result: the scheme is secure when the server cannot
obtain the credentials of revoked users.  The acceptance gate pins that with
adversaries that hold nothing (a withheld harvest, or no query at all).
These adversaries use only the group operations and the oracles the weaker
model allows, and must stay at a coin flip.
"""

from rabe import audit
from rabe.game import WEAKER, challenger_run, run_game_trials
from rabe.groups import SIDE_TARGET, new_context
from rabe.policy import parse_policy
from rabe.rng import SeededRng
from rabe.scheme import DecryptionKey, decrypt, update_ct

ROOT = 1  # the tree's root lies on every path


class CollusionAdversary:
    """Two colluders pool their keys.

    It commits to the target {1, 2} and queries keys for "1 AND 3" and
    "2 AND 3", neither of which the target satisfies, so neither is
    withheld.  Taking the root row for attribute 1 from the first key and
    the one for attribute 2 from the second, it assembles a "1 AND 2" key at
    the root, adds the challenge epoch's key update, and decrypts the
    challenge.  Each key shares the root secret with randomness of its own,
    so rows from two keys recombine to no secret the update cancels: the
    result matches neither message, and it guesses at random.
    """

    TARGET = frozenset({1, 2})
    POLICIES = {"colluder-1": "1 AND 3", "colluder-2": "2 AND 3"}
    COMBINED = parse_policy("1 AND 2")

    def __init__(self, rng):
        self.rng = rng
        self.notes = {"strategy": "collusion"}
        self.artifacts = {}

    def begin(self, attr_max, max_time):
        self.t_star = 1 + self.rng.randbelow(max_time - 1)
        return self.TARGET

    def phase1(self, pp, oracles):
        self.pp = pp
        keys = [oracles.private_key(who, parse_policy(f)) for who, f in self.POLICIES.items()]
        ku = oracles.key_update(self.t_star)
        rows = []
        for attr in self.COMBINED.row_attrs:
            sk = next(sk for sk in keys if attr in sk.policy.row_attrs)
            rows.append(sk.parts[ROOT][sk.policy.row_attrs.index(attr)])
        self.dk = DecryptionKey("colluder-1", self.t_star, ROOT, self.COMBINED, tuple(rows),
                                *ku.parts[ROOT])
        self.artifacts["dk"] = self.dk

    def challenge(self):
        ctx, rng = self.pp.ctx, self.rng
        self.m0 = ctx.random_element(SIDE_TARGET, rng)
        self.m1 = ctx.random_element(SIDE_TARGET, rng)
        while self.m1 == self.m0:
            self.m1 = ctx.random_element(SIDE_TARGET, rng)
        return self.t_star, self.m0, self.m1

    def phase2(self, ct_star, oracles):
        recovered = decrypt(self.pp, update_ct(self.pp, ct_star, self.t_star, self.rng), self.dk)
        messages = (self.m0, self.m1)
        matched = messages.index(recovered) if recovered in messages else None
        self.notes["recovered_matches"] = matched
        self._guess = self.rng.randbelow(2) if matched is None else matched

    def guess(self):
        return self._guess


def test_colluding_adversary_is_coin_flip():
    trs = run_game_trials(1000, ctx=new_context(), seed="collusion", mode=WEAKER,
                          adversary_cls=CollusionAdversary)
    rate = sum(tr.won for tr in trs) / 1000
    assert all(tr.outcome != "abort" for tr in trs)
    assert all(tr.notes["recovered_matches"] is None for tr in trs)
    assert 0.45 <= rate <= 0.55


def test_colluded_shares_do_not_recombine_to_the_root_secret():
    """The exponent-level reason, from the audit's logs: the pooled rows
    lie in the policy span, yet recombine to another value than the root's
    secret, so the key update's g2^(alpha - secret) does not cancel."""
    rng = SeededRng("collusion/audit")
    tr = challenger_run(CollusionAdversary(rng.child("adversary")), ctx=new_context(),
                        rng=rng.child("challenger"), mode=WEAKER, capture=True)
    art = tr.artifacts
    checks = {c.label.rpartition(": ")[2]: c
              for c in audit.audit_decryption_key(art["pp"], art["mk"], art["tree"], art["dk"])}
    assert checks["row shares lie in the policy span"].ok
    assert checks["d0 = g2^(alpha - secret) * base^r"].ok  # the update is honest
    recombined = checks["shares recombine to the node secret"]
    print(f"\n{recombined}")
    assert not recombined.ok
    assert recombined.expected == int(art["tree"].node_secrets[ROOT])
    assert recombined.actual != recombined.expected
