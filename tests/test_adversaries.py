"""Adversaries that hold something, against the weaker model.

The paper's second result: the scheme is secure when the server cannot
obtain the credentials of revoked users.  The acceptance gate pins that with
adversaries that hold nothing (a withheld harvest, or no query at all).
These adversaries use only the group operations and the oracles the weaker
model allows, and must stay at a coin flip.  One more holds a key the game
must not let it use: a satisfying key whose holder is revoked only after
the challenge epoch, which every game must abort.
"""

import dataclasses

from rabe import audit
from rabe.game import (
    ABORT,
    MODES,
    WEAKER,
    _draw_messages,
    backdate_ciphertext,
    challenger_run,
    run_game_trials,
    validate_transcript,
)
from rabe.groups import new_context
from rabe.policy import parse_policy
from rabe.rng import SeededRng
from rabe.scheme import DecryptionKey, decrypt, derive_dk, update_ct
from rabe.timecode import backdatable_epochs

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
        self.m0, self.m1 = _draw_messages(self.pp.ctx, self.rng)
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


class MixingAdversary:
    """One live key, mixed with the key updates of several epochs.

    It commits to the target {1, 2} and queries one key for "1 AND 3", which
    the target does not satisfy and which is never revoked, so the weaker
    model hands it out.  It takes the key updates of up to four epochs the
    challenge epoch can be rewound to, backdates the challenge ciphertext
    to each, and decrypts each with a "1" key: the key's row for attribute 1
    at the node where its path meets that update's cover, with the update's
    pair.  That row holds one share of "1 AND 3", not the node secret, so
    no epoch's update cancels it: every result matches neither message,
    and it guesses at random.
    """

    TARGET = frozenset({1, 2})
    MIXED = parse_policy("1")

    def __init__(self, rng):
        self.rng = rng
        self.notes = {"strategy": "mixing"}
        self.artifacts = {}

    def begin(self, attr_max, max_time):
        self.t_star = 2 + self.rng.randbelow(max_time // 2 - 2)  # every earlier epoch rewinds
        self.epochs = backdatable_epochs(self.t_star, max_time)[-4:]
        return self.TARGET

    def phase1(self, pp, oracles):
        self.pp = pp
        sk = oracles.private_key("mixer", parse_policy("1 AND 3"))
        self.dks = {}
        for t in self.epochs:
            dk = derive_dk(sk, oracles.key_update(t))  # mixer is live: one node meets the cover
            row = dk.rows[dk.policy.row_attrs.index(1)]
            self.dks[t] = dataclasses.replace(dk, policy=self.MIXED, rows=(row,))
        self.artifacts.update({"sk": sk, "dk": self.dks[self.epochs[-1]]})

    def challenge(self):
        self.m0, self.m1 = _draw_messages(self.pp.ctx, self.rng)
        return self.t_star, self.m0, self.m1

    def phase2(self, ct_star, oracles):
        messages = (self.m0, self.m1)
        matched = []
        for t, dk in self.dks.items():
            recovered = decrypt(self.pp, backdate_ciphertext(self.pp, ct_star, t, self.rng), dk)
            matched.append(messages.index(recovered) if recovered in messages else None)
        self.notes["recovered_matches"] = matched
        hits = [b for b in matched if b is not None]
        self._guess = hits[0] if hits else self.rng.randbelow(2)

    def guess(self):
        return self._guess


def test_mixing_adversary_is_coin_flip():
    trs = run_game_trials(1000, ctx=new_context(), seed="mixing", mode=WEAKER,
                          adversary_cls=MixingAdversary)
    rate = sum(tr.won for tr in trs) / 1000
    assert all(tr.outcome != "abort" for tr in trs)
    assert all(set(tr.notes["recovered_matches"]) == {None} for tr in trs)
    assert sum(len(tr.notes["recovered_matches"]) for tr in trs) > 2000  # several epochs a game
    assert 0.45 <= rate <= 0.55


def test_mixed_shares_do_not_recombine_to_the_node_secret():
    """The exponent-level reason, from the audit's logs: the key itself is
    honest, its rows recombining to each path node's secret, and so is the
    update; the lone attribute-1 row is one share of "1 AND 3" and lies in
    the "1" span, yet is another value than the node's secret, so the
    update's g2^(alpha - secret) does not cancel."""
    rng = SeededRng("mixing/audit")
    tr = challenger_run(MixingAdversary(rng.child("adversary")), ctx=new_context(),
                        rng=rng.child("challenger"), mode=WEAKER, capture=True)
    art = tr.artifacts
    assert not audit.failures(audit.audit_private_key(art["pp"], art["mk"], art["tree"],
                                                      art["sk"]))
    checks = {c.label.rpartition(": ")[2]: c
              for c in audit.audit_decryption_key(art["pp"], art["mk"], art["tree"], art["dk"])}
    assert checks["row shares lie in the policy span"].ok
    assert checks["d0 = g2^(alpha - secret) * base^r"].ok
    recombined = checks["shares recombine to the node secret"]
    print(f"\n{recombined}")
    assert not recombined.ok
    assert recombined.expected == int(art["tree"].node_secrets[art["dk"].node])
    assert recombined.actual != recombined.expected


class LateRevocationAdversary:
    """A satisfying key whose holder is revoked only after the challenge epoch.

    It commits to the target {1, 2}, queries a "1 AND 2" key, which the
    target satisfies, and revokes its holder at an epoch after the challenge
    epoch t*.  At t* the holder is live, so the key and t*'s key update
    derive a decryption key that opens the challenge outright.  This is the
    gap the game's docstring describes: the identity is revoked, so
    restriction 2 passes, and only restriction 1, which wants the
    revocation at or before t*, refuses the game.
    """

    TARGET = frozenset({1, 2})
    POLICY = parse_policy("1 AND 2")

    def __init__(self, rng):
        self.rng = rng
        self.notes = {"strategy": "late revocation"}
        self.artifacts = {}

    def begin(self, attr_max, max_time):
        self.t_star = 1 + self.rng.randbelow(max_time - 2)  # some epoch follows it
        self.revoked_at = self.t_star + 1 + self.rng.randbelow(max_time - 1 - self.t_star)
        return self.TARGET

    def phase1(self, pp, oracles):
        self.pp = pp
        sk = oracles.private_key("late", self.POLICY)
        oracles.revoke("late", self.revoked_at)
        ku = oracles.key_update(self.t_star)
        self.dk = None if sk is None else derive_dk(sk, ku)  # withheld in the weaker model
        self.artifacts["dk"] = self.dk

    def challenge(self):
        self.m0, self.m1 = _draw_messages(self.pp.ctx, self.rng)
        return self.t_star, self.m0, self.m1

    def phase2(self, ct_star, oracles):
        self._guess = self.rng.randbelow(2)
        if self.dk is not None:
            recovered = decrypt(self.pp, update_ct(self.pp, ct_star, self.t_star, self.rng), self.dk)
            self._guess = (self.m0, self.m1).index(recovered)

    def guess(self):
        return self._guess


def test_revocation_after_the_challenge_epoch_aborts_every_game():
    """In both modes restriction 1 alone catches the late revocation, so
    every game aborts and none counts as a win."""
    for mode in MODES:
        trs = run_game_trials(1000, ctx=new_context(), seed=f"late-revocation/{mode}", mode=mode,
                              adversary_cls=LateRevocationAdversary)
        for tr in trs:
            report = validate_transcript(tr)
            assert tr.outcome == ABORT and not tr.won
            assert not report.revoked_in_time_ok and report.never_queried_ok
            assert report.single_coverage


def test_late_revocation_would_win_past_the_abort():
    """The abort is what stops it: in the standard model the key is handed
    out and derives at t*, so phase 2, run by hand on the captured
    challenge, names the challenge bit."""
    for i in range(5):
        rng = SeededRng(f"late-revocation/past-the-abort/{i}")
        adversary = LateRevocationAdversary(rng.child("adversary"))
        tr = challenger_run(adversary, ctx=new_context(), rng=rng.child("challenger"), capture=True)
        assert tr.outcome == ABORT and adversary.dk is not None
        adversary.phase2(tr.artifacts["ct_star"], None)
        assert adversary.guess() == tr.challenge_bit
