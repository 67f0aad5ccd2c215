import ast
import hashlib
import pathlib

import pytest

from rabe import bls12381 as bls
from rabe import game
from rabe.errors import EpochRangeError, ParameterError
from rabe.groups import REAL, SIDE_TARGET, TRANSPARENT, new_context
from rabe.policy import parse_policy
from rabe.rng import SeededRng
from rabe.scheme import encrypt, setup
from rabe.serial import canonical_json
from rabe.game import (
    ABORT,
    STANDARD,
    WEAKER,
    BackdateAdversary,
    GameTranscript,
    NullAdversary,
    QueryRecord,
    advantage_report,
    backdate_ciphertext,
    challenger_run,
    format_report,
    run_game_trials,
    transcript_payload,
    validate_transcript,
    wilson_interval,
)


def make_transcript(queries, challenge_epoch=7, outcome="win"):
    return GameTranscript(
        mode=STANDARD,
        backend=TRANSPARENT,
        n_users=8,
        max_time=32,
        attr_max=4,
        challenge_attrs=frozenset({1, 2}),
        challenge_epoch=challenge_epoch,
        challenge_bit=0,
        guess=0,
        outcome=outcome,
        queries=tuple(queries),
    )


class CheatingPhase1Adversary(NullAdversary):
    """Asks for a satisfying key and never revokes its holder."""

    def begin(self, attr_max, max_time):
        self.max_time = max_time
        self.attrs = {1, 2}
        return self.attrs

    def phase1(self, pp, oracles):
        self.ctx = pp.ctx
        oracles.private_key("cheat", parse_policy("1 AND 2"))


class CheatingPhase2Adversary(CheatingPhase1Adversary):
    """Clean through the challenge, then grabs the forbidden key."""

    def phase1(self, pp, oracles):
        self.ctx = pp.ctx

    def phase2(self, ct_star, oracles):
        oracles.private_key("late-cheat", parse_policy("1 AND 2"))


def test_backdate_attack_wins_every_standard_trial():
    ctx = new_context(TRANSPARENT)
    transcripts = run_game_trials(20, ctx=ctx, seed=11, mode=STANDARD)
    assert all(tr.won for tr in transcripts)
    assert all(tr.outcome == "win" for tr in transcripts)
    for tr in transcripts:
        assert tr.notes["strategy"] == "backdate"
        assert tr.notes["t"] < tr.notes["t_star"] == tr.challenge_epoch
        assert validate_transcript(tr).ok
        kinds = [q.kind for q in tr.queries]
        assert kinds.count("key") == 1 and kinds.count("revoke") == 1


def test_backdate_attack_wins_one_real_trial():
    ctx = new_context(REAL)
    transcripts = run_game_trials(1, ctx=ctx, seed=5, mode=STANDARD)
    assert transcripts[0].won
    assert transcripts[0].backend == REAL


def test_a_real_game_runs_one_pairing_the_adversarys_decryption(monkeypatch):
    """setup hands encrypt the blinding base as a target-group power, so the
    only pairing product of a backdating game is the attack's decryption."""
    calls = dict.fromkeys(("pairing_product", "final_exponentiation"), 0)

    def count(name):
        fn = getattr(bls, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(bls, name, counted)

    for name in calls:
        count(name)
    rng = SeededRng("one-pairing")
    tr = challenger_run(BackdateAdversary(rng.child("adversary")), ctx=new_context(REAL),
                        rng=rng.child("challenger"), mode=STANDARD, n_users=4, max_time=16,
                        attr_max=2)
    assert tr.won and tr.notes["strategy"] == "backdate"
    assert calls == {"pairing_product": 1, "final_exponentiation": 1}


def test_forced_pair_is_honored():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("forced")
    tr = challenger_run(
        BackdateAdversary(rng.child("adv"), t_star=7, t=5),
        ctx=ctx,
        rng=rng.child("chal"),
    )
    assert tr.won
    assert tr.challenge_epoch == 7
    assert tr.notes["t"] == 5
    assert tr.notes["folded_slots"] == [1, 2, 4]


def test_forced_pair_outside_the_lower_half_regime():
    # epoch 25 = "11001" still ships slots {3,4,5}; 24 = "11000" needs them all
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("outside")
    tr = challenger_run(
        BackdateAdversary(rng.child("adv"), t_star=25, t=24),
        ctx=ctx,
        rng=rng.child("chal"),
    )
    assert tr.won and tr.notes["folded_slots"] == [3, 4, 5]


def test_invulnerable_pairs_are_rejected_upfront():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("dead-pair")
    # epoch 6 = "110" at range 8: its ciphertext keeps the encoding, nothing
    # earlier is reachable at all
    with pytest.raises(ParameterError, match="no epoch is backdatable"):
        challenger_run(
            BackdateAdversary(rng.child("a"), t_star=6, t=5),
            ctx=ctx,
            rng=rng.child("c"),
            max_time=8,
        )
    # epoch 5 = "101" can only reach 4; forcing 3 names the bad target
    with pytest.raises(ParameterError, match="epoch 3 is not backdatable"):
        challenger_run(
            BackdateAdversary(rng.child("a2"), t_star=5, t=3),
            ctx=ctx,
            rng=rng.child("c2"),
            max_time=8,
        )
    # the same numeric pair is fine with a wider range: 6 = "00110" there
    tr = challenger_run(
        BackdateAdversary(rng.child("a3"), t_star=6, t=5),
        ctx=ctx,
        rng=rng.child("c3"),
        max_time=32,
    )
    assert tr.won


def test_weaker_mode_degrades_the_attack_to_coin_flipping():
    ctx = new_context(TRANSPARENT)
    transcripts = run_game_trials(200, ctx=ctx, seed=21, mode=WEAKER)
    wins = sum(tr.won for tr in transcripts)
    assert 0.40 <= wins / 200 <= 0.60
    assert not any(tr.outcome == ABORT for tr in transcripts)
    for tr in transcripts:
        assert tr.notes["strategy"] == "coin-flip (harvest withheld)"
        assert not tr.notes["harvested"]
        withheld = [q for q in tr.queries if q.withheld]
        assert len(withheld) == 1 and withheld[0].kind == "key"


def test_null_adversary_is_a_fair_coin():
    ctx = new_context(TRANSPARENT)
    transcripts = run_game_trials(200, ctx=ctx, seed=31, adversary_cls=NullAdversary)
    wins = sum(tr.won for tr in transcripts)
    assert 0.40 <= wins / 200 <= 0.60
    assert all(not tr.queries for tr in transcripts)


def test_unrevoked_satisfying_key_aborts_at_challenge():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("cheat1")
    tr = challenger_run(CheatingPhase1Adversary(rng.child("a")), ctx=ctx, rng=rng.child("c"))
    assert tr.outcome == ABORT and not tr.won
    assert tr.guess == -1  # aborted before any guess
    report = validate_transcript(tr)
    assert not report.ok
    assert not report.revoked_in_time_ok and not report.never_queried_ok
    assert not report.single_coverage  # both restrictions catch this one


def test_phase2_violation_aborts_after_the_guess():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("cheat2")
    tr = challenger_run(CheatingPhase2Adversary(rng.child("a")), ctx=ctx, rng=rng.child("c"))
    assert tr.outcome == ABORT and not tr.won
    assert tr.guess in (0, 1)  # the game ran to completion before the check
    assert [q.kind for q in tr.queries] == ["key"]


def test_restrictions_disagree_on_late_revocation():
    # revoked, but only after the challenge epoch: restriction 1 trips,
    # restriction 2 is literally satisfied
    queries = [
        QueryRecord(kind="key", identity="u", formula="1 AND 2", satisfies_target=True),
        QueryRecord(kind="revoke", identity="u", epoch=9),
    ]
    report = validate_transcript(make_transcript(queries, challenge_epoch=7))
    assert not report.revoked_in_time_ok
    assert report.never_queried_ok
    assert report.single_coverage
    assert not report.ok
    assert any("restriction 1" in v for v in report.violations)


def test_timely_revocation_satisfies_both_restrictions():
    queries = [
        QueryRecord(kind="key", identity="u", formula="1 AND 2", satisfies_target=True),
        QueryRecord(kind="revoke", identity="u", epoch=7),
    ]
    report = validate_transcript(make_transcript(queries, challenge_epoch=7))
    assert report.ok and not report.violations


def test_withheld_queries_still_bind_the_adversary():
    queries = [
        QueryRecord(
            kind="key", identity="u", formula="1 AND 2", satisfies_target=True, withheld=True
        ),
    ]
    assert not validate_transcript(make_transcript(queries)).ok


def test_non_satisfying_keys_are_unconstrained():
    queries = [
        QueryRecord(kind="key", identity="u", formula="3", satisfies_target=False),
        QueryRecord(kind="update", epoch=5),
    ]
    assert validate_transcript(make_transcript(queries)).ok


def test_backdate_ciphertext_only_goes_backwards():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("direction")
    pp, mk, state, rl = setup(ctx, 4, 32, 4, rng)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1}, 7, msg, rng)
    with pytest.raises(EpochRangeError):
        backdate_ciphertext(pp, ct, 7, rng)
    with pytest.raises(EpochRangeError):
        backdate_ciphertext(pp, ct, 9, rng)
    assert backdate_ciphertext(pp, ct, 3, rng).epoch == 3


def test_wilson_interval_brackets_the_rate():
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == pytest.approx(1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi and hi - lo < 0.2
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi < 0.35
    with pytest.raises(ParameterError):
        wilson_interval(0, 0)


def test_advantage_report_shape():
    ctx = new_context(TRANSPARENT)
    transcripts = run_game_trials(20, ctx=ctx, seed=11, mode=STANDARD)
    report = advantage_report(transcripts, seed=11)
    assert report["trials"] == 20 and report["wins"] == 20
    assert report["rate"] == 1.0 and report["advantage"] == 0.5
    assert report["aborts"] == 0
    assert report["mode"] == STANDARD and report["backend"] == TRANSPARENT
    assert report["wilson95"][0] > 0.8
    text = format_report(report)
    assert "advantage         +0.5000" in text
    assert "seed              11" in text


def test_seeded_trials_reproduce_transcripts_exactly():
    ctx = new_context(TRANSPARENT)
    a = [transcript_payload(tr) for tr in run_game_trials(5, ctx=ctx, seed=7)]
    b = [transcript_payload(tr) for tr in run_game_trials(5, ctx=ctx, seed=7)]
    c = [transcript_payload(tr) for tr in run_game_trials(5, ctx=ctx, seed=8)]
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "kwargs, digest",
    [
        ({}, "c1f0b60ba8a3ac870bd22e326c88373370fb0d325c2b00a836fc01b0aadd2b3e"),
        ({"mode": WEAKER}, "ba4180be60e7371f7489754cf7325af5bfb97e927191d8685baa787fa376e3a7"),
        ({"adversary_cls": NullAdversary},
         "db5a0d5ce0a813296c139e2a809dd3eceadc3fe9fbe38c7740ab2537058b8c26"),
    ],
    ids=["standard", "weaker", "null"],
)
def test_seeded_transcripts_match_known_answers(kwargs, digest):
    transcripts = run_game_trials(5, ctx=new_context(TRANSPARENT), seed=7, **kwargs)
    blob = canonical_json([transcript_payload(tr) for tr in transcripts])
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == digest


def test_transcript_payload_carries_no_wall_clock():
    ctx = new_context(TRANSPARENT)
    tr = run_game_trials(1, ctx=ctx, seed=3)[0]
    assert tr.timings  # measured in memory
    payload = transcript_payload(tr)
    assert "timings" not in payload
    assert "step_seconds" not in payload["notes"]
    for step in ("1-commit", "2-harvest", "3-derive-key", "4-backdate", "5-decrypt"):
        assert step in tr.timings


def test_capture_collects_artifacts_only_when_asked():
    ctx = new_context(TRANSPARENT)
    rng = SeededRng("capture")
    adversary = BackdateAdversary(rng.child("adversary"))
    tr = challenger_run(adversary, ctx=ctx, rng=rng.child("challenger"), capture=True)
    for key in ("pp", "mk", "tree", "rl", "ct_star", "messages", "sk", "dk", "ct_backdated"):
        assert key in tr.artifacts
    assert run_game_trials(1, ctx=ctx, seed=13)[0].artifacts is None


def test_challenger_rejects_degenerate_challenges():
    ctx = new_context(TRANSPARENT)

    class SameMessages(NullAdversary):
        def challenge(self):
            t_star, m0, m1 = super().challenge()
            return t_star, m0, m0

    rng = SeededRng("same")
    with pytest.raises(ParameterError):
        challenger_run(SameMessages(rng.child("a")), ctx=ctx, rng=rng.child("c"))
    with pytest.raises(ParameterError):
        challenger_run(NullAdversary(rng.child("a2")), ctx=ctx, rng=rng.child("c2"), mode="bogus")


def _rabe_imports(tree):
    """The rabe modules a module's source imports, by name within the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.removeprefix("rabe.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or f"{node.module}.".startswith("rabe.")):
            module = (node.module or "").removeprefix("rabe").lstrip(".")
            yield from [module] if module else (alias.name for alias in node.names)


def test_the_game_scheme_and_audit_stand_below_serialization():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "rabe"
    found = {
        name: sorted({m for m in _rabe_imports(ast.parse((src / name).read_text()))
                      if m in ("serial", "cli")})
        for name in ("game.py", "scheme.py", "audit.py")
    }
    assert found == {"game.py": [], "scheme.py": [], "audit.py": []}
    cli = set(_rabe_imports(ast.parse((src / "cli.py").read_text())))
    assert {"game", "serial"} <= cli, "the guard sees cli's imports"
