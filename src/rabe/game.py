"""Selective indistinguishability game and the ciphertext backdating attack.

The challenger runs the standard phases (commit to a target attribute set,
setup, query phase, challenge, second query phase, guess) against a
pluggable adversary and logs every oracle query.  Two restrictions bind the
adversary at challenge time:

1. if it obtained a private key whose policy the target set satisfies, it
   must also have queried a revocation of that identity at an epoch <= the
   challenge epoch, and
2. a never-revoked identity whose queried policy the target set satisfies
   must not have been sent to the private-key oracle at all.

The second is almost, but not quite, implied by the first: an identity
revoked only *after* the challenge epoch trips the first restriction while
literally passing the second.  validate_transcript checks both separately
and flags transcripts where they disagree.

BackdateAdversary wins the game outright: it harvests one revoked key,
asks for the public key update of an epoch just before its revocation,
rewinds the challenge ciphertext to that epoch (the operation update_ct
refuses but fold_ciphertext performs), and decrypts.  In weaker mode the
challenger withholds revoked-key harvests and the adversary degrades to
coin flipping, which is exactly the defence's claim.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import EpochRangeError, ParameterError, SideMismatchError
from .groups import SIDE_TARGET, BilinearContext, GroupElement
from .policy import AccessPolicy, parse_policy, satisfies
from .rng import SeededRng
from .scheme import (
    OriginalCiphertext,
    UpdatedCiphertext,
    decrypt,
    derive_dk,
    encrypt,
    fold_ciphertext,
    keygen,
    revoke,
    setup,
    update_key,
)
from .timecode import backdatable_epochs, epoch_bits, zero_positions

STANDARD = "standard"
WEAKER = "weaker"
MODES = (STANDARD, WEAKER)

WIN = "win"
LOSE = "lose"
ABORT = "abort"


def backdate_ciphertext(pp, ct: OriginalCiphertext, epoch: int, rng) -> UpdatedCiphertext:
    """Rewind an original ciphertext to a strictly earlier epoch.

    The inverse of the honest forward update: folds the update components
    sitting at the target epoch's zero positions and re-randomizes.  Raises
    MissingComponentError when the target's zero positions are not all
    shipped with the ciphertext, i.e. when the pair is not vulnerable.
    """
    if epoch >= ct.epoch:
        raise EpochRangeError(
            f"backdating means going back: target {epoch} is not before {ct.epoch}"
        )
    return fold_ciphertext(pp, ct, epoch, rng)


class _timed:
    """Record the wall time of the with-block as timings[step], unless the
    block raises."""

    __slots__ = ("timings", "step", "t0")

    def __init__(self, timings: dict[str, float], step: str):
        self.timings, self.step = timings, step

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, kind, *_):
        if kind is None:
            self.timings[self.step] = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# transcripts


class QueryRecord(NamedTuple):
    kind: str                      # "key" | "update" | "revoke"
    identity: str | None = None
    epoch: int | None = None
    formula: str | None = None
    satisfies_target: bool | None = None
    withheld: bool = False


@dataclass
class GameTranscript:
    mode: str
    backend: str
    n_users: int
    max_time: int
    attr_max: int
    challenge_attrs: frozenset[int]
    challenge_epoch: int
    challenge_bit: int
    guess: int
    outcome: str                   # win | lose | abort (abort counts as a loss)
    queries: tuple[QueryRecord, ...]
    timings: dict[str, float] = field(default_factory=dict)  # phases and adversary steps
    notes: dict = field(default_factory=dict)
    artifacts: dict | None = None  # in-memory objects for post-hoc audits

    @property
    def won(self) -> bool:
        return self.outcome == WIN


def transcript_payload(tr: GameTranscript) -> dict:
    """JSON-safe envelope payload.

    Timings stay out on purpose: a seeded game must serialize to the
    identical bytes on every run.  They live in advantage_report instead.
    """
    return {
        "mode": tr.mode,
        "backend": tr.backend,
        "n_users": tr.n_users,
        "max_time": tr.max_time,
        "attr_max": tr.attr_max,
        "challenge_attrs": sorted(tr.challenge_attrs),
        "challenge_epoch": tr.challenge_epoch,
        "challenge_bit": tr.challenge_bit,
        "guess": tr.guess,
        "outcome": tr.outcome,
        "queries": [
            {k: v for k, v in q._asdict().items() if v is not None}
            for q in tr.queries
        ],
        "notes": dict(tr.notes),
    }


# ---------------------------------------------------------------------------
# constraint validation


class ConstraintReport(NamedTuple):
    revoked_in_time_ok: bool       # restriction 1
    never_queried_ok: bool         # restriction 2
    single_coverage: bool          # exactly one restriction catches something
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.revoked_in_time_ok and self.never_queried_ok


def validate_transcript(tr: GameTranscript) -> ConstraintReport:
    """Post-hoc check of both challenge restrictions over the query log.

    Withheld key queries still count as queries: the restrictions speak of
    what was asked, not of what was answered.
    """
    key_queried = {}               # identity -> any satisfying-policy key query
    revokes = {}                   # identity -> earliest revocation epoch
    for q in tr.queries:
        if q.kind == "key" and q.satisfies_target:
            key_queried.setdefault(q.identity, q.formula)
        elif q.kind == "revoke":
            prev = revokes.get(q.identity)
            revokes[q.identity] = q.epoch if prev is None else min(prev, q.epoch)

    late, never = [], []
    for identity in sorted(key_queried):
        when = revokes.get(identity)
        if when is None:
            never.append(identity)
        if when is None or when > tr.challenge_epoch:
            late.append(identity)
    violations = tuple(
        f"restriction 1: {identity} holds a satisfying key but was not revoked "
        f"at or before epoch {tr.challenge_epoch}"
        for identity in late
    ) + tuple(
        f"restriction 2: never-revoked {identity} was queried for a satisfying key"
        for identity in never
    )
    return ConstraintReport(
        revoked_in_time_ok=not late,
        never_queried_ok=not never,
        single_coverage=bool(set(late) ^ set(never)),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# challenger


class Oracles:
    """The query handles the challenger exposes to the adversary; each logs
    its query, then answers it."""

    def __init__(self, pp, mk, tree, rl, mode, target_attrs, rng):
        self.pp = pp
        self.mk = mk
        self.tree = tree
        self.rl = rl
        self.mode = mode
        self.target_attrs = target_attrs
        self.rng = rng
        self.log: list[QueryRecord] = []

    def private_key(self, identity: str, policy: AccessPolicy):
        """Returns the key, or None when the weaker model withholds it."""
        hits = satisfies(policy, self.target_attrs, self.pp.ctx.prime_order)
        withheld = self.mode == WEAKER and hits
        self.log.append(
            QueryRecord(
                kind="key",
                identity=identity,
                formula=policy.formula,
                satisfies_target=hits,
                withheld=withheld,
            )
        )
        sk = keygen(self.pp, self.mk, self.tree, identity, policy, self.rng)
        return None if withheld else sk

    def key_update(self, epoch: int):
        self.log.append(QueryRecord(kind="update", epoch=epoch))
        return update_key(self.pp, self.mk, self.tree, self.rl, epoch, self.rng)

    def revoke(self, identity: str, epoch: int) -> None:
        self.log.append(QueryRecord(kind="revoke", identity=identity, epoch=epoch))
        revoke(self.tree, self.rl, identity, epoch, self.pp.max_time)


def challenger_run(
    adversary,
    *,
    ctx: BilinearContext,
    rng,
    mode: str = STANDARD,
    n_users: int = 8,
    max_time: int = 32,
    attr_max: int = 4,
    capture: bool = False,
) -> GameTranscript:
    """Play one full game against the adversary and log everything.

    A challenge restriction violated at challenge or guess time aborts the
    game; an abort is recorded as its own outcome and never counts as a
    win.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown game mode {mode!r}")
    timings: dict[str, float] = {}

    with _timed(timings, "setup"):
        # setup checks the sizes before the adversary is handed them
        pp, mk, tree, rl = setup(ctx, n_users, max_time, attr_max, rng)
        target_attrs = frozenset(adversary.begin(attr_max, max_time))
        if not target_attrs:
            raise ParameterError("the target attribute set must be nonempty")
        oracles = Oracles(pp, mk, tree, rl, mode, target_attrs, rng)

    with _timed(timings, "phase1"):
        adversary.phase1(pp, oracles)

    with _timed(timings, "challenge"):
        t_star, m0, m1 = adversary.challenge()
        for m in (m0, m1):
            if not isinstance(m, GroupElement) or m.side != SIDE_TARGET:
                raise SideMismatchError("challenge messages must be target-group elements")
        if m0 == m1:
            raise ParameterError("challenge messages must differ")
        bit = rng.randbelow(2)
        ct_star = encrypt(pp, target_attrs, t_star, (m0, m1)[bit], rng)

    tr = GameTranscript(
        mode=mode,
        backend=ctx.backend,
        n_users=n_users,
        max_time=max_time,
        attr_max=attr_max,
        challenge_attrs=target_attrs,
        challenge_epoch=t_star,
        challenge_bit=bit,
        guess=-1,
        outcome=ABORT,
        queries=tuple(oracles.log),
        timings=timings,
    )
    if capture:
        tr.artifacts = {
            "pp": pp,
            "mk": mk,
            "tree": tree,
            "rl": rl,
            "ct_star": ct_star,
            "messages": (m0, m1),
        }
    if validate_transcript(tr).ok:
        with _timed(timings, "phase2"):
            adversary.phase2(ct_star, oracles)
        with _timed(timings, "guess"):
            tr.guess = adversary.guess()
        if capture and getattr(adversary, "artifacts", None):
            tr.artifacts.update(adversary.artifacts)
        # revalidate: phase 2 may have added queries
        tr.queries = tuple(oracles.log)
        if validate_transcript(tr).ok:
            tr.outcome = WIN if tr.guess == bit else LOSE
    tr.notes = dict(getattr(adversary, "notes", {}))
    timings.update(getattr(adversary, "step_seconds", {}))
    return tr


# ---------------------------------------------------------------------------
# adversaries


def _draw_target_attrs(rng, attr_max) -> frozenset[int]:
    """A nonempty target set: draw a size, then distinct attributes."""
    count = 1 + rng.randbelow(attr_max)
    attrs = set()
    while len(attrs) < count:
        attrs.add(1 + rng.randbelow(attr_max))
    return frozenset(attrs)


def _draw_messages(ctx, rng) -> tuple[GroupElement, GroupElement]:
    """Two distinct target-group challenge messages."""
    m0 = ctx.random_element(SIDE_TARGET, rng)
    m1 = ctx.random_element(SIDE_TARGET, rng)
    while m1 == m0:
        m1 = ctx.random_element(SIDE_TARGET, rng)
    return m0, m1


class NullAdversary:
    """Makes no queries and flips a coin; calibrates the challenger."""

    def __init__(self, rng):
        self.rng = rng
        self.notes = {"strategy": "coin-flip"}

    def begin(self, attr_max, max_time):
        self.max_time = max_time
        return _draw_target_attrs(self.rng, attr_max)

    def phase1(self, pp, oracles):
        self.ctx = pp.ctx

    def challenge(self):
        t_star = 1 + self.rng.randbelow(self.max_time - 1)
        return (t_star, *_draw_messages(self.ctx, self.rng))

    def phase2(self, ct_star, oracles):
        pass

    def guess(self):
        return self.rng.randbelow(2)


class BackdateAdversary:
    """The five-step attack.

    1. Commit to a target attribute set.
    2. Harvest one revoked credential: query a key whose policy the target
       set satisfies, then revoke its holder at the challenge epoch.  The
       challenge epoch sits in the lower half of the range, where the
       ciphertext epoch encoding keeps every update component.
    3. Combine the revoked key with the public key update of the latest
       epoch before the revocation; check the key really is dead at the
       challenge epoch itself.
    4. Backdate the challenge ciphertext to that earlier epoch.
    5. Decrypt and compare against the two challenge messages.

    When the harvest comes back withheld (weaker model) the attack cannot
    assemble a decryption key and falls back to a coin flip.

    t_star and t override the random choice of challenge epoch and
    backdating target; t must then be backdatable from t_star.
    """

    def __init__(self, rng, t_star: int | None = None, t: int | None = None):
        self.rng = rng
        self.forced_t_star = t_star
        self.forced_t = t
        self.notes = {}
        self.artifacts = {}
        self.step_seconds: dict[str, float] = {}

    def begin(self, attr_max, max_time):
        with _timed(self.step_seconds, "1-commit"):
            self.max_time = max_time
            self.target_attrs = _draw_target_attrs(self.rng, attr_max)
            if self.forced_t_star is not None:
                self.t_star = self.forced_t_star
            else:
                if max_time < 8:
                    raise ParameterError("the attack needs an epoch range of at least 8")
                # strictly inside the lower half: every earlier epoch is reachable
                self.t_star = 2 + self.rng.randbelow(max_time // 2 - 2)
        return self.target_attrs

    def phase1(self, pp, oracles):
        with _timed(self.step_seconds, "2-harvest"):
            self.pp = pp
            policy = parse_policy(" AND ".join(str(x) for x in sorted(self.target_attrs)))
            self.sk = oracles.private_key("harvested-leak", policy)
            oracles.revoke("harvested-leak", self.t_star)
            self.notes["harvested"] = self.sk is not None
            self.notes["t_star"] = self.t_star
        with _timed(self.step_seconds, "3-derive-key"):
            self._derive_key(oracles)

    def _derive_key(self, oracles):
        candidates = backdatable_epochs(self.t_star, self.max_time)
        if not candidates:
            raise ParameterError(f"no epoch is backdatable from {self.t_star}")
        if self.forced_t is not None:
            if self.forced_t not in candidates:
                raise ParameterError(
                    f"epoch {self.forced_t} is not backdatable from {self.t_star}"
                )
            self.t = self.forced_t
        else:
            self.t = candidates[-1]
        self.notes["t"] = self.t
        ku_t = oracles.key_update(self.t)
        ku_star = oracles.key_update(self.t_star)
        if self.sk is None:
            self.dk = None
            return
        if derive_dk(self.sk, ku_star) is not None:
            raise ParameterError("revocation failed: key still derives at the challenge epoch")
        self.dk = derive_dk(self.sk, ku_t)
        if self.dk is None:
            raise ParameterError("no decryption key at the pre-revocation epoch")
        self.artifacts.update({"sk": self.sk, "ku_t": ku_t, "ku_star": ku_star, "dk": self.dk})

    def challenge(self):
        self.m0, self.m1 = _draw_messages(self.pp.ctx, self.rng)
        return self.t_star, self.m0, self.m1

    def phase2(self, ct_star, oracles):
        if self.dk is None:
            self._guess = self.rng.randbelow(2)
            self.notes["strategy"] = "coin-flip (harvest withheld)"
            return
        with _timed(self.step_seconds, "4-backdate"):
            outdated = backdate_ciphertext(self.pp, ct_star, self.t, self.rng)
        self.notes["folded_slots"] = sorted(
            zero_positions(epoch_bits(self.t, self.max_time))
        )
        with _timed(self.step_seconds, "5-decrypt"):
            recovered = decrypt(self.pp, outdated, self.dk)
        if recovered == self.m0:
            self._guess = 0
        elif recovered == self.m1:
            self._guess = 1
        else:
            self._guess = self.rng.randbelow(2)
        self.notes["strategy"] = "backdate"
        self.notes["recovered_matches"] = self._guess if recovered in (self.m0, self.m1) else None
        self.artifacts["ct_backdated"] = outdated

    def guess(self):
        return self._guess


# ---------------------------------------------------------------------------
# multi-trial runner


def run_game_trials(
    trials: int,
    *,
    ctx: BilinearContext,
    seed=0,
    mode: str = STANDARD,
    adversary_cls=BackdateAdversary,
    n_users: int = 8,
    max_time: int = 32,
    attr_max: int = 4,
    capture_all: bool = False,
) -> list[GameTranscript]:
    """Independent seeded games; trial i is reproducible from (seed, i).

    capture_all keeps every trial's in-memory artifacts: for audits, and
    for the parameters each attack-demo transcript envelope names.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    root = SeededRng(seed)
    return [
        challenger_run(
            adversary_cls(root.child(f"trial/{i}/adversary")),
            ctx=ctx,
            rng=root.child(f"trial/{i}/challenger"),
            mode=mode,
            n_users=n_users,
            max_time=max_time,
            attr_max=attr_max,
            capture=capture_all,
        )
        for i in range(trials)
    ]


def wilson_interval(wins: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% score interval for the win rate."""
    if trials < 1:
        raise ParameterError("empty sample")
    phat = wins / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def advantage_report(transcripts, seed=None) -> dict:
    """Aggregate a batch of transcripts into one machine-readable record."""
    if not transcripts:
        raise ParameterError("no transcripts to report on")
    trials = len(transcripts)
    wins = sum(tr.won for tr in transcripts)
    aborts = sum(tr.outcome == ABORT for tr in transcripts)
    lo, hi = wilson_interval(wins, trials)

    def single(values, label):
        values = set(values)
        return values.pop() if len(values) == 1 else f"mixed {label}"

    steps: dict[str, list[float]] = {}
    for tr in transcripts:
        for k, v in tr.timings.items():
            steps.setdefault(k, []).append(v)
    return {
        "trials": trials,
        "wins": wins,
        "aborts": aborts,
        "rate": wins / trials,
        "advantage": wins / trials - 0.5,
        "wilson95": [round(lo, 6), round(hi, 6)],
        "mode": single((tr.mode for tr in transcripts), "modes"),
        "backend": single((tr.backend for tr in transcripts), "backends"),
        "n_users": single((tr.n_users for tr in transcripts), "sizes"),
        "max_time": single((tr.max_time for tr in transcripts), "ranges"),
        "attr_max": single((tr.attr_max for tr in transcripts), "widths"),
        "seed": seed,
        "mean_seconds": {k: round(sum(v) / len(v), 6) for k, v in sorted(steps.items())},
    }


def format_report(report: dict) -> str:
    lines = [
        f"trials            {report['trials']}",
        f"wins              {report['wins']}",
        f"aborts            {report['aborts']}",
        f"win rate          {report['rate']:.4f}",
        f"advantage         {report['advantage']:+.4f}",
        f"95% interval      [{report['wilson95'][0]:.4f}, {report['wilson95'][1]:.4f}]",
        f"mode              {report['mode']}",
        f"backend           {report['backend']}",
        f"epoch range       {report['max_time']}",
        f"users             {report['n_users']}",
        f"attribute bound   {report['attr_max']}",
    ]
    if report.get("seed") is not None:
        lines.append(f"seed              {report['seed']}")
    if report["mean_seconds"]:
        lines.append("mean seconds per step:")
        for step, secs in report["mean_seconds"].items():
            lines.append(f"  {step:<16}{secs:.4f}")
    return "\n".join(lines)
