"""Command-line front end.

One subcommand per scheme algorithm, operating on envelope files around a
single trusted-center state file, plus two demonstrations: attack-demo
plays the backdating adversary against the challenger, lemma-check
enumerates which epoch pairs make a ciphertext rewindable.

Exit codes: 0 success, 1 decrypt verdict MISMATCH, 2 refusal outcomes
(revoked key, backwards update), 3 validation and usage errors, 4 I/O problems.
A seed can come from --seed or the RABE_SEED environment variable;
unseeded runs draw from the operating system.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import sys
import time

from . import serial
from .errors import EnvelopeError, ParameterError, RabeError
from .groups import BACKENDS, SIDE_TARGET, TRANSPARENT, new_context
from .policy import parse_policy
from .rng import SeededRng, SystemRng
from .scheme import (
    check_sizes, decrypt, derive_dk, encrypt, keygen, revoke, setup, update_ct, update_key,
)
from .timecode import backdatable_epochs, ct_epoch_bits, epoch_bits, lemma_row, zero_positions

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_REFUSED = 2
EXIT_INVALID = 3
EXIT_IO = 4

_LOCK_WAIT = 30.0  # seconds a state-writing command waits for another to finish


def _resolve_seed(args):
    """--seed, else RABE_SEED, else None; either must lie in [0, 2^256)."""
    name, seed = "--seed", args.seed
    if seed is None:
        name, seed = "RABE_SEED", os.environ.get("RABE_SEED") or None
    try:
        value = None if seed is None else int(seed)
    except ValueError:
        value = -1
    if value is not None and not 0 <= value < 1 << 256:
        raise RabeError(f"{name} must be an integer in [0, 2^256), got {seed!r}")
    return value


def _rng_for(seed):
    return SystemRng() if seed is None else SeededRng(seed)


def _decode(path, decode, *args):
    """decode(*args), naming the file in any envelope or parameter error."""
    try:
        return decode(*args)
    except (EnvelopeError, ParameterError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_state(path):
    env = serial.read_envelope(path, expect_kind="state")
    pp, mk, tree, rl = _decode(path, serial.state_from_payload, env["payload"])
    phash = serial.params_hash(serial.pp_payload(pp))
    serial.check_params_hash(env, phash, path)
    serial.check_backend(env, pp.ctx.backend, path)
    return phash, pp, mk, tree, rl


@contextlib.contextmanager
def _state_lock(path):
    """Hold an exclusive flock on the state file from before the command
    reads it until its new state is renamed into place, so commands that
    rewrite one state run one at a time and none drops another's update.
    The rename puts a new file under the path, so a lock won on a file the
    path no longer names is let go and taken on the current one.  A state
    that does not exist yet has no deployment to lose and is not locked.
    The wait is a bounded block: past _LOCK_WAIT seconds it fails, naming
    the state (exit 4)."""
    deadline = time.monotonic() + _LOCK_WAIT
    while True:
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            break
        with fh:
            while True:
                try:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise TimeoutError(f"{path}: another command is writing this state; "
                                           f"gave up after {_LOCK_WAIT:g} s") from None
                    time.sleep(0.01)
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                yield
                return
    yield  # no state yet


def _state(path, pp, mk, tree, rl):
    """The state's (path, envelope), which a command writes last, after its
    artifacts, in its one serial.write_envelopes call.  Once staged, a rename
    fails only if its directory changed meanwhile; had the state's failed
    after a key landed, the key's leaf would be unrecorded: it decrypts
    through an existing node secret, yet revoke refuses it as unknown."""
    payload = serial.state_payload(pp, mk, tree, rl)
    return path, serial.envelope("state", pp.ctx.backend, serial.params_hash(payload["pp"]), payload)


def _artifact(path, kind, pp, phash, payload):
    return path, serial.envelope(kind, pp.ctx.backend, phash, payload)


def _read_artifact(path, kind, phash, decode, pp, tree):
    """The artifact in path, decoded and checked against the deployment; a
    message is any target-group element and has no check."""
    env = serial.read_envelope(path, expect_kind=kind)
    serial.check_params_hash(env, phash, path)
    serial.check_backend(env, pp.ctx.backend, path)
    artifact = _decode(path, decode, pp.ctx, env["payload"])
    if kind != "msg":
        _decode(path, artifact.check, pp, tree)
    return artifact


def _transcript_names(args):
    """The files attack-demo writes inside --transcripts, one per trial."""
    if not getattr(args, "transcripts", None):
        return []
    return [os.path.join(args.transcripts, f"trial-{i:04d}.json") for i in range(args.trials)]


def _check_paths(args):
    """Refuse an output that names the state, an input or another output: the
    same file by os.path.samefile when both exist, else by real path.  The
    transcript files are outputs too; as distinct names in one directory they
    are checked against the options' paths only, not against each other."""
    outputs = ("out", "random_message", "transcripts")
    named = [(f"--{name.replace('_', '-')}", getattr(args, name, None), name in outputs)
             for name in ("state", "ct", "sk", "ku", "dk", "message", "expect") + outputs]
    named = [entry for entry in named if entry[1]]
    transcripts = [("transcript", name, True) for name in _transcript_names(args)]
    for i, (opt, path, _) in enumerate(named):
        for other, other_path, written in named[i + 1:] + transcripts:  # outputs come last
            try:
                same = written and os.path.samefile(path, other_path)
            except OSError:  # one of them does not exist yet
                same = os.path.realpath(path) == os.path.realpath(other_path)
            if same:
                raise RabeError(f"{other} {other_path} names the same file as {opt} {path}")


def _parse_attrs(text):
    """The integers of a comma-separated list, blank entries skipped; an
    empty set is encrypt's to refuse."""
    try:
        return {int(part) for part in text.split(",") if part.strip()}
    except ValueError:
        raise RabeError(f"attribute list {text!r} is not comma-separated integers") from None


# ---------------------------------------------------------------------------
# scheme subcommands


def cmd_setup(args):
    ctx = new_context(args.backend)
    pp, mk, tree, rl = setup(ctx, args.users, args.max_time, args.attr_bound,
                             _rng_for(_resolve_seed(args)))
    state = _state(args.state, pp, mk, tree, rl)
    serial.write_envelopes([state])
    print(
        f"new {args.backend} deployment in {args.state}: "
        f"parameter set {state[1]['params_hash'][:12]}, "
        f"tree capacity {tree.capacity}, epochs 1..{pp.max_time - 1}, "
        f"attributes 1..{pp.attr_max}"
    )
    return EXIT_OK


def cmd_keygen(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    policy = parse_policy(args.policy)
    sk = keygen(pp, mk, tree, args.id, policy, _rng_for(_resolve_seed(args)))
    serial.write_envelopes([_artifact(args.out, "sk", pp, phash, serial.sk_payload(sk)),
                            _state(args.state, pp, mk, tree, rl)])
    print(f"key for {args.id!r} at leaf {tree.leaf_for(args.id)}, policy {policy.formula!r}")
    print(f"wrote sk to {args.out}")
    return EXIT_OK


def cmd_update_key(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    ku = update_key(pp, mk, tree, rl, args.epoch, _rng_for(_resolve_seed(args)))
    serial.write_envelopes([_artifact(args.out, "ku", pp, phash, serial.ku_payload(ku))])
    print(f"key update for epoch {args.epoch}: {len(ku.parts)} cover node(s)")
    print(f"wrote ku to {args.out}")
    return EXIT_OK


def cmd_revoke(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    revoke(tree, rl, args.id, args.epoch, pp.max_time)
    serial.write_envelopes([_state(args.state, pp, mk, tree, rl)])
    print(f"revoked {args.id!r} from epoch {rl.epochs[args.id]} onward")
    return EXIT_OK


_STATE_WRITERS = (cmd_setup, cmd_keygen, cmd_revoke)  # each runs under _state_lock


def cmd_encrypt(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    attrs = _parse_attrs(args.attrs)
    rng = _rng_for(_resolve_seed(args))
    if args.message:
        message = _read_artifact(args.message, "msg", phash, serial.msg_from_payload, pp, tree)
    else:
        message = pp.ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, attrs, args.epoch, message, rng)
    pairs = [_artifact(args.out, "ct-original", pp, phash, serial.ct_original_payload(ct))]
    if args.random_message:
        pairs.insert(0, _artifact(args.random_message, "msg", pp, phash, serial.msg_payload(message)))
    serial.write_envelopes(pairs)
    if args.random_message:
        print(f"wrote msg to {args.random_message}")
    print(
        f"encrypted for attributes {sorted(attrs)} at epoch {args.epoch}; "
        f"update slots {sorted(ct.e2)}"
    )
    print(f"wrote ct-original to {args.out}")
    return EXIT_OK


def cmd_update_ct(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    ct = _read_artifact(args.ct, "ct-original", phash, serial.ct_original_from_payload, pp, tree)
    updated = update_ct(pp, ct, args.epoch, _rng_for(_resolve_seed(args)))
    if updated is None:
        print(f"refused: epoch {args.epoch} lies before the ciphertext's epoch {ct.epoch}")
        return EXIT_REFUSED
    serial.write_envelopes(
        [_artifact(args.out, "ct-updated", pp, phash, serial.ct_updated_payload(updated))])
    print(f"ciphertext moved from epoch {ct.epoch} to {updated.epoch}")
    print(f"wrote ct-updated to {args.out}")
    return EXIT_OK


def cmd_derive_dk(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    sk = _read_artifact(args.sk, "sk", phash, serial.sk_from_payload, pp, tree)
    ku = _read_artifact(args.ku, "ku", phash, serial.ku_from_payload, pp, tree)
    dk = derive_dk(sk, ku)
    if dk is None:
        print(f"no decryption key: {sk.identity!r} is revoked at epoch {ku.epoch}")
        return EXIT_REFUSED
    serial.write_envelopes([_artifact(args.out, "dk", pp, phash, serial.dk_payload(dk))])
    print(f"decryption key for {sk.identity!r} at epoch {ku.epoch} (tree node {dk.node})")
    print(f"wrote dk to {args.out}")
    return EXIT_OK


def cmd_decrypt(args):
    phash, pp, mk, tree, rl = _load_state(args.state)
    ct = _read_artifact(args.ct, "ct-updated", phash, serial.ct_updated_from_payload, pp, tree)
    dk = _read_artifact(args.dk, "dk", phash, serial.dk_from_payload, pp, tree)
    if dk.epoch != ct.epoch:  # two files that disagree, each valid on its own
        raise ParameterError(f"{args.dk}: field 'epoch': key epoch {dk.epoch} does not match "
                             f"ciphertext epoch {ct.epoch}; decrypting would yield noise")
    if args.expect:
        expected = _read_artifact(args.expect, "msg", phash, serial.msg_from_payload, pp, tree)
    message = decrypt(pp, ct, dk)
    payload = serial.msg_payload(message)
    serial.write_envelopes([_artifact(args.out, "msg", pp, phash, payload)] if args.out else [])
    print(f"recovered: {payload['value']}")
    if args.out:
        print(f"wrote msg to {args.out}")
    if args.expect:
        print(f"verdict: {'MATCH' if message == expected else 'MISMATCH'}")
        return EXIT_OK if message == expected else EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack-demo


def _suggest_pairs(max_time, limit=5):
    """(latest backdatable epoch, t*) for the first t* that have one."""
    pairs = []
    for t_star in range(2, max_time):
        candidates = backdatable_epochs(t_star, max_time)
        if candidates:
            pairs.append((candidates[-1], t_star))
            if len(pairs) == limit:
                break
    return pairs


def cmd_attack_demo(args):
    from . import game  # the one command that plays games imports them

    if args.trials < 1:  # before the run header or a drawn seed is printed
        raise ParameterError("need at least one trial")
    # the sizes too; the range first, since the default t* below presumes a valid one
    check_sizes(args.users, args.max_time, args.attr_bound)
    seed = _resolve_seed(args)
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
        print(f"seed: {seed} (drawn from the system; pass --seed to reproduce)")
    ctx = new_context(args.backend)
    max_time = args.max_time
    t_star = args.t_star
    if t_star is None:
        t_star = 7 if max_time >= 16 else max(2, max_time // 2 - 1)
    candidates = backdatable_epochs(t_star, max_time)
    t = args.t if args.t is not None else (candidates[-1] if candidates else None)
    if t not in candidates:  # also when t is None
        if t is None:
            print(f"no epoch before {t_star} can be rewound to at epoch range {max_time}.")
        else:
            print(f"pair (t={t}, t*={t_star}) is not vulnerable at epoch range {max_time}.")
        if candidates:
            print(f"backdatable epochs from {t_star}: {candidates}")
        suggestions = _suggest_pairs(max_time)
        if suggestions:
            print("vulnerable (t, t*) pairs to try: " + ", ".join(map(str, suggestions)))
        return EXIT_INVALID

    mode = game.WEAKER if args.weaker_model else game.STANDARD
    print(
        f"backdating attack: {args.trials} trial(s), backend {ctx.backend}, mode {mode}, "
        f"challenge epoch {t_star} rewound to {t}"
    )
    transcripts = game.run_game_trials(
        args.trials,
        ctx=ctx,
        seed=seed,
        mode=mode,
        adversary_cls=lambda rng: game.BackdateAdversary(rng, t_star=t_star, t=t),
        n_users=args.users,
        max_time=max_time,
        attr_max=args.attr_bound,
        capture_all=bool(args.transcripts),  # each envelope names its trial's parameters
    )
    _print_narrative(transcripts[0])
    report = game.advantage_report(transcripts, seed=seed)
    print()
    print(game.format_report(report))
    pairs = [(args.out, report)] if args.out else []
    pairs += [
        (name, serial.envelope("transcript", tr.backend,
                               serial.params_hash(serial.pp_payload(tr.artifacts["pp"])),
                               game.transcript_payload(tr)))
        for name, tr in zip(_transcript_names(args), transcripts)
    ]
    made = []  # the directories this run makes, deepest first
    path = os.path.normpath(args.transcripts or os.curdir)
    while path and not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        for path in reversed(made):
            os.mkdir(path)
        serial.write_envelopes(pairs)
    except BaseException:
        for path in made:  # a failed write leaves no directory behind that it made
            with contextlib.suppress(OSError):  # not empty, or never made
                os.rmdir(path)
        raise
    if args.out:
        print(f"wrote report to {args.out}")
    if args.transcripts:
        print(f"wrote {len(transcripts)} transcript envelope(s) to {args.transcripts}/")
    return EXIT_OK


def _print_narrative(tr):
    notes = tr.notes
    print(f"\ntrial 0 ({tr.outcome}):")
    print(f"  1. committed to target attribute set {sorted(tr.challenge_attrs)}")
    if notes.get("harvested"):
        print(
            f"  2. harvested a satisfying private key, holder revoked at epoch {notes['t_star']}"
        )
        print(
            f"  3. public key update at epoch {notes['t']} gave a live decryption key "
            f"(and none at {notes['t_star']}: the revocation held)"
        )
        print(f"  4. rewound the challenge ciphertext, folding update slots {notes['folded_slots']}")
        matched = notes.get("recovered_matches")
        print(
            f"  5. decrypted to challenge message {matched}; hidden bit was {tr.challenge_bit}"
        )
    else:
        print("  2. harvest withheld (weaker model); no credential to combine")
        print(f"  3-5. skipped; guessed {tr.guess} against hidden bit {tr.challenge_bit}")


# ---------------------------------------------------------------------------
# lemma-check


def cmd_lemma_check(args):
    if args.pair:
        try:
            t, t_star = (int(x) for x in args.pair.split(","))
        except ValueError:
            raise RabeError(f"--pair wants 't,t*', got {args.pair!r}") from None
        top = args.max_time
        need = zero_positions(epoch_bits(t, top))
        kept = zero_positions(ct_epoch_bits(t_star, top))
        verdict = "vulnerable" if t in backdatable_epochs(t_star, top) else "not vulnerable"
        print(f"epoch range {top}: pair (t={t}, t*={t_star}) is {verdict}")
        print(f"  slots needed by {t}:  {sorted(need)}")
        print(f"  slots kept by {t_star}'s ciphertext encoding: {sorted(kept)}")
        return EXIT_OK

    if not 2 <= args.tau_min <= args.tau_max:
        raise RabeError("need 2 <= tau-min <= tau-max")
    if args.tau_max > 16:
        raise RabeError("enumeration budget ends at tau 16")
    rows = [lemma_row(tau) for tau in range(args.tau_min, args.tau_max + 1)]
    all_ok = all(row["ok"] for row in rows)

    print("tau  regime pairs  vulnerable  outside vulnerable  check      status")
    for row in rows:
        print(
            f"{row['tau']:>3}  {row['regime_pairs']:>12}  {row['regime_vulnerable']:>10}  "
            f"{row['outside_vulnerable']:>18}  {row['check']:<9}  "
            f"{'ok' if row['ok'] else 'FAIL'}"
        )
        if row["outside_samples"]:
            shown = ", ".join(map(str, row["outside_samples"]))
            print(f"     sample vulnerable pairs outside the lower half: {shown}")
    print(
        "every lower-half pair is vulnerable"
        if all_ok
        else "MISMATCH between enumeration and closed form"
    )
    serial.write_envelopes([(args.out, rows)] if args.out else [])
    if args.out:
        print(f"wrote table to {args.out}")
    return EXIT_OK if all_ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is invalid input: exit 3, one error line
        raise RabeError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="rabe",
        description="Revocable attribute-based encryption with epoch-bound "
        "ciphertexts, and the backdating attack against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, state=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=None, help="deterministic randomness")
        if state:
            p.add_argument("--state", required=True)
        return p

    p = add("setup", cmd_setup, "create a deployment state file")
    p.add_argument("--backend", choices=BACKENDS, default=TRANSPARENT)
    p.add_argument("--users", type=int, default=8,
                   help="users, at most 65536 (the tree capacity is the next power of two)")
    p.add_argument("--max-time", type=int, default=32, help="epoch range, a power of two")
    p.add_argument("--attr-bound", type=int, default=4, help="largest attribute value")

    p = add("keygen", cmd_keygen, "issue a private key for an identity and policy")
    p.add_argument("--id", required=True)
    p.add_argument("--policy", required=True, help='e.g. "1 AND (2 OR 3)"')
    p.add_argument("--out", required=True)

    p = add("update-key", cmd_update_key, "broadcast key update for an epoch")
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("revoke", cmd_revoke, "revoke an identity from an epoch onward")
    p.add_argument("--id", required=True)
    p.add_argument("--epoch", type=int, required=True)

    p = add("encrypt", cmd_encrypt, "encrypt a message to attributes and an epoch")
    p.add_argument("--attrs", required=True, help="comma-separated, e.g. 1,2")
    p.add_argument("--epoch", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--message", help="msg envelope to encrypt")
    group.add_argument(
        "--random-message",
        metavar="PATH",
        help="draw a random message and write its msg envelope here",
    )
    p.add_argument("--out", required=True)

    p = add("update-ct", cmd_update_ct, "move a ciphertext forward in time")
    p.add_argument("--ct", required=True, help="ct-original envelope")
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("derive-dk", cmd_derive_dk, "combine a private key with a key update")
    p.add_argument("--sk", required=True)
    p.add_argument("--ku", required=True)
    p.add_argument("--out", required=True)

    p = add("decrypt", cmd_decrypt, "decrypt an updated ciphertext")
    p.add_argument("--ct", required=True, help="ct-updated envelope")
    p.add_argument("--dk", required=True)
    p.add_argument("--expect", help="msg envelope to compare against")
    p.add_argument("--out", help="write the recovered msg envelope")

    p = add("attack-demo", cmd_attack_demo, "run the five-step backdating adversary", state=False)
    p.add_argument("--backend", choices=BACKENDS, default=TRANSPARENT)
    p.add_argument("--users", type=int, default=8)
    p.add_argument("--max-time", type=int, default=32)
    p.add_argument("--attr-bound", type=int, default=4)
    p.add_argument("--t-star", type=int, default=None, help="challenge epoch")
    p.add_argument("--t", type=int, default=None, help="epoch to rewind to")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--weaker-model", action="store_true",
                   help="withhold revoked credentials from the adversary")
    p.add_argument("--out", help="write the report as JSON")
    p.add_argument("--transcripts", metavar="DIR", help="write one transcript envelope per trial")

    p = add("lemma-check", cmd_lemma_check, "enumerate rewindable epoch pairs", state=False)
    p.add_argument("--tau-min", type=int, default=2)
    p.add_argument("--tau-max", type=int, default=10)
    p.add_argument("--pair", help="check one 't,t*' pair instead")
    p.add_argument("--max-time", type=int, default=32, help="epoch range for --pair")
    p.add_argument("--out", help="write the table as JSON")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_paths(args)
        with _state_lock(args.state) if args.func in _STATE_WRITERS else contextlib.nullcontext():
            return args.func(args)
    except RabeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
