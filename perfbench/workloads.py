"""The four benchmark workloads.

Every workload draws its inputs from the run seed and runs in blocks: one
block holds one op per stratum of the input property that drives cost
(target-set size for the games, policy size for the readers), in a seeded
order.  A run measures whole blocks only, so every run sees the same cost
mix and only the seeded details (attributes, epochs, scalars) differ.

A workload object offers:

* setup()        build everything the ops need; repeatable, deterministic.
* reset()        restore mutable state before a pass over the ops.
* block(b)       the op inputs of block b, drawn from the seed.
* run(op)        the measured call into rabe; returns its outputs.
* check(op, r)   raise Failed unless the outputs are correct; return the
                 bytes that go into the run's output digest.
* close()        remove files the workload wrote.

rabe functions are always reached through their module (game.challenger_run,
not a from-imported name), so the tracer's patching sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

from rabe import cli, game, groups, policy, scheme, serial
from rabe.groups import REAL, SIDE_ONE, SIDE_TARGET, TRANSPARENT
from rabe.rng import SeededRng

N_USERS = 8
MAX_TIME = 32


class Failed(Exception):
    """An op produced a wrong result."""


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _shuffled(items, rng):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def fresh_context(backend, seed):
    """A cold context: the real one is a process-wide singleton that caches
    its target-group generator, so it is dropped first to let every set-up
    repeat pay for the lazy generator again."""
    if backend == REAL:
        groups._REAL_CONTEXT = None
    ctx = groups.new_context(backend, seed=seed)
    ctx.generator(SIDE_TARGET)
    return ctx


def cnf_policy(leaves, attrs, rng):
    """An AND of leaves // 2 + 1 OR-clauses over `leaves` distinct
    attributes drawn from attrs.  Any one attribute per clause is a minimal
    satisfying set, so every decryption of this key uses exactly that many
    policy rows, whatever the seed.  With 1..8 leaves the clause counts are
    1, 2, 2, 3, 3, 4, 4, 5: the middle and the upper quartile of a block's
    costs fall inside a pair of equal-cost users, not between two costs."""
    chosen = _shuffled(attrs, rng)[:leaves]
    n_clauses = leaves // 2 + 1
    clauses = [[a] for a in chosen[:n_clauses]]
    for a in chosen[n_clauses:]:
        clauses[rng.randbelow(n_clauses)].append(a)
    formula = " AND ".join("(" + " OR ".join(map(str, c)) + ")" for c in clauses)
    return formula, clauses


class _Workload:
    min_ops: int      # every untraced run measures at least this many ops
    trace_ops: int    # the traced run's fixed op list, also the digest window
    tail_pct: float   # op_tail_ms; min_ops leaves at least ten samples beyond it

    def reset(self):
        pass

    def close(self):
        pass


class Attack(_Workload):
    """One op is one challenger_run against BackdateAdversary with a fresh
    deployment.  A block holds one game per target-set size 1..attr_max."""

    ATTR_MAX = 4

    def __init__(self, name, backend, seed, min_ops, trace_ops, tail_pct):
        self.backend = backend
        self.seed = seed
        self.min_ops = min_ops
        self.trace_ops = trace_ops
        self.tail_pct = tail_pct
        self.root = SeededRng(seed).child(name)

    def setup(self):
        self.ctx = fresh_context(self.backend, self.seed)

    def _labels(self, b, size):
        # The adversary's first draw is its target-set size; take the first
        # child seed that draws `size`.  check() confirms the assumption.
        j = 0
        while True:
            label = f"block/{b}/size/{size}/try/{j}"
            if self.root.child(label + "/adversary").randbelow(self.ATTR_MAX) == size - 1:
                return label
            j += 1

    def block(self, b):
        sizes = _shuffled(range(1, self.ATTR_MAX + 1), self.root.child(f"block/{b}"))
        return [(size, self._labels(b, size)) for size in sizes]

    def run(self, op):
        _, label = op
        return game.challenger_run(
            game.BackdateAdversary(self.root.child(label + "/adversary")),
            ctx=self.ctx,
            rng=self.root.child(label + "/challenger"),
            mode=game.STANDARD,
            n_users=N_USERS,
            max_time=MAX_TIME,
            attr_max=self.ATTR_MAX,
            capture=True,
        )

    def check(self, op, tr):
        size, _ = op
        if len(tr.challenge_attrs) != size:
            raise RuntimeError(
                "BackdateAdversary no longer draws its target-set size first; "
                "the benchmark's stratified trial seeds need revising"
            )
        if tr.outcome != game.WIN or tr.notes.get("strategy") != "backdate":
            raise Failed(f"game not won: outcome {tr.outcome}, notes {tr.notes}")
        return _canonical([
            game.transcript_payload(tr),
            serial.ct_original_payload(tr.artifacts["ct_star"]),
            serial.ct_updated_payload(tr.artifacts["ct_backdated"]),
        ])


class Read(_Workload):
    """The reader path on one shared deployment with a warm T(x) cache:
    encrypt to a minimal satisfying set at epoch t, update_ct to t' >= t,
    decrypt with the user's key for t'.  A block holds one op per user;
    user k holds a k-leaf policy, so |I| runs over a fixed spread."""

    ATTR_MAX = 8
    min_ops = trace_ops = 40
    tail_pct = 75

    def __init__(self, seed):
        self.seed = seed
        self.root = SeededRng(seed).child("read-real")

    def setup(self):
        rng = self.root.child("setup")
        ctx = fresh_context(REAL, self.seed)
        pp, mk, tree, rl = scheme.setup(ctx, N_USERS, MAX_TIME, self.ATTR_MAX, rng)
        attrs = range(1, self.ATTR_MAX + 1)
        self.clauses = {}
        keys = {}
        for k in range(1, N_USERS + 1):
            formula, self.clauses[k] = cnf_policy(k, attrs, rng)
            keys[k] = scheme.keygen(pp, mk, tree, f"user-{k}", policy.parse_policy(formula), rng)
        kus = {t: scheme.update_key(pp, mk, tree, rl, t, rng) for t in range(1, MAX_TIME)}
        self.dks = {
            (k, t): scheme.derive_dk(keys[k], ku) for k in keys for t, ku in kus.items()
        }
        for x in attrs:
            pp.eval_t(x, SIDE_ONE)
        self.messages = {k: ctx.random_element(SIDE_TARGET, rng) for k in keys}
        self.pp = pp

    def block(self, b):
        rng = self.root.child(f"block/{b}")
        ops = []
        for k in _shuffled(range(1, N_USERS + 1), rng):
            t = 1 + rng.randbelow(MAX_TIME - 1)
            t2 = t + rng.randbelow(MAX_TIME - t)
            attrs = {c[rng.randbelow(len(c))] for c in self.clauses[k]}
            ops.append((k, t, t2, frozenset(attrs), f"block/{b}/user/{k}"))
        return ops

    def run(self, op):
        k, t, t2, attrs, label = op
        rng = self.root.child(label)
        ct = scheme.encrypt(self.pp, attrs, t, self.messages[k], rng)
        updated = scheme.update_ct(self.pp, ct, t2, rng)
        return ct, updated, scheme.decrypt(self.pp, updated, self.dks[(k, t2)])

    def check(self, op, result):
        ct, updated, message = result
        if message != self.messages[op[0]]:
            raise Failed(f"decrypt mismatch for user {op[0]} at epoch {op[2]}")
        return _canonical([serial.ct_original_payload(ct), serial.ct_updated_payload(updated)])


class Cli(_Workload):
    """In-process `rabe` commands on a real state file.  A cycle is
    update-key, derive-dk, encrypt --random-message, update-ct and decrypt
    --expect for one user; one op is one command.  A block holds one cycle
    per user; user k holds a k-leaf policy."""

    ATTR_MAX = 4
    USERS = 4
    min_ops = trace_ops = 40
    tail_pct = 75

    def __init__(self, seed, workdir):
        self.seed = seed
        self.root = SeededRng(seed).child("cli-real")
        self.dir = workdir

    def _path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        rng = self.root.child("setup")
        ctx = fresh_context(REAL, self.seed)
        pp, mk, tree, rl = scheme.setup(ctx, N_USERS, MAX_TIME, self.ATTR_MAX, rng)
        self.clauses = {}
        keys = {}
        for k in range(1, self.USERS + 1):
            formula, self.clauses[k] = cnf_policy(k, range(1, self.ATTR_MAX + 1), rng)
            keys[k] = scheme.keygen(pp, mk, tree, f"user-{k}", policy.parse_policy(formula), rng)
        state = serial.state_payload(pp, mk, tree, rl, 0)
        phash = serial.params_hash(state["pp"])
        for k, sk in keys.items():
            serial.write_envelope(
                self._path(f"sk-{k}.json"), serial.envelope("sk", REAL, phash, serial.sk_payload(sk))
            )
        serial.write_envelope(self._path("state.json"), serial.envelope("state", REAL, phash, state))
        with open(self._path("state.json"), "rb") as fh:
            self.state_bytes = fh.read()

    def reset(self):
        with open(self._path("state.json"), "wb") as fh:
            fh.write(self.state_bytes)

    def block(self, b):
        rng = self.root.child(f"block/{b}")
        state = self._path("state.json")
        ops = []
        for k in _shuffled(range(1, self.USERS + 1), rng):
            t = 1 + rng.randbelow(MAX_TIME - 1)
            t2 = t + rng.randbelow(MAX_TIME - t)
            attrs = ",".join(str(c[rng.randbelow(len(c))]) for c in self.clauses[k])
            ku, dk, msg, ct, ct2 = (
                self._path(f"{kind}-{k}.json") for kind in ("ku", "dk", "msg", "ct", "ct2")
            )
            seeds = [str(rng.randbelow(1 << 32)) for _ in range(5)]
            ops += [
                (["update-key", "--state", state, "--epoch", str(t2), "--out", ku], (ku,)),
                (["derive-dk", "--state", state, "--sk", self._path(f"sk-{k}.json"),
                  "--ku", ku, "--out", dk], (dk,)),
                (["encrypt", "--state", state, "--attrs", attrs, "--epoch", str(t),
                  "--random-message", msg, "--out", ct], (msg, ct)),
                (["update-ct", "--state", state, "--ct", ct, "--epoch", str(t2),
                  "--out", ct2], (ct2,)),
                (["decrypt", "--state", state, "--ct", ct2, "--dk", dk, "--expect", msg], ()),
            ]
            for (argv, _), seed in zip(ops[-5:], seeds):
                argv += ["--seed", seed]
        return ops

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op[0])
        return code, out.getvalue()

    def check(self, op, result):
        argv, outputs = op
        code, stdout = result
        if code != cli.EXIT_OK:
            raise Failed(f"`rabe {argv[0]}` exited {code}: {stdout.strip()}")
        if argv[0] == "decrypt":
            if "verdict: MATCH" not in stdout:
                raise Failed(f"decrypt verdict missing: {stdout.strip()}")
            return stdout.encode()
        data = b""
        for path in outputs:
            with open(path, "rb") as fh:
                data += fh.read()
        return data

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make(name, seed, workdir):
    if name == "attack-real":
        return Attack(name, REAL, seed, min_ops=40, trace_ops=20, tail_pct=75)
    if name == "attack-transparent":
        # p99 of a 1 ms op measures scheduler jitter on a shared machine
        return Attack(name, TRANSPARENT, seed, min_ops=1000, trace_ops=400, tail_pct=95)
    if name == "read-real":
        return Read(seed)
    if name == "cli-real":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("attack-real", "read-real", "cli-real", "attack-transparent")
