"""Acceptance gate: every shipped guarantee, one printed verdict line each.

Each test states a user-facing promise, measures it, prints a single
PASS/FAIL line with the elapsed time, and only then asserts.  Run with
`pytest -s tests/test_acceptance.py` to watch the lines as they print.

Tests that manufacture transparent-backend artifacts (the constructive
backdating sweep, the game trials, the random scenario sweep) register
everything they build in a shared pool; the exponent audit at the end
re-derives every component of every pooled artifact from the master key
and fails on any mismatch.  When the audit test runs alone it regenerates
a reduced pool for itself.
"""

from time import perf_counter

from formula_oracle import formula_holds

from rabe.audit import (
    audit_decryption_key,
    audit_key_update,
    audit_original_ct,
    audit_private_key,
    audit_updated_ct,
    failures,
    read_params,
)
from rabe.game import WEAKER, NullAdversary, run_game_trials
from rabe.groups import SIDE_TARGET, new_context
from rabe.policy import parse_policy
from rabe.rng import SeededRng
from rabe.scheme import (
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
from rabe.timecode import bit_width, ct_epoch_bits, epoch_bits, zero_positions
from rabe.tree import RevocationList, TreeState

SEED = 20260822

# (label, thunk) pairs; each thunk re-audits one artifact and returns its
# check list.  Filled by the producing tests, drained by the audit test.
_AUDIT_POOL: list[tuple[str, object]] = []


def _verdict(name: str, ok: bool, seconds: float, detail: str) -> None:
    unit = f"{seconds * 1000:.3f} ms" if seconds < 0.1 else f"{seconds:.2f} s"
    print(f"[accept] {name}: {'PASS' if ok else 'FAIL'} ({unit}) {detail}")


def _shuffled(items, rng):
    order = list(items)
    for i in range(len(order) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


# -- encoding vectors --------------------------------------------------------


def test_epoch_encoding_vectors():
    t0 = perf_counter()
    got = (
        epoch_bits(5, 32),
        epoch_bits(7, 32),
        ct_epoch_bits(7, 32),
        zero_positions(epoch_bits(5, 32)),
        zero_positions(ct_epoch_bits(7, 32)),
    )
    dt = perf_counter() - t0
    want = (
        "00101",
        "00111",
        "00000",
        frozenset({1, 2, 4}),
        frozenset({1, 2, 3, 4, 5}),
    )
    ok = got == want and dt < 1e-3
    _verdict("encoding-vectors", ok, dt, "five encoding vectors bit-exact, budget 1 ms")
    assert got == want
    assert dt < 1e-3


# -- lower half is always rewindable ----------------------------------------


def test_lower_half_always_backdatable():
    """For every capacity 2^tau, tau 2..10: any ciphertext anchored below
    the halfway epoch can be rewound to every earlier epoch."""
    t0 = perf_counter()
    pairs = 0
    bad = []
    for tau in range(2, 11):
        max_time = 2 ** tau
        half = max_time // 2
        zp = {t: zero_positions(epoch_bits(t, max_time)) for t in range(1, half)}
        zpc = {t: zero_positions(ct_epoch_bits(t, max_time)) for t in range(1, half)}
        for t_star in range(2, half):
            for t in range(1, t_star):
                pairs += 1
                if not zp[t] <= zpc[t_star]:
                    bad.append((tau, t, t_star))
        n = half - 1
        assert sum(1 for ts in range(2, half) for _ in range(1, ts)) == n * (n - 1) // 2
    dt = perf_counter() - t0
    ok = not bad and dt < 10.0
    _verdict(
        "lower-half-sweep",
        ok,
        dt,
        f"{pairs} ordered pairs across widths 2..10, {len(bad)} counterexamples, budget 10 s",
    )
    assert bad == []
    assert dt < 10.0


# -- every vulnerable pair actually decrypts --------------------------------


def _vulnerable_pairs(max_time: int) -> list[tuple[int, int]]:
    zp = {t: zero_positions(epoch_bits(t, max_time)) for t in range(1, max_time)}
    zpc = {t: zero_positions(ct_epoch_bits(t, max_time)) for t in range(1, max_time)}
    return [
        (t, t_star)
        for t_star in range(2, max_time)
        for t in range(1, t_star)
        if zp[t] <= zpc[t_star]
    ]


# independently derived: lower-half pairs n(n-1)/2 with n = 2^(tau-1) - 1,
# plus, for each upper-half t_star, the epochs below the ones-prefix gap
_PAIR_COUNTS = {2: 0, 3: 4, 4: 28, 5: 140, 6: 620}


def _backdate_cases(tau: int, pool: list):
    """Run the constructive rewind for every vulnerable pair at one width.

    Returns (pairs, successes) and appends every produced artifact to pool.
    """
    max_time = 2 ** tau
    ctx = new_context()
    rng = SeededRng(f"accept/backdate/{tau}")
    pp, mk, state, rl = setup(ctx, 2, max_time, 1, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    pool.append((f"tau={tau} params", lambda: read_params(pp, mk)[1]))
    pool.append((f"tau={tau} sk", lambda: audit_private_key(pp, mk, state, sk)))
    dks = {}
    for t in sorted({t for t, _ in _vulnerable_pairs(max_time)}):
        ku = update_key(pp, mk, state, rl, t, rng)
        dk = derive_dk(sk, ku)
        assert dk is not None
        dks[t] = dk
        pool.append(
            (
                f"tau={tau} ku@{t}",
                lambda ku=ku: audit_key_update(pp, mk, state, rl, ku),
            )
        )
        pool.append(
            (
                f"tau={tau} dk@{t}",
                lambda dk=dk: audit_decryption_key(pp, mk, state, dk),
            )
        )
    pairs = _vulnerable_pairs(max_time)
    good = 0
    for t, t_star in pairs:
        msg = ctx.random_element(SIDE_TARGET, rng)
        ct = encrypt(pp, {1}, t_star, msg, rng)
        outdated = fold_ciphertext(pp, ct, t, rng)
        if decrypt(pp, outdated, dks[t]) == msg:
            good += 1
        pool.append(
            (
                f"tau={tau} ct@{t_star}",
                lambda ct=ct, msg=msg: audit_original_ct(pp, mk, ct, msg),
            )
        )
        pool.append(
            (
                f"tau={tau} ct@{t_star}->{t}",
                lambda outdated=outdated, msg=msg: audit_updated_ct(
                    pp, mk, outdated, msg
                ),
            )
        )
    return len(pairs), good


def test_every_vulnerable_pair_decrypts():
    """Constructive sweep: for every vulnerable (t, t_star) at widths up to
    6, rewinding a fresh ciphertext from t_star to t and decrypting with an
    epoch-t key recovers the message."""
    t0 = perf_counter()
    total = 0
    good = 0
    for tau in range(2, 7):
        expected = _PAIR_COUNTS[tau]
        found = len(_vulnerable_pairs(2 ** tau))
        assert found == expected, f"tau={tau}: {found} pairs, expected {expected}"
        if expected == 0:
            continue
        pairs, ok = _backdate_cases(tau, _AUDIT_POOL)
        total += pairs
        good += ok
    dt = perf_counter() - t0
    ok = good == total == sum(_PAIR_COUNTS.values()) and dt < 30.0
    _verdict(
        "constructive-rewind",
        ok,
        dt,
        f"{good}/{total} vulnerable pairs decrypt after rewind, budget 30 s",
    )
    assert good == total == sum(_PAIR_COUNTS.values())
    assert dt < 30.0


# -- the attack wins every game ---------------------------------------------


def _pool_game_artifacts(transcripts, pool: list):
    for i, tr in enumerate(transcripts):
        art = tr.artifacts
        assert art is not None
        pp, mk, tree, rl = art["pp"], art["mk"], art["tree"], art["rl"]
        msg = art["messages"][tr.challenge_bit]
        pool.append((f"trial {i} params", lambda pp=pp, mk=mk: read_params(pp, mk)[1]))
        pool.append(
            (
                f"trial {i} sk",
                lambda pp=pp, mk=mk, tree=tree, sk=art["sk"]: audit_private_key(
                    pp, mk, tree, sk
                ),
            )
        )
        for name in ("ku_t", "ku_star"):
            pool.append(
                (
                    f"trial {i} {name}",
                    lambda pp=pp, mk=mk, tree=tree, rl=rl, ku=art[name]: (
                        audit_key_update(pp, mk, tree, rl, ku)
                    ),
                )
            )
        pool.append(
            (
                f"trial {i} dk",
                lambda pp=pp, mk=mk, tree=tree, dk=art["dk"]: audit_decryption_key(
                    pp, mk, tree, dk
                ),
            )
        )
        pool.append(
            (
                f"trial {i} ct_star",
                lambda pp=pp, mk=mk, ct=art["ct_star"], msg=msg: audit_original_ct(
                    pp, mk, ct, msg
                ),
            )
        )
        pool.append(
            (
                f"trial {i} ct_backdated",
                lambda pp=pp, mk=mk, ct=art["ct_backdated"], msg=msg: (
                    audit_updated_ct(pp, mk, ct, msg)
                ),
            )
        )


def test_attack_wins_every_trial():
    t0 = perf_counter()
    transparent = run_game_trials(
        100, ctx=new_context(), seed=SEED, capture_all=True
    )
    t_wins = sum(tr.won for tr in transparent)
    real = run_game_trials(20, ctx=new_context("real"), seed=SEED)
    r_wins = sum(tr.won for tr in real)
    dt = perf_counter() - t0
    ok = t_wins == 100 and r_wins == 20 and dt < 120.0
    _verdict(
        "attack-trials",
        ok,
        dt,
        f"{t_wins}/100 transparent and {r_wins}/20 real wins, budget 2 min",
    )
    _pool_game_artifacts(transparent, _AUDIT_POOL)
    assert t_wins == 100
    assert r_wins == 20
    assert dt < 120.0


# -- random scenarios round-trip on both backends ---------------------------


def _random_scenario(rng, max_time: int, attr_max: int):
    """A random policy of at most 8 leaves, a random satisfying attribute
    set, and random epochs t <= t_prime."""
    leaves = 1 + rng.randbelow(8)

    def build(k: int) -> str:
        if k == 1:
            return str(1 + rng.randbelow(attr_max))
        cut = 1 + rng.randbelow(k - 1)
        op = "AND" if rng.randbelow(2) == 0 else "OR"
        return f"({build(cut)} {op} {build(k - cut)})"

    policy = parse_policy(build(leaves))
    attrs = set(policy.attributes())
    for a in _shuffled(sorted(attrs), rng):
        if len(attrs) > 1 and rng.randbelow(2) == 0:
            smaller = attrs - {a}
            if formula_holds(policy.formula, smaller):
                attrs = smaller
    assert formula_holds(policy.formula, attrs)
    t_prime = 1 + rng.randbelow(max_time - 1)
    t = 1 + rng.randbelow(t_prime)
    return policy, attrs, t, t_prime


def _run_scenario(ctx, pp, mk, state, rl, scenario, rng, pool=None, tag=""):
    policy, attrs, t, t_prime = scenario
    sk = keygen(pp, mk, state, "u", policy, rng)
    ku = update_key(pp, mk, state, rl, t_prime, rng)
    dk = derive_dk(sk, ku)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, attrs, t, msg, rng)
    ct2 = update_ct(pp, ct, t_prime, rng)
    ok = ct2 is not None and dk is not None and decrypt(pp, ct2, dk) == msg
    if pool is not None:
        pool.append((f"{tag} sk", lambda: audit_private_key(pp, mk, state, sk)))
        pool.append((f"{tag} ku", lambda: audit_key_update(pp, mk, state, rl, ku)))
        pool.append((f"{tag} dk", lambda: audit_decryption_key(pp, mk, state, dk)))
        pool.append((f"{tag} ct", lambda: audit_original_ct(pp, mk, ct, msg)))
        pool.append((f"{tag} ct'", lambda: audit_updated_ct(pp, mk, ct2, msg)))
    return ok


def _scenario_sweep(count: int, pool, seed=SEED):
    """count random scenarios, each run on both backends.  The real
    deployment is shared across scenarios (a fresh tree, with fresh node
    secrets, and fresh keys per run);
    the transparent side does a full setup each time so the audit pool gets
    independent deployments."""
    max_time, attr_max = 16, 8
    t_ctx = new_context()
    r_ctx = new_context("real")
    r_rng = SeededRng(f"accept/scenarios/real/{seed}")
    r_pp, r_mk, _, _ = setup(r_ctx, 2, max_time, attr_max, r_rng)
    t_good = r_good = 0
    for i in range(count):
        srng = SeededRng(f"accept/scenarios/{seed}/{i}")
        scenario = _random_scenario(srng, max_time, attr_max)
        t_rng = srng.child("transparent")
        pp, mk, state, rl = setup(t_ctx, 2, max_time, attr_max, t_rng)
        t_good += _run_scenario(
            t_ctx, pp, mk, state, rl, scenario, t_rng, pool, f"scenario {i}"
        )
        run_rng = srng.child("real")
        r_tree = TreeState(2, {node: r_ctx.random_scalar(run_rng) for node in (1, 2, 3)})
        r_good += _run_scenario(r_ctx, r_pp, r_mk, r_tree, RevocationList(), scenario, run_rng)
    return t_good, r_good


def test_random_scenarios_roundtrip():
    t0 = perf_counter()
    t_good, r_good = _scenario_sweep(200, _AUDIT_POOL)
    dt = perf_counter() - t0
    ok = t_good == r_good == 200 and dt < 120.0
    _verdict(
        "random-scenarios",
        ok,
        dt,
        f"{t_good}/200 transparent and {r_good}/200 real round-trips, budget 2 min",
    )
    assert t_good == 200
    assert r_good == 200
    assert dt < 120.0


# -- revocation is exact ----------------------------------------------------


def test_revocation_exhaustive():
    """All 256 revocation subsets of an 8-user tree, all epochs at capacity
    16: key derivation fails exactly for the revoked."""
    t0 = perf_counter()
    ctx = new_context()
    rng = SeededRng("accept/revocation")
    pp, mk, state, _ = setup(ctx, 8, 16, 1, rng)
    users = [f"u{i}" for i in range(8)]
    policy = parse_policy("1")
    sks = {u: keygen(pp, mk, state, u, policy, rng) for u in users}
    checked = 0
    bad = 0
    for subset in range(256):
        srng = SeededRng(f"accept/revocation/{subset}")
        rl = RevocationList()
        for i in range(8):
            if subset >> i & 1:
                revoke(state, rl, users[i], 1 + srng.randbelow(15), 16)
        for q in range(1, 16):
            ku = update_key(pp, mk, state, rl, q, srng)
            for u in users:
                dead = derive_dk(sks[u], ku) is None
                bad += dead != rl.revoked_at(u, q)
                checked += 1
    dt = perf_counter() - t0
    ok = bad == 0 and checked == 256 * 15 * 8
    _verdict(
        "revocation-sweep",
        ok,
        dt,
        f"{checked} derivations over all subsets and epochs, {bad} wrong",
    )
    assert bad == 0
    assert checked == 256 * 15 * 8


# -- honest games are coin flips --------------------------------------------


def test_weaker_model_is_coin_flip():
    """With satisfying-policy keys withheld the rewind buys nothing: the
    win rate over 1000 trials sits in [0.45, 0.55]."""
    t0 = perf_counter()
    trs = run_game_trials(1000, ctx=new_context(), seed=SEED, mode=WEAKER)
    rate = sum(tr.won for tr in trs) / 1000
    aborts = sum(tr.outcome == "abort" for tr in trs)
    dt = perf_counter() - t0
    ok = 0.45 <= rate <= 0.55 and aborts == 0
    _verdict(
        "weaker-model-rate",
        ok,
        dt,
        f"win rate {rate:.4f} over 1000 trials, {aborts} aborts, want [0.45, 0.55]",
    )
    assert 0.45 <= rate <= 0.55
    assert aborts == 0


def test_null_adversary_is_coin_flip():
    t0 = perf_counter()
    trs = run_game_trials(
        1000, ctx=new_context(), seed=SEED, adversary_cls=NullAdversary
    )
    rate = sum(tr.won for tr in trs) / 1000
    aborts = sum(tr.outcome == "abort" for tr in trs)
    dt = perf_counter() - t0
    ok = 0.45 <= rate <= 0.55 and aborts == 0
    _verdict(
        "null-adversary-rate",
        ok,
        dt,
        f"win rate {rate:.4f} over 1000 trials, {aborts} aborts, want [0.45, 0.55]",
    )
    assert 0.45 <= rate <= 0.55
    assert aborts == 0


# -- exponent audit of everything produced above ----------------------------


def test_exponent_audit_of_produced_artifacts():
    """Every component of every transparent artifact built by the sweeps
    above matches its re-derived exponent exactly (integer equality, no
    tolerance)."""
    t0 = perf_counter()
    pool = _AUDIT_POOL
    standalone = not pool
    if standalone:
        # running alone: regenerate a reduced pool
        pool = []
        _backdate_cases(4, pool)
        _pool_game_artifacts(
            run_game_trials(3, ctx=new_context(), seed=SEED, capture_all=True),
            pool,
        )
        _scenario_sweep(10, pool)
    n_checks = 0
    bad = []
    for label, thunk in pool:
        checks = thunk()
        n_checks += len(checks)
        bad.extend((label, f) for f in failures(checks))
    dt = perf_counter() - t0
    note = " (reduced standalone pool)" if standalone else ""
    _verdict(
        "exponent-audit",
        not bad,
        dt,
        f"{len(pool)} artifacts, {n_checks} exact checks, {len(bad)} mismatches{note}",
    )
    assert bad == [], bad[:5]
    assert n_checks > 0
