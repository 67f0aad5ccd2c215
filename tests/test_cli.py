import base64
import json
import shutil

import pytest

from rabe import cli
from rabe.cli import EXIT_INVALID, EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_REFUSED, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def deployment(tmp_path, capsys):
    """Seeded transparent deployment with one issued key."""
    state = tmp_path / "state.json"
    sk = tmp_path / "alice.sk.json"
    code, out, _ = run(capsys, "setup", "--state", state, "--seed", 9)
    assert code == EXIT_OK and "tree capacity 8" in out
    code, out, _ = run(
        capsys, "keygen", "--state", state, "--id", "alice",
        "--policy", "1 AND (2 OR 3)", "--out", sk, "--seed", 10,
    )
    assert code == EXIT_OK
    return tmp_path, state, sk


def test_full_scenario_end_to_end(deployment, capsys):
    tmp, state, sk = deployment
    ku = tmp / "ku7.json"
    msg = tmp / "msg.json"
    ct = tmp / "ct.json"
    ct2 = tmp / "ct2.json"
    dk = tmp / "dk.json"

    code, out, _ = run(capsys, "update-key", "--state", state, "--epoch", 7, "--out", ku, "--seed", 11)
    assert code == EXIT_OK and "cover node(s)" in out

    code, out, _ = run(
        capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 7,
        "--random-message", msg, "--out", ct, "--seed", 12,
    )
    assert code == EXIT_OK and "update slots [1, 2, 3, 4, 5]" in out

    code, out, _ = run(capsys, "update-ct", "--state", state, "--ct", ct, "--epoch", 7, "--out", ct2, "--seed", 13)
    assert code == EXIT_OK

    code, out, _ = run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", ku, "--out", dk, "--seed", 14)
    assert code == EXIT_OK and "alice" in out

    code, out, _ = run(
        capsys, "decrypt", "--state", state, "--ct", ct2, "--dk", dk, "--expect", msg,
    )
    assert code == EXIT_OK and "verdict: MATCH" in out


def test_attribute_lists_skip_blank_entries(deployment, capsys):
    tmp, state, _ = deployment
    code, out, _ = run(capsys, "encrypt", "--state", state, "--attrs", " 2,,1, ", "--epoch", 7,
                       "--random-message", tmp / "m.json", "--out", tmp / "ct.json", "--seed", 12)
    assert code == EXIT_OK and "encrypted for attributes [1, 2] at epoch 7" in out


def test_decrypt_refuses_unanchored_ciphertext(deployment, capsys):
    tmp, state, sk = deployment
    msg, ct, dk, ku = tmp / "m.json", tmp / "ct.json", tmp / "dk.json", tmp / "ku.json"
    run(capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 5,
        "--random-message", msg, "--out", ct, "--seed", 3)
    run(capsys, "update-key", "--state", state, "--epoch", 5, "--out", ku, "--seed", 4)
    run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", ku, "--out", dk)
    code, out, err = run(capsys, "decrypt", "--state", state, "--ct", ct, "--dk", dk)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(ct) in err and "update-ct first" in err


def test_epoch_mismatch_is_a_validation_error(deployment, capsys):
    tmp, state, sk = deployment
    msg, ct, ct2 = tmp / "m.json", tmp / "ct.json", tmp / "ct2.json"
    ku, dk = tmp / "ku.json", tmp / "dk.json"
    run(capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 5,
        "--random-message", msg, "--out", ct, "--seed", 3)
    run(capsys, "update-ct", "--state", state, "--ct", ct, "--epoch", 6, "--out", ct2, "--seed", 5)
    run(capsys, "update-key", "--state", state, "--epoch", 5, "--out", ku, "--seed", 4)
    run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", ku, "--out", dk)
    code, _, err = run(capsys, "decrypt", "--state", state, "--ct", ct2, "--dk", dk)
    assert code == EXIT_INVALID
    assert "does not match ciphertext epoch" in err
    assert f"{dk}: field 'epoch'" in err


def test_backwards_update_refused(deployment, capsys):
    tmp, state, sk = deployment
    msg, ct = tmp / "m.json", tmp / "ct.json"
    run(capsys, "encrypt", "--state", state, "--attrs", "1", "--epoch", 9,
        "--random-message", msg, "--out", ct, "--seed", 3)
    code, out, _ = run(capsys, "update-ct", "--state", state, "--ct", ct, "--epoch", 4,
                       "--out", tmp / "nope.json", "--seed", 5)
    assert code == EXIT_REFUSED
    assert "refused" in out
    assert not (tmp / "nope.json").exists()


def test_revoked_user_gets_no_decryption_key(deployment, capsys):
    tmp, state, sk = deployment
    ku = tmp / "ku.json"
    code, _, _ = run(capsys, "revoke", "--state", state, "--id", "alice", "--epoch", 6)
    assert code == EXIT_OK
    run(capsys, "update-key", "--state", state, "--epoch", 8, "--out", ku, "--seed", 4)
    code, out, _ = run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", ku,
                       "--out", tmp / "dk.json")
    assert code == EXIT_REFUSED
    assert "revoked" in out


def test_decrypt_mismatch_exit_code(deployment, capsys):
    tmp, state, sk = deployment
    ku, dk = tmp / "ku.json", tmp / "dk.json"
    msg_a, ct_a, ct2_a = tmp / "ma.json", tmp / "cta.json", tmp / "ct2a.json"
    msg_b, ct_b = tmp / "mb.json", tmp / "ctb.json"
    run(capsys, "update-key", "--state", state, "--epoch", 7, "--out", ku, "--seed", 4)
    run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", ku, "--out", dk)
    run(capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 7,
        "--random-message", msg_a, "--out", ct_a, "--seed", 5)
    run(capsys, "update-ct", "--state", state, "--ct", ct_a, "--epoch", 7, "--out", ct2_a, "--seed", 6)
    run(capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 7,
        "--random-message", msg_b, "--out", ct_b, "--seed", 7)
    code, out, _ = run(capsys, "decrypt", "--state", state, "--ct", ct2_a, "--dk", dk,
                       "--expect", msg_b)
    assert code == EXIT_MISMATCH
    assert "verdict: MISMATCH" in out


def test_decrypt_of_incomplete_artifacts_is_a_validation_error(deployment, capsys):
    tmp, state, sk = deployment
    msg, ct, ct2 = tmp / "m.json", tmp / "ct.json", tmp / "ct2.json"
    ku, dk = tmp / "ku.json", tmp / "dk.json"
    run(capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 5,
        "--random-message", msg, "--out", ct, "--seed", 3)
    run(capsys, "update-ct", "--state", state, "--ct", ct, "--epoch", 5, "--out", ct2, "--seed", 5)
    run(capsys, "update-key", "--state", state, "--epoch", 5, "--out", ku, "--seed", 4)
    run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", ku, "--out", dk)

    env = json.loads(ct2.read_text())
    del env["payload"]["c2"]["2"]
    short_ct = tmp / "short-ct.json"
    short_ct.write_text(json.dumps(env))
    code, _, err = run(capsys, "decrypt", "--state", state, "--ct", short_ct, "--dk", dk)
    # its attributes are its c2 keys, so it is a ciphertext for attribute 1 alone
    assert code == EXIT_INVALID and "attributes [1] do not satisfy" in err

    env = json.loads(dk.read_text())
    env["payload"]["rows"] = env["payload"]["rows"][:1]
    short_dk = tmp / "short-dk.json"
    short_dk.write_text(json.dumps(env))
    code, _, err = run(capsys, "decrypt", "--state", state, "--ct", ct2, "--dk", short_dk)
    assert code == EXIT_INVALID and str(short_dk) in err and "'rows' holds 1 rows, not 3" in err


def test_validation_and_io_exit_codes(tmp_path, capsys):
    state = tmp_path / "state.json"
    code, _, err = run(capsys, "setup", "--state", state, "--max-time", 12, "--seed", 1)
    assert code == EXIT_INVALID and "power of two" in err
    code, _, err = run(capsys, "keygen", "--state", tmp_path / "absent.json",
                       "--id", "x", "--policy", "1", "--out", tmp_path / "o.json")
    assert code == EXIT_IO
    run(capsys, "setup", "--state", state, "--seed", 1)
    code, _, err = run(capsys, "keygen", "--state", state, "--id", "x",
                       "--policy", "1 XOR 2", "--out", tmp_path / "o.json")
    assert code == EXIT_INVALID
    # no depth cap: 400 nested parentheses are 801 tokens, under the token cap
    code, _, err = run(capsys, "keygen", "--state", state, "--id", "x",
                       "--policy", "(" * 400 + "1" + ")" * 400, "--out", tmp_path / "o.json")
    assert code == EXIT_OK, err
    code, _, err = run(capsys, "keygen", "--state", state, "--id", "x",
                       "--policy", " OR ".join(["1"] * 1000), "--out", tmp_path / "o.json")
    assert code == EXIT_INVALID and "over the cap of 1024" in err
    code, _, err = run(capsys, "encrypt", "--state", state, "--attrs", "one,two",
                       "--epoch", 3, "--random-message", tmp_path / "m.json",
                       "--out", tmp_path / "c.json")
    assert code == EXIT_INVALID


def test_io_error_names_the_missing_directory_not_a_temp_file(tmp_path, capsys):
    state = tmp_path / "absent" / "s.json"
    code, _, err = run(capsys, "setup", "--state", state, "--seed", 1)
    assert code == EXIT_IO
    assert str(state) in err and ".tmp" not in err
    assert not (tmp_path / "absent").exists()


def test_io_error_names_an_output_that_is_a_directory(deployment, capsys):
    tmp, state, _ = deployment
    adir = tmp / "adir"
    adir.mkdir()
    code, _, err = run(capsys, "keygen", "--state", state, "--id", "bob",
                       "--policy", "1", "--out", adir, "--seed", 3)
    assert code == EXIT_IO
    assert str(adir) in err and ".tmp" not in err
    assert not any(".tmp" in p.name for p in tmp.rglob("*"))


def test_artifacts_from_different_deployments_do_not_mix(tmp_path, capsys):
    state_a, state_b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "setup", "--state", state_a, "--seed", 1)
    run(capsys, "setup", "--state", state_b, "--seed", 2)
    sk = tmp_path / "sk.json"
    run(capsys, "keygen", "--state", state_a, "--id", "u", "--policy", "1", "--out", sk)
    ku = tmp_path / "ku.json"
    run(capsys, "update-key", "--state", state_b, "--epoch", 3, "--out", ku, "--seed", 3)
    code, _, err = run(capsys, "derive-dk", "--state", state_b, "--sk", sk, "--ku", ku,
                       "--out", tmp_path / "dk.json")
    assert code == EXIT_INVALID
    assert "parameter" in err.lower()


def test_attack_demo_seeded_run(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    tdir = tmp_path / "transcripts"
    code, out, _ = run(
        capsys, "attack-demo", "--seed", 7, "--trials", 5,
        "--out", report_path, "--transcripts", tdir,
    )
    assert code == EXIT_OK
    assert "challenge epoch 7 rewound to 6" in out
    assert "trial 0 (win):" in out
    assert "advantage         +0.5000" in out
    report = json.loads(report_path.read_text())
    assert report["trials"] == 5 and report["wins"] == 5
    files = sorted(tdir.glob("trial-*.json"))
    assert len(files) == 5
    env = json.loads(files[0].read_text())
    assert env["kind"] == "transcript"
    assert env["payload"]["outcome"] == "win"


def test_attack_demo_is_bit_reproducible(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for tdir in (out_a, out_b):
        code, _, _ = run(capsys, "attack-demo", "--seed", 42, "--trials", 3,
                         "--transcripts", tdir)
        assert code == EXIT_OK
    for name in ("trial-0000.json", "trial-0001.json", "trial-0002.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_attack_demo_weaker_model(tmp_path, capsys):
    code, out, _ = run(capsys, "attack-demo", "--seed", 3, "--trials", 6, "--weaker-model")
    assert code == EXIT_OK
    assert "mode weaker" in out
    assert "harvest withheld" in out


def test_attack_demo_rejects_dead_pair_with_suggestions(capsys):
    code, out, _ = run(
        capsys, "attack-demo", "--seed", 1, "--max-time", 8, "--t-star", 6, "--t", 5,
    )
    assert code == EXIT_INVALID
    assert "not vulnerable" in out
    assert "pairs to try" in out


@pytest.mark.parametrize("argv, suggested", [
    (["--t-star", 16], True),   # 16 = "10000": every earlier epoch needs slot 1
    (["--max-time", 4], False),  # default t* 2 = "10"; range 4 has no vulnerable pair
])
def test_attack_demo_names_a_t_star_with_no_backdatable_epoch(capsys, argv, suggested):
    code, out, _ = run(capsys, "attack-demo", "--trials", 1, "--seed", 1, *argv)
    assert code == EXIT_INVALID
    assert "None" not in out
    assert "no epoch before" in out and "can be rewound to" in out
    assert ("pairs to try" in out) == suggested


def test_attack_demo_checks_sizes_before_the_adversary_sees_them(capsys):
    code, _, err = run(capsys, "attack-demo", "--attr-bound", 0, "--trials", 1, "--seed", 1)
    assert code == EXIT_INVALID and "'attr_max' is 0" in err


@pytest.mark.parametrize("max_time", [0, 1, 2])
def test_attack_demo_rejects_an_epoch_range_too_small_for_any_pair(capsys, max_time):
    # the range is checked before a default t* is picked, so the error names it
    code, out, err = run(capsys, "attack-demo", "--max-time", max_time, "--trials", 1, "--seed", 1)
    assert code == EXIT_INVALID
    assert f"max_time must be a power of two >= 4, got {max_time}" in err
    assert "epoch" not in err and "Traceback" not in out + err


def test_attack_demo_takes_its_sizes_from_its_options(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "attack-demo", "--users", 2, "--max-time", 8, "--attr-bound", 2,
                       "--seed", 2, "--trials", 2, "--out", report)
    assert code == EXIT_OK
    assert "challenge epoch 3 rewound to 2" in out
    sizes = json.loads(report.read_text())
    assert (sizes["n_users"], sizes["max_time"], sizes["attr_max"]) == (2, 8, 2)


def test_setup_refuses_users_above_the_cap_at_once(tmp_path, capsys, monkeypatch, no_draws):
    # an rng that refuses every draw: a cap that stopped refusing fails here
    # at once, not after drawing 2^33 node secrets
    monkeypatch.setattr(cli, "_rng_for", lambda seed: no_draws)
    state = tmp_path / "s.json"
    code, out, err = run(capsys, "setup", "--state", state, "--users", 2**32)
    assert code == EXIT_INVALID and out == ""
    assert err == "error: n_users is 4294967296, above the cap of 65536\n"
    assert list(tmp_path.iterdir()) == []


def test_attack_demo_report_counts_users_not_the_tree_capacity(capsys):
    # 5 users sit on a tree of capacity 8; the report prints the 5
    code, out, _ = run(capsys, "attack-demo", "--users", 5, "--max-time", 8, "--attr-bound", 2,
                       "--seed", 1, "--trials", 1)
    assert code == EXIT_OK
    assert "users             5\n" in out and "capacity" not in out


def test_lemma_check_single_pair(capsys):
    code, out, _ = run(capsys, "lemma-check", "--pair", "5,7")
    assert code == EXIT_OK
    assert "(t=5, t*=7) is vulnerable" in out
    assert "slots needed by 5:  [1, 2, 4]" in out
    code, out, _ = run(capsys, "lemma-check", "--pair", "5,6", "--max-time", 8)
    assert code == EXIT_OK and "not vulnerable" in out
    code, out, _ = run(capsys, "lemma-check", "--pair", "5,6", "--max-time", 32)
    assert code == EXIT_OK and "is vulnerable" in out
    # epoch 0 is reserved: neither a rewind target nor a challenge epoch
    for pair in ("0,7", "5,0"):
        code, out, err = run(capsys, "lemma-check", "--pair", pair)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: epoch 0 outside [1, 31]\n", err


def test_lemma_check_table(tmp_path, capsys):
    table = tmp_path / "table.json"
    code, out, _ = run(capsys, "lemma-check", "--tau-min", 2, "--tau-max", 6, "--out", table)
    assert code == EXIT_OK
    assert "every lower-half pair is vulnerable" in out
    rows = json.loads(table.read_text())
    assert [r["tau"] for r in rows] == [2, 3, 4, 5, 6]
    assert all(r["ok"] for r in rows)
    by_tau = {r["tau"]: r for r in rows}
    assert by_tau[5]["regime_pairs"] == 105
    assert by_tau[5]["outside_vulnerable"] == 35
    code, _, err = run(capsys, "lemma-check", "--tau-max", 20)
    assert code == EXIT_INVALID and "budget" in err
    # one width, and the last within the budget, are tables too
    for tau in 4, 16:
        code, out, _ = run(capsys, "lemma-check", "--tau-min", tau, "--tau-max", tau)
        assert code == EXIT_OK and f"\n{tau:>3}  " in out


def test_seed_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RABE_SEED", "77")
    state_a, state_b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "setup", "--state", state_a)
    run(capsys, "setup", "--state", state_b)
    assert state_a.read_bytes() == state_b.read_bytes()
    monkeypatch.delenv("RABE_SEED")
    state_c, state_d = tmp_path / "c.json", tmp_path / "d.json"
    run(capsys, "setup", "--state", state_c)
    monkeypatch.setenv("RABE_SEED", "")  # set but empty counts as unset
    assert run(capsys, "setup", "--state", state_d)[0] == EXIT_OK
    assert state_c.read_bytes() != state_d.read_bytes()


# (--seed value, RABE_SEED value): each names its source and the range
BAD_SEEDS = {
    "flag-negative": ("-5", None),
    "flag-too-big": (str(2**256), None),
    "env-not-a-number": (None, "abc"),
    "env-negative": (None, "-5"),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_bad_seeds_exit_3_naming_their_source(tmp_path, capsys, monkeypatch, case):
    flag, env = BAD_SEEDS[case]
    if env is not None:
        monkeypatch.setenv("RABE_SEED", env)
    argv = ["setup", "--state", tmp_path / "state.json"] + (["--seed", flag] if flag else [])
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ("--seed" if flag else "RABE_SEED") in err and "[0, 2^256)" in err
    assert not (tmp_path / "state.json").exists()
    # both ends of the range are still seeds
    monkeypatch.delenv("RABE_SEED", raising=False)
    for seed in 2**256 - 1, 0:
        code, _, err = run(capsys, "setup", "--state", tmp_path / "state.json", "--seed", seed)
        assert code == EXIT_OK, err


# usage errors argparse finds: invalid input, so exit 3 with one error line
USAGE_ERRORS = {
    "setup-without-state": ["setup"],
    "epoch-not-an-integer": ["update-key", "--state", "s.json", "--epoch", "x", "--out", "k.json"],
    "unknown-subcommand": ["frobnicate", "--state", "s.json"],
    "unknown-flag": ["setup", "--state", "s.json", "--frobnicate"],
    # each trial runs its own setup from the size options: no state is read
    "attack-demo-with-state": ["attack-demo", "--state", "s.json", "--trials", "1"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_3_with_one_error_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *USAGE_ERRORS[case])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: rabe") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as help_exit:  # --help still prints and exits 0
        main(["setup", "--help"])
    assert help_exit.value.code == EXIT_OK and "--state" in capsys.readouterr().out


# hostile arguments: (argv, RABE_SEED or None); {state} is a seeded
# deployment's state file, {fresh} a state file not yet made, {msg} and
# {out} output files not yet made
HOSTILE = {
    "seed-negative": (["setup", "--state", "{fresh}", "--seed", -5], None),
    "seed-too-big": (["setup", "--state", "{fresh}", "--seed", 2**256], None),
    "env-seed-not-a-number": (["setup", "--state", "{fresh}"], "abc"),
    "env-seed-negative": (["setup", "--state", "{fresh}"], "-5"),
    "users-zero": (["setup", "--state", "{fresh}", "--users", 0], None),
    "users-negative": (["setup", "--state", "{fresh}", "--users", -3], None),
    "max-time-not-a-power-of-two": (["setup", "--state", "{fresh}", "--max-time", 3], None),
    "trials-zero": (["attack-demo", "--trials", 0, "--seed", 1], None),
    "trials-negative": (["attack-demo", "--trials", -1, "--seed", 1], None),
    "attack-users-zero": (["attack-demo", "--trials", 2, "--seed", 1, "--users", 0], None),
    "attack-users-past-the-cap": (
        ["attack-demo", "--trials", 2, "--seed", 1, "--users", 65537], None),
    "attack-attr-bound-zero": (
        ["attack-demo", "--trials", 2, "--seed", 1, "--attr-bound", 0], None),
    "t-star-zero": (["attack-demo", "--t-star", 0, "--trials", 1, "--seed", 1], None),
    "t-star-past-the-range": (["attack-demo", "--t-star", 40, "--trials", 1, "--seed", 1], None),
    "epoch-zero": (["update-key", "--state", "{state}", "--epoch", 0, "--out", "{out}"], None),
    "epoch-past-the-range": (
        ["update-key", "--state", "{state}", "--epoch", 99, "--out", "{out}"], None),
    "attrs-zero": (["encrypt", "--state", "{state}", "--attrs", "0", "--epoch", 3,
                    "--random-message", "{msg}", "--out", "{out}"], None),
    "attrs-negative": (["encrypt", "--state", "{state}", "--attrs", "-1", "--epoch", 3,
                        "--random-message", "{msg}", "--out", "{out}"], None),
    "attrs-past-the-bound": (["encrypt", "--state", "{state}", "--attrs", "9", "--epoch", 3,
                              "--random-message", "{msg}", "--out", "{out}"], None),
    "tau-min-one": (["lemma-check", "--tau-min", 1], None),
    "tau-min-above-tau-max": (["lemma-check", "--tau-min", 5, "--tau-max", 4], None),
    "tau-max-past-the-budget": (["lemma-check", "--tau-max", 17], None),
    "pair-not-two-integers": (["lemma-check", "--pair", "3"], None),
    "attrs-empty": (["encrypt", "--state", "{state}", "--attrs", ",", "--epoch", 3,
                     "--random-message", "{msg}", "--out", "{out}"], None),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_arguments_exit_cleanly(deployment, capsys, monkeypatch, case):
    tmp, state, _ = deployment
    command, env = HOSTILE[case]
    if env is not None:
        monkeypatch.setenv("RABE_SEED", env)
    argv = [str(a).format(state=state, fresh=tmp / "fresh.json", msg=tmp / "msg.json",
                          out=tmp / "out.json")
            for a in command]
    code, out, err = run(capsys, *argv)
    assert code in (EXIT_REFUSED, EXIT_INVALID, EXIT_IO), (code, out, err)
    assert "Traceback" not in out + err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # a rejected command leaves no output file behind and announces no run
    assert not (tmp / "msg.json").exists() and not (tmp / "out.json").exists()
    if case.startswith(("trials-", "attack-")):  # a size refused before the run header
        assert out == "", out


@pytest.fixture
def artifacts(deployment, capsys):
    """Every artifact kind of one transparent deployment, ready to tamper with."""
    tmp, state, sk = deployment
    paths = {name: tmp / f"{name}.json" for name in ("ku", "msg", "ct", "ct2", "dk")}
    run(capsys, "update-key", "--state", state, "--epoch", 7, "--out", paths["ku"], "--seed", 11)
    run(capsys, "encrypt", "--state", state, "--attrs", "1,2", "--epoch", 7,
        "--random-message", paths["msg"], "--out", paths["ct"], "--seed", 12)
    run(capsys, "update-ct", "--state", state, "--ct", paths["ct"], "--epoch", 7,
        "--out", paths["ct2"], "--seed", 13)
    run(capsys, "derive-dk", "--state", state, "--sk", sk, "--ku", paths["ku"],
        "--out", paths["dk"])
    return dict(paths, state=state, sk=sk, out=tmp / "out.json")


def _edit(fn):
    def apply(path):
        env = json.loads(path.read_text())
        fn(env)
        path.write_text(json.dumps(env))
    return apply


def _at(env, keys):
    for key in keys:
        env = env[key]
    return env


def _set(*keys_and_value):
    """Replace the value at keys; a callable value maps the old one."""
    *keys, value = keys_and_value

    def fn(env):
        parent = _at(env, keys[:-1])
        parent[keys[-1]] = value(parent[keys[-1]]) if callable(value) else value
    return _edit(fn)


def _drop(*keys):
    return _edit(lambda env: _at(env, keys[:-1]).pop(keys[-1]))


def _on_both(edit):
    """edit applied to the tampered ct2 and to the dk beside it, so that the
    two still agree."""
    def apply(path):
        edit(path)
        edit(path.with_name("dk.json"))
    return apply


DECRYPT = ("decrypt", "--state", "{state}", "--ct", "{ct2}", "--dk", "{dk}")
UPDATE_KEY = ("update-key", "--state", "{state}", "--epoch", "8", "--out", "{out}")
DERIVE_DK = ("derive-dk", "--state", "{state}", "--sk", "{sk}", "--ku", "{ku}", "--out", "{out}")
UPDATE_CT = ("update-ct", "--state", "{state}", "--ct", "{ct}", "--epoch", "9", "--out", "{out}")

# (file to tamper with, tampering, command to run, words the error must name)
MUTATIONS = {
    "c2-key-not-an-int": ("ct2", _set("payload", "c2", lambda c2: {"x": c2["1"], "2": c2["2"]}),
                          DECRYPT, ("'c2'",)),
    # "²" is a digit to str.isdigit, yet int() refuses it
    "c2-key-superscript": ("ct2", _set("payload", "c2", lambda c2: {"²": c2["1"], "2": c2["2"]}),
                           DECRYPT, ("'c2'", "not a decimal integer")),
    "e_t-missing": ("ct2", _drop("payload", "e_t"), DECRYPT, ("'e_t'",)),
    "policy-missing": ("dk", _drop("payload", "policy"), DECRYPT, ("'policy'",)),
    "payload-a-list": ("ct2", _set("payload", []), DECRYPT, ("'payload'",)),
    "c2-an-int": ("ct2", _set("payload", "c2", 5), DECRYPT, ("'c2'",)),
    "dk-row-of-one": ("dk", _set("payload", "rows", lambda rows: [rows[0][:1]] + rows[1:]),
                      DECRYPT, ("'rows'",)),
    "formula-an-int": ("dk", _set("payload", "policy", "formula", 3), DECRYPT, ("'formula'",)),
    "policy-a-string": ("sk", _set("payload", "policy", "1 AND (2 OR 3)"), DERIVE_DK,
                        ("'policy' must be dict",)),
    "formula-over-the-cap": ("sk", _set("payload", "policy", "formula", " OR ".join(["1"] * 1000)),
                             DERIVE_DK, ("'formula'", "over the cap")),
    "leaves-a-list": ("state", _set("payload", "tree", "leaves", []), UPDATE_KEY, ("'leaves'",)),
    "leaf-a-string": ("state", _set("payload", "tree", "leaves", {"alice": "8"}), UPDATE_KEY,
                      ("'leaves' must be int",)),
    "epochs-a-string": ("state", _set("payload", "rl", "epochs", {"alice": "4"}), UPDATE_KEY,
                        ("'epochs' must be int",)),
    "epoch-a-string": ("dk", _set("payload", "epoch", "7"), DECRYPT, ("'epoch'",)),
    "epoch-true": ("dk", _set("payload", "epoch", True), DECRYPT, ("'epoch'", "got bool")),
    "max_time-a-string": ("state", _set("payload", "pp", "max_time", "32"), UPDATE_KEY,
                          ("'max_time' must be int",)),
    "ku-row-of-three": ("ku", _set("payload", "parts", lambda parts: {
        k: v + v[:1] for k, v in parts.items()}), DERIVE_DK, ("'parts'",)),
    "e2-key-not-canonical": ("ct", _set("payload", "e2", lambda e2: {
        "0" + k: v for k, v in e2.items()}), UPDATE_CT, ("'e2'",)),
    "kind-sk": ("ct2", _set("kind", "sk"), DECRYPT, ("expected a ct-updated envelope, found 'sk'",)),
    "element-not-base64": ("ct2", _set("payload", "c1", "***"), DECRYPT, ("'c1'", "base64")),
    "element-off-range": ("dk", _set("payload", "d0", "//////////8="), DECRYPT, ("'d0'",)),
    "not-utf8": ("ct2", lambda path: path.write_bytes(b'{"kind": "\xff"}'), DECRYPT,
                 ("utf-8", "can't decode")),
    "nested-too-deep": ("ct2", lambda path: path.write_text("[" * 100000), DECRYPT,
                        ("not valid JSON", "recursion")),
    "int-too-long": ("ct2", lambda path: path.write_text("1" * 5000), DECRYPT,
                     ("not valid JSON", "digits")),
    "top-level-string": ("dk", lambda path: path.write_text(
        '"kindversionbackendparams_hashpayload"'), DECRYPT, ("JSON object",)),
    "version-a-string": ("ku", _set("version", "1"), DERIVE_DK, ("version '1'",)),
    "version-true": ("ku", _set("version", True), DERIVE_DK,
                     ("unsupported envelope version True",)),
    "version-a-float": ("ku", _set("version", 1.0), DERIVE_DK,
                        ("unsupported envelope version 1.0",)),
    "version-1": ("ku", _set("version", 1), DERIVE_DK, ("unsupported envelope version 1",)),
    "version-2.0": ("ku", _set("version", 2.0), DERIVE_DK, ("unsupported envelope version 2.0",)),
    "version-2": ("ku", _set("version", 2), DERIVE_DK, ("unsupported envelope version 2",)),
    "version-3": ("ku", _set("version", 3), DERIVE_DK, ("unsupported envelope version 3",)),
    "version-4": ("ku", _set("version", 4), DERIVE_DK, ("unsupported envelope version 4",)),
    "version-5": ("ku", _set("version", 5), DERIVE_DK, ("unsupported envelope version 5",)),
    # the envelope's backend is the one statement of the backend its elements
    # are encoded for; it must be the deployment's
    "sk-backend-bogus": ("sk", _set("backend", "bogus"), DERIVE_DK, ("'backend'", "'bogus'")),
    "state-backend-real": ("state", _set("backend", "real"), UPDATE_KEY, ("'backend'", "'real'")),
    # a ciphertext's attributes are its c2 keys: none at all, or one past the
    # universe (attributes 1..4), is refused
    "c2-key-dropped": ("ct2", _set("payload", "c2", {}), DECRYPT, ("'c2'", "non-empty")),
    "c2-key-added": ("ct2", _set("payload", "c2", lambda c2: {**c2, "9": c2["1"]}), DECRYPT,
                     ("'c2'", "attribute 9 outside [1, 4]")),
    # invariants the artifact classes state: row counts that agree
    "dk-row-dropped": ("dk", _set("payload", "rows", lambda rows: rows[:-1]), DECRYPT, ("'rows'",)),
    "sk-part-extra-row": ("sk", _set("payload", "parts", "1", lambda rows: rows + rows[:1]),
                          DERIVE_DK, ("'parts'",)),
    "t_gens-short": ("state", _set("payload", "pp", "t_gens", lambda gens: gens[:-1]), UPDATE_KEY,
                     ("'t_gens'",)),
    # setup draws a secret for each node 1..15 of the capacity-8 tree
    "secrets-node-dropped": ("state", _drop("payload", "tree", "secrets", "15"), UPDATE_KEY,
                             ("'secrets'", "nodes 1..15")),
    "secrets-node-added": ("state", _set("payload", "tree", "secrets", lambda secrets: {
        **secrets, "16": secrets["1"]}), UPDATE_KEY, ("'secrets'", "nodes 1..15")),
    "secrets-node-moved": ("state", _set("payload", "tree", "secrets", lambda secrets: {
        **{k: v for k, v in secrets.items() if k != "15"}, "16": secrets["1"]}), UPDATE_KEY,
                           ("'secrets'", "nodes 1..15")),
    "leaves-shared": ("state", _set("payload", "tree", "leaves", lambda leaves: {
        **leaves, "bob": leaves["alice"]}), UPDATE_KEY, ("'leaves'",)),
    "leaf-past-the-tree": ("state", _set("payload", "tree", "leaves", {"alice": 16}), UPDATE_KEY,
                           ("'leaves'", "'alice' sits at 16")),
    # a revocation entry passes the checks `rabe revoke` makes; alice is the one
    # identity with a leaf here
    "epochs-negative": ("state", _set("payload", "rl", "epochs", {"alice": -4}), UPDATE_KEY,
                        ("'epochs'", "epoch -4")),
    "epochs-zero": ("state", _set("payload", "rl", "epochs", {"alice": 0}), UPDATE_KEY,
                    ("'epochs'", "epoch 0")),
    "epochs-no-leaf": ("state", _set("payload", "rl", "epochs", {"ghost": -4}), UPDATE_KEY,
                       ("'epochs'", "'ghost' has no leaf")),
    # the update slots of a ct at epoch 7 of 32 (encoding 00000) are 1..5;
    # update-ct to 9 (01001) reads only slots 1, 3 and 4
    "e2-slot-dropped": ("ct", _drop("payload", "e2", "5"), UPDATE_CT, ("'e2'", "[1, 2, 3, 4]")),
    "e2-needed-slot-dropped": ("ct", _drop("payload", "e2", "1"), UPDATE_CT, ("'e2'",)),
    "e2-slot-past-tau": ("ct", _set("payload", "e2", lambda e2: {**e2, "9": e2["1"]}), UPDATE_CT,
                         ("'e2'",)),
    "ct-epoch-past-the-range": ("ct", _set("payload", "epoch", 99), UPDATE_CT,
                                ("'epoch'", "epoch 99 outside")),
    # epoch 0 is reserved, and this deployment's epochs end at 31
    "ct-epoch-zero": ("ct", _set("payload", "epoch", 0), UPDATE_CT, ("'epoch'", "epoch 0 outside")),
    "ku-epoch-zero": ("ku", _set("payload", "epoch", 0), DERIVE_DK, ("'epoch'", "epoch 0 outside")),
    "ku-epoch-past-the-range": ("ku", _set("payload", "epoch", 99), DERIVE_DK,
                                ("'epoch'", "epoch 99 outside")),
    "ct2-epoch-past-the-range": ("ct2", _set("payload", "epoch", 99), DECRYPT,
                                 ("'epoch'", "epoch 99 outside")),
    "dk-epoch-past-the-range": ("dk", _set("payload", "epoch", 99), DECRYPT,
                                ("'epoch'", "epoch 99 outside")),
    "ct2-and-dk-epoch-past-the-range": ("ct2", _on_both(_set("payload", "epoch", 99)), DECRYPT,
                                        ("'epoch'", "epoch 99 outside")),
    # alice sits at leaf 8 of a capacity-8 tree: her path is 1, 2, 4, 8
    "sk-identity-unknown": ("sk", _set("payload", "identity", "mallory"), DERIVE_DK,
                            ("'identity'", "'mallory' has no leaf")),
    "sk-parts-off-the-path": ("sk", _set("payload", "parts", lambda parts: {
        **parts, "3": parts["1"], "99": parts["1"]}), DERIVE_DK, ("'parts'", "[1, 2, 4, 8]")),
    "sk-part-dropped": ("sk", _drop("payload", "parts", "8"), DERIVE_DK, ("'parts'",)),
    # nothing is revoked, so the cover at epoch 7 is the root
    "ku-part-outside-the-tree": ("ku", _set("payload", "parts", lambda parts: {
        **parts, "99": parts["1"]}), DERIVE_DK, ("'parts'", "node 99 outside")),
    "ku-parts-nested": ("ku", _set("payload", "parts", lambda parts: {
        **parts, "2": parts["1"]}), DERIVE_DK, ("'parts'", "node 1 and its descendant 2")),
    # alice's dk at epoch 7 is at the root; node 3 is in the tree, off her path
    "dk-identity-unknown": ("dk", _set("payload", "identity", "mallory"), DECRYPT,
                            ("'identity'", "'mallory' has no leaf")),
    "dk-node-off-the-path": ("dk", _set("payload", "node", 3), DECRYPT,
                             ("'node'", "node 3 is not on the path [1, 2, 4, 8]")),
    # the state's label must be the hash of the parameters it holds
    "params_hash-stale": ("state", _edit(lambda env: env["payload"]["pp"].update(
        u0=env["payload"]["pp"]["g2"])), UPDATE_KEY, ("'params_hash'",)),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_malformed_artifacts_exit_3_naming_file_and_field(artifacts, capsys, case):
    target, tamper, command, words = MUTATIONS[case]
    tamper(artifacts[target])
    argv = [arg.format(**artifacts) for arg in command]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INVALID, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(artifacts[target]) in err
    for word in words:
        assert word in err
    assert not artifacts["out"].exists()


def _ct_naming(attr):
    """A ciphertext edited to name attr as well, with attribute 1's c2 entry:
    its policy rows stay satisfied, so only the attribute bound refuses it."""
    def fn(env):
        env["payload"]["c2"][str(attr)] = env["payload"]["c2"]["1"]
    return _edit(fn)


def _policy_naming(attr):
    """A key whose policy 1 AND (2 OR 3) names attr in place of 3."""
    def fn(env):
        policy = env["payload"]["policy"]
        policy["formula"] = policy["formula"].replace("3", str(attr))
    return _edit(fn)


DECRYPT_OUT = DECRYPT + ("--out", "{out}")
# attr_max is 4: 0 and 5 lie just outside the universe; the policy parser
# already refuses 0
OUTSIDE = {
    "ct-attr-0": ("ct", _ct_naming(0), UPDATE_CT, "'c2': attribute 0 outside [1, 4]"),
    "ct-attr-5": ("ct", _ct_naming(5), UPDATE_CT, "'c2': attribute 5 outside [1, 4]"),
    "ct2-attr-0": ("ct2", _ct_naming(0), DECRYPT_OUT, "'c2': attribute 0 outside [1, 4]"),
    "ct2-attr-5": ("ct2", _ct_naming(5), DECRYPT_OUT, "'c2': attribute 5 outside [1, 4]"),
    "sk-policy-attr-5": ("sk", _policy_naming(5), DERIVE_DK, "'policy': attribute 5 outside [1, 4]"),
    "dk-policy-attr-5": ("dk", _policy_naming(5), DECRYPT_OUT,
                         "'policy': attribute 5 outside [1, 4]"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE))
def test_attributes_outside_the_universe_exit_3_and_write_nothing(artifacts, capsys, case):
    """encrypt and keygen refuse attributes outside 1..attr_max; a loaded
    artifact that names one is refused where it meets its parameters."""
    target, tamper, command, words = OUTSIDE[case]
    tamper(artifacts[target])
    code, _, err = run(capsys, *[arg.format(**artifacts) for arg in command])
    assert code == EXIT_INVALID, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{artifacts[target]}: field {words}" in err
    assert not artifacts["out"].exists()


@pytest.fixture(scope="module")
def real_artifacts(tmp_path_factory):
    """A small seeded real deployment with a message and a ciphertext at epoch 3."""
    tmp = tmp_path_factory.mktemp("real")
    paths = {name: tmp / f"{name}.json" for name in ("state", "msg", "ct")}
    assert main(["setup", "--backend", "real", "--users", "4", "--max-time", "8",
                 "--attr-bound", "2", "--seed", "1", "--state", str(paths["state"])]) == EXIT_OK
    assert main(["encrypt", "--state", str(paths["state"]), "--attrs", "1", "--epoch", "3",
                 "--random-message", str(paths["msg"]), "--out", str(paths["ct"]),
                 "--seed", "2"]) == EXIT_OK
    return paths


ENCRYPT_MSG = ("encrypt", "--state", "{state}", "--attrs", "1", "--epoch", "3",
               "--message", "{msg}", "--out", "{out}")
# (file, the field holding its target element, command that loads it); 576
# zero bytes are well formed and decode to zero, which has no inverse
ZERO_GT = {
    "state-blind": ("state", ("pp", "blind"), ENCRYPT_MSG),
    "ct-c": ("ct", ("c",), ("update-ct", "--state", "{state}", "--ct", "{ct}", "--epoch", "4",
                            "--out", "{out}")),
    "msg-value": ("msg", ("value",), ENCRYPT_MSG),
}


@pytest.mark.parametrize("case", sorted(ZERO_GT))
def test_a_zero_target_element_exits_3_naming_file_and_field(real_artifacts, tmp_path, capsys,
                                                             case):
    target, keys, command = ZERO_GT[case]
    files = {name: tmp_path / path.name for name, path in real_artifacts.items()}
    for name, path in real_artifacts.items():
        shutil.copy(path, files[name])
    _set("payload", *keys, base64.b64encode(bytes(576)).decode("ascii"))(files[target])
    code, _, err = run(capsys, *[arg.format(**files, out=tmp_path / "out.json") for arg in command])
    assert code == EXIT_INVALID, err
    assert err == (f"error: {files[target]}: field '{keys[-1]}': "
                   "target element outside the pairing image\n")
    assert not (tmp_path / "out.json").exists()
