"""What the CLI writes, and when: byte pins for a seeded walk, refused
same-path outputs, injected write faults, a stateful model of the tree and
revocations, and a guard that every file write goes through rabe.serial."""

import ast
import contextlib
import errno
import fcntl
import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from rabe import cli, serial
from rabe.cli import EXIT_INVALID, EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_REFUSED, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# ---------------------------------------------------------------------------
# known answers: every file a seeded transparent walk writes, and its stdout

WALK = [
    ("setup", "--state", "s.json", "--seed", 1),
    ("keygen", "--state", "s.json", "--id", "alice", "--policy", "1 AND (2 OR 3)",
     "--out", "alice.sk", "--seed", 2),
    ("update-key", "--state", "s.json", "--epoch", 7, "--out", "ku7.json", "--seed", 3),
    ("derive-dk", "--state", "s.json", "--sk", "alice.sk", "--ku", "ku7.json",
     "--out", "alice.dk7", "--seed", 4),
    ("encrypt", "--state", "s.json", "--attrs", "1,2", "--epoch", 5,
     "--random-message", "msg.json", "--out", "ct5.json", "--seed", 5),
    ("update-ct", "--state", "s.json", "--ct", "ct5.json", "--epoch", 7,
     "--out", "ct7.json", "--seed", 6),
    ("decrypt", "--state", "s.json", "--ct", "ct7.json", "--dk", "alice.dk7",
     "--expect", "msg.json", "--out", "got.json"),
    ("revoke", "--state", "s.json", "--id", "alice", "--epoch", 9),
    ("attack-demo", "--seed", 7, "--trials", 2, "--users", 8, "--max-time", 32,
     "--attr-bound", 4, "--out", "report.json", "--transcripts", "runs"),
]


def _mask_timings(text: str) -> str:
    """Wall times vary run to run: blank the report's mean seconds."""
    text = re.sub(r"^(  \S+ +)\d+\.\d{4}$", r"\1T", text, flags=re.M)  # stdout lines
    return re.sub(
        r'("mean_seconds": \{)(.*?)(\})',
        lambda m: m.group(1) + re.sub(r": [-+.0-9e]+", ": T", m.group(2)) + m.group(3),
        text,
        flags=re.S,
    )


WALK_SHA256 = {
    "setup": {
        "s.json": "e848b7f3cd8c6061481d5591292c29ede737e98fb7edc25110c46c4a9bf82a7a",
        "stdout": "82ddea532370fd44b80a93842284ba20e873f884e977dd6972cbea0f3adcec30",
    },
    "keygen": {
        "s.json": "ad0760557f67b459774fd909d0895ce4e303203967ac64ec7014fc7befded240",
        "alice.sk": "a10993cc2f881c96d2009bf4453f2d0a6551c2d4332c15bce585d68d35533298",
        "stdout": "af41dd1676e755f2d137b87095e8cff5a1644da2fca36a9b09e3358eaec04007",
    },
    "update-key": {
        "ku7.json": "dd222f1547114d50da94f091a963ef01c7bcf6414f5a02c2a36950e302ca1e73",
        "stdout": "4466bdfe1e3669666a6069e30fe244a87787fa9a09e27c077353ee5880e2ab33",
    },
    "derive-dk": {
        "alice.dk7": "5cd0c14094e99135b5b31a9d94ba5f17d5c77687862f407179a91bba9387bb42",
        "stdout": "a07d0dd3f2c31d23b4123fffc859ce4c5625f448d74c71fc698ddc3679718fed",
    },
    "encrypt": {
        "msg.json": "0e886e2802d9c5fd7f63238498754066f4159196f3926be40fa1680d34e08c51",
        "ct5.json": "4aa114250b932908f9d3c23f7e5e6afc35f8c6619c7e9eec8efb16d0dd01e27d",
        "stdout": "c5cae4e38dca36f2736e453789dcabc66f77d1acf43f02b97af880cdba848cd6",
    },
    "update-ct": {
        "ct7.json": "388d2423aa3968da52ae909d8e755d6d69cd9be53e96fcd1984573b6ac09748f",
        "stdout": "8e7e263aa3898176f1b477cc346cc62a2d5a4ccfe940c2c903dfbbe4992d20cc",
    },
    "decrypt": {
        "got.json": "0e886e2802d9c5fd7f63238498754066f4159196f3926be40fa1680d34e08c51",
        "stdout": "2fe0b8603dfe212c19420e75a22eb7a08973fcb29584655d6f077d775344e151",
    },
    "revoke": {
        "s.json": "4c704e01464a1f06eb0d06448d29a7784e2e974a152f6c0444ccaaa5dc73dffc",
        "stdout": "927fc8de031cbe1be52466cfad22655d5a3cb0c4270397f363224b27856ecd40",
    },
    "attack-demo": {
        "report.json": "cd790dcd10e4b4aff5355c1981d94afb3b9cfbf9077166f7c9d9388445181ee5",
        "runs/trial-0000.json": "4fc30b000eb139e96c066eaa298c4a7c85b5411f2e1a54a5031b5e6ab68e7c7f",
        "runs/trial-0001.json": "ccae492454e5d09afe2947c3ec9ab17b226dc0e72804c51416f260b9ef251ff0",
        "stdout": "c1ee5b113ecbcb026925a9180953dc8ef06d4145d0cc84311c072d4a3eb6abd5",
    },
}


def test_seeded_walk_writes_known_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RABE_SEED", raising=False)
    seen = {}
    before = {}
    for argv in WALK:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        after = _snapshot(tmp_path)
        written = {name: data for name, data in after.items() if before.get(name) != data}
        step = {name: _sha(_mask_timings(data.decode()).encode()) for name, data in written.items()}
        step["stdout"] = _sha(_mask_timings(out).encode())
        seen[argv[0]] = step
        before = after
    assert seen == WALK_SHA256


# ---------------------------------------------------------------------------
# outputs that name the state, an input or another output


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """The first six steps of the walk (setup to update-ct), run once."""
    root = tmp_path_factory.mktemp("seeded")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in WALK[:6]:
                assert main([str(a) for a in argv]) == EXIT_OK
    finally:
        os.chdir(cwd)
    return root


@pytest.fixture
def walked(seeded, tmp_path, monkeypatch):
    """A fresh copy of the seeded walk as the working directory."""
    work = tmp_path / "work"
    shutil.copytree(seeded, work)
    monkeypatch.chdir(work)
    return work


# (argv, the output option, the option it collides with); link.json is a
# symlink to the file the colliding option names
SAME_PATH = {
    "keygen-out-state": (["keygen", "--state", "s.json", "--id", "bob", "--policy", "1",
                          "--out", "{same}"], "--out", "--state", "s.json"),
    "update-key-out-state": (["update-key", "--state", "s.json", "--epoch", 8, "--out", "{same}"],
                             "--out", "--state", "s.json"),
    "update-ct-out-ct": (["update-ct", "--state", "s.json", "--ct", "ct5.json", "--epoch", 8,
                          "--out", "{same}"], "--out", "--ct", "ct5.json"),
    "derive-dk-out-sk": (["derive-dk", "--state", "s.json", "--sk", "alice.sk", "--ku", "ku7.json",
                          "--out", "{same}"], "--out", "--sk", "alice.sk"),
    "decrypt-out-expect": (["decrypt", "--state", "s.json", "--ct", "ct7.json", "--dk", "alice.dk7",
                            "--expect", "msg.json", "--out", "{same}"], "--out", "--expect",
                           "msg.json"),
    "encrypt-out-message": (["encrypt", "--state", "s.json", "--attrs", "1", "--epoch", 3,
                             "--message", "msg.json", "--out", "{same}"], "--out", "--message",
                            "msg.json"),
    "encrypt-two-outputs": (["encrypt", "--state", "s.json", "--attrs", "1", "--epoch", 3,
                             "--random-message", "new.json", "--out", "{same}"], "--out",
                            "--random-message", "new.json"),
}


@pytest.mark.parametrize("via", ["relative", "symlink"])
@pytest.mark.parametrize("case", sorted(SAME_PATH))
def test_outputs_naming_an_input_or_output_exit_3(walked, capsys, case, via):
    command, out_opt, other_opt, target = SAME_PATH[case]
    (walked / "link.json").symlink_to(target)  # dangling while new.json does not exist
    same = f"./{target}" if via == "relative" else "link.json"
    before = _snapshot(walked)
    code, out, err = run(capsys, *(str(a).format(same=same) for a in command))
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out_opt in err and other_opt in err
    assert _snapshot(walked) == before


@pytest.mark.parametrize("existing, via", [
    pytest.param(False, "relative", id="relative"),
    pytest.param(False, "symlink", id="symlink"),
    pytest.param(True, "relative", id="state-relative"),
    pytest.param(True, "symlink", id="state-symlink"),
])
def test_an_output_naming_a_transcript_exits_3(walked, capsys, existing, via):
    """The transcripts are named inside --transcripts, out of the options'
    sight: attack-demo refuses an --out that names one before any trial runs
    or prints, whether no file is there yet or a state file (and its master
    key) is."""
    if existing:  # a state file where trial 0's transcript would go
        (walked / "runs").mkdir()
        shutil.copy(walked / "s.json", walked / "runs" / "trial-0000.json")
    (walked / "link.json").symlink_to("runs/trial-0000.json")  # dangling unless existing
    same = "./runs/trial-0000.json" if via == "relative" else "link.json"
    before = _snapshot(walked)
    code, out, err = run(capsys, "attack-demo", "--seed", 1, "--trials", 2, "--out", same,
                         "--transcripts", "runs")
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert same in err and "runs/trial-0000.json" in err.replace(same, "", 1)
    assert _snapshot(walked) == before  # if existing, runs/ holds the state alone
    assert existing or not (walked / "runs").exists()


def test_only_the_trials_transcript_names_collide_with_out(walked, capsys):
    """The last trial's name is refused before any trial runs; a name past
    the last trial is no transcript, and the report lands there."""
    argv = ("attack-demo", "--seed", 1, "--trials", 2, "--transcripts", "runs")
    code, out, err = run(capsys, *argv, "--out", "runs/trial-0001.json")
    assert code == EXIT_INVALID and out == "" and "runs/trial-0001.json" in err
    assert not (walked / "runs").exists()
    code, out, _ = run(capsys, *argv, "--out", "runs/trial-0002.json")
    assert code == EXIT_OK and "wrote report to runs/trial-0002.json" in out
    assert sorted(p.name for p in (walked / "runs").iterdir()) == [
        "trial-0000.json", "trial-0001.json", "trial-0002.json"]
    assert json.loads((walked / "runs" / "trial-0002.json").read_text())["trials"] == 2


# ---------------------------------------------------------------------------
# all or nothing: a failed write changes neither the state nor the tree


def test_failed_keygens_use_up_no_leaf(tmp_path, capsys):
    state, adir = tmp_path / "s.json", tmp_path / "adir"
    adir.mkdir()
    assert run(capsys, "setup", "--state", state, "--users", 2, "--seed", 1)[0] == EXIT_OK
    before = state.read_bytes()
    for who in ("x", "y"):
        code, _, err = run(capsys, "keygen", "--state", state, "--id", who, "--policy", "1",
                           "--out", adir)
        assert code == EXIT_IO and str(adir) in err
    assert state.read_bytes() == before
    code, out, _ = run(capsys, "keygen", "--state", state, "--id", "z", "--policy", "1",
                       "--out", tmp_path / "z.sk")
    assert code == EXIT_OK and "at leaf 2" in out


def test_failed_update_key_keeps_the_state(walked, capsys):
    # with alice revoked, the update at epoch 20 covers nodes off her path
    assert run(capsys, "revoke", "--state", "s.json", "--id", "alice", "--epoch", 9)[0] == EXIT_OK
    (walked / "adir").mkdir()
    before = (walked / "s.json").read_bytes()
    code, _, _ = run(capsys, "update-key", "--state", "s.json", "--epoch", 20, "--out", "adir")
    assert code == EXIT_IO
    assert (walked / "s.json").read_bytes() == before


def test_update_key_leaves_the_state(walked, capsys):
    """Setup drew every node secret, so update-key only reads the state: at
    epoch 8, whose cover is the root, and with alice revoked, whose cover
    lies off her path, the state keeps its file and its bytes."""
    state = walked / "s.json"

    def update_key(epoch):
        before = os.stat(state).st_ino, state.read_bytes()
        code, _, err = run(capsys, "update-key", "--state", state, "--epoch", epoch,
                           "--out", f"ku{epoch}.json")
        assert code == EXIT_OK, err
        assert (walked / f"ku{epoch}.json").is_file()
        assert not [p for p in walked.rglob("*") if p.name.endswith(".tmp")]
        assert (os.stat(state).st_ino, state.read_bytes()) == before

    update_key(8)
    assert run(capsys, "revoke", "--state", state, "--id", "alice", "--epoch", 9)[0] == EXIT_OK
    update_key(10)
    assert sorted(json.loads((walked / "ku10.json").read_text())["payload"]["parts"]) == [
        "3", "5", "9"]


def test_an_output_that_is_a_directory_fails_before_any_rename(walked, capsys):
    (walked / "adir").mkdir()
    before = _snapshot(walked)
    code, _, err = run(capsys, "encrypt", "--state", "s.json", "--attrs", "1", "--epoch", 3,
                       "--random-message", "msg.json", "--out", "adir")
    assert code == EXIT_IO and "adir" in err and ".tmp" not in err
    assert _snapshot(walked) == before  # msg.json still matches the ciphertexts made from it


def test_decrypt_reads_its_expectation_before_writing(walked, capsys):
    code, out, err = run(capsys, "decrypt", "--state", "s.json", "--ct", "ct7.json",
                         "--dk", "alice.dk7", "--expect", "absent.json", "--out", "m.json")
    assert code == EXIT_IO and out == "" and "absent.json" in err
    assert not (walked / "m.json").exists()


# ---------------------------------------------------------------------------
# injected write faults: every open, fsync and rename rabe.serial makes


class _FaultyOs:
    """os as rabe.serial sees it, raising at call k of one of open, fsync and replace."""

    FAULTY = ("open", "fsync", "replace")

    def __init__(self, fault=None, k=-1):
        self.fault, self.k = fault, k
        self.calls = dict.fromkeys(self.FAULTY, 0)

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.FAULTY:
            return real

        def call(*args, **kwargs):
            self.calls[name] += 1
            if (name, self.calls[name] - 1) == (self.fault, self.k):
                raise OSError(errno.EIO, f"injected {name} fault")
            return real(*args, **kwargs)

        return call


# (argv, the files it writes, state last where it writes one)
WRITERS = {
    "setup": (["setup", "--state", "new.json", "--seed", 1], ["new.json"]),
    "keygen": (["keygen", "--state", "s.json", "--id", "bob", "--policy", "1", "--out", "bob.sk",
                "--seed", 2], ["bob.sk", "s.json"]),
    "update-key": (["update-key", "--state", "s.json", "--epoch", 8, "--out", "ku8.json",
                    "--seed", 3], ["ku8.json"]),
    "update-key-after-revoke": (["update-key", "--state", "s.json", "--epoch", 10,
                                 "--out", "ku10.json", "--seed", 3], ["ku10.json"]),
    "revoke": (["revoke", "--state", "s.json", "--id", "alice", "--epoch", 9], ["s.json"]),
    "encrypt": (["encrypt", "--state", "s.json", "--attrs", "1,2", "--epoch", 5,
                 "--random-message", "m2.json", "--out", "c2.json", "--seed", 4],
                ["m2.json", "c2.json"]),
    "update-ct": (["update-ct", "--state", "s.json", "--ct", "ct5.json", "--epoch", 8,
                   "--out", "ct8.json", "--seed", 5], ["ct8.json"]),
    "derive-dk": (["derive-dk", "--state", "s.json", "--sk", "alice.sk", "--ku", "ku7.json",
                   "--out", "dk.json"], ["dk.json"]),
    "decrypt": (["decrypt", "--state", "s.json", "--ct", "ct7.json", "--dk", "alice.dk7",
                 "--expect", "msg.json", "--out", "got.json"], ["got.json"]),
    "attack-demo": (["attack-demo", "--seed", 7, "--trials", 2, "--out", "report.json",
                     "--transcripts", "runs"],
                    ["report.json", "runs/trial-0000.json", "runs/trial-0001.json"]),
    "lemma-check": (["lemma-check", "--tau-max", 4, "--out", "table.json"], ["table.json"]),
}
# a command run on the seeded state before a case: with alice revoked at 9,
# the cover at epoch 10 lies off her path
BEFORE = {"update-key-after-revoke": ["revoke", "--state", "s.json", "--id", "alice", "--epoch", 9]}


def _fresh(seeded, work, monkeypatch, case):
    """A copy of the seeded walk at work, as the working directory, with the
    case's BEFORE command run on it."""
    shutil.copytree(seeded, work)
    monkeypatch.chdir(work)
    if case in BEFORE:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in BEFORE[case]]) == EXIT_OK


def _run_with(fake, argv, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(serial, "os", fake)
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("case", sorted(WRITERS))
def test_every_write_fault_leaves_the_state_and_no_temp_file(seeded, tmp_path, monkeypatch, case):
    argv, outputs = WRITERS[case]
    clean = _FaultyOs()
    work = tmp_path / "clean"
    _fresh(seeded, work, monkeypatch, case)
    code, err = _run_with(clean, argv, monkeypatch)
    assert code == EXIT_OK, err
    assert all((work / name).is_file() for name in outputs)
    assert clean.calls == dict.fromkeys(_FaultyOs.FAULTY, len(outputs))

    for fault in _FaultyOs.FAULTY:
        for k in range(len(outputs)):
            work = tmp_path / f"{fault}-{k}"
            _fresh(seeded, work, monkeypatch, case)
            before = _snapshot(work)
            dirs = {p for p in work.rglob("*") if p.is_dir()}
            fake = _FaultyOs(fault, k)
            code, err = _run_with(fake, argv, monkeypatch)
            where = (fault, k, err)
            assert code == EXIT_IO and err.startswith("i/o error: ") and ".tmp" not in err, where
            assert not [p for p in work.rglob("*") if p.name.endswith(".tmp")], where
            assert _snapshot(work).get("s.json") == before.get("s.json"), where
            changed = {n for n, data in _snapshot(work).items() if before.get(n) != data}
            renamed = fake.calls["replace"] - (fault == "replace")
            assert changed == set(outputs[:renamed]), where
            # a directory the run made stays only if a renamed output lies in it
            made = {p for p in work.rglob("*") if p.is_dir()} - dirs
            assert made == {(work / n).parent for n in changed} - {work}, where


# ---------------------------------------------------------------------------
# one writer at a time per state file


def _hold(path):
    """An open handle on path holding its exclusive flock, as a command that
    rewrites the state holds it."""
    fh = open(path, "rb")
    fcntl.flock(fh, fcntl.LOCK_EX)
    return fh


@pytest.mark.parametrize("case", ["setup", "keygen", "revoke"])
def test_a_locked_state_exits_4_and_writes_nothing(walked, capsys, monkeypatch, case):
    argv = WRITERS[case][0]
    if case == "setup":  # a new deployment over the existing one
        argv = ["setup", "--state", "s.json", "--seed", 1]
    monkeypatch.setattr(cli, "_LOCK_WAIT", 0.2)
    before = _snapshot(walked)
    with _hold(walked / "s.json"):
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        waited = time.monotonic() - started
    assert code == EXIT_IO and out == "" and waited >= 0.2
    assert err.startswith("i/o error: s.json: ") and err.count("\n") == 1, err
    assert _snapshot(walked) == before
    # once the lock is let go, the same command goes through
    assert run(capsys, *argv)[0] == EXIT_OK


def test_update_key_runs_while_the_state_is_locked(walked, capsys, monkeypatch):
    """update-key writes no state, so it takes no lock: it runs while a
    writer holds the state, and only setup, keygen and revoke wait."""
    assert cli._STATE_WRITERS == (cli.cmd_setup, cli.cmd_keygen, cli.cmd_revoke)
    monkeypatch.setattr(cli, "_LOCK_WAIT", 0.2)
    before = (walked / "s.json").read_bytes()
    with _hold(walked / "s.json"):
        code, _, err = run(capsys, *WRITERS["update-key"][0])
    assert code == EXIT_OK, err
    assert (walked / "s.json").read_bytes() == before and (walked / "ku8.json").is_file()


def test_a_lock_won_on_a_replaced_state_is_taken_again(walked, capsys, monkeypatch):
    """A command that waited on a state file that a rename has since replaced
    locks the file now under the path: it reads the state only once the
    command holding that file is done, and both commands' updates survive."""
    # bob's key and revocation, made in a copy: the state another writer renames in
    side = walked / "side"
    side.mkdir()
    shutil.copy(walked / "s.json", side / "s.json")
    for argv in (["keygen", "--id", "bob", "--policy", "1", "--out", side / "bob.sk", "--seed", 4],
                 ["revoke", "--id", "bob", "--epoch", 9]):
        assert run(capsys, argv[0], "--state", side / "s.json", *argv[1:])[0] == EXIT_OK
    holder_done, loads, codes = threading.Event(), [], []

    def load(path, real=cli._load_state):
        loads.append(holder_done.is_set())
        return real(path)
    monkeypatch.setattr(cli, "_load_state", load)
    old = _hold(walked / "s.json")
    waiter = threading.Thread(target=lambda: codes.append(
        main(["revoke", "--state", "s.json", "--id", "alice", "--epoch", "9"])))
    waiter.start()
    time.sleep(0.3)  # the waiter polls the old file's lock
    shutil.copy(side / "s.json", walked / "next.json")
    os.replace(walked / "next.json", walked / "s.json")
    with _hold(walked / "s.json"):  # a writer that read bob's state holds the new file
        old.close()
        time.sleep(0.3)  # a waiter that went on with the old file would read now
        # the writer renames its own new state in, a copy of what it read
        shutil.copy(side / "s.json", walked / "next.json")
        os.replace(walked / "next.json", walked / "s.json")
        holder_done.set()
    waiter.join(timeout=60)
    assert not waiter.is_alive() and codes == [EXIT_OK], capsys.readouterr().err
    assert loads == [True]
    revoked = json.loads((walked / "s.json").read_text())["payload"]["rl"]["epochs"]
    assert revoked == {"alice": 9, "bob": 9}


_RACER = """\
import sys
from rabe.cli import main
print("ready", flush=True)
sys.stdin.readline()
sys.exit(main(sys.argv[1:]))
"""


def test_two_racing_revokes_both_survive(tmp_path, capsys):
    """Two processes revoke one identity each on one state, released at once;
    unlocked, the later rename dropped the other revocation in most rounds."""
    state = tmp_path / "s.json"
    assert run(capsys, "setup", "--state", state, "--seed", 1)[0] == EXIT_OK
    for who in ("alice", "bob"):
        assert run(capsys, "keygen", "--state", state, "--id", who, "--policy", "1",
                   "--out", tmp_path / f"{who}.sk", "--seed", 2)[0] == EXIT_OK
    fresh = state.read_bytes()
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for race in range(6):
        state.write_bytes(fresh)
        racers = [subprocess.Popen([sys.executable, "-c", _RACER, "revoke", "--state", str(state),
                                    "--id", who, "--epoch", "5"], env=env, text=True,
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                  for who in ("alice", "bob")]
        assert [p.stdout.readline() for p in racers] == ["ready\n"] * 2
        for p in racers:
            p.stdin.write("\n")
            p.stdin.flush()
        outcomes = [p.communicate(timeout=60) for p in racers]
        assert [p.returncode for p in racers] == [EXIT_OK] * 2, outcomes
        revoked = json.loads(state.read_text())["payload"]["rl"]["epochs"]
        assert revoked == {"alice": 5, "bob": 5}, race


# ---------------------------------------------------------------------------
# a stateful model of identities, leaves and revocations

POLICIES = {
    "1": lambda attrs: 1 in attrs,
    "1 AND 2": lambda attrs: {1, 2} <= attrs,
    "2 OR 3": lambda attrs: bool({2, 3} & attrs),
}
IDS = ("a", "b", "c", "d", "e")
ATTR_SETS = [{1, 2, 3}, {1}, {2, 3}, {3}, {1, 2}, {0}]  # 0 is out of range
CAPACITY, MAX_TIME = 4, 8
EPOCHS = st.sampled_from([*range(1, MAX_TIME), 0])  # 0 is out of range
OUTS = st.sampled_from(["ok", "ok", "ok", "dir", "missing", "state"])
# the kind and decoder of each file the model names by its prefix, messages aside
ARTIFACT_KINDS = {
    "sk": ("sk", serial.sk_from_payload),
    "ku": ("ku", serial.ku_from_payload),
    "dk": ("dk", serial.dk_from_payload),
    "ct": ("ct-original", serial.ct_original_from_payload),
    "ct2": ("ct-updated", serial.ct_updated_from_payload),
}


class CliModel(RuleBasedStateMachine):
    """Drive the CLI on one transparent deployment and track what it must hold.

    Files are named by what the model knows of them: sk-<id>, ku-<epoch>,
    dk-<id>-<epoch>, m-<n> and ct-<n> (one encryption), ct2-<n>-<epoch>.
    Each decryption key is tried on every updated ciphertext once, when the
    later of the two is made."""

    @initialize()
    def setup(self):
        self.dir = tempfile.mkdtemp(prefix="rabe-model-")
        os.mkdir(self.path("adir"))
        self.leaves, self.revoked = {}, {}
        # sk: id -> policy; ku: epoch -> ids revoked then; dk: (id, epoch) -> policy;
        # ct: n -> (attrs, epoch); ct2: (n, epoch) -> attrs
        self.sk, self.ku, self.dk, self.ct, self.ct2 = {}, {}, {}, {}, {}
        assert self.cli("setup", "--state", "s.json", "--users", CAPACITY,
                        "--max-time", MAX_TIME, "--attr-bound", 3, "--seed", 5)[0] == EXIT_OK
        self.state = self.state_bytes()
        # one key, one key update and one ciphertext, so every reader has input
        self.keygen("a", "1", "ok")
        self.update_key(4, "ok")
        self.encrypt(0, {1, 2, 3}, 2, "ok")

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def state_bytes(self):
        with open(self.path("s.json"), "rb") as fh:
            return fh.read()

    def cli(self, *argv):
        argv = [self.path(a) if str(a).endswith(".json") or a == "adir" else str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
        assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_REFUSED, EXIT_INVALID, EXIT_IO)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        return code, out.getvalue()

    @staticmethod
    def out(kind, good):
        return {"ok": good, "dir": "adir", "missing": "no/such.json", "state": "s.json"}[kind]

    @staticmethod
    def expect(code, out_kind):
        """The exit of a command that would exit `code`, given its output."""
        if out_kind == "state":
            return EXIT_INVALID
        return EXIT_IO if code == EXIT_OK and out_kind != "ok" else code

    @rule(who=st.sampled_from(IDS), policy=st.sampled_from(sorted(POLICIES)), out_kind=OUTS)
    def keygen(self, who, policy, out_kind):
        full = who not in self.leaves and len(self.leaves) == CAPACITY
        code, _ = self.cli("keygen", "--state", "s.json", "--id", who, "--policy", policy,
                           "--out", self.out(out_kind, f"sk-{who}.json"))
        assert code == self.expect(EXIT_INVALID if full else EXIT_OK, out_kind)
        if code == EXIT_OK:
            self.leaves.setdefault(who, CAPACITY + len(self.leaves))
            self.sk[who] = policy
            self.state = self.state_bytes()

    @precondition(lambda self: self.leaves)
    @rule(data=st.data(), t=EPOCHS)
    def revoke(self, data, t):
        who = data.draw(st.sampled_from([*sorted(self.leaves), "nobody"]))
        code, _ = self.cli("revoke", "--state", "s.json", "--id", who, "--epoch", t)
        assert code == (EXIT_OK if who in self.leaves and t >= 1 else EXIT_INVALID)
        if code == EXIT_OK:
            self.revoked[who] = min(t, self.revoked.get(who, t))
            self.state = self.state_bytes()

    @rule(t=EPOCHS, out_kind=OUTS)
    def update_key(self, t, out_kind):
        code, _ = self.cli("update-key", "--state", "s.json", "--epoch", t,
                           "--out", self.out(out_kind, f"ku-{t}.json"))
        assert code == self.expect(EXIT_OK if t >= 1 else EXIT_INVALID, out_kind)
        if code == EXIT_OK:
            self.ku[t] = {who for who, first in self.revoked.items() if first <= t}

    @rule(n=st.integers(0, 2), attrs=st.sampled_from(ATTR_SETS), t=EPOCHS, out_kind=OUTS)
    def encrypt(self, n, attrs, t, out_kind):
        code, _ = self.cli("encrypt", "--state", "s.json", "--attrs", ",".join(map(str, attrs)),
                           "--epoch", t, "--random-message", f"m-{n}.json",
                           "--out", self.out(out_kind, f"ct-{n}.json"))
        assert code == self.expect(EXIT_OK if t >= 1 and 0 not in attrs else EXIT_INVALID,
                                   out_kind)
        if code == EXIT_OK:
            self.ct[n] = (frozenset(attrs), t)
            self.ct2 = {key: v for key, v in self.ct2.items() if key[0] != n}  # a new message

    @precondition(lambda self: self.sk and self.ku)
    @rule(out_kind=OUTS)
    def derive_dk(self, out_kind):
        """Derive every key the model can; out_kind applies to the first."""
        for i, (who, t) in enumerate((who, t) for who in sorted(self.sk) for t in sorted(self.ku)):
            kind = out_kind if i == 0 else "ok"
            code, _ = self.cli("derive-dk", "--state", "s.json", "--sk", f"sk-{who}.json",
                               "--ku", f"ku-{t}.json", "--out", self.out(kind, f"dk-{who}-{t}.json"))
            assert code == self.expect(EXIT_REFUSED if who in self.ku[t] else EXIT_OK, kind)
            if code == EXIT_OK and self.dk.get((who, t)) != self.sk[who]:
                self.dk[(who, t)] = self.sk[who]
                self.decrypt([(who, t)], self.ct2)

    @precondition(lambda self: self.ct)
    @rule(t=EPOCHS, missing=st.booleans())
    def update_ct(self, t, missing):
        """Move every ciphertext to t and to each key update's epoch."""
        if missing:  # ct-3.json is never written
            assert self.cli("update-ct", "--state", "s.json", "--ct", "ct-3.json",
                            "--epoch", t, "--out", "x.json")[0] == EXIT_IO
        for n, (attrs, t0) in sorted(self.ct.items()):
            for t2 in sorted({t} | set(self.ku)):
                code, _ = self.cli("update-ct", "--state", "s.json", "--ct", f"ct-{n}.json",
                                   "--epoch", t2, "--out", f"ct2-{n}-{t2}.json")
                assert code == (EXIT_INVALID if t2 < 1 else EXIT_REFUSED if t2 < t0 else EXIT_OK)
                if code == EXIT_OK and (n, t2) not in self.ct2:
                    self.ct2[(n, t2)] = attrs
                    self.decrypt(self.dk, [(n, t2)])

    def decrypt(self, dks, ct2s):
        """Decrypt each ciphertext with each key; MATCH exactly when the key opens it."""
        for who, t_dk in dks:
            for n, t_ct in ct2s:
                code, out = self.cli("decrypt", "--state", "s.json", "--ct", f"ct2-{n}-{t_ct}.json",
                                     "--dk", f"dk-{who}-{t_dk}.json", "--expect", f"m-{n}.json")
                opens = t_dk == t_ct and POLICIES[self.dk[(who, t_dk)]](self.ct2[(n, t_ct)])
                assert ("verdict: MATCH" in out) == opens
                assert code == (EXIT_OK if opens else EXIT_INVALID)

    @invariant()
    def leaves_match(self):
        assert json.loads(self.state_bytes())["payload"]["tree"]["leaves"] == self.leaves

    @invariant()
    def only_keygen_and_revoke_change_the_state(self):
        """Each of those two records its run's state; any other rule, and a
        failed keygen or revoke, leaves the bytes as they were."""
        assert self.state_bytes() == self.state

    @invariant()
    def every_artifact_passes_its_check(self):
        """Every key, key update and ciphertext the runs wrote loads as the
        CLI loads it and passes its kind's check against the current state."""
        phash, pp, _, tree, _ = cli._load_state(self.path("s.json"))
        for name in os.listdir(self.dir):
            if name.split("-")[0] in ARTIFACT_KINDS:
                kind, decode = ARTIFACT_KINDS[name.split("-")[0]]
                cli._read_artifact(self.path(name), kind, phash, decode, pp, tree)


TestCliModel = CliModel.TestCase
TestCliModel.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=15, stateful_step_count=20
)


# ---------------------------------------------------------------------------
# one writer: every file rabe writes goes through rabe.serial


def _writes(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        if name == "open" and owner is None:
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            text = mode.value if isinstance(mode, ast.Constant) else "?"
            if mode is not None and not set("rb") >= set(str(text)):
                yield node.lineno, f"open(..., {text!r})"
        elif (owner, name) in (("json", "dump"), ("os", "replace"), ("os", "rename"),
                               ("os", "open")):
            yield node.lineno, f"{owner}.{name}"


def test_only_serial_writes_files():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "rabe"
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(src.glob("*.py")) if path.name != "serial.py"
        for line, what in _writes(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
    assert list(_writes(ast.parse((src / "serial.py").read_text()))), "the guard sees serial's writes"
