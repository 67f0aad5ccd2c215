import base64
import copy
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabe import bls12381 as bls
from rabe import serial
from rabe.bls12381 import P
from rabe.errors import EnvelopeError, ParameterError
from rabe.groups import (
    REAL, SIDE_ONE, SIDE_TARGET, SIDE_TWO, TRANSPARENT, TransparentContext, new_context,
)
from rabe.policy import parse_policy
from rabe.rng import SeededRng
from rabe.scheme import decrypt, derive_dk, encrypt, keygen, setup, update_ct, update_key
from rabe.timecode import bit_width, ct_epoch_bits, zero_positions
from rabe.tree import RevocationList, cover_nodes


def build_artifacts(backend=TRANSPARENT):
    ctx = new_context(backend)
    rng = SeededRng("serial")
    pp, mk, state, rl = setup(ctx, 4, 16, 3, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1 AND (2 OR 3)"), rng)
    ku = update_key(pp, mk, state, rl, 6, rng)
    dk = derive_dk(sk, ku)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1, 2}, 6, msg, rng)
    ct2 = update_ct(pp, ct, 6, rng)
    return ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2


def test_context_roundtrip_transparent():
    ctx = new_context(TRANSPARENT)
    back = serial.context_from_payload(serial.context_payload(ctx))
    assert back.backend == TRANSPARENT and back.prime_order == ctx.prime_order


def test_context_roundtrip_real():
    ctx = new_context(REAL)
    back = serial.context_from_payload(serial.context_payload(ctx))
    assert back.group_id == ctx.group_id


def test_context_payload_names_the_backend_alone_and_rejects_unknown_ones():
    assert serial.context_payload(new_context(TRANSPARENT)) == {"backend": TRANSPARENT}
    with pytest.raises(ParameterError, match="order 2147483647 is not stored"):
        serial.context_payload(TransparentContext(2**31 - 1))  # it would load as another group
    with pytest.raises(EnvelopeError, match="unknown backend"):
        serial.context_from_payload({"backend": "imaginary"})
    with pytest.raises(EnvelopeError, match="unknown curve"):
        serial.context_from_payload({"backend": REAL, "curve": "bn254"})


def test_params_roundtrip_preserves_every_generator():
    ctx, pp, *_ = build_artifacts()
    payload = serial.pp_payload(pp)
    back = serial.pp_from_payload(payload)
    assert back.ctx.prime_order == ctx.prime_order
    assert (back.max_time, back.attr_max) == (16, 3)
    assert "n_users" not in payload
    assert back.blind == pp.blind
    assert back.g2.one == pp.g2.one and back.g2.two == pp.g2.two
    assert all(a.one == b.one and a.two == b.two for a, b in zip(back.t_gens, pp.t_gens))
    assert back.u0.one == pp.u0.one
    assert all(a.one == b.one for a, b in zip(back.u_gens, pp.u_gens))
    assert serial.params_hash(payload) == serial.params_hash(serial.pp_payload(back))


def test_params_payload_rejects_wrong_generator_counts():
    _, pp, *_ = build_artifacts()
    payload = serial.pp_payload(pp)
    broken = dict(payload, t_gens=payload["t_gens"][:-1])
    with pytest.raises(EnvelopeError):
        serial.pp_from_payload(broken)
    broken = dict(payload, u_gens=payload["u_gens"] + payload["u_gens"][:1])
    with pytest.raises(EnvelopeError):
        serial.pp_from_payload(broken)


def test_key_material_roundtrips():
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts()
    mk2 = serial.mk_from_payload(ctx, serial.mk_payload(mk))
    assert int(mk2.alpha) == int(mk.alpha)

    sk2 = serial.sk_from_payload(ctx, serial.sk_payload(sk))
    assert sk2.identity == "alice"
    assert sk2.policy.rows == sk.policy.rows
    assert set(sk2.parts) == set(sk.parts)
    node = next(iter(sk.parts))
    assert sk2.parts[node] == sk.parts[node]

    ku2 = serial.ku_from_payload(ctx, serial.ku_payload(ku))
    assert ku2.epoch == 6 and ku2.parts == ku.parts

    dk2 = serial.dk_from_payload(ctx, serial.dk_payload(dk))
    assert (dk2.identity, dk2.epoch, dk2.node) == (dk.identity, dk.epoch, dk.node)
    assert dk2.rows == dk.rows and dk2.d0 == dk.d0 and dk2.d1 == dk.d1


def test_ciphertexts_and_messages_roundtrip_to_working_objects():
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts()
    ct_back = serial.ct_original_from_payload(ctx, serial.ct_original_payload(ct))
    assert ct_back.attrs == ct.attrs and ct_back.epoch == 6
    assert ct_back.c2 == ct.c2 and ct_back.e2 == ct.e2
    msg_back = serial.msg_from_payload(ctx, serial.msg_payload(msg))
    assert msg_back == msg
    ct2_back = serial.ct_updated_from_payload(ctx, serial.ct_updated_payload(ct2))
    dk_back = serial.dk_from_payload(ctx, serial.dk_payload(dk))
    assert decrypt(pp, ct2_back, dk_back) == msg_back


def test_real_backend_roundtrip():
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts(REAL)
    back = serial.pp_from_payload(serial.pp_payload(pp))
    assert back.blind == pp.blind
    assert serial.msg_from_payload(ctx, serial.msg_payload(msg)) == msg
    ct2_back = serial.ct_updated_from_payload(ctx, serial.ct_updated_payload(ct2))
    assert decrypt(pp, ct2_back, serial.dk_from_payload(ctx, serial.dk_payload(dk))) == msg


def test_state_payload_roundtrip_restores_the_whole_authority():
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts()
    rl.add("alice", 9, 16)
    data = serial.state_payload(pp, mk, state, rl)
    pp2, mk2, state2, rl2 = serial.state_from_payload(data)
    assert int(mk2.alpha) == int(mk.alpha)
    assert state2.leaf_of == state.leaf_of
    assert {n: int(s) for n, s in state2.node_secrets.items()} == {
        n: int(s) for n, s in state.node_secrets.items()
    }
    assert rl2.epochs == {"alice": 9}
    # the restored authority keeps issuing keys compatible with old ones
    rng = SeededRng("post-restore")
    ku2 = update_key(pp2, mk2, state2, rl2, 3, rng)
    sk_back = serial.sk_from_payload(pp2.ctx, serial.sk_payload(sk))
    dk2 = derive_dk(sk_back, ku2)
    assert dk2 is not None
    msg2 = pp2.ctx.random_element(SIDE_TARGET, rng)
    ct_new = update_ct(pp2, encrypt(pp2, {1, 2}, 3, msg2, rng), 3, rng)
    assert decrypt(pp2, ct_new, dk2) == msg2


def test_envelope_write_read(tmp_path):
    ctx, pp, *_ = build_artifacts()
    payload = serial.pp_payload(pp)
    phash = serial.params_hash(payload)
    env = serial.envelope("pp", TRANSPARENT, phash, payload)
    path = tmp_path / "pp.json"
    serial.write_envelope(path, env)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "pp"
    back = serial.read_envelope(path, expect_kind="pp")
    assert back == env
    serial.check_params_hash(back, phash)
    with pytest.raises(EnvelopeError):
        serial.check_params_hash(back, "0" * 64)
    with pytest.raises(EnvelopeError):
        serial.read_envelope(path, expect_kind="sk")


def test_failed_envelope_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    serial.write_envelope(path, {"kind": "state", "payload": "old"})
    before = path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"kind": "st')
        raise OSError("disk full")

    monkeypatch.setattr(serial.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        serial.write_envelope(path, {"kind": "state", "payload": "new"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_envelope_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(EnvelopeError):
        serial.read_envelope(path, expect_kind="pp")
    path.write_text(json.dumps({"kind": "pp"}))
    with pytest.raises(EnvelopeError):
        serial.read_envelope(path, expect_kind="pp")
    ctx, pp, *_ = build_artifacts()
    payload = serial.pp_payload(pp)
    env = serial.envelope("pp", TRANSPARENT, serial.params_hash(payload), payload)
    env["version"] = 99
    serial.write_envelope(path, env)
    with pytest.raises(EnvelopeError):
        serial.read_envelope(path, expect_kind="pp")
    with pytest.raises(EnvelopeError):
        serial.envelope("not-a-kind", TRANSPARENT, "x", {})


def test_payload_decoders_refuse_a_payload_that_is_not_an_object():
    ctx, *_ = build_artifacts()
    for payload in ([], "pp value", 5):  # "pp" in "pp value" holds, yet it has no field
        with pytest.raises(EnvelopeError, match="missing field"):
            serial.state_from_payload(payload)
        with pytest.raises(EnvelopeError, match="missing field"):
            serial.msg_from_payload(ctx, payload)


def test_canonical_json_is_stable():
    a = serial.canonical_json({"b": 1, "a": [2, 3]})
    b = serial.canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'


def test_element_encoding_rejects_cross_backend_bytes():
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts()
    real = new_context(REAL)
    payload = serial.msg_payload(msg)
    with pytest.raises(EnvelopeError):
        serial.msg_from_payload(real, payload)


# ---------------------------------------------------------------------------
# fuzzing: tampered envelopes end as EnvelopeError and nothing else

DECODERS = {
    "pp": lambda ctx, payload: serial.pp_from_payload(payload),
    "mk": serial.mk_from_payload,
    "sk": serial.sk_from_payload,
    "ku": serial.ku_from_payload,
    "dk": serial.dk_from_payload,
    "ct-original": serial.ct_original_from_payload,
    "ct-updated": serial.ct_updated_from_payload,
    "msg": serial.msg_from_payload,
    "state": lambda ctx, payload: serial.state_from_payload(payload),
}


def _valid_envelopes():
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts()
    payloads = {
        "pp": serial.pp_payload(pp),
        "mk": serial.mk_payload(mk),
        "sk": serial.sk_payload(sk),
        "ku": serial.ku_payload(ku),
        "dk": serial.dk_payload(dk),
        "ct-original": serial.ct_original_payload(ct),
        "ct-updated": serial.ct_updated_payload(ct2),
        "msg": serial.msg_payload(msg),
        "state": serial.state_payload(pp, mk, state, rl, 6),
    }
    phash = serial.params_hash(payloads["pp"])
    envs = {k: serial.envelope(k, TRANSPARENT, phash, p) for k, p in payloads.items()}
    return ctx, json.loads(json.dumps(envs))


FUZZ_CTX, VALID_ENVELOPES = _valid_envelopes()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every location below node, as a tuple of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _is_element(value):
    try:
        return isinstance(value, str) and len(base64.b64decode(value, validate=True)) > 0
    except ValueError:
        return False


@st.composite
def tampered_envelopes(draw):
    env = copy.deepcopy(VALID_ENVELOPES[draw(st.sampled_from(sorted(VALID_ENVELOPES)))])
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["drop", "retype", "duplicate", "flip", "swap-kind"]))
        paths = list(_paths(env))
        if op == "flip":
            paths = [p for p in paths if _is_element(_get(env, p))]
        if op == "swap-kind" or not paths:
            env["kind"] = draw(st.sampled_from(sorted(DECODERS)))
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _get(env, path[:-1]), path[-1]
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = draw(JSON_VALUES)
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "duplicate":
            other = draw(st.sampled_from(sorted(parent)) | st.text(max_size=3))
            parent[other] = copy.deepcopy(parent[key])
        else:
            data = bytearray(base64.b64decode(parent[key]))
            bit = draw(st.integers(0, 8 * len(data) - 1))
            data[bit // 8] ^= 1 << (bit % 8)
            parent[key] = base64.b64encode(bytes(data)).decode("ascii")
    return env


def _get(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "artifact.json"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(env=tampered_envelopes())
def test_tampered_envelopes_raise_only_envelope_errors(fuzz_file, env):
    fuzz_file.write_text(json.dumps(env))
    try:
        # read as the kind it claims, so swap-kind feeds decoders other kinds' payloads
        read = serial.read_envelope(fuzz_file, expect_kind=env.get("kind"))
        decode = DECODERS.get(read["kind"])
        if decode is not None:
            decode(FUZZ_CTX, read["payload"])
    except EnvelopeError:
        pass


# fuzzing the context checks: valid artifacts edited in the fields each kind's
# check(pp, tree) reads against the deployment (4 users, epochs 1..15,
# attributes 1..3), so that the decoders pass most edits on to the checks

FUZZ_PP, _, FUZZ_TREE, _ = serial.state_from_payload(VALID_ENVELOPES["state"]["payload"])
CONTEXT_FIELDS = ("epoch", "e2", "parts", "c2", "identity", "node")
NEAR = st.integers(-1, 20)  # ints around every range the checks bound


def _toggle(draw, mapping, key):
    """Drop key from mapping, or add it with a copy of another entry."""
    if key in mapping:
        del mapping[key]
    elif mapping:
        mapping[key] = copy.deepcopy(mapping[draw(st.sampled_from(sorted(mapping)))])


@st.composite
def context_edits(draw):
    kind = draw(st.sampled_from(["sk", "ku", "dk", "ct-original", "ct-updated"]))
    payload = copy.deepcopy(VALID_ENVELOPES[kind]["payload"])
    fields = [name for name in CONTEXT_FIELDS if name in payload]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(fields))
        if name in ("epoch", "node"):
            payload[name] = draw(NEAR)
        elif name == "identity":
            payload[name] = draw(st.sampled_from(["alice", "mallory", ""]))
        else:  # c2's attributes, e2's slots, sk and ku parts' nodes
            _toggle(draw, payload[name], str(draw(NEAR)))
    return kind, payload


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edit=context_edits())
def test_context_edits_raise_only_envelope_or_field_errors(edit):
    kind, payload = edit
    try:
        artifact = DECODERS[kind](FUZZ_PP.ctx, payload)
    except EnvelopeError:
        return
    try:
        artifact.check(FUZZ_PP, FUZZ_TREE)
    except ParameterError as exc:
        assert payload != VALID_ENVELOPES[kind]["payload"], exc
        assert str(exc).startswith("field '"), exc


def _real_payloads():
    """Every kind that holds an element, from a small real deployment: 2
    users, epochs 1..3, attribute 1."""
    ctx = new_context(REAL)
    rng = SeededRng("serial-real-sides")
    pp, mk, state, rl = setup(ctx, 2, 4, 1, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1"), rng)
    ku = update_key(pp, mk, state, rl, 1, rng)
    msg = ctx.random_element(SIDE_TARGET, rng)
    ct = encrypt(pp, {1}, 1, msg, rng)
    payloads = {
        "pp": serial.pp_payload(pp),
        "sk": serial.sk_payload(sk),
        "ku": serial.ku_payload(ku),
        "dk": serial.dk_payload(derive_dk(sk, ku)),
        "ct-original": serial.ct_original_payload(ct),
        "ct-updated": serial.ct_updated_payload(update_ct(pp, ct, 1, rng)),
        "msg": serial.msg_payload(msg),
        "state": serial.state_payload(pp, mk, state, rl),
    }
    return ctx, json.loads(json.dumps(payloads))


def _element_fields(payload):
    """(path, field the decoder names) of every element in payload, told from
    scalars (32 bytes) and other strings by its length; a map's decimal keys
    and a list's indices name no field, so the map or list does."""
    for path in _paths(payload):
        value = _get(payload, path)
        if _is_element(value) and len(base64.b64decode(value)) in (8, 96, 192, 576):
            yield path, [key for key in path if isinstance(key, str) and not key.isdigit()][-1]


def _refused_everywhere(ctx, payloads, encodings):
    """How many element fields of payloads were tried with each of encodings
    of another length; every one must be refused, naming its field."""
    checked = 0
    for kind, payload in payloads.items():
        for path, field in _element_fields(payload):
            own = len(base64.b64decode(_get(payload, path)))
            for data in (data for data in encodings if len(data) != own):
                edited = copy.deepcopy(payload)
                _get(edited, path[:-1])[path[-1]] = base64.b64encode(data).decode("ascii")
                with pytest.raises(EnvelopeError, match=f"field '{field}'"):
                    DECODERS[kind](ctx, edited)
                checked += 1
    return checked


def test_every_element_field_checks_its_side():
    """An element encoding states neither side nor backend.  On the real
    backend each side has its own length (G1 96, G2 192, GT 576 bytes, a
    transparent element 8), so every field refuses an element of another
    side or backend; a transparent field refuses every real element."""
    real, payloads = _real_payloads()
    sides = [real.generator(side).encode() for side in (SIDE_ONE, SIDE_TWO, SIDE_TARGET)]
    transparent = FUZZ_CTX.generator(SIDE_ONE).encode()
    assert _refused_everywhere(real, payloads, sides + [transparent]) == 3 * 43
    envs = {kind: env["payload"] for kind, env in VALID_ENVELOPES.items()}
    assert _refused_everywhere(FUZZ_CTX, envs, sides) == 3 * 81
    # every transparent element is 8 bytes, so one of side one loads as side two
    assert FUZZ_CTX.decode_element(transparent, SIDE_TWO) == FUZZ_CTX.generator(SIDE_TWO)


def _outside_gt() -> bytes:
    """A well-formed Fq12 element in the cyclotomic subgroup but not in GT:
    the easy part of the final exponentiation of an element off GT."""
    g = bls.fq12_from_bytes(b"".join(k.to_bytes(48, "big") for k in range(1, 13)))
    f = bls.fq12_mul(bls.fq12_conj(g), bls.fq12_inv(g))
    return bls.fq12_to_bytes(bls.fq12_mul(bls.fq12_frob2(f), f))


def _element_edits(data, word):
    """Edits of a real element's bytes, each with the reason its decoder must
    name: one word set to P and the last 48 bytes cut; on a G1 or G2 point
    also a flag bit flipped and x and y swapped, on a GT element a
    well-formed Fq12 outside GT."""
    at, half = 48 * word, len(data) // 2
    edits = {
        "a word set to P": (data[:at] + P.to_bytes(48, "big") + data[at + 48 :], "out of range"),
        "cut by 48": (data[:-48], "encoding must be"),
    }
    if len(data) == 576:
        edits["outside GT"] = (_outside_gt(), "outside the pairing image")
        return edits
    return {
        **edits,
        "compressed flag": (bytes([data[0] ^ 0x80]) + data[1:], "compressed"),
        "infinity flag": (bytes([data[0] ^ 0x40]) + data[1:], "malformed G[12] infinity"),
        "sign flag": (bytes([data[0] ^ 0x20]) + data[1:], "sign bit"),
        "x and y swapped": (data[half:] + data[:half], "not on the curve"),
    }


def test_real_point_edits_raise_envelope_errors_naming_the_field():
    """Every element of every real kind, edited in its bytes: each edit ends
    as an EnvelopeError that names the field and the reason."""
    assert not bls.gt_is_valid(bls.fq12_from_bytes(_outside_gt()))
    real, payloads = _real_payloads()
    checked = 0
    for kind, payload in payloads.items():
        for n, (path, field) in enumerate(_element_fields(payload)):
            data = base64.b64decode(_get(payload, path))
            for bad, reason in _element_edits(data, n % (len(data) // 48)).values():
                edited = copy.deepcopy(payload)
                _get(edited, path[:-1])[path[-1]] = base64.b64encode(bad).decode("ascii")
                with pytest.raises(EnvelopeError, match=f"field '{field}': .*{reason}"):
                    DECODERS[kind](real, edited)
                checked += 1
    # 38 G1/G2 fields; 5 GT fields: pp's and the state's blind, each ciphertext's c, msg
    assert checked == 6 * 38 + 3 * 5


def test_real_artifact_sizes_match_the_element_formulas():
    """The element bytes each real artifact stores, against the scheme's
    formulas: 96 bytes a G1, 192 a G2 and 576 a GT element, with n the
    attribute bound, L the epoch bits, r policy rows, a path of d nodes, a
    cover of c nodes, |S| attributes and z zero positions of the epoch."""
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts(REAL)
    n, L, r = pp.attr_max, bit_width(pp.max_time), len(sk.policy.rows)
    d, c = len(state.path(state.leaf_for("alice"))), len(cover_nodes(state, rl, 6))
    s, z = len({1, 2}), len(zero_positions(ct_epoch_bits(6, pp.max_time)))
    formulas = {  # kind: (artifact, G1, G2, GT elements)
        "pp": (pp, n + L + 2, n + L + 2, 1),
        "mk": (mk, 0, 0, 0),
        "sk": (sk, 0, 2 * r * d, 0),
        "ku": (ku, 0, 2 * c, 0),
        "dk": (dk, 0, 2 * r + 2, 0),
        "ct-original": (ct, 2 + s + z, 0, 1),
        "ct-updated": (ct2, 2 + s, 0, 1),
        "msg": (msg, 0, 0, 1),
        "state": ((pp, mk, state, rl), n + L + 2, n + L + 2, 1),
    }
    for kind, (artifact, g1, g2, gt) in formulas.items():
        payload = ENCODERS[kind](artifact)
        # elements are the base64 strings of 48 bytes or more: not a scalar
        # (32 bytes), nor a word such as "real" that happens to be base64
        leaves = (_get(payload, path) for path in _paths(payload))
        sizes = [size for size in (len(base64.b64decode(v)) for v in leaves if _is_element(v))
                 if size >= 48]
        assert sum(sizes) == 96 * g1 + 192 * g2 + 576 * gt, kind
        assert Counter(sizes) == Counter({96: g1, 192: g2, 576: gt}), kind


# ---------------------------------------------------------------------------
# known answers: the bytes envelope VERSION 6 writes, pinned per payload kind,
# and two real payloads

PAYLOAD_PINS = {
    "pp": "d1e515e293ecc50b539ccbde32670c3d0fc084d18b5c9f37faf54af4f68f77e9",
    "mk": "18dce197f61a076fe19cfdcc157fe532c66c5a8f88690a298fbef9be1d5cd1b0",
    "sk": "25782d7d309b0e132bfa7e6a0ff4668667f8b8bd7a2163c683f0f9cc9adbfc50",
    "ku": "003248118614454247d6cd39fd977a423bb5c34b0c7996e9dd4458a1b361dbeb",
    "dk": "8d9dd508e37e0077c06dbbbd17b2a6858ee74f8c8be2c48f97eb460094cbe0a7",
    "ct-original": "9ec242a1d3b6a47a98ec8d8bfd21b3ff748bdf1fb8eaa9f28dffecd0849516b5",
    "ct-updated": "a8f3f80c9923506180b7d2afbbcd6a081b0583a4baacfdfe7b95915486cdd470",
    "msg": "5da90ce35393f7b8766133bb5089a1994df9d83c7143bdc8628990d53945401c",
    "state": "01b1f3c821c69bf13b6ca42ed65073f9b2768e1a66014a0c555e104f7b6cfdd5",
}
REAL_CT_UPDATED_PIN = "a9526fad3af5d155ff02768e3a057db8debc563b05bcd895414783da7a9f780f"
REAL_SK_PIN = "b49e6b45edf8c103baa4d45731516d20a1068a1780ae3b6fb2ff441ab7792d65"


def _sha256(payload) -> str:
    return hashlib.sha256(serial.canonical_json(payload).encode("utf-8")).hexdigest()


ENCODERS = {
    "pp": serial.pp_payload,
    "mk": serial.mk_payload,
    "sk": serial.sk_payload,
    "ku": serial.ku_payload,
    "dk": serial.dk_payload,
    "ct-original": serial.ct_original_payload,
    "ct-updated": serial.ct_updated_payload,
    "msg": serial.msg_payload,
    "state": lambda state: serial.state_payload(*state),
}


def test_payload_bytes_match_their_pins():
    assert serial.VERSION == 6
    ctx, pp, mk, state, rl, sk, ku, dk, msg, ct, ct2 = build_artifacts()
    state.assign_leaf("bob")  # a revoked identity has a leaf, or the state would not load
    rl.add("bob", 9, 16)
    artifacts = {
        "pp": pp, "mk": mk, "sk": sk, "ku": ku, "dk": dk, "ct-original": ct, "ct-updated": ct2,
        "msg": msg, "state": (pp, mk, state, rl, 6),
    }
    payloads = {kind: ENCODERS[kind](obj) for kind, obj in artifacts.items()}
    assert {kind: _sha256(payload) for kind, payload in payloads.items()} == PAYLOAD_PINS
    # decoding a pinned payload and encoding it again gives the same bytes
    for kind, payload in payloads.items():
        again = ENCODERS[kind](DECODERS[kind](ctx, json.loads(serial.canonical_json(payload))))
        assert serial.canonical_json(again) == serial.canonical_json(payload), kind


def test_real_ciphertext_bytes_match_the_version_4_pin():
    ctx = new_context(REAL)
    rng = SeededRng("serial-real-pin")
    pp, *_ = setup(ctx, 4, 16, 3, rng)
    ct = update_ct(pp, encrypt(pp, {1, 2}, 6, ctx.random_element(SIDE_TARGET, rng), rng), 6, rng)
    payload = serial.ct_updated_payload(ct)
    assert _sha256(payload) == REAL_CT_UPDATED_PIN
    again = serial.ct_updated_payload(serial.ct_updated_from_payload(ctx, payload))
    assert serial.canonical_json(again) == serial.canonical_json(payload)


def test_real_key_bytes_match_the_version_4_pin():
    """keygen's k0 = g2^lambda * T(x)^r on BLS12-381, whatever way it is
    computed."""
    ctx = new_context(REAL)
    rng = SeededRng("serial-real-sk-pin")
    pp, mk, state, _ = setup(ctx, 4, 16, 3, rng)
    sk = keygen(pp, mk, state, "alice", parse_policy("1 AND (2 OR 3)"), rng)
    payload = serial.sk_payload(sk)
    assert _sha256(payload) == REAL_SK_PIN
    again = serial.sk_payload(serial.sk_from_payload(ctx, payload))
    assert serial.canonical_json(again) == serial.canonical_json(payload)
