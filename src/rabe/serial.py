"""Envelope serialization for every artifact the scheme produces.

An envelope is a JSON document {kind, version, backend, params_hash,
payload}; payloads hold base64 canonical element/scalar encodings in
documented field orders.  params_hash is the SHA-256 of the canonical
public-parameter payload, so every derived artifact states which parameter
set it belongs to and loaders refuse mismatches.

Kinds: pp, mk, sk, ku, dk, ct-original, ct-updated, state, msg, transcript.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os

from .errors import EnvelopeError, ParameterError, PolicyParseError
from .groups import (
    REAL,
    SIDE_ONE,
    SIDE_TARGET,
    SIDE_TWO,
    TRANSPARENT,
    BilinearContext,
    GroupElement,
    Scalar,
    TransparentContext,
    new_context,
)
from .policy import AccessPolicy, parse_policy
from .rng import _is_probable_prime
from .scheme import (
    DecryptionKey,
    KeyUpdate,
    MasterKey,
    MirroredPair,
    OriginalCiphertext,
    PrivateKey,
    PublicParams,
    UpdatedCiphertext,
)
from .tree import RevocationList, TreeState

VERSION = 1

KINDS = (
    "pp",
    "mk",
    "sk",
    "ku",
    "dk",
    "ct-original",
    "ct-updated",
    "state",
    "msg",
    "transcript",
)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


# ---------------------------------------------------------------------------
# type-checked field reading: every malformed payload ends as an
# EnvelopeError that names the field


def _typed(value, kind, field: str):
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise EnvelopeError(f"field {field!r} must be {kind.__name__}, got {type(value).__name__}")


def _field(data: dict, key: str, kind):
    if not isinstance(data, dict) or key not in data:
        raise EnvelopeError(f"missing field {key!r}")
    return _typed(data[key], kind, key)


def _el(element: GroupElement) -> str:
    return _b64(element.encode())


def _sc(scalar: Scalar) -> str:
    return _b64(scalar.encode())


def _unb64(decode, text, field: str):
    """decode() applied to the bytes of a base64 field."""
    _typed(text, str, field)
    try:
        return decode(base64.b64decode(text.encode("ascii"), validate=True))
    except (ValueError, EnvelopeError) as exc:  # bad base64, or bytes decode() rejects
        raise EnvelopeError(f"field {field!r}: {exc}") from None


def _unel(ctx: BilinearContext, text, field: str, side: str) -> GroupElement:
    element = _unb64(ctx.decode_element, text, field)
    if element.side != side:
        raise EnvelopeError(
            f"field {field!r} holds an element of side {element.side}, expected side {side}"
        )
    return element


def _element(ctx: BilinearContext, data: dict, key: str, side: str) -> GroupElement:
    return _unel(ctx, _field(data, key, str), key, side)


def _row_payload(row) -> list:
    return [_el(element) for element in row]


def _row_from(ctx: BilinearContext, value, field: str) -> tuple[GroupElement, GroupElement]:
    """A key row: the pair (k0, k1) of a private or decryption key, or (d0,
    d1) of a key update; key elements live on side two."""
    if not isinstance(value, list) or len(value) != 2:
        raise EnvelopeError(f"field {field!r} holds a row that is not a list of 2 elements")
    return _unel(ctx, value[0], field, SIDE_TWO), _unel(ctx, value[1], field, SIDE_TWO)


def _map_payload(mapping: dict, encode) -> dict:
    return {str(key): encode(value) for key, value in sorted(mapping.items())}


def _map_from(data: dict, field: str, decode) -> dict:
    """An int-keyed map stored with decimal string keys; decode(value, field)
    reads each value."""
    out = {}
    for key, value in _field(data, field, dict).items():
        if not (key.isascii() and key.isdigit()) or str(int(key)) != key:
            raise EnvelopeError(f"field {field!r} has key {key!r}, not a decimal integer")
        out[int(key)] = decode(value, field)
    return out


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def params_hash(pp_payload: dict) -> str:
    return hashlib.sha256(canonical_json(pp_payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# context


def context_payload(ctx: BilinearContext) -> dict:
    if ctx.backend == TRANSPARENT:
        return {"backend": TRANSPARENT, "modulus": ctx.prime_order}
    return {"backend": REAL, "curve": "bls12-381"}


def context_from_payload(data: dict) -> BilinearContext:
    backend = _field(data, "backend", str)
    if backend == TRANSPARENT:
        modulus = _field(data, "modulus", int)
        if not _is_probable_prime(modulus):
            raise EnvelopeError("transparent context needs a prime modulus")
        return TransparentContext(modulus=modulus)
    if backend == REAL:
        if data.get("curve") != "bls12-381":
            raise EnvelopeError(f"unknown curve {data.get('curve')!r}")
        return new_context(REAL)
    raise EnvelopeError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# per-artifact payload codecs


def _pair_payload(pair: MirroredPair) -> dict:
    return {"one": _el(pair.one), "two": _el(pair.two)}


def _pair_from(ctx, data, field) -> MirroredPair:
    _typed(data, dict, field)
    return MirroredPair(
        one=_element(ctx, data, "one", SIDE_ONE), two=_element(ctx, data, "two", SIDE_TWO)
    )


def pp_payload(pp: PublicParams) -> dict:
    return {
        "group": context_payload(pp.ctx),
        "n_users": pp.n_users,
        "max_time": pp.max_time,
        "attr_max": pp.attr_max,
        "g1": _el(pp.g1),
        "g2": _pair_payload(pp.g2),
        "t_gens": [_pair_payload(t) for t in pp.t_gens],
        "u0": _pair_payload(pp.u0),
        "u_gens": [_pair_payload(u) for u in pp.u_gens],
    }


def pp_from_payload(data: dict) -> PublicParams:
    ctx = context_from_payload(_field(data, "group", dict))
    pp = PublicParams(
        ctx=ctx,
        n_users=_field(data, "n_users", int),
        max_time=_field(data, "max_time", int),
        attr_max=_field(data, "attr_max", int),
        g1=_element(ctx, data, "g1", SIDE_ONE),
        g2=_pair_from(ctx, _field(data, "g2", dict), "g2"),
        t_gens=tuple(_pair_from(ctx, t, "t_gens") for t in _field(data, "t_gens", list)),
        u0=_pair_from(ctx, _field(data, "u0", dict), "u0"),
        u_gens=tuple(_pair_from(ctx, u, "u_gens") for u in _field(data, "u_gens", list)),
    )
    tau = len(pp.u_gens)  # max_time = 2^tau, tau >= 2
    if len(pp.t_gens) != pp.attr_max + 1 or tau < 2 or pp.max_time != 1 << tau:
        raise EnvelopeError("generator counts do not match fields 'attr_max' and 'max_time'")
    return pp


def mk_payload(mk: MasterKey) -> dict:
    return {"alpha": _sc(mk.alpha)}


def mk_from_payload(ctx, data) -> MasterKey:
    return MasterKey(alpha=_unb64(ctx.decode_scalar, _field(data, "alpha", str), "alpha"))


def policy_payload(policy: AccessPolicy) -> dict:
    return {
        "formula": policy.formula,
        "matrix": [list(row) for row in policy.rows],
        "row_attrs": list(policy.row_attrs),
    }


def policy_from_payload(data: dict) -> AccessPolicy:
    try:
        policy = parse_policy(_field(data, "formula", str))
    except PolicyParseError as exc:
        raise EnvelopeError(f"field 'formula': {exc}") from None
    matrix, row_attrs = _field(data, "matrix", list), _field(data, "row_attrs", list)
    if [list(r) for r in policy.rows] != matrix or list(policy.row_attrs) != row_attrs:
        raise EnvelopeError("policy matrix does not match its formula")
    return policy


def sk_payload(sk: PrivateKey) -> dict:
    return {
        "identity": sk.identity,
        "policy": policy_payload(sk.policy),
        "parts": _map_payload(sk.parts, lambda rows: [_row_payload(row) for row in rows]),
    }


def sk_from_payload(ctx, data) -> PrivateKey:
    return PrivateKey(
        identity=_field(data, "identity", str),
        policy=policy_from_payload(_field(data, "policy", dict)),
        parts=_map_from(
            data, "parts",
            lambda rows, f: tuple(_row_from(ctx, row, f) for row in _typed(rows, list, f)),
        ),
    )


def ku_payload(ku: KeyUpdate) -> dict:
    return {"epoch": ku.epoch, "parts": _map_payload(ku.parts, _row_payload)}


def ku_from_payload(ctx, data) -> KeyUpdate:
    return KeyUpdate(
        epoch=_field(data, "epoch", int),
        parts=_map_from(data, "parts", lambda row, f: _row_from(ctx, row, f)),
    )


def dk_payload(dk: DecryptionKey) -> dict:
    return {
        "identity": dk.identity,
        "epoch": dk.epoch,
        "node": dk.node,
        "policy": policy_payload(dk.policy),
        "rows": [_row_payload(row) for row in dk.rows],
        "d0": _el(dk.d0),
        "d1": _el(dk.d1),
    }


def dk_from_payload(ctx, data) -> DecryptionKey:
    return DecryptionKey(
        identity=_field(data, "identity", str),
        epoch=_field(data, "epoch", int),
        node=_field(data, "node", int),
        policy=policy_from_payload(_field(data, "policy", dict)),
        rows=tuple(_row_from(ctx, row, "rows") for row in _field(data, "rows", list)),
        d0=_element(ctx, data, "d0", SIDE_TWO),
        d1=_element(ctx, data, "d1", SIDE_TWO),
    )


def _ct_payload(ct) -> dict:
    """The fields both ciphertext kinds share."""
    return {
        "attrs": sorted(ct.attrs),
        "epoch": ct.epoch,
        "c": _el(ct.c),
        "c1": _el(ct.c1),
        "c2": _map_payload(ct.c2, _el),
    }


def _ct_from(ctx, data) -> dict:
    return {
        "attrs": frozenset(_typed(attr, int, "attrs") for attr in _field(data, "attrs", list)),
        "epoch": _field(data, "epoch", int),
        "c": _element(ctx, data, "c", SIDE_TARGET),
        "c1": _element(ctx, data, "c1", SIDE_ONE),
        "c2": _map_from(data, "c2", lambda text, f: _unel(ctx, text, f, SIDE_ONE)),
    }


def ct_original_payload(ct: OriginalCiphertext) -> dict:
    return {**_ct_payload(ct), "e1": _el(ct.e1), "e2": _map_payload(ct.e2, _el)}


def ct_original_from_payload(ctx, data) -> OriginalCiphertext:
    return OriginalCiphertext(
        **_ct_from(ctx, data),
        e1=_element(ctx, data, "e1", SIDE_ONE),
        e2=_map_from(data, "e2", lambda text, f: _unel(ctx, text, f, SIDE_ONE)),
    )


def ct_updated_payload(ct: UpdatedCiphertext) -> dict:
    return {**_ct_payload(ct), "e_t": _el(ct.e_t)}


def ct_updated_from_payload(ctx, data) -> UpdatedCiphertext:
    return UpdatedCiphertext(**_ct_from(ctx, data), e_t=_element(ctx, data, "e_t", SIDE_ONE))


def msg_payload(message: GroupElement) -> dict:
    return {"value": _el(message)}


def msg_from_payload(ctx, data) -> GroupElement:
    return _element(ctx, data, "value", SIDE_TARGET)


def tree_payload(state: TreeState) -> dict:
    return {
        "capacity": state.capacity,
        "secrets": _map_payload(state.node_secrets, _sc),
        "leaves": dict(sorted(state.leaf_of.items())),
    }


def tree_from_payload(ctx, data) -> TreeState:
    try:
        state = TreeState(capacity=_field(data, "capacity", int))
    except ParameterError as exc:
        raise EnvelopeError(f"field 'capacity': {exc}") from None
    state.node_secrets = _map_from(
        data, "secrets", lambda text, f: _unb64(ctx.decode_scalar, text, f)
    )
    for identity, leaf in _field(data, "leaves", dict).items():
        if not state.capacity <= _typed(leaf, int, "leaves") < 2 * state.capacity:
            raise EnvelopeError(f"field 'leaves': {identity!r} sits at {leaf}, not at a leaf")
        state.leaf_of[identity] = leaf
    return state


def rl_payload(rl: RevocationList) -> dict:
    return {"epochs": dict(sorted(rl.epochs.items()))}


def rl_from_payload(data) -> RevocationList:
    epochs = _field(data, "epochs", dict)
    return RevocationList({who: _typed(t, int, "epochs") for who, t in epochs.items()})


# ---------------------------------------------------------------------------
# envelopes


def envelope(kind: str, backend: str, phash: str, payload: dict) -> dict:
    if kind not in KINDS:
        raise EnvelopeError(f"unknown envelope kind {kind!r}")
    return {
        "kind": kind,
        "version": VERSION,
        "backend": backend,
        "params_hash": phash,
        "payload": payload,
    }


def write_envelope(path, env: dict) -> None:
    """Write through a temporary file in the same directory and rename it
    over `path`, so a failed write never leaves a half-written artifact
    (the state file holds the master key)."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(env, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_envelope(path, expect_kind: str | None = None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            env = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise EnvelopeError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(env, dict):
        raise EnvelopeError(f"{path}: an envelope is a JSON object, got {type(env).__name__}")
    try:
        for field, kind in ("kind", str), ("backend", str), ("params_hash", str), ("payload", dict):
            _field(env, field, kind)
    except EnvelopeError as exc:
        raise EnvelopeError(f"{path}: envelope {exc}") from None
    version = env.get("version")
    if type(version) is not int or version != VERSION:
        raise EnvelopeError(f"{path}: unsupported envelope version {version!r}")
    if expect_kind is not None and env["kind"] != expect_kind:
        raise EnvelopeError(f"{path}: expected kind {expect_kind!r}, found {env['kind']!r}")
    return env


def check_params_hash(env: dict, phash: str, path="") -> None:
    if env["params_hash"] != phash:
        raise EnvelopeError(
            f"{path}: artifact belongs to parameter set {env['params_hash'][:12]}..., "
            f"not the loaded {phash[:12]}..."
        )


# ---------------------------------------------------------------------------
# whole-state envelope for the CLI


def state_payload(pp, mk, state, rl, epoch_counter: int) -> dict:
    return {
        "pp": pp_payload(pp),
        "mk": mk_payload(mk),
        "tree": tree_payload(state),
        "rl": rl_payload(rl),
        "epoch_counter": epoch_counter,
    }


def state_from_payload(data: dict):
    pp = pp_from_payload(_field(data, "pp", dict))
    ctx = pp.ctx
    return (
        pp,
        mk_from_payload(ctx, _field(data, "mk", dict)),
        tree_from_payload(ctx, _field(data, "tree", dict)),
        rl_from_payload(_field(data, "rl", dict)),
        _field(data, "epoch_counter", int),
    )
