"""Envelope serialization for every artifact the scheme produces.

An envelope is a JSON document {kind, version, backend, params_hash,
payload}.  params_hash is the SHA-256 of the canonical public-parameter
payload, so every derived artifact states which parameter set it belongs to
and loaders refuse mismatches.  backend is the one statement of the backend
a file's elements are encoded for: an element encoding is its payload alone
(see groups), and loaders refuse an envelope whose backend is not the
deployment's.

Each artifact's payload is stated once, as a record spec: a table that maps
every payload key to a field codec, an (encode, decode) pair for an int, a
string, a scalar, an element of a stated side, a sequence, an int-keyed map,
a policy or a nested record.  One encoder (_encode) and one decoder
(_decode) walk the specs.  Elements and scalars are stored as base64
canonical encodings, int-keyed maps with decimal string keys.  Decoding
type-checks every field and then builds the artifact, whose class checks its
invariants; either way a malformed payload ends as an EnvelopeError naming the field.

A VERSION 6 payload holds the keys of its record spec below, each fact
once: a policy is {formula}, its matrix the formula's parse; a ciphertext's
attribute set is the key set of its c2; a state is {pp, mk, tree, rl}, its
tree holding a secret for every node.  pp holds what the algorithms read:
its group, the sizes max_time and attr_max, the blinding base e(g^alpha, g2)
as a target element, and the anchors T_1..T_n.  The group names the
backend alone, {"backend": "transparent"} (whose order is the one constant
groups.TRANSPARENT_MODULUS) or {"backend": "real", "curve": "bls12-381"}.
On the real backend G1 and G2 elements are uncompressed points, so loading
one takes no square root.  A file of any other version is refused.

Kinds: pp, mk, sk, ku, dk, ct-original, ct-updated, state, msg, transcript.
"""

from __future__ import annotations

import base64
import errno
import hashlib
import json
import os

from .errors import EnvelopeError, ParameterError, PolicyParseError, UnknownIdentityError
from .groups import (
    REAL,
    SIDE_ONE,
    SIDE_TARGET,
    SIDE_TWO,
    TRANSPARENT,
    TRANSPARENT_MODULUS,
    BilinearContext,
    GroupElement,
    new_context,
)
from .policy import AccessPolicy, parse_policy
from .scheme import (
    DecryptionKey,
    KeyUpdate,
    MasterKey,
    MirroredPair,
    OriginalCiphertext,
    PrivateKey,
    PublicParams,
    UpdatedCiphertext,
    revoke,
)
from .tree import RevocationList, TreeState

VERSION = 6

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


# ---------------------------------------------------------------------------
# field codecs: every malformed payload ends as an EnvelopeError that names
# the field


def _typed(value, kind, field: str):
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise EnvelopeError(f"field {field!r} must be {kind.__name__}, got {type(value).__name__}")


def _get(data: dict, key: str):
    if not isinstance(data, dict) or key not in data:
        raise EnvelopeError(f"missing field {key!r}")
    return data[key]


def _field(data: dict, key: str, kind):
    return _typed(_get(data, key), kind, key)


def _checked(build, *args, field: str | None = None, **kwargs):
    """build(*args, **kwargs), with a broken artifact invariant ending as an
    EnvelopeError; field names the field when the invariant's message does not."""
    try:
        return build(*args, **kwargs)
    except (ParameterError, UnknownIdentityError) as exc:
        raise EnvelopeError(f"field {field!r}: {exc}" if field else str(exc)) from None


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(decode, text, field: str, *args):
    """decode(bytes, *args) applied to the bytes of a base64 field."""
    _typed(text, str, field)
    try:
        return decode(base64.b64decode(text.encode("ascii"), validate=True), *args)
    except (ValueError, EnvelopeError) as exc:  # bad base64, or bytes decode() rejects
        raise EnvelopeError(f"field {field!r}: {exc}") from None


def _el(element: GroupElement) -> str:
    return _b64(element.encode())


# A field codec is a pair (encode, decode): encode(value) gives the JSON
# value, decode(ctx, json_value, field) reads it back.


def _plain(kind):
    return (lambda value: value), (lambda ctx, value, field: _typed(value, kind, field))


def _element(side: str):
    return _el, (lambda ctx, text, field: _unb64(ctx.decode_element, text, field, side))


def _seq(item, length: int | None = None):
    """A list of items, read back as a tuple; length, if given, is exact."""
    encode, decode = item

    def read(ctx, value, field):
        _typed(value, list, field)
        if length is not None and len(value) != length:
            raise EnvelopeError(f"field {field!r} holds {len(value)} entries, not {length}")
        return tuple(decode(ctx, entry, field) for entry in value)

    return (lambda values: [encode(v) for v in values]), read


def _int_map(item):
    """An int-keyed map, stored with canonical decimal string keys."""
    encode, decode = item

    def read(ctx, value, field):
        out = {}
        for key, entry in _typed(value, dict, field).items():
            if not (key.isascii() and key.isdigit()) or str(int(key)) != key:
                raise EnvelopeError(f"field {field!r} has key {key!r}, not a decimal integer")
            out[int(key)] = decode(ctx, entry, field)
        return out

    return (lambda mapping: {str(k): encode(v) for k, v in sorted(mapping.items())}), read


def _encode(spec: dict, obj) -> dict:
    """The payload of obj under a record spec {key: codec}; every key names
    an attribute of obj."""
    return {key: encode(getattr(obj, key)) for key, (encode, _) in spec.items()}


def _decode(spec: dict, ctx: BilinearContext, data) -> dict:
    """The keyword arguments a record spec reads from a payload."""
    return {key: decode(ctx, _get(data, key), key) for key, (_, decode) in spec.items()}


def _record(cls, spec: dict):
    """The codec of a record: a JSON object read back as cls(**fields).  Its
    decoder also serves as a payload decoder, decode(ctx, payload)."""

    def encode(obj) -> dict:
        return _encode(spec, obj)

    def decode(ctx, value, field="payload"):
        return _checked(cls, **_decode(spec, ctx, _typed(value, dict, field)))

    return encode, decode


def _policy_from(ctx, value, field: str) -> AccessPolicy:
    """A policy is stored as its formula; its matrix is the formula's parse."""
    try:
        return parse_policy(_field(_typed(value, dict, field), "formula", str))
    except PolicyParseError as exc:
        raise EnvelopeError(f"field 'formula': {exc}") from None


_INT = _plain(int)
_STR = _plain(str)
_SCALAR = (
    lambda scalar: _b64(scalar.encode()),
    lambda ctx, text, field: _unb64(ctx.decode_scalar, text, field),
)
_POLICY = (lambda policy: {"formula": policy.formula}), _policy_from
# a key row: (k0, k1) of a private or decryption key, (d0, d1) of a key update
_ROW = _seq(_element(SIDE_TWO), 2)
_PAIR = _record(MirroredPair, {"one": _element(SIDE_ONE), "two": _element(SIDE_TWO)})
_secrets_payload, _secrets_from = _int_map(_SCALAR)  # a tree's node secrets


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def params_hash(pp_payload: dict) -> str:
    return hashlib.sha256(canonical_json(pp_payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# context


def context_payload(ctx: BilinearContext) -> dict:
    if ctx.backend == TRANSPARENT:
        if ctx.prime_order != TRANSPARENT_MODULUS:  # it would load as another group
            raise ParameterError(f"a transparent group of order {ctx.prime_order} is not stored")
        return {"backend": TRANSPARENT}
    return {"backend": REAL, "curve": "bls12-381"}


def context_from_payload(data: dict) -> BilinearContext:
    backend = _field(data, "backend", str)
    if backend == TRANSPARENT:
        return new_context(TRANSPARENT)
    if backend == REAL:
        if data.get("curve") != "bls12-381":
            raise EnvelopeError(f"unknown curve {data.get('curve')!r}")
        return new_context(REAL)
    raise EnvelopeError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# one record spec per artifact; _record turns a spec into the artifact's
# payload encoder and decoder, and pp adds the "group" it is read in

_PP = {
    "max_time": _INT,
    "attr_max": _INT,
    "blind": _element(SIDE_TARGET),
    "g2": _PAIR,
    "t_gens": _seq(_PAIR),
    "u0": _PAIR,
    "u_gens": _seq(_PAIR),
}


def pp_payload(pp: PublicParams) -> dict:
    return {"group": context_payload(pp.ctx), **_encode(_PP, pp)}


def pp_from_payload(data: dict) -> PublicParams:
    ctx = context_from_payload(_field(data, "group", dict))
    return _checked(PublicParams, ctx=ctx, **_decode(_PP, ctx, data))


mk_payload, mk_from_payload = _record(MasterKey, {"alpha": _SCALAR})
sk_payload, sk_from_payload = _record(
    PrivateKey, {"identity": _STR, "policy": _POLICY, "parts": _int_map(_seq(_ROW))}
)
ku_payload, ku_from_payload = _record(KeyUpdate, {"epoch": _INT, "parts": _int_map(_ROW)})
dk_payload, dk_from_payload = _record(DecryptionKey, {
    "identity": _STR,
    "epoch": _INT,
    "node": _INT,
    "policy": _POLICY,
    "rows": _seq(_ROW),
    "d0": _element(SIDE_TWO),
    "d1": _element(SIDE_TWO),
})
_CT = {  # the fields both ciphertext kinds share
    "epoch": _INT,
    "c": _element(SIDE_TARGET),
    "c1": _element(SIDE_ONE),
    "c2": _int_map(_element(SIDE_ONE)),
}
ct_original_payload, ct_original_from_payload = _record(
    OriginalCiphertext, {**_CT, "e1": _element(SIDE_ONE), "e2": _int_map(_element(SIDE_ONE))}
)
ct_updated_payload, ct_updated_from_payload = _record(
    UpdatedCiphertext, {**_CT, "e_t": _element(SIDE_ONE)}
)


def msg_payload(message: GroupElement) -> dict:
    return {"value": _el(message)}


def msg_from_payload(ctx, data) -> GroupElement:
    return _unb64(ctx.decode_element, _get(data, "value"), "value", SIDE_TARGET)


def tree_payload(state: TreeState) -> dict:
    return {
        "capacity": state.capacity,
        "secrets": _secrets_payload(state.node_secrets),
        "leaves": dict(sorted(state.leaf_of.items())),
    }


def tree_from_payload(ctx, data) -> TreeState:
    leaves = _field(data, "leaves", dict)
    return _checked(TreeState, _field(data, "capacity", int),
                    _secrets_from(ctx, _get(data, "secrets"), "secrets"),
                    {who: _typed(leaf, int, "leaves") for who, leaf in leaves.items()})


def rl_payload(rl: RevocationList) -> dict:
    return {"epochs": dict(sorted(rl.epochs.items()))}


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
    write_envelopes([(path, env)])


def write_envelopes(pairs) -> None:
    """Write each (path, JSON document) pair in two phases: every document to
    a temporary file beside its path, fsynced, then each renamed over its
    path in order.  A full disk, an unwritable directory or a path that is a
    directory fails before any path changes.  A failure removes the temporary
    files left and names the caller's path, not a temporary one."""
    staged = []  # (temporary file, path), not yet renamed
    try:
        for path, env in pairs:
            if os.path.isdir(path) and not os.path.islink(path):  # no rename can replace it
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(env, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
        while staged:
            tmp, path = staged[0]
            os.replace(tmp, path)
            staged.pop(0)
    except BaseException as exc:
        for tmp, _ in staged:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from None
        raise


def read_envelope(path, expect_kind: str) -> dict:
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
    if env["kind"] != expect_kind:
        unanchored = (expect_kind, env["kind"]) == ("ct-updated", "ct-original")
        remedy = "; run update-ct first" if unanchored else ""
        raise EnvelopeError(
            f"{path}: expected a {expect_kind} envelope, found {env['kind']!r}{remedy}"
        )
    return env


def check_params_hash(env: dict, phash: str, path="") -> None:
    if env["params_hash"] != phash:
        raise EnvelopeError(
            f"{path}: field 'params_hash' names parameter set {env['params_hash'][:12]}..., "
            f"not the loaded {phash[:12]}..."
        )


def check_backend(env: dict, backend: str, path="") -> None:
    if env["backend"] != backend:
        raise EnvelopeError(
            f"{path}: field 'backend' is {env['backend']!r}, not the loaded {backend!r}"
        )


# ---------------------------------------------------------------------------
# whole-state envelope for the CLI


def state_payload(pp, mk, state, rl, _unused=None) -> dict:
    # _unused was version 1's epoch counter; perfbench/workloads.py still passes it
    return {
        "pp": pp_payload(pp),
        "mk": mk_payload(mk),
        "tree": tree_payload(state),
        "rl": rl_payload(rl),
    }


def state_from_payload(data: dict):
    pp = pp_from_payload(_field(data, "pp", dict))
    mk = mk_from_payload(pp.ctx, _field(data, "mk", dict))
    tree = tree_from_payload(pp.ctx, _field(data, "tree", dict))
    rl = RevocationList()  # rebuilt through revoke, so each entry passes its checks
    for who, t in _field(_field(data, "rl", dict), "epochs", dict).items():
        _checked(revoke, tree, rl, who, _typed(t, int, "epochs"), pp.max_time, field="epochs")
    return pp, mk, tree, rl
