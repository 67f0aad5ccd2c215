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

from .errors import EnvelopeError
from .groups import (
    REAL,
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


def _unb64(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise EnvelopeError(f"bad base64 payload: {exc}") from None


def _el(element: GroupElement) -> str:
    return _b64(element.encode())


def _unel(ctx: BilinearContext, text: str) -> GroupElement:
    return ctx.decode_element(_unb64(text))


def _sc(scalar: Scalar) -> str:
    return _b64(scalar.encode())


def _unsc(ctx: BilinearContext, text: str) -> Scalar:
    return ctx.decode_scalar(_unb64(text))


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
    backend = data.get("backend")
    if backend == TRANSPARENT:
        modulus = data.get("modulus")
        if not isinstance(modulus, int) or not _is_probable_prime(modulus):
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


def _pair_from(ctx, data) -> MirroredPair:
    return MirroredPair(one=_unel(ctx, data["one"]), two=_unel(ctx, data["two"]))


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
    ctx = context_from_payload(data["group"])
    pp = PublicParams(
        ctx=ctx,
        n_users=data["n_users"],
        max_time=data["max_time"],
        attr_max=data["attr_max"],
        g1=_unel(ctx, data["g1"]),
        g2=_pair_from(ctx, data["g2"]),
        t_gens=tuple(_pair_from(ctx, t) for t in data["t_gens"]),
        u0=_pair_from(ctx, data["u0"]),
        u_gens=tuple(_pair_from(ctx, u) for u in data["u_gens"]),
    )
    if len(pp.t_gens) != pp.attr_max + 1 or len(pp.u_gens) != pp.tau:
        raise EnvelopeError("generator counts do not match the stated parameters")
    return pp


def mk_payload(mk: MasterKey) -> dict:
    return {"alpha": _sc(mk.alpha)}


def mk_from_payload(ctx, data) -> MasterKey:
    return MasterKey(alpha=_unsc(ctx, data["alpha"]))


def policy_payload(policy: AccessPolicy) -> dict:
    return {
        "formula": policy.formula,
        "matrix": [list(row) for row in policy.rows],
        "row_attrs": list(policy.row_attrs),
    }


def policy_from_payload(data: dict) -> AccessPolicy:
    policy = parse_policy(data["formula"])
    if [list(r) for r in policy.rows] != data["matrix"] or list(policy.row_attrs) != data["row_attrs"]:
        raise EnvelopeError("policy matrix does not match its formula")
    return policy


def sk_payload(sk: PrivateKey) -> dict:
    return {
        "identity": sk.identity,
        "policy": policy_payload(sk.policy),
        "parts": {
            str(node): [[_el(k0), _el(k1)] for k0, k1 in rows]
            for node, rows in sorted(sk.parts.items())
        },
    }


def sk_from_payload(ctx, data) -> PrivateKey:
    return PrivateKey(
        identity=data["identity"],
        policy=policy_from_payload(data["policy"]),
        parts={
            int(node): tuple((_unel(ctx, k0), _unel(ctx, k1)) for k0, k1 in rows)
            for node, rows in data["parts"].items()
        },
    )


def ku_payload(ku: KeyUpdate) -> dict:
    return {
        "epoch": ku.epoch,
        "parts": {
            str(node): [_el(d0), _el(d1)] for node, (d0, d1) in sorted(ku.parts.items())
        },
    }


def ku_from_payload(ctx, data) -> KeyUpdate:
    return KeyUpdate(
        epoch=data["epoch"],
        parts={
            int(node): (_unel(ctx, d0), _unel(ctx, d1))
            for node, (d0, d1) in data["parts"].items()
        },
    )


def dk_payload(dk: DecryptionKey) -> dict:
    return {
        "identity": dk.identity,
        "epoch": dk.epoch,
        "node": dk.node,
        "policy": policy_payload(dk.policy),
        "rows": [[_el(k0), _el(k1)] for k0, k1 in dk.rows],
        "d0": _el(dk.d0),
        "d1": _el(dk.d1),
    }


def dk_from_payload(ctx, data) -> DecryptionKey:
    return DecryptionKey(
        identity=data["identity"],
        epoch=data["epoch"],
        node=data["node"],
        policy=policy_from_payload(data["policy"]),
        rows=tuple((_unel(ctx, k0), _unel(ctx, k1)) for k0, k1 in data["rows"]),
        d0=_unel(ctx, data["d0"]),
        d1=_unel(ctx, data["d1"]),
    )


def ct_original_payload(ct: OriginalCiphertext) -> dict:
    return {
        "attrs": sorted(ct.attrs),
        "epoch": ct.epoch,
        "c": _el(ct.c),
        "c1": _el(ct.c1),
        "c2": {str(x): _el(v) for x, v in sorted(ct.c2.items())},
        "e1": _el(ct.e1),
        "e2": {str(j): _el(v) for j, v in sorted(ct.e2.items())},
    }


def ct_original_from_payload(ctx, data) -> OriginalCiphertext:
    return OriginalCiphertext(
        attrs=frozenset(data["attrs"]),
        epoch=data["epoch"],
        c=_unel(ctx, data["c"]),
        c1=_unel(ctx, data["c1"]),
        c2={int(x): _unel(ctx, v) for x, v in data["c2"].items()},
        e1=_unel(ctx, data["e1"]),
        e2={int(j): _unel(ctx, v) for j, v in data["e2"].items()},
    )


def ct_updated_payload(ct: UpdatedCiphertext) -> dict:
    return {
        "attrs": sorted(ct.attrs),
        "epoch": ct.epoch,
        "c": _el(ct.c),
        "c1": _el(ct.c1),
        "c2": {str(x): _el(v) for x, v in sorted(ct.c2.items())},
        "e_t": _el(ct.e_t),
    }


def ct_updated_from_payload(ctx, data) -> UpdatedCiphertext:
    return UpdatedCiphertext(
        attrs=frozenset(data["attrs"]),
        epoch=data["epoch"],
        c=_unel(ctx, data["c"]),
        c1=_unel(ctx, data["c1"]),
        c2={int(x): _unel(ctx, v) for x, v in data["c2"].items()},
        e_t=_unel(ctx, data["e_t"]),
    )


def msg_payload(message: GroupElement) -> dict:
    return {"value": _el(message)}


def msg_from_payload(ctx, data) -> GroupElement:
    return _unel(ctx, data["value"])


def tree_payload(state: TreeState) -> dict:
    return {
        "capacity": state.capacity,
        "secrets": {str(node): _sc(s) for node, s in sorted(state.node_secrets.items())},
        "leaves": dict(sorted(state.leaf_of.items())),
    }


def tree_from_payload(ctx, data) -> TreeState:
    state = TreeState(capacity=data["capacity"])
    state.node_secrets = {int(n): _unsc(ctx, s) for n, s in data["secrets"].items()}
    state.leaf_of = dict(data["leaves"])
    return state


def rl_payload(rl: RevocationList) -> dict:
    return {"epochs": dict(sorted(rl.epochs.items()))}


def rl_from_payload(data) -> RevocationList:
    return RevocationList(epochs=dict(data["epochs"]))


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
        except json.JSONDecodeError as exc:
            raise EnvelopeError(f"{path}: not valid JSON ({exc})") from None
    for field in ("kind", "version", "backend", "params_hash", "payload"):
        if field not in env:
            raise EnvelopeError(f"{path}: missing envelope field {field!r}")
    if env["version"] != VERSION:
        raise EnvelopeError(f"{path}: unsupported envelope version {env['version']}")
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
    pp = pp_from_payload(data["pp"])
    ctx = pp.ctx
    return (
        pp,
        mk_from_payload(ctx, data["mk"]),
        tree_from_payload(ctx, data["tree"]),
        rl_from_payload(data["rl"]),
        data["epoch_counter"],
    )
