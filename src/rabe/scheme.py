"""The revocable key-policy ABE scheme.

Roles and artifacts:

* setup: public parameters, master key, user tree (a secret per node),
  empty revocation list.
* keygen: a per-user private key; one share vector of the node secret per
  tree node on the user's leaf path, blinded row-wise.
* update_key: the broadcast key update for an epoch, one component pair per
  cover node of the currently non-revoked users.
* derive_dk: private key + key update -> decryption key (None for a user
  revoked at that epoch, whose path misses the cover).
* encrypt: a ciphertext bound to an attribute set and an epoch; its epoch
  binding uses the truncated ciphertext encoding and ships one update
  component per zero position so the holder can move it forward in time.
* update_ct / fold_ciphertext: re-anchor a ciphertext to another epoch by
  folding the matching update components and re-randomizing everything.
* decrypt: recombine row shares along a satisfied policy and strip both the
  attribute and the epoch blinding.
* revoke: add an identity to the revocation list from an epoch onwards.

All group equations are stated against mirrored generator pairs: every
public generator exists in both source groups with the same exponent,
ciphertext components use side one, key components side two, so each
pairing in decrypt sees one element of each side.  The master exponent
alpha enters pp only through the blinding base e(g^alpha, g2), a target
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (InvalidNodeError, MissingComponentError, ParameterError, SideMismatchError,
                     UnknownIdentityError)
from .groups import (
    SIDE_ONE,
    SIDE_TWO,
    SIDE_TARGET,
    BilinearContext,
    GroupElement,
    Scalar,
)
from .policy import (
    AccessPolicy,
    check_attributes,
    reconstruction_coefficients,
    share_secret,
)
from .timecode import bit_width, check_epoch, ct_epoch_bits, epoch_bits, zero_positions
from .tree import RevocationList, TreeState, cover_nodes


@dataclass(frozen=True)
class MirroredPair:
    """The same unknown exponent under both source-group generators."""

    one: GroupElement
    two: GroupElement


def _mirror(ctx: BilinearContext, exponent: Scalar) -> MirroredPair:
    return MirroredPair(
        ctx.generator(SIDE_ONE) ** exponent,
        ctx.generator(SIDE_TWO) ** exponent,
    )


@dataclass
class PublicParams:
    ctx: BilinearContext
    max_time: int
    attr_max: int
    blind: GroupElement           # target side: e(g^alpha, g2), every message's blinding
    g2: MirroredPair
    t_gens: tuple[MirroredPair, ...]   # the interpolation anchors T_1..T_attr_max
    u0: MirroredPair
    u_gens: tuple[MirroredPair, ...]   # one per epoch bit position
    # a cache of values the fields above fix: not a constructor argument, so
    # dataclasses.replace starts it empty, nor part of equality
    _t_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.attr_max < 1:
            raise ParameterError(f"field 'attr_max' is {self.attr_max}, not at least 1")
        for name, count in ("t_gens", self.attr_max), ("u_gens", bit_width(self.max_time)):
            held = len(getattr(self, name))
            if held != count:
                raise ParameterError(f"field {name!r} holds {held} entries, not {count}")

    def eval_t(self, x: int, side: str) -> GroupElement:
        """The attribute generator T(x) = g2^(x^n) * prod T_i^(L_i(x)), L_i
        the Lagrange basis over the anchors 1..n.  Attributes lie in 1..n,
        each an anchor, where L_i(x) is 1 at i = x and 0 elsewhere; so this
        computes T(x) = g2^(x^n) * T_x, and refuses any x outside 1..n."""
        key = (side, x)
        cached = self._t_cache.get(key)
        if cached is not None:
            return cached
        if side not in (SIDE_ONE, SIDE_TWO):
            raise SideMismatchError("T(x) exists on the source sides only")
        check_attributes({x}, self.attr_max)
        # MirroredPair's fields are named after the sides
        g2, t_x = getattr(self.g2, side), getattr(self.t_gens[x - 1], side)
        value = g2 ** pow(x, self.attr_max, self.ctx.prime_order) * t_x
        self._t_cache[key] = value
        return value


@dataclass(frozen=True)
class MasterKey:
    alpha: Scalar


def _check_rows(name: str, rows, policy: AccessPolicy) -> None:
    if len(rows) != len(policy.rows):
        raise ParameterError(f"field {name!r} holds {len(rows)} rows, not {len(policy.rows)}")


def _naming(name: str, check, *args, **kwargs):
    """check(*args, **kwargs), its refusal a ParameterError naming the field.
    Each loaded artifact kind has one check(pp, tree) of the facts its maker
    guarantees and its invariants cannot see, against the claimed deployment."""
    try:
        return check(*args, **kwargs)
    except (ParameterError, InvalidNodeError, UnknownIdentityError) as exc:
        raise ParameterError(f"field {name!r}: {exc}") from None


def _holder_path(identity: str, tree: TreeState) -> list[int]:
    return _naming("identity", lambda: tree.path(tree.leaf_for(identity)))


@dataclass(frozen=True)
class PrivateKey:
    identity: str
    policy: AccessPolicy
    # node id -> one (k0, k1) pair per policy row
    parts: dict[int, tuple[tuple[GroupElement, GroupElement], ...]]

    def __post_init__(self):
        for rows in self.parts.values():
            _check_rows("parts", rows, self.policy)

    def check(self, pp: PublicParams, tree: TreeState) -> None:
        """Refuse a key keygen did not issue here: its parts must be exactly
        its holder's path from the root, or a part at another node would meet
        a key update's cover where keygen never issued it."""
        _naming("policy", check_attributes, self.policy.attributes(), pp.attr_max)
        nodes = _holder_path(self.identity, tree)
        if self.parts.keys() != set(nodes):
            raise ParameterError(f"field 'parts': nodes {sorted(self.parts)}, not the path "
                                 f"{nodes} of {self.identity!r}")


@dataclass(frozen=True)
class KeyUpdate:
    epoch: int
    # cover node id -> (d0, d1)
    parts: dict[int, tuple[GroupElement, GroupElement]]

    def check(self, pp: PublicParams, tree: TreeState) -> None:
        """Refuse an update whose parts name a node outside the tree or a node
        together with one of its ancestors: a cover's subtrees are disjoint."""
        _naming("epoch", check_epoch, self.epoch, pp.max_time)
        for node in self.parts:
            _naming("parts", tree.check_node, node)
            above = node // 2
            while above:
                if above in self.parts:
                    raise ParameterError(f"field 'parts': node {above} and its descendant {node}")
                above //= 2


@dataclass(frozen=True)
class DecryptionKey:
    identity: str
    epoch: int
    node: int
    policy: AccessPolicy
    rows: tuple[tuple[GroupElement, GroupElement], ...]
    d0: GroupElement
    d1: GroupElement

    def __post_init__(self):
        _check_rows("rows", self.rows, self.policy)

    def check(self, pp: PublicParams, tree: TreeState) -> None:
        """Refuse a key derive_dk did not make here: its node must lie on its
        holder's path, where the holder's key meets the update's cover."""
        _naming("policy", check_attributes, self.policy.attributes(), pp.attr_max)
        _naming("epoch", check_epoch, self.epoch, pp.max_time)
        nodes = _holder_path(self.identity, tree)
        if self.node not in nodes:
            raise ParameterError(f"field 'node': node {self.node} is not on the path {nodes} "
                                 f"of {self.identity!r}")


@dataclass(frozen=True)
class _Ciphertext:
    """The fields both ciphertext kinds share."""

    epoch: int
    c: GroupElement
    c1: GroupElement
    c2: dict[int, GroupElement]   # per attribute

    @property
    def attrs(self) -> frozenset[int]:
        """The attribute set, which c2's keys state."""
        return frozenset(self.c2)

    def check(self, pp: PublicParams, tree: TreeState) -> None:
        """Refuse attributes or an epoch encrypt refuses: epoch 0 encodes like
        any other, and a matching pair past the range decrypts unnoticed."""
        _naming("c2", check_attributes, self.attrs, pp.attr_max)
        _naming("epoch", check_epoch, self.epoch, pp.max_time)


@dataclass(frozen=True)
class OriginalCiphertext(_Ciphertext):
    e1: GroupElement
    e2: dict[int, GroupElement]   # per zero position of the ct encoding

    def check(self, pp: PublicParams, tree: TreeState) -> None:
        """Also refuse update slots that are not the zero positions of the
        epoch's ciphertext encoding, as encrypt makes them: folding reads only
        the slots the target epoch needs, so it would miss any other."""
        super().check(pp, tree)
        slots = zero_positions(ct_epoch_bits(self.epoch, pp.max_time))
        if self.e2.keys() != slots:
            raise ParameterError(f"field 'e2': slots {sorted(self.e2)}, not {sorted(slots)}, "
                                 f"the zero positions of epoch {self.epoch}")


@dataclass(frozen=True)
class UpdatedCiphertext(_Ciphertext):
    e_t: GroupElement


# the most users setup takes: its tree holds 2^17 - 1 node secrets
MAX_USERS = 1 << 16


def check_sizes(n_users: int, max_time: int, attr_max: int) -> int:
    """The sizes setup takes, refused before any draw; returns the epoch
    bit width tau."""
    tau = bit_width(max_time)
    if n_users < 1:
        raise ParameterError(f"n_users is {n_users}, not at least 1")
    if n_users > MAX_USERS:  # before the 2 capacity - 1 node secrets are drawn
        raise ParameterError(f"n_users is {n_users}, above the cap of {MAX_USERS}")
    if attr_max < 1:
        raise ParameterError(f"'attr_max' is {attr_max}, not at least 1")
    return tau


def setup(
    ctx: BilinearContext,
    n_users: int,
    max_time: int,
    attr_max: int,
    rng,
) -> tuple[PublicParams, MasterKey, TreeState, RevocationList]:
    tau = check_sizes(n_users, max_time, attr_max)
    alpha = ctx.random_scalar(rng)
    beta = ctx.random_scalar(rng)
    t_gens = tuple(_mirror(ctx, ctx.random_scalar(rng)) for _ in range(attr_max))
    pp = PublicParams(
        ctx=ctx,
        max_time=max_time,
        attr_max=attr_max,
        # e(g^alpha, g~^beta) = e(g, g~)^(alpha beta): one target-group power,
        # not a pairing; pp keeps the element, never the exponent
        blind=ctx.generator(SIDE_TARGET) ** (alpha.value * beta.value),
        g2=_mirror(ctx, beta),
        t_gens=t_gens,
        u0=_mirror(ctx, ctx.random_scalar(rng)),
        u_gens=tuple(_mirror(ctx, ctx.random_scalar(rng)) for _ in range(tau)),
    )
    capacity = 1
    while capacity < n_users:
        capacity *= 2
    secrets = {node: ctx.random_scalar(rng) for node in range(1, 2 * capacity)}
    return pp, MasterKey(alpha), TreeState(capacity, secrets), RevocationList()


def keygen(
    pp: PublicParams,
    mk: MasterKey,
    state: TreeState,
    identity: str,
    policy: AccessPolicy,
    rng,
) -> PrivateKey:
    check_attributes(policy.attributes(), pp.attr_max)
    p = pp.ctx.prime_order
    n = pp.attr_max
    leaf = state.assign_leaf(identity)
    parts = {}
    for node in state.path(leaf):
        shares = share_secret(policy, state.node_secrets[node].value, p, rng)
        rows = []
        for attr, lam in zip(policy.row_attrs, shares):
            r = pp.ctx.random_scalar(rng)
            # g2^lam * T(attr)^r, with T(attr)'s g2 power folded into lam's
            k0 = pp.g2.two ** (lam + pow(attr, n, p) * r.value) * pp.t_gens[attr - 1].two ** r
            k1 = pp.ctx.generator(SIDE_TWO) ** r
            rows.append((k0, k1))
        parts[node] = tuple(rows)
    return PrivateKey(identity=identity, policy=policy, parts=parts)


def update_key(
    pp: PublicParams,
    mk: MasterKey,
    state: TreeState,
    rl: RevocationList,
    epoch: int,
    rng,
) -> KeyUpdate:
    positions = sorted(zero_positions(epoch_bits(epoch, pp.max_time)))
    base = pp.u0.two
    for j in positions:
        base = base * pp.u_gens[j - 1].two
    parts = {}
    for node in sorted(cover_nodes(state, rl, epoch)):
        r = pp.ctx.random_scalar(rng)
        d0 = pp.g2.two ** (mk.alpha.value - state.node_secrets[node].value) * base ** r
        d1 = pp.ctx.generator(SIDE_TWO) ** r
        parts[node] = (d0, d1)
    return KeyUpdate(epoch=epoch, parts=parts)


def derive_dk(sk: PrivateKey, ku: KeyUpdate) -> DecryptionKey | None:
    """None when the user is revoked at the update's epoch."""
    common = sk.parts.keys() & ku.parts.keys()
    if not common:
        return None
    # the path meets the cover in at most one node by construction
    if len(common) != 1:
        raise ParameterError(f"path meets cover in {len(common)} nodes; corrupt artifacts")
    node = common.pop()
    d0, d1 = ku.parts[node]
    return DecryptionKey(
        identity=sk.identity,
        epoch=ku.epoch,
        node=node,
        policy=sk.policy,
        rows=sk.parts[node],
        d0=d0,
        d1=d1,
    )


def encrypt(
    pp: PublicParams,
    attrs,
    epoch: int,
    message: GroupElement,
    rng,
) -> OriginalCiphertext:
    attrs = check_attributes(attrs, pp.attr_max)
    if message.side != SIDE_TARGET or message.ctx.group_id != pp.ctx.group_id:
        raise SideMismatchError("messages are target-group elements of this context")
    s = pp.ctx.random_scalar(rng)
    positions = sorted(zero_positions(ct_epoch_bits(epoch, pp.max_time)))
    return OriginalCiphertext(
        epoch=epoch,
        c=pp.blind ** s * message,
        c1=pp.ctx.generator(SIDE_ONE) ** s,
        c2={x: pp.eval_t(x, SIDE_ONE) ** s for x in sorted(attrs)},
        e1=pp.u0.one ** s,
        e2={j: pp.u_gens[j - 1].one ** s for j in positions},
    )


def fold_ciphertext(
    pp: PublicParams,
    ct: OriginalCiphertext,
    epoch: int,
    rng,
) -> UpdatedCiphertext:
    """Anchor an original ciphertext to a concrete epoch.

    Folds the update components at the target epoch's exact-encoding zero
    positions into the single slot value, then re-randomizes every
    component with fresh randomness.  Performs no direction check: the only
    requirement is that the needed components exist, i.e. the target's zero
    positions are covered by the ciphertext's.  update_ct enforces the
    forward-only rule on top of this; the attack harness deliberately does
    not.
    """
    positions = sorted(zero_positions(epoch_bits(epoch, pp.max_time)))
    missing = [j for j in positions if j not in ct.e2]
    if missing:
        raise MissingComponentError(
            f"ciphertext at epoch {ct.epoch} lacks update components {missing} "
            f"needed for epoch {epoch}"
        )
    folded = ct.e1
    base = pp.u0.one
    for j in positions:
        folded = folded * ct.e2[j]
        base = base * pp.u_gens[j - 1].one
    s2 = pp.ctx.random_scalar(rng)
    return UpdatedCiphertext(
        epoch=epoch,
        c=ct.c * pp.blind ** s2,
        c1=ct.c1 * pp.ctx.generator(SIDE_ONE) ** s2,
        c2={x: v * pp.eval_t(x, SIDE_ONE) ** s2 for x, v in ct.c2.items()},
        e_t=folded * base ** s2,
    )


def update_ct(
    pp: PublicParams,
    ct: OriginalCiphertext,
    epoch: int,
    rng,
) -> UpdatedCiphertext | None:
    """Forward-only public ciphertext update; None when asked to go back."""
    check_epoch(epoch, pp.max_time)
    if epoch < ct.epoch:
        return None
    return fold_ciphertext(pp, ct, epoch, rng)


def decrypt(pp: PublicParams, ct: UpdatedCiphertext, dk: DecryptionKey) -> GroupElement:
    """Recover the message; the result is well-defined garbage when the
    key's epoch does not match the ciphertext's (no oracle here)."""
    w = reconstruction_coefficients(dk.policy, ct.attrs, pp.ctx.prime_order)
    # A1 = prod_i (e(c1, k0_i) / e(c2[rho(i)], k1_i))^(w_i) collapses into
    # the product below by moving each w_i inside the pairing; A2 =
    # e(c1, d0) / e(e_t, d1).  One shared final exponentiation.
    key_side = dk.d0
    pairs = [(ct.e_t.inverse(), dk.d1)]
    for i, w_i in w.items():
        k0, k1 = dk.rows[i]
        key_side = key_side * k0 ** w_i
        pairs.append(((ct.c2[dk.policy.row_attrs[i]] ** w_i).inverse(), k1))
    pairs.append((ct.c1, key_side))
    return ct.c / pp.ctx.pair_product(pairs)


def revoke(
    state: TreeState,
    rl: RevocationList,
    identity: str,
    epoch: int,
    max_time: int,
) -> None:
    state.leaf_for(identity)  # unknown identities are an error
    rl.add(identity, epoch, max_time)
