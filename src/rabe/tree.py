"""Complete-subtree revocation over a binary user tree.

Nodes are numbered heap-style: root 1, children of k are 2k and 2k+1,
leaves occupy [capacity, 2*capacity).  Each user owns one leaf; each node
carries a secret, drawn at setup.  A key update for epoch t is published for
the cover set: the minimal set of nodes whose subtrees contain exactly the
leaves not revoked at t.  A non-revoked user's leaf path meets the cover in
exactly one node; a revoked user's path misses it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityError, InvalidNodeError, ParameterError, UnknownIdentityError
from .groups import Scalar
from .timecode import check_epoch


@dataclass
class TreeState:
    """User tree: leaf assignments plus a secret for every node."""

    capacity: int
    node_secrets: dict[int, Scalar]
    leaf_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.capacity < 1 or self.capacity & (self.capacity - 1) != 0:
            raise ParameterError(f"field 'capacity' must be a power of two, got {self.capacity}")
        nodes = 2 * self.capacity - 1
        if len(self.node_secrets) != nodes or not all(1 <= n <= nodes for n in self.node_secrets):
            raise ParameterError(f"field 'secrets' must hold the nodes 1..{nodes}, each once")
        for identity, leaf in self.leaf_of.items():
            if not self.capacity <= leaf < 2 * self.capacity:
                raise ParameterError(f"field 'leaves': {identity!r} sits at {leaf}, not at a leaf")
        if len(set(self.leaf_of.values())) != len(self.leaf_of):
            raise ParameterError("field 'leaves' puts two identities on one leaf")

    def check_node(self, node: int) -> None:
        if not 1 <= node < 2 * self.capacity:
            raise InvalidNodeError(f"node {node} outside tree of capacity {self.capacity}")

    def is_leaf(self, node: int) -> bool:
        self.check_node(node)
        return node >= self.capacity

    def assign_leaf(self, identity: str) -> int:
        """Leftmost free leaf; idempotent per identity."""
        if identity in self.leaf_of:
            return self.leaf_of[identity]
        used = set(self.leaf_of.values())
        for leaf in range(self.capacity, 2 * self.capacity):
            if leaf not in used:
                self.leaf_of[identity] = leaf
                return leaf
        raise CapacityError(f"all {self.capacity} leaves assigned")

    def leaf_for(self, identity: str) -> int:
        try:
            return self.leaf_of[identity]
        except KeyError:
            raise UnknownIdentityError(f"identity {identity!r} has no leaf") from None

    def path(self, leaf: int) -> list[int]:
        """Node ids from the root down to the leaf, inclusive."""
        if not self.is_leaf(leaf):
            raise InvalidNodeError(f"node {leaf} is not a leaf")
        nodes = []
        node = leaf
        while node >= 1:
            nodes.append(node)
            node //= 2
        return nodes[::-1]


@dataclass
class RevocationList:
    """identity -> first revocation epoch (re-revoking keeps the earliest)."""

    epochs: dict[str, int] = field(default_factory=dict)

    def add(self, identity: str, epoch: int, max_time: int) -> None:
        check_epoch(epoch, max_time)
        self.epochs[identity] = min(epoch, self.epochs.get(identity, epoch))

    def revoked_at(self, identity: str, epoch: int) -> bool:
        first = self.epochs.get(identity)
        return first is not None and first <= epoch


def cover_nodes(state: TreeState, rl: RevocationList, epoch: int) -> set[int]:
    """Minimal cover of the non-revoked leaves at the given epoch.

    {root} when nothing is revoked, empty when everything is.
    """
    revoked_leaves = {
        leaf for identity, leaf in state.leaf_of.items() if rl.revoked_at(identity, epoch)
    }
    if not revoked_leaves:
        return {1}
    marked: set[int] = set()
    for leaf in revoked_leaves:
        node = leaf
        while node >= 1:
            marked.add(node)
            node //= 2
    cover = set()
    for node in marked:
        if state.is_leaf(node):
            continue
        for child in (2 * node, 2 * node + 1):
            if child not in marked:
                cover.add(child)
    return cover
