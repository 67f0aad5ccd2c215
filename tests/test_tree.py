from itertools import combinations

import pytest

from rabe.errors import (
    CapacityError,
    EpochRangeError,
    InvalidNodeError,
    ParameterError,
    UnknownIdentityError,
)
from rabe.groups import TRANSPARENT_MODULUS, Scalar
from rabe.tree import RevocationList, TreeState, cover_nodes


def secrets(capacity: int) -> dict[int, Scalar]:
    """A secret for every node of a tree of this capacity."""
    return {node: Scalar(node, TRANSPARENT_MODULUS) for node in range(1, 2 * capacity)}


def tree(capacity: int, **kwargs) -> TreeState:
    return TreeState(capacity, secrets(capacity), **kwargs)


def subtree_leaves(node: int, capacity: int) -> set[int]:
    nodes = {node}
    while min(nodes) < capacity:
        nodes = {c for n in nodes for c in ((2 * n, 2 * n + 1) if n < capacity else (n,))}
    return nodes


def test_capacity_must_be_power_of_two():
    tree(1)
    tree(8)
    for bad in (0, 3, 6, -4):
        with pytest.raises(ParameterError, match="'capacity'"):
            TreeState(bad, {})


def test_identities_sit_on_distinct_leaves():
    tree(4, leaf_of={"a": 4, "b": 7})
    with pytest.raises(ParameterError, match="'leaves': 'b' sits at 3, not at a leaf"):
        tree(4, leaf_of={"a": 4, "b": 3})
    with pytest.raises(ParameterError, match="'leaves': 'b' sits at 8, not at a leaf"):
        tree(4, leaf_of={"a": 4, "b": 8})
    with pytest.raises(ParameterError, match="two identities on one leaf"):
        tree(4, leaf_of={"a": 5, "b": 5})


def test_leaf_assignment_is_leftmost_and_idempotent():
    state = tree(4)
    assert state.assign_leaf("a") == 4
    assert state.assign_leaf("b") == 5
    assert state.assign_leaf("a") == 4
    assert state.leaf_for("b") == 5
    with pytest.raises(UnknownIdentityError):
        state.leaf_for("nobody")
    state.assign_leaf("c")
    state.assign_leaf("d")
    with pytest.raises(CapacityError):
        state.assign_leaf("e")


def test_path_runs_root_to_leaf():
    state = tree(8)
    assert state.path(11) == [1, 2, 5, 11]
    assert state.path(8) == [1, 2, 4, 8]
    with pytest.raises(InvalidNodeError):
        state.path(3)  # internal node
    with pytest.raises(InvalidNodeError):
        state.path(16)
    with pytest.raises(InvalidNodeError):
        state.check_node(0)


def test_secrets_are_exactly_the_nodes():
    """A secret for each node 1..2*capacity-1: none missing, none past
    either end, even where the count is right."""
    full = secrets(4)
    assert TreeState(4, full).node_secrets == full
    one = full[1]
    for bad in ({}, {n: s for n, s in full.items() if n != 7}, {**full, 8: one},
                {**{n: s for n, s in full.items() if n != 7}, 0: one},
                {**{n: s for n, s in full.items() if n != 1}, 8: one}):
        with pytest.raises(ParameterError, match="'secrets' must hold the nodes 1..7, each once"):
            TreeState(4, bad)


def test_revocation_list_keeps_earliest_epoch():
    rl = RevocationList()
    rl.add("u", 9, 16)
    rl.add("u", 12, 16)
    assert rl.epochs["u"] == 9
    rl.add("u", 4, 16)
    assert rl.epochs["u"] == 4
    assert not rl.revoked_at("u", 3)
    assert rl.revoked_at("u", 4)
    assert rl.revoked_at("u", 15)
    assert not rl.revoked_at("other", 15)
    with pytest.raises(EpochRangeError):
        rl.add("u", 0, 16)
    with pytest.raises(EpochRangeError):
        rl.add("u", 16, 16)


def test_cover_extremes():
    state = tree(8)
    ids = [f"u{i}" for i in range(8)]
    for identity in ids:
        state.assign_leaf(identity)
    rl = RevocationList()
    assert cover_nodes(state, rl, 5) == {1}
    for identity in ids:
        rl.add(identity, 2, 16)
    assert cover_nodes(state, rl, 5) == set()
    assert cover_nodes(state, rl, 1) == {1}  # before any revocation bites


def test_cover_exhaustive_over_all_revocation_subsets():
    """Every subset of 8 users: the cover partitions exactly the live leaves."""
    state = tree(8)
    ids = [f"u{i}" for i in range(8)]
    leaves = {identity: state.assign_leaf(identity) for identity in ids}
    for r in range(9):
        for revoked in combinations(ids, r):
            rl = RevocationList()
            for identity in revoked:
                rl.add(identity, 3, 16)
            cover = cover_nodes(state, rl, 7)
            covered = set()
            for node in cover:
                part = subtree_leaves(node, 8)
                assert not (part & covered), "cover nodes overlap"
                covered |= part
            live = {leaves[i] for i in ids if i not in revoked}
            assert covered == live
            # minimality: sibling cover nodes would have been merged
            for node in cover:
                assert node == 1 or (node ^ 1) not in cover


def test_path_meets_cover_exactly_once_for_live_users():
    state = tree(8)
    ids = [f"u{i}" for i in range(8)]
    for identity in ids:
        state.assign_leaf(identity)
    for r in range(9):
        for revoked in combinations(ids, r):
            rl = RevocationList()
            for identity in revoked:
                rl.add(identity, 3, 16)
            cover = cover_nodes(state, rl, 7)
            for identity in ids:
                hits = [n for n in state.path(state.leaf_for(identity)) if n in cover]
                assert len(hits) == (0 if identity in revoked else 1)
