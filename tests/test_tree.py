from itertools import combinations

import pytest

from rabe.errors import (
    CapacityError,
    EpochRangeError,
    InvalidNodeError,
    ParameterError,
    UnknownIdentityError,
)
from rabe.groups import TRANSPARENT, new_context
from rabe.rng import SeededRng
from rabe.tree import RevocationList, TreeState, cover_nodes


def subtree_leaves(node: int, capacity: int) -> set[int]:
    nodes = {node}
    while min(nodes) < capacity:
        nodes = {c for n in nodes for c in ((2 * n, 2 * n + 1) if n < capacity else (n,))}
    return nodes


def test_capacity_must_be_power_of_two():
    TreeState(capacity=1)
    TreeState(capacity=8)
    for bad in (0, 3, 6, -4):
        with pytest.raises(ParameterError):
            TreeState(capacity=bad)


def test_identities_sit_on_distinct_leaves():
    TreeState(capacity=4, leaf_of={"a": 4, "b": 7})
    with pytest.raises(ParameterError, match="'leaves': 'b' sits at 3, not at a leaf"):
        TreeState(capacity=4, leaf_of={"a": 4, "b": 3})
    with pytest.raises(ParameterError, match="'leaves': 'b' sits at 8, not at a leaf"):
        TreeState(capacity=4, leaf_of={"a": 4, "b": 8})
    with pytest.raises(ParameterError, match="two identities on one leaf"):
        TreeState(capacity=4, leaf_of={"a": 5, "b": 5})


def test_leaf_assignment_is_leftmost_and_idempotent():
    state = TreeState(capacity=4)
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
    state = TreeState(capacity=8)
    assert state.path(11) == [1, 2, 5, 11]
    assert state.path(8) == [1, 2, 4, 8]
    with pytest.raises(InvalidNodeError):
        state.path(3)  # internal node
    with pytest.raises(InvalidNodeError):
        state.path(16)
    with pytest.raises(InvalidNodeError):
        state.check_node(0)


def test_node_secrets_are_cached():
    ctx = new_context(TRANSPARENT)
    state = TreeState(capacity=4)
    rng = SeededRng("secrets")
    s1 = state.get_or_create_secret(3, ctx, rng)
    assert state.get_or_create_secret(3, ctx, rng) is s1
    assert int(state.get_or_create_secret(2, ctx, rng)) != int(s1)


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
    state = TreeState(capacity=8)
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
    state = TreeState(capacity=8)
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
    state = TreeState(capacity=8)
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
