"""Revocable key-policy attribute-based encryption with epoch-bound
ciphertexts, the backdating attack that defeats its revocation, and the
indistinguishability game harness that measures the attack.

Quick tour:

    >>> from rabe import *
    >>> from rabe.rng import SeededRng
    >>> ctx = new_context("transparent")
    >>> rng = SeededRng(1)
    >>> pp, mk, tree, rl = setup(ctx, n_users=8, max_time=32, attr_max=4, rng=rng)
    >>> sk = keygen(pp, mk, tree, "alice", parse_policy("1 AND 2"), rng)
    >>> m = ctx.random_element("target", rng)
    >>> ct = encrypt(pp, {1, 2}, 7, m, rng)
    >>> ku = update_key(pp, mk, tree, rl, 7, rng)
    >>> dk = derive_dk(sk, ku)
    >>> decrypt(pp, update_ct(pp, ct, 7, rng), dk) == m
    True

The attack in one line: fold_ciphertext (via game.backdate_ciphertext)
moves that ciphertext *backwards* to any epoch whose update slots it
carries, undoing revocation; see game.BackdateAdversary for the full
five-step version.
"""

from .errors import (
    BackendMismatchError,
    CapacityError,
    EnvelopeError,
    EpochRangeError,
    InvalidNodeError,
    MissingComponentError,
    ParameterError,
    PolicyParseError,
    RabeError,
    SideMismatchError,
    UnknownIdentityError,
    UnsatisfiedPolicyError,
)
from .game import (
    BackdateAdversary,
    GameTranscript,
    NullAdversary,
    advantage_report,
    backdate_ciphertext,
    challenger_run,
    run_game_trials,
    validate_transcript,
)
from .groups import (
    REAL,
    SIDE_ONE,
    SIDE_TARGET,
    SIDE_TWO,
    TRANSPARENT,
    BilinearContext,
    GroupElement,
    Scalar,
    new_context,
)
from .policy import AccessPolicy, parse_policy
from .scheme import (
    DecryptionKey,
    KeyUpdate,
    MasterKey,
    OriginalCiphertext,
    PrivateKey,
    PublicParams,
    UpdatedCiphertext,
    decrypt,
    derive_dk,
    encrypt,
    fold_ciphertext,
    keygen,
    revoke,
    setup,
    update_ct,
    update_key,
)
from .timecode import backdatable_epochs, ct_epoch_bits, epoch_bits, zero_positions
from .tree import RevocationList, TreeState, cover_nodes

__version__ = "0.1.0"

__all__ = [
    "AccessPolicy",
    "BackdateAdversary",
    "BackendMismatchError",
    "BilinearContext",
    "CapacityError",
    "DecryptionKey",
    "EnvelopeError",
    "EpochRangeError",
    "GameTranscript",
    "GroupElement",
    "InvalidNodeError",
    "KeyUpdate",
    "MasterKey",
    "MissingComponentError",
    "NullAdversary",
    "OriginalCiphertext",
    "ParameterError",
    "PolicyParseError",
    "PrivateKey",
    "PublicParams",
    "RabeError",
    "REAL",
    "RevocationList",
    "Scalar",
    "SIDE_ONE",
    "SIDE_TARGET",
    "SIDE_TWO",
    "TRANSPARENT",
    "TreeState",
    "UnknownIdentityError",
    "UnsatisfiedPolicyError",
    "UpdatedCiphertext",
    "advantage_report",
    "backdatable_epochs",
    "backdate_ciphertext",
    "challenger_run",
    "cover_nodes",
    "ct_epoch_bits",
    "decrypt",
    "derive_dk",
    "encrypt",
    "epoch_bits",
    "fold_ciphertext",
    "keygen",
    "new_context",
    "parse_policy",
    "revoke",
    "run_game_trials",
    "setup",
    "update_ct",
    "update_key",
    "validate_transcript",
    "zero_positions",
]
