"""Tree-formed verification data registers, emulated.

Protected registers root Merkle trees kept in a stored measurement log;
on top sit verified node load/update/quote commands and a subtree
certification protocol between a platform, a certification authority,
and a validator.
"""

from .crypto import (
    NIL,
    SHA1,
    SHA256,
    Digest,
    HashConfig,
    SigningKey,
    VerifyingKey,
    parse_digest,
    sign,
    verify,
)
from .engine import (
    BindingViolation,
    InsufficientRegisters,
    NodeVerifyBreach,
    Quote,
    RegisterState,
    StateViolation,
    TpmError,
    TreeComplete,
    TreeTpm,
    refold_reduced_quote,
    verify_quote,
)
from .platform import Platform
from .tree import (
    NodeRef,
    SmlDocument,
    SmlTree,
    build_reduced_tree,
    build_trace,
    extract_subtree,
    find_inconsistency,
    fold_to_root,
    leaf_interval,
    leq,
    leq_sets,
    parse_sml,
    recompute_root,
    reduced_coords,
    serialize_sml,
    sibling_coord,
    trace_coords,
)

__version__ = "0.1.0"

__all__ = [
    "NIL",
    "SHA1",
    "SHA256",
    "BindingViolation",
    "Digest",
    "HashConfig",
    "InsufficientRegisters",
    "NodeRef",
    "NodeVerifyBreach",
    "Platform",
    "Quote",
    "RegisterState",
    "SigningKey",
    "SmlDocument",
    "SmlTree",
    "StateViolation",
    "TpmError",
    "TreeComplete",
    "TreeTpm",
    "VerifyingKey",
    "build_reduced_tree",
    "build_trace",
    "extract_subtree",
    "find_inconsistency",
    "fold_to_root",
    "leaf_interval",
    "leq",
    "leq_sets",
    "parse_digest",
    "parse_sml",
    "recompute_root",
    "reduced_coords",
    "refold_reduced_quote",
    "serialize_sml",
    "sibling_coord",
    "sign",
    "trace_coords",
    "verify",
    "verify_quote",
]
