"""The trusted software stack side of the device.

A Platform owns one measurement tree and builds the device that holds its
protected root (a fresh ``TreeTpm``, also when restoring a snapshot); the
device closes the tree when its last leaf is extended. The platform mirrors
the log, applies the node deltas returned by tree commands, and speaks for
the device in the certification protocol (it holds the attestation
identity key). It talks to the device's raw commands (``*_raw``) both ways:
its reads go through ``tree.read_path`` into the raw cores, and an extend
or a verified update writes the raw path the device returns with one
``SmlTree.set_path``. No public ``NodeRef`` or ``Digest`` is built per path
node, and the device checks every value the mirror hands it, since the
mirror is untrusted state. Each read and write holds the device's lock
from its first mirror access to its last, so concurrent callers see the
mirror and the root register change together. The platform keeps the uid
of the tree it seated, and each call that acts through ``root_reg`` first
checks, under the lock and before any device command, that the register
still roots that tree (``StateViolation`` if not).
"""

from __future__ import annotations

from .crypto import NIL, Digest, HashConfig, SHA1, SigningKey, as_digest
from .engine import (
    NodeVerifyBreach,
    Quote,
    RegisterState,
    StateViolation,
    TreeTpm,
    UpdateResult,
)
from .tree import (
    NodeRef,
    ReducedTree,
    SmlDocument,
    SmlTree,
    Trace,
    build_reduced_tree,
    build_trace,
    read_path,
)


class Platform:
    """One measurement tree: protected root in the device, mirror here."""

    def __init__(
        self,
        depth: int,
        config: HashConfig = SHA1,
        register_count: int = 24,
        aik: SigningKey | None = None,
        aik_cert=None,
    ) -> None:
        self.engine = TreeTpm(register_count, config)
        self.config = config
        self.root_reg = self.engine.create_tree(depth)
        self._tree_uid = self.engine.rooted_tree(self.root_reg)
        self.tree = SmlTree(depth, config, root_register=self.root_reg)
        self.aik = aik or SigningKey.generate()
        self.aik_cert = aik_cert

    # -- measurement -------------------------------------------------------

    def _root_reg(self) -> int:
        """``root_reg``, once it is seen to root this platform's tree still; call
        under the device lock, before any device command."""
        reg = self.root_reg
        if self.engine.rooted_tree(reg) != self._tree_uid:
            raise StateViolation(f"register {reg} no longer roots this platform's tree")
        return reg

    def extend(self, measurement: Digest) -> Digest:
        """Feed one measurement to the device and mirror the returned delta."""
        with self.engine._lock:
            reg = self._root_reg()
            index, path, _ = self.engine.tree_extend_raw(reg, measurement.value)
            self.tree.set_path(self.tree.depth, index, path)
            self.tree.leaf_count = index + 1
            return self.engine.register_value(reg)

    def extend_data(self, data: bytes) -> Digest:
        return self.extend(self.config.measure(data))

    def close(self) -> None:
        with self.engine._lock:
            self.engine.close_tree(self._root_reg())

    @property
    def depth(self) -> int:
        return self.tree.depth

    def root(self) -> Digest:
        with self.engine._lock:
            return self.engine.register_value(self._root_reg())

    def root_state(self) -> RegisterState:
        with self.engine._lock:
            return self.engine.register_state(self._root_reg())

    def node(self, coord: str) -> NodeRef:
        return NodeRef(coord, self.tree.node(coord))

    def reduced(self, coord: str) -> ReducedTree:
        return build_reduced_tree(self.tree, coord)

    def trace(self, coord: str) -> Trace:
        return build_trace(self.tree, coord)

    # -- verification ------------------------------------------------------

    def verify_node(self, coord: str) -> bool:
        """Check the stored node value against the protected root."""
        with self.engine._lock:
            reg = self._root_reg()
            value, siblings, _ = read_path(self.tree, coord)
            return self.engine.reduced_tree_verify_raw(coord, value, siblings, reg)

    def diagnose_node(self, coord: str) -> NodeVerifyBreach | None:
        """Top-down walk reporting the first breached level, None when intact."""
        with self.engine._lock:
            reg = self._root_reg()
            _, siblings, trace = read_path(self.tree, coord)
            return self.engine.tree_node_verify_raw(coord, siblings, trace, reg)

    # -- update ------------------------------------------------------------

    def verified_update(self, coord: str, new_value: Digest) -> UpdateResult | None:
        """Verify-and-replace one node; mirrors the new trace on success.

        Everything strictly below the replaced node loses its protection
        and is blanked in the mirror.
        """
        with self.engine._lock:
            reg = self._root_reg()
            value, siblings, _ = read_path(self.tree, coord)
            path = self.engine.tree_node_verified_update_raw(coord, value, siblings, new_value.value, reg)
            if path is None:
                return None
            self._mirror_update(coord, path[:-1])
        return UpdateResult(coord, path)

    def apply_update(self, coord: str, trace: Trace) -> None:
        """Mirror maintenance after an update at coord: its trace, and blanks below."""
        self._mirror_update(coord, [ref.value.value for ref in reversed(trace)])

    def _mirror_update(self, coord: str, path: list[bytes | None]) -> None:
        """Blank below coord, then write its raw path up from the node (root excluded)."""
        self.tree.blank_below(coord)
        self.tree.set_path(len(coord), int(coord, 2), path)

    # -- quoting -----------------------------------------------------------

    def quote_node(self, coord: str, nonce: bytes, include_coord: bool = False) -> Quote | None:
        """Attest to a node value; the root position is quoted as a plain register.

        Protocol rule: quoting requires the root to be complete (CR).
        """
        with self.engine._lock:
            reg = self._root_reg()
            if coord == "":
                if self.engine.register_state(reg) is not RegisterState.CR:
                    raise StateViolation("root quotes for certification require a complete (CR) root")
                return self.engine.quote_register(reg, self.aik, nonce)
            value, siblings, _ = read_path(self.tree, coord)
            return self.engine.tree_node_quote_raw(coord, value, siblings, reg, self.aik, nonce, include_coord)

    def quote_reduced(self, coord: str, nonce: bytes) -> Quote:
        """Reduced-tree quote: signs node, siblings, and root for receiver-side folding."""
        with self.engine._lock:
            reg = self._root_reg()
            if coord:
                value, siblings, _ = read_path(self.tree, coord)
                node_value, values = as_digest(value), [as_digest(sibling) for sibling in siblings]
            else:
                node_value, values = self.root(), []
            return self.engine.reduced_tree_quote(node_value, values, coord, reg, self.aik, nonce)

    # -- persistence (process-spanning emulation) ---------------------------

    def to_document(self) -> SmlDocument:
        state = self.root_state()
        if state not in (RegisterState.AR, RegisterState.CR):
            raise StateViolation(f"root register is {state.value}; nothing to snapshot")
        return SmlDocument(self.tree.copy(), self.root(), state.value)

    @classmethod
    def from_document(cls, doc: SmlDocument, aik: SigningKey | None = None) -> "Platform":
        """Rebuild a platform from a snapshot; the register snapshot is authoritative.

        The root value comes from the document header, never from refolding
        the log, so tampering injected into the log stays detectable.
        """
        if doc.root_value is None or doc.root_state is None:
            raise ValueError("document carries no root register snapshot")
        tree = doc.tree
        self = cls.__new__(cls)
        self.engine = TreeTpm(config=tree.config)
        self.config = tree.config
        frontier = _frontier_from_mirror(tree) if doc.root_state == "AR" else []
        self.root_reg = self.engine.restore_tree(
            tree.depth, doc.root_value, doc.root_state, tree.leaf_count, frontier
        )
        self._tree_uid = self.engine.rooted_tree(self.root_reg)
        self.tree = tree.copy()
        self.tree.root_register = self.root_reg
        self.aik = aik or SigningKey.generate()
        self.aik_cert = None
        return self


def _frontier_from_mirror(tree: SmlTree) -> list[Digest]:
    """Completed-subtree roots per height, read back from the mirror."""
    count, depth = tree.leaf_count, tree.depth
    return [
        tree.node(format((count >> height) - 1, f"0{depth - height}b")) if (count >> height) & 1 else NIL
        for height in range(depth)
    ]
