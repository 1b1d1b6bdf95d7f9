"""The protected register file and the tree command set.

A single logical device: a fixed array of verification data registers
plus the commands that build, verify, update, and quote hash trees whose
roots those registers protect. Registers hold raw values (``bytes``, None
for nil); ``register_value``, quotes and command results wrap them.

Every command has one entry, run in one order under exclusive access.
``_command`` counts it once, under its own name, as it is entered, so a
refused command counts too. ``_root`` is the one root gate (AR to extend
or close a tree, CR to quote it, either to verify or update it);
``_check_inputs`` checks the coordinate against the tree, the sibling
count and each value's length once; ``_borrow`` checks that the
command's working registers are free (``_gate`` runs these for the node
commands). Only then does an operation counter or a register move, so a
refused command changes nothing but ``commands``. Misses are results;
state and session violations raise.

Each write and verify-family command has one core on raw values
(``*_raw``). ``tree_extend_raw`` places one leaf and returns the raw log
delta; ``tree_fold_raw`` folds a batch into a scratch tree level by level
(``tree.fold_row``) and returns every level, seating no tree. Verify,
update and node quotes share one fold (``tree.fold_path``, or
``tree.fold_root`` for the root candidate alone). The extend that fills
the last leaf closes the tree (AR -> CR), as does a verified update.
A register is allocated (written out of FREE) only when its state
outlives the command: the root and build scratch of a seated tree, and
the RT registers and session of a matched ``reduced_tree_verify_load``,
which a later update consumes. The update acts only on the device's own
record of the session (``_Armed``); the caller's ``UpdateSession`` is a
handle, refused once it no longer matches that record. Any other
register a command needs is borrowed: counted as free, never written.
The public ``NodeRef`` form of a command is an adapter: before it enters
the command, it checks that the sibling and trace coordinates belong to
the node; it hands the raw values to the same core and wraps what the
core returns.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import logging
import threading
from dataclasses import dataclass
from typing import Sequence

from .crypto import (
    Digest,
    HashConfig,
    SHA1,
    SigningKey,
    VerifyingKey,
    as_digest,
    digest_from_wire,
    digest_to_wire,
    extend_raw,
    sign,
    verify,
)
from .encoding import EncodingError, decode_text, pack_fields, pack_u32, unpack_fields, unpack_u32, untag
from .tree import (
    NodeRef,
    ReducedTree,
    Trace,
    check_coord,
    fold_path,
    fold_root,
    fold_row,
    fold_to_root,
    is_reduced_of,
    is_trace_of,
    reduced_coords,
)

logger = logging.getLogger(__name__)


class TpmError(Exception):
    """Base class for device failures (verification misses are results, not errors)."""


class StateViolation(TpmError):
    """A command was applied to a register in the wrong lifecycle state."""


class TreeComplete(StateViolation):
    """The target tree already holds its full complement of leaves."""


class BindingViolation(TpmError):
    """An update session was consumed, invalidated, or never armed."""


class InsufficientRegisters(TpmError):
    """Not enough free registers for the requested operation."""


class RegisterState(enum.Enum):
    FREE = "Free"
    AR = "AR"  # active root, tree under construction
    CR = "CR"  # complete root, closed against further extends
    TB = "TB"  # tree-build scratch slot
    RT = "RT"  # loaded reduced-tree entry awaiting update


#: the states of a register that roots a tree
_ROOTS = (RegisterState.AR, RegisterState.CR)


@dataclass(slots=True)
class Register:
    value: bytes | None = None
    state: RegisterState = RegisterState.FREE
    tree_uid: str | None = None
    coord: str | None = None


@dataclass(frozen=True)
class VdatEntry:
    """Allocation-table view of one register."""

    state: RegisterState
    tree_uid: str | None
    coord: str | None


class SessionStatus(enum.Enum):
    ARMED = "armed"
    CONSUMED = "consumed"
    INVALIDATED = "invalidated"


@dataclass
class UpdateSession:
    """The caller's handle on a verified load and the one update it authorises."""

    session_id: int
    coord: str
    root_reg: int
    buffer_regs: tuple[int, ...]
    staging_reg: int
    nonce: bytes
    auth: bytes
    status: SessionStatus = SessionStatus.ARMED

    def bound_registers(self) -> frozenset[int]:
        return frozenset(self.buffer_regs) | {self.staging_reg, self.root_reg}


@dataclass
class TreeExtendResult:
    index: int
    coord: str
    nodes: list[NodeRef]  # log delta, leaf first then recomputed ancestors
    root: Digest
    closed: bool


@dataclass
class VerifyLoadResult:
    trace: Trace
    session: UpdateSession


@dataclass
class UpdateResult:
    """A consumed update: the node's coordinate and the raw fold path of its new value."""

    coord: str
    path: list[bytes | None]  # the new node value first, the new root last

    @property
    def trace(self) -> Trace:
        return _trace(self.coord, self.path)

    @property
    def root(self) -> Digest:
        return as_digest(self.path[-1])


@dataclass
class NodeVerifyBreach:
    """Diagnostic outcome: the first tree level whose link failed."""

    level: int
    computed: Digest


@dataclass
class EngineStats:
    commands: int = 0
    extend_ops: int = 0
    verify_ops: int = 0
    update_ops: int = 0
    quote_ops: int = 0


@dataclass(frozen=True)
class Quote:
    """A signed statement over a register or tree-node value.

    ``reduced_values``/``root_value`` are populated only for the
    REDTREEQUOT variant, whose receiver refolds the node through the
    sibling values and compares against the signed root. The coordinate
    is signed for TREEQUOT when present, and carried unsigned for
    REDTREEQUOT (the signed root value anchors it).
    """

    tag: str
    node_value: Digest
    nonce: bytes
    signature: bytes
    coord: str | None = None
    reduced_values: tuple[Digest, ...] | None = None
    root_register: int | None = None
    root_value: Digest | None = None

    def signed_payload(self) -> bytes:
        """Canonical signed payload of this quote variant."""
        if self.tag in ("QUOT", "TREEQUOT"):
            coord = () if self.coord is None else (self.coord.encode("ascii"),)
            return pack_fields(digest_to_wire(self.node_value), *coord)
        if self.tag == "REDTREEQUOT":
            reduced, root_register, root_value = self.reduced_values, self.root_register, self.root_value
            if reduced is None or root_register is None or root_value is None:
                raise ValueError("reduced quote payload needs sibling values and the root binding")
            return pack_fields(
                digest_to_wire(self.node_value), pack_u32(len(reduced)), *map(digest_to_wire, reduced),
                pack_u32(root_register), digest_to_wire(root_value),
            )
        raise ValueError(f"unknown quote tag {self.tag!r}")

    def to_bytes(self) -> bytes:
        reduced = self.reduced_values
        return pack_fields(
            self.tag.encode("ascii"),
            digest_to_wire(self.node_value),
            self.nonce,
            self.signature,
            b"" if self.coord is None else b"c" + self.coord.encode("ascii"),
            b"" if reduced is None else pack_fields(*(digest_to_wire(d) for d in reduced)),
            b"" if self.root_register is None else pack_u32(self.root_register),
            b"" if self.root_value is None else digest_to_wire(self.root_value),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Quote":
        tag, value, nonce, signature, coord, reduced, root_reg, root_val = unpack_fields(data, count=8)
        # a root REDTREEQUOT has an empty sibling field, so the tag decides
        reduced_tree = tag == b"REDTREEQUOT"
        if reduced_tree and not (root_reg and root_val):
            raise EncodingError("reduced-tree quote lacks its root register or root value")
        if not reduced_tree and (tag not in (b"QUOT", b"TREEQUOT") or reduced or root_reg or root_val):
            raise EncodingError(f"quote tag {tag!r} is unknown or carries reduced-tree fields")
        coord = untag(coord, b"c")
        return cls(
            tag=decode_text(tag),
            node_value=digest_from_wire(value),
            nonce=nonce,
            signature=signature,
            coord=None if coord is None else decode_text(coord),
            reduced_values=tuple(map(digest_from_wire, unpack_fields(reduced))) if reduced_tree else None,
            root_register=unpack_u32(root_reg) if reduced_tree else None,
            root_value=digest_from_wire(root_val) if reduced_tree else None,
        )


def verify_quote(quote: Quote, aik_pub: VerifyingKey) -> bool:
    """Check the quote signature against the presented AIK public key."""
    return verify(aik_pub, quote.tag, quote.signed_payload(), quote.nonce, quote.signature)


def refold_reduced_quote(quote: Quote, config: HashConfig) -> bool:
    """Receiver-side check of a REDTREEQUOT: fold node through siblings, compare root."""
    if quote.tag != "REDTREEQUOT" or quote.reduced_values is None or quote.root_value is None:
        raise ValueError("not a reduced-tree quote")
    coord = quote.coord or ""  # unsigned, so a malformed one is a failed refold
    if len(coord) != len(quote.reduced_values) or coord.strip("01"):
        return False
    return fold_to_root(quote.node_value, coord, quote.reduced_values, config) == quote.root_value


def _trace(coord: str, path: list[bytes | None]) -> Trace:
    """Top-down trace of a node from its raw ``fold_path`` (node first, root last)."""
    return [NodeRef(coord[:k], as_digest(value)) for k, value in enumerate(reversed(path[:-1]), 1)]


def _raw_siblings(coord: str, reduced: ReducedTree) -> list[bytes | None]:
    """The raw values of a public sibling list whose coordinates are ``coord``'s siblings."""
    if not is_reduced_of(reduced, check_coord(coord)):
        raise ValueError(f"reduced tree coordinates must be {reduced_coords(coord)}")
    return [ref.value.value for ref in reduced]


@dataclass(frozen=True)
class _Armed:
    """The device's record of an armed session: the node, root register, tree
    and RT registers that its update acts on, and the handle it was issued as."""

    handle: UpdateSession
    coord: str
    root_reg: int
    tree_uid: str
    buffer_regs: tuple[int, ...]
    staging_reg: int

    @property
    def bound(self) -> frozenset[int]:
        return frozenset(self.buffer_regs) | {self.staging_reg, self.root_reg}

    def issued_as(self, session: UpdateSession) -> bool:
        """Whether ``session`` still holds what this record issued it with."""
        held = (session.coord, session.root_reg, session.buffer_regs, session.staging_reg, session.status)
        return held == (self.coord, self.root_reg, self.buffer_regs, self.staging_reg, SessionStatus.ARMED)


@dataclass
class _TreeMeta:
    uid: str
    depth: int
    root_reg: int
    tb_regs: list[int]
    leaf_count: int = 0


class TreeTpm:
    """Register file plus tree commands, serialized as one logical device."""

    def __init__(self, register_count: int = 24, config: HashConfig = SHA1) -> None:
        if register_count < 2:
            raise ValueError("need at least two registers")
        self.config = config
        self.stats = EngineStats()
        self._regs = [Register() for _ in range(register_count)]
        self._free_count = register_count  # registers in FREE: moved only by _alloc and _free_regs
        self._trees: dict[str, _TreeMeta] = {}
        # armed sessions only: each holds RT registers of its own, so the
        # table never outgrows the register file
        self._sessions: dict[int, _Armed] = {}
        self._lock = threading.RLock()
        self._session_counter = itertools.count(1)
        self._tree_counter = itertools.count(1)

    # -- register file plumbing ------------------------------------------

    @property
    def register_count(self) -> int:
        return len(self._regs)

    def register_value(self, reg: int) -> Digest:
        return as_digest(self._reg(reg).value)

    def register_state(self, reg: int) -> RegisterState:
        return self._reg(reg).state

    def rooted_tree(self, reg: int) -> str | None:
        """The uid of the tree that register ``reg`` roots; None when it roots none."""
        register = self._reg(reg)
        return register.tree_uid if register.coord == "" else None

    def vdat(self) -> dict[int, VdatEntry]:
        """Verification data allocation table: per-register state view."""
        with self._lock:
            return {
                i: VdatEntry(r.state, r.tree_uid, r.coord)
                for i, r in enumerate(self._regs)
                if r.state is not RegisterState.FREE
            }

    def free_register_count(self) -> int:
        with self._lock:
            return self._free_count

    def _reg(self, reg: int) -> Register:
        if not 0 <= reg < len(self._regs):
            raise ValueError(f"register index {reg} out of range")
        return self._regs[reg]

    def _borrow(self, count: int) -> None:
        """Check that ``count`` registers are free for a command to work in; none is written."""
        if self._free_count < count:
            raise InsufficientRegisters(f"need {count} free registers, have {self._free_count}")

    def _alloc(self, count: int, state: RegisterState, tree_uid: str | None = None) -> list[int]:
        """First fit, for registers that outlive the command: the ``count`` lowest-numbered free ones."""
        self._borrow(count)
        free = (i for i, r in enumerate(self._regs) if r.state is RegisterState.FREE)
        chosen = list(itertools.islice(free, count))
        for i in chosen:
            register = self._regs[i]
            register.value, register.state, register.tree_uid, register.coord = None, state, tree_uid, None
        self._free_count -= count
        return chosen

    def _free_regs(self, regs: Sequence[int]) -> None:
        """Return held (non-FREE) registers to the free pool."""
        for i in regs:
            register = self._regs[i]
            register.value, register.state, register.tree_uid, register.coord = None, RegisterState.FREE, None, None
        self._free_count += len(regs)

    def _touch(self, regs: Sequence[int]) -> None:
        """Invalidate (and drop) armed sessions bound to any mutated register."""
        if not self._sessions:
            return
        touched = set(regs)
        for session_id, armed in list(self._sessions.items()):
            if touched & armed.bound:
                armed.handle.status = SessionStatus.INVALIDATED
                del self._sessions[session_id]
                logger.debug("session %d invalidated by registers %s", session_id, sorted(touched))

    # -- the command prologue ----------------------------------------------

    def _command(self, name: str, *detail: object) -> int:
        """Count a command, once, as it is entered: refused or not."""
        self.stats.commands += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("cmd %d %s %s", self.stats.commands, name, " ".join(str(d) for d in detail))
        return self.stats.commands

    def _sized(self, name: str, depth: int, *detail: object) -> None:
        """Enter a command that takes a tree depth: count it, then check the depth."""
        self._command(name, depth, *detail)
        if depth < 1:
            raise ValueError("tree depth must be at least 1")

    def _scratch(self, name: str, reg: int) -> Register:
        """Enter a plain register command: count it, then check that ``reg`` is free
        scratch (which no armed session binds, so writing it touches none)."""
        self._command(name, reg)
        register = self._reg(reg)
        if register.state is not RegisterState.FREE:
            raise StateViolation(f"register {reg} is {register.state.value}, not free scratch")
        return register

    def _root(self, reg: int, state: RegisterState | None = None) -> tuple[Register, _TreeMeta]:
        """The one root gate: register ``reg`` and the tree it roots, in ``state``
        (AR to extend or close the tree, CR to quote it, None for either)."""
        register = self._reg(reg)
        held = register.state
        if held is not state and (state is not None or held not in _ROOTS):
            if state is RegisterState.AR:
                raise StateViolation(f"register {reg} is not an active root ({held.value})")
            if state is RegisterState.CR:
                raise StateViolation("tree quotes require a complete (CR) root")
            raise StateViolation(f"register {reg} does not hold a root")
        meta = self._trees.get(register.tree_uid)
        if meta is None:
            raise StateViolation(f"register {reg} does not root a managed tree")
        return register, meta

    def _check_inputs(self, coord: str, meta: _TreeMeta, siblings: Sequence, *values, allow_root=False) -> None:
        """One pass over a command's raw inputs: the coordinate against the tree,
        the sibling count, and the length of each value and sibling, once."""
        check_coord(coord, meta.depth, allow_root)
        if len(siblings) != len(coord):
            raise ValueError(f"need {len(coord)} sibling values, got {len(siblings)}")
        check = self.config.check_raw
        for value in (*values, *siblings):
            check(value)

    def _gate(self, name: str, root_reg: int, state: RegisterState | None, coord: str, need: int, siblings, *values):
        """A node command's prologue: count it, gate its root, check its inputs once
        and borrow ``need`` registers; returns the root register and its tree.
        Nothing is counted but the command until every check has passed."""
        self._command(name, root_reg, coord)
        register, meta = self._root(root_reg, state)
        self._check_inputs(coord, meta, siblings, *values)
        self._borrow(need)
        return register, meta

    # -- tree construction -----------------------------------------------

    def create_tree(self, depth: int) -> int:
        """Allocate a root register (state AR) plus depth build-scratch registers."""
        with self._lock:
            self._sized("create_tree", depth)
            return self._seat(depth, None, RegisterState.AR, 0, [None] * depth)

    def restore_tree(
        self,
        depth: int,
        root_value: Digest,
        state: str,
        leaf_count: int,
        frontier: Sequence[Digest] = (),
    ) -> int:
        """Re-seat a persisted tree root (software-stack bootstrap plumbing).

        The register snapshot, not the log, is authoritative for the root
        value. An AR tree additionally needs its build frontier, one value
        per completed-subtree height, so later extends can continue; the
        frontier of an open one must fold to the root, since those extends
        fold it in.
        """
        with self._lock:
            self._sized("restore_tree", depth, state, leaf_count)
            if state not in ("AR", "CR"):
                raise ValueError(f"root state must be AR or CR, got {state!r}")
            if not 0 <= leaf_count <= (1 << depth):
                raise ValueError(f"leaf count {leaf_count} out of range for depth {depth}")
            frontier = list(frontier) if state == "AR" else []
            if state == "AR" and len(frontier) != depth:
                raise ValueError(f"need {depth} frontier values, got {len(frontier)}")
            for value in (root_value, *frontier):
                self.config.check(value)
            if frontier and leaf_count < (1 << depth):
                folded = None  # the completed subtrees at the set bits of the leaf count, lowest first
                for height, value in enumerate(frontier):
                    if (leaf_count >> height) & 1:
                        folded = extend_raw(self.config.hasher, value.value, folded)
                if folded != root_value.value:
                    raise ValueError("build frontier does not fold to the root value")
            return self._seat(depth, root_value.value, RegisterState[state], leaf_count, [v.value for v in frontier])

    def _seat(self, depth: int, root_value: bytes | None, state: RegisterState, leaf_count: int, frontier: list) -> int:
        """Seat a tree from checked raw inputs: the root plus one build-scratch
        register per frontier value, all allocated before any is written."""
        uid = f"tree-{next(self._tree_counter)}"
        root_reg, *tb = self._alloc(1 + len(frontier), RegisterState.TB, uid)
        root = self._regs[root_reg]
        root.value, root.state, root.coord = root_value, state, ""
        for slot, value in zip(tb, frontier):
            self._regs[slot].value = value
        self._trees[uid] = _TreeMeta(uid, depth, root_reg, tb, leaf_count)
        return root_reg

    def tree_extend(self, reg: int, measurement: Digest) -> TreeExtendResult:
        """``NodeRef`` form of ``tree_extend_raw``: the delta by coordinate, and the new root."""
        with self._lock:
            index, path, closed = self.tree_extend_raw(reg, measurement.value)
            root = self._regs[reg].value
        depth = len(path)
        coord = format(index, f"0{depth}b")
        nodes = [NodeRef(coord[: depth - height], as_digest(value)) for height, value in enumerate(path)]
        return TreeExtendResult(index, coord, nodes, as_digest(root), closed)

    def tree_extend_raw(self, reg: int, measurement: bytes | None) -> tuple[int, list[bytes | None], bool]:
        """Place a raw measurement at the next free leaf and refold the path to the root.

        Completed sibling pairs are merged leftward through the scratch
        registers like binary-counter carries; the root register always
        holds the root of the current nil-padded tree. Returns the leaf
        index, the raw log delta (the leaf first, then its recomputed
        ancestors up to level 1) and whether the tree closed.
        """
        with self._lock:
            self._command("tree_extend", reg)
            if self._reg(reg).state is RegisterState.CR:
                raise TreeComplete("tree complete")  # a sealed tree takes no leaf, full or not
            register, meta = self._root(reg, RegisterState.AR)
            if meta.leaf_count >= (1 << meta.depth):
                raise TreeComplete("tree complete")
            self.config.check_raw(measurement)

            index, depth, tb = meta.leaf_count, meta.depth, meta.tb_regs
            new, regs = self.config.hasher, self._regs
            path, value, touched = [], measurement, [reg]
            for height in range(depth):
                path.append(value)
                if (index >> height) & 1:
                    # left sibling subtree is complete: merge it in
                    value = extend_raw(new, regs[tb[height]].value, value)
                elif len(touched) == 1:
                    # the lowest open height keeps the value for a later merge
                    regs[tb[height]].value = value
                    touched.append(tb[height])
                # otherwise the right sibling is still empty: nil unit, value unchanged
            register.value = value
            meta.leaf_count += 1
            self.stats.extend_ops += 1

            closed = meta.leaf_count == (1 << depth)
            if closed:
                self._close(meta)
            self._touch(touched)
            return index, path, closed

    def tree_fold_raw(self, depth: int, measurements: Sequence[bytes | None]) -> list[list[bytes | None]]:
        """Fold up to ``2^depth`` raw values into a nil-padded scratch tree, level by level.

        One command in place of ``create_tree``, one ``tree_extend_raw`` per
        value and ``release``: it borrows the ``depth + 1`` registers that
        ``create_tree`` would allocate, checks every value before any work,
        counts one extend per value and seats no tree. Returns every level,
        leaves first and root last: row h holds the first ``ceil(k / 2^h)``
        nodes at height h, the root row ``[root]`` (empty for no values),
        and every node past a row is nil.
        """
        with self._lock:
            self._sized("tree_fold", depth, len(measurements))
            if len(measurements) > 1 << depth:
                raise ValueError(f"{len(measurements)} values do not fit a depth-{depth} tree")
            self._borrow(depth + 1)
            check = self.config.check_raw
            for value in measurements:
                check(value)
            new, row = self.config.hasher, list(measurements)
            levels = [row]
            for _ in range(depth):
                row = fold_row(new, row + [None] if len(row) & 1 else row)
                levels.append(row)
            self.stats.extend_ops += len(measurements)
            return levels

    def _close(self, meta: _TreeMeta) -> None:
        self._regs[meta.root_reg].state = RegisterState.CR
        self._free_regs(meta.tb_regs)
        self._touch([meta.root_reg, *meta.tb_regs])
        meta.tb_regs = []

    def close_tree(self, reg: int) -> None:
        """AR -> CR; the tree is sealed against further extends."""
        with self._lock:
            self._command("close_tree", reg)
            self._close(self._root(reg, RegisterState.AR)[1])

    # -- register administration -----------------------------------------

    def reset_to_nil(self, reg: int) -> None:
        """Clear a free scratch register to the nil unit."""
        with self._lock:
            self._scratch("reset_to_nil", reg).value = None

    def extend_register(self, reg: int, measurement: Digest) -> Digest:
        """Plain one-way extend of a free scratch register."""
        with self._lock:
            register = self._scratch("extend_register", reg)
            register.value = extend_raw(self.config.hasher, register.value, self.config.check(measurement).value)
            return as_digest(register.value)

    def release(self, reg: int) -> None:
        """Authorised release of a managed register back to the free pool.

        Releasing a loaded reduced-tree slot invalidates its session;
        releasing a root abandons the whole tree including its scratch
        registers.
        """
        with self._lock:
            self._command("release", reg)
            register = self._reg(reg)
            if register.state is RegisterState.FREE:
                raise StateViolation(f"register {reg} is already free")
            if register.state is RegisterState.TB:
                raise StateViolation("build-scratch registers are managed by their tree")
            victims = [reg]
            if register.state in (RegisterState.AR, RegisterState.CR):
                meta = self._root(reg)[1]
                victims += meta.tb_regs
                del self._trees[meta.uid]
            self._touch(victims)
            self._free_regs(victims)

    # -- verification and update -----------------------------------------

    @staticmethod
    def _session_auth(nonce: bytes) -> bytes:
        return hashlib.sha256(pack_fields(b"session", nonce)).digest()

    def reduced_tree_verify_load(
        self, node: NodeRef, reduced: ReducedTree, root_reg: int
    ) -> VerifyLoadResult | None:
        """Verify a node against the root and keep its siblings loaded.

        On success the siblings stay in RT buffer registers, the staging
        register holds the folded root and an update session is armed; on
        a root mismatch no register is written and None is returned (a
        verification miss is a result, not an error).
        """
        coord, value, siblings = node.coord, node.value.value, _raw_siblings(node.coord, reduced)
        with self._lock:
            need = len(coord) + 1
            register, meta = self._gate("reduced_tree_verify_load", root_reg, None, coord, need, siblings, value)
            self.stats.verify_ops += 1
            path = fold_path(value, coord, siblings, self.config)
            if path[-1] != register.value:
                logger.debug("cmd %d verification error", self.stats.commands)
                return None
            # the registers and the session outlive this command: the buffers
            # hold the siblings, the staging register the folded root
            slots = self._alloc(need, RegisterState.RT, meta.uid)
            for slot, slot_coord, slot_value in zip(slots, [*reduced_coords(coord), coord], [*siblings, path[-1]]):
                self._regs[slot].coord, self._regs[slot].value = slot_coord, slot_value
            session_id = next(self._session_counter)
            nonce = pack_u32(self.stats.commands) + pack_u32(session_id)
            buffers, staging = tuple(slots[:-1]), slots[-1]
            session = UpdateSession(session_id, coord, root_reg, buffers, staging, nonce, self._session_auth(nonce))
            self._sessions[session_id] = _Armed(session, coord, root_reg, meta.uid, buffers, staging)
            return VerifyLoadResult(_trace(coord, path), session)

    def _verify(self, name: str, root_reg: int, state: RegisterState | None, coord: str, value, siblings, need, *new):
        """Gate the command, count the verify, then fold the node straight to its root
        candidate: the root register and its tree on a match, else None."""
        register, meta = self._gate(name, root_reg, state, coord, need, siblings, value, *new)
        self.stats.verify_ops += 1
        if fold_root(value, coord, siblings, self.config.hasher) != register.value:
            logger.debug("cmd %d verification error", self.stats.commands)
            return None
        return register, meta

    def reduced_tree_verify(self, node: NodeRef, reduced: ReducedTree, root_reg: int) -> Digest | None:
        """``NodeRef`` form of ``reduced_tree_verify_raw``: the root value on a match, else None."""
        siblings = _raw_siblings(node.coord, reduced)
        with self._lock:
            if not self.reduced_tree_verify_raw(node.coord, node.value.value, siblings, root_reg):
                return None
            return as_digest(self._regs[root_reg].value)

    def reduced_tree_verify_raw(
        self, coord: str, value: bytes | None, siblings: Sequence[bytes | None], root_reg: int
    ) -> bool:
        """Single-register verification: streams the siblings, arms nothing, wraps nothing."""
        with self._lock:
            return self._verify("reduced_tree_verify", root_reg, None, coord, value, siblings, 1) is not None

    def tree_node_verify(
        self, coord: str, reduced: ReducedTree, trace: Trace, root_reg: int
    ) -> NodeVerifyBreach | None:
        """``NodeRef`` form of ``tree_node_verify_raw``."""
        check_coord(coord)
        if not is_trace_of(trace, coord):
            raise ValueError("trace coordinates do not match the node coordinate")
        if not is_reduced_of(reduced, coord):
            raise ValueError("reduced tree coordinates do not match the node coordinate")
        siblings, values = [ref.value.value for ref in reduced], [ref.value.value for ref in trace]
        return self.tree_node_verify_raw(coord, siblings, values, root_reg)

    def tree_node_verify_raw(
        self, coord: str, siblings: Sequence[bytes | None], trace: Sequence[bytes | None], root_reg: int
    ) -> NodeVerifyBreach | None:
        """Top-down diagnostic walk; returns the first breached level, or None when intact.

        Level k is intact when its trace value extended with its sibling
        gives the value one level up: the root register for level 1. The
        device walks with three working registers: parent, trace value and
        computed value.
        """
        with self._lock:
            register, _ = self._gate("tree_node_verify", root_reg, None, coord, 3, siblings, *trace)
            if len(trace) != len(coord):
                raise ValueError(f"need {len(coord)} trace values, got {len(trace)}")
            self.stats.verify_ops += 1
            new, parent = self.config.hasher, register.value
            for k, (bit, sibling, value) in enumerate(zip(coord, siblings, trace), 1):
                computed = extend_raw(new, sibling, value) if bit == "1" else extend_raw(new, value, sibling)
                if computed != parent:
                    return NodeVerifyBreach(k, as_digest(computed))
                parent = value
            return None

    def reduced_tree_update(self, session: UpdateSession, new_value: Digest) -> UpdateResult:
        """Consume an armed session, found by its handle's identity: write the new
        node value and refold the root, as the device's record of the session says."""
        with self._lock:
            self._command("reduced_tree_update", session.root_reg, session.coord)
            armed = self._sessions.get(session.session_id)
            if armed is None or armed.handle is not session:
                if session.status is SessionStatus.CONSUMED:
                    raise BindingViolation("update session already consumed")
                if session.status is SessionStatus.INVALIDATED:
                    raise BindingViolation("update session invalidated by an intervening command")
                raise BindingViolation("unknown update session")
            if self._session_auth(session.nonce) != session.auth:
                raise BindingViolation("session authorisation digest mismatch")
            if not armed.issued_as(session):
                raise BindingViolation("update session handle no longer matches the armed session")
            for slot in (*armed.buffer_regs, armed.staging_reg):
                if self._regs[slot].state is not RegisterState.RT:
                    raise BindingViolation(f"bound register {slot} left the RT state")
            register, meta = self._root(armed.root_reg)
            if meta.uid != armed.tree_uid:
                raise BindingViolation(f"register {armed.root_reg} no longer roots the session's tree")
            new = self.config.check(new_value).value
            session.status = SessionStatus.CONSUMED
            del self._sessions[session.session_id]
            siblings = [self._regs[slot].value for slot in armed.buffer_regs]
            path = fold_path(new, armed.coord, siblings, self.config)
            # the consumed session was the only one bound to its RT registers
            self._free_regs((*armed.buffer_regs, armed.staging_reg))
            self._write_root(register, meta, path)
            return UpdateResult(armed.coord, path)

    def _write_root(self, register: Register, meta: _TreeMeta, path: list[bytes | None]) -> None:
        """Finish an update: write the new root and seal the tree."""
        self.stats.update_ops += 1
        register.value = path[-1]
        self._touch([meta.root_reg])
        # an updated tree can no longer be extended consistently: seal it
        if register.state is not RegisterState.CR:
            self._close(meta)

    def tree_node_verified_update(
        self, node: NodeRef, new_value: Digest, reduced: ReducedTree, root_reg: int
    ) -> UpdateResult | None:
        """``NodeRef`` form of ``tree_node_verified_update_raw``."""
        siblings = _raw_siblings(node.coord, reduced)
        path = self.tree_node_verified_update_raw(node.coord, node.value.value, siblings, new_value.value, root_reg)
        return None if path is None else UpdateResult(node.coord, path)

    def tree_node_verified_update_raw(
        self, coord: str, value: bytes | None, siblings: Sequence[bytes | None], new_value: bytes | None, root_reg: int
    ) -> list[bytes | None] | None:
        """Atomic verify-then-update; on a verification miss or a refused input nothing changes.

        Returns the raw fold path of the new value (the node first, the new
        root last), or None on a verification miss.
        """
        with self._lock:
            # the borrowed registers were free, so no armed session is bound to them
            need = len(coord) + 1
            root = self._verify("tree_node_verified_update", root_reg, None, coord, value, siblings, need, new_value)
            if root is None:
                return None
            # nothing is loaded: fold the new value through the siblings just checked
            path = fold_path(new_value, coord, siblings, self.config)
            self._write_root(*root, path)
            return path

    # -- quoting -----------------------------------------------------------

    def _quote(self, aik: SigningKey, nonce: bytes, tag: str, node_value: Digest, **fields) -> Quote:
        """Sign the canonical payload of one quote variant."""
        self.stats.quote_ops += 1
        quote = Quote(tag, node_value, nonce, b"", **fields)
        # the signature is the one field its own payload leaves out: set it once, in place
        object.__setattr__(quote, "signature", sign(aik, tag, quote.signed_payload(), nonce))
        return quote

    def quote_register(self, reg: int, aik: SigningKey, nonce: bytes) -> Quote:
        """Plain register quote (tag QUOT); no tree-state gate."""
        with self._lock:
            self._command("quote_register", reg)
            return self._quote(aik, nonce, "QUOT", as_digest(self._reg(reg).value))

    def tree_node_quote(
        self,
        node: NodeRef,
        reduced: ReducedTree,
        root_reg: int,
        aik: SigningKey,
        nonce: bytes,
        include_coord: bool = False,
    ) -> Quote | None:
        """``NodeRef`` form of ``tree_node_quote_raw``."""
        siblings = _raw_siblings(node.coord, reduced)
        return self.tree_node_quote_raw(node.coord, node.value.value, siblings, root_reg, aik, nonce, include_coord)

    def tree_node_quote_raw(
        self,
        coord: str,
        value: bytes | None,
        siblings: Sequence[bytes | None],
        root_reg: int,
        aik: SigningKey,
        nonce: bytes,
        include_coord: bool = False,
    ) -> Quote | None:
        """Verify a node internally, then attest to its value (tag TREEQUOT).

        Only complete (CR) roots may be quoted. The coordinate enters the
        signed payload only on request; the default reveals the value
        alone.
        """
        with self._lock:
            # the device model gives the quote one scratch register, the one its
            # verify borrows; the copy it would hold is the verified input itself
            if self._verify("tree_node_quote", root_reg, RegisterState.CR, coord, value, siblings, 1) is None:
                return None
            return self._quote(aik, nonce, "TREEQUOT", as_digest(value), coord=coord if include_coord else None)

    def reduced_tree_quote(
        self,
        node_value: Digest,
        reduced_values: Sequence[Digest],
        coord: str,
        root_reg: int,
        aik: SigningKey,
        nonce: bytes,
    ) -> Quote:
        """Sign node value, sibling values, and the root binding (tag REDTREEQUOT).

        No internal verification: the receiver refolds the data itself.
        The coordinate rides along unsigned so the receiver knows the
        fold order; the signed root value anchors it.
        """
        with self._lock:
            self._command("reduced_tree_quote", root_reg, coord)
            register, meta = self._root(root_reg, RegisterState.CR)
            siblings = [value.value for value in reduced_values]
            self._check_inputs(coord, meta, siblings, node_value.value, allow_root=True)
            return self._quote(
                aik, nonce, "REDTREEQUOT", node_value, coord=coord,
                reduced_values=tuple(reduced_values), root_register=root_reg, root_value=as_digest(register.value),
            )
