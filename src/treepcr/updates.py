"""Applying dependency-free update sets to a tree, naively or in bulk.

The naive path runs one verified update per entry. The bulk path first
looks for *intrinsic* subsets: groups of entries whose common ancestor
refolds from the new values alone, with no old log value in reach. Each
such group is pre-folded in a scratch tree with ordinary extends (nil
padding aligns members sitting at different levels), and only the group's
span root goes through a verified update. Both paths end in identical
logs and roots; the bulk path spends fewer verified operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certification import check_dependency_free
from .crypto import NIL, Digest
from .engine import TreeTpm
from .platform import Platform
from .tree import NodeRef, check_coord

MEMBER = "member"
DERIVED = "derived"


class UpdateRejected(Exception):
    """A verified update inside a batch was refused; earlier entries stay applied."""

    def __init__(self, coord: str, applied: int) -> None:
        super().__init__(f"verified update rejected at {coord} after {applied} applied entries")
        self.coord = coord
        self.applied = applied


@dataclass(frozen=True)
class IntrinsicSubset:
    """Entries whose spanned subtree refolds from the update set alone."""

    span_root: str
    members: tuple[NodeRef, ...]


def apply_update_set(entries: list[NodeRef], platform: Platform) -> Digest:
    """One verified update per entry, in coordinate order."""
    ordered = sorted(entries, key=lambda e: e.coord)
    _check_entries(ordered, platform.depth)
    for applied, entry in enumerate(ordered):
        if platform.verified_update(entry.coord, entry.value) is None:
            raise UpdateRejected(entry.coord, applied)
    return platform.root()


def find_intrinsic_subsets(entries: list[NodeRef], depth: int) -> list[IntrinsicSubset]:
    """Maximal disjoint intrinsic subsets of a dependency-free update set.

    Statuses propagate bottom-up: an entry coordinate is a member; a
    parent whose children are both members, or both derived, is derived.
    A mixed member/derived pair stops the span (the member would be
    swallowed by a higher verified update for no gain), as does any
    sibling not covered at all. Singletons are never reported: folding
    one value buys nothing over the naive path.
    """
    _check_entries(entries, depth)
    status: dict[str, str] = {e.coord: MEMBER for e in entries}
    # deepest level first; level 1 pairs never merge (the root position is
    # a register, not an updatable log node)
    for level in range(max(map(len, status), default=0), 1, -1):
        for coord in [c for c in status if len(c) == level and c[-1] == "0"]:
            if status[coord] == status.get(coord[:-1] + "1"):
                status[coord[:-1]] = DERIVED

    # a member belongs to its topmost derived prefix, which is maximal
    spans: dict[str, list[NodeRef]] = {}
    for entry in sorted(entries, key=lambda e: e.coord):
        coord = entry.coord
        top = next((coord[:k] for k in range(1, len(coord)) if status.get(coord[:k]) is DERIVED), None)
        if top is not None:
            spans.setdefault(top, []).append(entry)
    return [IntrinsicSubset(root, tuple(members)) for root, members in spans.items()]


def scratch_fold(subset: IntrinsicSubset, engine: TreeTpm) -> Digest:
    """Pre-fold an intrinsic subset in a scratch tree on the device.

    Member coordinates are normalised relative to the span root and
    zero-padded to the span depth; the padding plus nil gap values parks
    higher-level members in the right fold position.
    """
    span = subset.span_root
    span_depth = max(len(m.coord) for m in subset.members) - len(span)
    positions = {
        int((m.coord[len(span):]).ljust(span_depth, "0"), 2): m.value.value for m in subset.members
    }
    scratch = engine.create_tree(span_depth)
    try:
        for index in range(max(positions) + 1):
            engine.tree_extend_raw(scratch, positions.get(index))
        return engine.register_value(scratch)
    finally:
        engine.release(scratch)


def apply_update_set_bulk(entries: list[NodeRef], platform: Platform) -> Digest:
    """Bulk application: pre-fold intrinsic subsets, then update span roots.

    The final log and root match the naive path exactly; member values
    and the derived inner values are written back into the mirror after
    each span-root update.
    """
    subsets = find_intrinsic_subsets(entries, platform.depth)
    spanned = {m.coord for subset in subsets for m in subset.members}
    work: list[tuple[NodeRef, IntrinsicSubset | None]] = [
        (entry, None) for entry in entries if entry.coord not in spanned
    ]
    for subset in subsets:
        work.append((NodeRef(subset.span_root, scratch_fold(subset, platform.engine)), subset))

    applied = 0
    for entry, subset in sorted(work, key=lambda item: item[0].coord):
        if platform.verified_update(entry.coord, entry.value) is None:
            raise UpdateRejected(entry.coord, applied)
        applied += 1
        if subset is not None:
            _fill_span(platform, subset)
    return platform.root()


def _fill_span(platform: Platform, subset: IntrinsicSubset) -> None:
    """Write member values and refolded inner values below a span root."""
    tree = platform.tree
    members = {m.coord: m.value for m in subset.members}
    deepest = max(len(c) for c in members)
    for level in range(deepest, len(subset.span_root), -1):
        for coord in sorted(c for c in members if len(c) == level):
            tree.set_node(coord, members[coord])
            parent = coord[:-1]
            if parent != subset.span_root and parent not in members:
                members[parent] = tree.config.extend(
                    members.get(parent + "0", NIL), members.get(parent + "1", NIL)
                )


def _check_entries(entries: list[NodeRef], depth: int) -> None:
    for entry in entries:
        check_coord(entry.coord, depth)
    check_dependency_free(list(entries))
