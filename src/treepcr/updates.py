"""Applying dependency-free update sets to a tree, naively or in bulk.

The naive path runs one verified update per entry. The bulk path first
looks for *intrinsic* subsets: groups of entries whose common ancestor
refolds from the new values alone, with no old log value in reach. Each
such group is folded once, by one device command (``tree_fold_raw``) on
borrowed registers, level by level in a nil-padded scratch tree (the nil
padding aligns members sitting at different levels), and only the group's
span root goes through a verified update. The span's log is then written
from the rows that fold returned, with nothing refolded. Both paths end in
identical logs and roots; the bulk path spends fewer verified operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .certification import check_dependency_free
from .crypto import Digest, as_digest
from .engine import TreeTpm
from .platform import Platform
from .tree import NodeRef, SmlTree, check_coord

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
    one value buys nothing over the naive path. Statuses sit at ``(level,
    index)`` positions, one bucket per level, and each member walks up
    its derived ancestors once to find its span root.
    """
    _check_entries(entries, depth)
    ordered = sorted(entries)  # by coordinate: the coordinates are distinct
    rows: list[dict[int, str]] = [{} for _ in range(depth + 1)]
    for entry in ordered:
        rows[len(entry.coord)][int(entry.coord, 2)] = MEMBER
    # deepest level first; level 1 pairs never merge (the root position is
    # a register, not an updatable log node)
    for level in range(depth, 1, -1):
        row, up = rows[level], rows[level - 1]
        for index, status in row.items():
            if not index & 1 and row.get(index | 1) == status:
                up[index >> 1] = DERIVED

    # a member belongs to its topmost derived ancestor, which is maximal (no
    # member lies above another, so any status above one is derived);
    # members come in coordinate order, so spans do too
    spans: dict[tuple[int, int], list[NodeRef]] = {}
    for entry in ordered:
        level = top = len(entry.coord)
        index = int(entry.coord, 2)
        while top > 1 and index >> 1 in rows[top - 1]:
            top, index = top - 1, index >> 1
        if top < level:
            spans.setdefault((top, index), []).append(entry)
    return [IntrinsicSubset(format(index, f"0{top}b"), tuple(members)) for (top, index), members in spans.items()]


def scratch_fold(subset: IntrinsicSubset, engine: TreeTpm) -> Digest:
    """Pre-fold an intrinsic subset in one device command; its span root's new value."""
    return as_digest(_fold(subset, engine)[-1][0])


def _fold(subset: IntrinsicSubset, engine: TreeTpm) -> list[list[bytes | None]]:
    """The device's fold rows of a subset, leaves first (``TreeTpm.tree_fold_raw``).

    Member coordinates are normalised relative to the span root and
    zero-padded to the span depth; the padding plus nil gap values parks
    higher-level members in the right fold position.
    """
    top = len(subset.span_root)
    span_depth = max(len(m.coord) for m in subset.members) - top
    positions = {int(m.coord[top:].ljust(span_depth, "0"), 2): m.value.value for m in subset.members}
    row: list[bytes | None] = [None] * (max(positions) + 1)
    for index, value in positions.items():
        row[index] = value
    return engine.tree_fold_raw(span_depth, row)


def apply_update_set_bulk(entries: list[NodeRef], platform: Platform) -> Digest:
    """Bulk application: pre-fold intrinsic subsets, then update span roots.

    The final log and root match the naive path exactly. After each span
    root's verified update, the span is filled from its fold's rows under
    the same hold of the device lock, so a concurrent reader never sees
    the span root without its members.
    """
    subsets = find_intrinsic_subsets(entries, platform.depth)
    spanned = {m.coord for subset in subsets for m in subset.members}
    work: list[tuple[str, Digest, IntrinsicSubset | None, list[list[bytes | None]]]] = [
        (entry.coord, entry.value, None, []) for entry in entries if entry.coord not in spanned
    ]
    for subset in subsets:
        rows = _fold(subset, platform.engine)
        work.append((subset.span_root, as_digest(rows[-1][0]), subset, rows))

    applied = 0
    for coord, value, subset, rows in sorted(work, key=itemgetter(0)):
        with platform.engine._lock:
            if platform.verified_update(coord, value) is None:
                raise UpdateRejected(coord, applied)
            if subset is not None:
                _fill_span(platform.tree, subset, rows)
        applied += 1 if subset is None else len(subset.members)
    return platform.root()


def _fill_span(tree: SmlTree, subset: IntrinsicSubset, rows: list[list[bytes | None]]) -> None:
    """Write a span's fold rows below its root, one slice per level.

    The device checked every member value when it folded them. A member
    above the span's deepest level parked its value down its leftmost
    descendants; those are blanked in the rows first.
    """
    top, height = len(subset.span_root), len(rows) - 1
    for member in subset.members:
        level, index = len(member.coord) - top, int(member.coord[top:], 2)  # relative to the span root
        for below in range(1, height - level + 1):
            rows[height - level - below][index << below] = None
    tree.set_rows(top, int(subset.span_root, 2), rows)


def _check_entries(entries: list[NodeRef], depth: int) -> None:
    for entry in entries:
        check_coord(entry.coord, depth)
    check_dependency_free(list(entries))
