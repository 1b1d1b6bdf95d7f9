"""Node coordinates, the stored measurement log tree, and its file format.

Nodes are addressed by bit strings read root-to-leaf: ``"0"`` is the left
child of the root position, ``"01"`` that node's right child, and so on
down to the leaves at length ``depth``. The empty string addresses the
root itself, which lives in a protected register rather than in the log;
the log stores every coordinate of length 1..depth, with ``NIL`` marking
unoccupied positions so that serialization fixes the tree shape.

Inside ``SmlTree`` a node is a position ``(level, index)``: coordinate
``c`` sits at ``(len(c), int(c, 2))``, and each level is one list of raw
values (``bytes``, None for nil) in index order, so a node's children are
``2i`` and ``2i + 1`` one level down and the subtree below a node covers
one contiguous slice per level. ``Digest``/``NIL`` appear only where a
value crosses the public API. Each input is checked once, where it enters
(``set_node``, ``parse_sml``, the device commands), and never further down.
Whole-log work runs as level sweeps; ``recompute_root`` and
``find_inconsistency`` share one row-at-a-time fold. The file format is the
coordinate-string text shown in the README and does not depend on this
layout. ``fold_path`` is the one fold of a node through its sibling list
(its Merkle audit path), on raw values, for an update and a load's trace;
device verifies, node quotes and the receiver's refold of a reduced quote
run ``fold_root``, the same fold kept to its last value.
``read_path`` is the one read of a node's path: its raw value, siblings and
trace by index. The platform hands those raw values to the device;
``build_reduced_tree``/``build_trace`` wrap them as public ``NodeRef`` lists.

``parse_sml`` reads a canonical log as fixed-width runs per level: a level
is a few runs of equal-width value or nil lines (one run when complete), and
each run is checked column by column with stride slices and hex-decoded in
one call, with no Python work per line and bytes read in proportion to its
lines. Any other input, and a level of more than ``_MAX_RUNS`` runs, is
re-read from line 1 by ``_parse_lines``, the per-line parse, which is the
fallback and the one source of error messages and line numbers; both read
the header with ``_parse_header``.

``serialize_sml`` writes each level of the log as one block, with no Python
work per line and one path for every shape. The level's template is
``count`` lines of ``<coord> %s\\n``, prefilled from one line pattern, with
each coordinate column written by a stride slice from ``_coord_column``
(the helper ``_parse_runs`` checks those columns with). The level's values
are hexed in one pass and split; only a level that holds nil has ``nil``
merged in at its positions, and one ``%`` fills the template, which holds
nothing but digits, spaces, ``%s`` and newlines. The writer does not split
a level into runs and has no fallback.
"""

from __future__ import annotations

import copy
import struct
from binascii import hexlify
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .crypto import Digest, HashConfig, SHA1, as_digest, extend_raw, parse_digest, parse_raw
from .encoding import EncodingError

Coord = str

#: hard cap on tree depth; a full node map has 2^(depth+1) - 2 entries
MAX_DEPTH = 20

_FLIP = {"0": "1", "1": "0"}


def check_coord(coord: Coord, depth: int | None = None, allow_root: bool = False) -> Coord:
    """Validate a coordinate string, returning it unchanged."""
    if not isinstance(coord, str) or coord.strip("01"):
        raise ValueError(f"coordinate must be a string of 0/1 digits, got {coord!r}")
    if not coord and not allow_root:
        raise ValueError("the root position has no coordinate inside the log")
    if depth is not None and len(coord) > depth:
        raise ValueError(f"coordinate {coord!r} exceeds tree depth {depth}")
    return coord


def sibling_coord(coord: Coord) -> Coord:
    check_coord(coord)
    return coord[:-1] + _FLIP[coord[-1]]


def trace_coords(coord: Coord) -> list[Coord]:
    """Coordinates on the path from level 1 down to the node itself."""
    check_coord(coord)
    return [coord[:k] for k in range(1, len(coord) + 1)]


def reduced_coords(coord: Coord) -> list[Coord]:
    """Siblings of the trace: entry k is the length-k prefix, last bit negated."""
    check_coord(coord)
    return [coord[: k - 1] + _FLIP[coord[k - 1]] for k in range(1, len(coord) + 1)]


def is_trace_of(refs: Sequence["NodeRef"], coord: Coord) -> bool:
    """True iff ``refs`` name exactly ``trace_coords(coord)``, in order."""
    return len(refs) == len(coord) and all(ref.coord == coord[:k] for k, ref in enumerate(refs, 1))


def is_reduced_of(refs: Sequence["NodeRef"], coord: Coord) -> bool:
    """True iff ``refs`` name exactly ``reduced_coords(coord)``, in order."""
    if len(refs) != len(coord):
        return False
    for k, ref in enumerate(refs):
        if ref.coord != coord[:k] + _FLIP[coord[k]]:
            return False
    return True


def leq(m: Coord, n: Coord) -> bool:
    """True iff n lies on m's path to the root (n is a prefix of m)."""
    check_coord(m, allow_root=True)
    check_coord(n, allow_root=True)
    return m.startswith(n)


def leq_sets(ms: Sequence[Coord], ns: Sequence[Coord]) -> bool:
    """Set lift of leq: every m is dominated by some n."""
    return all(any(leq(m, n) for n in ns) for m in ms)


def leaf_interval(coord: Coord, depth: int) -> tuple[int, int]:
    """Inclusive range of leaf indices covered by the subtree at coord."""
    check_coord(coord, depth, allow_root=True)
    width = 1 << (depth - len(coord))
    start = int(coord, 2) * width if coord else 0
    return start, start + width - 1


class NodeRef(NamedTuple):
    """A coordinate paired with the value claimed or stored there."""

    coord: Coord
    value: Digest


Trace = list[NodeRef]
ReducedTree = list[NodeRef]


def fold_path(
    value: bytes | None, coord: Coord, sibling_values: Sequence[bytes | None], config: HashConfig
) -> list[bytes | None]:
    """Fold a raw node value through its raw sibling list with the ordered extend.

    Entry k of ``sibling_values`` is the sibling at level k + 1; digit k of
    the (checked) coordinate is its order bit, 1 putting the sibling left.
    Returns the values met on the way up: the node's own first, the root
    candidate last.
    """
    if len(sibling_values) != len(coord):
        raise ValueError(f"need {len(coord)} sibling values, got {len(sibling_values)}")
    path, new = [value], config.hasher
    for bit, sibling in zip(reversed(coord), reversed(sibling_values)):
        value = extend_raw(new, sibling, value) if bit == "1" else extend_raw(new, value, sibling)
        path.append(value)
    return path


def fold_root(value: bytes | None, coord: Coord, sibling_values: Sequence[bytes | None], new) -> bytes | None:
    """The last entry of ``fold_path`` (the root candidate), under hashlib's ``new``, with no path built."""
    if len(sibling_values) != len(coord):
        raise ValueError(f"need {len(coord)} sibling values, got {len(sibling_values)}")
    for bit, sibling in zip(reversed(coord), reversed(sibling_values)):
        if value is None:
            value = sibling
        elif sibling is not None:
            value = new(sibling + value if bit == "1" else value + sibling).digest()
    return value


def fold_to_root(value: Digest, coord: Coord, reduced_values: Sequence[Digest], config: HashConfig) -> Digest:
    """``fold_root`` for public digest values."""
    return as_digest(fold_root(value.value, coord, [d.value for d in reduced_values], config.hasher))


class SmlTree:
    """Stored measurement log: a fixed-depth binary tree of digests.

    The tree is a plain value object maintained by the software stack; no
    consistency is enforced on mutation so that tampering can be injected
    for verification tests. Use find_inconsistency() for well-formedness.
    """

    def __init__(self, depth: int, config: HashConfig = SHA1, root_register: int = 0) -> None:
        if not 1 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
        self.depth = depth
        self.config = config
        self.root_register = root_register
        self.leaf_count = 0
        # _levels[k][i] is the raw value at (level k, index i), None for nil;
        # level 0 is the root position, which a register holds, so its one
        # slot stays None
        self._levels: list[list[bytes | None]] = [[None] * (1 << k) for k in range(depth + 1)]

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    def coords(self) -> Iterator[Coord]:
        """All coordinates in breadth-first order."""
        return (c for row in _coord_rows(self.depth) for c in row)

    def leaf_coords(self) -> Iterator[Coord]:
        depth = self.depth
        return (format(i, f"0{depth}b") for i in range(1 << depth))

    def leaf_row(self) -> list[bytes | None]:
        """The raw leaf values in index order, None for nil: the stored row
        itself, for reading without a coordinate per leaf."""
        return self._levels[self.depth]

    def _locate(self, coord: Coord) -> tuple[int, int]:
        check_coord(coord, self.depth)
        return len(coord), int(coord, 2)

    def node(self, coord: Coord) -> Digest:
        level, index = self._locate(coord)
        return as_digest(self._levels[level][index])

    def set_node(self, coord: Coord, value: Digest) -> None:
        level, index = self._locate(coord)
        self._levels[level][index] = self.config.check(value).value

    def set_path(self, level: int, index: int, values: Sequence[bytes | None]) -> None:
        """Write the device's (checked) raw values up from node ``(level, index)``.

        Entry h belongs to the ancestor h levels above the node: a
        tree-extend delta ends at its leaf, a reversed update trace at the
        updated node.
        """
        if not (0 < level <= self.depth and 0 <= index < 1 << level and len(values) <= level):
            raise ValueError(f"no path of {len(values)} nodes above node {index} of level {level}")
        levels = self._levels
        for height, value in enumerate(values):
            levels[level - height][index >> height] = value

    def blank_below(self, coord: Coord) -> None:
        """Set every node strictly below coord to NIL: one slice per level."""
        level, index = self._locate(coord)
        for k in range(level + 1, self.depth + 1):
            shift = k - level
            lo, hi = index << shift, (index + 1) << shift
            self._levels[k][lo:hi] = [None] * (hi - lo)

    def occupied(self) -> Iterator[NodeRef]:
        for level in range(1, self.depth + 1):
            for index, value in enumerate(self._levels[level]):
                if value is not None:
                    yield NodeRef(format(index, f"0{level}b"), Digest(value))

    def copy(self) -> "SmlTree":
        dup = copy.copy(self)
        dup._levels = [row[:] for row in self._levels]
        return dup

    def __eq__(self, other: object) -> bool:
        # depth, config, root register, leaf count and every level
        return vars(self) == vars(other) if isinstance(other, SmlTree) else NotImplemented

    def __repr__(self) -> str:
        occupied = sum(v is not None for row in self._levels for v in row)
        return f"SmlTree(depth={self.depth}, leaves={self.leaf_count}, occupied={occupied})"


def _coord_rows(depth: int) -> Iterator[list[Coord]]:
    """The coordinates of levels 1..depth, one list per level in index order."""
    row = [""]
    for _ in range(depth):
        row = [c + bit for c in row for bit in "01"]
        yield row


def read_path(tree: SmlTree, coord: Coord) -> tuple[bytes | None, list[bytes | None], list[bytes | None]]:
    """A node's raw value, sibling values and trace values as stored (level 1 first).

    The one read of a node's path through the log: ``build_reduced_tree`` and
    ``build_trace`` wrap it, and the platform hands its values straight to
    the device's raw commands. Nothing read here is checked: the log is
    untrusted state, and the device checks what it is given.
    """
    level, index = tree._locate(coord)
    siblings, trace = [], []
    for row in tree._levels[level:0:-1]:
        siblings.append(row[index ^ 1])
        trace.append(row[index])
        index >>= 1
    siblings.reverse()
    trace.reverse()
    return trace[-1], siblings, trace


def build_trace(tree: SmlTree, coord: Coord) -> Trace:
    """Trace of a node as stored in the log (level 1 first)."""
    return [NodeRef(coord[:k], as_digest(value)) for k, value in enumerate(read_path(tree, coord)[2], 1)]


def build_reduced_tree(tree: SmlTree, coord: Coord) -> ReducedTree:
    """Sibling list of a node as stored in the log (level 1 first)."""
    siblings = read_path(tree, coord)[1]
    return [NodeRef(coord[:k] + _FLIP[bit], as_digest(value)) for k, (bit, value) in enumerate(zip(coord, siblings))]


def recompute_root(tree: SmlTree) -> Digest:
    """Recompute the root value from the log without touching the tree.

    Inner values are refolded from below; where a node's children carry
    no information at all, the stored value is kept, so a tree whose
    inner node was legitimately replaced (emptying its subtree) still
    folds to the register value.
    """
    new, levels = tree.config.hasher, tree._levels
    row = levels[tree.depth]
    for level in range(tree.depth - 1, -1, -1):
        row = [kept if folded is None else folded for folded, kept in zip(_fold_row(new, row), levels[level])]
    return as_digest(row[0])


def find_inconsistency(tree: SmlTree, claimed_root: Digest | None = None) -> Coord | None:
    """First coordinate (breadth-first) whose stored value mismatches its children.

    Returns the empty string when the refolded root mismatches
    ``claimed_root``; None when the log is internally consistent.
    """
    new, levels = tree.config.hasher, tree._levels
    for level in range(1, tree.depth):
        folded = _fold_row(new, levels[level + 1])
        if folded != levels[level]:
            index = next(i for i, (a, b) in enumerate(zip(folded, levels[level])) if a != b)
            return format(index, f"0{level}b")
    # every inner value matches its children here, so recompute_root() would
    # return exactly the fold of the two level-1 values
    if claimed_root is not None and _fold_row(new, levels[1])[0] != claimed_root.value:
        return ""
    return None


def _fold_row(new, row: list[bytes | None]) -> list[bytes | None]:
    """The raw values one level up from ``row``: each pair under the nil-unit rule."""
    return [b if a is None else a if b is None else new(a + b).digest() for a, b in zip(row[::2], row[1::2])]


def extract_subtree(tree: SmlTree, coord: Coord) -> SmlTree:
    """Standalone log for the subtree below coord (root value not included)."""
    level, index = tree._locate(coord)
    if level >= tree.depth:
        raise ValueError("cannot extract a subtree below a leaf")
    sub = SmlTree(tree.depth - level, tree.config, root_register=tree.root_register)
    for k in range(1, sub.depth + 1):
        sub._levels[k] = tree._levels[level + k][index << k : (index + 1) << k]
    sub.leaf_count = sum(v is not None for v in sub._levels[sub.depth])
    return sub


@dataclass
class SmlDocument:
    """A parsed log file: the tree plus an optional root register snapshot."""

    tree: SmlTree
    root_value: Digest | None = None
    root_state: str | None = None  # "AR" or "CR" when snapshotted


_MAGIC = "SMLTREE"
_VERSION = "v1"


def serialize_sml(tree: SmlTree, root_value: Digest | None = None, root_state: str | None = None) -> bytes:
    """Render a log as its canonical text file.

    The header carries the hash algorithm, shape, and the root register
    binding; node lines follow in breadth-first order. When given, the
    root register's value and state are snapshotted into the header so a
    later process can restore the protected register alongside the log.
    """
    head = [
        _MAGIC,
        _VERSION,
        f"alg={tree.config.algorithm}",
        f"depth={tree.depth}",
        f"leaves={tree.leaf_count}",
        f"root-reg={tree.root_register}",
    ]
    if root_value is not None:
        head.append(f"root={root_value.to_text()}")
    if root_state is not None:
        if root_state not in ("AR", "CR"):
            raise ValueError(f"root state must be AR or CR, got {root_state!r}")
        head.append(f"state={root_state}")
    blocks = [" ".join(head).encode("ascii") + b"\n"]
    blocks += [_level_lines(row, level, tree.config.size) for level, row in enumerate(tree._levels[1:], 1)]
    return b"".join(blocks)


def _level_lines(row: list[bytes | None], level: int, size: int) -> bytes:
    """The node lines of one level as one block: ``<coord> <hex or nil>\\n`` each."""
    count, width = len(row), level + 4
    # count lines of ``<coord> %s\n``: only 0, 1, space, %s and newline, so one % fills it
    template = bytearray(b"0" * level + b" %s\n") * count
    for j in range(level):  # digit j of a coordinate is bit level-1-j of its index
        template[j::width] = _coord_column(level - 1 - j, 0, count)
    texts = hexlify(b"".join(filter(None, row)), b" ", size).split()
    if len(texts) < count:  # fewer fields than lines: the level holds nil, as no digest is empty
        values = iter(texts)
        texts = [b"nil" if value is None else next(values) for value in row]
    return template % tuple(texts)


def parse_sml(data: bytes) -> SmlDocument:
    """Parse serialize_sml() output; errors carry the offending line number.

    A canonical log is read as fixed-width runs per level (``_parse_runs``);
    any other input is re-read line by line (``_parse_lines``), which gives
    every error.
    """
    doc = _parse_runs(data)
    return _parse_lines(data) if doc is None else doc


class _Header(NamedTuple):
    config: HashConfig
    depth: int
    leaves: int
    root_register: int
    root_value: Digest | None
    root_state: str | None

    def empty_tree(self) -> SmlTree:
        tree = SmlTree(self.depth, self.config, root_register=self.root_register)
        tree.leaf_count = self.leaves
        return tree


def _parse_header(line: str) -> _Header:
    """The header line of either parse; errors name line 1."""
    head = line.split()
    if len(head) < 6 or head[0] != _MAGIC or head[1] != _VERSION:
        raise EncodingError("line 1: bad magic or version")
    fields: dict[str, str] = {}
    for token in head[2:]:
        key, sep, value = token.partition("=")
        if not sep or key in fields:
            raise EncodingError(f"line 1: bad header token {token!r}")
        fields[key] = value
    try:
        config = HashConfig(fields["alg"])
        depth = int(fields["depth"])
        leaves = int(fields["leaves"])
        root_register = int(fields["root-reg"])
    except (KeyError, ValueError) as exc:
        raise EncodingError(f"line 1: bad header: {exc}") from exc
    if not 1 <= depth <= MAX_DEPTH:
        raise EncodingError(f"line 1: depth {depth} out of range")
    if not 0 <= leaves <= 1 << depth:
        raise EncodingError(f"line 1: leaf count {leaves} out of range")

    root_value: Digest | None = None
    if "root" in fields:
        try:
            root_value = parse_digest(fields["root"], config.size)
        except ValueError as exc:
            raise EncodingError(f"line 1: {exc}") from exc
    root_state = fields.get("state")
    if root_state is not None and root_state not in ("AR", "CR"):
        raise EncodingError(f"line 1: bad root state {root_state!r}")
    return _Header(config, depth, leaves, root_register, root_value, root_state)


def _parse_lines(data: bytes) -> SmlDocument:
    """The line-by-line parse: it accepts exactly what ``parse_sml`` accepts
    and is the one source of its error messages and line numbers."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"log file is not ascii: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise EncodingError("line 1: empty log file")
    header = _parse_header(lines[0])
    depth = header.depth
    node_count = (1 << (depth + 1)) - 2
    if len(lines) - 1 != node_count:
        raise EncodingError(f"line {len(lines)}: expected {node_count} node lines, got {len(lines) - 1}")
    # the header is checked against the lines before the tree is allocated
    tree = header.empty_tree()
    size = header.config.size
    start = 1  # lines[start] is the first node line of the current level
    for coords, row in zip(_coord_rows(depth), tree._levels[1:]):
        for index, (line, coord) in enumerate(zip(lines[start : start + len(coords)], coords)):
            parts = line.split()
            if len(parts) != 2:
                raise EncodingError(f"line {start + index + 1}: expected '<coord> <digest>'")
            if parts[0] != coord:
                raise EncodingError(f"line {start + index + 1}: expected coordinate {coord}, got {parts[0]}")
            try:
                row[index] = parse_raw(parts[1], size)
            except ValueError as exc:
                raise EncodingError(f"line {start + index + 1}: {exc}") from exc
        start += len(coords)
    return SmlDocument(tree, header.root_value, header.root_state)


_NIL_TAIL = b" nil\n"
#: runs per level past which a log is left to the line parse: many short runs
#: cost more Python work each than the lines they hold
_MAX_RUNS = 64
_FIRST = itemgetter(0)


def _parse_runs(data: bytes) -> SmlDocument | None:
    """The document of a canonical log, or None for any other input.

    Node lines come as they are written: level by level, each level a few
    runs of equal-width lines (``<coord> <hex>\\n`` or ``<coord> nil\\n``).
    Every byte of a run is checked by column with stride slices and its
    hex decoded in one call, so no Python runs per line. Whatever this
    refuses is left to ``_parse_lines``, so it reports nothing itself.
    """
    start = data.find(b"\n") + 1
    if not start:
        return None
    try:
        line = data[: start - 1].decode("ascii")
        header = _parse_header(line)
    except ValueError:  # not ascii, or a bad header: _parse_lines words the error
        return None
    depth = header.depth
    # the header must be the first line splitlines() finds, and the body
    # long enough for every level as nil lines before a tree is allocated
    if line.splitlines() != [line]:
        return None
    if len(data) - start < sum((level + 5) << level for level in range(1, depth + 1)):
        return None
    tree = header.empty_tree()
    pos = start
    for level in range(1, depth + 1):
        pos = _parse_level(data, pos, level, header.config.size, tree._levels[level])
        if pos is None:
            return None
    return SmlDocument(tree, header.root_value, header.root_state) if pos == len(data) else None


def _parse_level(data: bytes, pos: int, level: int, size: int, row: list[bytes | None]) -> int | None:
    """Fill ``row`` from the canonical lines of its level at ``data[pos:]``.

    Returns the offset after the level, or None where a line is not
    canonical or the level splits into more than ``_MAX_RUNS`` runs. A run
    is a maximal stretch of nil lines or of value lines; a value line's
    digest never starts with ``n``, so that one column marks where each run
    ends. Each run costs bytes in proportion to its lines, and the cap on
    runs bounds the Python work per level.
    """
    index = 0
    for _ in range(_MAX_RUNS):
        if index == len(row):
            break
        nil = data.startswith(_NIL_TAIL, pos + level)
        width = level + 5 if nil else level + 2 + 2 * size
        count = _run_length(data, pos + level + 1, width, len(row) - index, nil)
        if not count:
            return None
        end = pos + count * width
        for j in range(level):  # digit j of a coordinate flips every 2^(level-1-j) lines
            if data[pos + j : end : width] != _coord_column(level - 1 - j, index, count):
                return None
        tail = enumerate(_NIL_TAIL, level) if nil else zip((level, width - 1), b" \n")
        for offset, char in tail:
            if data[pos + offset : end : width] != bytes((char,)) * count:
                return None
        if not nil:
            block = data[pos:end]
            if level & 1:  # fromhex reads digit pairs: blank one digit of an odd-length coordinate
                block = bytearray(block)
                block[::width] = b" " * count
            try:
                raw = bytes.fromhex(block.decode("ascii"))
            except ValueError:
                return None
            # the coordinate digits decode to ``pad`` bytes that the unpack skips;
            # whitespace in a digest field shortens it, anything else but hex raised
            pad = level // 2
            if len(raw) != count * (pad + size):
                return None
            row[index : index + count] = map(_FIRST, struct.iter_unpack(f"{pad}x{size}s", raw))
        index += count
        pos = end
    return pos if index == len(row) else None


def _run_length(data: bytes, first: int, width: int, limit: int, nil: bool) -> int:
    """How many lines, up to ``limit``, from the line whose marker byte is at
    ``data[first]``, have a nil marker (``n``) if ``nil`` and a value marker if
    not. The window read doubles each time it is all one kind, so the bytes
    read stay within a constant factor of the answer."""
    count, window = 0, 16
    while count < limit:
        window = min(2 * window, limit - count)
        markers = data[first + count * width : first + (count + window) * width : width]
        if nil:
            found = len(markers) - len(markers.lstrip(b"n"))
        else:
            found = markers.find(b"n")
            found = len(markers) if found < 0 else found
        count += found
        if found < window:
            break
    return count


def _coord_column(shift: int, start: int, count: int) -> bytes:
    """Bit ``shift`` of each index start..start+count-1, as ASCII digits,
    built in bytes proportional to ``count``."""
    half = 1 << shift
    if half < count:
        offset = start & (2 * half - 1)
        return ((b"0" * half + b"1" * half) * ((offset + count) // (2 * half) + 1))[offset : offset + count]
    # the lines span at most the end of one block of equal digits and the start of the next
    head = min(count, half - (start & (half - 1)))
    digits = b"10" if start >> shift & 1 else b"01"
    return digits[:1] * head + digits[1:] * (count - head)
