"""Independent reference implementations the test suite checks against.

Everything here is brute force over plain dicts of ``bytes | None``
(None = empty) and talks to hashlib directly, so no code path is shared
with the package under test. The one exception is
``brute_bottom_up_candidates``: the earlier quadratic bottom-up discovery,
kept as written, which reads an ``SmlTree`` and returns the package's own
candidate objects so whole results can be compared.
"""

from __future__ import annotations

import hashlib
import random


def oracle_extend(x: bytes | None, y: bytes | None, alg: str = "sha1") -> bytes | None:
    if x is None:
        return y
    if y is None:
        return x
    return hashlib.new(alg, x + y).digest()


def oracle_chiral(x: bytes | None, bit: str, y: bytes | None, alg: str = "sha1") -> bytes | None:
    return oracle_extend(x, y, alg) if bit == "1" else oracle_extend(y, x, alg)


def build_full_tree(
    leaves: list[bytes | None], depth: int, alg: str = "sha1"
) -> tuple[dict[str, bytes | None], bytes | None]:
    """All node values plus the root, recomputed bottom-up from the leaves."""
    assert len(leaves) <= 1 << depth
    nodes: dict[str, bytes | None] = {}
    padded = list(leaves) + [None] * ((1 << depth) - len(leaves))
    for i, value in enumerate(padded):
        nodes[format(i, f"0{depth}b")] = value
    for level in range(depth - 1, 0, -1):
        for i in range(1 << level):
            coord = format(i, f"0{level}b")
            nodes[coord] = oracle_extend(nodes[coord + "0"], nodes[coord + "1"], alg)
    if depth >= 1:
        root = oracle_extend(nodes["0"], nodes["1"], alg)
    else:
        root = None
    return nodes, root


def oracle_trace(nodes: dict[str, bytes | None], coord: str) -> list[bytes | None]:
    return [nodes[coord[:k]] for k in range(1, len(coord) + 1)]


def oracle_reduced(nodes: dict[str, bytes | None], coord: str) -> list[bytes | None]:
    out = []
    for k in range(1, len(coord) + 1):
        prefix = coord[:k]
        out.append(nodes[prefix[:-1] + ("0" if prefix[-1] == "1" else "1")])
    return out


def oracle_fold(
    value: bytes | None, coord: str, reduced: list[bytes | None], alg: str = "sha1"
) -> bytes | None:
    acc = value
    for k in range(len(coord), 0, -1):
        acc = oracle_chiral(reduced[k - 1], coord[k - 1], acc, alg)
    return acc


def oracle_update(
    nodes: dict[str, bytes | None],
    coord: str,
    new_value: bytes | None,
    alg: str = "sha1",
) -> tuple[dict[str, bytes | None], bytes | None]:
    """Replace one node, recompute its ancestors, blank its subtree."""
    updated = dict(nodes)
    updated[coord] = new_value
    for below in nodes:
        if len(below) > len(coord) and below.startswith(coord):
            updated[below] = None
    for k in range(len(coord) - 1, 0, -1):
        prefix = coord[:k]
        updated[prefix] = oracle_extend(updated[prefix + "0"], updated[prefix + "1"], alg)
    root = oracle_extend(updated["0"], updated["1"], alg)
    return updated, root


def oracle_refold(nodes: dict[str, bytes | None], depth: int, alg: str = "sha1") -> bytes | None:
    """Root refolded from the leaves by recursion over coordinate strings.

    An inner node whose children both fold to nothing keeps its stored
    value, which is how a legitimately replaced node looks in the log.
    """

    def fold(coord: str) -> bytes | None:
        if len(coord) == depth:
            return nodes[coord]
        left, right = fold(coord + "0"), fold(coord + "1")
        if left is None and right is None:
            return nodes[coord] if coord else None
        return oracle_extend(left, right, alg)

    return fold("")


def oracle_first_inconsistency(nodes: dict[str, bytes | None], depth: int, alg: str = "sha1") -> str | None:
    """Breadth-first scan for the first inner node that differs from the extend of its children."""
    for coord in sorted(nodes, key=lambda c: (len(c), c)):
        if len(coord) < depth and nodes[coord] != oracle_extend(nodes[coord + "0"], nodes[coord + "1"], alg):
            return coord
    return None


def random_leaves(rng: random.Random, depth: int, alg: str = "sha1", count: int | None = None) -> list[bytes]:
    size = hashlib.new(alg).digest_size
    if count is None:
        count = rng.randint(0, 1 << depth)
    return [rng.randbytes(size) for _ in range(count)]


def random_digest(rng: random.Random, alg: str = "sha1") -> bytes:
    return rng.randbytes(hashlib.new(alg).digest_size)


def flip_bit(raw: bytes, position: int) -> bytes:
    byte, bit = divmod(position % (len(raw) * 8), 8)
    out = bytearray(raw)
    out[byte] ^= 1 << bit
    return bytes(out)


# -- update sets ---------------------------------------------------------------


def oracle_dependency_free(coords: list[str]) -> str | None:
    """Why an update set is refused, comparing every pair; None if it is not.

    Entries are taken in list order; for each, every other entry is tried
    as a prefix, so the reported pair is the first offending entry with
    the earliest listed entry above it. A malformed coordinate reports
    ``"malformed"``.
    """
    if len(set(coords)) != len(coords):
        return "duplicate coordinates in update set"
    for a in coords:
        if any(ch not in "01" for ch in a):
            return "malformed"
        for b in coords:
            if a != b and a[: len(b)] == b:
                return f"update set is not dependency-free: {a} lies below {b}"
    return None


# -- intrinsic-subset fixpoint -------------------------------------------------


def fixpoint_intrinsic_subsets(coords: set[str]) -> list[tuple[str, tuple[str, ...]]]:
    """Iterate the member/derived statuses to a fixpoint.

    Same convention as the package, reached by a different route: sweep
    until stable instead of a single ordered pass. A parent becomes
    derived when its children hold equal non-empty statuses; the root
    position never acquires one.
    """
    status: dict[str, str] = {c: "member" for c in coords}
    changed = True
    while changed:
        changed = False
        for coord in list(status):
            if len(coord) < 2:
                continue
            sibling = coord[:-1] + ("0" if coord[-1] == "1" else "1")
            parent = coord[:-1]
            if parent in status:
                continue
            if status.get(coord) and status.get(coord) == status.get(sibling):
                status[parent] = "derived"
                changed = True
    spans = []
    for coord, kind in sorted(status.items()):
        if kind != "derived":
            continue
        if status.get(coord[:-1]) == "derived":
            continue
        members = tuple(sorted(c for c in coords if c.startswith(coord)))
        spans.append((coord, members))
    return spans


# -- brute-force discovery ------------------------------------------------------


def brute_active_matches(
    nodes: dict[str, bytes | None],
    depth: int,
    values: set[bytes],
    conditions: list[tuple[bytes, bytes]],
) -> list[str]:
    """Scan every occupied node; apply left-of conditions by leaf intervals."""

    def interval(coord: str) -> tuple[int, int]:
        width = 1 << (depth - len(coord))
        start = int(coord, 2) * width
        return start, start + width - 1

    occupied = [(c, v) for c, v in nodes.items() if v is not None]
    out = []
    for coord, value in occupied:
        if value not in values:
            continue
        good = True
        for target, pred in conditions:
            if value != target:
                continue
            start, _ = interval(coord)
            if not any(v == pred and interval(c)[1] < start for c, v in occupied):
                good = False
                break
        if good:
            out.append(coord)
    return sorted(out)


def brute_span_candidates(
    nodes: dict[str, bytes | None], depth: int, leaf_values: set[bytes]
) -> list[str]:
    """Maximal coords whose occupied leaves all carry trusted values."""
    leaves = {c: v for c, v in nodes.items() if len(c) == depth and v is not None}

    def full(coord: str) -> bool:
        under = [c for c in leaves if c.startswith(coord)]
        return bool(under) and all(leaves[c] in leaf_values for c in under)

    out = []
    for coord in [""] + sorted(nodes, key=lambda c: (len(c), c)):
        if full(coord) and (not coord or not full(coord[:-1])):
            out.append(coord)
    return sorted(out, key=lambda c: (len(c), c))


def brute_bottom_up_candidates(tree, data):
    """Reference bottom-up discovery: rescans the occupied leaves under every
    coordinate (quadratic); returns the same DiscoveryResult shape."""
    from treepcr.discovery import DiscoveryResult, SpanCandidate
    from treepcr.tree import recompute_root

    if not data.leaf_values:
        raise ValueError("bottom-up discovery needs leaf values")
    known: dict[str, bool] = {}
    occupied: dict[str, list[str]] = {}
    for coord in tree.leaf_coords():
        value = tree.node(coord)
        if not value.is_nil:
            known[coord] = value in data.leaf_values
            occupied[coord] = [coord]

    def leaves_under(coord: str) -> list[str]:
        return [c for c in occupied if c.startswith(coord)]

    def full(coord: str) -> bool:
        leaves = leaves_under(coord)
        return bool(leaves) and all(known[c] for c in leaves)

    candidates: list[SpanCandidate] = []
    gapped_done: set[str] = set()
    spans = [""] + [c for c in tree.coords()]
    for coord in spans:
        if not full(coord):
            continue
        if coord and full(coord[:-1]):
            continue  # parent reports instead; keep candidates maximal
        value = tree.node(coord) if coord else recompute_root(tree)
        candidates.append(SpanCandidate(coord, value, full=True))
        if coord:
            parent = coord[:-1]
            if parent not in gapped_done:
                gapped_done.add(parent)
                missing = tuple(sorted(c for c in leaves_under(parent) if not known[c]))
                parent_value = tree.node(parent) if parent else recompute_root(tree)
                candidates.append(SpanCandidate(parent, parent_value, full=False, missing=missing))
    candidates.sort(key=lambda c: (len(c.coord), c.coord, not c.full))
    return DiscoveryResult(candidates=candidates)


def brute_certifiable_roots(
    nodes: dict[str, bytes | None], depth: int, coord: str, root: bytes | None, values: set[bytes]
) -> list[tuple[str, bytes]]:
    """Maximal nodes at or below ``coord`` whose value is in ``values``, as
    (coordinate, value), by recursion with the left child first; the root
    position's value is ``root``, and nil is never listed."""

    def walk(at: str) -> list[tuple[str, bytes]]:
        value = nodes[at] if at else root
        if value is not None and value in values:
            return [(at, value)]
        if len(at) == depth:
            return []
        return walk(at + "0") + walk(at + "1")

    return walk(coord)
