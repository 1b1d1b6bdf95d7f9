"""Reference values computed with hashlib alone.

Nothing here imports the package under test: the benchmark compares the
package's roots, node values, quotes and audit results against these
brute-force computations. Nodes are kept per level as lists indexed by
position, so a coordinate string ``c`` lives at ``levels[len(c)][int(c, 2)]``
and ``None`` stands for the empty (nil) value.
"""

from __future__ import annotations

import hashlib


def hash_extend(hasher, x: bytes | None, y: bytes | None) -> bytes | None:
    """H(x || y) with None as a two-sided unit."""
    if x is None:
        return y
    if y is None:
        return x
    return hasher(x + y).digest()


def refold(hasher, value: bytes | None, coord: str, siblings) -> bytes | None:
    """Fold a node value through its sibling values (level 1 first) to the root."""
    acc = value
    for k in range(len(coord), 0, -1):
        sib = siblings[k - 1]
        acc = hash_extend(hasher, sib, acc) if coord[k - 1] == "1" else hash_extend(hasher, acc, sib)
    return acc


class ReferenceTree:
    """A full binary tree of digests, recomputed bottom-up with hashlib."""

    def __init__(self, alg: str, depth: int, leaves: list[bytes]) -> None:
        self.alg = alg
        self.hasher = getattr(hashlib, alg)
        self.depth = depth
        padded = list(leaves) + [None] * ((1 << depth) - len(leaves))
        self.levels: list[list[bytes | None]] = [[] for _ in range(depth + 1)]
        self.levels[depth] = padded
        for level in range(depth - 1, -1, -1):
            below = self.levels[level + 1]
            self.levels[level] = [
                hash_extend(self.hasher, below[2 * i], below[2 * i + 1]) for i in range(1 << level)
            ]

    @property
    def root(self) -> bytes | None:
        return self.levels[0][0]

    def value(self, coord: str) -> bytes | None:
        return self.levels[len(coord)][int(coord, 2) if coord else 0]

    def siblings(self, coord: str) -> list[bytes | None]:
        out = []
        for k in range(1, len(coord) + 1):
            prefix = coord[:k]
            out.append(self.value(prefix[:-1] + ("0" if prefix[-1] == "1" else "1")))
        return out

    def copy(self) -> "ReferenceTree":
        dup = ReferenceTree.__new__(ReferenceTree)
        dup.alg, dup.hasher, dup.depth = self.alg, self.hasher, self.depth
        dup.levels = [list(level) for level in self.levels]
        return dup

    def update(self, coord: str, new_value: bytes) -> bytes | None:
        """Replace one node, blank everything below it, refold its ancestors."""
        level, index = len(coord), int(coord, 2)
        self.levels[level][index] = new_value
        for below in range(level + 1, self.depth + 1):
            shift = below - level
            start = index << shift
            self.levels[below][start : start + (1 << shift)] = [None] * (1 << shift)
        for up in range(level - 1, -1, -1):
            index >>= 1
            self.levels[up][index] = hash_extend(
                self.hasher, self.levels[up + 1][2 * index], self.levels[up + 1][2 * index + 1]
            )
        return self.root

    def first_inconsistency(self, coord: str, value: bytes) -> str | None:
        """Breadth-first scan of this log with one node overridden.

        Returns the first inner coordinate whose value differs from the
        hash of its children, or None.
        """
        levels = [list(level) for level in self.levels]
        levels[len(coord)][int(coord, 2)] = value
        for level in range(1, self.depth):
            row, below = levels[level], levels[level + 1]
            for index in range(1 << level):
                if hash_extend(self.hasher, below[2 * index], below[2 * index + 1]) != row[index]:
                    return format(index, f"0{level}b")
        return None

    def maximal_matches(self, coord: str, wanted: set[bytes]) -> int:
        """Count the topmost nodes at or below coord whose value is in ``wanted``."""
        value = self.value(coord)
        if value is not None and value in wanted:
            return 1
        if len(coord) == self.depth:
            return 0
        return self.maximal_matches(coord + "0", wanted) + self.maximal_matches(coord + "1", wanted)
