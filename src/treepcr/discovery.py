"""Finding certifiable subtrees.

Active discovery runs on the platform over issuer-supplied discovery
data: direct node-value search with optional relative-order conditions,
and a bottom-up mode that guesses span roots from trusted leaf values.
The direct search is one level sweep of the log (``tree.find_values``)
for the certifiable and predecessor values together, with no Python work
per node.
Passive discovery runs on the issuer over a submitted subtree log; it
issues certificates, so it lives in the authority (``sca.py``) beside
the active issuance route and is re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .crypto import Digest, HashConfig, SHA1, parse_digest
from .sca import PassiveResult, passive_discover  # noqa: F401  (re-exported)
from .tree import NodeRef, SmlTree, find_values, recompute_root


@dataclass(frozen=True)
class DiscoveryData:
    """What an issuer is prepared to certify.

    ``values`` are node values certifiable anywhere; ``conditions`` are
    (target, required predecessor) pairs restricting a target to trees
    where some node with the predecessor value lies entirely to its left;
    ``leaf_values`` feed the bottom-up span guess.
    """

    values: frozenset[Digest] = frozenset()
    conditions: tuple[tuple[Digest, Digest], ...] = ()
    leaf_values: frozenset[Digest] = frozenset()

    def __post_init__(self) -> None:
        if self.values & self.leaf_values:
            raise ValueError("a digest cannot play both the value and the leaf role")
        for target, _ in self.conditions:
            if target not in self.values:
                raise ValueError(f"condition target {target.to_text()} is not a certifiable value")

    def to_text(self) -> str:
        lines = ["DISCOVERY v1"]
        for value in sorted(self.values, key=Digest.to_text):
            lines.append(f"value {value.to_text()}")
        for value in sorted(self.leaf_values, key=Digest.to_text):
            lines.append(f"leaf {value.to_text()}")
        for target, pred in self.conditions:
            lines.append(f"cond {target.to_text()} {pred.to_text()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, config: HashConfig = SHA1) -> "DiscoveryData":
        numbered = ((lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1))
        lines = [(lineno, ln) for lineno, ln in numbered if ln and not ln.startswith("#")]
        if not lines or lines[0][1] != "DISCOVERY v1":
            raise ValueError("discovery data: bad header")
        values, leaves, conds = set(), set(), []
        for lineno, line in lines[1:]:
            parts = line.split()
            try:
                if parts[0] == "value" and len(parts) == 2:
                    values.add(parse_digest(parts[1], config.size))
                elif parts[0] == "leaf" and len(parts) == 2:
                    leaves.add(parse_digest(parts[1], config.size))
                elif parts[0] == "cond" and len(parts) == 3:
                    conds.append((parse_digest(parts[1], config.size), parse_digest(parts[2], config.size)))
                else:
                    raise ValueError(f"bad entry {line!r}")
            except ValueError as exc:
                raise ValueError(f"discovery data line {lineno}: {exc}") from exc
        return cls(frozenset(values), tuple(conds), frozenset(leaves))


@dataclass(frozen=True)
class SpanCandidate:
    """A guessed certifiable subtree root from the bottom-up search."""

    coord: str
    value: Digest
    full: bool
    missing: tuple[str, ...] = ()  # occupied leaves not in the discovery data


@dataclass
class DiscoveryResult:
    matches: list[NodeRef] = field(default_factory=list)
    candidates: list[SpanCandidate] = field(default_factory=list)


def active_discover(tree: SmlTree, data: DiscoveryData) -> DiscoveryResult:
    """Search the log for certifiable node values; duplicates all report.

    A value under a relative-order condition survives only when some node
    holding the required predecessor covers a leaf interval entirely to
    the left of the match's own interval. One level sweep
    (``tree.find_values``) finds the certifiable and the predecessor values
    together, and matches come breadth-first, left to right in a level.
    """
    depth = tree.depth
    targets = {value.value for value in data.values}
    required: dict[bytes | None, list[bytes | None]] = {}
    for target, pred in data.conditions:
        required.setdefault(target.value, []).append(pred.value)
    preds = {pred.value for _, pred in data.conditions}
    found = find_values(tree, dict.fromkeys([*targets, *preds]).keys())
    # the leftmost right edge of the leaf intervals holding each predecessor value
    edge: dict[bytes, int] = {}
    for level, index, value in found:
        if value in preds:
            end = ((index + 1) << (depth - level)) - 1
            edge[value] = min(end, edge.get(value, end))

    matches = []
    for level, index, value in found:
        if value not in targets:
            continue
        start = index << (depth - level)
        if all(edge.get(pred, start) < start for pred in required.get(value, ())):
            matches.append(NodeRef(format(index, f"0{level}b"), Digest(value)))
    return DiscoveryResult(matches=matches)


def bottom_up_candidates(tree: SmlTree, data: DiscoveryData) -> DiscoveryResult:
    """Span roots of subtrees whose occupied leaves all carry trusted values.

    Only maximal spans are reported as full candidates; for each, the
    parent is reported as a gapped candidate with the occupied leaves the
    issuer does not know, so the platform can attach reference data.
    """
    if not data.leaf_values:
        raise ValueError("bottom-up discovery needs leaf values")
    depth = tree.depth
    # one sweep up from the leaves: a node is 0 (no occupied leaf below),
    # 1 (occupied leaves, all trusted: a full span) or 2 (an untrusted leaf
    # below), and a parent takes the larger of its children's states
    trusted = {leaf.value for leaf in data.leaf_values}
    state = [0 if leaf is None else 1 if leaf in trusted else 2 for leaf in tree.leaf_row()]
    unknown = [i for i, s in enumerate(state) if s == 2]  # sorted leaf indices
    levels = [state]  # levels[k][i] will belong to the node at (level k, index i)
    for _ in range(depth):
        state = [a if a > b else b for a, b in zip(state[::2], state[1::2])]
        levels.insert(0, state)

    def value_of(coord: str) -> Digest:
        return tree.node(coord) if coord else recompute_root(tree)

    candidates: list[SpanCandidate] = []
    for level, row in enumerate(levels):
        for index, node_state in enumerate(row):
            # maximal only: a full parent reports instead
            if node_state != 1 or (level and levels[level - 1][index >> 1] == 1):
                continue
            coord = format(index, f"0{level}b") if level else ""
            candidates.append(SpanCandidate(coord, value_of(coord), full=True))
            if level:
                # the parent is not full, so its other child holds an unknown
                # leaf and cannot itself be a full candidate: one report each
                parent = coord[:-1]
                width = 1 << (depth - level + 1)
                lo = (index >> 1) * width
                gaps = unknown[bisect_left(unknown, lo) : bisect_left(unknown, lo + width)]
                missing = tuple(format(i, f"0{depth}b") for i in gaps)
                candidates.append(SpanCandidate(parent, value_of(parent), full=False, missing=missing))
    candidates.sort(key=lambda c: (len(c.coord), c.coord, not c.full))
    return DiscoveryResult(candidates=candidates)
