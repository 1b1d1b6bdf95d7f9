"""Finding certifiable subtrees.

Active discovery runs on the platform over issuer-supplied discovery
data: direct node-value search with optional relative-order conditions,
and a bottom-up mode that guesses span roots from trusted leaf values.
Passive discovery runs on the issuer over a submitted subtree log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certification import IssuePackage, Manifest, issue_subtree_certificate
from .crypto import Digest, HashConfig, SHA1, VerifyingKey, parse_digest
from .engine import Quote, verify_quote
from .sca import REJECT_AIK_CERT, REJECT_FRESHNESS, REJECT_SIGNATURE, REJECT_SUBTREE, SubtreeCa
from .tree import NodeRef, SmlTree, find_inconsistency, leaf_interval, recompute_root


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
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines or lines[0] != "DISCOVERY v1":
            raise ValueError("discovery data: bad header")
        values, leaves, conds = set(), set(), []
        for lineno, line in enumerate(lines[1:], start=2):
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
    the left of the match's own interval.
    """
    occupied = list(tree.occupied())
    wanted = {target: [] for target, _ in data.conditions}
    for target, pred in data.conditions:
        wanted[target].append(pred)

    matches = []
    for ref in occupied:
        if ref.value not in data.values:
            continue
        start, _ = leaf_interval(ref.coord, tree.depth)
        satisfied = True
        for pred in wanted.get(ref.value, ()):
            if not any(
                other.value == pred and leaf_interval(other.coord, tree.depth)[1] < start
                for other in occupied
            ):
                satisfied = False
                break
        if satisfied:
            matches.append(ref)
    return DiscoveryResult(matches=matches)


def bottom_up_candidates(tree: SmlTree, data: DiscoveryData) -> DiscoveryResult:
    """Span roots of subtrees whose occupied leaves all carry trusted values.

    Only maximal spans are reported as full candidates; for each, the
    parent is reported as a gapped candidate with the occupied leaves the
    issuer does not know, so the platform can attach reference data.
    """
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


@dataclass
class PassiveResult:
    status: str  # "issued" | "quotes-required" | reject code
    detail: str = ""
    inconsistent_coord: str | None = None
    candidates: list[NodeRef] = field(default_factory=list)  # absolute coords
    certificates: list[tuple[str, IssuePackage]] = field(default_factory=list)


def passive_discover(
    sca: SubtreeCa,
    root: NodeRef,
    subtree: SmlTree,
    quote: Quote | None = None,
    aik_pub: VerifyingKey | None = None,
) -> PassiveResult:
    """Issuer-side traversal of a submitted subtree log.

    With a quote over the subtree root the issuer verifies the log and
    certifies every maximal recognisable node (concealed binding, since
    only the top node was quoted). Without a quote it answers lazily with
    the candidate coordinates; the platform then quotes each candidate
    and runs the ordinary attestation exchange per root.
    """
    if quote is not None:
        if aik_pub is None or not verify_quote(quote, aik_pub):
            return PassiveResult(REJECT_SIGNATURE, detail="quote signature invalid")
        if quote.nonce not in sca._nonces:
            return PassiveResult(REJECT_FRESHNESS, detail="quote nonce unknown or already used")
        sca._nonces.discard(quote.nonce)
        if quote.node_value != root.value:
            return PassiveResult(REJECT_SUBTREE, detail="quote does not cover the claimed root")
    # a passive submission carries no identity certificate to check
    if sca.require_aik_cert:
        return PassiveResult(REJECT_AIK_CERT, detail="identity certificate required")
    if subtree.config != sca.config:
        return PassiveResult(REJECT_SUBTREE, detail="hash algorithm mismatch")
    bad = find_inconsistency(subtree, root.value if quote is not None else None)
    if bad is not None:
        return PassiveResult(
            REJECT_SUBTREE,
            detail=f"inconsistent at {bad or '<root>'}",
            inconsistent_coord=bad,
        )

    candidates = _certifiable_roots(sca, root, subtree)
    if quote is None:
        return PassiveResult("quotes-required", candidates=candidates)

    # only the top node was quoted, so per-root binding is via the AIK:
    # the certificates come out concealed regardless of the issuer default
    certificates = []
    bind = aik_pub.fingerprint()
    for ref in candidates:
        manifest = Manifest(
            subject=sca.config.measure(ref.value.value),
            properties=sca.policy.lookup(ref.value),
            timestamp=sca._timestamp(),
            issuer=sca.name,
        )
        certificate = issue_subtree_certificate(sca.key, sca.name, manifest, bind=bind)
        issue = IssuePackage(manifest, certificate, bind=bind)
        sca.issued_log.append(issue)
        certificates.append((ref.coord, issue))
    return PassiveResult("issued", candidates=candidates, certificates=certificates)


def _certifiable_roots(sca: SubtreeCa, root: NodeRef, subtree: SmlTree) -> list[NodeRef]:
    """Maximal recognisable nodes, top-down; disjoint by construction."""
    found: list[NodeRef] = []

    def walk(rel: str) -> None:
        value = root.value if not rel else subtree.node(rel)
        if not value.is_nil and sca.policy.lookup(value) is not None:
            found.append(NodeRef(root.coord + rel, value))
            return
        if len(rel) < subtree.depth:
            walk(rel + "0")
            walk(rel + "1")

    walk("")
    return found
