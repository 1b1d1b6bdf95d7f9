"""The subtree certification authority.

The issuer keeps a flat policy table mapping node values it recognises to
property statements. A submitted quote is verified, the node value looked
up (or justified leaf by leaf from a submitted subtree log), and on
success a manifest plus subtree certificate come back. Verification
misses produce distinct refusal codes rather than exceptions.
Passive issuance lives here too: ``verify_and_issue`` (one quoted node)
and ``passive_discover`` (every recognisable node of a quoted subtree
log) share one quote admission (the only check of a submitted quote),
one identity-certificate policy, one log check and one ``_issue``, which
writes the one issuance record on every route, in-process or wired.
"""

from __future__ import annotations

import logging
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from .certification import (
    CONCEALED,
    REVEALED,
    AikCertificate,
    AttestationPackage,
    IssuePackage,
    Manifest,
    aik_certificate_failure,
    issue_subtree_certificate,
    now,
    verify_ref_value,
)
from .crypto import Digest, HashConfig, SHA1, SigningKey, VerifyingKey, parse_digest
from .engine import Quote, refold_reduced_quote, verify_quote
from .tree import MAX_DEPTH, NodeRef, SmlTree, check_coord, find_inconsistency, parse_sml

logger = logging.getLogger(__name__)

OK = "issued"
REFUSED_UNKNOWN = "refused-unknown-value"
REJECT_SIGNATURE = "reject-signature"
REJECT_FRESHNESS = "reject-freshness"
REJECT_AIK_CERT = "reject-aik-certificate"
REJECT_PACKAGE = "reject-package"
REJECT_SUBTREE = "reject-subtree"

#: outstanding nonces kept at most; issuing one more evicts the oldest
MAX_NONCES = 65_536

Properties = tuple[tuple[str, str], ...]


class PolicyTable:
    """Node values the issuer can certify, with their property statements."""

    def __init__(self, entries: dict[bytes, Properties] | None = None) -> None:
        self.entries = dict(entries or {})

    def lookup(self, value: Digest) -> Properties | None:
        if value.value is None:
            return None
        return self.entries.get(value.value)

    def add(self, value: Digest, properties: list[tuple[str, str]]) -> None:
        if value.value is None:
            raise ValueError("cannot certify the nil value")
        self.entries[value.value] = tuple(properties)

    def values(self) -> set[Digest]:
        return {Digest(raw) for raw in self.entries}

    @classmethod
    def from_text(cls, text: str, config: HashConfig = SHA1) -> "PolicyTable":
        """One entry per line: ``<hex node value> <name>=<value>[;...]``."""
        table = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value_hex, _, props = line.partition(" ")
                value = parse_digest(value_hex, config.size)
                pairs = []
                for item in props.split(";"):
                    name, sep, prop_value = item.partition("=")
                    if not sep or not name:
                        raise ValueError(f"bad property {item!r}")
                    pairs.append((name.strip(), prop_value.strip()))
                if not pairs:
                    raise ValueError("no properties")
                table.add(value, pairs)
            except ValueError as exc:
                raise ValueError(f"policy line {lineno}: {exc}") from exc
        return table

    def to_text(self) -> str:
        lines = []
        for raw in sorted(self.entries):
            props = ";".join(f"{n}={v}" for n, v in self.entries[raw])
            lines.append(f"{raw.hex()} {props}")
        return "\n".join(lines) + "\n"


@dataclass
class IssueOutcome:
    status: str
    package: IssuePackage | None = None
    detail: str = ""


@dataclass
class PassiveResult:
    status: str  # "issued" | "quotes-required" | reject code
    detail: str = ""
    inconsistent_coord: str | None = None
    candidates: list[NodeRef] = field(default_factory=list)  # absolute coords
    certificates: list[tuple[str, IssuePackage]] = field(default_factory=list)


def _check_mode(mode: str) -> str:
    if mode not in (REVEALED, CONCEALED):
        raise ValueError(f"mode must be {REVEALED!r} or {CONCEALED!r}, got {mode!r}")
    return mode


@dataclass
class SubtreeCa:
    """Issues manifests and subtree certificates against a policy table."""

    key: SigningKey
    policy: PolicyTable
    name: str = "sca"
    mode: str = REVEALED
    config: HashConfig = SHA1
    pca_pub: VerifyingKey | None = None
    require_aik_cert: bool = False
    ref_issuers: dict[str, VerifyingKey] = field(default_factory=dict)
    leaf_values: set[bytes] = field(default_factory=set)
    clock: object = None
    issuance_log: str | None = None  # append-only file, one line per certificate issued
    _nonces: OrderedDict[bytes, None] = field(default_factory=OrderedDict)
    _log_lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        _check_mode(self.mode)

    @property
    def public(self) -> VerifyingKey:
        return self.key.public

    def issue_nonce(self) -> bytes:
        """Freshness challenge; each nonce authorises exactly one package."""
        nonce = secrets.token_bytes(16)
        self._nonces[nonce] = None
        if len(self._nonces) > MAX_NONCES:
            # oldest first; one atomic popitem each, so concurrent issuers never evict one nonce twice
            self._nonces.popitem(last=False)
        return nonce

    def verify_and_issue(self, package: AttestationPackage) -> IssueOutcome:
        """Phase-3 work: verify evidence, recognise the value, sign the statement."""
        quote = package.quote
        refusal = self._admit(quote, package.aik_pub) or self._check_aik(package.aik_pub, package.aik_cert)
        if refusal is not None:
            return refusal

        value = quote.node_value
        if value.is_nil:
            return IssueOutcome(REFUSED_UNKNOWN, detail="empty node values are never certified")
        if package.node_value is not None and package.node_value != value:
            return IssueOutcome(REJECT_PACKAGE, detail="package value differs from quoted value")

        properties = self.policy.lookup(value)
        if properties is None and package.subtree is not None:
            try:
                subtree = parse_sml(package.subtree).tree
            except ValueError as exc:
                return IssueOutcome(REJECT_SUBTREE, detail=f"unparseable subtree log: {exc}")
            properties = self._leaf_properties(subtree, package)
            if isinstance(properties, IssueOutcome):
                return properties
        if properties is None:
            return IssueOutcome(REFUSED_UNKNOWN, detail="node value not recognised")
        aik_checked = package.aik_cert is not None
        return IssueOutcome(OK, self._issue(value, properties, quote, package.aik_pub, self.mode, aik_checked))

    def _admit(self, quote: Quote, aik_pub: VerifyingKey | None) -> IssueOutcome | None:
        """Admit a quote on either route: its signature, then its nonce, spent
        exactly once, then the refold of a reduced quote. Returns the refusal."""
        if aik_pub is None or not verify_quote(quote, aik_pub):
            return IssueOutcome(REJECT_SIGNATURE, detail="quote signature invalid")
        # one pop tests and spends: of concurrent submitters, one wins
        try:
            self._nonces.pop(quote.nonce)
        except KeyError:
            return IssueOutcome(REJECT_FRESHNESS, detail="quote nonce unknown or already used")
        if quote.tag == "REDTREEQUOT" and not refold_reduced_quote(quote, self.config):
            return IssueOutcome(REJECT_PACKAGE, detail="reduced quote does not refold to its root")
        return None

    def _check_aik(self, aik_pub: VerifyingKey | None, aik_cert: AikCertificate | None) -> IssueOutcome | None:
        """Identity-certificate policy: a certificate sent must vouch for the
        key; sending none is refused only when the policy requires one."""
        if aik_cert is None:
            failure = "identity certificate required" if self.require_aik_cert else None
        else:
            failure = aik_certificate_failure(aik_cert, aik_pub, self.pca_pub)
        return None if failure is None else IssueOutcome(REJECT_AIK_CERT, detail=failure)

    def _check_log(self, subtree: SmlTree, claimed: Digest | None) -> tuple[str, str | None] | None:
        """(refusal detail, first bad coordinate) for a submitted log, or None if sound."""
        if subtree.config != self.config:
            return "hash algorithm mismatch", None
        bad = find_inconsistency(subtree, claimed)
        if bad is not None:
            return f"inconsistent at {bad or '<root>'}", bad
        return None

    def _issue(self, value, properties, quote, aik_pub, mode, aik_checked) -> IssuePackage:
        # checked here too: the mode attribute can be reassigned after construction
        concealed = _check_mode(mode) == CONCEALED
        subject = self.config.measure(value.value) if concealed else value
        manifest = Manifest(
            subject=subject,
            properties=tuple(properties),
            timestamp=self.clock() if callable(self.clock) else now(),
            issuer=self.name,
            aik_checked=aik_checked,
        )
        if concealed:
            certificate = issue_subtree_certificate(self.key, manifest, bind=aik_pub.fingerprint())
        else:
            certificate = issue_subtree_certificate(self.key, manifest, quote=quote)
        record = f"{manifest.timestamp} {mode} {subject.to_text()} {self.name}"
        logger.info("issued %s", record)
        if self.issuance_log is not None:
            with self._log_lock, open(self.issuance_log, "a", encoding="ascii") as fh:
                fh.write(record + "\n")
        return IssuePackage(manifest, certificate)

    def _leaf_properties(self, subtree: SmlTree, package: AttestationPackage) -> IssueOutcome | Properties:
        """Certification from leaf values: the log must refold to the quoted
        value and every occupied leaf must be known or attested by a trusted
        reference issuer. Returns the rejection, or the properties of the
        policy-listed leaves followed by how the leaves were covered."""
        bad_log = self._check_log(subtree, package.quote.node_value)
        if bad_log is not None:
            return IssueOutcome(REJECT_SUBTREE, detail=bad_log[0])
        covered = set(self.leaf_values or self.policy.entries)
        for entry in package.aux:
            issuer_pub = self.ref_issuers.get(entry.issuer)
            if issuer_pub is None or not verify_ref_value(entry, issuer_pub):
                return IssueOutcome(REJECT_SUBTREE, detail=f"untrusted reference attestation from {entry.issuer!r}")
            if entry.value.value is not None:
                covered.add(entry.value.value)
        merged: list[tuple[str, str]] = []
        unlisted = 0
        depth = subtree.depth
        for index, raw in enumerate(subtree.leaf_row()):
            if raw is None:
                continue
            if raw not in covered:
                return IssueOutcome(REJECT_SUBTREE, detail=f"leaf {index:0{depth}b} not covered by policy or references")
            props = self.policy.lookup(Digest(raw))
            if props is None:
                unlisted += 1
                continue
            for pair in props:
                if pair not in merged:
                    merged.append(pair)
        merged.append(("leaves-covered", "policy" if unlisted == 0 else f"references:{unlisted}"))
        return tuple(merged)


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
    try:  # before admission, so that a malformed request spends no nonce
        check_coord(root.coord, MAX_DEPTH - subtree.depth, allow_root=True)
    except ValueError as exc:
        return PassiveResult(REJECT_SUBTREE, f"bad root coordinate: {exc}")
    refusal = None
    if quote is not None:
        refusal = sca._admit(quote, aik_pub)
        if refusal is None and quote.node_value != root.value:
            refusal = IssueOutcome(REJECT_SUBTREE, detail="quote does not cover the claimed root")
    # a passive submission carries no identity certificate to check
    refusal = refusal or sca._check_aik(aik_pub, None)
    if refusal is not None:
        return PassiveResult(refusal.status, refusal.detail)
    bad_log = sca._check_log(subtree, root.value if quote is not None else None)
    if bad_log is not None:
        return PassiveResult(REJECT_SUBTREE, *bad_log)

    candidates = _certifiable_roots(sca, root, subtree)
    if quote is None:
        return PassiveResult("quotes-required", candidates=candidates)

    # only the top node was quoted, so per-root binding is via the AIK:
    # the certificates come out concealed regardless of the issuer default
    certificates = [
        (ref.coord, sca._issue(ref.value, sca.policy.lookup(ref.value), quote, aik_pub, CONCEALED, False))
        for ref in candidates
    ]
    return PassiveResult(OK, candidates=candidates, certificates=certificates)


def _certifiable_roots(sca: SubtreeCa, root: NodeRef, subtree: SmlTree) -> list[NodeRef]:
    """Maximal recognisable nodes, top-down and left first; disjoint by construction."""
    found: list[NodeRef] = []
    todo = [""]  # relative coordinates, next one last
    while todo:
        rel = todo.pop()
        value = subtree.node(rel) if rel else root.value
        if sca.policy.lookup(value) is not None:  # never for the nil value
            found.append(NodeRef(root.coord + rel, value))
        elif len(rel) < subtree.depth:
            todo += (rel + "1", rel + "0")
    return found
