"""End-to-end subtree certification runs.

Five phases: quote the selected node, package the evidence, have the
issuer verify and sign, derive the binding update set, and apply it to
the log. The retained credential holds everything a later validation run
needs; fresh quotes are made per validation against the validator's
nonce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certification import (
    AttestationPackage,
    CONCEALED,
    IssuePackage,
    LAYOUT_EMPTY,
    LAYOUT_FULL,
    Manifest,
    REVEALED,
    SubtreeCertificate,
    binding_update_set,
)
from .crypto import Digest, digest_from_wire, digest_to_wire
from .encoding import EncodingError, decode_text, pack_fields, unpack_fields
from .engine import Quote
from .platform import Platform
from .sca import OK, REJECT_PACKAGE
from .tree import NodeRef
from .updates import apply_update_set
from .validator import BIND_BOUND_ROOT, BIND_NODE, BIND_STAR, ValidationBundle


class ProtocolError(Exception):
    """The issuer refused or rejected the attestation package."""

    def __init__(self, status: str, detail: str = "") -> None:
        super().__init__(f"{status}: {detail}" if detail else status)
        self.status = status
        self.detail = detail


@dataclass
class SubtreeCredential:
    """What the platform retains from one certification run."""

    coord: str
    node_value: Digest          # the certified value at certification time
    manifest: Manifest
    certificate: SubtreeCertificate
    original_quote: Quote       # the evidence quote the issuer saw
    layout: str

    def to_bytes(self) -> bytes:
        return pack_fields(
            b"C1",
            self.coord.encode("ascii"),
            digest_to_wire(self.node_value),
            self.manifest.to_bytes(),
            self.certificate.to_bytes(),
            self.original_quote.to_bytes(),
            self.layout.encode("ascii"),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SubtreeCredential":
        magic, coord, value, manifest, cert, quote, layout = unpack_fields(data, count=7)
        if magic != b"C1":
            raise EncodingError("bad credential encoding")
        return cls(
            coord=decode_text(coord),
            node_value=digest_from_wire(value),
            manifest=Manifest.from_bytes(manifest),
            certificate=SubtreeCertificate.from_bytes(cert),
            original_quote=Quote.from_bytes(quote),
            layout=decode_text(layout),
        )


def certify_subtree(
    platform: Platform,
    sca,
    coord: str,
    layout: str = LAYOUT_FULL,
    send_aik_cert: bool = False,
) -> SubtreeCredential:
    """Run all five phases against an issuer (in-process object or client).

    The issuer only needs ``issue_nonce()`` and ``verify_and_issue()``;
    the same code path therefore drives a local authority or the framed
    network service.
    """
    nonce = sca.issue_nonce()
    quote = platform.quote_node(coord, nonce)
    if quote is None:
        raise ProtocolError(REJECT_PACKAGE, "platform could not verify its own node")
    node_value = platform.tree.node(coord) if coord else platform.root()

    package = AttestationPackage(
        quote,
        platform.aik.public,
        node_value=node_value,
        aik_cert=platform.aik_cert if send_aik_cert else None,
    )
    outcome = sca.verify_and_issue(package)
    if outcome.status != OK or outcome.package is None:
        raise ProtocolError(outcome.status, outcome.detail)
    issue: IssuePackage = outcome.package

    entries = binding_update_set(
        issue, NodeRef(coord, node_value), layout, platform.config, platform.depth
    )
    if entries:
        apply_update_set(entries, platform)
    return SubtreeCredential(
        coord=coord,
        node_value=node_value,
        manifest=issue.manifest,
        certificate=issue.certificate,
        original_quote=quote,
        layout=layout,
    )


def default_binding(credential: SubtreeCredential) -> str:
    """The natural validation binding for how the credential was filed."""
    if credential.layout == LAYOUT_EMPTY:
        return BIND_NODE
    if credential.certificate.mode == CONCEALED:
        return BIND_STAR
    return BIND_BOUND_ROOT


def make_validation_bundle(
    platform: Platform,
    credential: SubtreeCredential,
    nonce: bytes,
    binding: str | None = None,
    send_aik_cert: bool = False,
) -> ValidationBundle:
    """Phase-independent validation data: fresh quote plus retained material.

    The star binding quotes only the left inner node of the filed layout,
    so the certified value itself travels nowhere unless the certificate
    is a revealed one (whose re-verification needs it).
    """
    binding = binding or default_binding(credential)
    if binding == BIND_NODE:
        quote_coord = credential.coord
    elif binding == BIND_STAR:
        quote_coord = credential.coord + "0"
    elif binding == BIND_BOUND_ROOT:
        quote_coord = credential.coord
    else:
        raise ValueError(f"unknown binding {binding!r}")
    quote = platform.quote_node(quote_coord, nonce)
    if quote is None:
        raise ProtocolError(REJECT_PACKAGE, "platform could not verify the quoted node")

    revealed = credential.certificate.mode == REVEALED
    include_value = revealed or binding in (BIND_NODE, BIND_BOUND_ROOT)
    return ValidationBundle(
        quote=quote,
        manifest=credential.manifest,
        certificate=credential.certificate,
        aik_pub=platform.aik.public,
        binding=binding,
        node_value=credential.node_value if include_value else None,
        original_quote=credential.original_quote if revealed else None,
        aik_cert=platform.aik_cert if send_aik_cert else None,
    )
