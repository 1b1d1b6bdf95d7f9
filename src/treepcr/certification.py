"""Validation-data objects for subtree certification.

Manifests give a certified node value its meaning; subtree certificates
bind manifest and platform together in one of two shapes: a *revealed*
certificate signs the manifest next to the platform's own quote of the
node, while a *concealed* certificate signs the manifest next to an
identifier of the attestation key, so the node value itself never
appears in the issued material. Each signed object encodes its signed
fields and its signature, and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .crypto import (
    Digest,
    HashConfig,
    SigningKey,
    VerifyingKey,
    digest_from_wire,
    digest_to_wire,
    sign,
    verify,
)
from .encoding import EncodingError, decode_text, pack_fields, pack_u32, unpack_fields, unpack_u32, untag
from .engine import Quote, verify_quote
from .tree import NodeRef, check_coord, leq

REVEALED = "revealed"
CONCEALED = "concealed"


@dataclass(frozen=True)
class Manifest:
    """The issuer's statement about what a certified subtree represents."""

    subject: Digest  # the node value, or its hash when the value is concealed
    properties: tuple[tuple[str, str], ...]
    timestamp: int
    issuer: str
    aik_checked: bool = False

    def __post_init__(self) -> None:
        if not self.properties:
            raise ValueError("manifest needs at least one property statement")

    def to_bytes(self) -> bytes:
        fields = [b"M1", digest_to_wire(self.subject), pack_u32(len(self.properties))]
        for name, value in self.properties:
            fields.append(name.encode("utf-8"))
            fields.append(value.encode("utf-8"))
        fields.append(pack_u32(self.timestamp))
        fields.append(self.issuer.encode("utf-8"))
        fields.append(b"\x01" if self.aik_checked else b"\x00")
        return pack_fields(*fields)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        fields = unpack_fields(data)
        if len(fields) < 6 or fields[0] != b"M1":
            raise EncodingError("bad manifest encoding")
        count = unpack_u32(fields[2])
        if len(fields) != 6 + 2 * count:
            raise EncodingError("manifest property count mismatch")
        if fields[5 + 2 * count] not in (b"\x00", b"\x01"):
            raise EncodingError("bad manifest aik-checked flag")
        props = tuple(
            (decode_text(fields[3 + 2 * i], "utf-8"), decode_text(fields[4 + 2 * i], "utf-8"))
            for i in range(count)
        )
        return cls(
            subject=digest_from_wire(fields[1]),
            properties=props,
            timestamp=unpack_u32(fields[3 + 2 * count]),
            issuer=decode_text(fields[4 + 2 * count], "utf-8"),
            aik_checked=fields[5 + 2 * count] == b"\x01",
        )

    def describe(self) -> str:
        props = ";".join(f"{n}={v}" for n, v in self.properties)
        return (
            f"manifest subject={self.subject.to_text()} issuer={self.issuer} "
            f"time={self.timestamp} aik-checked={str(self.aik_checked).lower()} {props}"
        )


@dataclass(frozen=True)
class AikCertificate:
    """Identity certificate for an attestation key, issued by the privacy CA."""

    aik_pub: VerifyingKey
    subject: str
    issuer: str
    signature: bytes

    def payload(self) -> bytes:
        return pack_fields(b"AIK1", self.aik_pub.raw, self.subject.encode("utf-8"), self.issuer.encode("utf-8"))

    def to_bytes(self) -> bytes:
        return pack_fields(self.aik_pub.raw, self.subject.encode("utf-8"), self.issuer.encode("utf-8"), self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AikCertificate":
        pub, subject, issuer, signature = unpack_fields(data, count=4)
        return cls(VerifyingKey(pub), decode_text(subject, "utf-8"), decode_text(issuer, "utf-8"), signature)


class PrivacyCa:
    """Self-signed root that issues AIK certificates offline."""

    def __init__(self, key: SigningKey | None = None, name: str = "pca") -> None:
        self.key = key or SigningKey.generate()
        self.name = name

    @property
    def public(self) -> VerifyingKey:
        return self.key.public

    def issue(self, aik_pub: VerifyingKey, subject: str) -> AikCertificate:
        cert = AikCertificate(aik_pub, subject, self.name, b"")
        return AikCertificate(aik_pub, subject, self.name, sign(self.key, "CERT", cert.payload()))


def verify_aik_certificate(cert: AikCertificate, pca_pub: VerifyingKey) -> bool:
    return verify(pca_pub, "CERT", cert.payload(), b"", cert.signature)


def aik_certificate_failure(
    cert: AikCertificate, aik_pub: VerifyingKey, pca_pub: VerifyingKey | None
) -> str | None:
    """Why ``cert`` does not vouch for ``aik_pub`` under ``pca_pub``, or None if it does."""
    if pca_pub is None:
        return "no privacy-CA anchor configured"
    if cert.aik_pub != aik_pub:
        return "certificate names a different key"
    if not verify_aik_certificate(cert, pca_pub):
        return "certificate chain invalid"
    return None


@dataclass(frozen=True)
class SubtreeCertificate:
    """The issuer's signature binding a manifest to a platform.

    ``bind`` carries the AIK fingerprint, and its presence makes the
    certificate concealed. The encoding is the signature and ``bind``,
    which the signature covers; the issuer is the signed
    ``Manifest.issuer``. The node value a certificate stands for is the
    hash of its encoding (``measure_certificate``).
    """

    signature: bytes
    bind: bytes | None = None

    @property
    def mode(self) -> str:
        return REVEALED if self.bind is None else CONCEALED

    def to_bytes(self) -> bytes:
        return pack_fields(self.signature, b"" if self.bind is None else b"b" + self.bind)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SubtreeCertificate":
        signature, bind = unpack_fields(data, count=2)
        return cls(signature, untag(bind, b"b"))

    def describe(self) -> str:
        bind = "-" if self.bind is None else self.bind.hex()
        return f"certificate mode={self.mode} bind={bind}"


def certificate_payload(manifest: Manifest, quote: Quote | None = None, bind: bytes | None = None) -> bytes:
    """The blob a subtree certificate signs: manifest next to quote or key binding."""
    if (quote is None) == (bind is None):
        raise ValueError("exactly one of quote (revealed) or bind (concealed) is required")
    if quote is not None:
        return pack_fields(manifest.to_bytes(), quote.to_bytes())
    return pack_fields(manifest.to_bytes(), bind)


def issue_subtree_certificate(
    key: SigningKey,
    manifest: Manifest,
    quote: Quote | None = None,
    bind: bytes | None = None,
) -> SubtreeCertificate:
    return SubtreeCertificate(sign(key, "CERT", certificate_payload(manifest, quote, bind)), bind)


def verify_subtree_certificate(
    cert: SubtreeCertificate,
    manifest: Manifest,
    issuer_pub: VerifyingKey,
    quote: Quote | None = None,
) -> bool:
    """Re-verify the certificate signature for either binding shape."""
    if cert.mode == REVEALED:
        if quote is None:
            return False
        payload = certificate_payload(manifest, quote=quote)
    else:
        payload = certificate_payload(manifest, bind=cert.bind)
    return verify(issuer_pub, "CERT", payload, b"", cert.signature)


def measure_manifest(manifest: Manifest, config: HashConfig) -> Digest:
    return config.measure(manifest.to_bytes())


def measure_certificate(cert: SubtreeCertificate, config: HashConfig) -> Digest:
    """One-way node value for a certificate: the hash of its encoding."""
    return config.measure(cert.to_bytes())


@dataclass(frozen=True)
class RefValueCert:
    """Reference-value attestation covering a single trusted leaf value."""

    value: Digest
    issuer: str
    signature: bytes

    def payload(self) -> bytes:
        return pack_fields(b"REF1", digest_to_wire(self.value), self.issuer.encode("utf-8"))

    def to_bytes(self) -> bytes:
        return pack_fields(digest_to_wire(self.value), self.issuer.encode("utf-8"), self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RefValueCert":
        value, issuer, signature = unpack_fields(data, count=3)
        return cls(digest_from_wire(value), decode_text(issuer, "utf-8"), signature)


def issue_ref_value(key: SigningKey, issuer: str, value: Digest) -> RefValueCert:
    cert = RefValueCert(value, issuer, b"")
    return RefValueCert(value, issuer, sign(key, "CERT", cert.payload()))


def verify_ref_value(cert: RefValueCert, issuer_pub: VerifyingKey) -> bool:
    return verify(issuer_pub, "CERT", cert.payload(), b"", cert.signature)


@dataclass
class AttestationPackage:
    """What the platform submits for certification.

    The quote is mandatory; the node value may be omitted when the issuer
    already knows it (it is recoverable from the quote), and a serialized
    subtree log plus reference-value attestations support certification
    decided from leaf values.
    """

    quote: Quote
    aik_pub: VerifyingKey
    node_value: Digest | None = None
    aik_cert: AikCertificate | None = None
    subtree: bytes | None = None
    aux: tuple[RefValueCert, ...] = ()

    def to_bytes(self) -> bytes:
        return pack_fields(
            b"Q1",
            self.quote.to_bytes(),
            self.aik_pub.raw,
            b"" if self.node_value is None else digest_to_wire(self.node_value),
            b"" if self.aik_cert is None else self.aik_cert.to_bytes(),
            b"" if self.subtree is None else self.subtree,
            pack_fields(*(entry.to_bytes() for entry in self.aux)),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttestationPackage":
        magic, quote, pub, value, cert, subtree, aux = unpack_fields(data, count=7)
        if magic != b"Q1":
            raise EncodingError("bad attestation package encoding")
        return cls(
            quote=Quote.from_bytes(quote),
            aik_pub=VerifyingKey(pub),
            node_value=None if not value else digest_from_wire(value),
            aik_cert=None if not cert else AikCertificate.from_bytes(cert),
            subtree=None if not subtree else subtree,
            aux=tuple(RefValueCert.from_bytes(f) for f in unpack_fields(aux)),
        )


@dataclass
class IssuePackage:
    """What the issuer returns: manifest and certificate."""

    manifest: Manifest
    certificate: SubtreeCertificate

    def to_bytes(self) -> bytes:
        return pack_fields(b"R1", self.manifest.to_bytes(), self.certificate.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "IssuePackage":
        magic, manifest, cert = unpack_fields(data, count=3)
        if magic != b"R1":
            raise EncodingError("bad issue package encoding")
        return cls(manifest=Manifest.from_bytes(manifest), certificate=SubtreeCertificate.from_bytes(cert))


# -- update sets ------------------------------------------------------------

LAYOUT_EMPTY = "empty"
LAYOUT_FULL = "full"


def check_dependency_free(entries: list[NodeRef]) -> list[NodeRef]:
    """Reject sets in which one entry lies on another's path to the root."""
    position = {e.coord: i for i, e in enumerate(entries)}
    if len(position) != len(entries):
        raise ValueError("duplicate coordinates in update set")
    for entry in entries:
        a = check_coord(entry.coord, allow_root=True)
        above = [position[a[:k]] for k in range(len(a)) if a[:k] in position]
        if above:
            raise ValueError(f"update set is not dependency-free: {a} lies below {entries[min(above)].coord}")
    return entries


def check_bounded_below(entries: list[NodeRef], coord: str) -> list[NodeRef]:
    """All entries must sit in the subtree below the certified node."""
    for entry in entries:
        if not leq(entry.coord, coord):
            raise ValueError(f"entry {entry.coord} is outside the subtree at {coord or '<root>'}")
    return entries


def binding_update_set(
    issue: IssuePackage,
    old_node: NodeRef,
    layout: str,
    config: HashConfig,
    depth: int,
    custom: list[NodeRef] | None = None,
) -> list[NodeRef]:
    """Build the log update that binds an issued certificate into the tree.

    The empty layout changes nothing (the certificate already names the
    node value); the full layout files the certificate and manifest
    measurements beside the retained old value:

        coord+"00" <- m(certificate)   coord+"01" <- m(manifest)
        coord+"1"  <- old node value

    so the node at ``coord`` refolds to (m(C) ⋄ m(M)) ⋄ old.
    """
    coord = old_node.coord
    check_coord(coord, depth, allow_root=True)
    if custom is not None:
        return check_bounded_below(check_dependency_free(list(custom)), coord)
    if layout == LAYOUT_EMPTY:
        return []
    if layout != LAYOUT_FULL:
        raise ValueError(f"unknown binding layout {layout!r}")
    if len(coord) + 2 > depth:
        raise ValueError(f"full binding below {coord or '<root>'} needs two spare levels (depth {depth})")
    return [
        NodeRef(coord + "00", measure_certificate(issue.certificate, config)),
        NodeRef(coord + "01", measure_manifest(issue.manifest, config)),
        NodeRef(coord + "1", old_node.value),
    ]


def build_attestation_package(
    quote: Quote,
    aik_pub: VerifyingKey,
    node_value: Digest | None = None,
    aik_cert: AikCertificate | None = None,
    subtree: bytes | None = None,
    aux: tuple[RefValueCert, ...] = (),
) -> AttestationPackage:
    """Assemble the minimal package; verifies the quote locally first."""
    if not verify_quote(quote, aik_pub):
        raise ValueError("refusing to package a quote that does not verify locally")
    return AttestationPackage(
        quote=quote,
        aik_pub=aik_pub,
        node_value=node_value,
        aik_cert=aik_cert,
        subtree=subtree,
        aux=aux,
    )


def now() -> int:
    return int(time.time())
