"""Validator-side evaluation of submitted validation data.

A bundle carries a fresh quote, the certified manifest and certificate,
and whatever else the chosen binding needs. Every check that can fail
yields its own reject reason, so protocol tests can tell a stale nonce
from a swapped certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certification import (
    REVEALED,
    AikCertificate,
    Manifest,
    SubtreeCertificate,
    aik_certificate_failure,
    measure_certificate,
    measure_manifest,
    verify_subtree_certificate,
)
from .crypto import Digest, HashConfig, SHA1, VerifyingKey, digest_from_wire, digest_to_wire
from .encoding import EncodingError, decode_text, pack_fields, unpack_fields
from .engine import Quote, refold_reduced_quote, verify_quote

#: how the fresh quote is tied to the certified subtree
BIND_NODE = "node"          # quote covers the certified value itself (reveals it)
BIND_STAR = "star"          # quote covers extend(m(cert), m(manifest)); value stays hidden
BIND_BOUND_ROOT = "bound-root"  # quote covers ((m(cert) ⋄ m(manifest)) ⋄ value)


@dataclass
class ValidationBundle:
    """Everything the platform submits for one validation run."""

    quote: Quote
    manifest: Manifest
    certificate: SubtreeCertificate
    aik_pub: VerifyingKey
    binding: str = BIND_NODE
    node_value: Digest | None = None       # the certified value, when revealed
    original_quote: Quote | None = None    # the quote the certificate signs over
    aik_cert: AikCertificate | None = None

    def to_bytes(self) -> bytes:
        return pack_fields(
            b"V1",
            self.quote.to_bytes(),
            self.manifest.to_bytes(),
            self.certificate.to_bytes(),
            self.aik_pub.raw,
            self.binding.encode("ascii"),
            b"" if self.node_value is None else digest_to_wire(self.node_value),
            b"" if self.original_quote is None else self.original_quote.to_bytes(),
            b"" if self.aik_cert is None else self.aik_cert.to_bytes(),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ValidationBundle":
        magic, quote, manifest, cert, pub, binding, value, original, aik_cert = unpack_fields(data, count=9)
        if magic != b"V1":
            raise EncodingError("bad validation bundle encoding")
        return cls(
            quote=Quote.from_bytes(quote),
            manifest=Manifest.from_bytes(manifest),
            certificate=SubtreeCertificate.from_bytes(cert),
            aik_pub=VerifyingKey(pub),
            binding=decode_text(binding),
            node_value=None if not value else digest_from_wire(value),
            original_quote=None if not original else Quote.from_bytes(original),
            aik_cert=None if not aik_cert else AikCertificate.from_bytes(aik_cert),
        )


@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    reason: str

    def __bool__(self) -> bool:
        return self.accepted


def _reject(reason: str) -> ValidationResult:
    return ValidationResult(False, reason)


def validate_subtree(
    bundle: ValidationBundle,
    sca_pub: VerifyingKey,
    nonce: bytes,
    pca_pub: VerifyingKey | None = None,
    config: HashConfig = SHA1,
) -> ValidationResult:
    """Evaluate one validation bundle against the trust anchors.

    Checks, in order: quote freshness and signature, reduced-quote
    refolding, the identity certificate when present, the subtree
    certificate under its binding mode, and finally that the fresh quote
    actually covers the certified material in the tree.
    """
    quote = bundle.quote
    if quote.nonce != nonce:
        return _reject("freshness")
    if not verify_quote(quote, bundle.aik_pub):
        return _reject("quote-signature")
    if quote.tag == "REDTREEQUOT" and not refold_reduced_quote(quote, config):
        return _reject("reduced-tree-mismatch")

    if bundle.aik_cert is not None and aik_certificate_failure(bundle.aik_cert, bundle.aik_pub, pca_pub):
        return _reject("aik-certificate")

    cert = bundle.certificate
    if cert.mode == REVEALED:
        if bundle.node_value is None or bundle.original_quote is None:
            return _reject("missing-validation-data")
        if not verify_quote(bundle.original_quote, bundle.aik_pub):
            return _reject("original-quote-signature")
        if bundle.original_quote.node_value != bundle.node_value:
            return _reject("subject-mismatch")
        if bundle.manifest.subject != bundle.node_value:
            return _reject("manifest-subject")
        if not verify_subtree_certificate(cert, bundle.manifest, sca_pub, quote=bundle.original_quote):
            return _reject("certificate-signature")
    else:
        if cert.bind != bundle.aik_pub.fingerprint():
            return _reject("binding-mismatch")
        if not verify_subtree_certificate(cert, bundle.manifest, sca_pub):
            return _reject("certificate-signature")

    return _check_tree_binding(bundle, config)


def _check_tree_binding(bundle: ValidationBundle, config: HashConfig) -> ValidationResult:
    """Does the fresh quote place the certified material in the tree?"""
    quoted = bundle.quote.node_value
    m_cert = measure_certificate(bundle.certificate, config)
    m_manifest = measure_manifest(bundle.manifest, config)
    if bundle.binding == BIND_NODE:
        if bundle.node_value is None or quoted != bundle.node_value:
            return _reject("tree-binding")
    elif bundle.binding == BIND_STAR:
        if quoted != config.extend(m_cert, m_manifest):
            return _reject("tree-binding")
    elif bundle.binding == BIND_BOUND_ROOT:
        if bundle.node_value is None:
            return _reject("missing-validation-data")
        if quoted != config.extend(config.extend(m_cert, m_manifest), bundle.node_value):
            return _reject("tree-binding")
    else:
        return _reject("binding-mode")
    return ValidationResult(True, "ok")
