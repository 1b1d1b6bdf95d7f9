"""Digests, the extend operation and its ordered variant, and signing.

Register and tree values are digests of one fixed hash algorithm, or the
distinguished empty value ``NIL``. ``NIL`` is carried as an explicit
variant (never a reserved byte pattern) and acts as a two-sided unit of
``extend``, so sparsely occupied trees fold without special cases.

``Digest`` is the public value type; inside the log, the folds and the
device a value is raw ``bytes``, or None for nil. ``extend_raw`` is the one
nil-unit rule for raw values (``HashConfig.extend`` and ``chiral_extend``
wrap it), and ``HashConfig.check_raw`` is the one length rule, checked once
where a value enters (``HashConfig.check`` wraps it for public digests).

``verify`` is the one signature check, for quotes, subtree and identity
certificates and reference values alike. It caches each Ed25519 result on
the exact bytes checked: the key, the signature and the SHA-256 of the
signed blob, never the blob itself, so every entry is 128 bytes whatever a
sender put in the payload or nonce. At most ``VERIFY_CACHE_SIZE`` (1,024)
entries are kept, least recently used first out, so a signature checked
again in the same process costs a lookup, not a second verify.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

from .encoding import EncodingError, pack_fields

_HASHERS = {"sha1": hashlib.sha1, "sha256": hashlib.sha256}
_SIZES = {name: new().digest_size for name, new in _HASHERS.items()}

#: fixed strings allowed inside signed blobs
SIGN_TAGS = ("QUOT", "TREEQUOT", "REDTREEQUOT", "CERT")

#: how many Ed25519 results ``verify`` keeps
VERIFY_CACHE_SIZE = 1024

#: Ed25519 key and signature sizes; no other length can verify
_KEY_SIZE, _SIGNATURE_SIZE = 32, 64


@dataclass(frozen=True, slots=True)
class Digest:
    """A raw hash value, or the nil unit when ``value`` is None."""

    value: bytes | None

    @property
    def is_nil(self) -> bool:
        return self.value is None

    def to_text(self) -> str:
        """Lowercase hex, or the literal token ``nil``."""
        return "nil" if self.value is None else self.value.hex()

    def __repr__(self) -> str:
        return f"Digest({self.to_text()})"


NIL = Digest(None)


def as_digest(raw: bytes | None) -> Digest:
    """The public value of a raw digest: ``NIL`` for None."""
    return NIL if raw is None else Digest(raw)


def extend_raw(new, x: bytes | None, y: bytes | None) -> bytes | None:
    """H(x || y) on raw values under hashlib's ``new``; None is a two-sided unit."""
    if x is None:
        return y
    if y is None:
        return x
    return new(x + y).digest()


def parse_digest(text: str, size: int | None = None) -> Digest:
    """Inverse of Digest.to_text(); checks length when ``size`` is given."""
    return as_digest(parse_raw(text, size))


def parse_raw(text: str, size: int | None = None) -> bytes | None:
    """``parse_digest`` to a raw value: None for ``nil``."""
    if text == "nil":
        return None
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"bad digest hex {text!r}") from exc
    if size is not None and len(raw) != size:
        raise ValueError(f"digest {text!r} has {len(raw)} bytes, expected {size}")
    return raw


def digest_to_wire(digest: Digest) -> bytes:
    """One-byte tag plus raw bytes; keeps nil distinct from every value."""
    return b"\x00" if digest.value is None else b"\x01" + digest.value


def digest_from_wire(data: bytes) -> Digest:
    if data == b"\x00":
        return NIL
    if data[:1] != b"\x01":
        raise EncodingError("bad digest wire tag")
    if len(data) == 1:
        raise EncodingError("tagged digest is empty")
    return Digest(data[1:])


@dataclass(frozen=True)
class HashConfig:
    """Hash algorithm, fixed for a register file and every tree it roots."""

    algorithm: str = "sha1"
    #: digest length in bytes, set once from the algorithm
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.algorithm not in _HASHERS:
            raise ValueError(f"unsupported hash algorithm {self.algorithm!r}")
        object.__setattr__(self, "size", _SIZES[self.algorithm])

    @property
    def hasher(self):
        """The hashlib constructor, for sweeps that fold raw digest bytes."""
        return _HASHERS[self.algorithm]

    def measure(self, data: bytes) -> Digest:
        """Hash raw input into a measurement digest."""
        return Digest(_HASHERS[self.algorithm](data).digest())

    def extend(self, x: Digest, y: Digest) -> Digest:
        """H(x || y), with nil as a two-sided unit and nil,nil -> nil."""
        return as_digest(extend_raw(_HASHERS[self.algorithm], x.value, y.value))

    def chiral_extend(self, x: Digest, order_bit: int | str, y: Digest) -> Digest:
        """extend(x, y) when order_bit is 1, extend(y, x) when it is 0.

        The order bit is the tree-coordinate digit of the node being
        folded: it decides which argument is the left child.
        """
        if order_bit not in (0, 1, "0", "1"):
            raise ValueError(f"order bit must be 0 or 1, got {order_bit!r}")
        return self.extend(x, y) if order_bit in (1, "1") else self.extend(y, x)

    def check_raw(self, value: bytes | None) -> None:
        """The one length rule: a raw value is None (nil) or exactly ``size`` bytes."""
        if value is not None and len(value) != self.size:
            raise ValueError(f"digest has {len(value)} bytes, expected {self.size} for {self.algorithm}")

    def check(self, digest: Digest) -> Digest:
        """``check_raw`` on a public digest, returning it unchanged."""
        self.check_raw(digest.value)
        return digest


SHA1 = HashConfig("sha1")
SHA256 = HashConfig("sha256")


@dataclass(frozen=True)
class VerifyingKey:
    """Raw Ed25519 public key."""

    raw: bytes

    def fingerprint(self) -> bytes:
        """Stable key identifier: SHA-256 over the raw public bytes."""
        return hashlib.sha256(self.raw).digest()

    def to_text(self) -> str:
        return self.raw.hex()

    @classmethod
    def from_text(cls, text: str) -> "VerifyingKey":
        return cls(bytes.fromhex(text.strip()))


class SigningKey:
    """Ed25519 private key; signatures are deterministic for fixed input."""

    def __init__(self, private: ed25519.Ed25519PrivateKey) -> None:
        self._private = private
        self.public = VerifyingKey(private.public_key().public_bytes_raw())

    @classmethod
    def generate(cls) -> "SigningKey":
        return cls(ed25519.Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        if len(seed) != 32:
            raise ValueError(f"seed must be 32 bytes, got {len(seed)}")
        return cls(ed25519.Ed25519PrivateKey.from_private_bytes(seed))

    def seed(self) -> bytes:
        return self._private.private_bytes_raw()


def _signing_blob(tag: str, payload: bytes, nonce: bytes) -> bytes:
    if tag not in SIGN_TAGS:
        raise ValueError(f"unknown signing tag {tag!r}")
    return pack_fields(tag.encode("ascii"), payload, nonce)


def sign(key: SigningKey, tag: str, payload: bytes, nonce: bytes = b"") -> bytes:
    """Sign the canonical (tag, payload, nonce) blob.

    A signature is its raw bytes: every verifier is handed the key, so a
    signature carries no key identifier.
    """
    return key._private.sign(_signing_blob(tag, payload, nonce))


def _ed25519_valid(public_raw: bytes, signature: bytes, blob: bytes) -> bool:
    """One Ed25519 check of exact bytes."""
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_raw).verify(signature, blob)
    except (InvalidSignature, ValueError):
        return False
    return True


#: Ed25519 results by key + signature + SHA-256 of the blob, oldest use first
_verified: OrderedDict[bytes, bool] = OrderedDict()
_verified_lock = threading.Lock()


def verify(key: VerifyingKey, tag: str, payload: bytes, nonce: bytes, signature: bytes) -> bool:
    """True iff the signature matches the canonical blob under ``key``."""
    blob = _signing_blob(tag, payload, nonce)
    if len(key.raw) != _KEY_SIZE or len(signature) != _SIGNATURE_SIZE:
        return False
    # fixed widths, so the concatenation is unambiguous; SHA-256 collision
    # resistance makes the digest as good a key as the blob
    entry = key.raw + signature + hashlib.sha256(blob).digest()
    with _verified_lock:
        valid = _verified.get(entry)
        if valid is not None:
            _verified.move_to_end(entry)
            return valid
    valid = _ed25519_valid(key.raw, signature, blob)
    with _verified_lock:
        _verified[entry] = valid
        if len(_verified) > VERIFY_CACHE_SIZE:
            _verified.popitem(last=False)
    return valid
