import hashlib
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from oracle import oracle_extend
from treepcr import NIL, SHA1, SHA256, Digest, SigningKey, parse_digest, sign, verify
from treepcr import crypto
from treepcr.crypto import VERIFY_CACHE_SIZE, digest_from_wire, digest_to_wire

digests = st.binary(min_size=20, max_size=20).map(Digest)
maybe_nil = st.one_of(st.just(NIL), digests)


def test_extend_matches_frozen_reference():
    # sha1(sha1("a") || sha1("b")) over the 40-byte concatenation,
    # computed once with an independent hashlib-only script
    a = SHA1.measure(b"a")
    b = SHA1.measure(b"b")
    assert a.to_text() == "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8"
    assert b.to_text() == "e9d71f5ee7c92d6dc9e92ffdad17b8bd49418f98"
    assert SHA1.extend(a, b).to_text() == "0056540ac6237d0263dd0faa45c71c73bc480f34"


@given(x=digests, y=digests)
def test_extend_matches_oracle(x, y):
    assert SHA1.extend(x, y).value == oracle_extend(x.value, y.value)


@given(x=maybe_nil)
def test_nil_unit_laws(x):
    assert SHA1.extend(x, NIL) == x
    assert SHA1.extend(NIL, x) == x


def test_nil_nil_is_nil():
    assert SHA1.extend(NIL, NIL) is NIL
    assert NIL.is_nil and not SHA1.measure(b"x").is_nil


def test_nil_is_not_a_byte_pattern():
    zeros = Digest(b"\x00" * 20)
    assert zeros != NIL
    assert SHA1.extend(zeros, NIL) == zeros
    assert not SHA1.extend(zeros, zeros).is_nil


@given(x=maybe_nil, y=maybe_nil)
def test_chiral_order_relation(x, y):
    assert SHA1.chiral_extend(x, 1, y) == SHA1.chiral_extend(y, 0, x)
    assert SHA1.chiral_extend(x, "1", y) == SHA1.extend(x, y)
    assert SHA1.chiral_extend(x, "0", y) == SHA1.extend(y, x)


def test_chiral_nil_order_irrelevant():
    y = SHA1.measure(b"y")
    assert SHA1.chiral_extend(NIL, 0, y) == y
    assert SHA1.chiral_extend(NIL, 1, y) == y


def test_chiral_rejects_bad_bit():
    with pytest.raises(ValueError):
        SHA1.chiral_extend(NIL, 2, NIL)


def test_extend_not_commutative(rng):
    collisions = 0
    for _ in range(1000):
        x, y = Digest(rng.randbytes(20)), Digest(rng.randbytes(20))
        if x != y and SHA1.extend(x, y) == SHA1.extend(y, x):
            collisions += 1
    assert collisions == 0


def test_hash_config_sizes():
    assert SHA1.size == 20
    assert SHA256.size == 32
    assert len(SHA256.extend(SHA256.measure(b"a"), SHA256.measure(b"b")).value) == 32
    with pytest.raises(ValueError):
        SHA1.check(Digest(b"\x01" * 32))
    with pytest.raises(ValueError):
        from treepcr import HashConfig

        HashConfig("md5")


def test_text_rendering_round_trip():
    d = SHA1.measure(b"render me")
    assert d.to_text() == d.value.hex()
    assert d.to_text() == d.to_text().lower()
    assert parse_digest(d.to_text(), 20) == d
    assert NIL.to_text() == "nil"
    assert parse_digest("nil") is NIL
    with pytest.raises(ValueError):
        parse_digest("zz")
    with pytest.raises(ValueError):
        parse_digest("ab" * 10, 32)


@given(x=maybe_nil)
def test_wire_round_trip(x):
    assert digest_from_wire(digest_to_wire(x)) == x


def test_sign_verify_round_trip():
    key = SigningKey.generate()
    sig = key_sig = sign(key, "TREEQUOT", b"payload", b"nonce")
    assert verify(key.public, "TREEQUOT", b"payload", b"nonce", sig)


def test_sign_deterministic():
    key = SigningKey.from_seed(b"\x07" * 32)
    first = sign(key, "QUOT", b"p", b"n")
    second = sign(key, "QUOT", b"p", b"n")
    assert first == second


def test_verify_rejects_single_bit_changes():
    key = SigningKey.generate()
    sig = sign(key, "CERT", b"payload", b"")
    assert not verify(key.public, "CERT", b"qayload", b"", sig)
    assert not verify(key.public, "CERT", b"payload", b"x", sig)
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
    assert not verify(key.public, "CERT", b"payload", b"", flipped)


def test_verify_rejects_wrong_key_and_tag():
    key, other = SigningKey.generate(), SigningKey.generate()
    sig = sign(key, "REDTREEQUOT", b"p", b"n")
    assert not verify(other.public, "REDTREEQUOT", b"p", b"n", sig)
    assert not verify(key.public, "TREEQUOT", b"p", b"n", sig)


def test_sign_rejects_unknown_tag():
    with pytest.raises(ValueError):
        sign(SigningKey.generate(), "BOGUS", b"", b"")


def test_seed_round_trip_and_fingerprint():
    key = SigningKey.generate()
    again = SigningKey.from_seed(key.seed())
    assert again.public == key.public
    assert key.public.fingerprint() == hashlib.sha256(key.public.raw).digest()


CACHED_KEY = SigningKey.from_seed(b"\x07" * 32)
CACHED = dict(key=CACHED_KEY.public, tag="QUOT", payload=b"payload", nonce=b"nonce",
              signature=sign(CACHED_KEY, "QUOT", b"payload", b"nonce"))


def test_repeated_verify_runs_one_ed25519_check(ed25519_checks):
    assert all(verify(**CACHED) for _ in range(10))
    assert len(ed25519_checks) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("key", SigningKey.from_seed(b"\x08" * 32).public),
        ("tag", "TREEQUOT"),
        ("payload", b"qayload"),
        ("nonce", b"nonce2"),
        ("signature", bytes([CACHED["signature"][0] ^ 1]) + CACHED["signature"][1:]),
    ],
)
def test_changed_field_after_cached_success_is_checked_afresh(ed25519_checks, field, value):
    assert verify(**CACHED) and verify(**CACHED)
    assert len(ed25519_checks) == 1
    assert not verify(**{**CACHED, field: value})
    assert len(ed25519_checks) == 2
    assert verify(**CACHED)


def test_signature_cache_is_bounded(ed25519_checks):
    key = SigningKey.from_seed(b"\x07" * 32)
    sig = sign(key, "CERT", b"payload", b"")
    for i in range(2000):
        verify(key.public, "CERT", i.to_bytes(2, "big"), b"", sig)
        assert len(crypto._verified) <= VERIFY_CACHE_SIZE
    assert (len(crypto._verified), len(ed25519_checks)) == (VERIFY_CACHE_SIZE, 2000)


def test_cache_keeps_none_of_a_large_nonce(ed25519_checks):
    key = SigningKey.from_seed(b"\x07" * 32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(8):
            nonce = bytes([i]) * (1 << 20)
            assert verify(key.public, "QUOT", b"payload", nonce, sign(key, "QUOT", b"payload", nonce))
            assert not verify(key.public, "QUOT", b"payload", nonce, bytes(64))
            del nonce
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ed25519_checks) == 16
    assert len(crypto._verified) == 16 and all(len(entry) == 128 for entry in crypto._verified)
    assert kept < 64 * 1024


@pytest.mark.parametrize(
    "key, signature",
    [
        (CACHED["key"], CACHED["signature"] * (1 << 14)),  # a 1 MiB signature
        (CACHED["key"], CACHED["signature"][:63]),
        (crypto.VerifyingKey(CACHED["key"].raw + b"\x00"), CACHED["signature"]),
        (crypto.VerifyingKey(b"\x00" * (1 << 20)), CACHED["signature"]),
    ],
    ids=["1mib-signature", "short-signature", "long-key", "1mib-key"],
)
def test_wrong_sized_key_or_signature_is_refused_before_the_cache(ed25519_checks, key, signature):
    assert not verify(key, "QUOT", b"payload", b"nonce", signature)
    assert ed25519_checks == [] and len(crypto._verified) == 0
    with pytest.raises(ValueError, match="unknown signing tag"):
        verify(key, "XQUOT", b"payload", b"nonce", signature)


def test_concurrent_verifies_match_serial_answers():
    keys = [SigningKey.from_seed(bytes([i]) * 32) for i in range(1, 5)]
    cases = []
    for i, key in enumerate(keys):
        sig = sign(key, "QUOT", b"p%d" % i, b"n")
        cases.append((key.public, "QUOT", b"p%d" % i, b"n", sig))
        cases.append((key.public, "QUOT", b"p%d" % i, b"m", sig))
        cases.append((keys[i - 1].public, "QUOT", b"p%d" % i, b"n", sig))
    serial = [verify(*case) for case in cases]
    assert serial.count(True) == len(keys)
    crypto._verified.clear()
    barrier = threading.Barrier(8)
    answers = []

    def check(offset):
        barrier.wait(timeout=30)
        for _ in range(20):
            got = [None] * len(cases)
            for n in range(len(cases)):  # each thread starts at its own case
                i = (offset + n) % len(cases)
                got[i] = verify(*cases[i])
            answers.append(got)

    threads = [threading.Thread(target=check, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 8 * 20 and all(got == serial for got in answers)
