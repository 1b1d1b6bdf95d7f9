import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from treepcr import Digest, Platform, SHA1
from treepcr import crypto


@pytest.fixture(autouse=True)
def cold_signature_cache():
    """Each test starts with no cached Ed25519 result, so test order cannot
    change how many checks a test counts."""
    crypto._verified.clear()


@pytest.fixture
def ed25519_checks(monkeypatch):
    """The signature of every Ed25519 check run, in order."""
    checks = []
    check = crypto._ed25519_valid

    def counted(public_raw, signature, blob):
        checks.append(signature)
        return check(public_raw, signature, blob)

    monkeypatch.setattr(crypto, "_ed25519_valid", counted)
    return checks


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_platform(leaves, depth, config=SHA1, **kwargs) -> Platform:
    """Platform with the given raw leaf values extended in order."""
    platform = Platform(depth, config=config, **kwargs)
    for raw in leaves:
        platform.extend(Digest(raw))
    return platform
