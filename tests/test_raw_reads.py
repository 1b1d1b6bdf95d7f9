"""The platform's raw read path against the public ``NodeRef`` commands.

``Platform`` reads a node's raw value, siblings and trace with
``tree.read_path`` and hands them to the device's raw commands; tests, the
CLI and the benchmark's traced spans call the ``NodeRef`` forms of the same
commands. Both must give the same results, and the device must refuse
whatever malformed value the (untrusted) mirror hands it.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle import flip_bit, random_digest
from treepcr import NIL, SHA1, SHA256, Digest, Platform, SigningKey, TpmError
from treepcr.crypto import as_digest
from treepcr.tree import read_path

AIK_SEED = bytes(range(32))
NONCE = b"nonce"
NEW_VALUE = b"new value"


def _platform(depth, config, leaves, close):
    platform = Platform(depth, config=config, aik=SigningKey.from_seed(AIK_SEED))
    for value in leaves:
        platform.extend(value)
    if close and platform.tree.leaf_count < 1 << depth:
        platform.close()
    return platform


def _plant(platform, coord, value):
    """Write a raw value straight into the mirror at ``coord``."""
    platform.tree._levels[len(coord)][int(coord, 2)] = value


def _flipped(raw, rng):
    return random_digest(rng) if raw is None else flip_bit(raw, rng.randrange(len(raw) * 8))


#: (read, its Platform form, the same read through the NodeRef-form command)
READS = [
    ("verify", lambda p, c: p.verify_node(c),
     lambda p, c: p.engine.reduced_tree_verify(p.node(c), p.reduced(c), p.root_reg) is not None),
    ("diagnose", lambda p, c: p.diagnose_node(c),
     lambda p, c: p.engine.tree_node_verify(c, p.reduced(c), p.trace(c), p.root_reg)),
    ("quote", lambda p, c: p.quote_node(c, NONCE, include_coord=True),
     lambda p, c: p.engine.tree_node_quote(p.node(c), p.reduced(c), p.root_reg, p.aik, NONCE, include_coord=True)),
    ("reduced-quote", lambda p, c: p.quote_reduced(c, NONCE),
     lambda p, c: p.engine.reduced_tree_quote(
         p.tree.node(c), [ref.value for ref in p.reduced(c)], c, p.root_reg, p.aik, NONCE)),
    ("verified-update", lambda p, c: p.verified_update(c, p.config.measure(NEW_VALUE)), None),
]


def _noderef_update(p, c):
    """``Platform.verified_update`` spelled with the NodeRef-form command."""
    result = p.engine.tree_node_verified_update(p.node(c), p.config.measure(NEW_VALUE), p.reduced(c), p.root_reg)
    if result is not None:
        p.apply_update(c, result.trace)
    return result


def _outcome(run, platform, coord):
    """The result of a read, comparable across two platforms: quotes as bytes, errors by type and message."""
    try:
        result = run(platform, coord)
    except (TpmError, ValueError) as exc:
        return type(exc), str(exc)
    return result.to_bytes() if hasattr(result, "to_bytes") else result


def _device_state(platform):
    engine = platform.engine
    return (
        dataclasses.asdict(engine.stats),
        engine.vdat(),
        [engine.register_value(i) for i in range(engine.register_count)],
        sorted(engine._sessions),
    )


@st.composite
def read_cases(draw):
    """A platform's inputs, a coordinate and a read, and at most one flipped mirror value."""
    depth = draw(st.integers(min_value=1, max_value=8))
    config = draw(st.sampled_from([SHA1, SHA256]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    count = draw(st.integers(min_value=0, max_value=1 << depth))
    # nil leaves and unfilled positions both leave nil nodes in the log
    leaves = [NIL if rng.random() < 0.2 else Digest(random_digest(rng, config.algorithm)) for _ in range(count)]
    close = draw(st.booleans())
    level = draw(st.integers(min_value=1, max_value=depth))
    coord = "".join(draw(st.lists(st.sampled_from("01"), min_size=level, max_size=level)))
    # none, the node itself, a sibling or an ancestor on the trace
    where = draw(st.sampled_from(["none", "node", "sibling", "ancestor"]))
    k = draw(st.integers(min_value=1, max_value=level))
    target = {
        "none": None,
        "node": coord,
        "sibling": coord[: k - 1] + "10"[int(coord[k - 1])],
        "ancestor": coord[: k - 1] if k > 1 else None,
    }[where]
    read = draw(st.sampled_from(READS))
    return depth, config, leaves, close, coord, target, rng, read


@settings(max_examples=200, deadline=None)
@given(case=read_cases())
def test_platform_read_matches_the_noderef_command(case):
    depth, config, leaves, close, coord, target, rng, (name, platform_form, noderef_form) = case
    platforms = [_platform(depth, config, leaves, close) for _ in range(2)]
    if target is not None:
        value = _flipped(platforms[0].tree._levels[len(target)][int(target, 2)], rng)
        for platform in platforms:
            _plant(platform, target, value)
    raw, public = platforms
    assert _device_state(raw) == _device_state(public)

    got = _outcome(platform_form, raw, coord)
    expected = _outcome(noderef_form or _noderef_update, public, coord)
    assert got == expected
    assert _device_state(raw) == _device_state(public)
    assert raw.tree == public.tree


#: (read, mirror positions relative to the node "010" that it hands to the device)
HOSTILE = [
    ("verify", ("node", "sibling")),
    ("diagnose", ("node", "sibling", "ancestor")),
    ("quote", ("node", "sibling")),
    ("reduced-quote", ("node", "sibling")),
    ("verified-update", ("node", "sibling")),
]
POSITIONS = {"node": "010", "sibling": "00", "ancestor": "01"}


@pytest.mark.parametrize(
    "name, position",
    [pytest.param(name, position, id=f"{name}-{position}") for name, positions in HOSTILE for position in positions],
)
def test_hostile_mirror_value_refused_and_nothing_changes(name, position):
    rng = random.Random(5)
    platform = _platform(3, SHA1, [Digest(random_digest(rng)) for _ in range(8)], close=True)
    _plant(platform, POSITIONS[position], b"\x05" * 5)
    run = next(form for read, form, _ in READS if read == name)
    engine = platform.engine
    registers = [(engine.register_value(i), engine.register_state(i)) for i in range(engine.register_count)]
    vdat = engine.vdat()
    with pytest.raises(ValueError, match="digest has 5 bytes, expected 20"):
        run(platform, "010")
    assert [(engine.register_value(i), engine.register_state(i)) for i in range(engine.register_count)] == registers
    assert engine.vdat() == vdat
    assert not engine._sessions


def test_read_path_matches_the_public_lists():
    rng = random.Random(9)
    platform = _platform(4, SHA1, [Digest(random_digest(rng)) for _ in range(11)], close=True)
    for coord in platform.tree.coords():
        value, siblings, trace = read_path(platform.tree, coord)
        assert as_digest(value) == platform.tree.node(coord)
        assert [ref.value.value for ref in platform.reduced(coord)] == siblings
        assert [ref.value.value for ref in platform.trace(coord)] == trace
        assert trace[-1] == value
