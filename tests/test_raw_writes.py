"""The platform's raw write path against the public ``NodeRef`` commands.

``Platform.extend`` and ``Platform.verified_update`` write the raw path the
device's raw cores return with one ``set_path`` each; tests, the CLI and
the benchmark's traced spans call the ``NodeRef`` forms of the same
commands and write the mirror from their public results. Both must leave
the same root, mirror, register file and counters behind.
"""

import random

from hypothesis import given, settings, strategies as st

from oracle import random_digest
from test_raw_reads import NEW_VALUE, _device_state, _noderef_update
from treepcr import NIL, SHA1, SHA256, Digest, Platform, SigningKey, TreeComplete

AIK_SEED = bytes(range(32))


def _noderef_extend(platform, measurement):
    """``Platform.extend`` spelled with the NodeRef-form command and ``set_node``."""
    result = platform.engine.tree_extend(platform.root_reg, measurement)
    for ref in result.nodes:
        platform.tree.set_node(ref.coord, ref.value)
    platform.tree.leaf_count = result.index + 1
    return result.root


def _extend_outcome(extend, platform, measurement):
    try:
        return extend(platform, measurement)
    except TreeComplete as exc:
        return type(exc), str(exc)


@st.composite
def write_cases(draw):
    """A tree's shape, its leaves (some nil, some past capacity) and one node to update."""
    depth = draw(st.integers(min_value=1, max_value=8))
    config = draw(st.sampled_from([SHA1, SHA256]))
    auto_close = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    # up to one leaf more than the tree holds, to reach the full tree's refusal
    count = draw(st.integers(min_value=0, max_value=(1 << depth) + 1))
    leaves = [NIL if rng.random() < 0.2 else Digest(random_digest(rng, config.algorithm)) for _ in range(count)]
    level = draw(st.integers(min_value=1, max_value=depth))
    coord = "".join(draw(st.lists(st.sampled_from("01"), min_size=level, max_size=level)))
    return depth, config, auto_close, leaves, coord


@settings(max_examples=150, deadline=None)
@given(case=write_cases())
def test_platform_write_matches_the_noderef_command(case):
    depth, config, auto_close, leaves, coord = case
    raw, public = (
        Platform(depth, config=config, auto_close=auto_close, aik=SigningKey.from_seed(AIK_SEED)) for _ in range(2)
    )
    for leaf in leaves:
        got = _extend_outcome(Platform.extend, raw, leaf)
        assert got == _extend_outcome(_noderef_extend, public, leaf)
        assert raw.root() == public.root()
        if not isinstance(got, tuple):
            assert got == raw.root()
        assert raw.tree == public.tree
        assert _device_state(raw) == _device_state(public)

    got = raw.verified_update(coord, config.measure(NEW_VALUE))
    expected = _noderef_update(public, coord)
    assert got == expected
    if got is not None:
        assert got.trace == expected.trace and got.root == expected.root == raw.root()
    assert raw.root() == public.root()
    assert raw.tree == public.tree
    assert _device_state(raw) == _device_state(public)


def test_registers_are_reset_in_place():
    rng = random.Random(4)
    platform = Platform(4, aik=SigningKey.from_seed(AIK_SEED))
    registers = list(platform.engine._regs)
    for _ in range(16):
        platform.extend(Digest(random_digest(rng)))
    vdat = platform.engine.vdat()
    assert platform.verified_update("0110", SHA1.measure(NEW_VALUE)) is not None
    assert all(now is before for now, before in zip(platform.engine._regs, registers, strict=True))
    assert platform.engine.vdat() == vdat
