import cProfile
import dataclasses
import hashlib
import logging
import pstats
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_platform
from oracle import (
    build_full_tree,
    flip_bit,
    oracle_update,
    random_digest,
    random_leaves,
)
from treepcr import (
    NIL,
    SHA1,
    SHA256,
    BindingViolation,
    Digest,
    InsufficientRegisters,
    NodeRef,
    Platform,
    RegisterState,
    SigningKey,
    StateViolation,
    TreeComplete,
    TreeTpm,
    find_inconsistency,
    parse_sml,
    recompute_root,
    refold_reduced_quote,
    serialize_sml,
    verify_quote,
)
from treepcr import engine as engine_module
from treepcr.encoding import EncodingError
from treepcr.engine import Quote, Register, SessionStatus, TpmError, UpdateSession


def corrupt(value: Digest, rng: random.Random) -> Digest:
    """Bit-flip a real digest; substitute a random one for nil."""
    if value.is_nil:
        return Digest(random_digest(rng))
    return Digest(flip_bit(value.value, rng.randrange(len(value.value) * 8)))


class TestTreeExtend:
    def test_first_extend_collapses_to_leaf(self):
        tpm = TreeTpm()
        reg = tpm.create_tree(2)
        m1 = SHA1.measure(b"m1")
        result = tpm.tree_extend(reg, m1)
        assert result.coord == "00"
        assert result.root == m1
        assert tpm.register_value(reg) == m1
        assert dict(result.nodes) == {"00": m1, "0": m1, "": m1} or [
            n.coord for n in result.nodes
        ] == ["00", "0"]

    def test_four_extends_match_hand_composition(self):
        tpm = TreeTpm()
        reg = tpm.create_tree(2)
        ms = [SHA1.measure(b"m%d" % i) for i in range(4)]
        for m in ms:
            result = tpm.tree_extend(reg, m)
        expected = SHA1.extend(SHA1.extend(ms[0], ms[1]), SHA1.extend(ms[2], ms[3]))
        assert result.root == expected

    def test_fifth_extend_tree_complete(self):
        tpm = TreeTpm()
        ms = [SHA1.measure(bytes([i])) for i in range(4)]
        root = SHA1.extend(SHA1.extend(ms[0], ms[1]), SHA1.extend(ms[2], ms[3]))
        # a full tree whose root is still AR: only a restored snapshot seats one
        reg = tpm.restore_tree(2, root, "AR", 4, [NIL, NIL])
        assert tpm.register_state(reg) is RegisterState.AR
        before = tpm.vdat(), [tpm.register_value(r) for r in range(tpm.register_count)]
        with pytest.raises(TreeComplete, match="tree complete"):
            tpm.tree_extend(reg, SHA1.measure(b"overflow"))
        assert (tpm.vdat(), [tpm.register_value(r) for r in range(tpm.register_count)]) == before

    def test_auto_close_on_full(self):
        tpm = TreeTpm()
        reg = tpm.create_tree(2)
        results = [tpm.tree_extend(reg, SHA1.measure(bytes([i]))) for i in range(4)]
        assert results[-1].closed
        assert tpm.register_state(reg) is RegisterState.CR
        with pytest.raises(TreeComplete):
            tpm.tree_extend(reg, SHA1.measure(b"overflow"))

    def test_extend_requires_active_root(self):
        tpm = TreeTpm()
        with pytest.raises(StateViolation):
            tpm.tree_extend(3, SHA1.measure(b"m"))

    def test_roots_match_oracle_randomly(self, rng):
        for _ in range(40):
            depth = rng.randint(1, 6)
            leaves = random_leaves(rng, depth)
            platform = make_platform(leaves, depth)
            _, root = build_full_tree(leaves, depth)
            assert platform.root().value == root

    def test_mirror_matches_oracle_after_every_extend(self, rng):
        depth = 3
        leaves = random_leaves(rng, depth, count=8)
        platform = make_platform([], depth)
        for i, raw in enumerate(leaves, start=1):
            platform.extend(Digest(raw))
            nodes, root = build_full_tree(leaves[:i], depth)
            for coord in platform.tree.coords():
                assert platform.tree.node(coord).value == nodes[coord]
            assert platform.root().value == root

    def test_nil_leaf_extends_are_allowed(self):
        # gap filling during scratch builds extends nil values
        tpm = TreeTpm()
        reg = tpm.create_tree(2)
        tpm.tree_extend(reg, SHA1.measure(b"a"))
        tpm.tree_extend(reg, NIL)
        tpm.tree_extend(reg, SHA1.measure(b"c"))
        expected = SHA1.extend(SHA1.measure(b"a"), SHA1.measure(b"c"))
        assert tpm.register_value(reg) == expected

    def test_tb_registers_allocated_and_freed(self):
        tpm = TreeTpm(register_count=8)
        before = tpm.free_register_count()
        reg = tpm.create_tree(3)
        assert tpm.free_register_count() == before - 4  # root + 3 scratch
        tpm.close_tree(reg)
        assert tpm.free_register_count() == before - 1


class TestVerifyLoad:
    def test_honest_load_returns_oracle_trace(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        nodes, _ = build_full_tree(leaves, 3)
        loaded = platform.engine.reduced_tree_verify_load(
            platform.node("010"), platform.reduced("010"), platform.root_reg
        )
        assert loaded is not None
        assert [(t.coord, t.value.value) for t in loaded.trace] == [
            (c, nodes[c]) for c in ("0", "01", "010")
        ]
        assert loaded.session.status is SessionStatus.ARMED

    def test_corrupted_sibling_is_rejected_and_registers_freed(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        engine = platform.engine
        free_before = engine.free_register_count()
        reduced = platform.reduced("010")
        reduced[1] = NodeRef(reduced[1].coord, corrupt(reduced[1].value, rng))
        assert engine.reduced_tree_verify_load(platform.node("010"), reduced, platform.root_reg) is None
        assert engine.free_register_count() == free_before

    def test_level_one_with_nil_sibling(self, rng):
        platform = make_platform(random_leaves(rng, 1, count=1), 1)
        loaded = platform.engine.reduced_tree_verify_load(
            platform.node("0"), platform.reduced("0"), platform.root_reg
        )
        assert loaded is not None
        assert loaded.trace == [platform.node("0")]

    def test_insufficient_registers(self, rng):
        # open tree on a 6-slot device: root + 4 scratch leave one free slot
        platform = make_platform(random_leaves(rng, 4, count=10), 4, register_count=6)
        with pytest.raises(InsufficientRegisters):
            platform.engine.reduced_tree_verify_load(
                platform.node("0101"), platform.reduced("0101"), platform.root_reg
            )

    def test_root_register_must_hold_a_root(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        with pytest.raises(StateViolation):
            platform.engine.reduced_tree_verify_load(platform.node("01"), platform.reduced("01"), 9)

    def test_coord_mismatch_is_usage_error(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        wrong = list(reversed(platform.reduced("01")))
        with pytest.raises(ValueError):
            platform.engine.reduced_tree_verify_load(platform.node("01"), wrong, platform.root_reg)

    def test_verify_load_works_on_open_trees(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=5), 3)
        assert platform.root_state() is RegisterState.AR
        assert platform.verify_node("010")


class TestReducedTreeVerify:
    def test_differential_against_verify_load(self, rng):
        for _ in range(60):
            depth = rng.randint(1, 5)
            leaves = random_leaves(rng, depth)
            platform = make_platform(leaves, depth)
            coords = list(platform.tree.coords())
            coord = rng.choice(coords)
            node, reduced = platform.node(coord), platform.reduced(coord)
            if rng.random() < 0.5:
                k = rng.randrange(len(reduced) + 1)
                if k == len(reduced):
                    node = NodeRef(coord, corrupt(node.value, rng))
                else:
                    reduced[k] = NodeRef(reduced[k].coord, corrupt(reduced[k].value, rng))
            one = platform.engine.reduced_tree_verify(node, reduced, platform.root_reg)
            loaded = platform.engine.reduced_tree_verify_load(node, reduced, platform.root_reg)
            assert (one is None) == (loaded is None)

    def test_swapped_node_and_sibling_rejected(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        node = platform.node("00")
        reduced = platform.reduced("00")
        swapped_node = NodeRef("00", reduced[0].value)
        swapped_reduced = [NodeRef(reduced[0].coord, node.value), reduced[1]]
        # honest chirality bits, values exchanged: order must matter
        assert (
            platform.engine.reduced_tree_verify(swapped_node, swapped_reduced, platform.root_reg)
            is None
        )

    def test_level_one_left_child_extends_to_root(self, rng):
        platform = make_platform(random_leaves(rng, 1, count=2), 1)
        node, reduced = platform.node("0"), platform.reduced("0")
        assert SHA1.extend(node.value, reduced[0].value) == platform.root()
        assert platform.engine.reduced_tree_verify(node, reduced, platform.root_reg) == platform.root()


class TestTreeNodeVerify:
    def test_untampered_inputs_pass(self, rng):
        platform = make_platform(random_leaves(rng, 4), 4)
        for coord in ("0", "01", "0110", "111"):
            assert platform.diagnose_node(coord) is None

    def test_breach_levels_exhaustive(self, rng):
        for depth in range(1, 5):
            leaves = random_leaves(rng, depth, count=1 << depth)
            platform = make_platform(leaves, depth)
            for coord in platform.tree.coords():
                trace, reduced = platform.trace(coord), platform.reduced(coord)
                for k in range(1, len(coord) + 1):
                    bad_trace = list(trace)
                    bad_trace[k - 1] = NodeRef(trace[k - 1].coord, corrupt(trace[k - 1].value, rng))
                    breach = platform.engine.tree_node_verify(
                        coord, reduced, bad_trace, platform.root_reg
                    )
                    assert breach is not None and breach.level == k
                    bad_reduced = list(reduced)
                    bad_reduced[k - 1] = NodeRef(reduced[k - 1].coord, corrupt(reduced[k - 1].value, rng))
                    breach = platform.engine.tree_node_verify(
                        coord, bad_reduced, trace, platform.root_reg
                    )
                    assert breach is not None and breach.level == k

    def test_reported_digest_is_the_recomputation(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        trace = platform.trace("010")
        bad = list(trace)
        bad[1] = NodeRef("01", corrupt(trace[1].value, rng))
        breach = platform.engine.tree_node_verify("010", platform.reduced("010"), bad, platform.root_reg)
        assert breach.level == 2
        assert breach.computed == SHA1.chiral_extend(platform.reduced("010")[1].value, "1", bad[1].value)

    def test_needs_three_registers(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2, register_count=3)
        # root occupies one; only two free
        with pytest.raises(InsufficientRegisters):
            platform.diagnose_node("01")

    def test_input_shape_validated(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        with pytest.raises(ValueError):
            platform.engine.tree_node_verify(
                "01", platform.reduced("01"), platform.trace("00"), platform.root_reg
            )


class TestUpdate:
    def test_update_matches_oracle(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        nodes, _ = build_full_tree(leaves, 2)
        new_value = Digest(random_digest(rng))
        result = platform.verified_update("01", new_value)
        _, expected_root = oracle_update(nodes, "01", new_value.value)
        assert result.root.value == expected_root
        assert platform.root().value == expected_root
        assert platform.verify_node("01")
        assert platform.tree.node("01") == new_value

    def test_same_value_update_is_idempotent(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        before = platform.root()
        result = platform.verified_update("10", platform.tree.node("10"))
        assert result.root == before

    def test_double_consume_is_binding_violation(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        engine = platform.engine
        loaded = engine.reduced_tree_verify_load(platform.node("01"), platform.reduced("01"), platform.root_reg)
        engine.reduced_tree_update(loaded.session, SHA1.measure(b"v1"))
        with pytest.raises(BindingViolation, match="consumed"):
            engine.reduced_tree_update(loaded.session, SHA1.measure(b"v2"))

    def test_release_of_loaded_register_invalidates(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        engine = platform.engine
        loaded = engine.reduced_tree_verify_load(platform.node("01"), platform.reduced("01"), platform.root_reg)
        engine.release(loaded.session.buffer_regs[0])
        assert loaded.session.status is SessionStatus.INVALIDATED
        with pytest.raises(BindingViolation, match="invalidated"):
            engine.reduced_tree_update(loaded.session, SHA1.measure(b"v"))

    def test_session_table_holds_armed_sessions_only(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        engine = platform.engine
        free = engine.free_register_count()
        for _ in range(1000):
            loaded = engine.reduced_tree_verify_load(platform.node("010"), platform.reduced("010"), platform.root_reg)
            for reg in (*loaded.session.buffer_regs, loaded.session.staging_reg):
                engine.release(reg)
            assert loaded.session.status is SessionStatus.INVALIDATED
        assert engine._sessions == {}
        assert engine.free_register_count() == free
        with pytest.raises(BindingViolation, match="invalidated"):
            engine.reduced_tree_update(loaded.session, SHA1.measure(b"v"))

    def test_copied_or_forged_session_refused(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        engine = platform.engine
        loaded = engine.reduced_tree_verify_load(platform.node("01"), platform.reduced("01"), platform.root_reg)
        session = loaded.session
        copied = dataclasses.replace(session)
        forged = dataclasses.replace(session, session_id=session.session_id + 1)
        for fake in (copied, forged):
            assert fake.status is SessionStatus.ARMED
            with pytest.raises(BindingViolation, match="unknown update session"):
                engine.reduced_tree_update(fake, SHA1.measure(b"v"))
        engine.reduced_tree_update(session, SHA1.measure(b"v"))
        assert session.status is SessionStatus.CONSUMED and engine._sessions == {}
        with pytest.raises(BindingViolation, match="unknown update session"):
            engine.reduced_tree_update(copied, SHA1.measure(b"v"))

    def test_tampered_session_refused(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        engine = platform.engine
        loaded = engine.reduced_tree_verify_load(platform.node("01"), platform.reduced("01"), platform.root_reg)
        before = platform.root(), serialize_sml(platform.tree), engine.vdat()
        loaded.session.auth = bytes(b ^ 1 for b in loaded.session.auth)
        with pytest.raises(BindingViolation, match="session authorisation digest mismatch"):
            engine.reduced_tree_update(loaded.session, SHA1.measure(b"v"))
        assert (platform.root(), serialize_sml(platform.tree), engine.vdat()) == before

    def test_update_trace_matches_refold(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        nodes, _ = build_full_tree(leaves, 3)
        new_value = Digest(random_digest(rng))
        result = platform.verified_update("110", new_value)
        mutated, root = oracle_update(nodes, "110", new_value.value)
        assert [(t.coord, t.value.value) for t in result.trace] == [
            (c, mutated[c]) for c in ("1", "11", "110")
        ]
        assert recompute_root(platform.tree) == platform.root()

    def test_update_on_open_tree_seals_it(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=5), 3)
        assert platform.root_state() is RegisterState.AR
        platform.verified_update("000", Digest(random_digest(rng)))
        assert platform.root_state() is RegisterState.CR
        with pytest.raises(TreeComplete):
            platform.extend(Digest(random_digest(rng)))


class TestVerifiedUpdate:
    def test_differential_against_two_step(self, rng):
        for _ in range(20):
            depth = rng.randint(2, 4)
            leaves = random_leaves(rng, depth, count=1 << depth)
            one = make_platform(leaves, depth)
            two = make_platform(leaves, depth)
            coord = rng.choice(list(one.tree.coords()))
            new_value = Digest(random_digest(rng))

            r1 = one.verified_update(coord, new_value)
            loaded = two.engine.reduced_tree_verify_load(two.node(coord), two.reduced(coord), two.root_reg)
            r2 = two.engine.reduced_tree_update(loaded.session, new_value)
            assert r1.root == r2.root and r1.trace == r2.trace

    def test_rejected_update_changes_nothing(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        engine = platform.engine
        root_before = platform.root()
        tree_before = platform.tree.copy()
        free_before = engine.free_register_count()
        reduced = platform.reduced("01")
        reduced[0] = NodeRef(reduced[0].coord, corrupt(reduced[0].value, rng))
        assert platform.engine.tree_node_verified_update(
            platform.node("01"), SHA1.measure(b"new"), reduced, platform.root_reg
        ) is None
        assert platform.root() == root_before
        assert platform.tree == tree_before
        assert engine.free_register_count() == free_before

    def test_leaf_update_then_full_recompute(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        platform.verified_update("111", Digest(random_digest(rng)))
        assert recompute_root(platform.tree) == platform.root()


class TestSessionBinding:
    def _armed(self, rng, depth=2):
        platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
        loaded = platform.engine.reduced_tree_verify_load(
            platform.node("01"), platform.reduced("01"), platform.root_reg
        )
        return platform, loaded.session

    def test_another_update_on_same_root_invalidates(self, rng):
        platform, session = self._armed(rng)
        platform.verified_update("10", Digest(random_digest(rng)))  # writes the shared root
        assert session.status is SessionStatus.INVALIDATED

    def test_benign_scratch_commands_do_not_invalidate(self, rng):
        platform, session = self._armed(rng)
        engine = platform.engine
        scratch = engine._alloc(1, RegisterState.FREE)[0] if False else 20
        engine.extend_register(scratch, SHA1.measure(b"x"))
        engine.reset_to_nil(scratch)
        assert session.status is SessionStatus.ARMED
        engine.reduced_tree_update(session, SHA1.measure(b"fine"))

    def test_mutating_commands_on_bound_registers_refused(self, rng):
        platform, session = self._armed(rng)
        engine = platform.engine
        for reg in (*session.buffer_regs, session.staging_reg):
            with pytest.raises(StateViolation):
                engine.extend_register(reg, SHA1.measure(b"evil"))
            with pytest.raises(StateViolation):
                engine.reset_to_nil(reg)
        assert session.status is SessionStatus.ARMED


class TestQuotes:
    def test_tree_node_quote_round_trip(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = platform.quote_node("01", b"fresh-nonce")
        assert quote.tag == "TREEQUOT"
        assert quote.node_value == platform.tree.node("01")
        assert quote.coord is None  # minimal revelation by default
        assert verify_quote(quote, platform.aik.public)

    def test_quote_with_coord_signs_it(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = platform.quote_node("01", b"n", include_coord=True)
        assert quote.coord == "01"
        plain = platform.quote_node("01", b"n")
        assert quote.signature != plain.signature

    def test_quote_requires_complete_root(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=2), 2)
        assert platform.root_state() is RegisterState.AR
        with pytest.raises(StateViolation):
            platform.quote_node("00", b"n")
        with pytest.raises(StateViolation):
            platform.quote_reduced("00", b"n")
        with pytest.raises(StateViolation):
            platform.quote_node("", b"n")

    def test_quote_of_tampered_node_refused(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        platform.tree.set_node("01", Digest(random_digest(rng)))
        assert platform.quote_node("01", b"n") is None

    def test_tampered_quote_fails_verification(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = platform.quote_node("01", b"n")
        forged = Quote(
            tag=quote.tag,
            node_value=SHA1.measure(b"other"),
            nonce=quote.nonce,
            signature=quote.signature,
        )
        assert not verify_quote(forged, platform.aik.public)

    def test_wrong_nonce_fails_verification(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = platform.quote_node("01", b"nonce-a")
        replayed = Quote(
            tag=quote.tag,
            node_value=quote.node_value,
            nonce=b"nonce-b",
            signature=quote.signature,
        )
        assert not verify_quote(replayed, platform.aik.public)

    def test_reduced_quote_refolds(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        quote = platform.quote_reduced("010", b"n")
        assert quote.tag == "REDTREEQUOT"
        assert verify_quote(quote, platform.aik.public)
        assert refold_reduced_quote(quote, SHA1)

    def test_reduced_quote_swapped_siblings_rejected(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        quote = platform.quote_reduced("010", b"n")
        swapped = Quote(
            tag=quote.tag,
            node_value=quote.node_value,
            nonce=quote.nonce,
            signature=quote.signature,
            coord=quote.coord,
            reduced_values=tuple(reversed(quote.reduced_values)),
            root_register=quote.root_register,
            root_value=quote.root_value,
        )
        assert not refold_reduced_quote(swapped, SHA1) or not verify_quote(swapped, platform.aik.public)

    def test_reduced_quote_root_self_quote(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = platform.quote_reduced("", b"n")
        assert quote.node_value == platform.root()
        assert quote.reduced_values == ()
        assert refold_reduced_quote(quote, SHA1)
        assert verify_quote(quote, platform.aik.public)

    def test_plain_register_quote(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = platform.quote_node("", b"n")
        assert quote.tag == "QUOT"
        assert quote.node_value == platform.root()
        assert verify_quote(quote, platform.aik.public)

    def test_quote_serialization_round_trip(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        for quote in (
            platform.quote_node("01", b"n", include_coord=True),
            platform.quote_reduced("010", b"n"),
            platform.quote_reduced("01", b"n"),
            platform.quote_reduced("", b"n"),  # a root reduced quote has no siblings
            platform.quote_node("", b"n"),
        ):
            again = Quote.from_bytes(quote.to_bytes())
            assert again == quote and again.to_bytes() == quote.to_bytes()
            assert verify_quote(again, platform.aik.public)
            if quote.tag == "REDTREEQUOT":
                assert refold_reduced_quote(again, SHA1)

    #: (variant, signed payload, SHA-256 of the wire bytes) for a fixed key, log and nonce
    PINNED = [
        ("QUOT", "000000150107c83dc17e743fcde9971352b73b5f36703c02fc",
         "0937f8871f7b4cee859bdb344bc09233dba70466d2bcb62f93cfee5a6c75e56d"),
        ("TREEQUOT", "0000001501d21e5263695cc2b68bd19156e92eac8dbd5fac67",
         "111d17b3c24c316d06d11e742fbde803b1f33aea2553fb7c34d727fcf2f44358"),
        ("TREEQUOT-coord", "0000001501d21e5263695cc2b68bd19156e92eac8dbd5fac6700000003303130",
         "c316fd0cdd8ddcee974b0fedc1edf22ea36cf1165f26faff2d7404efa42c227f"),
        ("REDTREEQUOT-node",
         "0000001501d21e5263695cc2b68bd19156e92eac8dbd5fac670000000400000003000000150128a45070d3ec5da7e59fed2b81"
         "951878c034f75d000000150195dfa0c717c3fca2d43e4a2db212fab17e241ee50000001501916a110ecd8d2472a226bff212e6"
         "121c5294877f0000000400000000000000150107c83dc17e743fcde9971352b73b5f36703c02fc",
         "5ede1c9fdef1f16f33fe4348d679e5fe50f5af9bc505bbe322fc916bd351e0cd"),
        ("REDTREEQUOT-root",
         "000000150107c83dc17e743fcde9971352b73b5f36703c02fc00000004000000000000000400000000000000150107c83dc17e"
         "743fcde9971352b73b5f36703c02fc",
         "6bab8551c853dbdf5bba282c70aabc8e9758550eb1804bcf364ef50d93709c71"),
    ]

    @pytest.mark.parametrize("variant, payload, wire", PINNED, ids=[v for v, *_ in PINNED])
    def test_quote_bytes_are_pinned(self, variant, payload, wire):
        platform = Platform(3, aik=SigningKey.from_seed(bytes(range(32))))
        for i in range(8):
            platform.extend(SHA1.measure(b"leaf %d" % i))
        quote = {
            "QUOT": lambda: platform.quote_node("", b"pinned nonce"),
            "TREEQUOT": lambda: platform.quote_node("010", b"pinned nonce"),
            "TREEQUOT-coord": lambda: platform.quote_node("010", b"pinned nonce", include_coord=True),
            "REDTREEQUOT-node": lambda: platform.quote_reduced("010", b"pinned nonce"),
            "REDTREEQUOT-root": lambda: platform.quote_reduced("", b"pinned nonce"),
        }[variant]()
        assert quote.signed_payload().hex() == payload
        assert hashlib.sha256(quote.to_bytes()).hexdigest() == wire

    def test_misplaced_reduced_tree_fields_refused(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        reduced = platform.quote_reduced("", b"n")
        for stripped in (
            dataclasses.replace(reduced, root_value=None),
            dataclasses.replace(reduced, root_register=None),
            dataclasses.replace(platform.quote_node("01", b"n"), root_register=reduced.root_register),
            dataclasses.replace(platform.quote_node("", b"n"), root_value=reduced.root_value),
            dataclasses.replace(platform.quote_node("", b"n"), tag="XQUOT"),
        ):
            with pytest.raises(EncodingError):
                Quote.from_bytes(stripped.to_bytes())

    def test_malformed_unsigned_coordinate_fails_the_refold(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        quote = dataclasses.replace(platform.quote_reduced("01", b"n"), coord="2x")
        assert verify_quote(quote, platform.aik.public)  # the coordinate is not signed
        assert not refold_reduced_quote(Quote.from_bytes(quote.to_bytes()), SHA1)


class TestAdmin:
    def test_close_then_extend_refused(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=2), 2)
        platform.close()
        assert platform.root_state() is RegisterState.CR
        with pytest.raises(TreeComplete):
            platform.extend(SHA1.measure(b"late"))

    def test_reset_then_extend_writes_directly(self):
        tpm = TreeTpm()
        value = SHA1.measure(b"direct write")
        tpm.extend_register(5, SHA1.measure(b"history"))
        tpm.reset_to_nil(5)
        assert tpm.register_value(5) is NIL
        assert tpm.extend_register(5, value) == value

    def test_release_illegal_transitions(self):
        tpm = TreeTpm()
        with pytest.raises(StateViolation):
            tpm.release(7)  # already free
        reg = tpm.create_tree(2)
        tb = next(i for i, e in tpm.vdat().items() if e.state is RegisterState.TB)
        with pytest.raises(StateViolation):
            tpm.release(tb)

    def test_release_of_root_tears_down_tree(self):
        tpm = TreeTpm(register_count=6)
        reg = tpm.create_tree(3)
        assert tpm.free_register_count() == 2
        tpm.release(reg)
        assert tpm.free_register_count() == 6
        with pytest.raises(StateViolation):
            tpm.tree_extend(reg, SHA1.measure(b"gone"))

    def test_vdat_view(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=1), 2)
        vdat = platform.engine.vdat()
        states = sorted(entry.state.value for entry in vdat.values())
        assert states == ["AR", "TB", "TB"]
        assert vdat[platform.root_reg].coord == ""
        uids = {entry.tree_uid for entry in vdat.values()}
        assert len(uids) == 1

    def test_one_root_per_tree_invariant(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        tpm = platform.engine
        tpm.create_tree(2)
        by_tree = {}
        for entry in tpm.vdat().values():
            if entry.state in (RegisterState.AR, RegisterState.CR):
                by_tree[entry.tree_uid] = by_tree.get(entry.tree_uid, 0) + 1
        assert all(count == 1 for count in by_tree.values())

    def test_sha256_device(self, rng):
        platform = make_platform(random_leaves(rng, 2, alg="sha256", count=4), 2, config=SHA256)
        nodes, root = build_full_tree(
            [platform.tree.node(c).value for c in sorted(platform.tree.leaf_coords())], 2, "sha256"
        )
        assert platform.root().value == root
        assert platform.verify_node("01")

    def test_quote_gate_random_state_machine(self, rng):
        # whatever command mix runs, no tree quote ever comes from an AR root
        for _ in range(20):
            platform = make_platform([], 2)
            aik = SigningKey.generate()
            produced = []
            for _ in range(12):
                op = rng.randrange(4)
                try:
                    if op == 0 and platform.tree.leaf_count < 4:
                        platform.extend(Digest(random_digest(rng)))
                    elif op == 1:
                        coord = rng.choice(list(platform.tree.coords()))
                        quote = platform.quote_node(coord, b"n")
                        if quote is not None:
                            produced.append((quote, platform.root_state()))
                    elif op == 2:
                        quote = platform.quote_reduced("0", b"n")
                        produced.append((quote, platform.root_state()))
                    elif op == 3 and platform.root_state() is RegisterState.AR:
                        platform.close()
                except (StateViolation, TreeComplete):
                    continue
            for quote, state in produced:
                if quote.tag in ("TREEQUOT", "REDTREEQUOT"):
                    assert state is RegisterState.CR


def _with_bad(p, position, bad):
    """Node, siblings and trace of "010" with the digest at ``position`` replaced by ``bad``."""
    node, reduced, trace = p.node("010"), p.reduced("010"), p.trace("010")
    kind, _, k = position.partition("-")
    if kind == "node":
        node = NodeRef(node.coord, bad)
    elif kind in ("sibling", "trace"):
        refs = reduced if kind == "sibling" else trace
        refs[int(k)] = NodeRef(refs[int(k)].coord, bad)
    return node, reduced, trace


def _free_register(engine):
    return next(i for i in range(engine.register_count) if engine.register_state(i) is RegisterState.FREE)


_NODE_AND_SIBLINGS = ("node", "sibling-0", "sibling-1", "sibling-2")
#: (command, digest positions it takes, a run given the platform, its armed session and the inputs)
INPUT_CHECKS = [
    ("tree_extend", ("measurement",), lambda p, s, bad, n, r, t: p.engine.tree_extend(p.root_reg, bad)),
    ("tree_extend_raw", ("measurement",),
     lambda p, s, bad, n, r, t: p.engine.tree_extend_raw(p.root_reg, bad.value)),
    ("extend_register", ("measurement",),
     lambda p, s, bad, n, r, t: p.engine.extend_register(_free_register(p.engine), bad)),
    ("reduced_tree_verify", _NODE_AND_SIBLINGS, lambda p, s, bad, n, r, t: p.engine.reduced_tree_verify(n, r, p.root_reg)),
    ("reduced_tree_verify_load", _NODE_AND_SIBLINGS,
     lambda p, s, bad, n, r, t: p.engine.reduced_tree_verify_load(n, r, p.root_reg)),
    ("tree_node_verify", ("sibling-0", "sibling-1", "sibling-2", "trace-0", "trace-1", "trace-2"),
     lambda p, s, bad, n, r, t: p.engine.tree_node_verify("010", r, t, p.root_reg)),
    ("reduced_tree_update", ("new",), lambda p, s, bad, n, r, t: p.engine.reduced_tree_update(s, bad)),
    ("tree_node_quote", _NODE_AND_SIBLINGS,
     lambda p, s, bad, n, r, t: p.engine.tree_node_quote(n, r, p.root_reg, p.aik, b"n")),
    ("reduced_tree_quote", _NODE_AND_SIBLINGS, lambda p, s, bad, n, r, t: p.engine.reduced_tree_quote(
        n.value, [ref.value for ref in r], "010", p.root_reg, p.aik, b"n")),
    # the new value is the bad one only when the node and its siblings are intact
    ("tree_node_verified_update", (*_NODE_AND_SIBLINGS, "new"),
     lambda p, s, bad, n, r, t: p.engine.tree_node_verified_update(
         n, bad if (n, r) == (p.node("010"), p.reduced("010")) else SHA1.measure(b"new"), r, p.root_reg)),
]


class TestInputChecks:
    """A digest of the wrong length, in any position, is refused before any register changes."""

    @staticmethod
    def _snapshot(engine):
        return [(engine.register_value(i), engine.register_state(i)) for i in range(engine.register_count)]

    @pytest.mark.parametrize("bad", [Digest(b"\x05" * 5), Digest(b"\x20" * 32)], ids=["5-byte", "32-byte"])
    @pytest.mark.parametrize(
        "command, position, run",
        [pytest.param(c, pos, run, id=f"{c}-{pos}") for c, positions, run in INPUT_CHECKS for pos in positions],
    )
    def test_wrong_length_digest_refused_and_nothing_changes(self, rng, command, position, run, bad):
        # an open tree for the extend, a closed one for everything else
        open_tree = command in ("tree_extend", "tree_extend_raw")
        platform = make_platform(random_leaves(rng, 3, count=5 if open_tree else 8), 3)
        engine = platform.engine
        session = None
        if command == "reduced_tree_update":
            session = _load(platform, "010").session
        before = self._snapshot(engine)
        with pytest.raises(ValueError):
            run(platform, session, bad, *_with_bad(platform, position, bad))
        assert self._snapshot(engine) == before
        if session is not None:
            # the refused update left the session armed: it still performs the update
            result = engine.reduced_tree_update(session, SHA1.measure(b"new"))
            assert result.trace[-1] == NodeRef("010", SHA1.measure(b"new"))
            assert result.root == platform.root() != before[platform.root_reg][0]
            assert session.status is SessionStatus.CONSUMED


def _load(p, coord):
    return p.engine.reduced_tree_verify_load(p.node(coord), p.reduced(coord), p.root_reg)


def _calls(run, *args):
    """Calls per function name while ``run(*args)`` runs under cProfile."""
    profile = cProfile.Profile()
    profile.runcall(run, *args)
    return {name: n for (_, _, name), (_, n, *_rest) in pstats.Stats(profile).stats.items()}


def test_verified_update_checks_each_input_once(rng):
    depth = 8
    platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
    calls = _calls(platform.verified_update, "01101001", SHA1.measure(b"new"))
    assert calls.get("check_coord", 0) == 3  # platform read, device, mirror blanking
    assert calls.get("check_raw", 0) == depth + 2  # node, siblings and new value, at the device
    assert "set_node" not in calls and "extend" not in calls and "chiral_extend" not in calls
    assert calls.get("as_digest", 0) <= 1  # the registers and the written path stay raw
    assert "_trace" not in calls  # the public trace is built only when read


@pytest.mark.parametrize(
    "read, args",
    [
        ("verify_node", ("01101001",)),
        ("diagnose_node", ("01101001",)),
        ("quote_node", ("01101001", b"n")),
        ("verified_update", ("01101001", SHA1.measure(b"new"))),
    ],
)
def test_verify_family_borrows_its_registers(rng, read, args):
    depth = 8
    platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
    calls = _calls(getattr(platform, read), *args)
    assert not {"_alloc", "_free_regs"} & calls.keys()  # counted, never written
    if read == "verify_node":
        assert "fold_path" not in calls  # folded straight to the root candidate


def _rt_writes(engine):
    """Non-nil values and coordinates written into RT registers from now on."""
    writes = []

    class Spy(Register):
        __slots__ = ()

        def __setattr__(self, name, value):
            if name in ("value", "coord") and value is not None and getattr(self, "state", None) is RegisterState.RT:
                writes.append((name, value))
            super().__setattr__(name, value)

    engine._regs = [Spy(r.value, r.state, r.tree_uid, r.coord) for r in engine._regs]
    return writes


def test_verified_update_arms_no_session_and_writes_no_rt_register(rng, monkeypatch):
    depth = 8
    platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
    sessions = []
    monkeypatch.setattr(engine_module, "UpdateSession", lambda *a: sessions.append(a) or UpdateSession(*a))
    writes = _rt_writes(platform.engine)
    calls = _calls(platform.verified_update, "01101001", SHA1.measure(b"new"))
    assert not {"_session_auth", "reduced_coords"} & calls.keys()
    assert sessions == [] and writes == []
    assert platform.verify_node("01101001") and platform.tree.node("01101001") == SHA1.measure(b"new")
    # the two-step load keeps both, since a later update consumes them
    loaded = _load(platform, "0110")
    assert len(sessions) == 1 and len(writes) == 2 * 5  # four siblings and the staging root: coordinate, value
    platform.engine.reduced_tree_update(loaded.session, SHA1.measure(b"later"))


def test_node_quote_gates_its_root_once(rng):
    depth = 8
    platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
    calls = _calls(platform.quote_node, "01101001", b"n")
    assert calls.get("_root", 0) == 1


def _noderefs_built(monkeypatch, run, *args):
    """``NodeRef`` objects built while ``run(*args)`` runs."""
    built, new = [], NodeRef.__new__
    counted = staticmethod(lambda cls, *fields: built.append(fields) or new(cls, *fields))
    monkeypatch.setattr(NodeRef, "__new__", counted)
    run(*args)
    monkeypatch.undo()
    return len(built)


def test_platform_extend_checks_its_input_once(rng, monkeypatch):
    depth = 16
    platform = make_platform(random_leaves(rng, depth, count=11), depth)
    calls = _calls(platform.extend, Digest(random_digest(rng)))
    assert calls.get("check_raw", 0) == 1  # the measurement, at the device
    assert calls.get("as_digest", 0) <= 1  # the returned root only
    assert not {"set_node", "check", "check_coord", "chiral_extend"} & calls.keys()
    assert _noderefs_built(monkeypatch, platform.extend, Digest(random_digest(rng))) == 0
    assert _noderefs_built(monkeypatch, platform.engine.tree_extend, platform.root_reg, NIL) == depth  # the adapter


@pytest.mark.parametrize(
    "read, inputs",
    [
        ("verify_node", lambda depth: depth + 1),  # node and siblings
        ("quote_node", lambda depth: depth + 1),  # node and siblings, through the verify core
        ("diagnose_node", lambda depth: 2 * depth),  # siblings and trace, the node last in the trace
    ],
)
def test_platform_read_checks_each_input_once(rng, read, inputs):
    depth = 8
    platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
    args = ("01101001", b"n") if read == "quote_node" else ("01101001",)
    calls = _calls(getattr(platform, read), *args)
    assert calls.get("check_coord", 0) == 2  # platform read, device
    assert calls.get("check_raw", 0) == inputs(depth)  # at the device
    assert calls.get("as_digest", 0) <= 1  # no public value per sibling: at most the quoted node's
    assert not {"build_reduced_tree", "build_trace", "check"} & calls.keys()


#: (command, coordinate, RT registers it needs, a run that is truthy on success)
FOOTPRINTS = [
    ("verify", "010", 1, lambda p, c: p.engine.reduced_tree_verify(p.node(c), p.reduced(c), p.root_reg)),
    ("verify-load", "0", 2, _load),
    ("verify-load", "01", 3, _load),
    ("verify-load", "010", 4, _load),
    ("node-verify", "010", 3, lambda p, c: p.engine.tree_node_verify(c, p.reduced(c), p.trace(c), p.root_reg) is None),
    ("tree-node-quote", "010", 1, lambda p, c: p.quote_node(c, b"n")),
    ("reduced-tree-quote", "010", 0, lambda p, c: p.quote_reduced(c, b"n")),
    ("verified-update", "010", 4, lambda p, c: p.engine.tree_node_verified_update(
        p.node(c), SHA1.measure(b"new"), p.reduced(c), p.root_reg)),
    # a depth-2 scratch fold borrows what create_tree(2) would allocate
    ("tree-fold", "d2", 3, lambda p, c: p.engine.tree_fold_raw(2, [p.root().value] * 3)),
]
#: commands that seat a depth-2 tree, keeping the registers they need
SEATINGS = [
    ("create-tree", "d2", 3, lambda p, c: p.engine.create_tree(2)),
    ("restore-tree-open", "d2", 3, lambda p, c: p.engine.restore_tree(2, p.root(), "AR", 1, [p.root(), NIL])),
    ("restore-tree-closed", "d2", 1, lambda p, c: p.engine.restore_tree(2, p.root(), "CR", 4)),
]


class TestRegisterFootprint:
    """Each tree command needs exactly its fixed count of free registers, borrowed or allocated."""

    @staticmethod
    def _seated(rng, free):
        # closed depth-3 tree; a second open tree takes up all but ``free`` registers
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        filler = platform.engine.free_register_count() - free
        platform.engine.create_tree(filler - 1)
        assert platform.engine.free_register_count() == free
        return platform

    @staticmethod
    def _snapshot(engine):
        return [(engine.register_value(i), engine.register_state(i)) for i in range(engine.register_count)]

    @pytest.mark.parametrize("command, coord, need, run", [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in FOOTPRINTS])
    def test_exact_footprint_succeeds_and_returns_registers(self, rng, command, coord, need, run):
        platform = self._seated(rng, need)
        engine = platform.engine
        result = run(platform, coord)
        assert result
        if command == "verify-load":
            session = result.session
            assert engine.register_value(session.staging_reg) == platform.root()
            assert [engine.register_value(r) for r in session.buffer_regs] == [
                ref.value for ref in platform.reduced(coord)
            ]
            for reg in (*session.buffer_regs, session.staging_reg):
                engine.release(reg)
        assert engine.free_register_count() == need

    @pytest.mark.parametrize(
        "command, coord, need, run",
        [pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in FOOTPRINTS + SEATINGS if c[2] > 0],
    )
    def test_one_register_short_changes_nothing(self, rng, command, coord, need, run):
        platform = self._seated(rng, need - 1)
        before = self._snapshot(platform.engine)
        with pytest.raises(InsufficientRegisters):
            run(platform, coord)
        assert self._snapshot(platform.engine) == before


class TestBorrowedRegisters:
    """A command that only borrows free registers leaves every value in them as it was."""

    @staticmethod
    def _hold(engine):
        """Extend every free register with a value of its own; returns them by register."""
        return {
            reg: engine.extend_register(reg, SHA1.measure(b"held %d" % reg))
            for reg in range(engine.register_count)
            if engine.register_state(reg) is RegisterState.FREE
        }

    @pytest.mark.parametrize(
        "read, run",
        [
            ("verify", lambda p: p.verify_node("010")),
            ("diagnose", lambda p: p.diagnose_node("010") is None),
            ("quote", lambda p: p.quote_node("010", b"n") is not None),
            ("update-hit", lambda p: p.verified_update("010", SHA1.measure(b"new")) is not None),
            # a forged sibling in the mirror: the device's fold misses its root
            ("update-miss", lambda p: p.tree.set_node("011", SHA1.measure(b"forged"))
             or p.verified_update("010", SHA1.measure(b"new")) is None),
            # a load that misses allocates nothing either
            ("load-miss", lambda p: p.tree.set_node("011", SHA1.measure(b"forged")) or _load(p, "010") is None),
        ],
    )
    def test_free_register_values_survive(self, rng, read, run):
        platform = make_platform(random_leaves(rng, 3, count=8), 3, register_count=8)
        held = self._hold(platform.engine)
        assert len(held) == 7
        assert run(platform)
        assert {reg: platform.engine.register_value(reg) for reg in held} == held

    def test_free_register_values_survive_a_refusal(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3, register_count=8)
        platform.engine.create_tree(3)  # leaves three free registers; the update needs four
        held = self._hold(platform.engine)
        assert len(held) == 3
        with pytest.raises(InsufficientRegisters, match="need 4 free registers, have 3"):
            platform.verified_update("010", SHA1.measure(b"new"))
        assert {reg: platform.engine.register_value(reg) for reg in held} == held


@settings(max_examples=200, deadline=None)
@given(depth=st.integers(min_value=1, max_value=8), config=st.sampled_from([SHA1, SHA256]), data=st.data())
def test_tree_fold_matches_the_oracle_and_k_extends(depth, config, data):
    k = data.draw(st.integers(min_value=0, max_value=1 << depth), label="k")
    digest = st.binary(min_size=config.size, max_size=config.size)
    values = data.draw(st.lists(st.none() | digest, min_size=k, max_size=k), label="values")
    # a seated tree and a held value in every free register; the fold borrows exactly enough
    engine = TreeTpm(depth + 3, config)
    engine.create_tree(1)
    for reg in range(2, depth + 3):
        engine.extend_register(reg, config.measure(b"held %d" % reg))
    before, commands, extends = TestRegisterFootprint._snapshot(engine), engine.stats.commands, engine.stats.extend_ops

    levels = engine.tree_fold_raw(depth, values)

    assert (engine.stats.commands - commands, engine.stats.extend_ops - extends) == (1, k)
    assert TestRegisterFootprint._snapshot(engine) == before
    assert len(levels) == depth + 1 and levels[0] == values
    nodes, root = build_full_tree(values, depth, config.algorithm)
    fresh = TreeTpm(depth + 1, config)
    reg = fresh.create_tree(depth)
    extended = {}
    for value in values:
        index, path, _ = fresh.tree_extend_raw(reg, value)
        extended.update(((depth - height, index >> height), node) for height, node in enumerate(path))
    for height, row in enumerate(levels):
        level = depth - height
        assert len(row) == -(-k >> height)  # ceil(k / 2^height): every later node is nil
        padded = row + [None] * ((1 << level) - len(row))
        if level == 0:
            assert padded == [root] == [fresh.register_value(reg).value]
        else:
            assert padded == [nodes[format(i, f"0{level}b")] for i in range(1 << level)]
            assert padded == [extended.get((level, i)) for i in range(1 << level)]


@settings(max_examples=100, deadline=None)
@given(depth=st.integers(min_value=1, max_value=6), config=st.sampled_from([SHA1, SHA256]), data=st.data())
def test_tree_fold_refusals_change_nothing(depth, config, data):
    k = data.draw(st.integers(min_value=1, max_value=1 << depth), label="k")
    values = [config.measure(b"%d" % i).value for i in range(k)]
    engine = TreeTpm(depth + 2, config)
    engine.create_tree(1)  # leaves depth free registers: one short
    before, extends = TestRegisterFootprint._snapshot(engine), engine.stats.extend_ops
    with pytest.raises(InsufficientRegisters) as short:
        engine.tree_fold_raw(depth, values)
    assert (TestRegisterFootprint._snapshot(engine), engine.stats.extend_ops) == (before, extends)
    with pytest.raises(InsufficientRegisters) as create:
        engine.create_tree(depth)
    assert str(short.value) == str(create.value) == f"need {depth + 1} free registers, have {depth}"

    engine = TreeTpm(depth + 1, config)
    bad = data.draw(st.integers(min_value=0, max_value=k - 1), label="bad")
    size = data.draw(st.sampled_from([0, 1, config.size - 1, config.size + 1]), label="size")
    wrong = values[:bad] + [b"\x05" * size] + values[bad + 1 :]
    with pytest.raises(ValueError, match=f"digest has {size} bytes, expected {config.size}"):
        engine.tree_fold_raw(depth, wrong)
    with pytest.raises(ValueError, match="values do not fit"):
        engine.tree_fold_raw(depth, values + [None] * ((1 << depth) - k + 1))
    assert TestRegisterFootprint._snapshot(engine) == [(NIL, RegisterState.FREE)] * (depth + 1)
    assert engine.stats.extend_ops == 0


def _run_command(platform, sessions, op, arg):
    """One device command chosen by ``op``, on registers and coordinates chosen by ``arg``."""
    engine, r = platform.engine, random.Random(arg)
    reg, depth, value = r.randrange(engine.register_count), r.randint(1, 3), SHA1.measure(b"%d" % arg)
    coord = "".join(r.choice("01") for _ in range(r.randint(1, platform.depth)))
    if op == 0:
        engine.create_tree(depth)
    elif op == 1:
        engine.tree_extend(reg, value)  # any register: a free or CR one is refused
    elif op == 2:
        platform.extend(value)
    elif op == 3:
        engine.close_tree(reg)
    elif op == 4:
        engine.release(reg)
    elif op == 5:
        loaded = _load(platform, coord)
        sessions.extend([] if loaded is None else [loaded.session])
    elif op == 6 and sessions:
        engine.reduced_tree_update(r.choice(sessions), value)  # a spent or stale one is refused
    elif op == 7:
        engine.restore_tree(depth, NIL, "AR", 0, [NIL] * depth)
    elif op == 8:
        engine.restore_tree(depth, value, "CR", 1 << depth)
    elif op == 9:
        platform.verify_node(coord)
    elif op == 10:
        platform.diagnose_node(coord)
    elif op == 11:
        platform.quote_node(coord, b"n")
    elif op == 12:
        platform.verified_update(coord, value)
    elif op == 13:
        engine.extend_register(reg, value)
    elif op == 14:
        engine.reduced_tree_verify_raw(coord, b"\x05" * 5, [None] * len(coord), platform.root_reg)
    elif op == 15:
        engine.restore_tree(depth, value, "AR", 1, [NIL] * depth)  # a frontier that misses the root


@settings(max_examples=150, deadline=None)
@given(
    registers=st.integers(min_value=4, max_value=8),
    depth=st.integers(min_value=1, max_value=3),
    steps=st.lists(st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=2**16)),
                   max_size=40),
)
def test_free_register_count_never_drifts(registers, depth, steps):
    platform = make_platform([], depth, register_count=registers)
    engine, sessions = platform.engine, []
    for op, arg in steps:
        try:
            _run_command(platform, sessions, op, arg)
        except (TpmError, ValueError):
            pass  # a refused command must leave the count right too
        assert engine.free_register_count() == engine.register_count - len(engine.vdat())


def _raised_by_device(exc):
    """Whether ``exc`` came out of a device command (a refusal), not out of the platform's mirror."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == engine_module.__file__:
            return True
        tb = tb.tb_next
    return False


def _device_state(engine, sessions):
    """Everything a command may change, except the command count."""
    return (
        engine.vdat(),
        [engine.register_value(i) for i in range(engine.register_count)],
        dict(engine._sessions),
        [session.status for session in sessions],
        dataclasses.replace(engine.stats, commands=0),
    )


@settings(max_examples=150, deadline=None)
@given(
    registers=st.integers(min_value=4, max_value=8),
    depth=st.integers(min_value=1, max_value=3),
    steps=st.lists(st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=2**16)),
                   max_size=40),
)
def test_each_command_counts_once_and_a_refusal_changes_nothing(registers, depth, steps):
    platform = make_platform([], depth, register_count=registers)
    engine, sessions = platform.engine, []
    for op, arg in steps:
        issued = 0 if op == 6 and not sessions else 1  # every op issues one device command, if any
        before, commands = _device_state(engine, sessions), engine.stats.commands
        try:
            _run_command(platform, sessions, op, arg)
        except (TpmError, ValueError) as exc:
            if _raised_by_device(exc):
                assert _device_state(engine, sessions) == before, f"op {op} was refused but changed the device"
        assert engine.stats.commands - commands == issued, f"op {op}"


@pytest.mark.parametrize(
    "name, run",
    [
        ("reduced_tree_verify", lambda p: p.verify_node("010")),
        ("tree_node_verify", lambda p: p.diagnose_node("010")),
        ("tree_node_quote", lambda p: p.quote_node("010", b"n")),
        ("reduced_tree_quote", lambda p: p.quote_reduced("010", b"n")),
        ("tree_node_verified_update", lambda p: p.verified_update("010", SHA1.measure(b"new"))),
        ("tree_extend", lambda p: p.extend(SHA1.measure(b"new"))),
        ("create_tree", lambda p: p.engine.create_tree(0)),
        ("restore_tree", lambda p: p.engine.restore_tree(0, NIL, "CR", 0)),
        ("tree_fold", lambda p: p.engine.tree_fold_raw(0, [])),
    ],
)
def test_a_command_is_logged_once_under_its_own_name(rng, caplog, name, run):
    # a closed tree for the reads, an open one for the extend; depth 0 is refused
    platform = make_platform(random_leaves(rng, 3, count=7 if name == "tree_extend" else 8), 3)
    with caplog.at_level(logging.DEBUG, logger=engine_module.__name__):
        try:
            run(platform)
        except ValueError as exc:
            assert str(exc) == "tree depth must be at least 1"
    assert [r.args[1] for r in caplog.records if r.msg == "cmd %d %s %s"] == [name]


class TestPersistence:
    def test_closed_tree_document_round_trip(self, rng):
        from treepcr import Platform

        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        doc = platform.to_document()
        restored = Platform.from_document(doc)
        assert restored.root() == platform.root()
        assert restored.root_state() is RegisterState.CR
        assert restored.tree == platform.tree
        assert restored.verify_node("010")

    def test_open_tree_restores_build_frontier(self, rng):
        from treepcr import Platform

        leaves = random_leaves(rng, 3, count=8)
        first = make_platform(leaves[:5], 3)
        assert first.root_state() is RegisterState.AR
        restored = Platform.from_document(first.to_document())
        for raw in leaves[5:]:
            restored.extend(Digest(raw))
        _, root = build_full_tree(leaves, 3)
        assert restored.root().value == root
        assert restored.root_state() is RegisterState.CR

    def test_tampered_open_frontier_refused_and_strands_no_register(self, rng):
        from treepcr import Platform
        from treepcr.platform import _frontier_from_mirror

        leaves = random_leaves(rng, 3, count=8)
        first = make_platform(leaves[:5], 3)
        doc = parse_sml(serialize_sml(first.tree, first.root(), "AR"))
        doc.tree.set_node("0", Digest(random_digest(rng)))  # a completed left subtree: frontier, not path
        with pytest.raises(ValueError, match="build frontier does not fold to the root value"):
            Platform.from_document(doc)
        tpm = TreeTpm(6)
        with pytest.raises(ValueError, match="build frontier"):
            tpm.restore_tree(3, first.root(), "AR", 5, _frontier_from_mirror(doc.tree))
        assert tpm.vdat() == {} and tpm.free_register_count() == 6
        # the untampered log restores and extends as before
        restored = Platform.from_document(parse_sml(serialize_sml(first.tree, first.root(), "AR")))
        assert restored.verify_node("0")
        for raw in leaves[5:]:
            restored.extend(Digest(raw))
        assert restored.root().value == build_full_tree(leaves, 3)[1]

    def test_refused_create_strands_no_register(self):
        tpm = TreeTpm(6)
        with pytest.raises(InsufficientRegisters):
            tpm.create_tree(8)
        assert tpm.vdat() == {} and tpm.free_register_count() == 6

    @pytest.mark.parametrize(
        "depth, root_value, frontier",
        [
            pytest.param(2, SHA1.measure(b"root"), [NIL], id="short-frontier"),
            pytest.param(2, Digest(b"\x05" * 5), [NIL, NIL], id="5-byte-root"),
            pytest.param(0, SHA1.measure(b"root"), [], id="depth-0"),
        ],
    )
    def test_refused_restore_strands_no_register(self, depth, root_value, frontier):
        tpm = TreeTpm(6)
        with pytest.raises(ValueError):
            tpm.restore_tree(depth, root_value, "AR", 1, frontier)
        assert tpm.vdat() == {} and tpm.free_register_count() == 6

    def test_restored_register_is_authoritative(self, rng):
        from treepcr import Platform

        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        doc = platform.to_document()
        doc.tree.set_node("01", Digest(random_digest(rng)))  # tampered log, genuine register
        restored = Platform.from_document(doc)
        assert restored.root() == platform.root()
        assert not restored.verify_node("01")  # tampered node caught
        assert not restored.verify_node("00")  # sibling list includes the tampered value
        assert restored.verify_node("10")  # untouched path still verifies


class TestConcurrentCallers:
    """Concurrent platform callers see the mirror and the root register change together."""

    @staticmethod
    def _run(*targets):
        # a tiny switch interval interleaves the threads inside each platform call
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target) for target in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_concurrent_extends_leave_a_consistent_mirror(self, rng):
        depth = 8
        for _ in range(8):
            platform = make_platform([], depth)
            leaves = random_leaves(rng, depth, count=1 << depth)

            def extend(share):
                return lambda: [platform.extend(Digest(raw)) for raw in share]

            self._run(*(extend(leaves[i::4]) for i in range(4)))
            assert platform.root_state() is RegisterState.CR
            assert find_inconsistency(platform.tree, platform.root()) is None
            assert all(platform.verify_node(coord) for coord in platform.tree.coords())

    def test_concurrent_updates_and_verifies_keep_every_node_verifying(self, rng):
        depth = 8
        platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
        coords, leaves = list(platform.tree.coords()), sorted(platform.tree.leaf_coords())
        # leaves only: an update then blanks nothing, so every node stays honest throughout
        updates = [(coord, Digest(random_digest(rng))) for coord in rng.sample(leaves, 96)]
        failed = []

        def update(share):
            return lambda: failed.extend(c for c, new in share if platform.verified_update(c, new) is None)

        def verify(seed):
            picks = random.Random(seed).choices(coords, k=400)
            return lambda: failed.extend(c for c in picks if not platform.verify_node(c))

        self._run(*(update(updates[i::3]) for i in range(3)), *(verify(seed) for seed in range(3)))
        assert failed == []
        assert find_inconsistency(platform.tree, platform.root()) is None
        assert all(platform.tree.node(c) == new for c, new in updates)
        assert all(platform.verify_node(coord) for coord in coords)
