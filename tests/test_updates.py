import cProfile
import itertools
import pstats
import random
import threading
import time
from pathlib import Path

import pytest

from conftest import make_platform
from oracle import build_full_tree, fixpoint_intrinsic_subsets, random_digest, random_leaves
from treepcr import Digest, NodeRef, SHA1, SmlTree, recompute_root, serialize_sml
from treepcr.updates import (
    IntrinsicSubset,
    UpdateRejected,
    apply_update_set,
    apply_update_set_bulk,
    find_intrinsic_subsets,
    scratch_fold,
)


def random_antichain(rng: random.Random, depth: int, max_size: int = 8) -> list[NodeRef]:
    """Random dependency-free update set over a depth-d tree."""
    entries: list[NodeRef] = []
    coords: list[str] = []
    for _ in range(rng.randint(0, max_size)):
        coord = "".join(rng.choice("01") for _ in range(rng.randint(1, depth)))
        if any(a.startswith(b) or b.startswith(a) for b in coords for a in [coord]):
            continue
        coords.append(coord)
        entries.append(NodeRef(coord, Digest(random_digest(rng))))
    return entries


def sibling_heavy_antichain(rng: random.Random, depth: int) -> list[NodeRef]:
    """Biased generator that often produces complete sibling groups."""
    entries = random_antichain(rng, depth, max_size=4)
    taken = [e.coord for e in entries]
    for _ in range(rng.randint(0, 3)):
        level = rng.randint(2, depth)
        prefix = "".join(rng.choice("01") for _ in range(level - 1))
        pair = [prefix + "0", prefix + "1"]
        if any(a.startswith(b) or b.startswith(a) for b in taken for a in pair):
            continue
        for coord in pair:
            taken.append(coord)
            entries.append(NodeRef(coord, Digest(random_digest(rng))))
    return entries


def random_cut(rng: random.Random, depth: int, size: int) -> list[NodeRef]:
    """Dependency-free set with many complete sibling groups: split random
    nodes of a cut through the tree, then drop about a fifth of the cut."""
    cut = ["0", "1"]
    while len(cut) < size:
        coord = cut.pop(rng.randrange(len(cut)))
        if len(coord) == depth:
            cut.append(coord)
            continue
        cut += [coord + "0", coord + "1"]
    return [NodeRef(c, Digest(random_digest(rng))) for c in cut if rng.random() < 0.8]


def fresh_pair(rng, depth=4):
    leaves = random_leaves(rng, depth, count=1 << depth)
    return make_platform(leaves, depth), make_platform(leaves, depth)


class TestIntrinsicSubsets:
    def test_sibling_pair_is_intrinsic(self, rng):
        entries = [NodeRef("010", Digest(random_digest(rng))), NodeRef("011", Digest(random_digest(rng)))]
        subsets = find_intrinsic_subsets(entries, 4)
        assert len(subsets) == 1
        assert subsets[0].span_root == "01"
        assert set(m.coord for m in subsets[0].members) == {"010", "011"}

    def test_four_leaves_span_their_grandparent(self, rng):
        entries = [NodeRef("0" + rest, Digest(random_digest(rng))) for rest in ("00", "01", "10", "11")]
        subsets = find_intrinsic_subsets(entries, 3)
        assert len(subsets) == 1
        assert subsets[0].span_root == "0"
        assert len(subsets[0].members) == 4

    def test_binding_layout_leaves_retained_value_naive(self, rng):
        entries = [
            NodeRef("0100", Digest(random_digest(rng))),
            NodeRef("0101", Digest(random_digest(rng))),
            NodeRef("011", Digest(random_digest(rng))),
        ]
        subsets = find_intrinsic_subsets(entries, 4)
        assert [(s.span_root, [m.coord for m in s.members]) for s in subsets] == [
            ("010", ["0100", "0101"])
        ]

    def test_singletons_are_not_subsets(self, rng):
        entries = [NodeRef("00", Digest(random_digest(rng))), NodeRef("11", Digest(random_digest(rng)))]
        assert find_intrinsic_subsets(entries, 2) == []

    def test_root_children_pair_stays_naive(self, rng):
        entries = [NodeRef("0", Digest(random_digest(rng))), NodeRef("1", Digest(random_digest(rng)))]
        assert find_intrinsic_subsets(entries, 3) == []

    def test_mixed_depth_members_fold_together(self, rng):
        entries = [
            NodeRef("000", Digest(random_digest(rng))),
            NodeRef("001", Digest(random_digest(rng))),
            NodeRef("01", Digest(random_digest(rng))),
        ]
        # derived "00" beside member "01" is a mixed pair: span stops at "00"
        subsets = find_intrinsic_subsets(entries, 3)
        assert [(s.span_root, len(s.members)) for s in subsets] == [("00", 2)]

    def test_matches_fixpoint_oracle(self, rng):
        for _ in range(300):
            depth = rng.randint(2, 6)
            entries = sibling_heavy_antichain(rng, depth)
            got = sorted(
                (s.span_root, tuple(m.coord for m in s.members))
                for s in find_intrinsic_subsets(entries, depth)
            )
            expected = sorted(fixpoint_intrinsic_subsets({e.coord for e in entries}))
            assert got == expected

    def test_large_sets_match_fixpoint_oracle(self, rng):
        for _ in range(20):
            entries = random_cut(rng, 10, rng.randint(2, 300))
            rng.shuffle(entries)
            subsets = find_intrinsic_subsets(entries, 10)
            got = [(s.span_root, tuple(m.coord for m in s.members)) for s in subsets]
            assert got == fixpoint_intrinsic_subsets({e.coord for e in entries})

    def test_rejects_dependent_sets(self, rng):
        entries = [NodeRef("0", Digest(random_digest(rng))), NodeRef("01", Digest(random_digest(rng)))]
        with pytest.raises(ValueError):
            find_intrinsic_subsets(entries, 3)


class TestScratchFold:
    def test_pair_fold_is_one_extend(self, rng):
        x, y = Digest(random_digest(rng)), Digest(random_digest(rng))
        subset = IntrinsicSubset("01", (NodeRef("010", x), NodeRef("011", y)))
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        assert scratch_fold(subset, platform.engine) == SHA1.extend(x, y)

    def test_mixed_depth_fold_uses_nil_padding(self, rng):
        v00, v01, v1 = (Digest(random_digest(rng)) for _ in range(3))
        subset = IntrinsicSubset(
            "0", (NodeRef("000", v00), NodeRef("001", v01), NodeRef("01", v1))
        )
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        assert scratch_fold(subset, platform.engine) == SHA1.extend(SHA1.extend(v00, v01), v1)

    def test_scratch_registers_are_recycled(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        free_before = platform.engine.free_register_count()
        subset = IntrinsicSubset(
            "01", (NodeRef("010", Digest(random_digest(rng))), NodeRef("011", Digest(random_digest(rng))))
        )
        scratch_fold(subset, platform.engine)
        assert platform.engine.free_register_count() == free_before

    def test_fold_depends_only_on_members(self, rng):
        # metamorphic: perturbing the platform log cannot change the fold
        subset = IntrinsicSubset(
            "01", (NodeRef("010", Digest(random_digest(rng))), NodeRef("011", Digest(random_digest(rng))))
        )
        a, b = fresh_pair(rng, 3)
        b.tree.set_node("10", Digest(random_digest(rng)))  # outside the span
        assert scratch_fold(subset, a.engine) == scratch_fold(subset, b.engine)

    def test_fold_is_one_device_command(self, rng):
        values = [Digest(random_digest(rng)) for _ in range(8)]
        subset = IntrinsicSubset("1", tuple(NodeRef("1" + format(i, "03b"), v) for i, v in enumerate(values)))
        platform = make_platform(random_leaves(rng, 4, count=16), 4)
        stats = platform.engine.stats
        commands, extends = stats.commands, stats.extend_ops
        profile = cProfile.Profile()
        folded = profile.runcall(scratch_fold, subset, platform.engine)
        calls = {name: n for (_, _, name), (_, n, *_rest) in pstats.Stats(profile).stats.items()}
        assert calls["tree_fold_raw"] == 1
        assert not {"create_tree", "tree_extend_raw", "release", "register_value", "_alloc", "_free_regs"} & calls.keys()
        assert (stats.commands - commands, stats.extend_ops - extends) == (1, 8)
        _, root = build_full_tree([v.value for v in values], 3)
        assert folded == Digest(root)


class TestNaiveApply:
    def test_binding_layout_matches_oracle(self, rng):
        depth = 4
        leaves = random_leaves(rng, depth, count=1 << depth)
        platform = make_platform(leaves, depth)
        nodes, _ = build_full_tree(leaves, depth)
        mc, mm = Digest(random_digest(rng)), Digest(random_digest(rng))
        s_old = platform.tree.node("01")
        entries = [NodeRef("0100", mc), NodeRef("0101", mm), NodeRef("011", s_old)]
        root = apply_update_set(entries, platform)
        k = SHA1.extend(SHA1.extend(mc, mm), s_old)
        assert platform.tree.node("01") == k
        assert recompute_root(platform.tree) == root == platform.root()

    def test_empty_set_is_a_no_op(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        before = platform.root()
        assert apply_update_set([], platform) == before

    def test_stale_entry_aborts_with_prior_applied(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        good = NodeRef("00", Digest(random_digest(rng)))
        stale = NodeRef("10", Digest(random_digest(rng)))
        platform.tree.set_node("10", Digest(random_digest(rng)))  # stored value no longer genuine
        with pytest.raises(UpdateRejected) as err:
            apply_update_set([good, stale], platform)
        assert err.value.coord == "10" and err.value.applied == 1
        assert platform.tree.node("00") == good.value  # earlier entry stays applied

    def test_order_independence(self, rng):
        for _ in range(10):
            depth = rng.randint(2, 5)
            leaves = random_leaves(rng, depth, count=1 << depth)
            entries = random_antichain(rng, depth)
            if not entries:
                continue
            roots, trees = set(), set()
            orders = list(itertools.permutations(entries))
            rng.shuffle(orders)
            for order in orders[:6]:
                platform = make_platform(leaves, depth)
                for entry in order:  # apply one at a time, bypassing the sort
                    assert platform.verified_update(entry.coord, entry.value) is not None
                roots.add(platform.root())
                trees.add(serialize_sml(platform.tree))
            assert len(roots) == 1 and len(trees) == 1


class TestBulkEquivalence:
    def test_bulk_equals_naive_on_random_sets(self, rng):
        for _ in range(120):
            depth = rng.randint(2, 6)
            leaves = random_leaves(rng, depth, count=1 << depth)
            entries = sibling_heavy_antichain(rng, depth)
            naive, bulk = make_platform(leaves, depth), make_platform(leaves, depth)
            root_naive = apply_update_set(list(entries), naive)
            root_bulk = apply_update_set_bulk(list(entries), bulk)
            assert root_naive == root_bulk
            assert serialize_sml(naive.tree) == serialize_sml(bulk.tree)

    def test_bulk_saves_verified_operations(self, rng):
        entries = [
            NodeRef("0100", Digest(random_digest(rng))),
            NodeRef("0101", Digest(random_digest(rng))),
            NodeRef("011", Digest(random_digest(rng))),
        ]
        naive, bulk = fresh_pair(rng)
        apply_update_set(list(entries), naive)
        apply_update_set_bulk(list(entries), bulk)
        assert bulk.engine.stats.verify_ops < naive.engine.stats.verify_ops

    def test_no_intrinsic_subsets_same_cost(self, rng):
        entries = [NodeRef("00", Digest(random_digest(rng))), NodeRef("10", Digest(random_digest(rng)))]
        naive, bulk = fresh_pair(rng, 2)
        apply_update_set(list(entries), naive)
        apply_update_set_bulk(list(entries), bulk)
        assert bulk.engine.stats.verify_ops == naive.engine.stats.verify_ops
        assert bulk.engine.stats.extend_ops == naive.engine.stats.extend_ops
        assert serialize_sml(naive.tree) == serialize_sml(bulk.tree)

    @pytest.mark.parametrize(
        "below",
        [
            pytest.param([format(i, "03b") for i in range(8)], id="eight-leaves"),
            # members at two levels: those above the deepest park their values in the fold
            pytest.param(["00", "01", "100", "101", "110", "111"], id="mixed-depth"),
        ],
    )
    def test_span_fill_writes_the_fold_rows_without_refolding(self, rng, below):
        # a span under "01" (inner values at two levels) plus one naive entry
        entries = [NodeRef("01" + rest, Digest(random_digest(rng))) for rest in below]
        entries.append(NodeRef("10", Digest(random_digest(rng))))
        naive, bulk = fresh_pair(rng, 5)
        apply_update_set(list(entries), naive)
        profile = cProfile.Profile()
        profile.runcall(apply_update_set_bulk, list(entries), bulk)
        stats = pstats.Stats(profile).stats
        calls = {(Path(path).name, name): n for (path, _, name), (_, n, *_rest) in stats.items()}
        assert calls["engine.py", "tree_fold_raw"] == 1  # the span is folded once, on the device
        assert calls["updates.py", "_fill_span"] == 1
        # the fill writes the fold's rows, one slice per level, and hashes nothing
        filled_by = {
            (Path(path).name, name)
            for (path, _, name), (*_counts, callers) in stats.items()
            if any(caller[2] == "_fill_span" for caller in callers) and path.endswith(".py")
        }
        assert filled_by == {("tree.py", "set_rows")}
        assert ("tree.py", "set_node") not in calls and ("crypto.py", "extend") not in calls
        assert serialize_sml(naive.tree) == serialize_sml(bulk.tree)

    def test_contiguous_leaf_block_is_one_verified_update(self, rng):
        depth = 12
        leaves = random_leaves(rng, depth, count=1 << depth)
        entries = [NodeRef(format(i, f"0{depth}b"), Digest(random_digest(rng))) for i in range(1024, 2048)]
        naive, bulk = make_platform(leaves, depth), make_platform(leaves, depth)
        before = naive.engine.stats.verify_ops
        assert bulk.engine.stats.verify_ops == before
        assert apply_update_set(list(entries), naive) == apply_update_set_bulk(list(entries), bulk)
        assert serialize_sml(naive.tree) == serialize_sml(bulk.tree)
        assert naive.engine.stats.verify_ops - before == 1024
        assert bulk.engine.stats.verify_ops - before == 1


class TestBulkDevice:
    def test_bulk_apply_keeps_free_register_values(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3, register_count=12)
        engine = platform.engine
        held = {reg: engine.extend_register(reg, SHA1.measure(b"held %d" % reg)) for reg in (1, 2, 3)}
        entries = [NodeRef("010", Digest(random_digest(rng))), NodeRef("011", Digest(random_digest(rng)))]
        apply_update_set_bulk(entries, platform)
        assert {reg: engine.register_value(reg) for reg in held} == held
        assert platform.verify_node("010") and platform.verify_node("011")

    def test_rejection_counts_applied_entries_like_the_naive_path(self, rng):
        entries = [NodeRef(c, Digest(random_digest(rng))) for c in ("000", "001", "11")]
        leaves = random_leaves(rng, 3, count=8)
        for apply in (apply_update_set, apply_update_set_bulk):
            platform = make_platform(leaves, 3)
            platform.tree.set_node("11", Digest(random_digest(rng)))  # stale
            with pytest.raises(UpdateRejected, match="rejected at 11 after 2 applied entries") as err:
                apply(list(entries), platform)
            assert (err.value.coord, err.value.applied) == ("11", 2)

    def test_rejection_outside_every_span_matches_naive(self, rng):
        compared = 0
        for _ in range(300):
            depth = rng.randint(2, 6)
            leaves = random_leaves(rng, depth, count=1 << depth)
            entries = sibling_heavy_antichain(rng, depth)
            spanned = {m.coord for s in find_intrinsic_subsets(entries, depth) for m in s.members}
            outside = [e.coord for e in entries if e.coord not in spanned]
            if not spanned or not outside:
                continue
            stale, forged = rng.choice(outside), Digest(random_digest(rng))
            refusals = []
            for apply in (apply_update_set, apply_update_set_bulk):
                platform = make_platform(leaves, depth)
                platform.tree.set_node(stale, forged)
                with pytest.raises(UpdateRejected) as err:
                    apply(list(entries), platform)
                refusals.append((err.value.coord, err.value.applied, serialize_sml(platform.tree)))
            (naive_coord, *naive), (bulk_coord, *bulk) = refusals
            if naive_coord in spanned:
                continue  # refused inside a span: the bulk path names the span root
            assert (bulk_coord, *bulk) == (naive_coord, *naive)
            compared += 1
        assert compared > 50

    def test_reader_never_sees_a_span_root_without_its_fill(self, rng, monkeypatch):
        depth = 5
        platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth)
        # eight leaf pairs, each under a level-4 node whose sibling is not updated: eight spans
        members = [format(i, "04b") + bit for i in range(0, 16, 2) for bit in "01"]
        entries = [NodeRef(c, Digest(random_digest(rng))) for c in members]
        assert len(find_intrinsic_subsets(entries, depth)) == 8
        set_rows = SmlTree.set_rows

        def delayed(tree, *args):
            time.sleep(0.001)  # widen the window between a span root's update and its fill
            set_rows(tree, *args)

        monkeypatch.setattr(SmlTree, "set_rows", delayed)
        done, checks, refusals = threading.Event(), [0], []

        def reader():
            while not done.is_set():
                for coord in members:
                    checks[0] += 1
                    if not platform.verify_node(coord):
                        refusals.append(coord)
                time.sleep(0)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            apply_update_set_bulk(entries, platform)
        finally:
            done.set()
            thread.join()
        assert refusals == [] and checks[0] > 0
        assert all(platform.verify_node(c) for c in members)
