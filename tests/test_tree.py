import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_platform
from oracle import (
    build_full_tree,
    oracle_first_inconsistency,
    oracle_fold,
    oracle_refold,
    oracle_update,
    random_digest,
    random_leaves,
)
from treepcr import (
    NIL,
    SHA1,
    SHA256,
    Digest,
    SmlTree,
    build_reduced_tree,
    build_trace,
    extract_subtree,
    find_inconsistency,
    fold_to_root,
    leaf_interval,
    leq,
    leq_sets,
    parse_sml,
    recompute_root,
    reduced_coords,
    serialize_sml,
    sibling_coord,
    trace_coords,
)
from treepcr import tree as tree_module
from treepcr.encoding import EncodingError
from treepcr.tree import MAX_DEPTH, fold_path, fold_root

GOLDEN = Path(__file__).parent / "data" / "four_leaf.sml"
GOLDEN_SHA256 = "63039f50435328826f24c29ed143bd793c9ad53d41135ade8876bb4dc88d88ac"

coords = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(*([st.sampled_from("01")] * n)).map("".join)
)


class TestCoords:
    def test_trace_examples(self):
        assert trace_coords("011") == ["0", "01", "011"]
        assert trace_coords("1") == ["1"]
        assert trace_coords("0000") == ["0", "00", "000", "0000"]

    def test_reduced_examples(self):
        assert reduced_coords("011") == ["1", "00", "010"]
        assert reduced_coords("0") == ["1"]
        assert reduced_coords("11") == ["0", "10"]

    def test_empty_coord_rejected(self):
        with pytest.raises(ValueError):
            trace_coords("")
        with pytest.raises(ValueError):
            reduced_coords("")
        with pytest.raises(ValueError):
            sibling_coord("")

    def test_bad_digits_rejected(self):
        with pytest.raises(ValueError):
            trace_coords("012")

    @given(coord=coords)
    def test_trace_reduced_differ_in_last_bit(self, coord):
        ts, rs = trace_coords(coord), reduced_coords(coord)
        assert len(ts) == len(rs) == len(coord)
        for t, r in zip(ts, rs):
            assert len(t) == len(r)
            assert t[:-1] == r[:-1]
            assert t[-1] != r[-1]

    def test_leq_examples(self):
        assert leq("011", "0")
        assert not leq("0", "011")
        assert leq("01", "01")
        assert leq("01", "")  # everything sits below the root position

    @given(m=coords, n=coords, p=coords)
    def test_leq_partial_order(self, m, n, p):
        assert leq(m, m)
        if leq(m, n) and leq(n, m):
            assert m == n
        if leq(m, n) and leq(n, p):
            assert leq(m, p)

    def test_leq_sets(self):
        assert leq_sets(["000", "01"], ["0"])
        assert not leq_sets(["000", "10"], ["0"])
        assert leq_sets([], ["0"])

    def test_leaf_interval(self):
        assert leaf_interval("", 3) == (0, 7)
        assert leaf_interval("1", 3) == (4, 7)
        assert leaf_interval("01", 3) == (2, 3)
        assert leaf_interval("010", 3) == (2, 2)


class TestSmlTree:
    def test_total_node_map(self):
        tree = SmlTree(3)
        assert sum(1 for _ in tree.coords()) == 2 + 4 + 8
        assert all(tree.node(c) is NIL for c in tree.coords())

    def test_set_node_allows_tampering(self):
        tree = SmlTree(2)
        tree.set_node("01", SHA1.measure(b"planted"))
        assert tree.node("01") == SHA1.measure(b"planted")
        assert tree.node("0") is NIL  # no consistency enforcement on mutation

    def test_set_node_validates(self):
        tree = SmlTree(2)
        with pytest.raises(ValueError):
            tree.set_node("000", SHA1.measure(b"x"))
        with pytest.raises(ValueError):
            tree.set_node("01", Digest(b"short"))

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            SmlTree(0)
        with pytest.raises(ValueError):
            SmlTree(21)


class TestReducedTreeAndRoot:
    def test_reduced_of_full_depth2_tree(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        nodes, _ = build_full_tree(leaves, 2)
        reduced = build_reduced_tree(platform.tree, "00")
        assert [r.coord for r in reduced] == ["1", "01"]
        assert reduced[0].value.value == nodes["1"]
        assert reduced[1].value.value == nodes["01"]

    def test_reduced_single_leaf_all_nil(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=1), 2)
        assert [r.value for r in build_reduced_tree(platform.tree, "00")] == [NIL, NIL]

    def test_reduced_full_tree_level_d_non_nil(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        values = [r.value for r in build_reduced_tree(platform.tree, "101")]
        assert len(values) == 3 and all(not v.is_nil for v in values)

    def test_recompute_empty_tree_is_nil(self):
        assert recompute_root(SmlTree(3)) is NIL

    def test_recompute_single_leaf_collapses(self, rng):
        leaf = rng.randbytes(20)
        platform = make_platform([leaf], 3)
        assert recompute_root(platform.tree).value == leaf

    def test_recompute_four_leaves_matches_hand_composition(self, rng):
        leaves = [Digest(raw) for raw in random_leaves(rng, 2, count=4)]
        platform = make_platform([d.value for d in leaves], 2)
        expected = SHA1.extend(SHA1.extend(leaves[0], leaves[1]), SHA1.extend(leaves[2], leaves[3]))
        assert recompute_root(platform.tree) == expected

    def test_fold_reproduces_root_everywhere(self, rng):
        # every node of random trees folds through its siblings to the root
        for depth in range(1, 9):
            leaves = random_leaves(rng, depth)
            platform = make_platform(leaves, depth)
            _, root = build_full_tree(leaves, depth)
            for coord in platform.tree.coords():
                reduced = [r.value for r in build_reduced_tree(platform.tree, coord)]
                folded = fold_to_root(platform.tree.node(coord), coord, reduced, SHA1)
                assert folded.value == root

    def test_fold_matches_oracle_fold(self, rng):
        leaves = random_leaves(rng, 4)
        platform = make_platform(leaves, 4)
        nodes, root = build_full_tree(leaves, 4)
        for coord in ("0", "10", "0110", "1111"):
            reduced = [r.value for r in build_reduced_tree(platform.tree, coord)]
            assert (
                oracle_fold(platform.tree.node(coord).value, coord, [v.value for v in reduced])
                == root
            )

    @given(
        path=st.lists(st.tuples(st.sampled_from("01"), st.none() | st.binary(min_size=20, max_size=20)), max_size=12),
        value=st.none() | st.binary(min_size=20, max_size=20),
    )
    def test_fold_root_is_the_last_entry_of_fold_path(self, path, value):
        # nil nodes and nil siblings in any position: the inline nil-unit rule agrees with extend_raw's
        coord, siblings = "".join(bit for bit, _ in path), [sibling for _, sibling in path]
        assert fold_root(value, coord, siblings, SHA1.hasher) == fold_path(value, coord, siblings, SHA1)[-1]
        with pytest.raises(ValueError, match="sibling values"):
            fold_root(value, coord, [*siblings, None], SHA1.hasher)

    def test_trace_values_match_oracle(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        nodes, _ = build_full_tree(leaves, 3)
        for ref in build_trace(platform.tree, "101"):
            assert ref.value.value == nodes[ref.coord]


class TestConsistency:
    def test_find_inconsistency_clean(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=5), 3)
        assert find_inconsistency(platform.tree) is None

    def test_find_inconsistency_reports_first_breadth_first(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        platform.tree.set_node("110", SHA1.measure(b"evil"))
        assert find_inconsistency(platform.tree) == "11"

    def test_find_inconsistency_root_claim(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        assert find_inconsistency(platform.tree, platform.root()) is None
        assert find_inconsistency(platform.tree, SHA1.measure(b"other")) == ""

    def test_extract_subtree(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sub = extract_subtree(platform.tree, "1")
        assert sub.depth == 2
        assert sub.node("01") == platform.tree.node("101")
        assert recompute_root(sub) == platform.tree.node("1")
        with pytest.raises(ValueError):
            extract_subtree(platform.tree, "110")


class TestSerialization:
    def test_round_trip_random_trees(self, rng):
        for _ in range(20):
            depth = rng.randint(1, 6)
            platform = make_platform(random_leaves(rng, depth), depth)
            doc = platform.to_document()
            data = serialize_sml(doc.tree, doc.root_value, doc.root_state)
            parsed = parse_sml(data)
            assert parsed.tree == doc.tree
            assert parsed.root_value == doc.root_value
            assert parsed.root_state == doc.root_state
            assert serialize_sml(parsed.tree, parsed.root_value, parsed.root_state) == data

    def test_round_trip_without_snapshot(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=3), 2)
        data = serialize_sml(platform.tree)
        parsed = parse_sml(data)
        assert parsed.tree == platform.tree
        assert parsed.root_value is None and parsed.root_state is None

    def test_bad_hex_reports_line(self):
        data = GOLDEN.read_bytes().replace(b"aa2961", b"zz2961")
        with pytest.raises(EncodingError, match="line 6"):
            parse_sml(data)

    def test_truncated_and_malformed(self):
        good = GOLDEN.read_bytes()
        with pytest.raises(EncodingError):
            parse_sml(good[: len(good) // 2])
        with pytest.raises(EncodingError, match="line 1"):
            parse_sml(b"NOTSML v9 alg=sha1\n")
        with pytest.raises(EncodingError):
            parse_sml(b"\xff\xfe binary garbage")

    def test_wrong_coord_order_rejected(self):
        lines = GOLDEN.read_bytes().decode().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(EncodingError, match="line 2"):
            parse_sml(("\n".join(lines) + "\n").encode())

    def test_golden_file_bit_exact(self):
        data = GOLDEN.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
        leaves = [hashlib.sha1(b"component-%d" % i).digest() for i in range(1, 5)]
        platform = make_platform(leaves, 2)
        doc = platform.to_document()
        assert serialize_sml(doc.tree, doc.root_value, doc.root_state) == data
        assert parse_sml(data) == doc

    def test_golden_root_matches_oracle(self):
        leaves = [hashlib.sha1(b"component-%d" % i).digest() for i in range(1, 5)]
        _, root = build_full_tree(leaves, 2)
        doc = parse_sml(GOLDEN.read_bytes())
        assert doc.root_value.value == root
        assert recompute_root(doc.tree) == doc.root_value

    @pytest.mark.parametrize("config, count", [(SHA256, 4096), (SHA1, 2500)], ids=["complete-sha256", "partial-sha1"])
    def test_round_trip_at_depth_12(self, rng, config, count):
        platform = make_platform(random_leaves(rng, 12, config.algorithm, count=count), 12, config=config)
        doc = platform.to_document()
        data = serialize_sml(doc.tree, doc.root_value, doc.root_state)
        parsed = parse_sml(data)
        assert parsed == doc
        assert serialize_sml(parsed.tree, parsed.root_value, parsed.root_state) == data


# -- the per-level storage against brute force over build_full_tree dicts ------


def tree_from_nodes(nodes, depth):
    tree = SmlTree(depth)
    for coord, raw in nodes.items():
        tree.set_node(coord, NIL if raw is None else Digest(raw))
    return tree


def values_of(tree):
    return {c: tree.node(c).value for c in tree.coords()}


@st.composite
def full_trees(draw, min_depth=1):
    """(depth, node dict, root, rng) for a random tree of depth min_depth..8."""
    depth = draw(st.integers(min_value=min_depth, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    nodes, root = build_full_tree(random_leaves(rng, depth), depth)
    return depth, nodes, root, rng


def coord_within(draw, depth, max_level=None):
    level = draw(st.integers(min_value=1, max_value=max_level or depth))
    return "".join(draw(st.lists(st.sampled_from("01"), min_size=level, max_size=level)))


def strictly_below(coord):
    return lambda c: len(c) > len(coord) and c.startswith(coord)


class TestLevelStorage:
    @settings(max_examples=60, deadline=None)
    @given(case=full_trees(), data=st.data())
    def test_blank_below_clears_exactly_the_strict_prefix_set(self, case, data):
        depth, nodes, _, _ = case
        coord = coord_within(data.draw, depth)
        tree = tree_from_nodes(nodes, depth)
        tree.blank_below(coord)
        below = strictly_below(coord)
        assert values_of(tree) == {c: None if below(c) else v for c, v in nodes.items()}

    @settings(max_examples=40, deadline=None)
    @given(case=full_trees(), data=st.data())
    def test_apply_update_matches_oracle_update(self, case, data):
        depth, nodes, _, rng = case
        leaves = [nodes[c] for c in sorted(c for c in nodes if len(c) == depth) if nodes[c] is not None]
        platform = make_platform(leaves, depth)
        coord = coord_within(data.draw, depth)
        new_value = random_digest(rng)
        result = platform.verified_update(coord, Digest(new_value))
        updated, root = oracle_update(nodes, coord, new_value)
        assert result is not None and result.root.value == root
        assert values_of(platform.tree) == updated

    @settings(max_examples=60, deadline=None)
    @given(case=full_trees(), data=st.data())
    def test_find_inconsistency_names_the_brute_force_coordinate(self, case, data):
        depth, nodes, root, rng = case
        coord = coord_within(data.draw, depth)
        tampered = dict(nodes)
        tampered[coord] = random_digest(rng)
        tree = tree_from_nodes(tampered, depth)
        first = oracle_first_inconsistency(tampered, depth)
        assert find_inconsistency(tree) == first
        if first is None:
            first = "" if oracle_refold(tampered, depth) != root else None
        assert find_inconsistency(tree, Digest(root) if root else NIL) == first

    @settings(max_examples=60, deadline=None)
    @given(case=full_trees(), data=st.data())
    def test_recompute_root_keeps_replaced_inner_nodes(self, case, data):
        depth, nodes, _, rng = case
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            nodes, root = oracle_update(nodes, coord_within(data.draw, depth), random_digest(rng))
        refolded = recompute_root(tree_from_nodes(nodes, depth))
        assert refolded.value == root == oracle_refold(nodes, depth)

    @settings(max_examples=60, deadline=None)
    @given(case=full_trees(min_depth=2), data=st.data())
    def test_extract_subtree_matches_brute_force(self, case, data):
        depth, nodes, _, _ = case
        coord = coord_within(data.draw, depth, max_level=depth - 1)
        sub = extract_subtree(tree_from_nodes(nodes, depth), coord)
        below = strictly_below(coord)
        assert sub.depth == depth - len(coord)
        assert values_of(sub) == {c[len(coord):]: v for c, v in nodes.items() if below(c)}
        assert sub.leaf_count == sum(
            1 for c, v in nodes.items() if below(c) and len(c) == depth and v is not None
        )

    @settings(max_examples=40, deadline=None)
    @given(case=full_trees())
    def test_serialize_matches_brute_force_rendering_and_parses_back(self, case):
        depth, nodes, root, _ = case
        tree = tree_from_nodes(nodes, depth)
        tree.leaf_count = sum(1 for c, v in nodes.items() if len(c) == depth and v is not None)
        root_value = Digest(root) if root else NIL
        data = serialize_sml(tree, root_value, "CR")
        head = (
            f"SMLTREE v1 alg=sha1 depth={depth} leaves={tree.leaf_count} root-reg=0 "
            f"root={root_value.to_text()} state=CR"
        )
        breadth_first = sorted(nodes, key=lambda c: (len(c), c))
        body = [f"{c} {'nil' if nodes[c] is None else nodes[c].hex()}" for c in breadth_first]
        assert data == ("\n".join([head, *body]) + "\n").encode("ascii")
        doc = parse_sml(data)
        assert doc.tree == tree and doc.root_value == root_value
        assert serialize_sml(doc.tree, doc.root_value, doc.root_state) == data

    def test_parse_errors_name_the_line_at_every_level(self, rng):
        platform = make_platform(random_leaves(rng, 4, count=16), 4)
        lines = serialize_sml(platform.tree, platform.root(), "CR").decode().splitlines()
        for lineno in (2, 5, 13, 31):
            coord, digest = lines[lineno - 1].split()
            for bad, message in (
                (f"{coord}", f"line {lineno}: expected '<coord> <digest>'"),
                (f"{coord}x {digest}", f"line {lineno}: expected coordinate {coord}, got {coord}x"),
                (f"{coord} {digest[:-2]}", f"line {lineno}: digest {digest[:-2]!r} has 19 bytes, expected 20"),
                (f"{coord} zz{digest[2:]}", f"line {lineno}: bad digest hex 'zz{digest[2:]}'"),
            ):
                broken = lines[: lineno - 1] + [bad] + lines[lineno:]
                with pytest.raises(EncodingError) as info:
                    parse_sml(("\n".join(broken) + "\n").encode())
                assert str(info.value) == message
        with pytest.raises(EncodingError, match="^line 30: expected 30 node lines, got 29$"):
            parse_sml(("\n".join(lines[:-1]) + "\n").encode())

    def test_levels_hold_raw_values_only(self, rng):
        platform = make_platform(random_leaves(rng, 4, count=11), 4)
        platform.close()
        platform.verified_update("011", Digest(random_digest(rng)))
        platform.tree.set_node("1", NIL)
        loaded = parse_sml(serialize_sml(platform.tree, platform.root(), "CR")).tree
        for tree in (platform.tree, loaded, extract_subtree(loaded, "0")):
            assert all(value is None or type(value) is bytes for row in tree._levels for value in row)
        assert loaded == platform.tree

    def test_empty_max_depth_tree_stays_small(self):
        tracemalloc.start()
        try:
            tree = SmlTree(MAX_DEPTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.node("1" * MAX_DEPTH) is NIL
        assert peak < 40 * 2**20

    def test_header_refused_before_the_tree_is_allocated(self):
        # a one-line header claiming a depth-20 log must not cost a depth-20 tree
        header = b"SMLTREE v1 alg=sha1 depth=20 leaves=0 root-reg=0 root=nil state=CR"
        tracemalloc.start()
        try:
            with pytest.raises(EncodingError, match="^line 1: expected 2097150 node lines, got 0$"):
                parse_sml(header)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(EncodingError, match="^line 1: leaf count 1048577 out of range$"):
            parse_sml(header.replace(b"leaves=0", b"leaves=1048577"))


# -- the run parse of canonical logs against the line parse ------------------


def sample_document(rng, depth, config, shape):
    """A log document: complete, partial (open), with one subtree blanked by an
    update, or complete with every other leaf set to nil."""
    capacity = 1 << depth
    count = capacity if shape in ("complete", "alternating") else rng.randint(1, max(1, capacity - 1))
    platform = make_platform(random_leaves(rng, depth, config.algorithm, count=count), depth, config=config)
    if shape == "blanked":
        level = rng.randint(1, max(1, depth - 1))
        coord = format(rng.randrange(1 << level), f"0{level}b")
        assert platform.verified_update(coord, Digest(rng.randbytes(config.size))) is not None
    doc = platform.to_document()
    if shape == "alternating":
        row = doc.tree._levels[depth]
        row[rng.randrange(2) :: 2] = [None] * (len(row) // 2)
    return doc


def sample_log(rng, depth, config, shape):
    """A serialized log of ``sample_document``."""
    doc = sample_document(rng, depth, config, shape)
    return serialize_sml(doc.tree, doc.root_value, doc.root_state)


#: line breaks splitlines() knows, whitespace, digits and letters of each field
STRUCTURAL_BYTES = b"\n\r\x0b\x0c\x1c\t 01aAgn\x80"
MUTATIONS = ("none", "flip", "delete", "insert", "crlf-one", "crlf-all", "upper", "swap", "truncate")


def mutate(data, kind, draw):
    """At most one edit of a serialized log."""
    lines = data.split(b"\n")[:-1]  # the header, then one entry per node line
    if kind == "none":
        return data
    if kind == "crlf-all":
        return data.replace(b"\n", b"\r\n")
    if kind == "crlf-one":
        lines[draw(st.integers(0, len(lines) - 1))] += b"\r"
    elif kind == "upper":
        values = [k for k in range(1, len(lines)) if not lines[k].endswith(b" nil")]
        if not values:
            return data
        k = draw(st.sampled_from(values))
        coord, token = lines[k].split(b" ")
        lines[k] = coord + b" " + token.upper()
    elif kind == "swap":
        j, k = draw(st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[j], lines[k] = lines[k], lines[j]
    else:
        i = draw(st.integers(0, len(data) - 1))
        if kind == "flip":
            byte = draw(st.sampled_from(STRUCTURAL_BYTES) | st.integers(0, 255)).to_bytes(1, "big")
            return data[:i] + byte + data[i + 1 :]
        if kind == "delete":
            return data[:i] + data[i + 1 :]
        if kind == "insert":
            return data[:i] + draw(st.sampled_from([b" ", b"\t"])) + data[i:]
        return data[:i]  # truncate
    return b"\n".join(lines) + b"\n"


def parse_outcome(parse, data):
    try:
        return parse(data)
    except Exception as exc:  # noqa: BLE001 - both parses must fail alike, whatever the type
        return type(exc), str(exc)


class TestRunParse:
    @settings(max_examples=300, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=8),
        config=st.sampled_from([SHA1, SHA256]),
        shape=st.sampled_from(["complete", "partial", "blanked"]),
        seed=st.integers(min_value=0, max_value=2**32),
        mutation=st.sampled_from(MUTATIONS),
        data=st.data(),
    )
    def test_run_parse_matches_line_parse(self, depth, config, shape, seed, mutation, data):
        log = mutate(sample_log(random.Random(seed), depth, config, shape), mutation, data.draw)
        assert parse_outcome(parse_sml, log) == parse_outcome(tree_module._parse_lines, log)

    @pytest.mark.parametrize("shape", ["complete", "partial", "blanked"])
    def test_every_small_edit_parses_alike(self, shape):
        # each byte of a depth-3 log replaced by each structural byte, and each
        # byte pair blanked (two spaces can keep a digest field's hex even)
        log = sample_log(random.Random(shape), 3, SHA1, shape)
        edits = [(i, bytes([b])) for i in range(len(log)) for b in STRUCTURAL_BYTES if b != log[i]]
        edits += [(i, b"  ") for i in range(len(log) - 1)]
        for i, new in edits:
            edited = log[:i] + new + log[i + len(new) :]
            assert parse_outcome(parse_sml, edited) == parse_outcome(tree_module._parse_lines, edited), (i, new)

    def test_canonical_logs_never_fall_back(self, rng, monkeypatch):
        complete = make_platform(random_leaves(rng, 10, count=1024), 10)
        partial = make_platform(random_leaves(rng, 10, count=700), 10)
        blanked = make_platform(random_leaves(rng, 10, count=900), 10)
        assert blanked.verified_update("0110", Digest(random_digest(rng))) is not None

        def refuse(data):
            raise AssertionError("a canonical log fell back to the line parse")

        monkeypatch.setattr(tree_module, "_parse_lines", refuse)
        for platform in (complete, partial, blanked):
            doc = platform.to_document()
            data = serialize_sml(doc.tree, doc.root_value, doc.root_state)
            parsed = parse_sml(data)
            assert parsed == doc
            assert serialize_sml(parsed.tree, parsed.root_value, parsed.root_state) == data

    @pytest.mark.parametrize("shape", ["complete", "partial", "blanked", "alternating"])
    @pytest.mark.parametrize("config", [SHA1, SHA256], ids=["sha1", "sha256"])
    def test_writer_matches_brute_force_rendering(self, config, shape):
        # every depth up to 8: the writer's bytes against one f-string per node
        # line, parsed back; the run parse takes each log of at most 64 runs a level
        for depth in range(1, 9):
            doc = sample_document(random.Random(f"{shape}-{depth}"), depth, config, shape)
            tree = doc.tree
            data = serialize_sml(tree, doc.root_value, doc.root_state)
            head = (
                f"SMLTREE v1 alg={config.algorithm} depth={depth} leaves={tree.leaf_count} root-reg=0 "
                f"root={doc.root_value.to_text()} state={doc.root_state}"
            )
            body = []
            for level in range(1, depth + 1):
                for index, value in enumerate(tree._levels[level]):
                    body.append(f"{index:0{level}b} {'nil' if value is None else value.hex()}")
            assert data == ("\n".join([head, *body]) + "\n").encode("ascii"), (depth, shape)
            assert parse_sml(data) == doc
            runs = max(
                1 + sum((a is None) != (b is None) for a, b in zip(row, row[1:])) for row in tree._levels[1:]
            )
            if runs <= tree_module._MAX_RUNS:
                assert tree_module._parse_runs(data) == doc, (depth, shape)
            else:
                assert tree_module._parse_runs(data) is None

    def test_many_short_runs_fall_back_after_a_bounded_number(self, monkeypatch):
        # a leaf level of alternating value and nil lines is canonical but
        # 2^depth runs of one line each: the run parse must give up early
        depth = 14
        tree = SmlTree(depth, SHA1)
        tree._levels[depth][::2] = [bytes(range(20))] * (1 << (depth - 1))
        data = serialize_sml(tree)
        runs = []
        run_length = tree_module._run_length

        def counting(*args):
            runs.append(args)
            return run_length(*args)

        monkeypatch.setattr(tree_module, "_run_length", counting)
        parsed = parse_sml(data)
        assert len(runs) <= 256  # of the 16397 runs in the log
        assert parsed == tree_module._parse_lines(data)
        assert parsed.tree == tree


class TestFindValues:
    """``find_values`` against a scan of every node, and its range pruning."""

    @staticmethod
    def _scan(nodes, depth, values, maximal):
        hits = []
        for level in range(1, depth + 1):
            for index in range(1 << level):
                coord = format(index, f"0{level}b")
                value = nodes[coord]
                covered = any(coord[:k] in dict(hits) for k in range(1, level))
                if value is not None and value in values and not (maximal and covered):
                    hits.append((coord, value))
        return hits

    @settings(max_examples=200, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=6),
        data=st.data(),
        maximal=st.booleans(),
    )
    def test_matches_a_scan_of_every_node(self, depth, data, maximal):
        pool = [hashlib.sha1(b"%d" % i).digest() for i in range(3)] + [None]
        leaves = data.draw(st.lists(st.sampled_from(pool), max_size=1 << depth), label="leaves")
        platform = make_platform(leaves, depth)
        nodes, _ = build_full_tree(leaves, depth)
        inner = sorted({v for v in nodes.values() if v is not None})
        values = set(data.draw(st.lists(st.sampled_from(inner + pool)), label="values"))
        found = tree_module.find_values(platform.tree, dict.fromkeys(values).keys(), maximal)
        got = [(format(index, f"0{level}b"), value) for level, index, value in found]
        assert got == self._scan(nodes, depth, values, maximal)

    def test_a_level_covered_whole_ends_the_sweep(self, rng, monkeypatch):
        # every value of a depth-10 log listed: level 1 is covered whole, so it is
        # the only level scanned; with node 0 listed alone, each level below is
        # scanned once, over the right half only
        platform = make_platform(random_leaves(rng, 10, count=1 << 10), 10)
        scans, hits = [], tree_module._hits

        def counted(row, values, lo, hi):
            scans.append((lo, hi))
            return hits(row, values, lo, hi)

        monkeypatch.setattr(tree_module, "_hits", counted)
        every = {platform.tree.node(coord).value for coord in platform.tree.coords()}
        found = tree_module.find_values(platform.tree, dict.fromkeys(every).keys(), maximal=True)
        assert [(level, index) for level, index, _ in found] == [(1, 0), (1, 1)] and scans == [(0, 2)]
        scans.clear()
        left = platform.tree.node("0").value
        found = tree_module.find_values(platform.tree, dict.fromkeys([left]).keys(), maximal=True)
        assert [(level, index) for level, index, _ in found] == [(1, 0)]
        assert scans == [(0, 2)] + [(1 << (level - 1), 1 << level) for level in range(2, 11)]
