import random
import secrets

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_platform
from oracle import (
    brute_active_matches,
    brute_bottom_up_candidates,
    brute_span_candidates,
    build_full_tree,
    random_digest,
    random_leaves,
)
from treepcr import NIL, SHA256, Digest, NodeRef, SHA1, SigningKey, extract_subtree, serialize_sml
from treepcr.certification import build_attestation_package, issue_ref_value
from treepcr.discovery import (
    DiscoveryData,
    active_discover,
    bottom_up_candidates,
    passive_discover,
)
from treepcr.protocol import certify_subtree
from treepcr.sca import (
    OK,
    REJECT_AIK_CERT,
    REJECT_FRESHNESS,
    REJECT_PACKAGE,
    REJECT_SUBTREE,
    PolicyTable,
    SubtreeCa,
)
from treepcr.tree import MAX_DEPTH
from treepcr.validator import validate_subtree
from treepcr.protocol import make_validation_bundle


def sca_with(values, rng=None, mode="concealed", **kwargs):
    policy = PolicyTable()
    for i, value in enumerate(values):
        policy.add(value, [("module", f"m{i}")])
    return SubtreeCa(key=SigningKey.from_seed(b"\x04" * 32), policy=policy, mode=mode, **kwargs)


class TestDiscoveryData:
    def test_file_round_trip(self, rng):
        data = DiscoveryData(
            values=frozenset({Digest(random_digest(rng)), Digest(random_digest(rng))}),
            leaf_values=frozenset({Digest(random_digest(rng))}),
        )
        again = DiscoveryData.from_text(data.to_text())
        assert again == data

    def test_condition_round_trip(self, rng):
        target, pred = Digest(random_digest(rng)), Digest(random_digest(rng))
        data = DiscoveryData(values=frozenset({target, pred}), conditions=((target, pred),))
        assert DiscoveryData.from_text(data.to_text()) == data

    def test_roles_must_not_overlap(self, rng):
        v = Digest(random_digest(rng))
        with pytest.raises(ValueError):
            DiscoveryData(values=frozenset({v}), leaf_values=frozenset({v}))

    def test_condition_targets_must_be_values(self, rng):
        with pytest.raises(ValueError):
            DiscoveryData(conditions=((Digest(random_digest(rng)), Digest(random_digest(rng))),))

    def test_bad_lines_reported(self):
        with pytest.raises(ValueError, match="header"):
            DiscoveryData.from_text("WRONG\n")
        with pytest.raises(ValueError, match="line 2"):
            DiscoveryData.from_text("DISCOVERY v1\nvalue zz\n")

    def test_lines_numbered_as_written_and_indented_comments_skipped(self, rng):
        value = Digest(random_digest(rng))
        text = f"# discovery data\n\nDISCOVERY v1\n  # indented note\n\nvalue {value.to_text()}\n"
        assert DiscoveryData.from_text(text) == DiscoveryData(values=frozenset({value}))
        with pytest.raises(ValueError, match="line 7"):
            DiscoveryData.from_text(text + "value zz\n")


class TestActiveDiscover:
    def test_single_match(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        target = platform.tree.node("01")
        result = active_discover(platform.tree, DiscoveryData(values=frozenset({target})))
        assert result.matches == [NodeRef("01", target)]

    def test_duplicate_values_all_reported(self, rng):
        leaf = random_digest(rng)
        platform = make_platform([leaf, leaf], 2)
        result = active_discover(platform.tree, DiscoveryData(values=frozenset({Digest(leaf)})))
        assert sorted(m.coord for m in result.matches) == ["00", "01"]

    def test_condition_satisfied_by_left_neighbour(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        pred, target = platform.tree.node("00"), platform.tree.node("1")
        data = DiscoveryData(values=frozenset({target, pred}), conditions=((target, pred),))
        assert any(m.coord == "1" for m in active_discover(platform.tree, data).matches)

    def test_condition_predecessor_absent_filters_target(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        target = platform.tree.node("0")
        absent = Digest(random_digest(rng))
        data = DiscoveryData(values=frozenset({target, absent}), conditions=((target, absent),))
        assert not any(m.coord == "0" for m in active_discover(platform.tree, data).matches)

    def test_condition_right_neighbour_does_not_count(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        target, late = platform.tree.node("0"), platform.tree.node("11")
        data = DiscoveryData(values=frozenset({target, late}), conditions=((target, late),))
        matches = active_discover(platform.tree, data).matches
        assert not any(m.coord == "0" for m in matches)
        assert any(m.coord == "11" for m in matches)  # the unconditioned value still matches

    def test_matches_brute_force_oracle(self, rng):
        # leaves from a small pool, so leaf and inner values repeat; up to
        # three conditions, some on one target, some naming a value that is
        # not certifiable or not in the tree at all
        two_preds = outside = filtered = 0
        for _ in range(200):
            depth = rng.randint(1, 6)
            leaf_pool = [random_digest(rng) for _ in range(rng.randint(1, 3))]
            leaves = [rng.choice(leaf_pool) for _ in range(rng.randint(0, 1 << depth))]
            platform = make_platform(leaves, depth)
            nodes, _ = build_full_tree(leaves, depth)
            pool = sorted({v for v in nodes.values() if v is not None})
            values = set(rng.sample(pool, min(len(pool), rng.randint(0, 4))))
            conditions = []
            for _ in range(rng.randint(0, 3) if values else 0):
                target = rng.choice(sorted(values))
                conditions.append((target, rng.choice(pool + [random_digest(rng)])))
            data = DiscoveryData(
                values=frozenset(Digest(v) for v in values),
                conditions=tuple((Digest(t), Digest(p)) for t, p in conditions),
            )
            got = sorted(m.coord for m in active_discover(platform.tree, data).matches)
            expected = brute_active_matches(nodes, depth, values, conditions)
            assert got == expected
            targets = [t for t, _ in conditions]
            two_preds += any(targets.count(t) > 1 for t in targets)
            outside += any(p not in values for _, p in conditions)
            filtered += len(expected) < len(brute_active_matches(nodes, depth, values, []))
        assert two_preds > 10 and outside > 10 and filtered > 10


class TestBottomUp:
    def test_all_leaves_known_root_span(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        data = DiscoveryData(leaf_values=frozenset(Digest(raw) for raw in leaves))
        result = bottom_up_candidates(platform.tree, data)
        full = [c for c in result.candidates if c.full]
        assert [c.coord for c in full] == [""]
        assert full[0].value == platform.root()

    def test_half_known_spans_their_parent(self, rng):
        leaves = random_leaves(rng, 2, count=4)
        platform = make_platform(leaves, 2)
        data = DiscoveryData(leaf_values=frozenset({Digest(leaves[0]), Digest(leaves[1])}))
        result = bottom_up_candidates(platform.tree, data)
        full = [c for c in result.candidates if c.full]
        assert [c.coord for c in full] == ["0"]
        gapped = [c for c in result.candidates if not c.full]
        assert gapped and gapped[0].coord == "" and set(gapped[0].missing) == {"10", "11"}

    def test_no_known_leaves_empty(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        data = DiscoveryData(leaf_values=frozenset({Digest(random_digest(rng))}))
        assert bottom_up_candidates(platform.tree, data).candidates == []

    def test_full_candidates_are_maximal(self, rng):
        for _ in range(40):
            depth = rng.randint(1, 5)
            leaves = random_leaves(rng, depth)
            platform = make_platform(leaves, depth)
            known = frozenset(Digest(raw) for raw in leaves if rng.random() < 0.6)
            if not known:
                continue
            data = DiscoveryData(leaf_values=known)
            result = bottom_up_candidates(platform.tree, data)
            full = sorted(c.coord for c in result.candidates if c.full)
            nodes, _ = build_full_tree(leaves, depth)
            assert full == sorted(brute_span_candidates(nodes, depth, {d.value for d in known}))
            # maximality: no full candidate's parent is itself reported full
            for coord in full:
                if coord:
                    assert coord[:-1] not in full

    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32),
        known_share=st.floats(min_value=0.0, max_value=1.0),
        nil_share=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_whole_candidate_list_matches_brute_force(self, depth, seed, known_share, nil_share):
        rng = random.Random(seed)
        leaves = random_leaves(rng, depth)
        platform = make_platform(leaves, depth)
        for coord in platform.tree.leaf_coords():
            if rng.random() < nil_share:
                platform.tree.set_node(coord, NIL)  # gaps anywhere, not only on the right
        known = {Digest(raw) for raw in leaves if rng.random() < known_share}
        known.add(Digest(random_digest(rng)))  # a trusted value the log does not hold
        data = DiscoveryData(leaf_values=frozenset(known))
        got = bottom_up_candidates(platform.tree, data).candidates
        assert got == brute_bottom_up_candidates(platform.tree, data).candidates

    def test_needs_leaf_values(self, rng):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        with pytest.raises(ValueError):
            bottom_up_candidates(platform.tree, DiscoveryData())


class TestPassive:
    def _submission(self, rng, platform, coord, sca, with_quote=True):
        sub = extract_subtree(platform.tree, coord)
        quote = None
        if with_quote:
            quote = platform.quote_node(coord, sca.issue_nonce())
        return platform.node(coord) if coord else NodeRef("", platform.root()), sub, quote

    def test_eager_two_disjoint_roots(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([platform.tree.node("00"), platform.tree.node("01")])
        root, sub, quote = self._submission(rng, platform, "0", sca)
        result = passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public)
        assert result.status == OK
        assert sorted(c for c, _ in result.certificates) == ["00", "01"]
        # validate each issued certificate end to end
        from treepcr.protocol import SubtreeCredential

        for coord, issue in result.certificates:
            nonce = secrets.token_bytes(16)
            credential = SubtreeCredential(
                coord=coord,
                node_value=platform.tree.node(coord),
                manifest=issue.manifest,
                certificate=issue.certificate,
                original_quote=quote,
                layout="empty",
            )
            bundle = make_validation_bundle(platform, credential, nonce, binding="node")
            assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted

    def test_eager_combined_update_set_dependency_free(self, rng):
        leaves = random_leaves(rng, 4, count=16)
        platform = make_platform(leaves, 4)
        sca = sca_with([platform.tree.node("00"), platform.tree.node("01")])
        root, sub, quote = self._submission(rng, platform, "0", sca)
        result = passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public)
        from treepcr.certification import binding_update_set, check_dependency_free

        combined = []
        for coord, issue in result.certificates:
            combined.extend(
                binding_update_set(issue, platform.node(coord), "full", SHA1, platform.depth)
            )
        check_dependency_free(combined)
        from treepcr.updates import apply_update_set

        apply_update_set(combined, platform)  # single protocol run applies everything

    def test_maximal_certifiable_root_wins(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([platform.tree.node("0"), platform.tree.node("00")])
        root, sub, quote = self._submission(rng, platform, "0", sca)
        result = passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public)
        assert [c for c, _ in result.certificates] == ["0"]

    def test_tampered_subtree_rejected_with_coord(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([platform.tree.node("00")])
        root, sub, quote = self._submission(rng, platform, "0", sca)
        sub.set_node("10", Digest(random_digest(rng)))
        result = passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public)
        assert result.status == REJECT_SUBTREE
        assert result.inconsistent_coord == "1"

    def test_missing_quote_lazy_sequencing(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([platform.tree.node("00"), platform.tree.node("01")], mode="revealed")
        root, sub, _ = self._submission(rng, platform, "0", sca, with_quote=False)
        first = passive_discover(sca, root, sub, quote=None)
        assert first.status == "quotes-required"
        assert sorted(r.coord for r in first.candidates) == ["00", "01"]
        assert first.certificates == []
        # second round: quote each candidate and run the ordinary exchange
        for ref in first.candidates:
            credential = certify_subtree(platform, sca, ref.coord, layout="empty")
            nonce = secrets.token_bytes(16)
            bundle = make_validation_bundle(platform, credential, nonce)
            assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted

    def test_wrong_root_value_rejected(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([platform.tree.node("00")])
        _, sub, quote = self._submission(rng, platform, "0", sca)
        lie = NodeRef("0", Digest(random_digest(rng)))
        result = passive_discover(sca, lie, sub, quote=quote, aik_pub=platform.aik.public)
        assert result.status == REJECT_SUBTREE


    def test_required_aik_certificate_refused(self, rng):
        # a passive submission carries no identity certificate, so an
        # authority that requires one must refuse both rounds
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        sca = sca_with([platform.tree.node("00")], require_aik_cert=True)
        root, sub, quote = self._submission(rng, platform, "0", sca)
        result = passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public)
        assert result.status == REJECT_AIK_CERT
        assert result.certificates == []
        assert passive_discover(sca, root, sub, quote=None).status == REJECT_AIK_CERT

    def test_reduced_quote_that_does_not_refold_refused(self, rng):
        # a made-up depth-2 subtree whose node "0" the policy knows, placed at
        # coordinate "0" of the device's tree under a random sibling: the
        # device signs the reduced quote, but it cannot refold to the root
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        forged = make_platform(random_leaves(rng, 2, count=4), 2)
        sca = sca_with([forged.tree.node("0")])
        fake_root = forged.root()
        quote = platform.engine.reduced_tree_quote(
            fake_root, [Digest(random_digest(rng))], "0", platform.root_reg, platform.aik, sca.issue_nonce()
        )
        root = NodeRef("0", fake_root)
        result = passive_discover(sca, root, forged.tree, quote=quote, aik_pub=platform.aik.public)
        assert result.status == REJECT_PACKAGE
        assert result.detail == "reduced quote does not refold to its root"
        assert result.certificates == []

    def test_nonce_spent_on_passive_route_refused_on_active_route(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        sca = sca_with([platform.tree.node("00")])
        nonce = sca.issue_nonce()
        root, sub, _ = self._submission(rng, platform, "0", sca, with_quote=False)
        quote = platform.quote_node("0", nonce)
        assert passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public).status == OK
        replay = build_attestation_package(platform.quote_node("00", nonce), platform.aik.public)
        assert sca.verify_and_issue(replay).status == REJECT_FRESHNESS

    def test_nonce_spent_on_active_route_refused_on_passive_route(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        sca = sca_with([platform.tree.node("00")])
        nonce = sca.issue_nonce()
        package = build_attestation_package(platform.quote_node("00", nonce), platform.aik.public)
        assert sca.verify_and_issue(package).status == OK
        root, sub, _ = self._submission(rng, platform, "0", sca, with_quote=False)
        replay = platform.quote_node("0", nonce)
        result = passive_discover(sca, root, sub, quote=replay, aik_pub=platform.aik.public)
        assert result.status == REJECT_FRESHNESS
        assert result.certificates == []

    @pytest.mark.parametrize("with_quote", [True, False], ids=["eager", "lazy"])
    @pytest.mark.parametrize("coord", ["zz\x00", "0" * (MAX_DEPTH - 1), 0], ids=["not-binary", "too-deep", "not-text"])
    def test_malformed_root_coordinate_refused_before_admission(self, rng, coord, with_quote):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        sca = sca_with([platform.tree.node("00")])
        root, sub, quote = self._submission(rng, platform, "0", sca, with_quote=with_quote)
        bad = NodeRef(coord, root.value)
        result = passive_discover(sca, bad, sub, quote=quote, aik_pub=platform.aik.public)
        assert result.status == REJECT_SUBTREE and result.detail.startswith("bad root coordinate")
        assert result.candidates == [] and result.certificates == []
        # the nonce was not spent: the well-formed submission is still admitted
        result = passive_discover(sca, root, sub, quote=quote, aik_pub=platform.aik.public)
        assert result.status == (OK if with_quote else "quotes-required")

    def test_hash_algorithm_mismatch_refused(self, rng):
        platform = make_platform(random_leaves(rng, 3, "sha256", count=8), 3, config=SHA256)
        sca = sca_with([platform.tree.node("00")])  # a SHA-1 authority
        root, sub, _ = self._submission(rng, platform, "0", sca, with_quote=False)
        result = passive_discover(sca, root, sub, quote=None)
        assert result.status == REJECT_SUBTREE
        assert result.detail == "hash algorithm mismatch"
        assert result.candidates == []


class TestLeafCoverage:
    def _gapped_package(self, rng, platform, sca, coord, aux=()):
        nonce = sca.issue_nonce()
        quote = platform.quote_node(coord, nonce)
        sub = extract_subtree(platform.tree, coord)
        return build_attestation_package(
            quote,
            platform.aik.public,
            subtree=serialize_sml(sub),
            aux=aux,
        )

    def test_gap_covered_by_reference_values(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        rim_key = SigningKey.generate()
        known = [Digest(leaves[0])]
        sca = sca_with(known, ref_issuers={"rim": rim_key.public})
        sca.leaf_values = {leaves[0]}
        aux = (issue_ref_value(rim_key, "rim", Digest(leaves[1])),)
        package = self._gapped_package(rng, platform, sca, "00", aux=aux)
        outcome = sca.verify_and_issue(package)
        assert outcome.status == OK
        assert ("leaves-covered", "references:1") in outcome.package.manifest.properties

    def test_gap_without_coverage_refused(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([Digest(leaves[0])])
        sca.leaf_values = {leaves[0]}
        package = self._gapped_package(rng, platform, sca, "00")
        assert sca.verify_and_issue(package).status == REJECT_SUBTREE

    def test_untrusted_reference_issuer_refused(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        rogue = SigningKey.generate()
        sca = sca_with([Digest(leaves[0])])
        sca.leaf_values = {leaves[0]}
        aux = (issue_ref_value(rogue, "rogue", Digest(leaves[1])),)
        package = self._gapped_package(rng, platform, sca, "00", aux=aux)
        assert sca.verify_and_issue(package).status == REJECT_SUBTREE

    def test_full_policy_coverage_issues(self, rng):
        leaves = random_leaves(rng, 3, count=8)
        platform = make_platform(leaves, 3)
        sca = sca_with([Digest(leaves[0]), Digest(leaves[1])])
        sca.leaf_values = {leaves[0], leaves[1]}
        package = self._gapped_package(rng, platform, sca, "00")
        outcome = sca.verify_and_issue(package)
        assert outcome.status == OK
        assert ("leaves-covered", "policy") in outcome.package.manifest.properties
