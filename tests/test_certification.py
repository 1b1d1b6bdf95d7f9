import dataclasses
import secrets
import sys
import threading

import pytest

from conftest import make_platform
from oracle import oracle_dependency_free, random_digest, random_leaves
from treepcr import SHA1, SHA256, Digest, NodeRef, SigningKey, StateViolation, crypto
from treepcr.certification import (
    AttestationPackage,
    IssuePackage,
    Manifest,
    PrivacyCa,
    RefValueCert,
    SubtreeCertificate,
    binding_update_set,
    build_attestation_package,
    certificate_payload,
    check_dependency_free,
    issue_ref_value,
    issue_subtree_certificate,
    measure_certificate,
    measure_manifest,
    verify_aik_certificate,
    verify_ref_value,
    verify_subtree_certificate,
)
from treepcr.encoding import EncodingError, pack_fields, unpack_fields
from treepcr.engine import refold_reduced_quote, verify_quote
from treepcr.protocol import ProtocolError, certify_subtree, make_validation_bundle
from treepcr import sca as sca_module
from treepcr.sca import (
    OK,
    REFUSED_UNKNOWN,
    REJECT_AIK_CERT,
    REJECT_FRESHNESS,
    REJECT_PACKAGE,
    REJECT_SIGNATURE,
    REJECT_SUBTREE,
    PolicyTable,
    SubtreeCa,
)
from treepcr.tree import extract_subtree, serialize_sml
from treepcr.updates import apply_update_set_bulk
from treepcr.validator import (
    BIND_BOUND_ROOT,
    BIND_NODE,
    BIND_STAR,
    ValidationBundle,
    validate_subtree,
)


@pytest.fixture
def pca():
    return PrivacyCa(SigningKey.from_seed(b"\x01" * 32))


@pytest.fixture
def aik():
    return SigningKey.from_seed(b"\x02" * 32)


def certified_platform(rng, aik, pca, depth=4):
    platform = make_platform(random_leaves(rng, depth, count=1 << depth), depth, aik=aik)
    platform.aik_cert = pca.issue(aik.public, "platform-under-test")
    return platform


def sca_for(platform, coord, mode, pca=None, **kwargs):
    policy = PolicyTable()
    policy.add(platform.tree.node(coord), [("function", "measured-module"), ("rev", "7")])
    return SubtreeCa(
        key=SigningKey.from_seed(b"\x03" * 32),
        policy=policy,
        mode=mode,
        pca_pub=pca.public if pca else None,
        **kwargs,
    )


def manifest_fixture():
    return Manifest(
        subject=SHA1.measure(b"subject"),
        properties=(("function", "net"), ("rev", "9")),
        timestamp=1_700_000_000,
        issuer="sca-test",
        aik_checked=True,
    )


class TestManifest:
    def test_round_trip(self):
        manifest = manifest_fixture()
        assert Manifest.from_bytes(manifest.to_bytes()) == manifest

    def test_needs_properties(self):
        with pytest.raises(ValueError):
            Manifest(SHA1.measure(b"s"), (), 0, "x")

    def test_describe_is_single_line(self):
        text = manifest_fixture().describe()
        assert "\n" not in text and "function=net" in text


class TestCertificateShapes:
    def test_revealed_payload_contains_quote_verbatim(self, rng, aik):
        platform = make_platform(random_leaves(rng, 2, count=4), 2, aik=aik)
        quote = platform.quote_node("01", b"n")
        manifest = manifest_fixture()
        payload = certificate_payload(manifest, quote=quote)
        assert quote.to_bytes() in payload
        assert manifest.to_bytes() in payload

    def test_concealed_payload_contains_bind(self, aik):
        manifest = manifest_fixture()
        payload = certificate_payload(manifest, bind=aik.public.fingerprint())
        assert aik.public.fingerprint() in payload

    def test_exactly_one_binding_shape(self, aik):
        with pytest.raises(ValueError):
            certificate_payload(manifest_fixture())
        assert SubtreeCertificate(b"", bind=b"b").mode == "concealed"
        assert SubtreeCertificate(b"").mode == "revealed"

    def test_issue_and_verify_both_modes(self, rng, aik):
        platform = make_platform(random_leaves(rng, 2, count=4), 2, aik=aik)
        quote = platform.quote_node("01", b"n")
        sca_key = SigningKey.generate()
        manifest = manifest_fixture()

        revealed = issue_subtree_certificate(sca_key, manifest, quote=quote)
        assert revealed.mode == "revealed"
        assert verify_subtree_certificate(revealed, manifest, sca_key.public, quote=quote)
        assert not verify_subtree_certificate(revealed, manifest, sca_key.public)

        bind = aik.public.fingerprint()
        concealed = issue_subtree_certificate(sca_key, manifest, bind=bind)
        assert concealed.mode == "concealed"
        assert verify_subtree_certificate(concealed, manifest, sca_key.public)
        assert not verify_subtree_certificate(concealed, manifest, SigningKey.generate().public)

    def test_certificate_round_trip(self, aik):
        cert = issue_subtree_certificate(SigningKey.generate(), manifest_fixture(), bind=aik.public.fingerprint())
        again = SubtreeCertificate.from_bytes(cert.to_bytes())
        assert again == cert and again.to_bytes() == cert.to_bytes()

    def test_unsigned_certificate_field_refused(self, rng, aik, pca):
        # the signature covers every certificate field: a value F spliced in
        # as an extra field must not stand in for m(C) under a star binding
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "concealed", pca)
        credential = certify_subtree(platform, sca, "01", layout="empty")
        forged_value = SHA1.measure(b"chosen by the presenter")
        m_manifest = measure_manifest(credential.manifest, SHA1)
        # a tree under the same AIK holding F ⋄ m(M), not m(C) ⋄ m(M), at "0"
        attacker = make_platform([forged_value.value, m_manifest.value], 2, aik=aik)
        attacker.close()
        nonce = secrets.token_bytes(16)
        bundle = ValidationBundle(
            attacker.quote_node("0", nonce), credential.manifest, credential.certificate,
            aik.public, binding=BIND_STAR,
        )
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == "tree-binding"

        fields = unpack_fields(bundle.to_bytes(), count=9)
        fields[3] = pack_fields(*unpack_fields(fields[3], count=2), b"f" + forged_value.value)
        with pytest.raises(EncodingError):
            SubtreeCertificate.from_bytes(fields[3])
        with pytest.raises(EncodingError):
            ValidationBundle.from_bytes(pack_fields(*fields))


class TestPrivacyCa:
    def test_issue_and_verify(self, pca, aik):
        cert = pca.issue(aik.public, "machine-9")
        assert verify_aik_certificate(cert, pca.public)
        assert not verify_aik_certificate(cert, SigningKey.generate().public)

    def test_round_trip(self, pca, aik):
        cert = pca.issue(aik.public, "machine-9")
        from treepcr.certification import AikCertificate

        assert AikCertificate.from_bytes(cert.to_bytes()) == cert


class TestScaIssue:
    def test_known_value_revealed(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        nonce = sca.issue_nonce()
        quote = platform.quote_node("01", nonce)
        package = build_attestation_package(quote, aik.public, node_value=platform.tree.node("01"))
        outcome = sca.verify_and_issue(package)
        assert outcome.status == OK
        issue = outcome.package
        assert issue.certificate.mode == "revealed"
        assert verify_subtree_certificate(issue.certificate, issue.manifest, sca.public, quote=quote)
        assert issue.manifest.subject == platform.tree.node("01")

    def test_known_value_concealed_binds_fingerprint(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "concealed", pca)
        quote = platform.quote_node("01", sca.issue_nonce())
        outcome = sca.verify_and_issue(build_attestation_package(quote, aik.public))
        assert outcome.status == OK
        assert outcome.package.certificate.bind == aik.public.fingerprint()

    def test_value_recovered_from_quote_when_omitted(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        quote = platform.quote_node("01", sca.issue_nonce())
        package = build_attestation_package(quote, aik.public)
        assert package.node_value is None
        assert sca.verify_and_issue(package).status == OK

    def test_unknown_value_refused(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        quote = platform.quote_node("10", sca.issue_nonce())
        assert sca.verify_and_issue(build_attestation_package(quote, aik.public)).status == REFUSED_UNKNOWN

    def test_bad_signature_rejected(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        quote = platform.quote_node("01", sca.issue_nonce())
        package = AttestationPackage(quote=quote, aik_pub=SigningKey.generate().public)
        assert sca.verify_and_issue(package).status == REJECT_SIGNATURE

    def test_stale_nonce_rejected(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        nonce = sca.issue_nonce()
        quote = platform.quote_node("01", nonce)
        package = build_attestation_package(quote, aik.public)
        assert sca.verify_and_issue(package).status == OK
        replay = platform.quote_node("01", nonce)  # same nonce again
        assert sca.verify_and_issue(build_attestation_package(replay, aik.public)).status == REJECT_FRESHNESS

    def test_nonce_single_use_under_concurrent_submitters(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        package = build_attestation_package(platform.quote_node("01", sca.issue_nonce()), aik.public)
        barrier = threading.Barrier(8)
        statuses = []

        def submit():
            barrier.wait(timeout=30)
            statuses.append(sca.verify_and_issue(package).status)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(statuses) == [OK] + [REJECT_FRESHNESS] * 7

    def test_nonce_flood_evicts_the_oldest(self, rng, aik, pca, monkeypatch):
        monkeypatch.setattr(sca_module, "MAX_NONCES", 4)
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        nonces = [sca.issue_nonce() for _ in range(50)]
        assert len(sca._nonces) == 4
        oldest, newest = (
            build_attestation_package(platform.quote_node("01", nonce), aik.public) for nonce in (nonces[0], nonces[-1])
        )
        assert sca.verify_and_issue(oldest).status == REJECT_FRESHNESS
        assert sca.verify_and_issue(newest).status == OK

    def test_value_mismatch_rejected(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        quote = platform.quote_node("01", sca.issue_nonce())
        package = AttestationPackage(quote=quote, aik_pub=aik.public, node_value=SHA1.measure(b"lie"))
        assert sca.verify_and_issue(package).status == REJECT_PACKAGE

    def test_aik_certificate_checked_and_flagged(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        quote = platform.quote_node("01", sca.issue_nonce())
        package = build_attestation_package(quote, aik.public, aik_cert=platform.aik_cert)
        outcome = sca.verify_and_issue(package)
        assert outcome.status == OK and outcome.package.manifest.aik_checked

        stranger = PrivacyCa().issue(aik.public, "imposter")
        quote = platform.quote_node("01", sca.issue_nonce())
        package = build_attestation_package(quote, aik.public, aik_cert=stranger)
        assert sca.verify_and_issue(package).status == REJECT_AIK_CERT

    def test_aik_certificate_required_policy(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca, require_aik_cert=True)
        quote = platform.quote_node("01", sca.issue_nonce())
        assert sca.verify_and_issue(build_attestation_package(quote, aik.public)).status == REJECT_AIK_CERT

    def test_mistyped_mode_refused(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        with pytest.raises(ValueError, match="mode must be"):
            sca_for(platform, "01", "Concealed", pca)

    def test_mode_mistyped_after_construction_issues_nothing(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "concealed", pca)
        sca.mode = "Concealed"
        quote = platform.quote_node("01", sca.issue_nonce())
        with pytest.raises(ValueError, match="^mode must be 'revealed' or 'concealed', got 'Concealed'$"):
            sca.verify_and_issue(build_attestation_package(quote, aik.public))

    @pytest.mark.parametrize(
        "tamper, detail",
        [
            (lambda sub: b"not a log", "unparseable subtree log: "),
            (lambda sub: sub.set_node("0", SHA1.measure(b"forged")) or serialize_sml(sub), "inconsistent at 0"),
        ],
        ids=["unparseable", "inconsistent"],
    )
    def test_leaf_route_refuses_a_bad_log(self, rng, aik, pca, tamper, detail):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "10", "revealed", pca)  # "01" itself is unknown, so its leaves decide
        quote = platform.quote_node("01", sca.issue_nonce())
        subtree = tamper(extract_subtree(platform.tree, "01"))
        outcome = sca.verify_and_issue(build_attestation_package(quote, aik.public, subtree=subtree))
        assert outcome.status == REJECT_SUBTREE and outcome.detail.startswith(detail)

    def test_policy_file_round_trip(self, rng):
        value = Digest(random_digest(rng))
        table = PolicyTable()
        table.add(value, [("function", "boot-chain"), ("stage", "2")])
        parsed = PolicyTable.from_text(table.to_text())
        assert parsed.entries == table.entries
        with pytest.raises(ValueError, match="line 1"):
            PolicyTable.from_text("zzzz function=x\n")
        with pytest.raises(ValueError, match="line 1"):
            PolicyTable.from_text(value.to_text() + "\n")


class TestUpdateSetShapes:
    def test_dependency_free_checks(self):
        a = NodeRef("0", SHA1.measure(b"a"))
        b = NodeRef("01", SHA1.measure(b"b"))
        c = NodeRef("10", SHA1.measure(b"c"))
        with pytest.raises(ValueError, match="dependency-free"):
            check_dependency_free([a, b])
        with pytest.raises(ValueError, match="duplicate"):
            check_dependency_free([a, a])
        assert check_dependency_free([b, c]) == [b, c]

    def test_dependency_free_matches_pairwise_oracle(self, rng):
        value = SHA1.measure(b"v")
        for _ in range(400):
            depth = rng.randint(1, 6)
            coords = []
            for _ in range(rng.randint(0, 8)):
                coord = "".join(rng.choice("01") for _ in range(rng.randint(1, depth)))
                if not any(coord.startswith(c) or c.startswith(coord) for c in coords):
                    coords.append(coord)
            for _ in range(rng.randint(0, 2)):  # spoil the antichain now and then
                extra = rng.choice(["", "2", "01x", "0 1"] + [c[: rng.randint(0, len(c))] for c in coords])
                coords.insert(rng.randint(0, len(coords)), extra)
            entries = [NodeRef(c, value) for c in coords]
            expected = oracle_dependency_free(coords)
            if expected is None:
                assert check_dependency_free(entries) is entries
                continue
            with pytest.raises(ValueError) as err:
                check_dependency_free(entries)
            if expected != "malformed":
                assert str(err.value) == expected
            else:
                assert str(err.value).startswith("coordinate must be a string of 0/1 digits")

    def test_empty_layout(self, rng, aik, pca):
        issue = IssuePackage(manifest_fixture(), issue_subtree_certificate(
            SigningKey.generate(), manifest_fixture(), bind=aik.public.fingerprint()))
        assert binding_update_set(issue, NodeRef("01", SHA1.measure(b"s")), "empty", SHA1, 4) == []

    def test_full_layout_coordinates(self, aik):
        manifest = manifest_fixture()
        cert = issue_subtree_certificate(SigningKey.generate(), manifest, bind=aik.public.fingerprint())
        issue = IssuePackage(manifest, cert)
        s_old = NodeRef("01", SHA1.measure(b"old-s"))
        entries = binding_update_set(issue, s_old, "full", SHA1, 4)
        assert [e.coord for e in entries] == ["0100", "0101", "011"]
        assert entries[0].value == measure_certificate(cert, SHA1)
        assert entries[1].value == measure_manifest(manifest, SHA1)
        assert entries[2].value == s_old.value

    def test_full_layout_depth_guard(self, aik):
        manifest = manifest_fixture()
        cert = issue_subtree_certificate(SigningKey.generate(), manifest, bind=aik.public.fingerprint())
        with pytest.raises(ValueError, match="spare levels"):
            binding_update_set(IssuePackage(manifest, cert), NodeRef("01", SHA1.measure(b"s")), "full", SHA1, 3)


class TestEndToEnd:
    def test_revealed_empty_layout_node_binding(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        root_before = platform.root()
        credential = certify_subtree(platform, sca, "01", layout="empty", send_aik_cert=True)
        assert platform.root() == root_before  # empty update set
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce, send_aik_cert=True)
        assert bundle.binding == BIND_NODE
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce, pca_pub=pca.public)
        assert result.accepted, result.reason

    def test_concealed_full_layout_star_binding(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        s = platform.tree.node("01")
        sca = sca_for(platform, "01", "concealed", pca)
        credential = certify_subtree(platform, sca, "01", layout="full")
        k = SHA1.extend(
            SHA1.extend(measure_certificate(credential.certificate, SHA1), measure_manifest(credential.manifest, SHA1)),
            s,
        )
        assert platform.tree.node("01") == k
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert bundle.binding == BIND_STAR
        assert bundle.node_value is None  # nothing about s travels
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert result.accepted, result.reason

    def test_revealed_full_layout_bound_root(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        credential = certify_subtree(platform, sca, "01", layout="full")
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert bundle.binding == BIND_BOUND_ROOT
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted

    def test_root_certification_uses_plain_quote(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca, depth=3)
        policy = PolicyTable()
        policy.add(platform.root(), [("configuration", "golden")])
        sca = SubtreeCa(key=SigningKey.generate(), policy=policy, mode="revealed")
        credential = certify_subtree(platform, sca, "", layout="empty")
        assert credential.original_quote.tag == "QUOT"
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted

    def test_open_tree_cannot_start_certification(self, rng, aik, pca):
        platform = make_platform(random_leaves(rng, 3, count=3), 3, aik=aik)
        sca = sca_for(platform, "00", "revealed", pca)
        with pytest.raises(StateViolation):
            certify_subtree(platform, sca, "00", layout="empty")

    def test_refusal_surfaces_as_protocol_error(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        with pytest.raises(ProtocolError, match="refused-unknown-value"):
            certify_subtree(platform, sca, "10", layout="empty")

    def test_sha256_protocol_run(self, rng, aik, pca):
        platform = make_platform(random_leaves(rng, 4, "sha256", count=16), 4, config=SHA256, aik=aik)
        policy = PolicyTable()
        policy.add(platform.tree.node("01"), [("function", "wide-hash")])
        sca = SubtreeCa(key=SigningKey.generate(), policy=policy, mode="concealed", config=SHA256)
        credential = certify_subtree(platform, sca, "01", layout="full")
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce, config=SHA256).accepted

    def test_bulk_binding_matches_naive(self, rng, aik, pca):
        # concealed with a fixed clock, so that both runs issue the same certificate
        leaves = random_leaves(rng, 4, count=16)
        runs = []
        for layout in ("empty", "full"):
            platform = make_platform(leaves, 4, aik=aik)
            sca = sca_for(platform, "01", "concealed", pca, clock=lambda: 1_700_000_000)
            credential = certify_subtree(platform, sca, "01", layout=layout)
            runs.append((platform, credential))
        (bulk, bulk_credential), (naive, naive_credential) = runs
        # the empty run left its log as it was; the issued full binding set goes in as one bulk set
        issue = IssuePackage(bulk_credential.manifest, bulk_credential.certificate)
        entries = binding_update_set(issue, NodeRef("01", bulk_credential.node_value), "full", SHA1, 4)
        apply_update_set_bulk(entries, bulk)
        assert bulk_credential.certificate == naive_credential.certificate
        assert bulk_credential.manifest == naive_credential.manifest
        assert serialize_sml(bulk.tree) == serialize_sml(naive.tree)
        assert bulk.root() == naive.root()
        # the node quote verifies once; the binding set then takes 2 bulk against 3 naive
        assert (bulk.engine.stats.verify_ops, naive.engine.stats.verify_ops) == (3, 4)


def _flip_signature(cert: SubtreeCertificate) -> SubtreeCertificate:
    return SubtreeCertificate(bytes([cert.signature[0] ^ 1]) + cert.signature[1:], cert.bind)


class TestValidatorRejections:
    def _setup(self, rng, aik, pca, mode="concealed", layout="full"):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", mode, pca)
        credential = certify_subtree(platform, sca, "01", layout=layout)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        return platform, sca, credential, nonce, bundle

    def test_wrong_nonce_freshness(self, rng, aik, pca):
        _, sca, _, nonce, bundle = self._setup(rng, aik, pca)
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=secrets.token_bytes(16))
        assert not result.accepted and result.reason == "freshness"

    def test_cross_aik_substitution_binding_mismatch(self, rng, aik, pca):
        # certificate issued for one AIK, validation attempted with another
        platform, sca, credential, _, _ = self._setup(rng, aik, pca)
        other_aik = SigningKey.from_seed(b"\x0a" * 32)
        imposter = make_platform(
            [platform.tree.node(c).value for c in sorted(platform.tree.leaf_coords())],
            4,
            aik=other_aik,
        )
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(imposter, credential, nonce)
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == "binding-mismatch"

    def test_tampered_certificate_signature(self, rng, aik, pca):
        _, sca, _, nonce, bundle = self._setup(rng, aik, pca)
        cert = bundle.certificate
        forged = SubtreeCertificate(bytes([cert.signature[0] ^ 1]) + cert.signature[1:], bind=cert.bind)
        bundle.certificate = forged
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == "certificate-signature"

    def test_wrong_quoted_node_tree_binding(self, rng, aik, pca):
        platform, sca, credential, _, _ = self._setup(rng, aik, pca)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        bundle.quote = platform.quote_node("10", nonce)
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == "tree-binding"

    def test_revealed_missing_data(self, rng, aik, pca):
        platform, sca, credential, nonce, bundle = self._setup(rng, aik, pca, mode="revealed")
        bundle.node_value = None
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == "missing-validation-data"

    def test_reduced_quote_of_star_node_validates(self, rng, aik, pca):
        # the extended-data variant can carry the star-node attestation too
        platform, sca, credential, _, _ = self._setup(rng, aik, pca)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        bundle.quote = platform.quote_reduced("010", nonce)  # "01"+"0" is the star node
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert result.accepted, result.reason

    def test_reduced_quote_of_wrong_node_tree_binding(self, rng, aik, pca):
        platform, sca, credential, _, _ = self._setup(rng, aik, pca)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        bundle.quote = platform.quote_reduced("10", nonce)
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == "tree-binding"

    def test_reduced_quote_refold_check(self, rng, aik, pca):
        platform, sca, credential, _, _ = self._setup(rng, aik, pca)
        nonce = secrets.token_bytes(16)
        star_coord = "010"
        quote = platform.quote_reduced(star_coord, nonce)
        bundle = make_validation_bundle(platform, credential, nonce)
        bundle.quote = type(quote)(
            tag=quote.tag,
            node_value=quote.node_value,
            nonce=quote.nonce,
            signature=quote.signature,
            coord=quote.coord,
            reduced_values=tuple(reversed(quote.reduced_values)),
            root_register=quote.root_register,
            root_value=quote.root_value,
        )
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason in ("quote-signature", "reduced-tree-mismatch")

    @pytest.mark.parametrize(
        "mode, layout, binding, changes, reason",
        [
            ("concealed", "full", None, lambda p, b, n: {"quote": p.engine.reduced_tree_quote(
                p.tree.node("010"), [SHA1.measure(b"wrong")] * 3, "010", p.root_reg, p.aik, n)},
             "reduced-tree-mismatch"),
            ("concealed", "full", None, lambda p, b, n: {
                "aik_cert": PrivacyCa(SigningKey.from_seed(b"\x0b" * 32)).issue(p.aik.public, "imposter")},
             "aik-certificate"),
            ("revealed", "full", None, lambda p, b, n: {
                "original_quote": dataclasses.replace(b.original_quote, nonce=b"replayed")},
             "original-quote-signature"),
            ("revealed", "full", None, lambda p, b, n: {"node_value": SHA1.measure(b"other")}, "subject-mismatch"),
            ("revealed", "full", None, lambda p, b, n: {
                "manifest": dataclasses.replace(b.manifest, subject=SHA1.measure(b"other"))},
             "manifest-subject"),
            ("revealed", "full", None, lambda p, b, n: {"certificate": _flip_signature(b.certificate)},
             "certificate-signature"),
            ("revealed", "empty", None, lambda p, b, n: {"quote": p.quote_node("10", n)}, "tree-binding"),
            ("revealed", "full", None, lambda p, b, n: {"quote": p.quote_node("10", n)}, "tree-binding"),
            ("concealed", "full", BIND_BOUND_ROOT, lambda p, b, n: {"node_value": None}, "missing-validation-data"),
            ("concealed", "full", None, lambda p, b, n: {"binding": "sideways"}, "binding-mode"),
        ],
        ids=["reduced-tree", "aik-cert", "original-quote", "subject", "manifest-subject",
             "revealed-cert-signature", "node-binding", "bound-root-binding", "bound-root-missing", "binding-mode"],
    )
    def test_each_reject_reason(self, rng, aik, pca, mode, layout, binding, changes, reason):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", mode, pca)
        credential = certify_subtree(platform, sca, "01", layout=layout)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce, binding=binding)
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce, pca_pub=pca.public).accepted
        bundle = dataclasses.replace(bundle, **changes(platform, bundle, nonce))
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=nonce, pca_pub=pca.public)
        assert not result.accepted and result.reason == reason


class TestSignatureCache:
    """A credential checked again costs one Ed25519 check, its fresh quote,
    and every reject reason still holds after a cached success."""

    def _credential(self, rng, aik, pca, mode):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", mode, pca)
        return platform, sca, certify_subtree(platform, sca, "01", layout="full")

    @pytest.mark.parametrize("mode, once", [("revealed", 2), ("concealed", 1)])
    def test_repeated_validation_checks_only_the_fresh_quote(self, rng, aik, pca, mode, once, ed25519_checks):
        platform, sca, credential = self._credential(rng, aik, pca, mode)
        crypto._verified.clear()
        ed25519_checks.clear()
        for _ in range(12):
            nonce = secrets.token_bytes(16)
            bundle = make_validation_bundle(platform, credential, nonce)
            assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted
        assert len(ed25519_checks) == 12 + once

    @pytest.mark.parametrize(
        "mode, changes, reason",
        [
            ("revealed", lambda b, key: {"certificate": issue_subtree_certificate(
                key, b.manifest, quote=b.original_quote)}, "certificate-signature"),
            ("concealed", lambda b, key: {"certificate": issue_subtree_certificate(
                key, b.manifest, bind=b.certificate.bind)}, "certificate-signature"),
            ("revealed", lambda b, key: {"original_quote": dataclasses.replace(
                b.original_quote, signature=bytes([b.original_quote.signature[0] ^ 1])
                + b.original_quote.signature[1:])}, "original-quote-signature"),
        ],
        ids=["revealed-swapped-certificate", "concealed-swapped-certificate", "flipped-original-quote"],
    )
    def test_reject_reasons_after_a_cached_success(self, rng, aik, pca, mode, changes, reason):
        platform, sca, credential = self._credential(rng, aik, pca, mode)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted
        other_key = SigningKey.from_seed(b"\x0c" * 32)
        tampered = dataclasses.replace(bundle, **changes(bundle, other_key))
        result = validate_subtree(tampered, sca_pub=sca.public, nonce=nonce)
        assert not result.accepted and result.reason == reason
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted

    @pytest.mark.parametrize("mode", ["revealed", "concealed"])
    def test_stale_nonce_after_a_cached_success(self, rng, aik, pca, mode):
        platform, sca, credential = self._credential(rng, aik, pca, mode)
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted
        result = validate_subtree(bundle, sca_pub=sca.public, nonce=secrets.token_bytes(16))
        assert not result.accepted and result.reason == "freshness"

    def test_replayed_quote_hits_the_cache_and_is_refused(self, rng, aik, pca, ed25519_checks):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        package = build_attestation_package(platform.quote_node("01", sca.issue_nonce()), aik.public)
        assert sca.verify_and_issue(package).status == OK
        checks = len(ed25519_checks)
        assert sca.verify_and_issue(package).status == REJECT_FRESHNESS
        assert len(ed25519_checks) == checks


class TestSignedEncodings:
    """Every byte of a quote or certificate is one its signature covers."""

    @pytest.fixture
    def signed(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca, depth=3)
        key = SigningKey.from_seed(b"\x03" * 32)
        manifest = manifest_fixture()
        quote = platform.quote_node("01", b"n", include_coord=True)

        def quote_check(q):
            return verify_quote(q, aik.public) and (q.tag != "REDTREEQUOT" or refold_reduced_quote(q, SHA1))

        return {
            "treequot-coord": (quote, quote_check),
            "treequot": (platform.quote_node("01", b"n"), quote_check),
            "quot": (platform.quote_node("", b"n"), quote_check),
            "redtreequot": (platform.quote_reduced("01", b"n"), quote_check),
            "aik-certificate": (platform.aik_cert, lambda c: verify_aik_certificate(c, pca.public)),
            "revealed": (issue_subtree_certificate(key, manifest, quote=quote),
                         lambda c: verify_subtree_certificate(c, manifest, key.public, quote=quote)),
            "concealed": (issue_subtree_certificate(key, manifest, bind=aik.public.fingerprint()),
                          lambda c: verify_subtree_certificate(c, manifest, key.public)),
            "ref-value": (issue_ref_value(key, "rim", SHA1.measure(b"v")), lambda c: verify_ref_value(c, key.public)),
        }

    @pytest.mark.parametrize(
        "name",
        ["treequot-coord", "treequot", "quot", "redtreequot", "aik-certificate", "revealed", "concealed", "ref-value"],
    )
    def test_no_single_byte_flip_decodes_and_verifies(self, signed, name):
        obj, check = signed[name]
        blob = obj.to_bytes()
        assert check(type(obj).from_bytes(blob))
        surviving = []
        for index in range(len(blob)):
            for flip in (0x01, 0x80):
                flipped = blob[:index] + bytes([blob[index] ^ flip]) + blob[index + 1 :]
                try:
                    decoded = type(obj).from_bytes(flipped)
                except EncodingError:
                    continue
                if check(decoded):
                    surviving.append((index, flip))
        assert surviving == []


class TestPrivacy:
    def test_concealed_materials_never_contain_value(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        s = platform.tree.node("01")
        sca = sca_for(platform, "01", "concealed", pca)
        credential = certify_subtree(platform, sca, "01", layout="full")
        cert_bytes = credential.certificate.to_bytes()
        issue_bytes = IssuePackage(credential.manifest, credential.certificate).to_bytes()
        assert s.value not in cert_bytes
        assert s.value not in issue_bytes
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert s.value not in bundle.to_bytes()

    def test_revealed_certificate_carries_quote_bytes(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        sca = sca_for(platform, "01", "revealed", pca)
        credential = certify_subtree(platform, sca, "01", layout="empty")
        payload = certificate_payload(credential.manifest, quote=credential.original_quote)
        assert credential.original_quote.to_bytes() in payload


class TestRefValues:
    def test_issue_and_verify(self, rng):
        key = SigningKey.generate()
        value = Digest(random_digest(rng))
        cert = issue_ref_value(key, "rim-authority", value)
        assert verify_ref_value(cert, key.public)
        assert not verify_ref_value(cert, SigningKey.generate().public)
        assert RefValueCert.from_bytes(cert.to_bytes()) == cert


class TestPackageSerialization:
    def test_attestation_package_round_trip(self, rng, aik, pca):
        platform = certified_platform(rng, aik, pca)
        quote = platform.quote_node("01", b"n", include_coord=True)
        ref = issue_ref_value(SigningKey.generate(), "rim", Digest(random_digest(rng)))
        package = AttestationPackage(
            quote=quote,
            aik_pub=aik.public,
            node_value=platform.tree.node("01"),
            aik_cert=platform.aik_cert,
            subtree=b"raw subtree bytes",
            aux=(ref,),
        )
        again = AttestationPackage.from_bytes(package.to_bytes())
        assert again == package

    def test_issue_package_round_trip(self, aik):
        manifest = manifest_fixture()
        cert = issue_subtree_certificate(SigningKey.generate(), manifest, bind=aik.public.fingerprint())
        issue = IssuePackage(manifest, cert)
        assert IssuePackage.from_bytes(issue.to_bytes()) == issue
