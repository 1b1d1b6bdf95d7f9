import dataclasses
import io
import itertools
import secrets
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_platform
from oracle import random_leaves
from treepcr import NodeRef, SHA1, SigningKey, crypto, extract_subtree, serialize_sml, wire
from treepcr.certification import (
    AttestationPackage,
    IssuePackage,
    Manifest,
    PrivacyCa,
    SubtreeCertificate,
    build_attestation_package,
    issue_subtree_certificate,
)
from treepcr.crypto import digest_from_wire
from treepcr.discovery import DiscoveryData
from treepcr.encoding import EncodingError, pack_fields, pack_u32, unpack_fields
from treepcr.engine import Quote
from treepcr.protocol import certify_subtree, make_validation_bundle
from treepcr.sca import (
    OK,
    REJECT_PACKAGE,
    REJECT_SIGNATURE,
    REJECT_SUBTREE,
    PassiveResult,
    PolicyTable,
    SubtreeCa,
    passive_discover,
)
from treepcr.tree import MAX_DEPTH
from treepcr.validator import validate_subtree
from treepcr.wire import (
    MAX_FRAME,
    MSG_ATTEST,
    MSG_ATTEST_RESP,
    MSG_ERROR,
    MSG_NONCE,
    MSG_NONCE_RESP,
    MSG_PASSIVE,
    FrameError,
    ProtocolFrameError,
    ScaClient,
    pack_passive_request,
    pack_passive_result,
    parse_error,
    read_frame,
    start_server,
    unpack_passive_result,
    write_frame,
)


class _Pipe:
    """In-memory bidirectional channel exposing sendall/recv."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def sendall(self, data):
        pos = self.buffer.tell()
        self.buffer.seek(0, io.SEEK_END)
        self.buffer.write(data)
        self.buffer.seek(pos)

    def recv(self, count):
        return self.buffer.read(count)


@pytest.fixture
def served(rng):
    leaves = random_leaves(rng, 4, count=16)
    platform = make_platform(leaves, 4, aik=SigningKey.from_seed(b"\x06" * 32))
    policy = PolicyTable()
    policy.add(platform.tree.node("01"), [("function", "service-under-test")])
    policy.add(platform.tree.node("00"), [("function", "other-module")])
    sca = SubtreeCa(key=SigningKey.from_seed(b"\x05" * 32), policy=policy, mode="concealed")
    server, thread, address = start_server(sca)
    yield platform, sca, server, address
    server.shutdown()
    server.server_close()


class TestFraming:
    def test_round_trip_and_length_invariant(self):
        pipe = _Pipe()
        write_frame(pipe, 0x42, b"payload-bytes")
        raw = pipe.buffer.getvalue()
        assert int.from_bytes(raw[:4], "big") == len(b"payload-bytes") + 1
        msg_type, payload = read_frame(pipe)
        assert msg_type == 0x42 and payload == b"payload-bytes"

    def test_zero_length_rejected(self):
        pipe = _Pipe()
        pipe.sendall((0).to_bytes(4, "big"))
        with pytest.raises(FrameError):
            read_frame(pipe)

    def test_oversize_rejected_both_ways(self):
        pipe = _Pipe()
        pipe.sendall((MAX_FRAME + 1).to_bytes(4, "big") + b"\x01")
        with pytest.raises(FrameError):
            read_frame(pipe)
        with pytest.raises(FrameError):
            write_frame(_Pipe(), 1, b"\x00" * MAX_FRAME)

    def test_parser_fuzz_10k(self, rng):
        # random inputs must either parse cleanly or raise FrameError/ConnectionError
        for _ in range(10_000):
            blob = rng.randbytes(rng.randint(0, 24))
            pipe = _Pipe()
            pipe.sendall(blob)
            try:
                read_frame(pipe)
            except (FrameError, ConnectionError):
                pass


class TestService:
    def test_nonce_attest_roundtrip(self, served):
        platform, sca, server, address = served
        with ScaClient(address) as client:
            nonce = client.issue_nonce()
            quote = platform.quote_node("01", nonce)
            outcome = client.verify_and_issue(build_attestation_package(quote, platform.aik.public))
        assert outcome.status == OK
        assert outcome.package.certificate.bind == platform.aik.public.fingerprint()

    def test_certify_over_loopback(self, served):
        platform, sca, server, address = served
        with ScaClient(address) as client:
            credential = certify_subtree(platform, client, "01", layout="full")
        nonce = secrets.token_bytes(16)
        bundle = make_validation_bundle(platform, credential, nonce)
        assert validate_subtree(bundle, sca_pub=sca.public, nonce=nonce).accepted

    def test_discovery_data_roundtrip(self, served):
        platform, sca, server, address = served
        with ScaClient(address) as client:
            data = DiscoveryData.from_text(client.discovery_data())
        assert platform.tree.node("01") in data.values

    def test_passive_over_loopback(self, served, rng):
        platform, sca, server, address = served
        with ScaClient(address) as client:
            nonce = client.issue_nonce()
            quote = platform.quote_node("0", nonce)
            result = client.passive_discover(
                platform.node("0"),
                serialize_sml(extract_subtree(platform.tree, "0")),
                platform.aik.public,
                quote=quote,
            )
        assert result.status == OK
        assert sorted(coord for coord, _ in result.certificates) == ["00", "01"]

    def test_passive_lazy_over_loopback(self, served):
        platform, sca, server, address = served
        with ScaClient(address) as client:
            result = client.passive_discover(
                platform.node("0"),
                serialize_sml(extract_subtree(platform.tree, "0")),
                platform.aik.public,
            )
        assert result.status == "quotes-required"
        assert sorted(r.coord for r in result.candidates) == ["00", "01"]

    def test_passive_malformed_root_coordinate_refused_without_spending_the_nonce(self, served):
        platform, sca, server, address = served
        blob = serialize_sml(extract_subtree(platform.tree, "0"))
        with ScaClient(address) as client:
            quote = platform.quote_node("0", client.issue_nonce())
            for coord in ("zz\x00", "0" * MAX_DEPTH):
                bad = NodeRef(coord, platform.tree.node("0"))
                result = client.passive_discover(bad, blob, platform.aik.public, quote=quote)
                assert result.status == REJECT_SUBTREE and result.candidates == []
            result = client.passive_discover(platform.node("0"), blob, platform.aik.public, quote=quote)
        assert result.status == OK

    def test_unknown_message_type_yields_error_frame(self, served):
        _, _, _, address = served
        sock = socket.create_connection(address, timeout=5)
        write_frame(sock, 0x6E, b"whatever")
        msg_type, payload = read_frame(sock)
        assert msg_type == MSG_ERROR
        # session survives: a valid request still works on the same connection
        write_frame(sock, MSG_NONCE, b"")
        msg_type, nonce = read_frame(sock)
        assert msg_type != MSG_ERROR and len(nonce) == 16
        sock.close()

    def test_bad_payload_yields_error_frame_and_session_survives(self, served):
        _, _, _, address = served
        sock = socket.create_connection(address, timeout=5)
        write_frame(sock, MSG_ATTEST, b"not a package")
        msg_type, _ = read_frame(sock)
        assert msg_type == MSG_ERROR
        write_frame(sock, MSG_NONCE, b"")
        msg_type, _ = read_frame(sock)
        assert msg_type != MSG_ERROR
        sock.close()

    def test_malformed_frames_then_valid_session(self, served, rng):
        # hammer the service with garbage sessions, then do real work
        _, sca, _, address = served
        for _ in range(500):
            sock = socket.create_connection(address, timeout=5)
            sock.sendall(rng.randbytes(rng.randint(1, 64)))
            sock.close()
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        sca.policy.add(platform.tree.node("01"), [("function", "late-arrival")])
        with ScaClient(address) as client:
            credential = certify_subtree(platform, client, "01", layout="empty")
        assert credential.certificate.mode == "concealed"

    def test_root_reduced_quote_over_the_wire(self, served):
        # a root REDTREEQUOT has no siblings; without its root value it is malformed
        platform, sca, _, address = served
        sca.policy.add(platform.root(), [("configuration", "golden")])
        with ScaClient(address) as client:
            quote = platform.quote_reduced("", client.issue_nonce())
            outcome = client.verify_and_issue(build_attestation_package(quote, platform.aik.public))
            assert outcome.status == OK
            stripped = dataclasses.replace(platform.quote_reduced("", client.issue_nonce()), root_value=None)
            with pytest.raises(ProtocolFrameError) as err:
                client.verify_and_issue(AttestationPackage(stripped, platform.aik.public))
        assert err.value.code == "bad-payload"

    def test_malformed_quotes_get_clean_answers(self, served):
        platform, _, _, address = served
        with ScaClient(address) as client:
            bad_coord = dataclasses.replace(platform.quote_reduced("01", client.issue_nonce()), coord="2x")
            outcome = client.verify_and_issue(AttestationPackage(bad_coord, platform.aik.public))
            assert outcome.status == REJECT_PACKAGE
            bad_tag = dataclasses.replace(platform.quote_node("01", client.issue_nonce()), tag="XQUOT")
            with pytest.raises(ProtocolFrameError) as err:
                client.verify_and_issue(AttestationPackage(bad_tag, platform.aik.public))
        assert err.value.code == "bad-payload"

    def test_undecodable_text_fields_get_bad_payload(self, served):
        # one hostile text field in each of three message layouts; the session survives each
        platform, _, _, address = served
        aik_pub = platform.aik.public

        def replace_field(blob, count, index, value):
            fields = unpack_fields(blob, count=count)
            fields[index] = value
            return pack_fields(*fields)

        quote = platform.quote_node("01", secrets.token_bytes(16)).to_bytes()
        aik_cert = PrivacyCa().issue(aik_pub, "platform").to_bytes()
        package = AttestationPackage(Quote.from_bytes(quote), aik_pub).to_bytes()
        passive = pack_passive_request(
            platform.node("0"), serialize_sml(extract_subtree(platform.tree, "0")), aik_pub, None
        )
        frames = [
            (MSG_ATTEST, replace_field(package, 7, 1, replace_field(quote, 8, 4, b"c\xff"))),
            (MSG_PASSIVE, replace_field(passive, 5, 0, b"\xff")),
            (MSG_ATTEST, replace_field(package, 7, 4, replace_field(aik_cert, 4, 1, b"\xff\xfe"))),
        ]
        sock = socket.create_connection(address, timeout=5)
        try:
            for msg_type, payload in frames:
                write_frame(sock, msg_type, payload)
                got, body = read_frame(sock)
                assert got == MSG_ERROR and parse_error(body)[0] == "bad-payload"
                write_frame(sock, MSG_NONCE, b"")
                got, nonce = read_frame(sock)
                assert got == MSG_NONCE_RESP and len(nonce) == 16
        finally:
            sock.close()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_flipped_payload_byte_never_answers_internal(self, served, data):
        # every client message that carries a payload, each field in use; the frame header stays intact
        platform, _, _, address = served
        aik_pub = platform.aik.public
        subtree = serialize_sml(extract_subtree(platform.tree, "0"))
        sock = socket.create_connection(address, timeout=5)
        try:
            write_frame(sock, MSG_NONCE, b"")
            _, nonce = read_frame(sock)
            quote = data.draw(st.sampled_from([
                platform.quote_node("01", nonce, include_coord=True), platform.quote_reduced("01", nonce)
            ]))
            aik_cert = PrivacyCa().issue(aik_pub, "platform")
            frames = [
                (MSG_ATTEST, AttestationPackage(quote, aik_pub, quote.node_value, aik_cert, subtree).to_bytes()),
                (MSG_PASSIVE, pack_passive_request(platform.node("0"), subtree, aik_pub, quote)),
            ]
            msg_type, payload = data.draw(st.sampled_from(frames))
            index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
            flip = data.draw(st.integers(min_value=1, max_value=255))
            flipped = payload[:index] + bytes([payload[index] ^ flip]) + payload[index + 1 :]
            write_frame(sock, msg_type, flipped)
            got, body = read_frame(sock)
            assert got != MSG_ERROR or parse_error(body)[0] != "internal", parse_error(body)
            write_frame(sock, MSG_NONCE, b"")
            got, nonce = read_frame(sock)
            assert got == MSG_NONCE_RESP and len(nonce) == 16
        finally:
            sock.close()

    def test_hostile_quotes_leave_only_fixed_size_cache_entries(self, served):
        # a nonce or signature near the frame cap must not stay behind in the signature cache
        platform, _, _, address = served
        big = 1 << 20
        with ScaClient(address) as client:
            quote = platform.quote_node("01", client.issue_nonce())
            for i in range(4):
                for forged in (
                    dataclasses.replace(quote, nonce=bytes([i]) * big),
                    dataclasses.replace(quote, nonce=bytes([i]) * big, signature=bytes([i]) * 64),
                    dataclasses.replace(quote, signature=bytes([i]) * big),
                ):
                    outcome = client.verify_and_issue(AttestationPackage(forged, platform.aik.public))
                    assert outcome.status == REJECT_SIGNATURE
        # two 64-byte-signature quotes per round were checked; the 1 MiB signatures never were
        assert len(crypto._verified) == 8
        assert all(len(entry) == 128 for entry in crypto._verified)

    def test_client_surfaces_error_frames(self, served):
        _, _, _, address = served
        with ScaClient(address) as client:
            with pytest.raises(ProtocolFrameError, match="unknown-type"):
                client._roundtrip(0x55, b"", MSG_ATTEST_RESP)

    def test_issuance_log_appended(self, rng, tmp_path):
        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        policy = PolicyTable()
        policy.add(platform.tree.node("01"), [("function", "logged")])
        log_file = tmp_path / "issuance.log"
        sca = SubtreeCa(key=SigningKey.generate(), policy=policy, mode="concealed", issuance_log=str(log_file))
        server, _, address = start_server(sca)
        try:
            with ScaClient(address) as client:
                certify_subtree(platform, client, "01", layout="empty")
        finally:
            server.shutdown()
            server.server_close()
        lines = log_file.read_text().splitlines()
        assert len(lines) == 1 and "concealed" in lines[0]

    def test_one_issuance_record_on_every_route(self, served, tmp_path):
        platform, sca, _, address = served
        sca.issuance_log = str(tmp_path / "issuance.log")
        aik_pub = platform.aik.public
        with ScaClient(address) as client:
            wire = client.verify_and_issue(AttestationPackage(platform.quote_node("01", client.issue_nonce()), aik_pub))
        local = sca.verify_and_issue(AttestationPackage(platform.quote_node("00", sca.issue_nonce()), aik_pub))
        passive = passive_discover(
            sca, platform.node("0"), extract_subtree(platform.tree, "0"),
            quote=platform.quote_node("0", sca.issue_nonce()), aik_pub=aik_pub,
        )
        assert wire.status == local.status == passive.status == OK and len(passive.certificates) == 2
        issued = [wire.package, local.package, *(issue for _, issue in passive.certificates)]
        assert Path(sca.issuance_log).read_text() == "".join(_record(issue) for issue in issued)

    def test_concurrent_issuance_leaves_whole_lines(self, served, tmp_path):
        platform, sca, _, address = served
        sca.issuance_log = str(tmp_path / "issuance.log")
        sca.clock = itertools.count(1_700_000_000).__next__  # distinct timestamps, so distinct lines
        packages = [
            AttestationPackage(platform.quote_node("01", sca.issue_nonce()), platform.aik.public) for _ in range(8)
        ]
        start = threading.Barrier(len(packages), timeout=10)
        issued = []

        def certify(package):
            with ScaClient(address) as client:
                start.wait()
                issued.append(client.verify_and_issue(package).package)

        threads = [threading.Thread(target=certify, args=(package,)) for package in packages]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(issued) == 8 and None not in issued
        lines = Path(sca.issuance_log).read_text().splitlines(keepends=True)
        assert sorted(lines) == sorted(_record(issue) for issue in issued)

    def test_internal_error_keeps_the_session(self, served, monkeypatch):
        platform, sca, _, address = served

        def fail(package):
            raise RuntimeError("authority failed")

        monkeypatch.setattr(sca, "verify_and_issue", fail)
        with ScaClient(address) as client:
            package = AttestationPackage(platform.quote_node("01", client.issue_nonce()), platform.aik.public)
            with pytest.raises(ProtocolFrameError) as caught:
                client.verify_and_issue(package)
            assert caught.value.code == "internal" and "authority failed" in caught.value.message
            assert len(client.issue_nonce()) == 16

    def test_stalled_frame_dropped_idle_session_kept(self, served, monkeypatch):
        # a frame begun and not finished ends its session at the deadline; a
        # session idle between frames for longer stays open
        monkeypatch.setattr(wire, "FRAME_DEADLINE", 0.2)
        _, _, _, address = served
        with ScaClient(address) as client, socket.create_connection(address, timeout=10) as stalled:
            assert len(client.issue_nonce()) == 16
            stalled.sendall((100).to_bytes(4, "big") + bytes([MSG_NONCE]) + b"\x00" * 10)
            started = time.monotonic()
            try:
                assert stalled.recv(1) == b""
            except ConnectionResetError:
                pass
            assert time.monotonic() - started < 5
            time.sleep(0.3)  # the other session now idles past the deadline
            assert len(client.issue_nonce()) == 16

    def test_channel_wrapper_hook(self, rng):
        # a transforming wrapper on both ends still talks the same protocol
        class XorChannel:
            def __init__(self, sock):
                self.sock = sock

            def sendall(self, data):
                self.sock.sendall(bytes(b ^ 0x5A for b in data))

            def recv(self, count):
                return bytes(b ^ 0x5A for b in self.sock.recv(count))

        platform = make_platform(random_leaves(rng, 2, count=4), 2)
        policy = PolicyTable()
        policy.add(platform.tree.node("00"), [("function", "wrapped")])
        sca = SubtreeCa(key=SigningKey.generate(), policy=policy)
        server, _, address = start_server(sca, channel_wrapper=XorChannel)
        try:
            with ScaClient(address, channel_wrapper=XorChannel) as client:
                assert len(client.issue_nonce()) == 16
            with pytest.raises((ProtocolFrameError, FrameError, ConnectionError, OSError)):
                with ScaClient(address) as plain:  # unwrapped client cannot talk
                    plain.issue_nonce()
        finally:
            server.shutdown()
            server.server_close()


def _record(issue: IssuePackage) -> str:
    """One issuance-log line, in the service's file format."""
    manifest = issue.manifest
    return f"{manifest.timestamp} {issue.certificate.mode} {manifest.subject.to_text()} {manifest.issuer}\n"


def _retag(blob, count, index, tag):
    """``blob`` with the tag byte of its tagged field ``index`` replaced by ``tag``."""
    fields = unpack_fields(blob, count=count)
    fields[index] = tag + fields[index][1:]
    return pack_fields(*fields)


class TestCanonicalDecoding:
    """Each wire object has one encoding: it round-trips byte for byte, and no other bytes decode."""

    @pytest.fixture
    def objects(self, rng):
        platform = make_platform(random_leaves(rng, 3, count=8), 3)
        key = SigningKey.from_seed(b"\x07" * 32)
        manifest = Manifest(SHA1.measure(b"subject"), (("function", "test"),), 7, "issuer", aik_checked=True)
        quote = platform.quote_node("01", b"n", include_coord=True)
        concealed = issue_subtree_certificate(key, manifest, bind=b"fingerprint")
        issue = IssuePackage(manifest, concealed)
        return {
            "quote": quote,
            "root-quote": platform.quote_node("", b"n"),
            "reduced-quote": platform.quote_reduced("01", b"n"),
            "root-reduced-quote": platform.quote_reduced("", b"n"),
            "manifest": manifest,
            "unchecked-manifest": Manifest(manifest.subject, manifest.properties, 7, "issuer"),
            "revealed": issue_subtree_certificate(key, manifest, quote=quote),
            "concealed": concealed,
            "issue": issue,
            "package": AttestationPackage(quote, platform.aik.public, quote.node_value),
            "root-package": AttestationPackage(quote, platform.aik.public),
            "passive": PassiveResult("rejected", "bad", "010", [platform.node("0")], [("01", issue)]),
        }

    @pytest.mark.parametrize(
        "name",
        ["quote", "root-quote", "reduced-quote", "root-reduced-quote", "manifest", "unchecked-manifest",
         "revealed", "concealed", "issue", "package", "root-package", "passive"],
    )
    def test_round_trip_byte_for_byte(self, objects, name):
        obj = objects[name]
        if name == "passive":
            blob = pack_passive_result(obj)
            assert pack_passive_result(unpack_passive_result(blob)) == blob
            assert unpack_passive_result(blob) == obj
        else:
            blob = obj.to_bytes()
            assert type(obj).from_bytes(blob) == obj
            assert type(obj).from_bytes(blob).to_bytes() == blob

    @pytest.mark.parametrize(
        "name, decode, count, index",
        [
            ("quote", Quote.from_bytes, 8, 4),
            ("concealed", SubtreeCertificate.from_bytes, 2, 1),
            ("passive", unpack_passive_result, 5, 2),
        ],
    )
    @pytest.mark.parametrize("tag", [b"x", b"\x00"])
    def test_wrong_tag_byte_refused(self, objects, name, decode, count, index, tag):
        obj = objects[name]
        blob = pack_passive_result(obj) if name == "passive" else obj.to_bytes()
        with pytest.raises(EncodingError, match="field tag"):
            decode(_retag(blob, count, index, tag))

    def test_reduced_quote_root_register_takes_four_bytes(self, objects):
        fields = unpack_fields(objects["reduced-quote"].to_bytes(), count=8)
        for root_register in (b"\x00" + fields[6], fields[6][1:], b""):
            with pytest.raises(EncodingError):
                Quote.from_bytes(pack_fields(*fields[:6], root_register, fields[7]))
        assert fields[6] == pack_u32(objects["reduced-quote"].root_register)

    @pytest.mark.parametrize("flag", [b"\x02", b"\xff", b"", b"\x01\x01"])
    def test_manifest_flag_is_one_byte_zero_or_one(self, objects, flag):
        fields = unpack_fields(objects["manifest"].to_bytes())
        with pytest.raises(EncodingError):
            Manifest.from_bytes(pack_fields(*fields[:-1], flag))

    def test_empty_tagged_digest_refused(self):
        with pytest.raises(EncodingError):
            digest_from_wire(b"\x01")
