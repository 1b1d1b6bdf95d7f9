"""Framed loopback protocol between platform, issuer service, and validator.

Frames are 4-byte big-endian length, one message-type byte, then a
versioned payload (the canonical serializations of the protocol
objects). Transport security is an environment concern: the service
speaks plaintext. A client takes a channel-wrapper hook, which carries
every byte the client sends and receives (the benchmark counts frames and
bytes through it). The service only frames: the authority it wraps checks
each quote and records each issuance.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from typing import Callable

from .certification import AttestationPackage, IssuePackage
from .crypto import VerifyingKey, digest_from_wire, digest_to_wire
from .discovery import DiscoveryData
from .encoding import EncodingError, decode_text, pack_fields, unpack_fields, untag
from .engine import Quote
from .sca import IssueOutcome, PassiveResult, SubtreeCa, passive_discover
from .tree import NodeRef, parse_sml

logger = logging.getLogger(__name__)

MSG_NONCE = 0x01
MSG_ATTEST = 0x02
MSG_PASSIVE = 0x03
MSG_DISCOVERY = 0x05
MSG_NONCE_RESP = 0x81
MSG_ATTEST_RESP = 0x82
MSG_PASSIVE_RESP = 0x83
MSG_DISCOVERY_RESP = 0x85
MSG_ERROR = 0x7F

MAX_FRAME = 1 << 24  # refuse anything bigger than 16 MiB
#: seconds a frame's sender may pause, once its first byte is in, before its session is dropped
FRAME_DEADLINE = 30.0

ChannelWrapper = Callable[[socket.socket], object]


class FrameError(EncodingError):
    """The byte stream does not carry a well-formed frame."""


def write_frame(channel, msg_type: int, payload: bytes) -> None:
    if not 0 <= msg_type <= 0xFF:
        raise ValueError(f"message type {msg_type} out of range")
    if len(payload) + 1 > MAX_FRAME:
        raise FrameError(f"frame of {len(payload) + 1} bytes exceeds the {MAX_FRAME} cap")
    channel.sendall((len(payload) + 1).to_bytes(4, "big") + bytes([msg_type]) + payload)


def _recv_exact(channel, count: int) -> bytes:
    chunks = []
    while count:
        chunk = channel.recv(count)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def read_frame(channel) -> tuple[int, bytes]:
    """Read one frame; raises FrameError on malformed length or empty body."""
    header = _recv_exact(channel, 4)
    length = int.from_bytes(header, "big")
    if length < 1 or length > MAX_FRAME:
        raise FrameError(f"bad frame length {length}")
    body = _recv_exact(channel, length)
    return body[0], body[1:]


def _pack_error(code: str, message: str) -> bytes:
    return pack_fields(code.encode("ascii"), message.encode("utf-8"))


def parse_error(payload: bytes) -> tuple[str, str]:
    code, message = unpack_fields(payload, count=2)
    return decode_text(code), decode_text(message, "utf-8")


def pack_passive_request(
    root: NodeRef, subtree: bytes, aik_pub: VerifyingKey, quote: Quote | None
) -> bytes:
    return pack_fields(
        root.coord.encode("ascii"),
        digest_to_wire(root.value),
        subtree,
        aik_pub.raw,
        b"" if quote is None else quote.to_bytes(),
    )


def unpack_passive_request(payload: bytes) -> tuple[NodeRef, bytes, VerifyingKey, Quote | None]:
    coord, value, subtree, pub, quote = unpack_fields(payload, count=5)
    return (
        NodeRef(decode_text(coord), digest_from_wire(value)),
        subtree,
        VerifyingKey(pub),
        None if not quote else Quote.from_bytes(quote),
    )


def pack_passive_result(result: PassiveResult) -> bytes:
    return pack_fields(
        result.status.encode("ascii"),
        result.detail.encode("utf-8"),
        b"" if result.inconsistent_coord is None else b"c" + result.inconsistent_coord.encode("ascii"),
        pack_fields(*(pack_fields(r.coord.encode("ascii"), digest_to_wire(r.value)) for r in result.candidates)),
        pack_fields(*(pack_fields(coord.encode("ascii"), issue.to_bytes()) for coord, issue in result.certificates)),
    )


def unpack_passive_result(payload: bytes) -> PassiveResult:
    status, detail, bad, candidates, certs = unpack_fields(payload, count=5)
    result = PassiveResult(decode_text(status), decode_text(detail, "utf-8"))
    bad = untag(bad, b"c")
    result.inconsistent_coord = None if bad is None else decode_text(bad)
    for blob in unpack_fields(candidates):
        coord, value = unpack_fields(blob, count=2)
        result.candidates.append(NodeRef(decode_text(coord), digest_from_wire(value)))
    for blob in unpack_fields(certs):
        coord, issue = unpack_fields(blob, count=2)
        result.certificates.append((decode_text(coord), IssuePackage.from_bytes(issue)))
    return result


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: ScaServer = self.server  # type: ignore[assignment]
        sock = self.request
        while True:
            try:
                # a session may idle between frames; once a frame's first byte
                # is in, each read of the rest waits at most FRAME_DEADLINE
                if not sock.recv(1, socket.MSG_PEEK):
                    return
                sock.settimeout(FRAME_DEADLINE)
                msg_type, payload = read_frame(sock)
                sock.settimeout(None)
            except FrameError as exc:
                # framing is broken: report once and drop the session
                try:
                    write_frame(sock, MSG_ERROR, _pack_error("bad-frame", str(exc)))
                except OSError:
                    pass
                return
            except (ConnectionError, OSError):
                return
            try:
                response = self._dispatch(server, msg_type, payload)
            except EncodingError as exc:
                write_frame(sock, MSG_ERROR, _pack_error("bad-payload", str(exc)))
                continue
            except Exception as exc:  # noqa: BLE001 - session must not take the service down
                logger.exception("request failed")
                write_frame(sock, MSG_ERROR, _pack_error("internal", str(exc)))
                continue
            write_frame(sock, *response)

    def _dispatch(self, server: "ScaServer", msg_type: int, payload: bytes) -> tuple[int, bytes]:
        sca = server.sca
        if msg_type == MSG_NONCE:
            return MSG_NONCE_RESP, sca.issue_nonce()
        if msg_type == MSG_ATTEST:
            package = AttestationPackage.from_bytes(payload)
            outcome = sca.verify_and_issue(package)
            return MSG_ATTEST_RESP, pack_fields(
                outcome.status.encode("ascii"),
                outcome.detail.encode("utf-8"),
                b"" if outcome.package is None else outcome.package.to_bytes(),
            )
        if msg_type == MSG_PASSIVE:
            root, subtree_bytes, aik_pub, quote = unpack_passive_request(payload)
            subtree = parse_sml(subtree_bytes).tree
            result = passive_discover(sca, root, subtree, quote=quote, aik_pub=aik_pub)
            return MSG_PASSIVE_RESP, pack_passive_result(result)
        if msg_type == MSG_DISCOVERY:
            return MSG_DISCOVERY_RESP, server.discovery_text().encode("utf-8")
        return MSG_ERROR, _pack_error("unknown-type", f"message type {msg_type:#x}")


class ScaServer(socketserver.ThreadingTCPServer):
    """The certification authority as a small framed service."""

    allow_reuse_address = True
    daemon_threads = True
    # the default backlog of 5 overflows under connect bursts; each dropped SYN costs ~1 s
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address: tuple[str, int], sca: SubtreeCa, discovery=None) -> None:
        super().__init__(address, _Handler)
        self.sca = sca
        self.discovery = discovery

    def discovery_text(self) -> str:
        if self.discovery is not None:
            return self.discovery.to_text()
        return DiscoveryData(values=frozenset(self.sca.policy.values())).to_text()


def start_server(
    sca: SubtreeCa, host: str = "127.0.0.1", port: int = 0
) -> tuple[ScaServer, threading.Thread, tuple[str, int]]:
    """Spin up a server thread; returns (server, thread, bound address)."""
    server = ScaServer((host, port), sca)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address


class ScaClient:
    """Framed client; quacks like a local authority for the protocol driver."""

    def __init__(self, address: tuple[str, int], channel_wrapper: ChannelWrapper | None = None) -> None:
        self.address = address
        self._sock = socket.create_connection(address, timeout=10)
        self._channel = channel_wrapper(self._sock) if channel_wrapper else self._sock

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ScaClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _roundtrip(self, msg_type: int, payload: bytes, expect: int) -> bytes:
        write_frame(self._channel, msg_type, payload)
        got, body = read_frame(self._channel)
        if got == MSG_ERROR:
            code, message = parse_error(body)
            raise ProtocolFrameError(code, message)
        if got != expect:
            raise ProtocolFrameError("unexpected-type", f"got {got:#x}, expected {expect:#x}")
        return body

    def issue_nonce(self) -> bytes:
        return self._roundtrip(MSG_NONCE, b"", MSG_NONCE_RESP)

    def verify_and_issue(self, package: AttestationPackage) -> IssueOutcome:
        body = self._roundtrip(MSG_ATTEST, package.to_bytes(), MSG_ATTEST_RESP)
        status, detail, issue = unpack_fields(body, count=3)
        return IssueOutcome(
            decode_text(status),
            None if not issue else IssuePackage.from_bytes(issue),
            decode_text(detail, "utf-8"),
        )

    def passive_discover(
        self, root: NodeRef, subtree: bytes, aik_pub: VerifyingKey, quote: Quote | None = None
    ) -> PassiveResult:
        body = self._roundtrip(
            MSG_PASSIVE, pack_passive_request(root, subtree, aik_pub, quote), MSG_PASSIVE_RESP
        )
        return unpack_passive_result(body)

    def discovery_data(self) -> str:
        return decode_text(self._roundtrip(MSG_DISCOVERY, b"", MSG_DISCOVERY_RESP), "utf-8")


class ProtocolFrameError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
