"""Command-line front end.

Every command emits one machine-readable record per result (key=value
pairs on a single line) and exits 0 on success, 1 when a verification or
validation answered "no", and 2 on usage or tool failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import secrets
import shlex
import sys

from .crypto import HashConfig, SigningKey, VerifyingKey, parse_digest
from .discovery import DiscoveryData, active_discover, bottom_up_candidates
from .encoding import EncodingError
from .engine import TpmError
from .platform import Platform
from .protocol import ProtocolError, SubtreeCredential, certify_subtree, make_validation_bundle
from .sca import PolicyTable, SubtreeCa
from .tree import parse_sml, serialize_sml
from .updates import UpdateRejected
from .validator import ValidationBundle, validate_subtree
from .wire import ScaClient, ScaServer

SCA_ADDR_ENV = "TREEPCR_SCA"


def record(**fields) -> None:
    """One machine-readable result line: space-separated key=value pairs."""
    print(" ".join(f"{key.replace('_', '-')}={shlex.quote(str(value))}" for key, value in fields.items()))


def _load_platform(path: str, aik: SigningKey | None = None) -> Platform:
    with open(path, "rb") as fh:
        doc = parse_sml(fh.read())
    if doc.root_value is None or doc.root_state is None:
        raise EncodingError(f"{path}: no root register snapshot; rebuild with 'tree build'")
    return Platform.from_document(doc, aik=aik)


def _save_platform(path: str, platform: Platform) -> None:
    doc = platform.to_document()
    with open(path, "wb") as fh:
        fh.write(serialize_sml(doc.tree, doc.root_value, doc.root_state))


def _load_key(path: str) -> SigningKey:
    with open(path, "r", encoding="ascii") as fh:
        return SigningKey.from_seed(bytes.fromhex(fh.read().strip()))


def _load_pub(path: str) -> VerifyingKey:
    with open(path, "r", encoding="ascii") as fh:
        return VerifyingKey.from_text(fh.read())


def _address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, int(port)


def cmd_keygen(args) -> int:
    key = SigningKey.generate()
    # the seed is the private key: owner-only, also when overwriting a file
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.fchmod(fd, 0o600)
    with open(fd, "w", encoding="ascii") as fh:
        fh.write(key.seed().hex() + "\n")
    pub_path = args.pub or args.out + ".pub"
    with open(pub_path, "w", encoding="ascii") as fh:
        fh.write(key.public.to_text() + "\n")
    record(status="ok", key=args.out, pub=pub_path, fingerprint=key.public.fingerprint().hex())
    return 0


def cmd_tree_build(args) -> int:
    config = HashConfig(args.alg)
    platform = Platform(args.depth, config=config)
    with open(args.measurements, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    for line in lines:
        if args.raw:
            platform.extend_data(line.encode("utf-8"))
        else:
            platform.extend(parse_digest(line, config.size))
    if platform.root_state().value == "AR" and not args.open:
        platform.close()
    _save_platform(args.out, platform)
    record(
        status="ok",
        root=platform.root().to_text(),
        depth=args.depth,
        leaves=len(lines),
        state=platform.root_state().value,
        file=args.out,
    )
    return 0


def cmd_tree_verify_node(args) -> int:
    platform = _load_platform(args.sml)
    if platform.verify_node(args.coord):
        record(status="ok", verified="yes", coord=args.coord, root=platform.root().to_text())
        return 0
    record(status="verification-error", verified="no", coord=args.coord)
    return 1


def cmd_tree_node_verify(args) -> int:
    platform = _load_platform(args.sml)
    breach = platform.diagnose_node(args.coord)
    if breach is None:
        record(status="ok", coord=args.coord)
        return 0
    record(status="breach", coord=args.coord, level=breach.level, computed=breach.computed.to_text())
    return 1


def cmd_tree_update(args) -> int:
    platform = _load_platform(args.sml)
    new_value = parse_digest(args.value, platform.config.size)
    result = platform.verified_update(args.coord, new_value)
    if result is None:
        record(status="verification-error", coord=args.coord)
        return 1
    _save_platform(args.sml, platform)
    record(status="ok", coord=args.coord, root=result.root.to_text(), file=args.sml)
    return 0


def cmd_tamper(args) -> int:
    with open(args.sml, "rb") as fh:
        doc = parse_sml(fh.read())
    value = parse_digest(args.value, doc.tree.config.size)
    doc.tree.set_node(args.coord, value)
    with open(args.sml, "wb") as fh:
        fh.write(serialize_sml(doc.tree, doc.root_value, doc.root_state))
    record(status="ok", coord=args.coord, value=value.to_text(), file=args.sml)
    return 0


def cmd_quote(args) -> int:
    platform = _load_platform(args.sml, aik=_load_key(args.aik))
    nonce = bytes.fromhex(args.nonce) if args.nonce else secrets.token_bytes(16)
    if args.credential:
        # wrap a fresh quote plus the retained credential into a full bundle
        with open(args.credential, "rb") as fh:
            credential = SubtreeCredential.from_bytes(fh.read())
        bundle = make_validation_bundle(platform, credential, nonce, binding=args.binding)
        payload, kind, quote = bundle.to_bytes(), "bundle", bundle.quote
    else:
        if args.variant == "redtree":
            quote = platform.quote_reduced(args.coord, nonce)
        else:
            quote = platform.quote_node(args.coord, nonce, include_coord=args.include_coord)
        if quote is None:
            record(status="verification-error", coord=args.coord)
            return 1
        payload, kind = quote.to_bytes(), "quote"
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    record(
        status="ok",
        kind=kind,
        tag=quote.tag,
        coord=args.coord,
        value=quote.node_value.to_text(),
        nonce=nonce.hex(),
        **({"file": args.out} if args.out else {}),
    )
    return 0


def cmd_certify(args) -> int:
    address = _address(args.sca or os.environ.get(SCA_ADDR_ENV, ""))
    platform = _load_platform(args.sml, aik=_load_key(args.aik))
    if args.aik_cert:
        from .certification import AikCertificate

        with open(args.aik_cert, "rb") as fh:
            platform.aik_cert = AikCertificate.from_bytes(fh.read())
    with ScaClient(address) as client:
        credential = certify_subtree(
            platform,
            client,
            args.coord,
            layout=args.layout,
            send_aik_cert=bool(args.aik_cert),
        )
    _save_platform(args.sml, platform)
    if args.credential_out:
        with open(args.credential_out, "wb") as fh:
            fh.write(credential.to_bytes())
    record(
        status="issued",
        mode=credential.certificate.mode,
        coord=args.coord,
        layout=args.layout,
        root=platform.root().to_text(),
        **({"credential": args.credential_out} if args.credential_out else {}),
    )
    return 0


def cmd_validate(args) -> int:
    with open(args.bundle, "rb") as fh:
        bundle = ValidationBundle.from_bytes(fh.read())
    result = validate_subtree(
        bundle,
        sca_pub=_load_pub(args.sca_pub),
        nonce=bytes.fromhex(args.nonce),
        pca_pub=_load_pub(args.pca_pub) if args.pca_pub else None,
        config=HashConfig(args.alg),
    )
    if result.accepted:
        record(status="ok", binding=bundle.binding)
        return 0
    record(status="reject", reason=result.reason)
    return 1


def cmd_discover(args) -> int:
    with open(args.sml, "rb") as fh:
        doc = parse_sml(fh.read())
    with open(args.data, "r", encoding="utf-8") as fh:
        data = DiscoveryData.from_text(fh.read(), doc.tree.config)
    if args.bottom_up:
        result = bottom_up_candidates(doc.tree, data)
        for cand in result.candidates:
            record(
                kind="candidate",
                coord=cand.coord or "-",
                value=cand.value.to_text(),
                full="yes" if cand.full else "no",
                missing=",".join(cand.missing) or "-",
            )
        record(status="ok", count=len(result.candidates))
    else:
        result = active_discover(doc.tree, data)
        for ref in result.matches:
            record(kind="match", coord=ref.coord, value=ref.value.to_text())
        record(status="ok", count=len(result.matches))
    return 0


def cmd_sca_serve(args) -> int:
    with open(args.policy, "r", encoding="utf-8") as fh:
        policy = PolicyTable.from_text(fh.read(), HashConfig(args.alg))
    sca = SubtreeCa(
        key=_load_key(args.key),
        policy=policy,
        name=args.name,
        mode=args.mode,
        config=HashConfig(args.alg),
        pca_pub=_load_pub(args.pca_pub) if args.pca_pub else None,
        issuance_log=args.log,
    )
    if args.ref_issuer:
        for item in args.ref_issuer:
            name, _, path = item.partition(":")
            sca.ref_issuers[name] = _load_pub(path)
    discovery = None
    if args.discovery:
        with open(args.discovery, "r", encoding="utf-8") as fh:
            discovery = DiscoveryData.from_text(fh.read(), HashConfig(args.alg))
        sca.leaf_values = {d.value for d in discovery.leaf_values}
    host, port = _address(args.bind)
    server = ScaServer((host, port), sca, discovery)
    record(status="serving", bind=f"{server.server_address[0]}:{server.server_address[1]}", mode=args.mode)
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treepcr", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log device commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a signing key pair")
    p.add_argument("--out", required=True)
    p.add_argument("--pub")
    p.set_defaults(func=cmd_keygen)

    tree = sub.add_parser("tree", help="log construction and node operations")
    tree_sub = tree.add_subparsers(dest="tree_command", required=True)

    p = tree_sub.add_parser("build", help="build a log from a measurements file")
    p.add_argument("measurements")
    p.add_argument("-d", "--depth", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--alg", default="sha1", choices=["sha1", "sha256"])
    p.add_argument("--raw", action="store_true", help="hash each line instead of reading hex digests")
    p.add_argument("--open", action="store_true", help="keep the root active instead of closing it")
    p.set_defaults(func=cmd_tree_build)

    p = tree_sub.add_parser("verify-node", help="check a stored node against the root")
    p.add_argument("sml")
    p.add_argument("coord")
    p.set_defaults(func=cmd_tree_verify_node)

    p = tree_sub.add_parser("node-verify", help="top-down diagnostics reporting the breached level")
    p.add_argument("sml")
    p.add_argument("coord")
    p.set_defaults(func=cmd_tree_node_verify)

    p = tree_sub.add_parser("update", help="verified replacement of one node value")
    p.add_argument("sml")
    p.add_argument("coord")
    p.add_argument("value")
    p.set_defaults(func=cmd_tree_update)

    p = sub.add_parser("tamper", help="overwrite one log node without recomputation (test helper)")
    p.add_argument("sml")
    p.add_argument("coord")
    p.add_argument("value")
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("quote", help="attest to a node value")
    p.add_argument("sml")
    p.add_argument("coord")
    p.add_argument("--aik", required=True)
    p.add_argument("--variant", default="tree", choices=["tree", "redtree"])
    p.add_argument("--nonce")
    p.add_argument("--include-coord", action="store_true")
    p.add_argument("--out", "-o")
    p.add_argument("--credential", help="wrap the quote into a validation bundle for this credential")
    p.add_argument("--binding", choices=["node", "star", "bound-root"])
    p.set_defaults(func=cmd_quote)

    p = sub.add_parser("certify", help="run the certification protocol against an issuer service")
    p.add_argument("sml")
    p.add_argument("coord")
    p.add_argument("--sca", help=f"issuer address host:port (default ${SCA_ADDR_ENV})")
    p.add_argument("--aik", required=True)
    p.add_argument("--aik-cert")
    p.add_argument("--layout", default="full", choices=["full", "empty"])
    p.add_argument("--credential-out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("validate", help="evaluate a validation bundle")
    p.add_argument("bundle")
    p.add_argument("--sca-pub", required=True)
    p.add_argument("--pca-pub")
    p.add_argument("--nonce", required=True)
    p.add_argument("--alg", default="sha1", choices=["sha1", "sha256"])
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("discover", help="search a log against discovery data")
    p.add_argument("sml")
    p.add_argument("--data", required=True)
    p.add_argument("--bottom-up", action="store_true")
    p.set_defaults(func=cmd_discover)

    sca = sub.add_parser("sca", help="issuer service")
    sca_sub = sca.add_subparsers(dest="sca_command", required=True)
    p = sca_sub.add_parser("serve", help="serve the certification authority")
    p.add_argument("--bind", default="127.0.0.1:0")
    p.add_argument("--policy", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--name", default="sca")
    p.add_argument("--mode", default="revealed", choices=["revealed", "concealed"])
    p.add_argument("--alg", default="sha1", choices=["sha1", "sha256"])
    p.add_argument("--pca-pub")
    p.add_argument("--discovery")
    p.add_argument("--log", help="append-only issuance log file")
    p.add_argument("--ref-issuer", action="append", help="name:pubfile trusted for reference values")
    p.set_defaults(func=cmd_sca_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG, format="%(name)s %(message)s")
    try:
        return args.func(args)
    except (EncodingError, ValueError, TpmError, UpdateRejected, OSError) as exc:
        record(status="error", message=str(exc))
        return 2
    except ProtocolError as exc:
        record(status=exc.status, message=exc.detail)
        return 1


if __name__ == "__main__":
    sys.exit(main())
