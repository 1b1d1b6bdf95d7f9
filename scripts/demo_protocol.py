#!/usr/bin/env python3
"""End-to-end walkthrough of the subtree certification protocol.

Builds a measured tree, runs both certificate-binding modes against a
loopback authority service, files the full binding layout into the log,
and validates from a star-node quote. Prints what each side sees, and
exits 1 when any check it prints is false.
"""

import secrets
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treepcr import Digest, Platform, SHA1, SigningKey
from treepcr.certification import PrivacyCa, measure_certificate, measure_manifest
from treepcr.protocol import certify_subtree, make_validation_bundle
from treepcr.sca import PolicyTable, SubtreeCa
from treepcr.validator import validate_subtree
from treepcr.wire import ScaClient, start_server

COMPONENTS = [
    b"bootloader-2.1",
    b"kernel-6.6.4",
    b"netstack-3.0",
    b"tls-lib-1.9",
    b"agent-0.4",
    b"policy-db-7",
    b"ui-shell-2",
    b"logger-1.1",
]


def build_platform(aik, aik_cert=None):
    platform = Platform(3, aik=aik, aik_cert=aik_cert)
    for component in COMPONENTS:
        platform.extend_data(component)
    return platform


def main() -> int:
    pca = PrivacyCa(name="demo-pca")
    aik = SigningKey.generate()
    aik_cert = pca.issue(aik.public, "demo-platform")
    platform = build_platform(aik, aik_cert)
    print(f"platform root (8 measured components, depth 3): {platform.root().to_text()}")

    target = "0"  # the subtree holding bootloader..tls-lib
    subtree_value = platform.tree.node(target)
    print(f"certifying subtree at {target}: {subtree_value.to_text()}")

    policy = PolicyTable()
    policy.add(subtree_value, [("function", "trusted-base"), ("components", "4")])
    checks: list[bool] = []

    for mode in ("revealed", "concealed"):
        sca = SubtreeCa(key=SigningKey.generate(), policy=policy, mode=mode, pca_pub=pca.public)
        server, _, address = start_server(sca)
        try:
            fresh = build_platform(aik, aik_cert)
            with ScaClient(address) as client:
                credential = certify_subtree(
                    fresh, client, target, layout="full", send_aik_cert=True
                )
            print(f"\n[{mode}] issued: {credential.certificate.describe()}")
            print(f"[{mode}] manifest: {credential.manifest.describe()}")
            star = fresh.tree.node(target + "0")
            folded = SHA1.extend(
                measure_certificate(credential.certificate, SHA1),
                measure_manifest(credential.manifest, SHA1),
            )
            checks.append(star == folded)
            print(f"[{mode}] star node {target + '0'} = m(cert) ⋄ m(manifest): {checks[-1]}")

            nonce = secrets.token_bytes(16)
            bundle = make_validation_bundle(fresh, credential, nonce, send_aik_cert=True)
            result = validate_subtree(
                bundle, sca_pub=sca.public, nonce=nonce, pca_pub=pca.public
            )
            checks.append(result.accepted)
            print(f"[{mode}] validation via {bundle.binding} binding: {result.reason}")
            if mode == "concealed":
                checks.append(credential.node_value.value not in bundle.to_bytes())
                print(f"[{mode}] certified value absent from everything sent: {checks[-1]}")
        finally:
            server.shutdown()
            server.server_close()

    print("\ntamper demonstration:")
    victim = build_platform(aik)
    victim.tree.set_node("010", Digest(SHA1.measure(b"malicious-swap").value))
    breach = victim.diagnose_node("010")
    checks.append(breach is not None)
    print(f"  swapped leaf detected, breach at level {breach.level} of 3" if breach else "  undetected!")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
