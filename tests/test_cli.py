import hashlib
import os
import secrets
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import treepcr
from oracle import build_full_tree
from treepcr import SHA1, SigningKey, parse_sml, recompute_root
from treepcr.cli import main
from treepcr.discovery import DiscoveryData
from treepcr.sca import PolicyTable, SubtreeCa
from treepcr.wire import ScaClient, start_server


def run(capsys, *argv) -> tuple[int, dict, list[str]]:
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    last = dict(item.split("=", 1) for item in shlex.split(out[-1]))
    return code, last, out


@pytest.fixture
def leaves():
    return [hashlib.sha1(b"component-%d" % i).digest() for i in range(1, 5)]


@pytest.fixture
def measurements(tmp_path, leaves):
    path = tmp_path / "measurements.txt"
    path.write_text("".join(raw.hex() + "\n" for raw in leaves))
    return str(path)


@pytest.fixture
def built(tmp_path, capsys, measurements):
    sml = str(tmp_path / "log.sml")
    code, rec, _ = run(capsys, "tree", "build", measurements, "-d", "2", "-o", sml)
    assert code == 0
    return sml, rec


class TestTreeCommands:
    def test_build_prints_oracle_root(self, built, leaves):
        _, root = build_full_tree(leaves, 2)
        sml, rec = built
        assert rec["root"] == root.hex()
        assert rec["state"] == "CR"

    def test_build_raw_mode(self, tmp_path, capsys):
        source = tmp_path / "raw.txt"
        source.write_text("alpha\nbeta\n")
        sml = str(tmp_path / "raw.sml")
        code, rec, _ = run(capsys, "tree", "build", str(source), "-d", "2", "-o", sml, "--raw")
        assert code == 0
        expected = SHA1.extend(SHA1.measure(b"alpha"), SHA1.measure(b"beta"))
        assert rec["root"] == expected.to_text()

    def test_emitted_root_matches_recompute(self, built):
        sml, rec = built
        doc = parse_sml(Path(sml).read_bytes())
        assert recompute_root(doc.tree).to_text() == rec["root"]
        assert doc.root_value.to_text() == rec["root"]

    def test_verify_node_ok(self, built, capsys):
        sml, _ = built
        code, rec, _ = run(capsys, "tree", "verify-node", sml, "01")
        assert code == 0 and rec["verified"] == "yes"

    def test_tamper_then_verify_node_fails(self, built, capsys):
        sml, _ = built
        evil = SHA1.measure(b"evil").to_text()
        code, rec, _ = run(capsys, "tamper", sml, "01", evil)
        assert code == 0
        code, rec, _ = run(capsys, "tree", "verify-node", sml, "01")
        assert code == 1 and rec["status"] == "verification-error"

    def test_tamper_then_node_verify_reports_level(self, built, capsys):
        sml, _ = built
        code, _, _ = run(capsys, "tamper", sml, "10", SHA1.measure(b"evil").to_text())
        assert code == 0
        code, rec, _ = run(capsys, "tree", "node-verify", sml, "10")
        assert code == 1 and rec["status"] == "breach" and rec["level"] == "2"

    def test_node_verify_clean_exit_zero(self, built, capsys):
        sml, _ = built
        code, rec, _ = run(capsys, "tree", "node-verify", sml, "11")
        assert code == 0 and rec["status"] == "ok"

    def test_update_rewrites_file(self, built, capsys, leaves):
        sml, _ = built
        new_value = SHA1.measure(b"patched-component")
        code, rec, _ = run(capsys, "tree", "update", sml, "01", new_value.to_text())
        assert code == 0
        nodes, _ = build_full_tree(leaves, 2)
        from oracle import oracle_update

        _, expected_root = oracle_update(nodes, "01", new_value.value)
        assert rec["root"] == expected_root.hex()
        doc = parse_sml(Path(sml).read_bytes())
        assert doc.root_value.to_text() == rec["root"]
        assert recompute_root(doc.tree) == doc.root_value

    def test_update_of_tampered_node_fails(self, built, capsys):
        sml, _ = built
        run(capsys, "tamper", sml, "01", SHA1.measure(b"evil").to_text())
        code, rec, _ = run(capsys, "tree", "update", sml, "01", SHA1.measure(b"new").to_text())
        assert code == 1 and rec["status"] == "verification-error"

    def test_usage_errors_exit_two(self, built, capsys):
        sml, _ = built
        assert main(["tree", "verify-node", sml, "21"]) == 2
        assert main(["tree", "verify-node", "/nonexistent.sml", "0"]) == 2
        with pytest.raises(SystemExit) as err:
            main(["tree", "build"])  # missing required arguments
        assert err.value.code == 2


class TestQuoteAndKeys:
    def test_keygen_and_quote(self, built, tmp_path, capsys):
        sml, _ = built
        key = str(tmp_path / "aik.key")
        code, rec, _ = run(capsys, "keygen", "--out", key)
        assert code == 0
        out = str(tmp_path / "node.quote")
        code, rec, _ = run(capsys, "quote", sml, "01", "--aik", key, "--nonce", "00ff", "--out", out)
        assert code == 0 and rec["tag"] == "TREEQUOT"
        from treepcr.engine import Quote, verify_quote

        quote = Quote.from_bytes(Path(out).read_bytes())
        assert quote.nonce == bytes.fromhex("00ff")
        key_obj = SigningKey.from_seed(bytes.fromhex(Path(key).read_text().strip()))
        assert verify_quote(quote, key_obj.public)

    def test_keygen_seed_is_owner_only(self, tmp_path, capsys):
        fresh, existing = tmp_path / "fresh.key", tmp_path / "existing.key"
        existing.write_text("old\n")
        existing.chmod(0o644)
        for path in (fresh, existing):
            code, _, _ = run(capsys, "keygen", "--out", str(path))
            assert code == 0
            assert path.stat().st_mode & 0o077 == 0

    def test_redtree_quote_variant(self, built, tmp_path, capsys):
        sml, _ = built
        key = str(tmp_path / "aik.key")
        run(capsys, "keygen", "--out", key)
        code, rec, _ = run(capsys, "quote", sml, "01", "--aik", key, "--variant", "redtree")
        assert code == 0 and rec["tag"] == "REDTREEQUOT"

    def test_quote_of_tampered_node_exits_one(self, built, tmp_path, capsys):
        sml, _ = built
        key = str(tmp_path / "aik.key")
        run(capsys, "keygen", "--out", key)
        run(capsys, "tamper", sml, "01", SHA1.measure(b"evil").to_text())
        code, rec, _ = run(capsys, "quote", sml, "01", "--aik", key)
        assert code == 1 and rec["status"] == "verification-error"


class TestDiscoverCli:
    def test_active_and_bottom_up(self, built, tmp_path, capsys, leaves):
        sml, _ = built
        doc = parse_sml(Path(sml).read_bytes())
        dd = tmp_path / "dd.txt"
        dd.write_text(
            "DISCOVERY v1\n"
            f"value {doc.tree.node('0').to_text()}\n"
            f"leaf {leaves[0].hex()}\nleaf {leaves[1].hex()}\n"
        )
        code, rec, lines = run(capsys, "discover", sml, "--data", str(dd))
        assert code == 0 and rec["count"] == "1"
        assert any("coord=0 " in line for line in lines)
        code, rec, lines = run(capsys, "discover", sml, "--data", str(dd), "--bottom-up")
        assert code == 0
        assert any("coord=0 " in line and "full=yes" in line for line in lines)


class TestProtocolLoopback:
    @pytest.fixture
    def service(self, measurements, tmp_path, capsys):
        sml = str(tmp_path / "deep.sml")
        code, _, _ = run(capsys, "tree", "build", measurements, "-d", "3", "-o", sml)
        assert code == 0
        doc = parse_sml(Path(sml).read_bytes())
        policy = PolicyTable()
        policy.add(doc.tree.node("0"), [("function", "cli-module")])
        sca_key = SigningKey.from_seed(b"\x0c" * 32)
        sca = SubtreeCa(key=sca_key, policy=policy, mode="concealed")
        server, _, address = start_server(sca)
        pub = tmp_path / "sca.pub"
        pub.write_text(sca_key.public.to_text() + "\n")
        yield sml, f"{address[0]}:{address[1]}", str(pub)
        server.shutdown()
        server.server_close()

    def test_certify_then_validate_loopback(self, service, tmp_path, capsys):
        sml, address, sca_pub = service
        key = str(tmp_path / "aik.key")
        run(capsys, "keygen", "--out", key)
        credential = str(tmp_path / "module.cred")
        code, rec, _ = run(
            capsys, "certify", sml, "0", "--sca", address, "--aik", key,
            "--layout", "full", "--credential-out", credential,
        )
        assert code == 0 and rec["status"] == "issued" and rec["mode"] == "concealed"

        doc = parse_sml(Path(sml).read_bytes())
        assert doc.root_value.to_text() == rec["root"]  # file root matches the record

        nonce = secrets.token_bytes(16).hex()
        bundle = str(tmp_path / "module.bundle")
        code, rec, _ = run(
            capsys, "quote", sml, "0", "--aik", key, "--nonce", nonce,
            "--credential", credential, "--out", bundle,
        )
        assert code == 0 and rec["kind"] == "bundle"

        code, rec, _ = run(capsys, "validate", bundle, "--sca-pub", sca_pub, "--nonce", nonce)
        assert code == 0 and rec["status"] == "ok"

        code, rec, _ = run(
            capsys, "validate", bundle, "--sca-pub", sca_pub, "--nonce", secrets.token_bytes(16).hex()
        )
        assert code == 1 and rec["reason"] == "freshness"

    def test_env_var_supplies_address(self, service, tmp_path, capsys, monkeypatch):
        sml, address, _ = service
        key = str(tmp_path / "aik.key")
        run(capsys, "keygen", "--out", key)
        monkeypatch.setenv("TREEPCR_SCA", address)
        code, rec, _ = run(capsys, "certify", sml, "0", "--aik", key, "--layout", "empty")
        assert code == 0 and rec["status"] == "issued"

    def test_refusal_exits_one(self, service, tmp_path, capsys):
        sml, address, _ = service
        key = str(tmp_path / "aik.key")
        run(capsys, "keygen", "--out", key)
        code, rec, _ = run(capsys, "certify", sml, "11", "--sca", address, "--aik", key)
        assert code == 1 and rec["status"] == "refused-unknown-value"

    def test_sca_serve_end_to_end(self, measurements, tmp_path, capsys):
        sml = str(tmp_path / "deep.sml")
        assert run(capsys, "tree", "build", measurements, "-d", "3", "-o", sml)[0] == 0
        module = parse_sml(Path(sml).read_bytes()).tree.node("0")
        policy = tmp_path / "policy.txt"
        policy.write_text(f"{module.to_text()} function=served-module\n")
        discovery = tmp_path / "discovery.txt"
        discovery.write_text(DiscoveryData(values=frozenset({module})).to_text())
        for name in ("sca", "ref", "aik"):
            run(capsys, "keygen", "--out", str(tmp_path / f"{name}.key"))
        log = tmp_path / "issuance.log"
        command = [
            sys.executable, "-m", "treepcr.cli", "sca", "serve", "--bind", "127.0.0.1:0",
            "--policy", str(policy), "--key", str(tmp_path / "sca.key"), "--name", "served",
            "--mode", "concealed", "--discovery", str(discovery), "--log", str(log),
            "--ref-issuer", f"ref:{tmp_path / 'ref.key.pub'}",
        ]
        src = str(Path(treepcr.__file__).resolve().parents[1])
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src})
        try:
            serving = dict(item.split("=", 1) for item in shlex.split(proc.stdout.readline()))
            assert serving["status"] == "serving" and serving["mode"] == "concealed"
            host, _, port = serving["bind"].rpartition(":")
            with ScaClient((host, int(port))) as client:
                assert DiscoveryData.from_text(client.discovery_data()) == DiscoveryData.from_text(discovery.read_text())
            code, rec, _ = run(capsys, "certify", sml, "0", "--sca", serving["bind"], "--aik", str(tmp_path / "aik.key"))
            assert code == 0 and rec["status"] == "issued"
            lines = log.read_text().splitlines()
            assert len(lines) == 1
            timestamp, mode, subject, issuer = lines[0].split(" ")
            assert timestamp.isdigit()
            assert (mode, subject, issuer) == ("concealed", SHA1.measure(module.value).to_text(), "served")
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
