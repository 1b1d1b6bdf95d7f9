"""The benchmark's workloads and the operations they time.

Every workload runs the same phases (build, reads, persistence, verified
updates, update sets, certification over loopback), because every
end-to-end metric is reported by every workload. The workloads differ in
hash algorithm, tree depth and how many samples each phase gets, which
sets the part of the system that dominates their run; see README.md for
the mix and the reasons.

With a tracer the composite calls are driven step by step, so that each
step into a module gets its own span; the step-by-step path must end at
the same roots and credentials as the composite call, and the same
reference checks hold on both.
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import dataclass, replace
from time import perf_counter_ns

from reference import ReferenceTree, refold
from timing import Floor, Tracer

from treepcr import Digest, HashConfig, NodeRef, Platform, SigningKey, TreeTpm
from treepcr.certification import CONCEALED, LAYOUT_FULL, REVEALED, binding_update_set, build_attestation_package
from treepcr.crypto import sign as crypto_sign, verify as crypto_verify
from treepcr.discovery import passive_discover
from treepcr.encoding import pack_fields, unpack_fields
from treepcr.protocol import SubtreeCredential, certify_subtree, make_validation_bundle
from treepcr.sca import OK, PolicyTable, SubtreeCa
from treepcr.tree import extract_subtree, find_inconsistency, parse_sml, serialize_sml
from treepcr.updates import apply_update_set, apply_update_set_bulk, find_intrinsic_subsets, scratch_fold
from treepcr.validator import validate_subtree
from treepcr.wire import ScaClient, start_server

#: the run length the sample counts below are sized for
REFERENCE_SECONDS = 15

#: update coordinates sit in distinct subtrees rooted at this level, so a
#: later update never lands in a subtree an earlier one blanked
REGION_LEVEL = 8

#: certified subtrees are rooted at this level
CERT_LEVEL = 9

READ_MIX = (("verify", 8), ("quote", 4), ("redquote", 2), ("diagnose", 2))
READ_BATCH = 64
BUILD_CHUNK = 512


@dataclass(frozen=True)
class Spec:
    name: str
    alg: str
    depth: int
    builds: int
    reads: int
    corruptions: int
    persist: int
    updates: int
    sets: int
    targets: int
    passives: int  # quoted passive submissions per target
    validations: int  # per certified subtree


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("attest-d16", "sha1", 16, builds=2, reads=4800, corruptions=64, persist=5,
             updates=10, sets=5, targets=8, passives=8, validations=12),
        Spec("update-persist-d16", "sha1", 16, builds=2, reads=800, corruptions=16, persist=5,
             updates=16, sets=5, targets=8, passives=8, validations=12),
        Spec("certify-loopback-d12", "sha256", 12, builds=8, reads=3200, corruptions=32, persist=12,
             updates=48, sets=24, targets=128, passives=1, validations=4),
    )
}


def scaled(spec: Spec, seconds: int) -> Spec:
    """Counts for a run of ``seconds``: the work is fixed by the length asked
    for, never by the clock, so that two runs of one length do the same work."""
    f = seconds / REFERENCE_SECONDS

    def n(base: int, least: int, most: int) -> int:
        return max(least, min(most, round(base * f)))

    persist = n(spec.persist, 3, 16)
    return replace(
        spec,
        builds=n(spec.builds, 2, persist),
        reads=n(spec.reads, 64, 1 << 16),
        corruptions=n(spec.corruptions, 4, 1024),
        persist=persist,
        updates=n(spec.updates, 4, 1 << (REGION_LEVEL - 1)),
        sets=n(spec.sets, 2, 1 << (REGION_LEVEL - 1)),
        targets=n(spec.targets, 2, 1 << (REGION_LEVEL - 1)),
    )


class CountingChannel:
    """Client channel wrapper that counts bytes and whole frames both ways."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.sent = self.received = self.frames = 0
        self._pending = bytearray()

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self.frames += 1
        self._sock.sendall(data)

    def recv(self, count: int) -> bytes:
        data = self._sock.recv(count)
        self.received += len(data)
        self._pending += data
        while len(self._pending) >= 4:
            size = 4 + int.from_bytes(self._pending[:4], "big")
            if len(self._pending) < size:
                break
            self.frames += 1
            del self._pending[:size]
        return data


def flip_bit(raw: bytes, position: int) -> bytes:
    out = bytearray(raw)
    out[position // 8 % len(raw)] ^= 1 << (position % 8)
    return bytes(out)


class Run:
    """One workload run: inputs, reference values, samples and checks."""

    def __init__(self, spec: Spec, seed: int, tracer: Tracer | None) -> None:
        self.spec = spec
        self.tr = tracer
        self.rng = random.Random(seed)
        self.cfg = HashConfig(spec.alg)
        self.hasher = getattr(hashlib, spec.alg)
        self.seed_bytes = seed.to_bytes(8, "big", signed=True)
        self.floor = Floor(spec.alg, self.seed_bytes)
        self.samples: dict[str, list[float]] = {}
        self.raw_ns: dict[str, list[int]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.stats = []  # EngineStats of every platform the run drives
        self.overhead: list[float] = []
        self.wire = {"bytes": 0, "frames": 0, "certs": 0}
        self.verify_ops = {"naive": 0, "bulk": 0}

    # -- bookkeeping -------------------------------------------------------

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def _floor(self) -> float:
        value = self.floor.measure()
        if self.tr is not None:
            self.tr.floor = value
        return value

    def timed(self, metric, items, op, check=None) -> None:
        """Time ``op`` on each item between two floor blocks.

        ``metric`` is a name, or a function naming the metric of each item.
        ``check(item, result)`` runs outside the timed region.
        """
        pre = self._floor()
        times = []
        for item in items:
            start = perf_counter_ns()
            result = op(item)
            times.append(perf_counter_ns() - start)
            if check is not None:
                check(item, result)
        floor = (pre + self.floor.measure()) / 2
        self.attempted += len(times)
        for item, t in zip(items, times):
            name = metric(item) if callable(metric) else metric
            self.samples.setdefault(name, []).append(t / floor)
            self.raw_ns.setdefault(name, []).append(t)

    def coord(self, level: int, prefix: str = "") -> str:
        width = level - len(prefix)
        return prefix + (format(self.rng.getrandbits(width), f"0{width}b") if width else "")

    def digest(self) -> Digest:
        return Digest(self.rng.randbytes(self.cfg.size))

    def span(self, name: str, calls: int = 1):
        return self.tr.span(name, calls)

    # -- composite calls and their step-by-step forms ------------------------

    def extend_all(self, platform: Platform, leaves: list[Digest]) -> None:
        if self.tr is None:
            for leaf in leaves:
                platform.extend(leaf)
            return
        engine, tree, reg = platform.engine, platform.tree, platform.root_reg
        for leaf in leaves:
            with self.span("platform.extend"):
                with self.span("engine.tree_extend"):
                    result = engine.tree_extend(reg, leaf)
                with self.span("tree.set_node", len(result.nodes)):
                    for ref in result.nodes:
                        tree.set_node(ref.coord, ref.value)
                tree.leaf_count = result.index + 1

    def reduced(self, platform: Platform, coord: str):
        with self.span("tree.build_reduced_tree"):
            return platform.reduced(coord)

    def verify(self, platform: Platform, coord: str) -> bool:
        if self.tr is None:
            return platform.verify_node(coord)
        reduced = self.reduced(platform, coord)
        node = platform.node(coord)
        with self.span("engine.reduced_tree_verify"):
            got = platform.engine.reduced_tree_verify(node, reduced, platform.root_reg)
        return got is not None

    def quote(self, platform: Platform, coord: str, nonce: bytes):
        if self.tr is None:
            return platform.quote_node(coord, nonce)
        reduced = self.reduced(platform, coord)
        with self.span("engine.tree_node_quote"):
            return platform.engine.tree_node_quote(
                platform.node(coord), reduced, platform.root_reg, platform.aik, nonce
            )

    def crypto_probes(self, platform: Platform, coord: str, nonce: bytes) -> None:
        """The hash and signature primitives on this read's own inputs."""
        node = platform.node(coord)
        sibling = platform.reduced(coord)[-1].value
        with self.span("crypto.check"):
            self.cfg.check(node.value)
        with self.span("crypto.extend"):
            self.cfg.extend(sibling, node.value)
        payload = node.value.value
        with self.span("crypto.sign"):
            signature = crypto_sign(platform.aik, "TREEQUOT", payload, nonce)
        with self.span("crypto.verify"):
            self.expect(crypto_verify(platform.aik.public, "TREEQUOT", payload, nonce, signature),
                        "crypto.verify rejected its own signature")

    def redquote(self, platform: Platform, coord: str, nonce: bytes):
        if self.tr is None:
            return platform.quote_reduced(coord, nonce)
        reduced = self.reduced(platform, coord)
        with self.span("engine.reduced_tree_quote"):
            return platform.engine.reduced_tree_quote(
                platform.tree.node(coord), [r.value for r in reduced], coord,
                platform.root_reg, platform.aik, nonce,
            )

    def diagnose(self, platform: Platform, coord: str):
        if self.tr is None:
            return platform.diagnose_node(coord)
        reduced = self.reduced(platform, coord)
        trace = platform.trace(coord)
        with self.span("engine.tree_node_verify"):
            return platform.engine.tree_node_verify(coord, reduced, trace, platform.root_reg)

    def verified_update(self, platform: Platform, coord: str, value: Digest):
        if self.tr is None:
            return platform.verified_update(coord, value)
        reduced = self.reduced(platform, coord)
        with self.span("engine.tree_node_verified_update"):
            result = platform.engine.tree_node_verified_update(
                platform.node(coord), value, reduced, platform.root_reg
            )
        if result is not None:
            with self.span("platform.apply_update"):
                platform.apply_update(coord, result.trace)
        return result

    def naive_set(self, platform: Platform, entries: list[NodeRef]):
        if self.tr is None:
            return apply_update_set(entries, platform)
        for entry in sorted(entries, key=lambda e: e.coord):
            self.expect(self.verified_update(platform, entry.coord, entry.value) is not None,
                        f"naive set entry {entry.coord} rejected")
        return platform.root()

    def load(self, data: bytes) -> Platform:
        if self.tr is None:
            return Platform.from_document(parse_sml(data), aik=self.aik)
        with self.span("tree.parse_sml"):
            doc = parse_sml(data)
        with self.span("platform.from_document"):
            return Platform.from_document(doc, aik=self.aik)

    def save(self, platform: Platform) -> bytes:
        if self.tr is None:
            return serialize_sml(platform.tree, platform.root(), "CR")
        with self.span("tree.serialize_sml"):
            return serialize_sml(platform.tree, platform.root(), "CR")

    def audit(self, platform: Platform):
        if self.tr is None:
            return find_inconsistency(platform.tree, platform.root())
        with self.span("tree.find_inconsistency"):
            return find_inconsistency(platform.tree, platform.root())

    def certify(self, platform: Platform, client, sca: SubtreeCa, coord: str) -> SubtreeCredential:
        if self.tr is None:
            return certify_subtree(platform, client, coord, layout=LAYOUT_FULL)
        # the five phases of certify_subtree, one span per step
        with self.span("wire.nonce_roundtrip"):
            nonce = client.issue_nonce()
        quote = self.quote(platform, coord, nonce)
        node_value = platform.tree.node(coord)
        with self.span("certification.build_attestation_package"):
            package = build_attestation_package(quote, platform.aik.public, node_value=node_value)
        blob = package.to_bytes()
        with self.span("encoding.unpack_fields"):
            fields = unpack_fields(blob)
        with self.span("encoding.pack_fields"):
            self.expect(pack_fields(*fields) == blob, "pack_fields(unpack_fields(b)) != b")
        with self.span("wire.attest_roundtrip"):
            outcome = client.verify_and_issue(package)
        self.expect(outcome.status == OK, f"certification of {coord} got {outcome.status}")
        # the same evidence, checked by the authority object directly
        direct_quote = self.quote(platform, coord, sca.issue_nonce())
        direct = build_attestation_package(direct_quote, platform.aik.public, node_value=node_value)
        with self.span("sca.verify_and_issue"):
            self.expect(sca.verify_and_issue(direct).status == OK, "direct issuance refused")
        with self.span("certification.binding_update_set"):
            entries = binding_update_set(
                outcome.package, NodeRef(coord, node_value), LAYOUT_FULL, platform.config, platform.depth
            )
        self.naive_set(platform, entries)
        return SubtreeCredential(coord, node_value, outcome.package.manifest,
                                 outcome.package.certificate, quote, LAYOUT_FULL)

    def validate(self, platform: Platform, credential: SubtreeCredential, sca_pub, nonce: bytes):
        if self.tr is None:
            bundle = make_validation_bundle(platform, credential, nonce)
            return bundle, validate_subtree(bundle, sca_pub, nonce, config=self.cfg)
        with self.span("protocol.make_validation_bundle"):
            bundle = make_validation_bundle(platform, credential, nonce)
        with self.span("validator.validate_subtree"):
            return bundle, validate_subtree(bundle, sca_pub, nonce, config=self.cfg)

    def passive(self, client, root: NodeRef, blob: bytes, quote):
        if self.tr is None:
            return client.passive_discover(root, blob, self.aik.public, quote)
        with self.span("wire.passive_roundtrip"):
            return client.passive_discover(root, blob, self.aik.public, quote)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Seeded inputs and plans, keys, reference values, and the authority on loopback."""
        spec, rng = self.spec, self.rng
        self.aik = SigningKey.from_seed(hashlib.sha256(b"aik" + self.seed_bytes).digest())
        sca_key = SigningKey.from_seed(hashlib.sha256(b"sca" + self.seed_bytes).digest())
        self.leaves = [Digest(rng.randbytes(self.cfg.size)) for _ in range(1 << spec.depth)]
        self.ref = ReferenceTree(spec.alg, spec.depth, [leaf.value for leaf in self.leaves])

        # every kind of read visits the levels in equal shares: a median over
        # per-level cost clusters moves when the count per level does
        weight = sum(w for _, w in READ_MIX)
        self.read_plan = [
            (kind, self.coord(i % spec.depth + 1), rng.randbytes(16))
            for kind, w in READ_MIX
            for i in range(spec.reads * w // weight)
        ]
        rng.shuffle(self.read_plan)
        self.corruption_plan = [self.corruption(i) for i in range(spec.corruptions)]

        # updates and certification targets share one platform, each in its own level-8 subtree
        regions = self.regions()
        self.update_plan = [(self.coord(rng.randint(REGION_LEVEL, spec.depth), region), self.digest())
                            for region in regions[: spec.updates]]
        parents = regions[spec.updates : spec.updates + spec.targets]

        # each set: six entries at two levels forming one intrinsic subset, plus one stray entry
        set_regions = self.regions()
        self.set_plan = []
        for i in range(spec.sets):
            span = self.coord(rng.randint(REGION_LEVEL, spec.depth - 3), set_regions[2 * i])
            coords = [span + s for s in ("00", "01", "100", "101", "110", "111")]
            coords.append(self.coord(rng.randint(REGION_LEVEL, spec.depth), set_regions[2 * i + 1]))
            self.set_plan.append((i, span, [NodeRef(c, self.digest()) for c in coords]))

        # each target pairs a certified subtree with its sibling, submitted for passive
        # discovery; the policy knows the first and three nodes in disjoint parts of the second
        policy = {}
        self.target_plan = []
        for i, parent in enumerate(parents):
            certified, submitted = parent + "0", parent + "1"
            policy[self.ref.value(certified)] = (("module", f"m{i:04d}"),)
            for part in ("00", "01", "1"):
                below = self.coord(rng.randint(CERT_LEVEL + len(part), spec.depth), submitted + part)
                policy[self.ref.value(below)] = (("component", f"c{i:04d}"),)
            self.target_plan.append((i, certified, submitted))
        self.tamper_plan = (self.coord(rng.randint(1, spec.depth)), rng.getrandbits(16))

        self.sca = SubtreeCa(sca_key, PolicyTable(policy), name="bench-sca", config=self.cfg)
        self.server, self.server_thread, address = start_server(self.sca)
        self.channel: list[CountingChannel] = []

        def counting(sock) -> CountingChannel:
            self.channel.append(CountingChannel(sock))
            return self.channel[-1]

        self.client = ScaClient(address, channel_wrapper=None if self.tr is None else counting)

    def close(self) -> None:
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.server_thread.join(timeout=30)

    def regions(self) -> list[str]:
        indices = self.rng.sample(range(1 << REGION_LEVEL), 1 << REGION_LEVEL)
        return [format(i, f"0{REGION_LEVEL}b") for i in indices]

    def corruption(self, i: int) -> tuple[str, str, int, int]:
        """A one-bit flip of the node (odd i) or of one of its siblings (even i)."""
        level = self.rng.randint(1, self.spec.depth)
        coord = self.coord(level)
        if i % 2:
            return coord, coord, level, self.rng.getrandbits(16)
        breach = self.rng.randint(1, level)
        prefix = coord[:breach]
        return coord, prefix[:-1] + ("0" if prefix[-1] == "1" else "1"), breach, self.rng.getrandbits(16)

    # -- the run -----------------------------------------------------------

    def execute(self) -> None:
        """Rounds that each take an even share of every phase.

        The machine's speed drifts over seconds; spreading every metric's
        samples over the whole run keeps one slow stretch from deciding a
        metric. One round per whole-log persistence repeat.
        """
        rounds = self.spec.persist
        share = lambda items, r: items[len(items) * r // rounds : len(items) * (r + 1) // rounds]  # noqa: E731
        self.work_ref, self.set_ref = self.ref.copy(), self.ref.copy()
        read_tree = self.build()
        later_builds = list(range(self.spec.builds - 1))
        # the write phases run on copies, so the read tree is never written and
        # every timed load meets the same live heap
        working, naive, bulk = (Platform.from_document(read_tree.to_document(), aik=self.aik) for _ in range(3))
        self.stats.extend(p.engine.stats for p in (working, naive, bulk))
        for r in range(rounds):
            for _ in share(later_builds, r):
                self.build()
            self.reads(read_tree, share(self.read_plan, r))
            for plan in share(self.corruption_plan, r):
                self.corrupt(read_tree, *plan)
            self.persist(read_tree)
            self.updates(working, share(self.update_plan, r))
            for plan in share(self.set_plan, r):
                self.update_set(naive, bulk, *plan)
            for plan in share(self.target_plan, r):
                self.protocol(working, *plan)
        self.expect(self.verify_ops["bulk"] < self.verify_ops["naive"],
                    "bulk path did not spend fewer verified operations")
        self.tamper_check(read_tree)

    def build(self) -> Platform:
        """One whole-tree build, timed in chunks so each chunk has floors beside it."""
        leaves = self.leaves
        gc.collect()
        platform = Platform(self.spec.depth, self.cfg, aik=self.aik)
        floors, total_ns, cost = [self._floor()], 0, 0.0
        for start in range(0, len(leaves), BUILD_CHUNK):
            begin = perf_counter_ns()
            self.extend_all(platform, leaves[start : start + BUILD_CHUNK])
            elapsed = perf_counter_ns() - begin
            floors.append(self._floor())
            total_ns += elapsed
            cost += elapsed / ((floors[-2] + floors[-1]) / 2)
        self.attempted += 1
        self.samples.setdefault("build_floors_per_leaf", []).append(cost / len(leaves))
        self.raw_ns.setdefault("build_floors_per_leaf", []).append(total_ns // len(leaves))
        self.stats.append(platform.engine.stats)
        self.expect(platform.root().value == self.ref.root, "built root differs from the hashlib fold")
        return platform

    def reads(self, platform: Platform, ops) -> None:
        ref, hasher = self.ref, self.hasher
        run = {
            "verify": lambda c, n: self.verify(platform, c),
            "quote": lambda c, n: self.quote(platform, c, n),
            "redquote": lambda c, n: self.redquote(platform, c, n),
            "diagnose": lambda c, n: self.diagnose(platform, c),
        }
        metric = {"verify": "verify_floors", "quote": "quote_floors"}

        def check(op, result):
            kind, coord, _ = op
            if kind == "verify":
                self.expect(result is True, f"honest verify of {coord} refused")
            elif kind == "quote":
                self.expect(result is not None and result.node_value.value == ref.value(coord),
                            f"TREEQUOT of {coord} differs from the reference value")
            elif kind == "redquote":
                self.expect(result.node_value.value == ref.value(coord)
                            and refold(hasher, result.node_value.value, coord,
                                       [d.value for d in result.reduced_values]) == ref.root,
                            f"REDTREEQUOT of {coord} does not refold to the reference root")
            else:
                self.expect(result is None, f"honest diagnose of {coord} reported a breach")

        for start in range(0, len(ops), READ_BATCH):
            chunk = ops[start : start + READ_BATCH]
            self.timed(lambda op: metric.get(op[0], op[0]), chunk, lambda op: run[op[0]](op[1], op[2]), check)
            if self.tr is not None:
                self.overhead_pairs(platform, chunk)
                for _, coord, nonce in chunk[:8]:
                    self.crypto_probes(platform, coord, nonce)

    def overhead_pairs(self, platform: Platform, chunk) -> None:
        """Traced over untraced time of the same read, alternating which runs first."""
        tracer = self.tr
        for i, (kind, coord, nonce) in enumerate(chunk):
            times = {}
            for traced in ((True, False) if i % 2 else (False, True)):
                self.tr = tracer if traced else None
                start = perf_counter_ns()
                if kind in ("verify", "diagnose"):
                    getattr(self, kind)(platform, coord)
                else:
                    getattr(self, kind)(platform, coord, nonce)
                times[traced] = perf_counter_ns() - start
            self.overhead.append(times[True] / times[False])
        self.tr = tracer

    def corrupt(self, platform: Platform, coord: str, target: str, breach: int, bit: int) -> None:
        """A corrupted node or sibling must be refused and located at its level."""
        honest = platform.tree.node(target)
        platform.tree.set_node(target, Digest(flip_bit(honest.value, bit)))
        try:
            self.expect(not platform.verify_node(coord), f"corrupted {target} verified at {coord}")
            found = platform.diagnose_node(coord)
            self.expect(found is not None and found.level == breach,
                        f"corruption at {target} diagnosed as {found} instead of level {breach}")
        finally:
            platform.tree.set_node(target, honest)

    def persist(self, platform: Platform) -> None:
        """Save and audit the whole log once and load it twice: loads vary most."""
        gc.collect()
        saved = []
        self.timed("save_floors", [platform], lambda p: saved.append(self.save(p)))
        self.last_log = saved[0]
        gc.collect()
        for _ in range(2):
            loaded = []  # freed after timing: dropping 2^(depth+1) nodes is not part of a load
            self.timed("load_floors", [self.last_log], lambda d: loaded.append(self.load(d)))
            self.stats.append(loaded[0].engine.stats)
            del loaded
            gc.collect()
        self.timed("audit_floors", [platform], self.audit,
                   lambda p, bad: self.expect(bad is None, f"honest log audited as bad at {bad!r}"))

    def tamper_check(self, platform: Platform) -> None:
        """Round trip of the last saved log, and the audit of a tampered copy."""
        doc = parse_sml(self.last_log)
        self.expect(doc.tree == platform.tree and doc.root_value == platform.root(),
                    "parse_sml(serialize_sml(t)) differs from t")
        del doc
        coord, bit = self.tamper_plan
        tampered = platform.tree.copy()
        bad = flip_bit(tampered.node(coord).value, bit)
        tampered.set_node(coord, Digest(bad))
        found = find_inconsistency(tampered, platform.root())
        expected = self.ref.first_inconsistency(coord, bad)
        self.expect(found == expected, f"audit of a log tampered at {coord} named {found!r}, scan names {expected!r}")

    def updates(self, platform: Platform, plan) -> None:
        def check(item, result):
            coord, value = item
            expected = self.work_ref.update(coord, value.value)
            self.expect(result is not None and platform.root().value == expected,
                        f"verified update at {coord} ended at another root than the reference")

        for item in plan:
            self.timed("update_floors", [item], lambda it: self.verified_update(platform, *it), check)

    def update_set(self, naive: Platform, bulk: Platform, i: int, span: str, entries: list[NodeRef]) -> None:
        """Apply one dependency-free set naively to one copy and in bulk to the other."""
        for entry in sorted(entries, key=lambda e: e.coord):
            self.set_ref.update(entry.coord, entry.value.value)
        order = (("naive", naive), ("bulk", bulk)) if i % 2 else (("bulk", bulk), ("naive", naive))
        for path, platform in order:
            before = platform.engine.stats.verify_ops
            if path == "naive":
                self.timed("naive_set_floors", [entries], lambda e: self.naive_set(naive, e))
            else:
                if self.tr is not None:
                    self.bulk_probes(entries, span)
                self.timed("bulk_set_floors", [entries], lambda e: apply_update_set_bulk(e, bulk))
            self.verify_ops[path] += platform.engine.stats.verify_ops - before
            self.expect(platform.root().value == self.set_ref.root, f"{path} set {i} ended at another root")
        self.expect(naive.tree == bulk.tree, f"naive and bulk logs differ after set {i}")

    def bulk_probes(self, entries: list[NodeRef], span: str) -> None:
        """The bulk path's own steps, timed on a scratch device."""
        with self.span("updates.find_intrinsic_subsets"):
            subsets = find_intrinsic_subsets(entries, self.spec.depth)
        self.expect(len(subsets) == 1 and subsets[0].span_root == span, f"intrinsic subsets {subsets}")
        values = {e.coord: e.value.value for e in entries}
        h = self.hasher
        expected = h(h(values[span + "00"] + values[span + "01"]).digest()
                     + h(h(values[span + "100"] + values[span + "101"]).digest()
                         + h(values[span + "110"] + values[span + "111"]).digest()).digest()).digest()
        scratch = TreeTpm(8, self.cfg)
        with self.span("updates.scratch_fold"):
            folded = scratch_fold(subsets[0], scratch)
        self.expect(folded.value == expected, "scratch fold differs from the hashlib fold")

    def protocol(self, platform: Platform, i: int, certified: str, submitted: str) -> None:
        """Passive submissions of the sibling, certification, then validations."""
        ref, sca = self.work_ref, self.sca
        self.passive_round(platform, ref, submitted, set(sca.policy.entries))
        sca.mode = REVEALED if i % 2 == 0 else CONCEALED
        old = ref.value(certified)
        credentials = []
        before = self.wire_counts()
        self.timed(f"certify_floors/{sca.mode}", [certified],
                   lambda c: credentials.append(self.certify(platform, self.client, sca, c)))
        if self.channel:
            sent, frames = self.wire_counts()
            self.wire["bytes"] += sent - before[0]
            self.wire["frames"] += frames - before[1]
            self.wire["certs"] += 1
        self.check_credential(platform, credentials[0], certified, old, ref)
        self.validations(platform, credentials[0])

    def wire_counts(self) -> tuple[int, int]:
        if not self.channel:
            return 0, 0
        return self.channel[0].sent + self.channel[0].received, self.channel[0].frames

    def passive_round(self, platform: Platform, ref: ReferenceTree, submitted: str, wanted: set) -> None:
        if self.tr is None:
            sub = extract_subtree(platform.tree, submitted)
        else:
            with self.span("tree.extract_subtree"):
                sub = extract_subtree(platform.tree, submitted)
        root = NodeRef(submitted, Digest(ref.value(submitted)))
        blob = serialize_sml(sub)
        brute = ref.maximal_matches(submitted, wanted)
        quotes = [platform.quote_node(submitted, self.client.issue_nonce()) for _ in range(self.spec.passives)]

        def check(quote, result):
            self.expect(result.status == OK and len(result.certificates) == brute,
                        f"passive discovery at {submitted}: {result.status}, "
                        f"{len(result.certificates)} certificates, brute force finds {brute}")

        self.timed("passive_floors", quotes, lambda q: self.passive(self.client, root, blob, q), check)
        if self.tr is not None:
            quote = platform.quote_node(submitted, self.sca.issue_nonce())
            with self.span("discovery.passive_discover"):
                direct = passive_discover(self.sca, root, sub, quote=quote, aik_pub=self.aik.public)
            self.expect(len(direct.certificates) == brute, "direct passive discovery count differs")

    def validations(self, platform: Platform, credential: SubtreeCredential) -> None:
        """Fresh-nonce validations must accept; an earlier nonce must be refused as stale."""
        nonces = [self.rng.randbytes(16) for _ in range(self.spec.validations)]
        bundles = []

        def check(nonce, result):
            bundle, verdict = result
            bundles.append(bundle)
            self.expect(verdict.accepted, f"validation of {credential.coord} refused: {verdict.reason}")

        self.timed(f"validate_floors/{credential.certificate.mode}", nonces,
                   lambda n: self.validate(platform, credential, self.sca.public, n), check)
        stale = validate_subtree(bundles[-1], self.sca.public, nonces[0], config=self.cfg)
        self.expect(not stale.accepted and stale.reason == "freshness", f"stale nonce gave {stale.reason}")

    def check_credential(self, platform, credential, coord: str, old: bytes, ref: ReferenceTree) -> None:
        h = self.hasher
        manifest = credential.manifest
        subject = old if credential.certificate.mode == REVEALED else h(old).digest()
        self.expect(manifest.subject.value == subject, f"manifest subject at {coord} is wrong")
        m_cert = h(credential.certificate.to_bytes()).digest()
        m_manifest = h(manifest.to_bytes()).digest()
        bound = h(h(m_cert + m_manifest).digest() + old).digest()
        self.expect(platform.tree.node(coord).value == bound, f"bound node at {coord} is wrong")
        for suffix, value in (("00", m_cert), ("01", m_manifest), ("1", old)):
            ref.update(coord + suffix, value)
        self.expect(platform.root().value == ref.root, f"root after binding {coord} differs")

    # -- the whole run -----------------------------------------------------
