"""treepcr benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload attest-d16 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory and nowhere else. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run and writes
its spans to ``perfbench/out/``. Times are in floors (see timing.py);
raw milliseconds are printed above the result line for reference only.
"""

from time import CLOCK_BOOTTIME, clock_gettime, perf_counter, perf_counter_ns

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from hashlib import sha1  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "build_floors_per_leaf": "floors",
    "verify_floors": "floors",
    "quote_floors": "floors",
    "update_floors": "floors",
    "naive_set_floors": "floors",
    "bulk_set_floors": "floors",
    "save_floors": "floors",
    "load_floors": "floors",
    "audit_floors": "floors",
    "certify_floors": "floors",
    "validate_floors": "floors",
    "passive_floors": "floors",
}

#: per-layer span metrics, in floors
SPANS = (
    "crypto.extend", "crypto.check", "crypto.sign", "crypto.verify",
    "tree.build_reduced_tree", "tree.set_node", "tree.serialize_sml", "tree.parse_sml",
    "tree.find_inconsistency", "tree.extract_subtree",
    "engine.tree_extend", "engine.reduced_tree_verify", "engine.tree_node_verify",
    "engine.tree_node_quote", "engine.reduced_tree_quote", "engine.tree_node_verified_update",
    "platform.extend", "platform.apply_update", "platform.from_document",
    "updates.find_intrinsic_subsets", "updates.scratch_fold",
    "certification.build_attestation_package", "certification.binding_update_set",
    "sca.verify_and_issue", "discovery.passive_discover",
    "validator.validate_subtree", "protocol.make_validation_bundle",
    "wire.nonce_roundtrip", "wire.attest_roundtrip", "wire.passive_roundtrip",
    "encoding.pack_fields", "encoding.unpack_fields",
)


def process_age() -> float:
    """Seconds since this process started, from the kernel's record when readable."""
    try:
        stat = Path("/proc/self/stat").read_text()
        ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return clock_gettime(CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return perf_counter() - _STARTED


def pin_to_one_cpu() -> None:
    """Keep the run, and the authority's threads, on the fastest processor.

    A floor measured on one core says nothing about an operation that the
    scheduler moved to another, and the cores of a shared machine do not
    run at the same speed at the same time: each allowed core gets a short
    hash block, and the run stays on the one that ran it fastest.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    speeds = []
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds.append((hash_block_ns(), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def hash_block_ns() -> int:
    a, b = b"a" * 20, b"b" * 20
    best = None
    for _ in range(5):
        start = perf_counter_ns()
        for _ in range(400):
            sha1(a + b).digest()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def import_package():
    """Import treepcr from this checkout's src directory, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "treepcr" / "__init__.py").is_file():
        print(f"benchmark: no treepcr package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import treepcr

    if Path(treepcr.__file__).resolve().parent != (src / "treepcr").resolve():
        print(f"benchmark: imported treepcr from {treepcr.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def end_to_end(run, setup_s: float) -> dict[str, float]:
    """Medians of the samples; a metric sampled per certificate mode is the mean
    of the two modes' medians, which run in equal shares and cost differently."""
    values = {"setup_s": setup_s}
    for name in END_TO_END:
        parts = [s for key, s in run.samples.items() if key.split("/")[0] == name]
        if parts:
            values[name] = statistics.fmean(statistics.median(p) for p in parts)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def per_layer(run) -> dict[str, tuple[float, str]]:
    tracer = run.tr
    out = {"crypto.floor_ns": (statistics.median(run.floor.history), "ns")}
    for name in SPANS:
        out[name] = (statistics.median(tracer.samples[name]), "floors")
    totals = {field: sum(getattr(s, field) for s in run.stats)
              for field in ("commands", "verify_ops", "extend_ops", "update_ops", "quote_ops")}
    ops = totals["verify_ops"] + totals["extend_ops"] + totals["update_ops"] + totals["quote_ops"]
    out["engine.commands_per_op"] = (totals["commands"] / ops, "cmd/op")
    for field in ("verify_ops", "extend_ops", "update_ops"):
        out[f"engine.{field}"] = (totals[field], "count")
    out["updates.naive_verify_ops"] = (run.verify_ops["naive"], "count")
    out["updates.bulk_verify_ops"] = (run.verify_ops["bulk"], "count")
    out["wire.bytes_per_certify"] = (run.wire["bytes"] / run.wire["certs"], "bytes")
    out["wire.frames_per_certify"] = (run.wire["frames"] / run.wire["certs"], "count")
    out["trace.overhead_pct"] = (100 * (statistics.median(run.overhead) - 1), "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pin_to_one_cpu()
    import_package()
    from timing import Tracer
    from workloads import WORKLOADS, Run, scaled

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = scaled(WORKLOADS[args.workload], args.seconds)
    run = Run(spec, args.seed, Tracer() if args.trace else None)
    run.setup()
    try:
        setup_s = process_age()
        run.execute()
    finally:
        run.close()

    if args.trace:
        metrics = per_layer(run)
        path = HERE / "out" / f"trace-{spec.name}-seed{args.seed}.json.gz"
        run.tr.write(path, run.floor.history)
        print(f"spans: {len(run.tr.records) // 5} written to {path.relative_to(ROOT)}")
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end(run, setup_s).items()}
        for name, times in sorted(run.raw_ns.items()):
            print(f"reference {name}: median {statistics.median(times) / 1e6:.4f} ms over {len(times)}")
        print(f"reference floor: median {statistics.median(run.floor.history):.1f} ns over {len(run.floor.history)}")
    for failure in run.failures[:20]:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
