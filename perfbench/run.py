"""Serving-stack benchmark: one closed-loop workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-drange --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` serves the same work twice on two identical stacks, first
untraced and then with every layer's public calls wrapped in spans, and
prints the per-layer metrics of the traced pass; the spans and the
per-layer table are written under ``.perfbench/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The output
checks (request sizes, NIST monobit and runs on a served prefix, the
modeled throughput, the recorded robustness counts) set ``correct``;
the exit code is 1 when one of them fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import statistics
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run outputs (spans and per-layer tables), relative to the cwd.
OUTPUT_DIR = ".perfbench"

#: The seed the recorded values were taken with, and a seed kept out
#: of all tuning: only ever run to confirm a result.  No workload draws
#: anything from the seed today (``workloads.py``).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20191
#: SP 800-22 monobit and runs must pass at the paper's level over each
#: workload's ``nist_gate_bits``.  The first 2^20 bits are tested and
#: printed on every run as well.
NIST_ALPHA = 1e-4

#: What each end-to-end figure measures: time on this host's clock, the
#: simulator's DRAM-time model, or a host count.
LABELS = {
    "throughput_mbps": "host wall-clock",
    "ok_ratio": "host count",
    "setup_s": "host wall-clock",
    "modeled_mbps": "modeled DRAM time",
    "peak_rss_mb": "host memory",
}


#: glibc ``mallopt`` parameters, and the values they are pinned at: the
#: largest mmap threshold glibc's own heuristic adapts to on 64-bit, and
#: twice it for the trim threshold, as the heuristic sets them.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20


def _pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds for the whole run.

    glibc starts at a 128 KiB mmap threshold and raises it the first
    time the process frees a large mmapped block.  Until then every
    large numpy temporary is mapped fresh and page-faulted in: in one
    process, a first bulk-quac pass took ~2400 minor faults per request
    and served 7.1 Mb/s, the passes after it ~0 faults and 14.9 Mb/s.
    Which state the timed phase meets would depend on what ran before
    it.  Pinning the adapted state, that of a long-running process,
    makes every run start alike.  False where ``mallopt`` is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)
    )


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _nist(bits: Any) -> Dict[str, float]:
    """P-values of SP 800-22 monobit and runs over ``bits``."""
    from repro.nist.frequency import monobit
    from repro.nist.runs import runs

    if bits.size < 100:
        return {"monobit": 0.0, "runs": 0.0}
    return {result.name: result.p_value for result in (monobit(bits), runs(bits))}


def _timed_pass(
    workload: Any, stack: Any, requests: int
) -> Tuple[Any, int, Optional[Dict[str, int]]]:
    """Serve ``requests``, then take the robustness counts."""
    from workloads import count_position, counts_at, serve

    served = serve(stack, workload.request_bits, requests)
    position = count_position(workload, stack, served.bits)
    return served, position, counts_at(stack, position)


def _count_problems(
    workload: Any, stack: Any, served: Any, counts: Optional[Dict[str, int]], seconds: float
) -> List[str]:
    """Checks of the robustness counts one timed pass took."""
    from workloads import RECORDED_SECONDS, quarantine_allowance

    problems = []
    quarantines = stack.buffered.pool.events.count("pool_quarantine")
    if quarantines > quarantine_allowance(served.bits):
        problems.append(
            f"{quarantines} pool quarantines, more than the count position allows for"
        )
    if counts is None:
        problems.append("the service ran past the count position: no counts")
    elif seconds == RECORDED_SECONDS:
        recorded = dict(zip(("alarms", "recoveries", "bits_discarded"), workload.recorded_counts))
        if counts != recorded:
            problems.append(f"counts {counts} != recorded {recorded}")
    return problems


def _traced_pass(workload: Any, stack: Any, requests: int, untraced: Any) -> Tuple[Any, ...]:
    """Serve ``requests`` again with every layer wrapped in spans."""
    from spans import Tracer, instrument

    tracer = Tracer()
    restore = instrument(tracer)
    try:
        traced, _, counts = _timed_pass(workload, stack, requests)
    finally:
        restore()
    metrics, report, columns = _per_layer(
        tracer,
        (traced.begin_ns, traced.end_ns),
        traced,
        counts,
        untraced.throughput_mbps / traced.throughput_mbps,
    )
    return traced, report, columns, metrics


def _per_layer(
    tracer: Any,
    window: Tuple[int, int],
    served: Any,
    counts: Optional[Dict[str, int]],
    overhead: float,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any], Dict[str, Any]]:
    """Per-layer metrics, the per-layer report and the span columns."""
    from spans import layer_table

    columns = tracer.columns()
    caller = tracer.thread_number(threading.get_ident())
    table = layer_table(columns, window, caller)
    wall_ns = window[1] - window[0]

    def self_ns(layer: str) -> int:
        return table[layer]["caller_self_ns"] + table[layer]["other_self_ns"]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    requests = served.requests
    kernel_bits = table["core.sampler"]["bits"] + table["backends.quac"]["bits"]
    report = {"counts": counts}
    counts = counts or {"alarms": -1, "recoveries": -1, "bits_discarded": -1}
    metrics = {
        "noise.calls": _metric(table["noise"]["calls"], "count"),
        "noise.us_per_call": _metric(
            per(self_ns("noise") / 1e3, table["noise"]["calls"]), "us"
        ),
        "noise.ns_per_bit": _metric(per(self_ns("noise"), table["noise"]["bits"]), "ns/bit"),
        "core.sampler.calls": _metric(table["core.sampler"]["calls"], "count"),
        "core.sampler.us_per_call": _metric(
            per(self_ns("core.sampler") / 1e3, table["core.sampler"]["calls"]), "us"
        ),
        "core.sampler.ns_per_bit": _metric(
            per(self_ns("core.sampler"), table["core.sampler"]["bits"]), "ns/bit"
        ),
        "backends.quac.self_ms": _metric(self_ns("backends.quac") / 1e6, "ms"),
        "postprocess.ns_per_bit": _metric(
            per(self_ns("postprocess"), table["postprocess"]["bits"]), "ns/bit"
        ),
        "health.calls": _metric(table["health"]["calls"], "count"),
        "health.us_per_call": _metric(
            per(self_ns("health") / 1e3, table["health"]["calls"]), "us"
        ),
        "health.ns_per_bit": _metric(per(self_ns("health"), table["health"]["bits"]), "ns/bit"),
        "health.alarms": _metric(counts["alarms"], "count"),
        "core.integration.self_ms": _metric(self_ns("core.integration") / 1e6, "ms"),
        "core.integration.recoveries": _metric(counts["recoveries"], "count"),
        "core.integration.bits_discarded": _metric(counts["bits_discarded"], "bits"),
        "core.drange.prepare_ms": _metric(self_ns("core.drange.prepare") / 1e6, "ms"),
        "serving.pool.take_ms": _metric(table["serving.pool.take"]["caller_ns"] / 1e6, "ms"),
        "serving.pool.refill_ms": _metric(
            table["serving.pool.refill"]["other_ns"] / 1e6, "ms"
        ),
        "serving.admission.us_per_request": _metric(
            per(self_ns("serving.admission") / 1e3, requests), "us/request"
        ),
        "serving.service.us_per_request": _metric(
            per(self_ns("serving.service") / 1e3, requests), "us/request"
        ),
        "harvest_yield": _metric(
            per(served.bits, kernel_bits - served.buffered_gain), "ratio"
        ),
        "trace_overhead": _metric(overhead, "ratio"),
    }
    caller_self = sum(row["caller_self_ns"] for row in table.values())
    report.update({
        "wall_ms": wall_ns / 1e6,
        "caller_self_ms": caller_self / 1e6,
        "layers": {
            layer: {
                "calls": row["calls"],
                "bits": row["bits"],
                "caller_self_ms": row["caller_self_ns"] / 1e6,
                "refill_self_ms": row["other_self_ns"] / 1e6,
                "self_share_of_wall": (row["caller_self_ns"] + row["other_self_ns"]) / wall_ns,
            }
            for layer, row in table.items()
        },
    })
    return metrics, report, columns


def _print_table(report: Dict[str, Any]) -> None:
    print(f"per-layer self time over {report['wall_ms']:.1f} ms of host wall-clock time:")
    print(f"  {'layer':<22}{'calls':>10}{'caller ms':>12}{'refill ms':>12}{'share':>8}")
    for layer, row in report["layers"].items():
        print(
            f"  {layer:<22}{row['calls']:>10}{row['caller_self_ms']:>12.1f}"
            f"{row['refill_self_ms']:>12.1f}{row['self_share_of_wall']:>8.1%}"
        )


def run(workload_name: str, seed: int, seconds: float, trace: bool, pinned: bool) -> int:
    from workloads import SETUP_SAMPLES, WORKLOADS, set_up

    workload = WORKLOADS[workload_name]
    requests = workload.requests(seconds)
    problems: List[str] = []
    # One stack is alive at a time, and dropped stacks are collected
    # after every set-up sample: a stopped stack still in memory makes
    # every later garbage collection walk its device model too, and
    # moves the peak resident memory.
    stack = None

    def rebuild() -> float:
        nonlocal stack
        if stack is not None:
            stack.stop()
            stack = None
        elapsed, stack = set_up(workload)
        return elapsed

    try:
        # The first set-up in a process also imports the backend registry
        # (and SciPy through it); it is printed, not part of setup_s.
        cold = rebuild()
        setup_times: List[float] = []
        # Each sample is the mean of a batch of back-to-back set-ups.  The
        # middle sample's last stack serves the timed phase: the samples
        # before and after it sample the host over the whole run.
        for index in range(SETUP_SAMPLES):
            total = sum(rebuild() for _ in range(workload.setup_batch))
            setup_times.append(total / workload.setup_batch)
            gc.collect()
            if index == SETUP_SAMPLES // 2:
                modeled = stack.drange.estimated_throughput_mbps()
                served, position, counts = _timed_pass(workload, stack, requests)
                problems += _count_problems(workload, stack, served, counts, seconds)
        if trace:
            rebuild()
            gc.collect()
            traced, report, columns, metrics = _traced_pass(workload, stack, requests, served)
            problems += _count_problems(workload, stack, traced, report["counts"], seconds)
    finally:
        if stack is not None:
            stack.stop()

    attempted, failed = served.requests, served.failed
    if served.wrong_size:
        problems.append(f"{served.wrong_size} requests returned the wrong size")
    gate_bits = workload.nist_gate_bits
    gated = _nist(served.prefix[:gate_bits])
    if min(gated.values()) < NIST_ALPHA:
        problems.append(f"NIST monobit/runs failed on the first {gate_bits} bits: {gated}")
    if modeled != workload.modeled_mbps:
        problems.append(f"modeled_mbps {modeled!r} != recorded {workload.modeled_mbps!r}")

    if trace:
        from spans import write_trace

        attempted += traced.requests
        failed += traced.failed
        if traced.wrong_size:
            problems.append(f"{traced.wrong_size} traced requests returned the wrong size")
        if report["counts"] != counts:
            problems.append(f"traced counts {report['counts']} != untraced counts {counts}")
        if report["caller_self_ms"] > report["wall_ms"]:
            problems.append("caller-thread self times exceed the wall time")
        paths = write_trace(OUTPUT_DIR, f"trace-{workload.name}-seed{seed}", columns, report)
        _print_table(report)
        print(f"spans: {paths[0]}  table: {paths[1]}")
    else:
        metrics = {
            "throughput_mbps": _metric(served.throughput_mbps, "Mb/s"),
            "ok_ratio": _metric(served.ok / served.requests, "ratio"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "modeled_mbps": _metric(modeled, "Mb/s"),
            "peak_rss_mb": _metric(served.peak_rss_mb, "MB"),
        }
        for name, metric in metrics.items():
            print(f"{name:<16} {metric['value']:>14.6g} {metric['unit']:<6} ({LABELS[name]})")
        # Reported, not bounded: on the bulk workloads these move by ~30%
        # between runs with the host's speed (README.md).
        for percentile in (50, 99):
            name = f"latency_p{percentile}_ms"
            print(f"{name:<16} {served.latency_ms(percentile):>14.6g} {'ms':<6} (host wall-clock, "
                  f"caller-timed over {served.requests} requests; not bounded)")

    packed = np.packbits(served.prefix).tobytes()
    print(f"workload {workload.name}, seed {seed}: {served.requests} requests, "
          f"{served.bits} bits served; closed loop, 1 caller")
    print(f"set-up samples: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(f"first set-up in the process: {cold:.3f} s; "
          f"malloc thresholds {'pinned' if pinned else 'glibc default (mallopt missing)'}")
    print(f"served-stream sha256 over the first {served.prefix.size} bits: "
          f"{hashlib.sha256(packed).hexdigest()}")
    print(f"counts at service-stream position {position}: {counts}")
    print(f"NIST monobit/runs, first {gate_bits} bits (gated): {gated}")
    print(f"NIST monobit/runs, first {served.prefix.size} bits (reported only): "
          f"{_nist(served.prefix)}; ones ratio {served.prefix.mean():.5f}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"the package sources are missing: no {os.path.join(SRC, 'repro')}")
    pinned = _pin_allocator()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), pinned)


if __name__ == "__main__":
    sys.exit(main())
