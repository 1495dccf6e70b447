"""Backend comparison benchmark: drange vs. quac on one device.

Every registered :class:`~repro.backends.base.TrngBackend` runs the
same protocol on the same seeded device — characterize, compile,
sample — and the benchmark reports five axes per backend:

* **throughput** — the compiled plan's modeled sustained rate
  (DRAM-time, from the :class:`~repro.sim.engine.TimingEngine` command
  replay — not wall clock, which measures the simulator, not the
  mechanism);
* **host throughput** — host wall-clock rate of ``sample`` on this
  machine: the median of repeated 64 Kib requests into one reused
  ``out=`` buffer.  It measures the simulator's code, is recorded next
  to the modeled figure under its own name, and is never gated;
* **latency** — modeled DRAM time to serve one 64-bit request at that
  rate;
* **NIST pass rate** — fraction of applicable suite tests passed on a
  sampled stream;
* **energy** — net nJ per output bit from a
  :class:`~repro.power.model.PowerModel` accounting of the iteration
  command trace under LPDDR4 currents.

Acceptance gate (all modes): the QUAC backend's modeled throughput
must be at least ``2x`` the D-RaNGe backend's — the refactor exists to
host a faster mechanism, and this gate pins that it actually is one.

Two entry points:

* ``pytest benchmarks/bench_backends.py --benchmark-only``;
* ``python benchmarks/bench_backends.py [--quick]`` — standalone
  runner that writes ``BENCH_backends.json`` (the README comparison
  table is generated from it); ``--quick`` is the CI smoke mode
  (fewer NIST bits, same gate).
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.backends import available_backends, create_backend
from repro.core.profiling import Region
from repro.dram.device import DeviceFactory
from repro.nist.suite import run_suite
from repro.power.idd import LPDDR4_IDD
from repro.power.model import PowerModel
from repro.sim.engine import TimingEngine

MASTER_SEED = 2019
NOISE_SEED = 7
REGION_BANKS = (0, 1)
REGION_ROWS = 64
NIST_BITS_FULL = 262_144
NIST_BITS_QUICK = 32_768
QUAC_MIN_SPEEDUP = 2.0
HOST_SAMPLE_BITS = 1 << 16
HOST_SAMPLE_REPEATS_FULL = 15
HOST_SAMPLE_REPEATS_QUICK = 5


def _device():
    factory = DeviceFactory(master_seed=MASTER_SEED, noise_seed=NOISE_SEED)
    return factory.make_device("A", 0)


def _alg2_trace(timings, num_banks, trcd_ns, iterations):
    """Replay ``iterations`` Algorithm 2 iterations; return the engine.

    Same pipelined schedule as
    :func:`repro.core.throughput.alg2_iteration_time_ns`, kept whole
    (no warmup discard) so the trace and the bit count cover the same
    window for energy attribution.
    """
    engine = TimingEngine(timings, banks=num_banks)
    for bank in range(num_banks):
        engine.activate(bank, 0)
    for i in range(2 * iterations):
        for bank in range(num_banks):
            engine.read(bank, trcd_ns=trcd_ns)
        for bank in range(num_banks):
            engine.write(bank)
        for bank in range(num_banks):
            engine.precharge(bank)
        for bank in range(num_banks):
            engine.activate(bank, (i + 1) % 2)
    return engine


def _energy_nj_per_bit(device, backend_name, plan, iterations=8):
    """Net energy per output bit over an iteration command replay."""
    if backend_name == "quac":
        from repro.backends.quac import quac_iteration_trace

        engine = quac_iteration_trace(
            device.timings,
            num_banks=len(plan.profile.sites),
            words_per_row=device.geometry.words_per_row,
            iterations=iterations,
        )
    else:
        engine = _alg2_trace(
            device.timings,
            num_banks=max(len(plan.bank_plans), 1),
            trcd_ns=plan.profile.trcd_ns,
            iterations=iterations,
        )
    bits = plan.bits_per_iteration * iterations
    model = PowerModel(LPDDR4_IDD, device.timings)
    return model.energy_per_bit(engine.trace, bits=bits) * 1e9


def _host_sample_mbps(backend, plan, repeats):
    """Host wall-clock ``sample`` throughput in Mb/s (median of repeats).

    One untimed request first, so plan-resident caches and the
    allocator are warm, as in a serving process.
    """
    out = np.empty(HOST_SAMPLE_BITS, dtype=np.uint8)
    backend.sample(plan, out.size, out=out)
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        backend.sample(plan, out.size, out=out)
        seconds.append(time.perf_counter() - start)
    return out.size / statistics.median(seconds) / 1e6


def _bench_backend(name, nist_bits, host_repeats):
    device = _device()
    backend = create_backend(name)
    region = Region(banks=REGION_BANKS, row_start=0, row_count=REGION_ROWS)
    profile = backend.characterize(device, region=region)
    plan = backend.compile_plan(profile)
    bits = backend.sample(plan, nist_bits)
    report = run_suite(bits)
    passed = sum(1 for r in report.results if r.passed)
    total = len(report.results)
    throughput = plan.throughput_mbps
    return {
        "backend": name,
        "sites": len(profile.cells),
        "bits_per_iteration": int(plan.bits_per_iteration),
        "iteration_ns": round(plan.iteration_ns, 1),
        "throughput_mbps": round(throughput, 1),
        "host_sample_mbps": round(
            _host_sample_mbps(backend, plan, host_repeats), 1
        ),
        "latency_64bit_ns": round(64.0 * 1e3 / throughput, 1)
        if throughput
        else None,
        "nist_passed": passed,
        "nist_total": total,
        "nist_pass_rate": round(passed / total, 4) if total else 0.0,
        "nist_bits": int(bits.size),
        "energy_nj_per_bit": round(
            _energy_nj_per_bit(device, name, plan), 4
        ),
    }


def run(quick=False):
    nist_bits = NIST_BITS_QUICK if quick else NIST_BITS_FULL
    host_repeats = HOST_SAMPLE_REPEATS_QUICK if quick else HOST_SAMPLE_REPEATS_FULL
    backends = {
        name: _bench_backend(name, nist_bits, host_repeats)
        for name in available_backends()
    }
    speedup = None
    if "drange" in backends and "quac" in backends:
        base = backends["drange"]["throughput_mbps"]
        if base:
            speedup = round(backends["quac"]["throughput_mbps"] / base, 2)
    return {
        "quick": bool(quick),
        "master_seed": MASTER_SEED,
        "noise_seed": NOISE_SEED,
        "region_banks": list(REGION_BANKS),
        "region_rows": REGION_ROWS,
        "quac_speedup_over_drange": speedup,
        "backends": backends,
    }


def _format(results):
    lines = [
        "backend comparison, seeded device A-00000 (modeled DRAM time;"
        " host Mb/s is wall clock on this machine):",
        f"  {'backend':<9}{'sites':>6}{'b/iter':>8}{'Mb/s':>10}"
        f"{'ns/64b':>9}{'NIST':>8}{'nJ/bit':>9}{'host Mb/s':>11}",
    ]
    for name in sorted(results["backends"]):
        row = results["backends"][name]
        lines.append(
            f"  {name:<9}{row['sites']:>6}{row['bits_per_iteration']:>8}"
            f"{row['throughput_mbps']:>10.1f}{row['latency_64bit_ns']:>9.1f}"
            f"{row['nist_passed']:>4}/{row['nist_total']:<3}"
            f"{row['energy_nj_per_bit']:>9.3f}"
            f"{row['host_sample_mbps']:>11.1f}"
        )
    if results["quac_speedup_over_drange"] is not None:
        lines.append(
            f"  quac speedup over drange: "
            f"{results['quac_speedup_over_drange']:.1f}x "
            f"(gate: >= {QUAC_MIN_SPEEDUP:.0f}x)"
        )
    return "\n".join(lines)


def _enforce_gates(results):
    """QUAC must beat the default mechanism by the promised margin."""
    failures = []
    speedup = results["quac_speedup_over_drange"]
    if speedup is None:
        failures.append("missing drange/quac results; cannot check speedup")
    elif speedup < QUAC_MIN_SPEEDUP:
        failures.append(
            f"quac throughput only {speedup:.2f}x drange, below the "
            f"{QUAC_MIN_SPEEDUP:.0f}x gate"
        )
    for name, row in results["backends"].items():
        if row["nist_total"] and row["nist_passed"] < row["nist_total"]:
            failures.append(
                f"{name}: {row['nist_total'] - row['nist_passed']} NIST "
                f"test(s) failed"
            )
    return failures


def test_backend_comparison(benchmark, emit):
    results = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    emit(_format(results))
    assert not _enforce_gates(results)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer NIST bits, same throughput gate",
    )
    parser.add_argument(
        "--output", default="BENCH_backends.json", help="result file path"
    )
    args = parser.parse_args()

    results = run(quick=args.quick)
    print(_format(results))
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failures = _enforce_gates(results)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    print("gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
