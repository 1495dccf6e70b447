"""The benchmark's workloads and the closed-loop caller that drives them.

Every workload runs the deployed serving stack

    BufferedRngService -> EntropyPool -> DRangeService -> backend

on one modeled DIMM: device A/0 of ``DeviceFactory(master_seed=2019,
noise_seed=20190216)``, RNG cells identified over banks 0-1 x 256 rows.
The DIMM and its noise stream are part of the system under test, fixed
in every run: the health alarms and recoveries then fall at the same
positions of the harvested stream in every run, so their cost does
not vary from run to run.  Each workload has one request size, so the
seed changes nothing: every seed serves the same work.

One caller, closed loop: it issues its next request when the previous
one returns, into a reused buffer (``out=``).  The pool's background
refill thread is on, so the process runs two threads.  A run serves a
fixed number of requests, ``round(seconds * nominal_rate)``: the rate
is a constant per workload, never calibrated per run.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.drange import DRange
from repro.core.integration import DRangeService
from repro.core.profiling import Region
from repro.dram.device import DeviceFactory
from repro.errors import ReproError
from repro.health import HealthMonitor
from repro.serving import BufferedRngService

MASTER_SEED = 2019
NOISE_SEED = 20190216
REGION = Region(banks=(0, 1), row_start=0, row_count=256)

#: Bulk configuration of ``benchmarks/bench_service.py``: 64 Kib
#: harvests into a 2^17-bit service queue and a 2^18-bit pool.
BULK_SERVICE = {"queue_bits": 1 << 17, "refill_batch_bits": 1 << 16}
BULK_POOL = {"capacity_bits": 1 << 18, "refill_batch_bits": 1 << 16}

#: A request that waits longer than this is shed and counted as failed.
DEADLINE_S = 10.0

#: Served-stream prefix kept for the output checks and the digest.
PREFIX_BITS = 1 << 20

#: ``setup_s`` is the median of this many set-up samples per run.
SETUP_SAMPLES = 5

#: ``--seconds`` the recorded robustness counts were taken at.
RECORDED_SECONDS = 15.0

#: Fewest service-stream bits between two pool quarantines that
#: :func:`count_position` allows for: a quarter of the densest alarm
#: spacing measured (one alarm per ~19 Mb on bulk-drange).
QUARANTINE_SPACING_BITS = 1 << 22

KIB = 1024


@dataclass(frozen=True)
class Workload:
    """One traffic shape over one backend and stack configuration."""

    name: str
    backend: str
    bulk: bool
    request_bits: int
    #: Requests served per ``--seconds`` (fixed work, not fixed time).
    nominal_rate: float
    #: ``DRange.estimated_throughput_mbps()`` of the prepared DIMM.
    modeled_mbps: float
    #: Served-prefix length that SP 800-22 monobit and runs must pass.
    nist_gate_bits: int
    #: ``alarms``, ``recoveries`` and ``bits_discarded`` of a run at
    #: :data:`RECORDED_SECONDS` (:func:`counts_at`).  The DIMM is fixed,
    #: so they hold for every seed; a change to the harvested stream
    #: must record them again.
    recorded_counts: Tuple[int, int, int]
    #: Stacks built back to back per set-up sample.  A QUAC set-up has
    #: no identification pass and takes ~10-18 ms against ~1 s for
    #: D-RaNGe, too short to time steadily one at a time.
    setup_batch: int = 1

    def requests(self, seconds: float) -> int:
        return max(1, round(seconds * self.nominal_rate))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk-drange",
            backend="drange",
            bulk=True,
            request_bits=64 * KIB,
            nominal_rate=800.0,
            modeled_mbps=68.57142857142858,
            # The D-RaNGe stream fails monobit at 2^20 bits (README.md,
            # known defect); its gate moves to 2^20 with that fix.
            nist_gate_bits=1 << 16,
            recorded_counts=(43, 43, 2863104),
        ),
        Workload(
            name="small-64b",
            backend="drange",
            bulk=False,
            request_bits=64,
            nominal_rate=26_000.0,
            modeled_mbps=68.57142857142858,
            nist_gate_bits=1 << 16,
            recorded_counts=(0, 0, 1024),
        ),
        Workload(
            name="bulk-quac",
            backend="quac",
            bulk=True,
            request_bits=64 * KIB,
            nominal_rate=240.0,
            modeled_mbps=2460.06006006006,
            nist_gate_bits=PREFIX_BITS,
            recorded_counts=(12, 12, 799744),
            setup_batch=32,
        ),
    )
}


@dataclass
class Stack:
    """One deployed serving stack over a freshly built device."""

    drange: DRange
    service: DRangeService
    buffered: BufferedRngService

    def stop(self) -> None:
        self.buffered.stop()

    def buffered_bits(self) -> int:
        """Harvested bits not yet served: pool level plus service queue."""
        return self.buffered.pool.level + self.service.queue_level


def set_up(workload: Workload) -> Tuple[float, Stack]:
    """Build and start a stack; seconds from device build to first bit.

    Covers ``DRange.prepare``, service construction, the pool's
    precharge (which runs the startup health test) and one request.
    """
    start = time.perf_counter()
    device = DeviceFactory(master_seed=MASTER_SEED, noise_seed=NOISE_SEED).make_device("A", 0)
    drange = DRange(device, backend=workload.backend)
    if not drange.prepare(region=REGION, iterations=100):
        raise RuntimeError("no RNG cells identified")
    service = DRangeService(
        health_monitor=HealthMonitor(),
        drange=drange,
        **(BULK_SERVICE if workload.bulk else {}),
    )
    buffered = BufferedRngService(
        service,
        clock=time.monotonic,
        default_deadline_s=DEADLINE_S,
        **(BULK_POOL if workload.bulk else {}),
    )
    stack = Stack(drange, service, buffered)
    try:
        buffered.start()
        first = np.empty(workload.request_bits, dtype=np.uint8)
        buffered.request(first.size, out=first)
    except BaseException:
        stack.stop()
        raise
    return time.perf_counter() - start, stack


@dataclass
class Served:
    """What the caller saw over one timed phase."""

    requests: int
    ok: int
    failed: int
    wrong_size: int
    bits: int
    begin_ns: int
    end_ns: int
    latency_ns: np.ndarray
    prefix: np.ndarray
    #: Bits buffered in the pool and the service queue when the timed
    #: phase ended, minus when it began.
    buffered_gain: int
    #: Peak resident memory of the process when the timed phase ended.
    peak_rss_mb: float

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.begin_ns

    @property
    def throughput_mbps(self) -> float:
        return self.bits / self.wall_ns * 1e3

    def latency_ms(self, percentile: float) -> float:
        """``percentile`` of request latency as the caller timed it."""
        return float(np.percentile(self.latency_ns, percentile)) / 1e6


def serve(stack: Stack, size: int, count: int) -> Served:
    """Closed loop: one caller, each request issued when the last returns.

    Every request lands zero-copy (``out=``) in one reused caller
    buffer; the first :data:`PREFIX_BITS` served bits are kept for the
    output checks.
    """
    request = stack.buffered.request
    clock = time.perf_counter_ns
    out = np.empty(size, dtype=np.uint8)
    prefix = np.empty(PREFIX_BITS, dtype=np.uint8)
    kept = 0
    latency = np.empty(count, dtype=np.int64)
    ok = failed = wrong = bits = 0
    buffered_begin = stack.buffered_bits()
    begin = clock()
    for index in range(count):
        sent = clock()
        try:
            result = request(size, out=out)
        except ReproError:
            latency[index] = clock() - sent
            failed += 1
            continue
        latency[index] = clock() - sent
        if result.bits is not out or result.bits.size != size:
            wrong += 1
            failed += 1
            continue
        if result.source == "pool" and not result.degraded:
            ok += 1
        bits += size
        if kept < PREFIX_BITS:
            take = min(size, PREFIX_BITS - kept)
            prefix[kept : kept + take] = out[:take]
            kept += take
    end = clock()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    buffered_end = stack.buffered_bits()
    return Served(
        requests=count,
        ok=ok,
        failed=failed,
        wrong_size=wrong,
        bits=bits,
        begin_ns=begin,
        end_ns=end,
        latency_ns=latency,
        prefix=prefix[:kept],
        buffered_gain=buffered_end - buffered_begin,
        peak_rss_mb=peak_rss_kib * 1024 / 1e6,
    )


def counts_at(stack: Stack, position: int) -> Optional[Dict[str, int]]:
    """Robustness counts once the service has output ``position`` bits.

    Alarms fall at fixed positions of the service's output stream, but
    how far that stream ran past the served bits depends on timing: the
    pool's fill level when the run ended, and the pre-alarm bits it
    quarantined.  Stopping the pool and topping the service up to a
    fixed position makes the counts repeat exactly.  ``None`` when the
    service already ran past ``position``: the counts then depend on
    timing, and the run's check fails.
    """
    stack.stop()
    service = stack.service
    reached = service.bits_served
    if reached > position:
        return None
    # In bulk-refill-sized requests: recovery is bounded per request,
    # and a long top-up spans several alarms.
    while reached < position:
        service.request(min(BULK_POOL["refill_batch_bits"], position - reached))
        reached = service.bits_served
    return {
        "alarms": service.event_log.count("alarm"),
        "recoveries": service.event_log.count("recovered"),
        "bits_discarded": service.event_log.count("bits_discarded"),
    }


def quarantine_allowance(served_bits: int) -> int:
    """Pool quarantines :func:`count_position` leaves room for."""
    return 16 + served_bits // QUARANTINE_SPACING_BITS


def count_position(workload: Workload, stack: Stack, served_bits: int) -> int:
    """Fixed service-stream position past what one run can reach.

    The service has output the served bits and the first request, plus
    what the pool holds at the end (at most its capacity) and what it
    dropped: each quarantine drops at most a full pool and one partial
    request.  The position leaves room for
    :func:`quarantine_allowance` quarantines; the run's check fails if
    the pool's own quarantine count exceeds it.
    """
    capacity = stack.buffered.pool.capacity_bits
    slack = capacity + quarantine_allowance(served_bits) * (capacity + workload.request_bits)
    return served_bits + workload.request_bits + slack
