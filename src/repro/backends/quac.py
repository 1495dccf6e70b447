"""QUAC backend: multi-row-activation charge sharing + SHA conditioning.

QUAC-TRNG's recipe (PAPERS.md), mapped onto the simulator:

1. **Initialize** four rows of one subarray per bank with a *balanced*
   pattern — every column stores exactly two 1s and two 0s, so the
   charge-sharing contest is decided by process variation and thermal
   noise, not by the data;
2. **MACT** (``ACT-PRE-ACT``): open the four rows simultaneously; each
   column's sense amplifier resolves one raw random bit
   (:mod:`repro.dram.quac`), and READ the whole row out;
3. **Re-initialize** — sensing destroys the stored pattern (all four
   rows now hold the sensed value), so the loop writes the balanced
   pattern back each iteration;
4. **Condition** the raw stream with SHA-256, 512 raw bits → 256
   output bits (:func:`repro.postprocess.sha256_block_condition`).

The per-column probabilities are cached in a
:class:`~repro.dram.quac.QuacPlane` under the device epoch contract,
so any write / temperature / voltage / power-cycle / fault event
transparently forces re-initialization and recompilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.buffers import ensure_bits_buffer
from repro.core.profiling import Region
from repro.dram.quac import QUAC_ROWS, QuacPlane
from repro.dram.timing import TimingParameters
from repro.errors import ConfigurationError
from repro.noise import BernoulliPlane
from repro.obs import runtime as obs
from repro.postprocess import sha256_block_condition
from repro.sim.engine import TimingEngine
from repro.units import mbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.device import DramDevice

_OBS_BITS = obs.bound_counter("drange_backend_bits_total", backend="quac")
_OBS_NS_PER_BIT = obs.bound_histogram("drange_backend_sample_ns_per_bit", backend="quac")
_OBS_QPLANE_HITS = obs.bound_gauge("drange_quac_plane_hits")
_OBS_QPLANE_MISSES = obs.bound_gauge("drange_quac_plane_misses")
_OBS_QPLANE_INVALIDATIONS = obs.bound_gauge("drange_quac_plane_invalidations")

#: SHA-256 conditioning geometry from the QUAC-TRNG paper.
CONDITION_BLOCK_BITS = 512
CONDITION_DIGEST_BITS = 256


def quac_iteration_time_ns(
    timings: TimingParameters,
    num_banks: int,
    words_per_row: int,
    group_rows: int = QUAC_ROWS,
    measured_iterations: int = 8,
    warmup_iterations: int = 2,
) -> float:
    """Steady-state time of one QUAC loop iteration over ``num_banks``.

    One iteration per bank is: the MACT sequence (modeled conservatively
    as two full row activations with an interleaved precharge — the real
    precharge-interrupt is shorter), a full-row readout
    (``words_per_row`` READs), a precharge, then re-initialization of
    the ``group_rows`` destroyed rows (ACT, ``words_per_row`` WRITEs,
    PRE each).  Commands interleave across banks; the engine serializes
    only where JEDEC constraints (tRRD, tFAW, bus occupancy) require —
    the same replay methodology as
    :func:`repro.core.throughput.alg2_iteration_time_ns`.
    """
    if num_banks <= 0:
        raise ConfigurationError(f"num_banks must be positive, got {num_banks}")
    if words_per_row <= 0:
        raise ConfigurationError(f"words_per_row must be positive, got {words_per_row}")
    engine = TimingEngine(timings, banks=num_banks)

    def iteration() -> None:
        # MACT: ACT row0, (interrupting) PRE, ACT row1 — then read the
        # sensed row out and close the bank.
        for bank in range(num_banks):
            engine.activate(bank, 0)
        for bank in range(num_banks):
            engine.precharge(bank)
        for bank in range(num_banks):
            engine.activate(bank, 1)
        for bank in range(num_banks):
            for _ in range(words_per_row):
                engine.read(bank)
        for bank in range(num_banks):
            engine.precharge(bank)
        # Re-initialize the destroyed pattern rows at full latency.
        for row in range(group_rows):
            for bank in range(num_banks):
                engine.activate(bank, row)
            for bank in range(num_banks):
                for _ in range(words_per_row):
                    engine.write(bank)
            for bank in range(num_banks):
                engine.precharge(bank)

    for _ in range(warmup_iterations):
        iteration()
    start = engine.now_ns
    for _ in range(measured_iterations):
        iteration()
    return (engine.now_ns - start) / measured_iterations


def quac_iteration_trace(
    timings: TimingParameters,
    num_banks: int,
    words_per_row: int,
    group_rows: int = QUAC_ROWS,
    iterations: int = 1,
) -> TimingEngine:
    """Replay ``iterations`` QUAC loop iterations; return the engine.

    The engine's ``trace`` holds the standard-command expansion of the
    loop (MACT modeled as ACT/PRE/ACT), which is what
    :class:`~repro.power.model.PowerModel` consumes for the energy
    axis of the backend comparison.
    """
    if num_banks <= 0:
        raise ConfigurationError(f"num_banks must be positive, got {num_banks}")
    engine = TimingEngine(timings, banks=num_banks)
    for _ in range(max(iterations, 1)):
        for bank in range(num_banks):
            engine.activate(bank, 0)
        for bank in range(num_banks):
            engine.precharge(bank)
        for bank in range(num_banks):
            engine.activate(bank, 1)
        for bank in range(num_banks):
            for _ in range(words_per_row):
                engine.read(bank)
        for bank in range(num_banks):
            engine.precharge(bank)
        for row in range(group_rows):
            for bank in range(num_banks):
                engine.activate(bank, row)
            for bank in range(num_banks):
                for _ in range(words_per_row):
                    engine.write(bank)
            for bank in range(num_banks):
                engine.precharge(bank)
    return engine


@dataclass(frozen=True)
class QuacSite:
    """One bank's charge-sharing row group."""

    bank: int
    rows: Tuple[int, ...]


@dataclass
class QuacProfile:
    """Initialized row groups + probability cache for one device."""

    device: "DramDevice"
    sites: List[QuacSite]
    plane: QuacPlane
    mean_entropy: float
    epoch: int
    backend: str = field(default="quac")

    @property
    def cells(self) -> Tuple[QuacSite, ...]:
        """The harvest locations (one row group per bank)."""
        return tuple(self.sites)

    def is_stale(self, device: "DramDevice") -> bool:
        """True when the device mutated since the pattern was written."""
        return self.epoch != device.state_epoch


@dataclass
class QuacPlan:
    """Snapshot of per-column sensing probabilities at one epoch.

    ``bernoulli`` is the snapshot compiled for the mixture sampler,
    drawn by every :meth:`QuacBackend.sample` call under this plan.
    """

    profile: QuacProfile
    probabilities: np.ndarray
    bernoulli: BernoulliPlane
    epoch: int
    raw_bits_per_iteration: int
    output_bits_per_iteration: int
    iteration_time_ns: float
    backend: str = field(default="quac")

    @property
    def bits_per_iteration(self) -> int:
        """Conditioned output bits one loop iteration yields."""
        return self.output_bits_per_iteration

    @property
    def iteration_ns(self) -> float:
        """Modeled steady-state time of one QUAC loop iteration."""
        return self.iteration_time_ns

    @property
    def throughput_mbps(self) -> float:
        """Modeled sustained conditioned-output throughput in Mb/s."""
        if not self.output_bits_per_iteration:
            return 0.0
        return mbps(self.output_bits_per_iteration, self.iteration_time_ns)

    def is_stale(self, device: "DramDevice") -> bool:
        """True when the device mutated since compilation."""
        return self.epoch != device.state_epoch


class QuacBackend:
    """Quadruple-row-activation TRNG behind the backend protocol."""

    name = "quac"

    def __init__(
        self,
        group_rows: int = QUAC_ROWS,
        block_bits: int = CONDITION_BLOCK_BITS,
        digest_bits: int = CONDITION_DIGEST_BITS,
    ) -> None:
        if group_rows < 2 or group_rows % 2:
            raise ConfigurationError(
                f"group_rows must be an even count >= 2, got {group_rows}"
            )
        if not 0 < digest_bits <= block_bits:
            raise ConfigurationError(
                f"digest_bits ({digest_bits}) must be in (0, block_bits="
                f"{block_bits}]"
            )
        self._group_rows = group_rows
        self._block_bits = block_bits
        self._digest_bits = digest_bits
        obs.add_collector(self._collect_plane)
        self._last_plane: Optional[QuacPlane] = None

    @property
    def group_rows(self) -> int:
        """Rows opened simultaneously per MACT (4 for QUAC)."""
        return self._group_rows

    def _pattern_row(self, position: int, cols: int) -> np.ndarray:
        """Balanced stored pattern: every column gets ``group_rows/2`` ones.

        Even-position rows store the column parity, odd-position rows
        its complement, so the per-column charge is exactly balanced
        and the sensed bit is decided by variation + noise alone.
        """
        parity = (np.arange(cols) & 1).astype(np.uint8)
        return parity if position % 2 == 0 else (1 - parity).astype(np.uint8)

    def _site_rows(self, device: "DramDevice", row_start: int) -> Tuple[int, ...]:
        geometry = device.geometry
        if (
            self._group_rows > geometry.subarray_rows
            or self._group_rows > geometry.rows_per_bank
        ):
            raise ConfigurationError(
                f"geometry cannot host a {self._group_rows}-row QUAC group "
                f"(subarray_rows={geometry.subarray_rows})"
            )
        # Clamp the anchor into the bank, then snap the group into its
        # subarray so all rows share local sense amplifiers.
        anchor = min(max(row_start, 0), geometry.rows_per_bank - self._group_rows)
        subarray_start = geometry.subarray_of(anchor) * geometry.subarray_rows
        if anchor + self._group_rows > subarray_start + geometry.subarray_rows:
            anchor = subarray_start
        return tuple(range(anchor, anchor + self._group_rows))

    def _write_pattern(self, device: "DramDevice", sites: List[QuacSite]) -> None:
        cols = device.geometry.cols_per_row
        for site in sites:
            bank = device.bank(site.bank)
            for position, row in enumerate(site.rows):
                bank.write_row(row, self._pattern_row(position, cols))

    def characterize(
        self,
        device: "DramDevice",
        *,
        region: Optional[Region] = None,
        iterations: int = 100,
        samples: int = 1000,
        max_cells: Optional[int] = None,
    ) -> QuacProfile:
        """Pick one row group per bank, write the balanced pattern.

        ``region`` selects the participating banks and the row anchor;
        ``max_cells`` caps the number of banks (sites).  ``iterations``
        and ``samples`` are accepted for protocol compatibility — QUAC
        probabilities are analytic in this simulator, so no probing
        loop is needed.
        """
        del iterations, samples  # analytic characterization
        geometry = device.geometry
        banks = list(region.banks) if region is not None else list(range(geometry.banks))
        if max_cells is not None:
            banks = banks[: max(max_cells, 1)]
        if not banks:
            raise ConfigurationError("QUAC characterization needs at least one bank")
        row_start = region.row_start if region is not None else 0
        rows = self._site_rows(device, row_start)
        device.quac_model.validate_group(rows)
        sites = [QuacSite(bank=int(bank), rows=rows) for bank in banks]
        self._write_pattern(device, sites)
        plane = QuacPlane(device)
        self._last_plane = plane
        op = device.operating_point(device.timings.trcd_ns)
        entropies = []
        for site in sites:
            probs = plane.probabilities(site.bank, site.rows, op)
            entropies.append(float(np.mean(_shannon_entropy(probs))))
        return QuacProfile(
            device=device,
            sites=sites,
            plane=plane,
            mean_entropy=float(np.mean(entropies)),
            epoch=device.state_epoch,
        )

    def compile_plan(self, profile: QuacProfile) -> QuacPlan:
        """Snapshot probabilities (re-initializing the pattern if stale).

        Sensing destroys the stored pattern and external writes can
        clobber it; either moves the device epoch, so a stale profile
        here triggers a transparent pattern rewrite before the
        probability snapshot — the QUAC analog of
        :meth:`~repro.core.sampler.DRangeSampler.setup`'s epoch-guarded
        pattern write.
        """
        device = profile.device
        if profile.is_stale(device):
            self._write_pattern(device, profile.sites)
            profile.epoch = device.state_epoch
        op = device.operating_point(device.timings.trcd_ns)
        probs = np.concatenate(
            [
                profile.plane.probabilities(site.bank, site.rows, op)
                for site in profile.sites
            ]
        )
        probs.flags.writeable = False
        raw_bits = int(probs.size)
        output_bits = max((raw_bits * self._digest_bits) // self._block_bits, 1)
        iteration_time = quac_iteration_time_ns(
            device.timings,
            num_banks=len(profile.sites),
            words_per_row=device.geometry.words_per_row,
            group_rows=self._group_rows,
        )
        return QuacPlan(
            profile=profile,
            probabilities=probs,
            bernoulli=BernoulliPlane.compile(probs),
            epoch=device.state_epoch,
            raw_bits_per_iteration=raw_bits,
            output_bits_per_iteration=output_bits,
            iteration_time_ns=iteration_time,
        )

    def sample(
        self,
        plan: QuacPlan,
        num_bits: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Harvest ``num_bits`` conditioned bits under ``plan``.

        Raw bits are drawn with the exact mixture sampler from the
        plan's compiled probability snapshot (one iteration = one MACT +
        readout per site), then conditioned 512→256 with SHA-256, each
        chunk straight into the result (``out`` when given).  The draw
        consumes the device's noise stream, so seeded outputs are
        reproducible and independent of worker scheduling.
        """
        if num_bits <= 0:
            raise ConfigurationError(f"num_bits must be positive, got {num_bits}")
        ensure_bits_buffer(out, num_bits)
        plane = plan.bernoulli
        raw_per_iter = plane.size
        if not raw_per_iter:
            raise ConfigurationError("QUAC plan has no columns to sample")
        noise = plan.profile.device.noise
        bits = np.empty(num_bits, dtype=np.uint8) if out is None else out
        with obs.span(
            "backend.sample", backend=self.name, bits=num_bits
        ) as sp:
            produced = 0
            while produced < num_bits:
                missing = num_bits - produced
                # Raw bits needed to yield `missing` conditioned bits,
                # rounded up to whole conditioning blocks.
                need_blocks = -(-missing // self._digest_bits)
                need_raw = max(need_blocks * self._block_bits, self._block_bits)
                iters = -(-need_raw // raw_per_iter)
                raw = noise.bernoulli_plane(plane, iters).reshape(-1)
                conditioned = sha256_block_condition(
                    raw, self._block_bits, self._digest_bits
                )
                take = min(int(conditioned.size), missing)
                bits[produced : produced + take] = conditioned[:take]
                produced += take
        if obs.enabled():
            _OBS_BITS.add(num_bits)
            if sp.elapsed_ns > 0:
                _OBS_NS_PER_BIT.observe(sp.elapsed_ns / num_bits)
        return bits

    def _collect_plane(self) -> None:
        """Export-time collector mirroring the QUAC plane counters."""
        plane = self._last_plane
        if plane is not None:
            _OBS_QPLANE_HITS.set(plane.hits)
            _OBS_QPLANE_MISSES.set(plane.misses)
            _OBS_QPLANE_INVALIDATIONS.set(plane.invalidations)


def _shannon_entropy(probs: np.ndarray) -> np.ndarray:
    """Per-column Shannon entropy of Bernoulli probabilities."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))
