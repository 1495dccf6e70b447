"""Algorithm 2: the online random-number sampling loop (Section 6.2).

:class:`DRangeSampler` drives a :class:`~repro.memctrl.controller
.MemoryController` through the paper's loop: write the high-entropy
pattern around the chosen words, reserve the rows, reduce tRCD, then
per bank alternate reduced-latency reads of the two chosen words —
extracting the RNG cells' bits — and write the original data back.

Two generation paths:

* :meth:`generate` — the faithful command-level loop, timed through the
  controller's engine (used for throughput/latency/energy accounting);
* :meth:`generate_fast` — statistically identical vectorized sampling
  (per-access outcomes are independent Bernoulli draws because the loop
  restores all state between accesses); used to build the multi-megabit
  streams the NIST suite consumes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.buffers import ensure_bits_buffer
from repro.core.plan import CompiledSamplePlan, compile_sample_plan
from repro.core.selection import BankPlan, require_plans
from repro.dram.datapattern import BEST_RNG_PATTERN, DataPattern, pattern_by_name
from repro.errors import ConfigurationError
from repro.memctrl.controller import MemoryController
from repro.obs import runtime as obs

#: Default reduced activation latency for sampling (Section 4).
DEFAULT_SAMPLING_TRCD_NS = 10.0

#: Pre-bound instrument handles for the generation hot path.  Bound
#: handles resolve their registry child once per ``obs.enable`` and
#: revalidate by identity check, so a generation call pays a handful of
#: attribute loads instead of a name/label resolution per metric (the
#: ``benchmarks/bench_obs.py`` enabled-overhead gate is met this way).
_OBS_BITS = {
    path: obs.bound_counter("drange_sampler_bits_total", path=path)
    for path in ("generate", "generate_fast")
}
_OBS_NS_PER_BIT = {
    path: obs.bound_histogram("drange_sampler_ns_per_bit", path=path)
    for path in ("generate", "generate_fast")
}
_OBS_PLAN_COMPILES = obs.bound_counter("drange_sampler_plan_compiles_total")
_OBS_PLAN_REUSES = obs.bound_counter("drange_sampler_plan_reuses_total")

#: The probability-plane gauges are collector-backed: sampled when the
#: metrics are exported, not on every generation call (the plane's own
#: counters already accumulate; copying them into gauges per call would
#: spend hot-path budget keeping values nobody is reading current).
_OBS_PLANE_HITS = obs.bound_gauge("drange_plane_hits")
_OBS_PLANE_MISSES = obs.bound_gauge("drange_plane_misses")
_OBS_PLANE_INVALIDATIONS = obs.bound_gauge("drange_plane_invalidations")


class DRangeSampler:
    """Runs Algorithm 2 against one memory channel."""

    def __init__(
        self,
        controller: MemoryController,
        plans: Sequence[BankPlan],
        trcd_ns: float = DEFAULT_SAMPLING_TRCD_NS,
        pattern: Optional[DataPattern] = None,
    ) -> None:
        self._controller = controller
        self._plans = list(require_plans(plans))
        if trcd_ns >= controller.device.timings.trcd_ns:
            raise ConfigurationError(
                f"sampling tRCD {trcd_ns} ns must be below spec "
                f"{controller.device.timings.trcd_ns} ns"
            )
        self._trcd_ns = trcd_ns
        if pattern is None:
            pattern = pattern_by_name(
                BEST_RNG_PATTERN[controller.device.profile.name]
            )
        self._pattern = pattern
        self._compiled: Optional[CompiledSamplePlan] = None
        self._written_epoch: Optional[int] = None
        obs.add_collector(self._collect_plane)

    @property
    def plans(self) -> Sequence[BankPlan]:
        """Per-bank word plans in use."""
        return tuple(self._plans)

    @property
    def data_rate_bits_per_iteration(self) -> int:
        """Random bits one loop iteration yields across all banks."""
        return sum(plan.data_rate_bits for plan in self._plans)

    @property
    def pattern(self) -> DataPattern:
        """The high-entropy data pattern kept around the RNG cells."""
        return self._pattern

    # ------------------------------------------------------------------
    # Setup / teardown (Alg. 2 lines 2-6 and 18-19)
    # ------------------------------------------------------------------

    def _rows_with_neighbors(self) -> List[Tuple[int, int]]:
        geometry = self._controller.device.geometry
        rows: List[Tuple[int, int]] = []
        for plan in self._plans:
            for _, row in plan.reserved_rows:
                for neighbor in (row - 1, row, row + 1):
                    if 0 <= neighbor < geometry.rows_per_bank:
                        rows.append((plan.bank, neighbor))
        return rows

    def setup(self) -> None:
        """Write the pattern, reserve rows, reduce tRCD (lines 2-6).

        Pattern writes are skipped when the device's ``state_epoch``
        still matches the last setup — every stored-state mutation bumps
        the epoch, so an unchanged epoch proves the pattern rows are
        exactly as this sampler left them.
        """
        device = self._controller.device
        rows = self._rows_with_neighbors()
        if self._written_epoch != device.state_epoch:
            for bank, row in rows:
                device.bank(bank).write_row(
                    row,
                    self._pattern.row_values(row, device.geometry.cols_per_row),
                )
            self._written_epoch = device.state_epoch
        self._controller.reserve_rows(rows)
        self._controller.set_reduced_trcd(self._trcd_ns)

    def compiled_plan(self) -> CompiledSamplePlan:
        """The compiled form of this sampler's plans (cached per epoch).

        Recompiled automatically whenever the device's ``state_epoch``
        moves — a write, power cycle, temperature/voltage change, or
        fault injection all invalidate the cached plan.
        """
        device = self._controller.device
        if self._compiled is None or self._compiled.is_stale(device):
            self._compiled = compile_sample_plan(
                device, self._plans, self._trcd_ns, self._pattern
            )
            _OBS_PLAN_COMPILES.add()
        else:
            _OBS_PLAN_REUSES.add()
        return self._compiled

    def _observe_generation(self, path: str, num_bits: int, elapsed_ns: int) -> None:
        """Account one finished generation call to the metrics registry.

        Purely observational — called only when observability is on, and
        never touches sampler or device state, so seeded outputs stay
        bit-identical with instrumentation enabled.
        """
        _OBS_BITS[path].add(num_bits)
        if elapsed_ns > 0:
            _OBS_NS_PER_BIT[path].observe(elapsed_ns / num_bits)

    def _collect_plane(self) -> None:
        """Export-time collector: mirror the probability-plane counters.

        Registered with :func:`repro.obs.runtime.add_collector` at
        construction (weakly held, so the sampler's lifetime is
        unaffected); the facade exporters call it before rendering, so
        the gauges track ``device.plane`` without per-generation cost.
        """
        plane = getattr(self._controller.device, "plane", None)
        if plane is not None:
            _OBS_PLANE_HITS.set(plane.hits)
            _OBS_PLANE_MISSES.set(plane.misses)
            _OBS_PLANE_INVALIDATIONS.set(plane.invalidations)

    def teardown(self) -> None:
        """Restore spec timings and release the rows (lines 18-19)."""
        self._controller.restore_timings()
        self._controller.release_rows()

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate(self, num_bits: int) -> np.ndarray:
        """Faithful Algorithm 2: returns ``num_bits`` random bits.

        Each loop iteration plays the whole compiled plan through
        :meth:`~repro.memctrl.controller.MemoryController
        .reduced_read_burst`, so the engine trace accumulates the exact
        command stream of the per-word loop; wrapping this call with
        trace inspection yields the paper's throughput and energy
        measurements.
        """
        if num_bits <= 0:
            raise ConfigurationError(f"num_bits must be positive, got {num_bits}")
        rate = self.data_rate_bits_per_iteration
        if not rate:
            raise ConfigurationError("selected words contain no RNG cells")
        sp = obs.span("sampler.generate", bits=num_bits)
        with sp:
            self.setup()
            try:
                plan = self.compiled_plan()
                iterations = -(-num_bits // rate)  # ceil
                chunks = np.atleast_2d(
                    self._controller.reduced_read_burst(plan, iterations=iterations)
                )
            finally:
                self.teardown()
        if obs.enabled():
            self._observe_generation("generate", num_bits, sp.elapsed_ns)
        return chunks.reshape(-1)[:num_bits]

    def generate_fast(
        self, num_bits: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorized, statistically identical generation.

        Valid because Algorithm 2 restores every piece of state between
        accesses (pattern write-back, precharge, constant temperature),
        making each access an independent Bernoulli draw per RNG cell.
        The compiled plan's cells are sampled in one batched
        mixture-sampler call; bits come out iteration-major, cell-minor
        — the order Algorithm 2 appends them.

        ``out``, when given, receives the bits in place (a writeable,
        C-contiguous uint8 buffer of ``num_bits`` entries, e.g. one
        channel segment of a multi-channel harvest buffer) and is
        returned; anything else raises
        :class:`~repro.errors.InvalidBufferError` before any device
        work runs.
        """
        if num_bits <= 0:
            raise ConfigurationError(f"num_bits must be positive, got {num_bits}")
        if not self.data_rate_bits_per_iteration:
            raise ConfigurationError("selected words contain no RNG cells")
        ensure_bits_buffer(out, num_bits)
        sp = obs.span("sampler.generate_fast", bits=num_bits)
        with sp:
            self.setup()
            try:
                device = self._controller.device
                plan = self.compiled_plan()
                per_cell = -(-num_bits // plan.n_cells)  # ceil
                bits = device.sample_cells_bits(
                    plan.cells,
                    per_cell,
                    self._trcd_ns,
                    mixture=True,
                    compiled=plan.bernoulli,
                )
            finally:
                self.teardown()
        if obs.enabled():
            self._observe_generation("generate_fast", num_bits, sp.elapsed_ns)
        flat = bits.reshape(-1)[:num_bits]
        if out is not None:
            out[...] = flat
            return out
        return flat
