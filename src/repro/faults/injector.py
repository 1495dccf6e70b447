"""Fault injection wrappers for devices and noise sources.

:class:`FaultInjector` wraps a :class:`~repro.dram.device.DramDevice`
and presents the same interface (everything not overridden is forwarded
verbatim), so it drops into every layer that accepts a device —
``DRange``, ``MemoryController``, ``MultiChannelDRange``.  The wrapper
intercepts the vectorized sampling entry points and routes each access
through the active :class:`~repro.faults.schedule.FaultSchedule`
windows:

1. the operating point is transformed (temperature/voltage faults),
2. failure probabilities are transformed (aging/droop faults),
3. the harvested bits are transformed (stuck/drift/burst faults).

A monotonically increasing *bit clock* (``bits_elapsed``) indexes the
schedule, advancing with every sampled bit — including identification
and characterization traffic, so a fault scheduled "now" also poisons
any subsequent re-identification attempt, exactly like real hardware.

:class:`FaultyNoiseSource` applies the same probability-level faults
inside a :class:`~repro.noise.NoiseSource`, covering code paths that
draw noise directly (the command-level ``generate`` loop).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.dram.device import DramDevice
from repro.dram.failures import OperatingPoint
from repro.faults.models import AccessContext, FaultModel
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.noise import BernoulliPlane, NoiseSource


class FaultInjector:
    """A :class:`DramDevice` proxy that injects scheduled faults.

    Construct the injector around a device *before* handing the device
    to ``DRange``/``MultiChannelDRange`` so every sampling layer sees
    the faulted view::

        device = DeviceFactory().make_device("A")
        faulty = FaultInjector(device)
        drange = DRange(faulty)
        ...
        faulty.inject(BiasDriftFault())          # activates at the current clock
    """

    def __init__(
        self, device: DramDevice, schedule: Optional[FaultSchedule] = None
    ) -> None:
        self._device = device
        self._schedule = schedule if schedule is not None else FaultSchedule()
        self._bits_elapsed = 0
        self._fault_epoch = 0

    # ------------------------------------------------------------------
    # Introspection and scheduling
    # ------------------------------------------------------------------

    @property
    def wrapped(self) -> DramDevice:
        """The underlying (healthy) device."""
        return self._device

    @property
    def schedule(self) -> FaultSchedule:
        """The fault activation schedule."""
        return self._schedule

    @property
    def bits_elapsed(self) -> int:
        """Bit clock: total faultable accesses performed so far."""
        return self._bits_elapsed

    @property
    def state_epoch(self) -> int:
        """The wrapped device's epoch plus a fault-schedule component.

        Injecting or healing a fault bumps this, so probability planes
        and compiled sampling plans built against the faulted view are
        invalidated exactly like a stored-state mutation would
        invalidate them.
        """
        return self._device.state_epoch + self._fault_epoch

    def inject(
        self,
        fault: FaultModel,
        start_bit: Optional[int] = None,
        end_bit: Optional[int] = None,
    ) -> FaultWindow:
        """Schedule ``fault`` starting now (or at ``start_bit``)."""
        start = self._bits_elapsed if start_bit is None else start_bit
        self._fault_epoch += 1
        return self._schedule.add(fault, start_bit=start, end_bit=end_bit)

    def heal(self) -> None:
        """Clear the schedule: the device behaves nominally again."""
        self._fault_epoch += 1
        self._schedule.clear()

    def advance(self, bits: int) -> None:
        """Manually advance the bit clock (idle time between harvests)."""
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        self._bits_elapsed += bits

    def __getattr__(self, name):
        return getattr(self._device, name)

    # ------------------------------------------------------------------
    # Fault application helpers
    # ------------------------------------------------------------------

    def _transform_op(self, op: OperatingPoint, offset: int) -> OperatingPoint:
        for window in self._schedule.active_at(offset):
            op = window.fault.transform_operating_point(
                op, offset - window.start_bit
            )
        return op

    def _transform_probabilities(
        self, probs: np.ndarray, offsets: np.ndarray, ctx: AccessContext
    ) -> np.ndarray:
        if offsets.size == 0:
            return probs
        lo, hi = int(offsets[0]), int(offsets[-1]) + 1
        for window in self._schedule.overlapping(lo, hi):
            mask = window.mask(offsets)
            if not mask.any():
                continue
            ages = offsets[mask] - window.start_bit
            probs = probs.astype(np.float64, copy=True)
            probs[mask] = np.clip(
                window.fault.transform_probabilities(probs[mask], ages, ctx),
                0.0,
                1.0,
            )
        return probs

    def _transform_bits(
        self, bits: np.ndarray, offsets: np.ndarray, ctx: AccessContext
    ) -> np.ndarray:
        if offsets.size == 0:
            return bits
        lo, hi = int(offsets[0]), int(offsets[-1]) + 1
        for window in self._schedule.overlapping(lo, hi):
            mask = window.mask(offsets)
            if not mask.any():
                continue
            ages = offsets[mask] - window.start_bit
            bits = bits.copy()
            bits[mask] = window.fault.transform_bits(bits[mask], ages, ctx)
        return bits

    # ------------------------------------------------------------------
    # Intercepted device entry points
    # ------------------------------------------------------------------

    def operating_point(self, trcd_ns: float) -> OperatingPoint:
        """Access conditions with active operating-point faults applied."""
        return self._transform_op(
            self._device.operating_point(trcd_ns), self._bits_elapsed
        )

    def sample_cell_bits(
        self, bank: int, row: int, col: int, count: int, trcd_ns: float
    ) -> np.ndarray:
        """Faulted counterpart of :meth:`DramDevice.sample_cell_bits`."""
        device = self._device
        device.geometry.validate_col(col)
        start = self._bits_elapsed
        offsets = np.arange(start, start + count, dtype=np.int64)
        ctx = AccessContext(bank=bank, row=row, col=col, trcd_ns=trcd_ns)

        op = self._transform_op(device.operating_point(trcd_ns), start)
        plane = device.plane
        stored_row = plane.row_stored(bank, row)
        base = plane.row_probabilities(bank, row, op)
        probs = self._transform_probabilities(
            np.full(count, base[col], dtype=np.float64), offsets, ctx
        )
        flips = device.noise.bernoulli(probs)
        stored_bit = int(stored_row[col])
        bits = np.where(flips, 1 - stored_bit, stored_bit).astype(np.uint8)
        bits = self._transform_bits(bits, offsets, ctx)
        self._bits_elapsed = start + count
        return bits

    def row_failure_probabilities(
        self, bank: int, row: int, trcd_ns: float
    ) -> np.ndarray:
        """Per-cell failure probabilities under the active faults."""
        device = self._device
        offset = self._bits_elapsed
        op = self._transform_op(device.operating_point(trcd_ns), offset)
        probs = np.array(device.plane.row_probabilities(bank, row, op))
        ctx = AccessContext(bank=bank, row=row, trcd_ns=trcd_ns)
        offsets = np.full(probs.size, offset, dtype=np.int64)
        return self._transform_probabilities(probs, offsets, ctx)

    def sample_row_fail_counts(
        self, bank: int, row: int, trcd_ns: float, iterations: int
    ) -> np.ndarray:
        """Faulted characterization counts; advances the clock by ``iterations``."""
        probs = self.row_failure_probabilities(bank, row, trcd_ns)
        counts = self._device.noise.binomial(iterations, probs)
        self._bits_elapsed += iterations
        return counts

    def sample_rows_fail_counts(
        self,
        bank: int,
        rows,
        trcd_ns: float,
        iterations: int,
        out: Optional[np.ndarray] = None,
        noise: Optional[NoiseSource] = None,
    ) -> np.ndarray:
        """Faulted counterpart of :meth:`DramDevice.sample_rows_fail_counts`.

        Per-row probabilities are transformed at the same bit-clock
        offsets the per-row loop would have used (row ``i`` at
        ``start + i × iterations``), then drawn in one binomial matrix
        call — bit-identical to sequential
        :meth:`sample_row_fail_counts` calls for a seeded source.
        ``out``/``noise`` mirror the device's signature (preallocated
        destination; caller-owned stream for the worker-sharded path).
        """
        device = self._device
        source = device.noise if noise is None else noise
        row_list = list(rows)
        if not row_list:
            empty = np.zeros((0, device.geometry.cols_per_row), dtype=np.int64)
            return empty if out is None else out
        start = self._bits_elapsed
        plane = device.plane
        transformed = []
        for i, row in enumerate(row_list):
            offset = start + i * iterations
            op = self._transform_op(device.operating_point(trcd_ns), offset)
            probs = np.array(plane.row_probabilities(bank, row, op))
            ctx = AccessContext(bank=bank, row=row, trcd_ns=trcd_ns)
            offsets = np.full(probs.size, offset, dtype=np.int64)
            transformed.append(
                self._transform_probabilities(probs, offsets, ctx)
            )
        counts = source.binomial(iterations, np.stack(transformed))
        self._bits_elapsed = start + len(row_list) * iterations
        if out is not None:
            out[...] = counts
            return out
        return counts

    def cells_failure_probabilities(
        self, cells: np.ndarray, trcd_ns: float
    ) -> np.ndarray:
        """Per-cell probabilities of a coordinate batch under active faults.

        Evaluated at the current bit clock without advancing it — the
        compiled-plan snapshot contract.
        """
        device = self._device
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        offset = self._bits_elapsed
        op = self._transform_op(device.operating_point(trcd_ns), offset)
        plane = device.plane
        offsets = np.asarray([offset], dtype=np.int64)
        out = np.empty(len(cells), dtype=np.float64)
        for i, (bank, row, col) in enumerate(cells):
            base = plane.row_probabilities(int(bank), int(row), op)[int(col)]
            ctx = AccessContext(
                bank=int(bank), row=int(row), col=int(col), trcd_ns=trcd_ns
            )
            out[i] = self._transform_probabilities(
                np.asarray([base], dtype=np.float64), offsets, ctx
            )[0]
        return out

    def sample_cells_bits(
        self,
        cells: np.ndarray,
        count: int,
        trcd_ns: float,
        mixture: bool = False,
        compiled: Optional[BernoulliPlane] = None,
        noise: Optional[NoiseSource] = None,
    ) -> np.ndarray:
        """Faulted counterpart of :meth:`DramDevice.sample_cells_bits`.

        With no fault window overlapping the batch, the wrapped device's
        batched path runs unchanged (the clock still advances).  Under
        active windows, ``mixture=False`` replays the per-cell loop —
        cell ``j``'s draws at offsets ``start + j·count …`` — exactly as
        sequential :meth:`sample_cell_bits` calls, keeping seeded
        identification bit-identical; ``mixture=True`` applies faults in
        the output's iteration-major bit order (offset ``start + i·N +
        j`` for iteration ``i``, cell ``j``), matching where each bit
        lands in the generated stream.

        A ``compiled`` plane is accepted for interface parity but
        deliberately dropped: a plan compiled while a fault window
        covered the bit clock carries transformed values, and the
        clock's movement is invisible to ``state_epoch`` — so faulted
        sampling always re-derives from the live schedule.
        ``noise`` substitutes a caller-owned stream on the no-fault fast
        path (faulted paths draw from the device's own source, whose
        sequential consumption the bit clock assumes).
        """
        del compiled
        device = self._device
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        start = self._bits_elapsed
        total = count * len(cells)
        if not self._schedule.overlapping(start, start + max(total, 1)):
            bits = device.sample_cells_bits(
                cells, count, trcd_ns, mixture=mixture, noise=noise
            )
            self._bits_elapsed = start + total
            return bits
        if not mixture:
            columns = [
                self.sample_cell_bits(
                    int(bank), int(row), int(col), count, trcd_ns
                )
                for bank, row, col in cells
            ]
            return np.ascontiguousarray(np.stack(columns, axis=0).T)
        return self._sample_cells_iteration_major(cells, count, trcd_ns)

    def _sample_cells_iteration_major(
        self, cells: np.ndarray, count: int, trcd_ns: float
    ) -> np.ndarray:
        """Faulted batched sampling in output (iteration-major) order."""
        device = self._device
        n = len(cells)
        start = self._bits_elapsed
        op = self._transform_op(device.operating_point(trcd_ns), start)
        plane = device.plane
        stored = np.empty(n, dtype=np.uint8)
        probs = np.empty((count, n), dtype=np.float64)
        contexts = []
        strides = start + np.arange(count, dtype=np.int64) * n
        for j, (bank, row, col) in enumerate(cells):
            key = (int(bank), int(row), int(col))
            stored[j] = plane.row_stored(key[0], key[1])[key[2]]
            base = plane.row_probabilities(key[0], key[1], op)[key[2]]
            ctx = AccessContext(
                bank=key[0], row=key[1], col=key[2], trcd_ns=trcd_ns
            )
            contexts.append(ctx)
            probs[:, j] = self._transform_probabilities(
                np.full(count, base, dtype=np.float64), strides + j, ctx
            )
        flips = device.noise.bernoulli(probs)
        bits = np.where(
            flips, (1 - stored)[np.newaxis, :], stored[np.newaxis, :]
        ).astype(np.uint8)
        for j, ctx in enumerate(contexts):
            bits[:, j] = self._transform_bits(bits[:, j], strides + j, ctx)
        self._bits_elapsed = start + count * n
        return bits

    def probe_word(
        self, bank: int, row: int, word: int, trcd_ns: float
    ) -> np.ndarray:
        """Command-level probe under operating-point and untargeted bit faults."""
        device = self._device
        target = device.bank(bank)
        if target.open_row is not None:
            target.precharge()
        target.activate(row, trcd_ns=trcd_ns)
        bits = target.read(word, op=self.operating_point(trcd_ns))
        target.precharge()
        word_bits = bits.size
        start = self._bits_elapsed
        offsets = np.full(word_bits, start, dtype=np.int64)
        ctx = AccessContext(bank=bank, row=row, col=None, trcd_ns=trcd_ns)
        bits = self._transform_bits(np.asarray(bits, dtype=np.uint8), offsets, ctx)
        self._bits_elapsed = start + word_bits
        return bits


class FaultyNoiseSource(NoiseSource):
    """A :class:`NoiseSource` whose Bernoulli draws pass through faults.

    For code paths that never touch the device's vectorized samplers
    (the faithful command-level ``generate`` loop draws noise per read
    inside the bank), building the device with a ``FaultyNoiseSource``
    injects probability-level faults at the noise layer.  The schedule
    is indexed by a draw counter playing the role of the bit clock.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        super().__init__(seed)
        self._schedule = schedule if schedule is not None else FaultSchedule()
        self._draws = 0

    @property
    def schedule(self) -> FaultSchedule:
        """The fault activation schedule for this source."""
        return self._schedule

    @property
    def draws_elapsed(self) -> int:
        """Total Bernoulli-equivalent draws performed so far."""
        return self._draws

    def _faulted(self, probabilities: np.ndarray) -> np.ndarray:
        probs = np.clip(
            np.asarray(probabilities, dtype=np.float64).ravel(), 0.0, 1.0
        )
        start = self._draws
        offsets = np.arange(start, start + probs.size, dtype=np.int64)
        ctx = AccessContext()
        for window in self._schedule.overlapping(start, start + probs.size):
            mask = window.mask(offsets)
            if not mask.any():
                continue
            ages = offsets[mask] - window.start_bit
            probs[mask] = np.clip(
                window.fault.transform_probabilities(probs[mask], ages, ctx),
                0.0,
                1.0,
            )
        self._draws = start + probs.size
        return probs

    def bernoulli(self, probabilities: np.ndarray) -> np.ndarray:
        """Bernoulli draws with scheduled probability faults applied."""
        arr = np.asarray(probabilities, dtype=np.float64)
        return super().bernoulli(self._faulted(arr).reshape(arr.shape))

    def bernoulli_plane(
        self,
        probabilities: Union[np.ndarray, BernoulliPlane],
        count: int,
        invert: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Faulted probability-plane draws.

        The mixture decomposition assumes per-column constant
        probabilities, which scheduled faults break (they vary with the
        draw clock), so this falls back to the full faulted Bernoulli
        matrix in the same iteration-major shape.  Faults transform the
        *flip* probabilities, as in :meth:`bernoulli`; the ``invert``
        column fold is applied on top of the faulted draws.  A compiled
        :class:`~repro.noise.BernoulliPlane` is drawn from the (clipped)
        probabilities and the invert mask it was compiled from.
        """
        plane = BernoulliPlane.of(probabilities, invert)
        flips = self.bernoulli(
            np.broadcast_to(plane.probabilities, (count, plane.size))
        )
        if plane.invert is not None:
            flips = flips ^ plane.invert[np.newaxis, :]
        return flips

    def binomial(self, trials: int, probabilities: np.ndarray) -> np.ndarray:
        """Binomial draws with scheduled probability faults applied."""
        arr = np.asarray(probabilities, dtype=np.float64)
        return super().binomial(trials, self._faulted(arr).reshape(arr.shape))
