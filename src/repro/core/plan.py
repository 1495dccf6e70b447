"""Compiled sampling plans: Algorithm 2 lowered to flat arrays.

:func:`compile_sample_plan` lowers a set of
:class:`~repro.core.selection.BankPlan` word choices, a data pattern,
and an operating point into a :class:`CompiledSamplePlan` — the batched
representation both generation paths execute from:

* :meth:`~repro.core.sampler.DRangeSampler.generate_fast` feeds the
  plan's flat coordinate arrays to
  :meth:`~repro.dram.device.DramDevice.sample_cells_bits` (one
  vectorized draw for the whole stream);
* :meth:`~repro.core.sampler.DRangeSampler.generate` plays the plan's
  word program through
  :meth:`~repro.memctrl.controller.MemoryController.reduced_read_burst`
  (one call per Algorithm 2 iteration, command-exact).

A plan snapshots the device's monotonic ``state_epoch`` at compile
time; :meth:`CompiledSamplePlan.is_stale` compares against the live
epoch, so any write, power cycle, temperature/voltage change, or fault
injection forces recompilation.  Mirrors how SoftMC-style testbeds
compile a command program once and replay it, instead of paying a host
round-trip per access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.selection import BankPlan
from repro.dram.datapattern import DataPattern
from repro.dram.device import DramDevice
from repro.noise import BernoulliPlane

__all__ = ["CompiledSamplePlan", "CompiledWord", "compile_cells", "compile_sample_plan"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CompiledWord:
    """One reduced-read target word of the compiled program.

    ``offsets`` are the within-word bit positions harvested from the
    read data, in cell order; ``writeback`` is the pattern word restored
    after every read (Algorithm 2 lines 10/14); ``start`` indexes this
    word's first cell in the plan's flat arrays.
    """

    bank: int
    row: int
    word: int
    start: int
    offsets: npt.NDArray[np.int64]
    writeback: npt.NDArray[np.uint8]

    @property
    def n_cells(self) -> int:
        """RNG cells harvested from this word per access."""
        return int(self.offsets.size)


@dataclass(frozen=True)
class CompiledSamplePlan:
    """Flat-array form of one channel's Algorithm 2 loop.

    ``cells`` is the ``(N, 3)`` (bank, row, col) coordinate array in
    loop order (bank plans in order, word1 then word2, cells in word
    order); ``stored_bits`` and ``probabilities`` are the per-cell
    pattern bits and failure probabilities snapshotted at compile time,
    and ``bernoulli`` is the two compiled for the mixture sampler (the
    stored bits as its invert mask, so draws are read bits).  All
    arrays are read-only.
    """

    trcd_ns: float
    cells: npt.NDArray[np.int64]
    stored_bits: npt.NDArray[np.uint8]
    probabilities: npt.NDArray[np.float64]
    words: Tuple[CompiledWord, ...]
    epoch: int
    bernoulli: BernoulliPlane

    @property
    def n_cells(self) -> int:
        """Total RNG cells across the plan."""
        return int(self.cells.shape[0])

    @property
    def data_rate_bits_per_iteration(self) -> int:
        """Random bits one full plan iteration yields."""
        return self.n_cells

    @property
    def banks(self) -> npt.NDArray[np.int64]:
        """Per-cell bank coordinates (view into ``cells``)."""
        return self.cells[:, 0]

    @property
    def rows(self) -> npt.NDArray[np.int64]:
        """Per-cell row coordinates (view into ``cells``)."""
        return self.cells[:, 1]

    @property
    def cols(self) -> npt.NDArray[np.int64]:
        """Per-cell column coordinates (view into ``cells``)."""
        return self.cells[:, 2]

    def is_stale(self, device: DramDevice) -> bool:
        """True when the device's state moved past this plan's snapshot.

        ``device`` may be the compile-time device or any wrapper
        exposing ``state_epoch`` (e.g. a
        :class:`~repro.faults.injector.FaultInjector`, whose epoch also
        advances on inject/heal).
        """
        return int(device.state_epoch) != self.epoch


def compile_cells(
    device: DramDevice, cells: npt.ArrayLike, trcd_ns: float
) -> CompiledSamplePlan:
    """Compile raw (bank, row, col) coordinates into a word-less plan.

    The identification path uses this form: it needs the batched
    coordinate/probability arrays and the staleness contract, but never
    replays a command program.
    """
    coords = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
    probabilities = device.cells_failure_probabilities(coords, trcd_ns)
    stored = device.cells_stored_bits(coords)
    return CompiledSamplePlan(
        trcd_ns=trcd_ns,
        cells=_frozen(coords.copy()),
        stored_bits=_frozen(stored),
        probabilities=_frozen(probabilities),
        words=(),
        epoch=int(device.state_epoch),
        bernoulli=BernoulliPlane.compile(probabilities, invert=stored),
    )


def compile_sample_plan(
    device: DramDevice,
    plans: Sequence[BankPlan],
    trcd_ns: float,
    pattern: DataPattern,
) -> CompiledSamplePlan:
    """Lower bank plans + pattern + operating point into a compiled plan.

    Cell order matches the bit order Algorithm 2 emits; word order
    matches the command order the faithful loop issues (so
    ``reduced_read_burst`` is command-for-command identical to the
    per-word harvest it replaces).
    """
    geometry = device.geometry
    word_bits = geometry.word_bits
    coords = []
    words = []
    start = 0
    for plan in plans:
        for choice in (plan.word1, plan.word2):
            offsets = np.asarray(
                [cell.col % word_bits for cell in choice.cells], dtype=np.int64
            )
            writeback = np.asarray(
                pattern.values(
                    np.int64(choice.row),
                    np.asarray(geometry.word_cols(choice.word)),
                ),
                dtype=np.uint8,
            )
            words.append(
                CompiledWord(
                    bank=choice.bank,
                    row=choice.row,
                    word=choice.word,
                    start=start,
                    offsets=_frozen(offsets),
                    writeback=_frozen(writeback),
                )
            )
            coords.extend(
                (cell.bank, cell.row, cell.col) for cell in choice.cells
            )
            start += len(choice.cells)
    cell_array = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    probabilities = device.cells_failure_probabilities(cell_array, trcd_ns)
    stored = device.cells_stored_bits(cell_array)
    return CompiledSamplePlan(
        trcd_ns=trcd_ns,
        cells=_frozen(cell_array),
        stored_bits=_frozen(stored),
        probabilities=_frozen(probabilities),
        words=tuple(words),
        epoch=int(device.state_epoch),
        bernoulli=BernoulliPlane.compile(probabilities, invert=stored),
    )
