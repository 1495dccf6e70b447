"""The DRAM device (chip) model and device-population factory.

A :class:`DramDevice` bundles geometry, a manufacturer profile, the
frozen variation field, the activation-failure / startup / retention
models, a noise source, and eight banks.  It exposes both the raw
command-level interface (via its banks) and vectorized characterization
fast paths used by the profiling and sampling layers.

A :class:`DeviceFactory` mints statistically independent devices from a
master seed, standing in for the paper's population of 282 LPDDR4 chips
and 4 DDR3 chips.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dram.bank import Bank
from repro.dram.datapattern import DataPattern
from repro.dram.failures import ActivationFailureModel, OperatingPoint
from repro.dram.geometry import DeviceGeometry
from repro.dram.manufacturer import Manufacturer, ManufacturerProfile, profile_for
from repro.dram.modules import DramModule, resolve_timings
from repro.dram.plane import ProbabilityPlane
from repro.dram.quac import QuacModel
from repro.dram.retention import RetentionModel
from repro.dram.startup import StartupModel
from repro.dram.timing import LPDDR4_3200, TimingParameters
from repro.dram.variation import VariationField, hash_u64
from repro.errors import ConfigurationError
from repro.noise import BernoulliPlane, NoiseSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.backends.base import BackendProfile, TrngBackend


class DramDevice:
    """One DRAM chip with frozen manufacturing variation.

    Parameters
    ----------
    device_seed:
        Seed of the frozen variation field — the device's "silicon".
    manufacturer:
        Profile (or label) selecting vendor-specific behavior.
    geometry:
        Optional override; defaults to a characterization-sized geometry
        matched to the vendor's subarray height.
    timings:
        The spec timings this device was binned for: a
        :class:`TimingParameters` preset, a catalog part name
        (``"MT53E512M32"`` / ``"MT53E512M32-2400"``), or a
        :class:`~repro.dram.modules.DramModule` (rated grade).  A
        string/module spec resolves through the declarative catalog;
        a ``TimingParameters`` passes through unchanged, so existing
        callers see zero behavior change.
    noise:
        Source of per-access randomness; pass a seeded source for
        reproducible tests.
    corrupt_on_failure:
        Whether failed reads corrupt the stored array (ablation knob).
    """

    def __init__(
        self,
        device_seed: int,
        manufacturer="A",
        geometry: Optional[DeviceGeometry] = None,
        timings: Union[TimingParameters, DramModule, str] = LPDDR4_3200,
        noise: Optional[NoiseSource] = None,
        corrupt_on_failure: bool = False,
        serial: Optional[str] = None,
    ) -> None:
        timings = resolve_timings(timings)
        self._profile = profile_for(manufacturer)
        if geometry is None:
            geometry = DeviceGeometry(subarray_rows=self._profile.subarray_rows)
        if geometry.subarray_rows != self._profile.subarray_rows:
            geometry = replace(geometry, subarray_rows=self._profile.subarray_rows)
        self._geometry = geometry
        self._timings = timings
        self._noise = noise if noise is not None else NoiseSource()
        self._variation = VariationField(device_seed)
        self._failure_model = ActivationFailureModel(
            geometry, self._profile, self._variation
        )
        self._startup_model = StartupModel(geometry, self._variation)
        self._retention_model = RetentionModel(geometry, self._variation)
        self._temperature_c = 45.0
        self._vdd_ratio = 1.0
        self._epoch = 0
        self._plane: Optional[ProbabilityPlane] = None
        self._quac_model: Optional[QuacModel] = None
        self._serial = serial or f"{self._profile.name}-{device_seed & 0xFFFF:05d}"
        self._banks = [
            Bank(
                index=i,
                geometry=geometry,
                failure_model=self._failure_model,
                startup_model=self._startup_model,
                noise=self._noise,
                corrupt_on_failure=corrupt_on_failure,
                spec_trcd_ns=timings.trcd_ns,
                spec_trp_ns=timings.trp_ns,
            )
            for i in range(geometry.banks)
        ]

    # ------------------------------------------------------------------
    # Identity and state
    # ------------------------------------------------------------------

    @property
    def serial(self) -> str:
        """Human-readable device identifier, e.g. ``"B-00042"``."""
        return self._serial

    @property
    def manufacturer(self) -> Manufacturer:
        """This device's vendor."""
        return self._profile.manufacturer

    @property
    def profile(self) -> ManufacturerProfile:
        """Vendor behavior profile."""
        return self._profile

    @property
    def geometry(self) -> DeviceGeometry:
        """Device geometry."""
        return self._geometry

    @property
    def timings(self) -> TimingParameters:
        """Spec timing preset (the reference tRCD lives here)."""
        return self._timings

    @property
    def variation(self) -> VariationField:
        """Frozen manufacturing-variation field."""
        return self._variation

    @property
    def failure_model(self) -> ActivationFailureModel:
        """Analytic activation-failure model bound to this device."""
        return self._failure_model

    @property
    def startup_model(self) -> StartupModel:
        """Power-up value model bound to this device."""
        return self._startup_model

    @property
    def retention_model(self) -> RetentionModel:
        """Retention-failure model bound to this device."""
        return self._retention_model

    @property
    def noise(self) -> NoiseSource:
        """This device's per-access noise source."""
        return self._noise

    @property
    def temperature_c(self) -> float:
        """Current DRAM temperature in °C."""
        return self._temperature_c

    def set_temperature(self, temperature_c: float) -> None:
        """Set the device temperature (the thermal chamber's job)."""
        if not -40.0 <= temperature_c <= 125.0:
            raise ConfigurationError(
                f"temperature {temperature_c}°C outside plausible operating range"
            )
        if temperature_c != self._temperature_c:
            self._epoch += 1
            self._temperature_c = temperature_c

    @property
    def vdd_ratio(self) -> float:
        """Supply voltage relative to nominal (1.0 = spec VDD)."""
        return self._vdd_ratio

    def set_vdd_ratio(self, vdd_ratio: float) -> None:
        """Scale the supply voltage (reduced-voltage operation [30])."""
        if not 0.7 <= vdd_ratio <= 1.2:
            raise ConfigurationError(
                f"vdd_ratio {vdd_ratio} outside plausible operating range"
            )
        if vdd_ratio != self._vdd_ratio:
            self._epoch += 1
            self._vdd_ratio = vdd_ratio

    def power_cycle(self) -> None:
        """Power-cycle the device: every bank loses its stored state."""
        self._epoch += 1
        for bank in self._banks:
            bank.power_cycle()

    @property
    def state_epoch(self) -> int:
        """Monotonic counter over everything probability caches depend on.

        Combines the device-level epoch (temperature, voltage, power
        cycles) with every bank's stored-state epoch.  Compiled sampling
        plans and the :class:`~repro.dram.plane.ProbabilityPlane` record
        the epoch they were built at and treat any difference as stale.
        """
        return self._epoch + sum(bank.state_epoch for bank in self._banks)

    @property
    def plane(self) -> ProbabilityPlane:
        """The epoch-synced probability/stored-row cache for this device."""
        if self._plane is None:
            self._plane = ProbabilityPlane(self)
        return self._plane

    @property
    def quac_model(self) -> QuacModel:
        """Multi-row-activation charge-sharing model bound to this device.

        Shares the variation field and sense-amplifier strength with
        the activation-failure model, so the QUAC and D-RaNGe backends
        see the same silicon.
        """
        if self._quac_model is None:
            self._quac_model = QuacModel(
                self._geometry, self._profile, self._variation, self._failure_model
            )
        return self._quac_model

    def bank(self, index: int) -> Bank:
        """Access bank ``index``."""
        self._geometry.validate_bank(index)
        return self._banks[index]

    @property
    def banks(self) -> Sequence[Bank]:
        """All banks of the device."""
        return tuple(self._banks)

    def operating_point(self, trcd_ns: float) -> OperatingPoint:
        """Access conditions at the current temperature and voltage."""
        return OperatingPoint(
            trcd_ns=trcd_ns,
            temperature_c=self._temperature_c,
            vdd_ratio=self._vdd_ratio,
        )

    # ------------------------------------------------------------------
    # Command-level convenience
    # ------------------------------------------------------------------

    def probe_word(self, bank: int, row: int, word: int, trcd_ns: float) -> np.ndarray:
        """Behavioral ACT → READ → PRE of one word at ``trcd_ns``.

        This is what one inner-loop step of Algorithm 1 does to a closed
        row; returns the (possibly failure-flipped) read bits.
        """
        target = self.bank(bank)
        if target.open_row is not None:
            target.precharge()
        target.activate(row, trcd_ns=trcd_ns)
        bits = target.read(word, op=self.operating_point(trcd_ns))
        target.precharge()
        return bits

    def multi_activate(self, bank: int, rows: Iterable[int]) -> np.ndarray:
        """Behavioral QUAC op: ACT-PRE-ACT opening ``rows`` simultaneously.

        Resolves the per-column charge-sharing contest through the QUAC
        model (one Bernoulli draw per column), latches the sensed value
        into every participating row, and leaves ``rows[0]`` open for
        the subsequent READs.  Returns the sensed row as fresh bits.
        """
        target = self.bank(bank)
        rows_t = tuple(int(r) for r in rows)
        stored = np.stack([self.plane.row_stored(bank, row) for row in rows_t])
        probs = self.quac_model.one_probabilities(
            bank, rows_t, stored, self.operating_point(self._timings.trcd_ns)
        )
        sensed = self._noise.bernoulli(probs).astype(np.uint8)
        target.multi_activate(rows_t, sensed)
        return sensed

    def write_pattern(
        self,
        pattern: DataPattern,
        banks: Optional[Iterable[int]] = None,
        rows: Optional[Iterable[int]] = None,
    ) -> None:
        """Write ``pattern`` across a region at full (safe) latency."""
        bank_indices = list(banks) if banks is not None else range(self._geometry.banks)
        row_indices = (
            list(rows) if rows is not None else range(self._geometry.rows_per_bank)
        )
        num_cols = self._geometry.cols_per_row
        for bank_index in bank_indices:
            target = self.bank(bank_index)
            for row in row_indices:
                target.write_row(row, pattern.row_values(row, num_cols))

    # ------------------------------------------------------------------
    # Vectorized characterization fast paths
    # ------------------------------------------------------------------

    def row_failure_probabilities(
        self, bank: int, row: int, trcd_ns: float
    ) -> np.ndarray:
        """Failure probability of every cell in ``row`` as currently stored.

        Statistically identical to issuing many probe_word calls but
        computed analytically in one shot (and served from the
        :class:`~repro.dram.plane.ProbabilityPlane` while the stored
        state and operating point are unchanged); the workhorse behind
        the characterization experiments.
        """
        return self.plane.row_probabilities(
            bank, row, self.operating_point(trcd_ns)
        ).copy()

    def sample_row_fail_counts(
        self, bank: int, row: int, trcd_ns: float, iterations: int
    ) -> np.ndarray:
        """Failure counts per cell over ``iterations`` probes of ``row``.

        Matches Algorithm 1's refresh-then-reduced-read loop: conditions
        are identical each iteration, so the counts are binomial draws
        from the per-cell probabilities.
        """
        probs = self.plane.row_probabilities(
            bank, row, self.operating_point(trcd_ns)
        )
        return self._noise.binomial(iterations, probs)

    def sample_rows_fail_counts(
        self,
        bank: int,
        rows: Iterable[int],
        trcd_ns: float,
        iterations: int,
        out: Optional[np.ndarray] = None,
        noise: Optional[NoiseSource] = None,
    ) -> np.ndarray:
        """Failure counts for many rows of one bank in one binomial draw.

        Returns a ``(len(rows), cols_per_row)`` count matrix.  The draw
        consumes the noise stream exactly as per-row
        :meth:`sample_row_fail_counts` calls would, so seeded results
        are bit-identical to the per-row loop it replaces.

        ``out``, when given, receives the counts in place (it must be a
        ``(len(rows), cols_per_row)`` integer view) — the contract that
        lets parallel characterization workers write their tile of the
        caller's preallocated region array directly.  ``noise``
        substitutes a caller-owned stream (a
        :meth:`~repro.noise.NoiseSource.spawn_streams` child) for the
        device's own source; the device stream is left untouched.
        """
        op = self.operating_point(trcd_ns)
        plane = self.plane
        source = self._noise if noise is None else noise
        row_list = list(rows)
        cols = self._geometry.cols_per_row
        if not row_list:
            return (
                out
                if out is not None
                else np.zeros((0, cols), dtype=np.int64)
            )
        # One preallocated probability matrix, filled row-plane by
        # row-plane — no per-row intermediate list/stack churn.
        probs = np.empty((len(row_list), cols), dtype=np.float64)
        for i, row in enumerate(row_list):
            probs[i] = plane.row_probabilities(bank, row, op)
        counts = source.binomial(iterations, probs)
        if out is not None:
            out[...] = counts
            return out
        return counts

    def sample_cell_bits(
        self, bank: int, row: int, col: int, count: int, trcd_ns: float
    ) -> np.ndarray:
        """``count`` consecutive reduced-tRCD reads of one cell.

        Models Algorithm 2's steady state: the surrounding data pattern
        is held constant (write-back after every read), so each read is
        an independent Bernoulli flip of the stored bit.
        """
        self._geometry.validate_col(col)
        plane = self.plane
        stored_row = plane.row_stored(bank, row)
        probs = plane.row_probabilities(bank, row, self.operating_point(trcd_ns))
        flips = self._noise.bernoulli(np.full(count, probs[col]))
        stored_bit = int(stored_row[col])
        return np.where(flips, 1 - stored_bit, stored_bit).astype(np.uint8)

    # ------------------------------------------------------------------
    # Batched (compiled-plan) fast paths
    # ------------------------------------------------------------------

    def _validated_cells(self, cells: np.ndarray) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or (cells.size and cells.shape[1] != 3):
            raise ConfigurationError(
                f"cells must be (N, 3) coordinates, got shape {cells.shape}"
            )
        if cells.size:
            geometry = self._geometry
            bounds = (geometry.banks, geometry.rows_per_bank, geometry.cols_per_row)
            if (cells < 0).any() or (cells >= np.asarray(bounds)).any():
                raise ConfigurationError(
                    "cell coordinates out of range for geometry "
                    f"({geometry.banks} banks × {geometry.rows_per_bank} rows "
                    f"× {geometry.cols_per_row} cols)"
                )
        return cells

    def cells_stored_bits(self, cells: np.ndarray) -> np.ndarray:
        """Stored bit of every (bank, row, col) in ``cells``."""
        cells = self._validated_cells(cells)
        plane = self.plane
        out = np.empty(len(cells), dtype=np.uint8)
        rows: dict = {}
        for i, (bank, row, col) in enumerate(cells):
            key = (int(bank), int(row))
            stored = rows.get(key)
            if stored is None:
                stored = plane.row_stored(*key)
                rows[key] = stored
            out[i] = stored[col]
        return out

    def cells_failure_probabilities(
        self, cells: np.ndarray, trcd_ns: float
    ) -> np.ndarray:
        """Failure probability of every (bank, row, col) in ``cells``.

        Per-row vectors come from the probability plane, so repeated
        compilation over the same rows (the steady state of Algorithm 2)
        costs one dictionary lookup per distinct row.
        """
        cells = self._validated_cells(cells)
        op = self.operating_point(trcd_ns)
        plane = self.plane
        out = np.empty(len(cells), dtype=np.float64)
        rows: dict = {}
        for i, (bank, row, col) in enumerate(cells):
            key = (int(bank), int(row))
            probs = rows.get(key)
            if probs is None:
                probs = plane.row_probabilities(key[0], key[1], op)
                rows[key] = probs
            out[i] = probs[col]
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
        """``count`` reads of every cell in one batched draw.

        Returns a ``(count, N)`` iteration-major bit matrix — row ``i``
        holds iteration ``i``'s harvest across all cells, matching the
        order Algorithm 2 emits bits; column ``j`` is cell ``j``'s
        stream.

        ``mixture=False`` consumes the noise stream exactly as ``N``
        sequential :meth:`sample_cell_bits` calls (bit-identical for a
        seeded source) — the identification/verification contract.
        ``mixture=True`` uses the byte-plane mixture sampler
        (:meth:`~repro.noise.NoiseSource.bernoulli_plane`): the same
        exact per-cell Bernoulli distribution, an order of magnitude
        faster, but a different (still reproducible) seeded stream.

        ``compiled`` lets a caller holding a fresh
        :class:`~repro.core.plan.CompiledSamplePlan` hand over its
        :class:`~repro.noise.BernoulliPlane` (mixture only) and skip the
        per-cell recompute; it must describe the same ``cells`` at the
        current ``state_epoch`` (the plan's staleness check guarantees
        this on the generation hot path).  ``noise`` substitutes a
        caller-owned stream for the device's source (the parallel
        identification path hands each worker a
        :meth:`~repro.noise.NoiseSource.spawn_streams` child).
        """
        cells = self._validated_cells(cells)
        source = self._noise if noise is None else noise
        if compiled is not None and not mixture:
            raise ConfigurationError("a compiled plane drives the mixture sampler only")
        if mixture:
            if compiled is None:
                compiled = BernoulliPlane.compile(
                    self.cells_failure_probabilities(cells, trcd_ns),
                    invert=self.cells_stored_bits(cells),
                )
            elif compiled.size != len(cells):
                raise ConfigurationError(
                    f"compiled plane has {compiled.size} columns for {len(cells)} cells"
                )
            # The stored-bit XOR is folded into the sampling threshold
            # (``invert``), so the draw directly yields read bits.
            return source.bernoulli_plane(compiled, count).view(np.uint8)
        probs = self.cells_failure_probabilities(cells, trcd_ns)
        stored = self.cells_stored_bits(cells)
        matrix = np.broadcast_to(probs[:, np.newaxis], (len(cells), count))
        flips = source.bernoulli(matrix)
        bits = np.where(
            flips, (1 - stored)[:, np.newaxis], stored[:, np.newaxis]
        ).astype(np.uint8)
        return np.ascontiguousarray(bits.T)


class DeviceFactory:
    """Mints independent :class:`DramDevice` instances from a master seed.

    The paper characterizes 282 LPDDR4 devices — roughly balanced across
    manufacturers — plus 4 DDR3 devices.  ``DeviceFactory`` is the
    reproduction's stand-in for that drawer of chips.
    """

    def __init__(
        self,
        master_seed: int = 2019,
        timings: Optional[TimingParameters] = None,
        noise_seed: Optional[int] = None,
        geometry: Optional[DeviceGeometry] = None,
        module: Optional[Union[str, DramModule]] = None,
    ) -> None:
        if module is not None:
            if timings is not None:
                raise ConfigurationError(
                    "pass either timings= or module=, not both"
                )
            timings = resolve_timings(module)
        self._master_seed = master_seed
        self._timings = timings if timings is not None else LPDDR4_3200
        self._geometry = geometry
        self._noise_root = NoiseSource(noise_seed)
        # Characterization artifacts keyed per (device, backend): the
        # D-RaNGe and QUAC mechanisms probe different physics, so a
        # profile must never cross backends, and either backend's device
        # mutations (pattern writes bump the epoch) invalidate both.
        self._profiles: Dict[Tuple[str, str], "BackendProfile"] = {}

    def characterize(
        self, device: DramDevice, backend: "TrngBackend", **kwargs
    ) -> "BackendProfile":
        """Backend-specific characterization, cached per (device, backend).

        Re-runs ``backend.characterize(device, **kwargs)`` only when no
        fresh profile exists.  Freshness is the backend profile's own
        epoch contract (``profile.is_stale(device)``): any stored-state
        mutation — including *another* backend's characterization
        writing its data pattern — invalidates every cached profile of
        the device, for every backend.
        """
        key = (device.serial, str(backend.name))
        cached = self._profiles.get(key)
        if cached is not None and not cached.is_stale(device):
            return cached
        profile = backend.characterize(device, **kwargs)
        self._profiles[key] = profile
        return profile

    def cached_profiles(self) -> Dict[Tuple[str, str], "BackendProfile"]:
        """Snapshot of the characterization cache (keys: serial, backend)."""
        return dict(self._profiles)

    def make_device(self, manufacturer, index: int = 0, **kwargs) -> DramDevice:
        """Create device ``index`` of ``manufacturer``'s population.

        ``module=`` (a catalog part name or
        :class:`~repro.dram.modules.DramModule`) overrides the factory
        timings for this one device; mutually exclusive with a
        ``timings=`` override.
        """
        module = kwargs.pop("module", None)
        if module is not None:
            if "timings" in kwargs:
                raise ConfigurationError(
                    "pass either timings= or module=, not both"
                )
            kwargs["timings"] = resolve_timings(module)
        profile = profile_for(manufacturer)
        seed = int(
            hash_u64(
                np.uint64(self._master_seed),
                np.uint64(ord(profile.name[0])),
                np.uint64(index),
            )
        )
        return DramDevice(
            device_seed=seed,
            manufacturer=profile,
            geometry=kwargs.pop("geometry", self._geometry),
            timings=kwargs.pop("timings", self._timings),
            noise=kwargs.pop("noise", self._noise_root.spawn()),
            serial=f"{profile.name}-{index:05d}",
            **kwargs,
        )

    def population(self, per_manufacturer: int, **kwargs) -> List[DramDevice]:
        """A balanced device population across manufacturers A, B, C."""
        if per_manufacturer <= 0:
            raise ConfigurationError(
                f"per_manufacturer must be positive, got {per_manufacturer}"
            )
        devices = []
        for manufacturer in Manufacturer:
            for index in range(per_manufacturer):
                devices.append(self.make_device(manufacturer, index, **kwargs))
        return devices
