"""Compiled sampling plan, probability plane, and epoch tests.

The batched pipeline's contract is layered:

* seeded A/B equivalence — the batched device paths must be
  bit-identical to the per-cell/per-row loops they replaced (twin
  devices with identical seeds, one per path);
* epoch invalidation — every stored-state/operating-point mutation must
  make cached planes and compiled plans stale;
* fail-fast — an empty plan must be rejected before any command issues.
"""

import numpy as np
import pytest

from repro.core.drange import DRange
from repro.core.plan import CompiledSamplePlan, compile_cells
from repro.core.profiling import Region
from repro.core.sampler import DRangeSampler
from repro.core.selection import BankPlan, WordChoice
from repro.dram.device import DeviceFactory
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, StuckCellFault
from repro.memctrl.controller import MemoryController
from repro.testbed.chamber import ThermalChamber

TRCD = 10.0

#: A scatter of coordinates across banks/rows/cols, including repeats
#: within one row (the plan steady state) and geometry corners.
CELLS = np.array(
    [
        [0, 10, 5],
        [0, 10, 300],
        [1, 20, 100],
        [3, 500, 700],
        [7, 4095, 1023],
    ],
    dtype=np.int64,
)


def _make_device(noise_seed=123):
    return DeviceFactory(master_seed=2019, noise_seed=noise_seed).make_device("A", 0)


def _twin_devices(noise_seed=123):
    """Two devices with identical cell fabric and identical noise streams."""
    return _make_device(noise_seed), _make_device(noise_seed)


# ----------------------------------------------------------------------
# Seeded A/B equivalence: batched vs per-cell / per-row
# ----------------------------------------------------------------------


class TestBatchedEquivalence:
    def test_sample_cells_bits_matches_per_cell_loop(self):
        device_a, device_b = _twin_devices()
        batched = device_a.sample_cells_bits(CELLS, 64, TRCD)
        columns = [
            device_b.sample_cell_bits(int(b), int(r), int(c), 64, TRCD)
            for b, r, c in CELLS
        ]
        assert np.array_equal(batched, np.stack(columns, axis=1))

    def test_sample_rows_fail_counts_matches_per_row_loop(self):
        device_a, device_b = _twin_devices(noise_seed=7)
        rows = list(range(32))
        # Materialize the rows in identical order on both devices first:
        # lazy startup-state draws share the noise stream, and Algorithm 1
        # always writes the pattern before counting anyway.
        for device in (device_a, device_b):
            for row in rows:
                device.row_failure_probabilities(0, row, TRCD)
        batched = device_a.sample_rows_fail_counts(0, rows, TRCD, 100)
        per_row = np.stack(
            [device_b.sample_row_fail_counts(0, row, TRCD, 100) for row in rows]
        )
        assert np.array_equal(batched, per_row)

    def test_cells_failure_probabilities_match_row_slices(self):
        device = _make_device()
        probs = device.cells_failure_probabilities(CELLS, TRCD)
        for value, (bank, row, col) in zip(probs, CELLS):
            row_probs = device.row_failure_probabilities(int(bank), int(row), TRCD)
            assert value == row_probs[col]

    def _marginal_cells(self, device, want=6):
        """Coordinates with mid-range failure probability (plus CELLS)."""
        found = []
        for row in range(64):
            probs = device.row_failure_probabilities(0, row, TRCD)
            for col in np.nonzero((probs > 0.05) & (probs < 0.95))[0]:
                found.append((0, row, int(col)))
                if len(found) >= want:
                    return np.asarray(found, dtype=np.int64)
        return np.asarray(found, dtype=np.int64)

    def test_mixture_sampling_matches_plan_probabilities(self):
        device = _make_device(noise_seed=31)
        marginal = self._marginal_cells(device)
        cells = np.concatenate([CELLS, marginal]) if marginal.size else CELLS
        count = 20_000
        probs = device.cells_failure_probabilities(cells, TRCD)
        stored = device.cells_stored_bits(cells)
        bits = device.sample_cells_bits(cells, count, TRCD, mixture=True)
        assert bits.shape == (count, len(cells))
        flips = bits ^ stored[np.newaxis, :]
        sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / count)
        assert (np.abs(flips.mean(axis=0) - probs) <= 5 * sigma + 1e-9).all()

    def test_faulted_batched_matches_per_cell_loop(self):
        injector_a = FaultInjector(_twin_devices(noise_seed=47)[0])
        injector_b = FaultInjector(_make_device(noise_seed=47))
        for injector in (injector_a, injector_b):
            injector.inject(StuckCellFault(value=1), start_bit=100, end_bit=200)
        batched = injector_a.sample_cells_bits(CELLS, 64, TRCD)
        columns = [
            injector_b.sample_cell_bits(int(b), int(r), int(c), 64, TRCD)
            for b, r, c in CELLS
        ]
        assert np.array_equal(batched, np.stack(columns, axis=1))
        assert injector_a.bits_elapsed == injector_b.bits_elapsed

    def test_rejects_out_of_range_coordinates(self):
        device = _make_device()
        bad = np.array([[0, 0, device.geometry.cols_per_row]], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            device.sample_cells_bits(bad, 4, TRCD)


# ----------------------------------------------------------------------
# compile_cells: the word-less identification-path plan
# ----------------------------------------------------------------------


class TestCompileCells:
    def test_snapshot_matches_device_state(self):
        device = _make_device()
        plan = compile_cells(device, CELLS, TRCD)
        assert plan.n_cells == len(CELLS)
        assert plan.words == ()
        assert np.array_equal(plan.cells, CELLS)
        assert np.array_equal(
            plan.probabilities, device.cells_failure_probabilities(CELLS, TRCD)
        )
        assert np.array_equal(plan.stored_bits, device.cells_stored_bits(CELLS))
        assert plan.epoch == device.state_epoch
        assert not plan.is_stale(device)

    def test_arrays_are_read_only(self):
        plan = compile_cells(_make_device(), CELLS, TRCD)
        for array in (plan.cells, plan.stored_bits, plan.probabilities):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_bernoulli_plane_is_compiled_from_the_snapshot(self):
        plan = compile_cells(_make_device(), CELLS, TRCD)
        assert np.array_equal(plan.bernoulli.probabilities, plan.probabilities)
        assert np.array_equal(plan.bernoulli.invert, plan.stored_bits.astype(bool))

    def test_compiled_plane_draws_match_the_per_call_compile(self):
        device_a, device_b = _twin_devices(noise_seed=53)
        plan = compile_cells(device_a, CELLS, TRCD)
        for count in (3, 700, 3):
            fresh = device_a.sample_cells_bits(
                CELLS, count, TRCD, mixture=True, compiled=plan.bernoulli
            )
            per_call = device_b.sample_cells_bits(CELLS, count, TRCD, mixture=True)
            assert np.array_equal(fresh, per_call)

    def test_compiled_plane_is_mixture_only_and_sized_to_the_cells(self):
        device = _make_device()
        plan = compile_cells(device, CELLS, TRCD)
        with pytest.raises(ConfigurationError):
            device.sample_cells_bits(CELLS, 4, TRCD, compiled=plan.bernoulli)
        with pytest.raises(ConfigurationError):
            device.sample_cells_bits(
                CELLS[:2], 4, TRCD, mixture=True, compiled=plan.bernoulli
            )


# ----------------------------------------------------------------------
# Full pipeline: compiled plan vs the manual Algorithm 2 loop
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def prepared_pair():
    """Two identically seeded, identically prepared D-RaNGe pipelines."""
    pair = []
    for _ in range(2):
        device = DeviceFactory(master_seed=2019, noise_seed=17).make_device("A", 0)
        drange = DRange(device)
        cells = drange.prepare(
            region=Region(banks=(0, 1, 2, 3), row_start=0, row_count=512),
            iterations=100,
        )
        if not cells:
            pytest.skip("no RNG cells identified for this seed")
        pair.append(drange)
    return pair


class TestCompiledPlanPipeline:
    def test_plan_mirrors_selected_words(self, prepared_pair):
        drange = prepared_pair[0]
        plan = drange.compiled_plan()
        sampler = drange.sampler()
        assert isinstance(plan, CompiledSamplePlan)
        assert plan.n_cells == sampler.data_rate_bits_per_iteration
        assert len(plan.words) == 2 * len(sampler.plans)
        # Word starts tile the flat arrays contiguously, in command order.
        cursor = 0
        for word in plan.words:
            assert word.start == cursor
            cursor += word.n_cells
        assert cursor == plan.n_cells

    def test_plan_cached_until_epoch_moves(self, prepared_pair):
        drange = prepared_pair[0]
        first = drange.compiled_plan()
        assert drange.compiled_plan() is first
        device = drange.device
        device.bank(0).write_row(0, np.zeros(device.geometry.cols_per_row, np.uint8))
        assert first.is_stale(device)
        recompiled = drange.compiled_plan()
        assert recompiled is not first
        assert not recompiled.is_stale(device)

    def test_generate_matches_manual_harvest(self, prepared_pair):
        drange_a, drange_b = prepared_pair
        num_bits = 3 * drange_a.sampler().data_rate_bits_per_iteration - 5
        produced = drange_a.sampler().generate(num_bits)

        # Replay the pre-refactor per-word loop on the twin pipeline.
        sampler = drange_b.sampler()
        controller = drange_b.controller
        geometry = drange_b.device.geometry
        pattern = sampler.pattern
        sampler.setup()
        try:
            harvested = []
            while len(harvested) < num_bits:
                for plan in sampler.plans:
                    for choice in (plan.word1, plan.word2):
                        read = controller.reduced_read(
                            choice.bank, choice.row, choice.word
                        )
                        offsets = [
                            cell.col % geometry.word_bits for cell in choice.cells
                        ]
                        harvested.extend(int(read[o]) for o in offsets)
                        controller.writeback(
                            choice.bank,
                            choice.word,
                            pattern.values(
                                np.int64(choice.row),
                                np.asarray(geometry.word_cols(choice.word)),
                            ),
                        )
                        controller.precharge(choice.bank)
        finally:
            sampler.teardown()
        assert np.array_equal(produced, np.asarray(harvested[:num_bits], np.uint8))

    def test_generate_fast_draws_from_plan_cells(self, prepared_pair):
        drange = prepared_pair[0]
        plan = drange.compiled_plan()
        bits = drange.sampler().generate_fast(4 * plan.n_cells + 3)
        assert bits.size == 4 * plan.n_cells + 3
        assert np.isin(bits, (0, 1)).all()


# ----------------------------------------------------------------------
# Epoch bookkeeping
# ----------------------------------------------------------------------


class TestEpochInvalidation:
    def test_write_row_bumps_epoch(self):
        device = _make_device()
        epoch = device.state_epoch
        device.bank(2).write_row(9, np.ones(device.geometry.cols_per_row, np.uint8))
        assert device.state_epoch > epoch

    def test_temperature_bumps_only_on_change(self):
        device = _make_device()
        epoch = device.state_epoch
        device.set_temperature(device.temperature_c)
        assert device.state_epoch == epoch
        device.set_temperature(device.temperature_c + 5.0)
        assert device.state_epoch > epoch

    def test_vdd_ratio_bumps_only_on_change(self):
        device = _make_device()
        epoch = device.state_epoch
        device.set_vdd_ratio(device.vdd_ratio)
        assert device.state_epoch == epoch
        device.set_vdd_ratio(device.vdd_ratio * 0.95)
        assert device.state_epoch > epoch

    def test_power_cycle_bumps_epoch(self):
        device = _make_device()
        epoch = device.state_epoch
        device.power_cycle()
        assert device.state_epoch > epoch

    def test_injector_inject_and_heal_bump_epoch(self):
        injector = FaultInjector(_make_device())
        plan = compile_cells(injector, CELLS, TRCD)
        epoch = injector.state_epoch
        injector.inject(StuckCellFault(value=1))
        assert injector.state_epoch > epoch
        assert plan.is_stale(injector)
        epoch = injector.state_epoch
        injector.heal()
        assert injector.state_epoch > epoch

    def test_plane_invalidates_on_mutation(self):
        device = _make_device()
        plane = device.plane
        op = device.operating_point(TRCD)
        before = plane.row_probabilities(0, 3, op).copy()
        assert plane.misses > 0
        plane.row_probabilities(0, 3, op)
        assert plane.hits > 0
        invalidations = plane.invalidations
        device.bank(0).write_row(3, np.ones(device.geometry.cols_per_row, np.uint8))
        after = plane.row_probabilities(0, 3, op)
        assert plane.invalidations == invalidations + 1
        assert not np.array_equal(before, after)
        assert np.array_equal(
            plane.row_stored(0, 3), np.ones(device.geometry.cols_per_row, np.uint8)
        )

    def test_plane_rows_are_read_only(self):
        device = _make_device()
        probs = device.plane.row_probabilities(1, 2, device.operating_point(TRCD))
        stored = device.plane.row_stored(1, 2)
        for array in (probs, stored):
            with pytest.raises(ValueError):
                array[0] = 0


# ----------------------------------------------------------------------
# Thermal chamber membership
# ----------------------------------------------------------------------


class TestChamberMembership:
    def test_devices_and_contains(self):
        device_a, device_b = _twin_devices()
        chamber = ThermalChamber([device_a])
        assert chamber.devices == (device_a,)
        assert device_a in chamber
        # Identity semantics: an equal-but-distinct device is not held.
        assert device_b not in chamber
        chamber.add_device(device_b)
        assert chamber.devices == (device_a, device_b)

    def test_prepare_at_temperatures_adds_device_once(self):
        device = _make_device()
        drange = DRange(device)
        chamber = ThermalChamber()
        region = Region(banks=(0,), row_start=0, row_count=4)
        drange.prepare_at_temperatures(
            chamber, [60.0], region=region, iterations=2, samples=100
        )
        assert chamber.devices == (device,)
        # A second pass must not add a duplicate.
        drange.prepare_at_temperatures(
            chamber, [62.0], region=region, iterations=2, samples=100
        )
        assert chamber.devices == (device,)


# ----------------------------------------------------------------------
# Fail-fast on empty plans
# ----------------------------------------------------------------------


class TestZeroRateFailFast:
    def _empty_sampler(self):
        device = _make_device()
        plan = BankPlan(
            word1=WordChoice(bank=0, row=1, word=0, cells=()),
            word2=WordChoice(bank=0, row=3, word=1, cells=()),
        )
        return DRangeSampler(MemoryController(device), [plan], trcd_ns=TRCD)

    def test_generate_rejects_before_any_command(self):
        sampler = self._empty_sampler()
        with pytest.raises(ConfigurationError):
            sampler.generate(16)
        assert len(sampler._controller.engine.trace) == 0

    def test_generate_fast_rejects_before_any_command(self):
        sampler = self._empty_sampler()
        with pytest.raises(ConfigurationError):
            sampler.generate_fast(16)
        assert len(sampler._controller.engine.trace) == 0
