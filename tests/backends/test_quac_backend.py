"""QUAC backend: determinism, conditioning, epoch-contract invalidation."""

import numpy as np
import pytest

from repro.backends.quac import (
    QuacBackend,
    quac_iteration_time_ns,
)
from repro.core.profiling import Region
from repro.dram.device import DeviceFactory
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, StuckCellFault

REGION = Region(banks=(0, 1), row_start=0, row_count=16)


def _device():
    return DeviceFactory(master_seed=2019, noise_seed=7).make_device("A", 0)


def _prepared(device=None):
    device = device if device is not None else _device()
    backend = QuacBackend()
    profile = backend.characterize(device, region=REGION)
    return backend, profile, backend.compile_plan(profile)


class TestDeterminism:
    def test_identically_seeded_devices_agree(self):
        _, _, plan_a = _prepared()
        backend_a = QuacBackend()
        bits_a = backend_a.sample(plan_a, 4096)

        backend_b, _, plan_b = _prepared()
        bits_b = backend_b.sample(plan_b, 4096)
        assert np.array_equal(bits_a, bits_b)

    def test_consecutive_draws_differ(self):
        backend, _, plan = _prepared()
        first = backend.sample(plan, 2048)
        second = backend.sample(plan, 2048)
        assert not np.array_equal(first, second)

    def test_output_is_binary_and_roughly_balanced(self):
        backend, _, plan = _prepared()
        bits = backend.sample(plan, 16384)
        assert set(np.unique(bits)) <= {0, 1}
        assert 0.45 < bits.mean() < 0.55


class TestConditioning:
    def test_plan_reports_conditioned_output_rate(self):
        _, _, plan = _prepared()
        assert plan.raw_bits_per_iteration > 0
        # 512 raw -> 256 conditioned: output rate is half the raw rate.
        assert (
            plan.output_bits_per_iteration
            == plan.raw_bits_per_iteration * 256 // 512
        )

    def test_sample_validates_request(self):
        backend, _, plan = _prepared()
        with pytest.raises(ConfigurationError):
            backend.sample(plan, 0)
        with pytest.raises(ConfigurationError):
            backend.sample(plan, 64, out=np.empty(32, dtype=np.uint8))

    def test_out_buffer_roundtrip(self):
        backend, _, plan = _prepared()
        out = np.empty(128, dtype=np.uint8)
        bits = backend.sample(plan, 128, out=out)
        assert bits is out
        assert set(np.unique(out)) <= {0, 1}

    @pytest.mark.parametrize("num_bits", [100, 1000, 5000])
    def test_out_buffer_holds_the_same_bits_as_a_fresh_result(self, num_bits):
        # 5000 bits take several conditioned chunks; 100 and 1000 end
        # inside one, so the last chunk's tail is dropped.
        backend_a, _, plan_a = _prepared()
        backend_b, _, plan_b = _prepared()
        out = np.full(num_bits, 7, dtype=np.uint8)
        backend_a.sample(plan_a, num_bits, out=out)
        assert np.array_equal(out, backend_b.sample(plan_b, num_bits))

    def test_rejected_buffer_draws_no_noise(self):
        backend_a, _, plan_a = _prepared()
        backend_b, _, plan_b = _prepared()
        with pytest.raises(ConfigurationError):
            backend_a.sample(plan_a, 64, out=np.empty(64, dtype=np.int64))
        assert np.array_equal(
            backend_a.sample(plan_a, 512), backend_b.sample(plan_b, 512)
        )

    def test_plan_holds_its_compiled_plane(self):
        _, _, plan = _prepared()
        assert plan.bernoulli.size == plan.raw_bits_per_iteration
        assert np.array_equal(plan.bernoulli.probabilities, plan.probabilities)
        assert plan.bernoulli.invert is None


class TestEpochInvalidation:
    """Writes, environment changes, and faults all invalidate the plan."""

    def test_write_to_pattern_row_stales_the_plan(self):
        backend, profile, plan = _prepared()
        site = profile.sites[0]
        device = profile.device
        device.bank(site.bank).write_row(
            site.rows[0], np.ones(device.geometry.cols_per_row, dtype=np.uint8)
        )
        assert plan.is_stale(device)
        # Recompile heals: the pattern is rewritten and sampling works.
        fresh = backend.compile_plan(profile)
        assert not fresh.is_stale(device)
        assert backend.sample(fresh, 256).size == 256

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda device: device.set_temperature(60.0),
            lambda device: device.set_vdd_ratio(0.9),
            lambda device: device.power_cycle(),
        ],
        ids=["temperature", "voltage", "power-cycle"],
    )
    def test_environment_changes_stale_the_plan(self, mutate):
        backend, profile, plan = _prepared()
        mutate(profile.device)
        assert plan.is_stale(profile.device)
        assert not backend.compile_plan(profile).is_stale(profile.device)

    def test_fault_injection_stales_the_plan(self):
        injector = FaultInjector(_device())
        backend, profile, plan = _prepared(injector)
        injector.inject(StuckCellFault(value=1))
        assert plan.is_stale(injector)

    def test_invalidation_counter_moves_on_recompile(self):
        backend, profile, plan = _prepared()
        before = profile.plane.invalidations
        profile.device.set_temperature(55.0)
        backend.compile_plan(profile)
        assert profile.plane.invalidations == before + 1


class TestConfiguration:
    def test_group_rows_must_be_even_and_at_least_two(self):
        with pytest.raises(ConfigurationError):
            QuacBackend(group_rows=3)
        with pytest.raises(ConfigurationError):
            QuacBackend(group_rows=0)

    def test_digest_cannot_exceed_block(self):
        with pytest.raises(ConfigurationError):
            QuacBackend(block_bits=256, digest_bits=512)

    def test_iteration_time_is_positive_and_scales_with_work(self):
        device = _device()
        one = quac_iteration_time_ns(
            device.timings, num_banks=1,
            words_per_row=device.geometry.words_per_row,
        )
        two = quac_iteration_time_ns(
            device.timings, num_banks=2,
            words_per_row=device.geometry.words_per_row,
        )
        assert 0 < one <= two
