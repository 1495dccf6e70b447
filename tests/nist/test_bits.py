"""Bitstream utility tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientDataError
from repro.nist import bits as B


class TestAsBits:
    def test_accepts_list(self):
        assert B.as_bits([1, 0, 1]).tolist() == [1, 0, 1]

    def test_accepts_bytes_msb_first(self):
        assert B.as_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert B.as_bits(b"\x01").tolist() == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            B.as_bits([0, 2])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            B.as_bits(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 1, 2], dtype=np.int64),
            np.array([0, 1, 2], dtype=np.uint8),
            np.array([1, -1, 0], dtype=np.int8),
            np.array([0.0, 0.5, 1.0]),
            np.array([1.0, -1.0]),
        ],
        ids=["int64-2", "uint8-2", "int8-neg", "float-half", "float-neg"],
    )
    def test_rejects_out_of_range_values_of_every_dtype(self, bad):
        with pytest.raises(ValueError):
            B.as_bits(bad)

    @pytest.mark.parametrize(
        "two_d",
        [np.zeros((2, 2), dtype=np.bool_), np.zeros((2, 2), dtype=np.uint8)],
        ids=["bool", "uint8"],
    )
    def test_rejects_2d_of_every_dtype(self, two_d):
        with pytest.raises(ValueError):
            B.as_bits(two_d)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float64])
    def test_valid_input_of_every_dtype_becomes_uint8(self, dtype):
        bits = B.as_bits(np.array([1, 0, 1, 1], dtype=dtype))
        assert bits.dtype == np.uint8
        assert bits.tolist() == [1, 0, 1, 1]

    def test_result_does_not_alias_the_input(self):
        source = np.array([True, False])
        bits = B.as_bits(source)
        bits[0] = 0
        assert source[0]

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50)
    def test_pack_unpack_roundtrip(self, raw):
        assert B.pack_bits(B.as_bits(raw)) == raw


class TestRequireLength:
    def test_passes_when_long_enough(self):
        B.require_length(np.zeros(100, dtype=np.uint8), 100, "t")

    def test_raises_when_short(self):
        with pytest.raises(InsufficientDataError):
            B.require_length(np.zeros(99, dtype=np.uint8), 100, "t")


class TestPmOne:
    def test_mapping(self):
        assert B.to_pm1(np.array([0, 1, 1])).tolist() == [-1.0, 1.0, 1.0]


class TestPatternCodes:
    def test_wrap_produces_n_windows(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        codes = B.pattern_codes(bits, 2, wrap=True)
        assert codes.size == 4
        # Windows: 10, 01, 11, 1|1(wrap) → 2, 1, 3, 3.
        assert codes.tolist() == [2, 1, 3, 3]

    def test_no_wrap(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        codes = B.pattern_codes(bits, 2, wrap=False)
        assert codes.tolist() == [2, 1, 3]

    def test_counts_sum_to_windows(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        counts = B.pattern_counts(bits, 3)
        assert counts.sum() == 1000
        assert counts.size == 8

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            B.pattern_codes(np.array([1, 0], dtype=np.uint8), 0)
