"""Bitstream utilities shared by the NIST tests."""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.errors import InsufficientDataError

BitsLike = Union[np.ndarray, bytes, bytearray, Iterable[int]]


def as_bits(data: BitsLike) -> np.ndarray:
    """Normalize input into a uint8 array of 0/1 bits.

    Accepts a 0/1 integer or boolean array/iterable, or raw ``bytes``
    which are unpacked MSB-first.  Boolean input holds only 0/1 by
    construction and is not scanned; integer input is range-checked
    with one ``min``/``max`` pass; anything else is checked value by
    value.
    """
    if isinstance(data, (bytes, bytearray)):
        return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
    bits = np.asarray(data)
    if bits.ndim != 1:
        raise ValueError(f"bitstream must be 1-D, got shape {bits.shape}")
    if bits.size and bits.dtype != np.bool_:
        if np.issubdtype(bits.dtype, np.integer):
            valid = bits.min() >= 0 and bits.max() <= 1
        else:
            valid = np.isin(bits, (0, 1)).all()
        if not valid:
            raise ValueError("bitstream must contain only 0s and 1s")
    return bits.astype(np.uint8)


def require_length(bits: np.ndarray, minimum: int, test_name: str) -> None:
    """Raise :class:`InsufficientDataError` for too-short streams."""
    if bits.size < minimum:
        raise InsufficientDataError(
            f"{test_name} requires at least {minimum} bits, got {bits.size}"
        )


def to_pm1(bits: np.ndarray) -> np.ndarray:
    """Map bits {0, 1} to {−1, +1} as float64."""
    return 2.0 * bits.astype(np.float64) - 1.0


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 array into bytes, MSB-first (inverse of :func:`as_bits`)."""
    return np.packbits(as_bits(bits)).tobytes()


def pattern_codes(bits: np.ndarray, m: int, wrap: bool = True) -> np.ndarray:
    """Integer code of every (overlapping) m-bit window.

    With ``wrap=True`` (the serial / approximate-entropy convention) the
    stream is extended circularly so there are exactly ``n`` windows.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    bits = as_bits(bits)
    if wrap:
        extended = np.concatenate([bits, bits[: m - 1]]) if m > 1 else bits
    else:
        extended = bits
    n_windows = extended.size - m + 1
    if n_windows <= 0:
        raise ValueError(f"stream of {bits.size} bits has no {m}-bit windows")
    codes = np.zeros(n_windows, dtype=np.int64)
    for k in range(m):
        codes = (codes << 1) | extended[k : k + n_windows]
    return codes


def pattern_counts(bits: np.ndarray, m: int, wrap: bool = True) -> np.ndarray:
    """Occurrence count of each of the 2**m patterns."""
    codes = pattern_codes(bits, m, wrap=wrap)
    return np.bincount(codes, minlength=1 << m).astype(np.float64)
