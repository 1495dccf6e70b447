"""Golden digests for :meth:`repro.noise.NoiseSource.bernoulli_plane`.

The mixture sampler's seeded output is part of the stream contract:
every served D-RaNGe and QUAC bit passes through it.  Each case below
pins the SHA-256 of the drawn matrix together with the next draws the
generator yields after the call, so both the bits and the exact amount
of generator stream consumed are fixed.  The digests were recorded
from the per-call sampler that compiled no plane, before the compiled
form existed; a compiled plane must reproduce them draw for draw.
"""

import hashlib

import numpy as np
import pytest

from repro.faults import BiasDriftFault, CellAgingFault, FaultyNoiseSource
from repro.noise import BernoulliPlane, NoiseSource


def _cases():
    """name -> (noise seed, probabilities, count, invert)."""
    rng = np.random.default_rng(20190216)
    drange_p = rng.uniform(0.3, 0.7, 12)
    drange_inv = rng.integers(0, 2, 12).astype(np.uint8)
    quac_p = np.clip(rng.normal(0.5, 0.15, 2048), 0.0, 1.0)
    wide_p = rng.uniform(0.0, 1.0, 5000)
    wide_inv = rng.integers(0, 2, 5000).astype(bool)
    pinned_p = np.array([0.0, 1.0, 0.0, 1.0, -0.1, 1.5, 0.5, 0.25, 1.0, 0.0])
    pinned_inv = np.array([0, 0, 1, 1, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
    # q == 0 with a sub-ULP-scale correction: log1p(-w) is tiny, raw
    # gaps overflow count by hundreds of orders and hit the fmin clamp.
    tiny_p = np.array([1e-300, 1e-15, 1e-9, 3.0 / 256 + 1e-13, 5e-324])
    # q close to 1 leaves w near 1: most draws are corrections, so each
    # cell needs far more than a handful of gap slots.
    large_p = np.array([0.999, 0.9999, 255.9 / 256, 0.998, 0.9975, 0.5])
    return {
        "drange-3": (11, drange_p, 3, drange_inv),
        "drange-173": (12, drange_p, 173, drange_inv),
        "drange-1000": (13, drange_p, 1000, drange_inv),
        "quac-8": (21, quac_p, 8, None),
        "quac-64": (22, quac_p, 64, None),
        "quac-500": (23, quac_p, 500, None),
        "wide-random": (31, wide_p, 37, wide_inv),
        "pinned": (41, pinned_p, 50, pinned_inv),
        "tiny-w": (51, tiny_p, 1000, None),
        "large-w": (61, large_p, 1000, None),
        "large-w-invert": (62, large_p, 300, np.ones(6, dtype=np.uint8)),
        # Every cell expects under one hit, so all take the head pass;
        # the few that draw four or more go on to the segment pass.
        "head-spill": (65, np.full(512, 0.7522), 100, None),
        "count-0": (71, quac_p, 0, None),
        "count-1": (72, quac_p, 1, None),
        "count-1-invert": (73, drange_p, 1, drange_inv),
        "empty": (81, np.zeros(0), 5, None),
    }


def _digest(flips, source):
    """SHA-256 over the matrix bytes and the generator's next draws."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(flips).view(np.uint8).tobytes())
    h.update(source.uniform(8).tobytes())
    return h.hexdigest()


def _faulted_draws(plane_of):
    """Digest of draws through a scheduled-fault source.

    A bias-drift window covers the stream from bit 100 on and a
    probability-raising aging window from bit 2000, so the source's
    full-matrix fallback runs with and without a probability transform.
    ``plane_of(probs, invert)`` maps the inputs to the first argument
    and keyword arguments of ``bernoulli_plane`` (raw arrays with an
    ``invert`` keyword, or a compiled plane).
    """
    cases = _cases()
    _, drange_p, _, drange_inv = cases["drange-173"]
    quac_p = cases["quac-8"][1]
    source = FaultyNoiseSource(seed=91)
    source.schedule.add(BiasDriftFault(rate_per_bit=1e-3), start_bit=100)
    source.schedule.add(
        CellAgingFault(decay_per_bit=1e-4, max_decay=0.3), start_bit=2000
    )
    h = hashlib.sha256()
    for probs, count, invert in (
        (drange_p, 173, drange_inv),
        (drange_p, 173, drange_inv),
        (quac_p, 4, None),
    ):
        plane, kwargs = plane_of(probs, invert)
        flips = source.bernoulli_plane(plane, count, **kwargs)
        assert flips.shape == (count, probs.size)
        h.update(np.ascontiguousarray(flips).view(np.uint8).tobytes())
    h.update(source.uniform(8).tobytes())
    h.update(str(source.draws_elapsed).encode())
    return h.hexdigest()


GOLDEN = {
    "count-0": "69ba0c4cefd61516b6f7dbdbd5561278050adcc03e22724965702b9332169c44",
    "count-1": "a56e42324b0eb38180d37e144779c0f793e4f228f7365bcc13c04359cc0fd301",
    "count-1-invert": "ca37b47594379fcfe2a27b176e87d88bd7a189452e3f4c9f413c931c7d419f52",
    "drange-1000": "02fc8d573e9f8c95d841db010e40425fd547fe2aae4f96894bf63e1a12649a71",
    "drange-173": "9ac6ae97c4d461e5e5cc7c4d901e0d86bb7c4c5a5d631ded86bf969a0d4f2c5a",
    "drange-3": "f1edd215a781f95535d5cb3cc30d3397cdd97ded53d1108f6a822b36792d579d",
    "empty": "b0015f2497b79dd13bdce8e0d3e8ad06c2396772fd4aeffee0838a832abad1cf",
    "head-spill": "c1fe45cb920b0419635f3e30b0257c8077143db52154b4b096b7fb88754164cf",
    "large-w": "c5fa33c082a75fdea5caeb91e75c34c510e0faa283e649f625b5236a1935920e",
    "large-w-invert": "f768ea49ddeb67cda04e9518d5a663b34026b2aabee0c49027d597d5b955a17c",
    "pinned": "734e2b78984ed92acc05f76763c8fd45a72190606f3d8804c18ea9c3931416d5",
    "quac-500": "ef27628e5838753fb494507b758a80bb80957f0428f28c0feabc310b44f45ec5",
    "quac-64": "4a9c022bb7ae125004ade02616d74e92495b582202d5c8bf71a3b1a2a7b4cd8a",
    "quac-8": "b002f7ceaf4ca89cd5d2c143aadc441a0d41d9a2e1ab90cc41ad2de497ba7984",
    "tiny-w": "73104096c6be970608b5d62a3cd7f7fd20035e4fc15f65834eaa70c19a20b922",
    "wide-random": "e1125130266a525e95b1d8f1284e61bd08b3006af9b0b830de7952dc74208db0",
}

FAULTED_GOLDEN = "6be737312ea70d76a44fb699d52dc2eebbe7f7248d959c4a2de94e72298a7554"


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_raw_plane_matches_golden_digest(name):
    seed, probs, count, invert = CASES[name]
    source = NoiseSource(seed=seed)
    flips = source.bernoulli_plane(probs, count, invert=invert)
    assert flips.dtype == np.bool_
    assert flips.shape == (count, probs.size)
    assert _digest(flips, source) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_compiled_plane_matches_golden_digest(name):
    seed, probs, count, invert = CASES[name]
    plane = BernoulliPlane.compile(probs, invert)
    source = NoiseSource(seed=seed)
    # Twice through the same plane: the second call reuses the cached
    # gap layout and must consume the stream exactly like the first.
    first = source.bernoulli_plane(plane, count)
    assert _digest(first, source) == GOLDEN[name]
    source = NoiseSource(seed=seed)
    again = source.bernoulli_plane(plane, count)
    assert _digest(again, source) == GOLDEN[name]


def test_compiled_plane_rejects_a_second_invert_mask():
    plane = BernoulliPlane.compile(np.full(4, 0.5), np.ones(4))
    with pytest.raises(ValueError):
        NoiseSource(seed=1).bernoulli_plane(plane, 3, invert=np.ones(4))


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        NoiseSource(seed=1).bernoulli_plane(np.full(4, 0.5), -1)


def test_compiled_plane_is_read_only():
    plane = BernoulliPlane.compile(np.array([0.2, 0.7, 1.0]), np.array([0, 1, 0]))
    for array in (plane.probabilities, plane.invert, plane.threshold, plane.w):
        assert not array.flags.writeable
    assert plane.size == 3
    assert plane.pinned.tolist() == [2]


def test_layout_cache_stays_bounded():
    plane = BernoulliPlane.compile(np.full(300, 0.501))
    source = NoiseSource(seed=1)
    for count in range(1, 40):
        source.bernoulli_plane(plane, count)
    assert len(plane._layouts) <= 8


class _ZeroUniforms:
    """A generator whose uniforms are all 0: every correction gap is 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size):
        return np.zeros(size)


def test_tail_loop_finishes_cells_whose_budget_ran_out():
    # With unit gaps a cell's budget covers only its first ``budget``
    # rows; the resample loop must place a hit in every later row.
    probs = np.array([0.1 / 256, 0.0, 0.5 + 0.2 / 256, 1.0])
    source = NoiseSource(seed=1)
    source._rng = _ZeroUniforms(5)
    flips = source.bernoulli_plane(probs, 400)
    assert flips[:, 0].all() and flips[:, 2].all() and flips[:, 3].all()
    assert not flips[:, 1].any()


class TestFaultedSource:
    def test_raw_plane_under_fault_windows_matches_golden(self):
        assert _faulted_draws(lambda p, inv: (p, {"invert": inv})) == FAULTED_GOLDEN

    def test_compiled_plane_falls_back_to_its_inputs(self):
        digest = _faulted_draws(
            lambda p, inv: (BernoulliPlane.compile(p, inv), {})
        )
        assert digest == FAULTED_GOLDEN
