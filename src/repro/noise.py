"""Physical-noise abstraction: the simulator's source of true randomness.

In real hardware, the entropy D-RaNGe harvests comes from thermal noise
at the sense amplifiers during a deliberately-too-early read.  In this
reproduction the same role is played by :class:`NoiseSource`: every
reduced-latency read draws its marginal-cell outcomes from this source.

Two operating modes exist:

* ``NoiseSource()`` — seeded from OS entropy (``numpy`` default entropy
  pool).  This is the "true random" mode used by examples and NIST runs.
* ``NoiseSource(seed=...)`` — deterministic, for reproducible unit tests
  and benchmarks.

Keeping the noise source *separate* from the process-variation field
(:mod:`repro.dram.variation`) mirrors the physics: manufacturing
variation is frozen at fab time and fully deterministic per device,
whereas read noise is drawn fresh on every access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

#: Shape accepted by the drawing methods: a scalar length, a full shape
#: tuple, or ``None`` for "a single scalar draw" where supported.
ShapeLike = Union[int, Tuple[int, ...]]


#: Gap slots evaluated up front for every correction cell expecting at
#: most one hit (two thirds of a QUAC row gets no hit at all): such a
#: cell needs four or more slots with probability under 2%, and then
#: finishes in the segment pass.
_HEAD_SLOTS = 4

#: Fewest such cells for which the head pass pays: it costs about a
#: dozen numpy calls whatever the plane's size, roughly the per-slot
#: work it saves on several dozen cells.  With fewer, every cell goes
#: straight to the segment pass.
_HEAD_MIN_CELLS = 64

#: Distinct ``count`` values whose gap layout a compiled plane keeps.
_LAYOUT_CACHE_SIZE = 8


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _gaps(
    u: npt.NDArray[np.float64], log_w: npt.ArrayLike, count: int
) -> npt.NDArray[np.int64]:
    """Geometric inter-arrival gaps ``1 + floor(log(1−u)/log(1−w))``.

    Tiny ``w`` makes raw gaps astronomically large; they are clamped to
    ``count`` before the integer cast (a gap of ``count + 1`` already
    lands every later position past the matrix, so clamping is exact).
    """
    raw = np.fmin(np.floor(np.log1p(-u) / log_w), float(count))
    return 1 + raw.astype(np.int64)


@dataclass(frozen=True)
class _Segments:
    """The gap slots one segment pass evaluates.

    Correction cell ``cells[i]`` contributes the run of its budget from
    slot ``skip`` on (0, or :data:`_HEAD_SLOTS` for a head cell resuming
    after its head).  ``slots`` indexes the uniform block, run after
    run, each ``runs[i]`` long and ending at ``ends[i]``; ``log_w`` and
    ``cols`` repeat each cell's weight and flip column over its run.
    """

    cells: npt.NDArray[np.int64]
    runs: npt.NDArray[np.int64]
    ends: npt.NDArray[np.int64]
    slots: npt.NDArray[np.int64]
    log_w: npt.NDArray[np.float64]
    cols: npt.NDArray[np.int64]

    @classmethod
    def build(
        cls,
        plane: "BernoulliPlane",
        budget: npt.NDArray[np.int64],
        starts: npt.NDArray[np.int64],
        cells: npt.NDArray[np.int64],
        skip: Union[int, npt.NDArray[np.int64]],
    ) -> "_Segments":
        # Every budget is at least 16 slots, more than the head, so
        # every run is non-empty.
        runs = budget[cells] - skip
        ends = np.cumsum(runs)
        slots = np.arange(ends[-1]) + np.repeat(
            starts[cells] + skip - (ends - runs), runs
        )
        return cls(
            cells=cells,
            runs=runs,
            ends=ends,
            slots=slots,
            log_w=np.repeat(plane.log_w[cells], runs),
            cols=np.repeat(plane.cells[cells], runs),
        )


@dataclass(frozen=True)
class _GapLayout:
    """Where each correction cell's gap slots sit in the uniform block.

    Correction cell ``k`` owns ``budget[k]`` slots from ``starts[k]``
    on, ``total`` in all.  Cells expecting at most one hit in ``count``
    rows are ``head`` cells: their first :data:`_HEAD_SLOTS` slots
    (``head_slots``, one row per cell) are evaluated together, and only
    the few still short of ``count`` go on to a segment pass.  The
    others go to the segment pass directly (``direct``).
    """

    budget: npt.NDArray[np.int64]
    starts: npt.NDArray[np.int64]
    total: int
    head: npt.NDArray[np.int64]
    head_slots: npt.NDArray[np.int64]
    head_log_w: npt.NDArray[np.float64]
    head_cols: npt.NDArray[np.int64]
    direct: Optional[_Segments]

    @classmethod
    def build(cls, plane: "BernoulliPlane", count: int) -> "_GapLayout":
        expected = count * plane.w
        budget = np.ceil(expected + 8.0 * np.sqrt(expected) + 16.0).astype(np.int64)
        ends = np.cumsum(budget)
        starts = ends - budget
        few = expected <= 1.0
        if np.count_nonzero(few) < _HEAD_MIN_CELLS:
            few[:] = False
        head = np.nonzero(few)[0]
        direct = np.nonzero(~few)[0]
        return cls(
            budget=budget,
            starts=starts,
            total=int(ends[-1]),
            head=head,
            head_slots=starts[head, np.newaxis] + np.arange(_HEAD_SLOTS),
            head_log_w=plane.log_w[head, np.newaxis],
            head_cols=np.repeat(plane.cells[head], _HEAD_SLOTS).reshape(-1, _HEAD_SLOTS),
            direct=(
                _Segments.build(plane, budget, starts, direct, 0)
                if direct.size
                else None
            ),
        )


@dataclass(frozen=True, eq=False)
class BernoulliPlane:
    """A probability plane compiled for :meth:`NoiseSource.bernoulli_plane`.

    Everything the mixture sampler derives from the probabilities
    alone, computed once: the uint8 base thresholds, the columns pinned
    at p == 1, the columns carrying a correction (``cells``) with their
    weights ``w`` and ``log1p(-w)``, and — per ``count`` — the layout of
    their gap budgets.  ``probabilities`` (clipped, flattened) and
    ``invert`` keep the inputs, for samplers that cannot use the
    mixture form (:class:`~repro.faults.injector.FaultyNoiseSource`).

    A plane is a pure function of its inputs, so it is valid exactly as
    long as they are: the sample plans that hold one are recompiled
    whenever the device's ``state_epoch`` moves.  All arrays are
    read-only.
    """

    probabilities: npt.NDArray[np.float64]
    invert: Optional[npt.NDArray[np.bool_]]
    threshold: npt.NDArray[np.uint8]
    pinned: npt.NDArray[np.int64]
    cells: npt.NDArray[np.int64]
    w: npt.NDArray[np.float64]
    log_w: npt.NDArray[np.float64]
    _layouts: Dict[int, _GapLayout] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def compile(
        cls,
        probabilities: npt.ArrayLike,
        invert: Optional[npt.ArrayLike] = None,
    ) -> "BernoulliPlane":
        """Compile ``probabilities`` (and an optional ``invert`` mask)."""
        probs = np.clip(
            np.asarray(probabilities, dtype=np.float64).ravel(), 0.0, 1.0
        )
        mask = None
        effective = probs
        if invert is not None:
            mask = _frozen(np.asarray(invert).ravel().astype(bool))
            effective = np.where(mask, 1.0 - probs, probs)
        scaled = np.floor(effective * 256.0).astype(np.int64)
        pinned = scaled >= 256  # p == 1.0 exactly
        q = np.minimum(scaled, 256).astype(np.float64) / 256.0
        delta = np.maximum(effective - q, 0.0)
        live = (delta > 0.0) & (q < 1.0)
        w = delta[live] / (1.0 - q[live])
        return cls(
            probabilities=_frozen(probs),
            invert=mask,
            threshold=_frozen(np.where(pinned, 0, scaled).astype(np.uint8)),
            pinned=_frozen(np.nonzero(pinned)[0]),
            cells=_frozen(np.nonzero(live)[0]),
            w=_frozen(w),
            log_w=_frozen(np.log1p(-w)),
        )

    @classmethod
    def of(
        cls,
        probabilities: Union[npt.ArrayLike, BernoulliPlane],
        invert: Optional[npt.ArrayLike] = None,
    ) -> BernoulliPlane:
        """``probabilities`` itself if already compiled, else compiled."""
        if isinstance(probabilities, cls):
            if invert is not None:
                raise ValueError("a compiled plane carries its own invert mask")
            return probabilities
        return cls.compile(probabilities, invert)

    @property
    def size(self) -> int:
        """Number of columns."""
        return int(self.probabilities.size)

    def layout(self, count: int) -> _GapLayout:
        """The gap-budget layout for ``count`` rows (cached)."""
        layout = self._layouts.get(count)
        if layout is None:
            layout = _GapLayout.build(self, count)
            if len(self._layouts) >= _LAYOUT_CACHE_SIZE:
                self._layouts.clear()
            self._layouts[count] = layout
        return layout


class NoiseSource:
    """Source of per-access stochastic outcomes (thermal/sensing noise).

    Parameters
    ----------
    seed:
        ``None`` (default) seeds from OS entropy — the non-deterministic
        mode.  Any integer gives a reproducible stream for testing.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed: Optional[int] = seed
        self._rng: np.random.Generator = np.random.default_rng(seed)

    @property
    def deterministic(self) -> bool:
        """True when this source was explicitly seeded (test mode)."""
        return self._seed is not None

    def bernoulli(self, probabilities: npt.ArrayLike) -> npt.NDArray[np.bool_]:
        """Draw one Bernoulli outcome per entry of ``probabilities``.

        Returns a boolean array of the same shape; entry ``i`` is True
        with probability ``probabilities[i]``.  Probabilities are clipped
        into [0, 1] to absorb floating-point spill from the analytic
        failure model.
        """
        probs = np.clip(np.asarray(probabilities, dtype=np.float64), 0.0, 1.0)
        return self._rng.random(probs.shape) < probs

    def bernoulli_plane(
        self,
        probabilities: Union[npt.ArrayLike, BernoulliPlane],
        count: int,
        invert: Optional[npt.ArrayLike] = None,
    ) -> npt.NDArray[np.bool_]:
        """``count`` independent Bernoulli rows over a probability plane.

        Returns a ``(count, n)`` boolean matrix whose column ``j`` holds
        ``count`` independent draws at ``probabilities[j]`` — the hot
        path behind batched cell sampling, where the same per-cell
        probabilities are re-drawn for every Algorithm 2 iteration.

        ``probabilities`` is either a raw probability array or a
        :class:`BernoulliPlane` compiled from one; plans that re-draw
        the same plane on every call hold the compiled form, so the
        per-column arithmetic runs once per plan instead of per call.
        Both give the same draws from the same generator state.

        ``invert``, when given with a raw array, is a per-column truthy
        mask: column ``j`` of the result is logically negated where
        ``invert[j]`` — i.e. a draw at ``1 − p[j]``.  The negation is
        folded into the sampling threshold, so callers XOR-ing a stored
        bit on top of flip draws get the fold for free instead of a
        full-matrix pass.  A compiled plane carries its own mask.

        Exactness is preserved while avoiding one ``float64`` uniform
        per bit, by mixture decomposition: each (possibly inverted) p is
        split as ``p = q + δ`` with ``q = floor(256·p)/256`` a dyadic
        base resolved from one uniform byte per draw (``byte < 256·q``),
        plus a sparse correction ``Bernoulli(w)``, ``w = δ/(1−q)``,
        OR-ed on top.  ``P(base ∪ correction) = q + (1−q)·w = p``
        exactly.  Corrections are placed by geometric gap sampling, so
        their cost scales with how many occur, not with ``count``.

        The byte/gap draw pattern consumes the generator stream
        differently from :meth:`bernoulli`; seeded streams are
        reproducible per path, not across paths.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        plane = BernoulliPlane.of(probabilities, invert)
        n = plane.size
        if count == 0 or n == 0:
            return np.zeros((count, n), dtype=np.bool_)

        # Uniform bytes via full-range 64-bit words (the generator's
        # native output — ~3x faster than a uint8 integers draw).
        total = count * n
        words = self._rng.integers(
            0, 2**64, size=-(-total // 8), dtype=np.uint64
        )
        raw = words.view(np.uint8)[:total].reshape(count, n)
        flips = raw < plane.threshold[np.newaxis, :]
        if plane.pinned.size:
            flips[:, plane.pinned] = True
        if plane.cells.size:
            self._scatter_corrections(flips, plane, count)
        return flips

    def _scatter_corrections(
        self,
        flips: npt.NDArray[np.bool_],
        plane: BernoulliPlane,
        count: int,
    ) -> None:
        """OR sparse ``Bernoulli(w[k])`` hits into ``flips[:, cells[k]]``.

        Hit positions come from geometric inter-arrival gaps
        ``1 + floor(log(1−u)/log(1−w))``.  Every correction cell owns
        an 8-sigma-padded budget of gap slots in one uniform block drawn
        up front, but only the slots a cell needs to pass ``count`` are
        turned into gaps: the layout's head cells first evaluate
        :data:`_HEAD_SLOTS` slots each, and one segment pass covers the
        other cells and the head cells still short of ``count``.  A
        scalar tail loop absorbs the (astronomically rare) budget
        undershoot so the result stays exact.
        """
        layout = plane.layout(count)
        u = self._rng.random(layout.total)
        segments = layout.direct
        base: Union[int, npt.NDArray[np.int64]] = -1
        if layout.head.size:
            position = np.cumsum(
                _gaps(u[layout.head_slots], layout.head_log_w, count), axis=1
            ) - 1
            hit = position < count
            flips[position[hit], layout.head_cols[hit]] = True
            last = position[:, -1]
            short = last < count
            if short.any():
                # Merge the short head cells into the segment pass in
                # cell order, resuming after their head slots.
                cells = layout.head[short]
                skip = np.full(cells.size, _HEAD_SLOTS, dtype=np.int64)
                base = last[short]
                if segments is not None:
                    cells = np.concatenate((segments.cells, cells))
                    direct = np.zeros(segments.cells.size, dtype=np.int64)
                    skip = np.concatenate((direct, skip))
                    base = np.concatenate((direct - 1, base))
                    order = np.argsort(cells)
                    cells, skip, base = cells[order], skip[order], base[order]
                segments = _Segments.build(
                    plane, layout.budget, layout.starts, cells, skip
                )

        if segments is None:
            return
        cum = np.cumsum(_gaps(u[segments.slots], segments.log_w, count))
        seg_off = np.concatenate(([np.int64(0)], cum[segments.ends[:-1] - 1]))
        pos = cum + np.repeat(base - seg_off, segments.runs)
        in_range = pos < count
        flips[pos[in_range], segments.cols[in_range]] = True

        # A cell whose budget ran out before reaching ``count`` may
        # still owe corrections; finish those cells in vectorized
        # resample rounds (one draw per still-owing cell per round, so
        # the common case — no undershoot — consumes no draws at all).
        last = base + cum[segments.ends - 1] - seg_off
        owing = last < count
        owed = segments.cells[owing]
        last = last[owing]
        while owed.size:
            draws = self._rng.random(owed.size)
            last = last + _gaps(draws, plane.log_w[owed], count)
            live = last < count
            last = last[live]
            owed = owed[live]
            flips[last, plane.cells[owed]] = True

    def gaussian(
        self, shape: ShapeLike, sigma: float = 1.0
    ) -> npt.NDArray[np.float64]:
        """Draw zero-mean Gaussian noise with standard deviation ``sigma``."""
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        return self._rng.normal(0.0, sigma, size=shape)

    def binomial(
        self, trials: int, probabilities: npt.ArrayLike
    ) -> npt.NDArray[np.int64]:
        """Draw Binomial(trials, p) per entry of ``probabilities``.

        Equivalent to summing ``trials`` independent :meth:`bernoulli`
        draws, but in one vectorized call — the fast path used when
        characterization repeats the same access many times under
        unchanged conditions.
        """
        if trials < 0:
            raise ValueError(f"trials must be non-negative, got {trials}")
        probs = np.clip(np.asarray(probabilities, dtype=np.float64), 0.0, 1.0)
        return self._rng.binomial(trials, probs)

    def uniform(self, shape: ShapeLike) -> npt.NDArray[np.float64]:
        """Draw uniform [0, 1) samples (used by latency-jitter baselines)."""
        return self._rng.random(shape)

    def integers(
        self, low: int, high: int, shape: Optional[ShapeLike] = None
    ) -> npt.NDArray[np.int64]:
        """Draw integers in ``[low, high)`` (used by scheduling baselines)."""
        return self._rng.integers(low, high, size=shape)

    def spawn(self) -> "NoiseSource":
        """Create an independent child source.

        Children of a seeded parent remain deterministic (derived from the
        parent's bit generator), so a whole simulated device population
        can be reproduced from a single seed.
        """
        child = NoiseSource.__new__(NoiseSource)
        child._seed = self._seed
        child._rng = np.random.default_rng(int(self._rng.integers(0, 2**63)))
        return child

    def spawn_streams(self, n: int) -> List["NoiseSource"]:
        """Create ``n`` independent child sources, order-stably.

        Derivation: ``n`` seeds are drawn from the parent stream as
        consecutive 63-bit integers, and child ``k`` is built from draw
        ``k`` — exactly ``n`` sequential :meth:`spawn` calls.  Child
        ``k`` therefore depends only on the parent's state at the time
        of the call and on its index, never on which worker consumes it
        or in what order the children are later used.  This is the
        derivation behind every parallel path's determinism guarantee:
        shard ``k`` always samples from child ``k``, so seeded results
        are bit-identical across worker counts and backends.

        After the call the parent has advanced by exactly ``n`` draws,
        which is itself deterministic.  Children of a seeded parent are
        deterministic; children of an OS-seeded parent are independent
        "true random" streams.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return [self.spawn() for _ in range(n)]
