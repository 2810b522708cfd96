"""Exact grid samplers for the time-indexed process families.

Every sampler evaluates a fresh realization at an arbitrary finite set of
nonnegative times. Values at t = 0 are exactly 0 for all families. Poisson
and tempered stable paths are built from independent increments; the
self-similar and moving-average families are built from the explicit jump
set of their compound Poisson driver, which makes the path exact (up to the
documented tail truncation for the self-similar family).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import (
    ConvSpec,
    JumpLawSpec,
    PoissonSpec,
    ProcessSpec,
    SatoSpec,
    TemperedStableSpec,
    TimeGrid,
)
from .randkit import DT_MAX, RngStream, sample_jump, sample_tempered_stable_increment

# replicates per independent stream chunk; fixed so results do not depend on
# the thread count
CHUNK = 50_000

# neglected driver tail must stay below this fraction of E psi(t_max)
_TAIL_FRACTION = 1e-6

# sub-steps for the approximate tempered-stable-driver moving average
_CONV_TS_STEPS = 256

# most sub-steps of at most DT_MAX a tempered-stable sampler takes over one
# span (a grid step, or a conv driver's [0, t_max]): spans up to 512; the
# shipped configs reach 2
_MAX_SUBSTEPS = 1024

# numpy's Poisson sampler rejects means above about 9.22e18
_POISSON_MEAN_MAX = 9.2e18

# most expected driver jumps one _jump_set call may draw (about 1 GB of jump
# arrays); the desk configs reach about 7e5
_MAX_JUMPS = 4e7


def required_cutoff(spec: SatoSpec, points) -> float:
    """Truncation bound of the Sato driver's location domain for `points`.

    The smallest bound that covers every requested time and keeps the
    neglected tail mean kappa * exp(-cutoff) below _TAIL_FRACTION of
    E psi(t_max); the sampler always truncates here.
    """
    pts = np.asarray(points, dtype=float)
    pos = pts[pts > 0]
    if pos.size == 0:
        return 0.0
    t_min, t_max = float(pos.min()), float(pos.max())
    return max(
        -spec.H * math.log(t_min),
        math.log(1.0 / _TAIL_FRACTION) - spec.H * math.log(t_max),
    )


def _cumulative(points, increments) -> np.ndarray:
    """Running sums of independent increments over the sorted distinct
    points, read back at `points`; increments(steps) draws the (n, k)
    increment matrix for the k step lengths."""
    uniq, inv = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    steps = np.diff(np.concatenate([[0.0], uniq]))
    out = increments(steps).astype(float, copy=False)
    # column by column in place: the same additions, in the same order, as
    # np.cumsum along rows, without its copy
    for j in range(1, out.shape[1]):
        out[:, j] += out[:, j - 1]
    if np.array_equal(inv, np.arange(inv.size)):
        return out  # the points were already sorted and distinct
    # column copies keep C order; out[:, inv] returns Fortran order, and
    # take along axis 1 is slower
    return np.column_stack([out[:, i] for i in inv])


def _poisson_mean(mean):
    """`mean`, a jump count's Poisson mean or an array of them; raises when
    numpy cannot draw it."""
    if not np.all(mean <= _POISSON_MEAN_MAX):  # also rejects NaN
        raise ValueError(
            f"a jump count's Poisson mean exceeds {_POISSON_MEAN_MAX:.3g}; lower the "
            "jump rate ('lambda' or 'rate'), 'H' or the largest 'grid' time")
    return mean


def _substeps(span: float) -> int:
    """How many tempered-stable sub-steps of at most DT_MAX cover `span`."""
    if not span / DT_MAX <= _MAX_SUBSTEPS:
        raise ValueError(
            f"tempered-stable sampling over a span of {span:g} needs more than "
            f"{_MAX_SUBSTEPS} sub-steps of {DT_MAX}; lower the largest 'grid' time")
    return math.ceil(span / DT_MAX)


def _poisson_values(rng: RngStream, rate: float, points, n: int) -> np.ndarray:
    def increments(steps):
        lam = _poisson_mean(rate * steps)
        # a zero mean consumes no variate, so zero steps stay out of the draw
        # without moving the other columns' draws
        drawn = np.flatnonzero(lam)
        kept = lam[drawn]
        # a scalar mean draws the same variates as an all-equal vector of
        # means, without numpy's per-variate broadcast
        if kept.size and np.all(kept == kept[0]):
            kept = float(kept[0])
        inc = rng.generator.poisson(kept, size=(n, drawn.size))
        if drawn.size == lam.size:
            return inc
        out = np.zeros((n, lam.size))
        out[:, drawn] = inc
        return out

    return _cumulative(points, increments)


def _ts_values(rng: RngStream, alpha: float, points, n: int) -> np.ndarray:
    def increments(steps):
        subs = [_substeps(dt) for dt in steps]
        inc = np.zeros((n, steps.size))
        for j, (dt, m) in enumerate(zip(steps, subs)):
            for _ in range(m):
                inc[:, j] += sample_tempered_stable_increment(rng, alpha, dt / m, n)
        return inc

    return _cumulative(points, increments)


def _jump_set(rng: RngStream, driver: JumpLawSpec, lo: float, hi: float, n: int):
    """The driver's jumps on locations [lo, hi) for n independent paths, as
    (jump count per path, location, size) arrays, the jumps grouped by path
    in path order; None when no path has a jump."""
    mean = _poisson_mean(driver.rate * (hi - lo))
    if not mean * n <= _MAX_JUMPS:
        raise ValueError(
            f"{n} paths expect {mean * n:.3g} driver jumps, more than {_MAX_JUMPS:.3g}; "
            "lower the driver's jump rate ('rate'), 'H' or the largest 'grid' time")
    counts = rng.generator.poisson(mean, n)
    m = int(counts.sum())
    if m == 0:
        return None
    s = rng.generator.uniform(lo, hi, m)
    return counts, s, sample_jump(rng, driver.law, m)


def _sato_values(
    rng: RngStream, spec: SatoSpec, points, n: int, hi: float | None = None
) -> np.ndarray:
    """Self-similar values from the driver's jumps on locations [-H log t_max,
    hi); hi defaults to required_cutoff, and a smaller hi keeps exactly the
    jumps born after exp(-hi / H)."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros((n, pts.size))
    pos = pts > 0
    if not pos.any():
        return out
    # a driver jump at location s with size x contributes x * exp(-s) to
    # psi(t) exactly when s >= -H log t
    thresholds = np.full(pts.size, np.inf)
    thresholds[pos] = -spec.H * np.log(pts[pos])
    if hi is None:
        hi = required_cutoff(spec, pts)
    jumps = _jump_set(rng, spec.bdlp, float(thresholds[pos].min()), hi, n)
    if jumps is None:
        return out
    counts, s, x = jumps
    del jumps
    # how many of the distinct thresholds, in increasing order, each jump
    # clears: it is seen at a point of threshold levels[r] when cleared > r
    levels = np.unique(thresholds[pos])
    cleared = np.zeros(s.size, np.min_scalar_type(levels.size))
    for level in levels:
        cleared += s >= level
    # x * exp(-s) in the location buffer; multiplication commutes, so these
    # are the bits of x * np.exp(-s)
    v = np.exp(np.negative(s, out=s), out=s)
    v *= x
    del x
    rep = np.repeat(np.arange(n), counts)
    # going by increasing threshold, the jumps a point does not see are
    # zeroed before its sum; a zeroed jump adds +0.0 to its row's nonnegative
    # running sum, which is exact: the same bits as summing only the kept jumps
    rank = np.searchsorted(levels, thresholds)
    for j in sorted(np.flatnonzero(pos), key=lambda j: rank[j]):
        v[cleared <= rank[j]] = 0.0
        out[:, j] = np.bincount(rep, weights=v, minlength=n)
    return out


def _conv_values(
    rng: RngStream, spec: ConvSpec, points, n: int, jump_filter=None
) -> np.ndarray:
    """Moving-average values; jump_filter optionally restricts which driver
    jumps contribute (given their time locations)."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros((n, pts.size))
    t_max = float(pts.max(initial=0.0))
    if t_max <= 0:
        return out
    if isinstance(spec.z, JumpLawSpec):
        jumps = _jump_set(rng, spec.z, 0.0, t_max, n)
        if jumps is None:
            return out
        counts, s, x = jumps
        rep = np.repeat(np.arange(n), counts)
        if jump_filter is not None:
            keep = jump_filter(s)
            rep, s, x = rep[keep], s[keep], x[keep]
        for j in range(pts.size):
            contrib = x * spec.kernel(pts[j] - s)
            out[:, j] = np.bincount(rep, weights=contrib, minlength=n)
        return out
    # tempered stable driver: approximate by increments on a fine sub-grid
    need = _substeps(t_max)
    steps = _CONV_TS_STEPS
    while steps < need:
        steps *= 2
    h = t_max / steps
    mids = (np.arange(steps) + 0.5) * h
    dz = sample_tempered_stable_increment(rng, spec.z.alpha, h, n * steps).reshape(n, steps)
    fmat = spec.kernel(pts[None, :] - mids[:, None])
    if jump_filter is not None:
        fmat = fmat * jump_filter(mids)[:, None]
    # BLAS threads split this gemm's output, not its inner sums: thread-count-free
    return dz @ fmat


def values_at(rng: RngStream, spec: ProcessSpec, points, n: int) -> np.ndarray:
    """(n, len(points)) matrix of fresh realizations evaluated at `points`."""
    if isinstance(spec, PoissonSpec):
        return _poisson_values(rng, spec.rate, points, n)
    if isinstance(spec, TemperedStableSpec):
        return _ts_values(rng, spec.alpha, points, n)
    if isinstance(spec, SatoSpec):
        return _sato_values(rng, spec, points, n)
    if isinstance(spec, ConvSpec):
        return _conv_values(rng, spec, points, n)
    raise TypeError(f"no path sampler for {type(spec).__name__}")


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, which taskset and
    cpuset pins narrow, where the platform reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# helper threads shared by every sample_ensemble call in the process, made
# on first use: (executor, thread count), or None on a single core
_pool = None
_pool_lock = threading.Lock()
# set in the helper threads: a sample_ensemble call inside a task a helper
# runs draws its chunks in that helper, whose peers hold the outer tasks
_helper = threading.local()


def _helpers():
    global _pool
    with _pool_lock:
        if _pool is None:
            size = _usable_cores() - 1
            if size < 1:
                return None
            _pool = (ThreadPoolExecutor(size, "levyid-sampler", initializer=setattr,
                                        initargs=(_helper, "inline", True)), size)
        return _pool


def _run(tasks) -> list:
    """Results of the zero-argument `tasks`, in task order.

    The calling thread and the pool's helpers take tasks from one counter.
    After a task raises, no new task starts; every earlier task has started
    by then, so the error raised is the first in task order, whatever the
    scheduling.
    """
    pool = None if getattr(_helper, "inline", False) or len(tasks) < 2 else _helpers()
    if pool is None:
        return [task() for task in tasks]
    results, errors = [None] * len(tasks), {}
    counter = itertools.count()

    def drain():
        while not errors:
            i = next(counter)
            if i >= len(tasks):
                return
            try:
                results[i] = tasks[i]()
            except Exception as exc:  # re-raised by the caller below
                errors[i] = exc

    executor, size = pool
    futures = [executor.submit(drain) for _ in range(min(size, len(tasks) - 1))]
    drain()
    for future in futures:
        if not future.cancel():  # a helper that never started has nothing to do
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _chunk_stream(stream, k: int):
    if isinstance(stream, RngStream):
        return stream.substream(k)
    return tuple(s.substream(k) for s in stream)


def sample_ensemble(fn, rng: RngStream | tuple, n: int):
    """Stack fn's draws over fixed-size chunks with per-chunk substreams.

    With one stream `rng`, chunk k of m rows is fn(rng.substream(k), m) and
    the result is one array. With a tuple of streams, one per independent
    ensemble, chunk k of ensemble s is fn(s, rng[s].substream(k), m) and the
    result is a list of arrays; an entry of the tuple may itself be a tuple
    of streams drawn together, and fn then gets the tuple of their chunk-k
    substreams. Every chunk of every ensemble is one task on the shared
    pool, and each result is stacked in chunk order: the chunking is fixed,
    so the result depends only on the streams, not on the core count.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    single = isinstance(rng, RngStream)
    streams = (rng,) if single else rng
    draw = (lambda s, stream, m: fn(stream, m)) if single else fn
    sizes = [min(CHUNK, n - lo) for lo in range(0, n, CHUNK)]
    chunks = _run([functools.partial(draw, s, _chunk_stream(stream, k), m)
                   for s, stream in enumerate(streams) for k, m in enumerate(sizes)])
    out = []
    for _ in streams:
        part, chunks = chunks[:len(sizes)], chunks[len(sizes):]
        out.append(part[0] if len(part) == 1 else np.vstack(part))
    return out[0] if single else out


def sample_paths(
    rng: RngStream, spec: ProcessSpec, grid: TimeGrid, n: int, workers: int = 1
) -> np.ndarray:
    """(n, len(grid)) ensemble of independent paths.

    `workers` is ignored; it stays for callers that still pass it.
    """
    return sample_ensemble(
        lambda stream, m: values_at(stream, spec, grid.points, m), rng, n
    )
