"""Exact grid samplers for the time-indexed process families.

Every sampler evaluates a fresh realization at an arbitrary finite set of
nonnegative times. Values at t = 0 are exactly 0 for all families. Poisson
and tempered stable paths are built from independent increments; the
self-similar and moving-average families are built from the explicit jump
set of their compound Poisson driver, which makes the path exact. A Poisson
increment of mean below 10 inverts one uniform through a guide table (Chen
and Asau, 1974; Devroye, 1986, III.2), exact up to rounding of its atoms;
larger means and driver jump counts keep numpy's sampler. The one
exception is a self-similar family whose driver's jump law is not
exponential: its driver is truncated at required_cutoff, which neglects a
tail below _TAIL_FRACTION of the mean at the smallest positive time.

Every sampler writes its values into `out`, a C-contiguous (n, len(points))
float block; the family samplers require it, and values_at allocates one
when it is not given. sample_ensemble allocates each ensemble's matrix once
and hands every chunk task its own row block to fill, so no ensemble is
stacked from chunk copies. On sorted distinct points with every step
positive, a Poisson path's uniforms are drawn straight into the block
(Generator.random(out=...) fills it in the C order of random((n, k)), so the
bits are the same) and inverted and summed there.
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

# a truncated Sato driver's neglected tail stays below this fraction of
# E psi(t_min)
_TAIL_FRACTION = 1e-6

# sub-steps for the approximate tempered-stable-driver moving average
_CONV_TS_STEPS = 256

# most sub-steps of at most DT_MAX a tempered-stable sampler takes over one
# span (a grid step, or a conv driver's [0, t_max]) at alpha != 1/2: spans up
# to 512. The exact alpha = 1/2 sampler takes any span in one draw
_MAX_SUBSTEPS = 1024

# numpy's Poisson sampler rejects means above about 9.22e18; it draws only
# increments of mean >= 10 and the driver jump counts of _jump_set
_POISSON_MEAN_MAX = 9.2e18
_GUIDE = 256  # guide-table entries of the Poisson inversion

# most expected driver jumps one _jump_set call may draw (about 1 GB of jump
# arrays); the desk configs reach about 7e5
_MAX_JUMPS = 4e7


def required_cutoff(spec: SatoSpec, points) -> float:
    """Truncation bound of the Sato driver's location domain for `points`.

    The jumps past a bound c reach every positive time, with mean
    kappa * exp(-c) in total; c = log(1/_TAIL_FRACTION) - H log t_min keeps
    that below _TAIL_FRACTION of E psi(t_min) = kappa * t_min^H, and so of
    E psi(t) at every sampled time. The sampler truncates here unless the
    driver's jump law is exponential, whose tail it draws exactly.
    """
    pts = np.asarray(points, dtype=float)
    pos = pts[pts > 0]
    if pos.size == 0:
        return 0.0
    return math.log(1.0 / _TAIL_FRACTION) - spec.H * math.log(float(pos.min()))


def _cumulative(points, increments, out) -> np.ndarray:
    """Running sums of independent increments over the sorted distinct
    points, read back at `points` into `out`.

    increments(steps, buf) draws the increments of the k step lengths into
    the (n, k) float buffer buf: `out` itself when the points are sorted and
    distinct, else a fresh block.
    """
    uniq, inv = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    steps = np.diff(np.concatenate([[0.0], uniq]))
    direct = np.array_equal(inv, np.arange(inv.size))  # sorted and distinct
    inc = out if direct else np.empty((out.shape[0], steps.size))
    increments(steps, inc)
    # column by column in place: the same additions, in the same order, as
    # np.cumsum along rows, without its copy
    for j in range(1, inc.shape[1]):
        inc[:, j] += inc[:, j - 1]
    if not direct:
        # column copies keep C order; inc[:, inv] returns Fortran order, and
        # take along axis 1 is slower
        for i, j in enumerate(inv):
            out[:, i] = inc[:, j]
    return out


def _poisson_mean(mean):
    """`mean`, a jump count's Poisson mean or an array of them; raises when
    numpy cannot draw it."""
    if not np.all(mean <= _POISSON_MEAN_MAX):  # also rejects NaN
        raise ValueError(
            f"a jump count's Poisson mean exceeds {_POISSON_MEAN_MAX:.3g}; lower the "
            "jump rate ('lambda' or 'rate'), 'H' or the largest 'grid' time")
    return mean


def _substeps(span: float) -> int:
    """How many tempered-stable sub-steps of at most DT_MAX cover `span`
    at alpha != 1/2."""
    if not span / DT_MAX <= _MAX_SUBSTEPS:
        raise ValueError(
            f"tempered-stable sampling over a span of {span:g} needs more than "
            f"{_MAX_SUBSTEPS} sub-steps of {DT_MAX}; lower the largest 'grid' time")
    return math.ceil(span / DT_MAX)


def _squarable(draw: np.ndarray, span: float) -> np.ndarray:
    """`draw`, tempered-stable increments over `span`, unless one is not
    finite or has no finite square: every standard error squares deviations
    of path values, and near 1e300 even a rounding deviation overflows. Only
    the alpha = 1/2 sampler, which has no step bound, can get there."""
    top = float(draw.max(initial=0.0))
    if not top * top < math.inf:  # also rejects NaN
        raise ValueError(
            f"a tempered-stable step of {span:g} draws an increment of {top:.3g}, "
            "too large to square; lower the largest 'grid' time")
    return draw


def _poisson_table(mean: float):
    """(F, g) for inverting Poisson(mean), 0 < mean < 10: the float CDF by
    the pmf recurrence p_k = p_{k-1} mean / k, cut where a term no longer
    moves it, its last entry clamped to 1 so that it takes the tail mass past
    the table; and the guide g[j] = min{k : F[k] > j / _GUIDE}."""
    p = math.exp(-mean)
    cdf = [p]
    while cdf[-1] < 1.0:
        p = p * mean / len(cdf)
        if cdf[-1] + p == cdf[-1]:
            break
        cdf.append(cdf[-1] + p)
    cdf[-1] = 1.0
    cdf = np.array(cdf)
    return cdf, np.searchsorted(cdf, np.arange(_GUIDE) / _GUIDE, side="right")


def _invert(col, cdf, guide) -> None:
    """Overwrites each uniform u in the column `col` with min{k : u < cdf[k]}:
    the guide gives a first k, and the few rows where u >= cdf[k] step on."""
    u = np.ascontiguousarray(col)  # a strided column is slower to read twice
    x = guide[(u * _GUIDE).astype(np.intp)]
    rows = np.flatnonzero(u >= cdf[x])
    while rows.size:
        x[rows] += 1
        rows = rows[u[rows] >= cdf[x[rows]]]
    col[:] = x


def _poisson_values(rng: RngStream, rate: float, points, n: int, out) -> np.ndarray:
    def increments(steps, inc):
        lam = _poisson_mean(rate * steps)
        # a zero mean consumes no variate, so zero steps stay out of the draw
        # without moving the other columns' draws
        drawn = np.flatnonzero(lam)
        gen = rng.generator
        if drawn.size == lam.size:
            u = gen.random(out=inc)  # the same C-order fill as random((n, k))
        else:
            u = gen.random((n, drawn.size))
        tables = {}
        for j, mean in enumerate(lam[drawn]):
            if mean >= 10:  # numpy's PTRS regime, where a table needs O(sqrt(mean)) entries
                u[:, j] = gen.poisson(mean, n)
                continue
            if mean not in tables:
                tables[mean] = _poisson_table(mean)
            _invert(u[:, j], *tables[mean])
        if drawn.size < lam.size:
            inc[:, lam == 0] = 0.0
            inc[:, drawn] = u

    return _cumulative(points, increments, out)


def _ts_values(rng: RngStream, alpha: float, points, n: int, out) -> np.ndarray:
    def increments(steps, inc):
        inc.fill(0.0)
        if alpha == 0.5:
            # one exact draw per positive step, whatever its length
            for j in np.flatnonzero(steps):
                dt = float(steps[j])
                inc[:, j] = _squarable(sample_tempered_stable_increment(rng, alpha, dt, n), dt)
            return
        subs = [_substeps(dt) for dt in steps]
        for j, (dt, m) in enumerate(zip(steps, subs)):
            for _ in range(m):
                inc[:, j] += sample_tempered_stable_increment(rng, alpha, dt / m, n)

    return _cumulative(points, increments, out)


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
    rng: RngStream, spec: SatoSpec, points, n: int, out, hi: float | None = None
) -> np.ndarray:
    """Self-similar values from the driver's jumps on locations [-H log t_max,
    hi); a given hi keeps exactly the jumps born after exp(-hi / H).

    Without hi the path is the whole of psi. For an exponential jump law hi
    is the largest threshold c = -H log t_min, and the jumps past it, which
    reach every positive time, add exp(-c) * Y with Y = int_0^inf e^{-u}
    dZ(u): Y has the Gamma(shape = rate, scale = mean) law, the Gamma-OU
    stationary law (Barndorff-Nielsen and Shephard, 2001), and one variate
    per path is drawn after the jump set. Any other law is drawn up to
    required_cutoff.
    """
    pts = np.asarray(points, dtype=float)
    pos = pts > 0
    out[:, ~pos] = 0.0
    if not pos.any():
        return out
    # a driver jump at location s with size x contributes x * exp(-s) to
    # psi(t) exactly when s >= -H log t
    thresholds = np.full(pts.size, np.inf)
    thresholds[pos] = -spec.H * np.log(pts[pos])
    # the distinct thresholds, in increasing order
    levels = np.unique(thresholds[pos])
    law = spec.bdlp.law
    exact_tail = hi is None and law.kind == "exponential"
    if hi is None:
        hi = float(levels[-1]) if exact_tail else required_cutoff(spec, pts)
    jumps = _jump_set(rng, spec.bdlp, float(levels[0]), hi, n)
    tail = None
    if exact_tail:
        tail = rng.generator.gamma(spec.bdlp.rate, law.params[0], n)
        tail *= math.exp(-hi)
    if jumps is None:
        jumps = np.zeros(n, np.intp), np.empty(0), np.empty(0)
    counts, s, x = jumps
    del jumps
    # how many of the levels each jump clears: it is seen at a point of
    # threshold levels[r] when cleared > r
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
        if tail is not None:
            out[:, j] += tail
    return out


def _conv_values(
    rng: RngStream, spec: ConvSpec, points, n: int, out, jump_filter=None
) -> np.ndarray:
    """Moving-average values; jump_filter optionally restricts which driver
    jumps contribute (given their time locations)."""
    pts = np.asarray(points, dtype=float)
    t_max = float(pts.max(initial=0.0))
    if t_max <= 0:
        out.fill(0.0)
        return out
    if isinstance(spec.z, JumpLawSpec):
        jumps = _jump_set(rng, spec.z, 0.0, t_max, n)
        if jumps is None:
            out.fill(0.0)
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
    # tempered stable driver: approximate by increments on a fine sub-grid;
    # at alpha != 1/2 its cells must also stay within DT_MAX
    alpha = spec.z.alpha
    steps = _CONV_TS_STEPS
    if alpha != 0.5:
        need = _substeps(t_max)
        while steps < need:
            steps *= 2
    h = t_max / steps
    mids = (np.arange(steps) + 0.5) * h
    dz = _squarable(sample_tempered_stable_increment(rng, alpha, h, n * steps), h)
    dz = dz.reshape(n, steps)
    fmat = spec.kernel(pts[None, :] - mids[:, None])
    if jump_filter is not None:
        fmat = fmat * jump_filter(mids)[:, None]
    # BLAS threads split this gemm's output, not its inner sums: thread-count-free
    return np.matmul(dz, fmat, out=out)


def values_at(rng: RngStream, spec: ProcessSpec, points, n: int, out=None) -> np.ndarray:
    """(n, len(points)) matrix of fresh realizations evaluated at `points`,
    written into `out`, a C-contiguous float block of that shape, and
    returned; without `out` a fresh block is allocated."""
    if out is None:
        out = np.empty((n, len(points)))
    if isinstance(spec, PoissonSpec):
        return _poisson_values(rng, spec.rate, points, n, out)
    if isinstance(spec, TemperedStableSpec):
        return _ts_values(rng, spec.alpha, points, n, out)
    if isinstance(spec, SatoSpec):
        return _sato_values(rng, spec, points, n, out)
    if isinstance(spec, ConvSpec):
        return _conv_values(rng, spec, points, n, out)
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


def _run(tasks) -> None:
    """Run the zero-argument `tasks`.

    The calling thread and the pool's helpers take tasks from one counter.
    After a task raises, no new task starts; every earlier task has started
    by then, so the error raised is the first in task order, whatever the
    scheduling.
    """
    pool = None if getattr(_helper, "inline", False) or len(tasks) < 2 else _helpers()
    if pool is None:
        for task in tasks:
            task()
        return
    errors = {}
    counter = itertools.count()

    def drain():
        while not errors:
            i = next(counter)
            if i >= len(tasks):
                return
            try:
                tasks[i]()
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


def _chunk_stream(stream, k: int):
    if isinstance(stream, RngStream):
        return stream.substream(k)
    return tuple(s.substream(k) for s in stream)


def sample_ensemble(fn, rng: RngStream | tuple, n: int, width: int):
    """Draw an (n, width) ensemble in chunks of fixed size, each from its own
    substream.

    Each ensemble is one (n, width) matrix allocated here, and its chunk k
    fills its own row block `out` in place: fn(stream, out) with
    stream = rng.substream(k); what fn returns is ignored. With one stream
    `rng` the result is one array. With a tuple of streams, one per
    independent ensemble, fn(s, stream, out) fills chunk k of ensemble s from
    rng[s].substream(k), and the result is a list of arrays; an entry of the
    tuple may itself be a tuple of streams drawn together, and fn then gets
    the tuple of their chunk-k substreams. Every chunk of every ensemble is
    one task on the shared pool. The chunking is fixed, so the result
    depends only on the streams, not on the core count.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    single = isinstance(rng, RngStream)
    streams = (rng,) if single else rng
    draw = (lambda s, stream, rows: fn(stream, rows)) if single else fn
    out = [np.empty((n, width)) for _ in streams]
    _run([functools.partial(draw, s, _chunk_stream(stream, k), out[s][lo:lo + CHUNK])
          for s, stream in enumerate(streams) for k, lo in enumerate(range(0, n, CHUNK))])
    return out[0] if single else out


def sample_paths(
    rng: RngStream, spec: ProcessSpec, grid: TimeGrid, n: int, workers: int = 1
) -> np.ndarray:
    """(n, len(grid)) ensemble of independent paths.

    `workers` is ignored; it stays for callers that still pass it.
    """
    return sample_ensemble(
        lambda stream, out: values_at(stream, spec, grid.points, len(out), out),
        rng, n, len(grid),
    )
