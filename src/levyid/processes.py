"""Exact grid samplers for the time-indexed process families.

Every sampler evaluates a fresh realization at an arbitrary finite set of
nonnegative times. Values at t = 0 are exactly 0 for all families. Poisson
and tempered stable paths are built from independent increments; the
self-similar and moving-average families are built from the explicit jump
set of their compound Poisson driver, which makes the path exact (up to the
documented tail truncation for the self-similar family).
"""

from __future__ import annotations

import math
import os
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
        # a scalar mean draws the same variates as an all-equal vector of
        # means, without numpy's per-variate broadcast
        if lam.size and np.all(lam == lam[0]):
            lam = float(lam[0])
        return rng.generator.poisson(lam, size=(n, steps.size))

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
    (path index, location, size) arrays; None when no path has a jump."""
    counts = rng.generator.poisson(_poisson_mean(driver.rate * (hi - lo)), n)
    m = int(counts.sum())
    if m == 0:
        return None
    rep = np.repeat(np.arange(n), counts)
    s = rng.generator.uniform(lo, hi, m)
    return rep, s, sample_jump(rng, driver.law, m)


def _sato_values(rng: RngStream, spec: SatoSpec, points, n: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    out = np.zeros((n, pts.size))
    pos = pts > 0
    if not pos.any():
        return out
    # a driver jump at location s with size x contributes x * exp(-s) to
    # psi(t) exactly when s >= -H log t
    thresholds = np.full(pts.size, np.inf)
    thresholds[pos] = -spec.H * np.log(pts[pos])
    jumps = _jump_set(rng, spec.bdlp, float(thresholds[pos].min()),
                      required_cutoff(spec, pts), n)
    if jumps is None:
        return out
    rep, s, x = jumps
    v = x * np.exp(-s)
    for j in np.flatnonzero(pos):
        mask = s >= thresholds[j]
        out[:, j] = np.bincount(rep[mask], weights=v[mask], minlength=n)
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
        rep, s, x = jumps
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


def sample_ensemble(fn, rng: RngStream, n: int) -> np.ndarray:
    """Stack fn(stream, m) over fixed-size chunks with per-chunk substreams.

    Chunks run on a thread pool sized by the chunk count and the core
    count; the chunking is fixed, so the result depends only on the stream
    identity.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    sizes = [(k, min(CHUNK, n - k * CHUNK)) for k in range((n + CHUNK - 1) // CHUNK)]
    if len(sizes) == 1:
        return fn(rng.substream(0), n)
    with ThreadPoolExecutor(max_workers=min(len(sizes), os.cpu_count() or 1)) as pool:
        return np.vstack(list(pool.map(lambda km: fn(rng.substream(km[0]), km[1]), sizes)))


def sample_paths(
    rng: RngStream, spec: ProcessSpec, grid: TimeGrid, n: int, workers: int = 1
) -> np.ndarray:
    """(n, len(grid)) ensemble of independent paths.

    `workers` is ignored; it stays for callers that still pass it.
    """
    return sample_ensemble(
        lambda stream, m: values_at(stream, spec, grid.points, m), rng, n
    )
