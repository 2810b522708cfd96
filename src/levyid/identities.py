"""Companion constructions and distributional identity checks.

Two identities are verified for every time-indexed family, both tied to a
pin time a > 0 on the working grid:

* tilting: size-biasing the law of psi by psi(a)/E psi(a) adds an
  independent single-jump companion process to psi;
* decomposition: psi splits into two independent pieces, the part built
  from jumps invisible at a (the conditional law given psi(a) = 0) plus
  the part built from jumps alive at a.

Both checks compare weighted empirical Laplace functionals over a panel.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLawSpec,
    LevyFunctionalPanel,
    PoissonSpec,
    PowerCutoffKernel,
    ProcessSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
    in_intervals,
    mean_function,
)
from .processes import _conv_values, _sato_values, sample_ensemble, sample_paths, values_at
from .randkit import RngStream, sample_size_biased_jump
from .statlab import (
    Check,
    build_identity_report,
    control_variate_panel,
    effective_sample_size,
    weighted_laplace_panel,
)

# substream tags; fixed so reports are reproducible from one master stream
_TAG_LHS = 1
_TAG_RHS_BASE = 2
_TAG_RHS_ADD = 3


def _kernel_reach(gen, kernel, a: float, n: int) -> np.ndarray:
    """Draw u on [0, a] with density f(u)/I(a); the response age of the
    size-biased jump."""
    total = kernel.integral(a)
    if total <= 0:
        raise ValueError("kernel mass I(a) vanishes; no jump is visible at a")
    if isinstance(kernel, ExpDecayKernel):
        c = kernel.decay
        u = gen.random(n)
        return -np.log1p(u * np.expm1(-c * a)) / c
    if isinstance(kernel, PowerCutoffKernel):
        # exact inverse CDF of (1 + u)^(-p) on [0, b], in one draw whatever p
        b = min(a, kernel.length)
        q = gen.random(n)
        c = 1.0 - kernel.power
        if c == 0.0:
            return np.expm1(q * np.log1p(b))
        d = -np.expm1(c * np.log1p(b))
        return np.expm1(np.log1p(-q * d) / c)
    if isinstance(kernel, TabulatedKernel):
        return _tabulated_reach(gen, kernel, a, n)
    raise TypeError(f"no reach sampler for {type(kernel).__name__}")


def _tabulated_reach(gen, kernel: TabulatedKernel, a: float, n: int) -> np.ndarray:
    # exact inverse CDF of the piecewise-linear density truncated to [0, a]:
    # linear on a flat segment, the quadratic root on a sloped one, each
    # evaluated only on the draws that land on its kind of segment
    ks = np.asarray(kernel.knots)
    vs = np.asarray(kernel.values)
    b = min(a, kernel.support_end)
    keep = ks < b
    ks = np.concatenate([ks[keep], [b]])
    vs = np.concatenate([vs[keep], [float(kernel(b))]])
    widths = np.diff(ks)
    seg = 0.5 * (vs[1:] + vs[:-1]) * widths
    slope = np.diff(vs) / widths
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    q = gen.random(n) * cum[-1]
    i = np.clip(np.searchsorted(cum, q, side="right") - 1, 0, len(seg) - 1)
    r = q - cum[i]
    f0 = vs[i]
    flat = (np.abs(slope) < 1e-14)[i]
    if flat.all():  # an indicator, or any table with no slope below b
        h = r / np.maximum(f0, 1e-300)
    else:
        h = np.empty(n)
        lin, quad = np.flatnonzero(flat), np.flatnonzero(~flat)
        h[lin] = r[lin] / np.maximum(f0[lin], 1e-300)
        s, f, rq = slope[i[quad]], f0[quad], r[quad]
        h[quad] = (-f + np.sqrt(np.maximum(f**2 + 2.0 * s * rq, 0.0))) / s
    return ks[i] + np.minimum(h, widths[i])


def companion_values(rng: RngStream, spec: ProcessSpec, a: float, points, n: int) -> np.ndarray:
    """Realizations of the single-jump companion added under tilting at a."""
    if a <= 0:
        raise ValueError("pin time a must be positive")
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, PoissonSpec):
        u = rng.substream(1).generator.random(n)
        return (pts[None, :] >= (a * u)[:, None]).astype(float)
    if isinstance(spec, TemperedStableSpec):
        u = rng.substream(1).generator.random(n)
        g = rng.substream(2).generator.gamma(1.0 - spec.alpha, 1.0, n)
        return g[:, None] * (pts[None, :] >= (a * u)[:, None])
    if isinstance(spec, SatoSpec):
        u = rng.substream(1).generator.random(n)
        v = sample_size_biased_jump(rng.substream(2), spec.bdlp.law, n)
        birth = a * u ** (1.0 / spec.H)
        scale = a**spec.H * u * v
        return scale[:, None] * (pts[None, :] >= birth[:, None])
    if isinstance(spec, ConvSpec):
        gen = rng.substream(1).generator
        reach = _kernel_reach(gen, spec.kernel, a, n)
        loc = a - reach
        law = spec.z.law if isinstance(spec.z, JumpLawSpec) else spec.z
        v = sample_size_biased_jump(rng.substream(2), law, n)
        return v[:, None] * spec.kernel(pts[None, :] - loc[:, None])
    raise TypeError(f"no companion construction for {type(spec).__name__}")


def visible_values(rng: RngStream, spec: ProcessSpec, a: float, points, n: int) -> np.ndarray:
    """The component of psi carried by jumps alive at a.

    For the cumulative families this is a fresh path frozen at a; for
    moving averages it keeps exactly the driver jumps whose kernel response
    has not died out by a.
    """
    if a <= 0:
        raise ValueError("pin time a must be positive")
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, (PoissonSpec, TemperedStableSpec, SatoSpec)):
        return values_at(rng, spec, np.minimum(pts, a), n)
    if isinstance(spec, ConvSpec):
        # alive at a: a - s in a positive interval, not f(a - s) > 0 in floats
        alive = spec.kernel.positive_intervals()
        return _conv_values(rng, spec, pts, n, jump_filter=lambda s: in_intervals(a - s, alive))
    raise TypeError(f"no decomposition for {type(spec).__name__}")


def hidden_values(rng: RngStream, spec: ProcessSpec, a: float, points, n: int) -> np.ndarray:
    """The law of psi conditioned to vanish at a: the component carried by
    jumps invisible at a.

    For the cumulative families these are the jumps born after a, so the
    values are exactly 0 at every t <= a. Poisson and tempered stable paths
    have stationary independent increments, so psi(t or a) - psi(a) is a
    fresh path at max(t - a, 0); the self-similar family draws only the
    driver jumps located in [-H log t_max, -H log a), with no truncation.
    Moving averages keep the driver jumps dead at a.
    """
    if a <= 0:
        raise ValueError("pin time a must be positive")
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, (PoissonSpec, TemperedStableSpec)):
        return values_at(rng, spec, np.maximum(pts - a, 0.0), n)
    if isinstance(spec, SatoSpec):
        # a time t <= a reads as 0, which sees no jump
        return _sato_values(rng, spec, np.where(pts > a, pts, 0.0), n,
                            hi=-spec.H * float(np.log(a)))
    if isinstance(spec, ConvSpec):
        alive = spec.kernel.positive_intervals()
        return _conv_values(rng, spec, pts, n, jump_filter=lambda s: ~in_intervals(a - s, alive))
    raise TypeError(f"no decomposition for {type(spec).__name__}")


def _tilt(spec: ProcessSpec, a: float, grid: TimeGrid):
    """The map from psi-paths on `grid` to their ensemble weighted by
    psi(a) / E psi(a); the exact analytic normalizer keeps the weights
    mean-one."""
    ia = int(grid.index_of([a])[0])
    mean_a = mean_function(spec, a)
    if mean_a <= 0:
        raise ValueError("E psi(a) must be positive to tilt at a")
    return lambda values: WeightedEnsemble(grid, values, values[:, ia] / mean_a)


def tilted_ensemble(
    rng: RngStream, spec: ProcessSpec, a: float, grid: TimeGrid, n: int
) -> WeightedEnsemble:
    """psi-paths weighted by psi(a) / E psi(a)."""
    tilt = _tilt(spec, a, grid)
    return tilt(sample_paths(rng, spec, grid, n))


def _verdict(name, grid, panel, lhs, rhs_vals, z_crit, n, notes=None) -> Check:
    """The identity's Check: `lhs` holds the LHS estimates and SEs, and the
    RHS paths are averaged with unit weights."""
    rhs, rhs_se = weighted_laplace_panel(WeightedEnsemble(grid, rhs_vals), panel)
    return build_identity_report(name, panel, lhs[0], rhs, lhs[1], rhs_se, z_crit, n, notes)


def verify_tilting_identity(
    rng: RngStream,
    spec: ProcessSpec,
    a: float,
    grid: TimeGrid,
    panel: LevyFunctionalPanel,
    n: int,
    z_crit: float = 3.0,
) -> Check:
    """Size-biased psi against psi + companion, on independent streams.

    Both sides are drawn in one sample_ensemble call; an RHS chunk adds its
    companion to its base paths in place. The tilting weights have mean
    exactly one, so the LHS is the control-variate estimate
    (`statlab.control_variate_panel`), which uses that known normalizer; the
    notes give the weights' effective sample size and largest share.
    """
    tilt = _tilt(spec, a, grid)

    def draw(side, stream, m):
        if side == 0:
            return values_at(stream, spec, grid.points, m)
        base, add = stream
        out = values_at(base, spec, grid.points, m)
        out += companion_values(add, spec, a, grid.points, m)
        return out

    lhs_vals, rhs_vals = sample_ensemble(draw, (
        rng.substream(_TAG_LHS),
        (rng.substream(_TAG_RHS_BASE), rng.substream(_TAG_RHS_ADD)),
    ), n)
    lhs_ens = tilt(lhs_vals)
    w = lhs_ens.weights
    if not w.any():
        raise ValueError(f"no drawn path has psi(a) > 0 at a={a:g}, so none can be "
                         "tilted; raise 'mc.N'")
    lhs = control_variate_panel(lhs_ens, panel)
    notes = {"lhs_estimator": "control-variate", "lhs_ess": effective_sample_size(w),
             "lhs_max_weight_share": float(w.max() / w.sum())}
    return _verdict("tilting", grid, panel, lhs, rhs_vals, z_crit, n, notes)


def verify_decomposition_identity(
    rng: RngStream,
    spec: ProcessSpec,
    a: float,
    grid: TimeGrid,
    panel: LevyFunctionalPanel,
    n: int,
    z_crit: float = 3.0,
) -> Check:
    """psi against hidden + visible components drawn independently.

    Both sides are drawn in one sample_ensemble call; an RHS chunk adds its
    visible part to its hidden part in place.
    """
    grid.index_of([a])  # the pin must sit on the working grid

    def draw(side, stream, m):
        if side == 0:
            return values_at(stream, spec, grid.points, m)
        hid, vis = stream
        out = hidden_values(hid, spec, a, grid.points, m)
        out += visible_values(vis, spec, a, grid.points, m)
        return out

    lhs_vals, rhs_vals = sample_ensemble(draw, (
        rng.substream(_TAG_LHS),
        (rng.substream(_TAG_RHS_BASE), rng.substream(_TAG_RHS_ADD)),
    ), n)
    lhs = weighted_laplace_panel(WeightedEnsemble(grid, lhs_vals), panel)
    return _verdict("decomposition", grid, panel, lhs, rhs_vals, z_crit, n)
