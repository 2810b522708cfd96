"""Companion constructions and distributional identity checks.

Two identities are verified for every time-indexed family, both tied to a
pin time a > 0 on the working grid:

* tilting: size-biasing the law of psi by psi(a)/E psi(a) adds an
  independent single-jump companion process to psi;
* decomposition: psi splits into two independent pieces, the part built
  from jumps invisible at a (the conditional law given psi(a) = 0) plus
  the part built from jumps alive at a.

Both are gated against the exact Laplace functional of psi,
e^{-kappa(alpha)}, which the quadrature gives. The tilted psi has the law of
psi plus the companion, so its weighted Laplace functional is gated against
e^{-kappa} times the companion's, which alone is sampled. The
decomposition's sum has the law of psi, so it is gated against e^{-kappa}
itself: one sample, not two.
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
from .levymeasure import levy_functional_quadrature
from .processes import _conv_values, _sato_values, sample_ensemble, sample_paths, values_at
from .randkit import RngStream, sample_size_biased_jump
from .statlab import (
    Check,
    build_identity_report,
    effective_sample_size,
    weighted_laplace_panel,
)

# substream tags; fixed so reports are reproducible from one master stream.
# Tilting draws LHS and companion on 1 and 3, the decomposition hidden and
# visible parts on 2 and 3
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


def _birth(spec: ProcessSpec, a: float, u: np.ndarray) -> np.ndarray:
    """The companion jump's birth time from its uniform u: a u^(1/H) (Sato) or a u."""
    return a * u ** (1.0 / spec.H) if isinstance(spec, SatoSpec) else a * u


def companion_values(
    rng: RngStream, spec: ProcessSpec, a: float, points, n: int, out=None
) -> np.ndarray:
    """Realizations of the single-jump companion added under tilting at a,
    written into `out` when it is given.

    The jump's indicator (or its kernel response) is written into the rows,
    then scaled by the jump size: the bits of size * indicator.
    """
    if a <= 0:
        raise ValueError("pin time a must be positive")
    pts = np.asarray(points, dtype=float)
    if out is None:
        out = np.empty((n, pts.size), order="F")
    if isinstance(spec, ConvSpec):
        reach = _kernel_reach(rng.substream(1).generator, spec.kernel, a, n)
        law = spec.z.law if isinstance(spec.z, JumpLawSpec) else spec.z
        v = sample_size_biased_jump(rng.substream(2), law, n)
        return np.multiply(v[:, None], spec.kernel(pts[None, :] - (a - reach)[:, None]), out=out)
    if not isinstance(spec, (PoissonSpec, TemperedStableSpec, SatoSpec)):
        raise TypeError(f"no companion construction for {type(spec).__name__}")
    # the jump is born at a uniform time (Sato: a * u^(1/H)) and has size 1
    # (Poisson), Gamma(1 - alpha) (tempered stable) or a^H u v (Sato)
    u = rng.substream(1).generator.random(n)
    np.greater_equal(pts, _birth(spec, a, u)[:, None], out=out)
    if isinstance(spec, TemperedStableSpec):
        out *= rng.substream(2).generator.gamma(1.0 - spec.alpha, 1.0, n)[:, None]
    elif isinstance(spec, SatoSpec):
        v = sample_size_biased_jump(rng.substream(2), spec.bdlp.law, n)
        out *= (a**spec.H * u * v)[:, None]
    return out


def visible_values(
    rng: RngStream, spec: ProcessSpec, a: float, points, n: int, out=None
) -> np.ndarray:
    """The component of psi carried by jumps alive at a, written into `out`
    when it is given.

    For the cumulative families this is a fresh path frozen at a; for
    moving averages it keeps exactly the driver jumps whose kernel response
    has not died out by a.
    """
    if a <= 0:
        raise ValueError("pin time a must be positive")
    pts = np.asarray(points, dtype=float)
    if out is None:
        out = np.empty((n, pts.size), order="F")
    if isinstance(spec, (PoissonSpec, TemperedStableSpec, SatoSpec)):
        return values_at(rng, spec, np.minimum(pts, a), n, out)
    if isinstance(spec, ConvSpec):
        # alive at a: a - s in a positive interval, not f(a - s) > 0 in floats
        alive = spec.kernel.positive_intervals()
        return _conv_values(rng, spec, pts, n, out,
                            jump_filter=lambda s: in_intervals(a - s, alive))
    raise TypeError(f"no decomposition for {type(spec).__name__}")


def hidden_values(
    rng: RngStream, spec: ProcessSpec, a: float, points, n: int, out=None
) -> np.ndarray:
    """The law of psi conditioned to vanish at a, written into `out` when it
    is given: the component carried by jumps invisible at a.

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
    if out is None:
        out = np.empty((n, pts.size), order="F")
    if isinstance(spec, (PoissonSpec, TemperedStableSpec)):
        return values_at(rng, spec, np.maximum(pts - a, 0.0), n, out)
    if isinstance(spec, SatoSpec):
        # a time t <= a reads as 0, which sees no jump
        return _sato_values(rng, spec, np.where(pts > a, pts, 0.0), n, out,
                            hi=-spec.H * float(np.log(a)))
    if isinstance(spec, ConvSpec):
        alive = spec.kernel.positive_intervals()
        return _conv_values(rng, spec, pts, n, out,
                            jump_filter=lambda s: ~in_intervals(a - s, alive))
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


def verify_tilting_identity(
    rng: RngStream,
    spec: ProcessSpec,
    a: float,
    grid: TimeGrid,
    panel: LevyFunctionalPanel,
    n: int,
    z_crit: float = 3.0,
) -> Check:
    """Size-biased psi against e^{-kappa(alpha)} T(alpha), T the Laplace
    functional of the independent companion.

    rhs = e^{-kappa} T-hat and rhs_se = e^{-kappa} se(T-hat), kappa from
    `levy_functional_quadrature`, as at the ladder's delta = 1 rung. The LHS
    (substream 1) and then the companion alone (substream 3) are drawn, each
    chunk into its row block. The tilting weights
    have mean exactly one, so the LHS uses that known normalizer and
    regresses out the weights as a control of mean one (`statlab.mean_se`);
    the notes name both estimators and give the weights' effective sample
    size and largest share.
    """
    tilt = _tilt(spec, a, grid)

    def companion(stream, out):
        out[...] = companion_values(stream, spec, a, grid.points, len(out))

    lhs_ens = tilt(sample_paths(rng.substream(_TAG_LHS), spec, grid, n))
    add_vals = sample_ensemble(companion, rng.substream(_TAG_RHS_ADD), n, len(grid))
    w = lhs_ens.weights
    if not w.any():
        raise ValueError(f"no drawn path has psi(a) > 0 at a={a:g}, so none can be "
                         "tilted; raise 'mc.N'")
    lhs, lhs_se = weighted_laplace_panel(lhs_ens, panel, control=(w, 1.0))
    t_est, t_se = weighted_laplace_panel(WeightedEnsemble(grid, add_vals), panel)
    decay = np.exp(-np.array([levy_functional_quadrature(spec, e) for e in panel]))
    notes = {"lhs_estimator": "control-variate", "lhs_ess": effective_sample_size(w),
             "lhs_max_weight_share": float(w.max() / w.sum()),
             "rhs_estimator": "exact-kappa-times-companion"}
    return build_identity_report("tilting", panel, lhs, decay * t_est, lhs_se, decay * t_se,
                                 z_crit, n, notes)


def verify_decomposition_identity(
    rng: RngStream,
    spec: ProcessSpec,
    a: float,
    grid: TimeGrid,
    panel: LevyFunctionalPanel,
    n: int,
    z_crit: float = 3.0,
) -> Check:
    """hidden + visible components, drawn independently, against the exact
    Laplace functional of psi, e^{-kappa(alpha)} with kappa from
    `levy_functional_quadrature`.

    Each chunk draws its hidden part on substream 2, then its visible part
    into its row block on substream 3, and adds the hidden part on (addition
    commutes, so these are the bits of hidden + visible). The exact values
    have SE 0.
    """
    grid.index_of([a])  # the pin must sit on the working grid

    def draw(stream, out):
        hid, vis = stream
        hidden = hidden_values(hid, spec, a, grid.points, len(out))
        visible_values(vis, spec, a, grid.points, len(out), out)
        out += hidden

    vals = sample_ensemble(draw, (rng.substream(_TAG_RHS_BASE), rng.substream(_TAG_RHS_ADD)),
                           n, len(grid))
    est, se = weighted_laplace_panel(WeightedEnsemble(grid, vals), panel)
    exact = np.exp(-np.array([levy_functional_quadrature(spec, e) for e in panel]))
    return build_identity_report("decomposition", panel, est, exact, se, np.zeros_like(exact),
                                 z_crit, n)
