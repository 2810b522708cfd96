"""Levy-measure functionals: deterministic quadrature, importance-sampled
Monte Carlo representations, Laplace-exponent checks, integrability checks.

The measure nu acts on nonnegative paths. For a panel entry with weights
alpha_i at times t_i the functional evaluated everywhere here is

    nu(F),   F(y) = 1 - exp(-sum_i alpha_i y(t_i)),

optionally restricted to {y(a) = 0} or {y(a) > 0}. The restricted pieces
add up to the unrestricted value exactly, which the test-suite exploits.
"""

from __future__ import annotations

import contextvars
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvSpec,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    ProcessSpec,
    SatoSpec,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
    _matvec,
    make_grid,
)
from .processes import sample_paths
from .randkit import RngStream, sample_size_biased_jump
from .statlab import (
    Check,
    bootstrap_mean_se,
    build_identity_report,
    effective_sample_size,
    weighted_laplace_panel,
)

_QUAD_EPS = 1e-10
_QUAD_LIMIT = 200
_ESS_FRACTION = 0.01

_RESTRICTIONS = (None, "zero", "positive")


@dataclass(frozen=True)
class LevyEstimate:
    """A single nu(F) evaluation: value, standard error, and how it was obtained."""

    value: float
    se: float
    method: str


def _check_restriction(restriction, a):
    if restriction not in _RESTRICTIONS:
        raise ValueError(f"restriction must be one of {_RESTRICTIONS}")
    if restriction is not None:
        if a is None or a <= 0:
            raise ValueError("a restriction needs a positive pin time a")


# the pieces integrated so far in the current job, or None outside a job
_PIECES: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "quadrature_pieces", default=None
)


@contextmanager
def quadrature_pieces():
    """Scope in which each keyed quadrature piece is integrated once.

    A job enters this block; inside it, _quad returns the stored value of
    a (key, lo, hi) piece it has integrated before. The scope is per job,
    not per process, so every job does the same work.
    """
    token = _PIECES.set({})
    try:
        yield
    finally:
        _PIECES.reset(token)


def _quad(key, f, lo, hi) -> float:
    """int_lo^hi f(s) ds by adaptive quadrature; scipy loads on first use.

    key names the integrand f, so that equal keys mean equal integrands; a
    keyed piece is integrated once per quadrature_pieces() scope. None
    integrates every time.
    """
    pieces = None if key is None else _PIECES.get()
    if pieces is not None and (key, lo, hi) in pieces:
        return pieces[key, lo, hi]
    from scipy.integrate import quad

    value = quad(f, lo, hi, epsabs=_QUAD_EPS, limit=_QUAD_LIMIT)[0]
    if pieces is not None:
        pieces[key, lo, hi] = value
    return value


def _indicator_nu(entry: PanelEntry, mass_of_level, restriction, a) -> float:
    """nu(F) for families whose jumps have path shape x * 1[s, inf), the
    location s having unit density on [0, t_max].

    mass_of_level(A) is the inner x-integral at exposure level A(s), which
    is constant between consecutive panel times (and a).
    """
    times = np.asarray(entry.times)
    alphas = np.asarray(entry.alphas)
    t_max = float(times.max())
    bounds = {0.0, *times}
    if restriction is not None and 0.0 < a < t_max:
        bounds.add(a)
    bs = sorted(bounds)
    total = 0.0
    for lo, hi in zip(bs[:-1], bs[1:]):
        if restriction == "positive" and lo >= a:
            continue  # positive at a means the jump started at s <= a
        if restriction == "zero" and hi <= a:
            continue
        mid = 0.5 * (lo + hi)
        level = float(alphas[times >= mid].sum())
        if level > 0:
            total += (hi - lo) * mass_of_level(level)
    return total


def _driver_one_minus_exp(z, c):
    """Inner jump-size integral int (1 - e^{-c x}) rho(dx) for a driver."""
    if isinstance(z, JumpLawSpec):
        return z.rate * z.law.one_minus_exp_moment(c)
    return (1.0 + c) ** z.alpha - 1.0


def _sato_nu(spec: SatoSpec, entry: PanelEntry, restriction, a) -> float:
    H = spec.H
    keep = [(t, al) for t, al in zip(entry.times, entry.alphas) if t > 0 and al > 0]
    if not keep:
        return 0.0
    thetas = np.array([-H * math.log(t) for t, _ in keep])
    alphas = np.array([al for _, al in keep])
    bounds = sorted(set(thetas))
    if restriction is not None:
        theta_a = -H * math.log(a)
        bounds = sorted(set(bounds) | {theta_a})
    pieces = list(zip(bounds[:-1], bounds[1:])) + [(bounds[-1], math.inf)]
    total = 0.0
    for lo, hi in pieces:
        if restriction == "positive" and hi <= theta_a:
            continue  # positive at a means the jump lives on s >= -H log a
        if restriction == "zero" and lo >= theta_a:
            continue
        ref = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        level = float(alphas[thetas <= ref].sum())
        if level <= 0:
            continue
        # the integrand depends on the driver and the level only
        total += _quad(
            (spec.bdlp, level),
            lambda s: _driver_one_minus_exp(spec.bdlp, level * math.exp(-s)), lo, hi,
        )
    return total


def _intersect(intervals, lo, hi):
    out = []
    for l, r in intervals:
        l2, r2 = max(l, lo), min(r, hi)
        if r2 > l2:
            out.append((l2, r2))
    return out


def _complement(intervals, lo, hi):
    out = []
    cur = lo
    for l, r in sorted(intervals):
        if l > cur:
            out.append((cur, min(l, hi)))
        cur = max(cur, r)
        if cur >= hi:
            break
    if cur < hi:
        out.append((cur, hi))
    return [(l, r) for l, r in out if r > l]


def conv_active_intervals(spec: ConvSpec, a: float) -> list[tuple[float, float]]:
    """Intervals of jump locations s >= 0 whose kernel response is alive at a,
    i.e. {s in [0, a] : f(a - s) > 0}."""
    out = []
    for lo, hi in spec.kernel.positive_intervals():
        l = a - min(hi, a)
        r = a - max(lo, 0.0)
        if r > l and r > 0:
            out.append((max(l, 0.0), r))
    return sorted(out)


def _conv_nu(spec: ConvSpec, entry: PanelEntry, restriction, a) -> float:
    times = np.asarray(entry.times)
    alphas = np.asarray(entry.alphas)
    t_max = float(times.max())
    if t_max == 0:
        return 0.0
    if restriction is None:
        domain = [(0.0, t_max)]
    else:
        active = conv_active_intervals(spec, a)
        if restriction == "positive":
            domain = _intersect(active, 0.0, t_max)
        else:
            domain = _complement(active, 0.0, t_max)
    cuts = {0.0, t_max}
    for t in times:
        for b in spec.kernel.breakpoints():
            s = t - b
            if 0.0 < s < t_max:
                cuts.add(float(s))
        if 0.0 < t < t_max:
            cuts.add(float(t))
    cut_arr = sorted(cuts)

    def integrand(s):
        # a k-vector dot per quadrature node, far below BLAS's threading size
        c = float(alphas @ spec.kernel(times - s))
        return _driver_one_minus_exp(spec.z, c) if c > 0 else 0.0

    total = 0.0
    for dlo, dhi in domain:
        bs = [dlo] + [c for c in cut_arr if dlo < c < dhi] + [dhi]
        for lo, hi in zip(bs[:-1], bs[1:]):
            total += _quad((spec, entry), integrand, lo, hi)
    return total


def levy_functional_quadrature(
    spec: ProcessSpec,
    entry: PanelEntry,
    restriction: str | None = None,
    a: float | None = None,
) -> LevyEstimate:
    """Deterministic evaluation of nu(F) for one panel entry.

    restriction "zero" keeps paths with y(a) = 0, "positive" keeps paths
    with y(a) > 0; None integrates the full measure.
    """
    _check_restriction(restriction, a)
    if isinstance(spec, PoissonSpec):
        v = spec.rate * _indicator_nu(entry, lambda A: -math.expm1(-A), restriction, a)
    elif isinstance(spec, TemperedStableSpec):
        # the inner jump-size integral is exact:
        # int (1 - e^{-Ax}) x^{-alpha-1} e^{-x} dx / |Gamma(-alpha)| = (1+A)^alpha - 1
        v = _indicator_nu(entry, lambda A: _driver_one_minus_exp(spec, A), restriction, a)
    elif isinstance(spec, SatoSpec):
        v = _sato_nu(spec, entry, restriction, a)
    elif isinstance(spec, ConvSpec):
        v = _conv_nu(spec, entry, restriction, a)
    else:
        raise ValueError(
            "quadrature covers the time-indexed families; permanental "
            "functionals are sampled in the permanental module"
        )
    return LevyEstimate(float(v), 0.0, "quadrature")


# ---------- probabilistic representations ----------


def _one_minus_exp(x):
    return -np.expm1(-x)


def _mc_draw(rng, spec, n, mixing_mean, theta):
    """One draw of a single-jump representation: each row's prefactor, and
    the map from a panel entry's (times, alphas) to each row's F-value, so
    that nu(F) = E[pref * F]."""
    if isinstance(spec, ConvSpec):
        y = (1.0 / theta) * rng.substream(1).generator.standard_exponential(n)
        law = spec.z.law if isinstance(spec.z, JumpLawSpec) else spec.z
        v = sample_size_biased_jump(rng.substream(2), law, n)
        return ((spec.kappa / theta) * np.exp(theta * y) / v, lambda times, alphas:
                _one_minus_exp(v * _matvec(spec.kernel(times[None, :] - y[:, None]), alphas)))
    if not isinstance(spec, (PoissonSpec, TemperedStableSpec, SatoSpec)):
        raise ValueError("no single-jump representation for this spec")
    u = rng.substream(1).generator.random(n)
    if isinstance(spec, PoissonSpec):
        # mix the jump location as U*Y with Y exponential; the inverse tail
        # weight exp(U Y / mean) makes the estimator unbiased for any mean
        y = mixing_mean * rng.substream(2).generator.standard_exponential(n)
        loc = u * y
        pref, of_level = spec.rate * y * np.exp(loc / mixing_mean), _one_minus_exp
    elif isinstance(spec, TemperedStableSpec):
        y = rng.substream(2).generator.standard_exponential(n)
        g = rng.substream(3).generator.gamma(1.0 - spec.alpha, 1.0, n)
        loc = u * y
        # prefactor alpha is pinned by nu(1 - e^{-u y(t)}) = ((1+u)^alpha - 1) t
        pref = spec.alpha * y * np.exp(loc)
        # (1 - e^{-gA})/g stays finite as g -> 0
        small = g < 1e-12
        g_safe = np.where(small, 1.0, g)

        def of_level(level):
            return np.where(small, level, _one_minus_exp(g * level) / g_safe)
    else:
        v = sample_size_biased_jump(rng.substream(2), spec.bdlp.law, n)
        g = rng.substream(3).generator.standard_exponential(n)
        loc = g * u ** (1.0 / spec.H)  # the birth time
        scale = g**spec.H * u * v
        pref = spec.bdlp.kappa * np.exp(loc) / (u * v)

        def of_level(level):
            return _one_minus_exp(scale * level)
    return pref, lambda times, alphas: of_level(_matvec(times[None, :] >= loc[:, None], alphas))


def levy_functional_mc(
    rng: RngStream,
    spec: ProcessSpec,
    panel: LevyFunctionalPanel,
    n: int,
    mixing_mean: float = 1.0,
    theta: float = 1.0,
) -> list[LevyEstimate]:
    """Monte Carlo evaluation of nu(F) at every panel entry through the
    size-biased single-jump representations, with the SE of the sample mean.

    All entries share one draw of n rows, so their estimates are correlated.
    mixing_mean parametrizes the exponential location mixer in the Poisson
    representation (any positive mean gives the same limit); theta is the
    exponential location rate used for moving averages.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if mixing_mean <= 0 or theta <= 0:
        raise ValueError("mixing_mean and theta must be positive")
    pref, f = _mc_draw(rng, spec, n, mixing_mean, theta)
    out = []
    for entry in panel:
        x = pref * f(np.asarray(entry.times), np.asarray(entry.alphas))
        ess = effective_sample_size(x)
        if 0 < ess < _ESS_FRACTION * n:
            warnings.warn(f"effective sample size {ess:.1f} below {_ESS_FRACTION:.0%} of "
                          f"n={n}; the importance weights are heavy-tailed here",
                          RuntimeWarning, stacklevel=2)
        out.append(LevyEstimate(float(x.mean()), bootstrap_mean_se(x), "probabilistic"))
    return out


# ---------- Laplace exponent and integrability ----------


def laplace_exponent_check(
    rng: RngStream,
    spec: ProcessSpec,
    panel: LevyFunctionalPanel,
    n: int,
    z_crit: float = 3.0,
) -> Check:
    """Empirical -log E exp(-sum alpha psi(t)) against the quadrature value
    of nu(F), entry by entry."""
    times = sorted({t for e in panel for t in e.times})
    grid = make_grid(times)
    values = sample_paths(rng.substream(1), spec, grid, n)
    ens = WeightedEnsemble(grid, values)
    est, se = weighted_laplace_panel(ens, panel)
    lhs = -np.log(est)
    lhs_se = se / est  # delta method for -log
    rhs = np.array([levy_functional_quadrature(spec, e).value for e in panel])
    rhs_se = np.zeros_like(rhs)
    return build_identity_report(
        "laplace-exponent", panel, lhs, rhs, lhs_se, rhs_se, z_crit, n
    )


@dataclass
class LevyConditionReport:
    """Integrability of y(x) ^ 1 under nu at each checkpoint."""

    points: list[float]
    values: list[float]
    finite: list[bool]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "values": self.values,
            "finite": self.finite,
            "pass": self.ok,
        }


def _ts_expect_min(alpha: float, c: float) -> float:
    """int min(c v, 1) v^{-alpha-1} e^{-v} dv / |Gamma(-alpha)|."""
    if c <= 0:
        return 0.0
    from scipy.special import gamma as gamma_fn

    norm = gamma_fn(1.0 - alpha) / alpha  # |Gamma(-alpha)|
    u = 1.0 / c
    head = _quad(None, lambda v: c * v**-alpha * math.exp(-v), 0.0, u)
    tail = _quad(None, lambda v: v ** (-alpha - 1.0) * math.exp(-v), u, math.inf)
    return (head + tail) / norm


def _driver_expect_min(z, c: float) -> float:
    if isinstance(z, JumpLawSpec):
        return z.rate * z.law.expect_min_cx_one(c)
    return _ts_expect_min(z.alpha, c)


def validate_levy_conditions(spec: ProcessSpec, grid: TimeGrid | None = None) -> LevyConditionReport:
    """Check int (y(x) ^ 1) nu(dy) < inf at each grid point (each state for
    permanental specs)."""
    if isinstance(spec, PermanentalSpec):
        from scipy.special import exp1

        from .permanental import green_matrix

        g = green_matrix(spec).matrix
        points = list(range(spec.n)) if grid is None else [int(p) for p in grid.points]
        values = []
        for x in points:
            theta = 2.0 * g[x, x]
            # marginal is Gamma(beta, scale theta); its jump density is
            # beta v^{-1} e^{-v/theta}
            values.append(
                spec.beta * (theta * -math.expm1(-1.0 / theta) + exp1(1.0 / theta))
            )
        points = [float(p) for p in points]
    else:
        if grid is None:
            raise ValueError("time-indexed families need a grid of checkpoints")
        points = [float(t) for t in grid.points]
        if isinstance(spec, TemperedStableSpec):
            # nu(y(x) ^ 1) = x * nu(y(1) ^ 1): two integrals serve the whole grid
            ts_unit = _ts_expect_min(spec.alpha, 1.0)
        values = []
        for x in points:
            if x == 0:
                values.append(0.0)
                continue
            if isinstance(spec, PoissonSpec):
                values.append(spec.rate * x)
            elif isinstance(spec, TemperedStableSpec):
                values.append(x * ts_unit)
            elif isinstance(spec, SatoSpec):
                law = spec.bdlp.law
                v = _quad(None, lambda s: law.expect_min_cx_one(math.exp(-s)),
                          -spec.H * math.log(x), math.inf)
                values.append(spec.bdlp.rate * v)
            elif isinstance(spec, ConvSpec):
                lo = max(0.0, x - spec.kernel.support_end)
                values.append(_quad(
                    None, lambda s: _driver_expect_min(spec.z, float(spec.kernel(x - s))), lo, x
                ))
            else:
                raise TypeError(f"unsupported spec {type(spec).__name__}")
    finite = [bool(math.isfinite(v)) for v in values]
    return LevyConditionReport(points, [float(v) for v in values], finite, all(finite))
