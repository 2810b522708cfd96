"""Levy-measure functionals: deterministic quadrature, importance-sampled
Monte Carlo representations, Laplace-exponent checks, integrability checks.

The measure nu acts on nonnegative paths. For a panel entry with weights
alpha_i at times t_i the functional evaluated everywhere here is

    nu(F),   F(y) = 1 - exp(-sum_i alpha_i y(t_i)),

optionally restricted to {y(a) = 0} or {y(a) > 0}. The restricted pieces
add up to the unrestricted value exactly, which the test-suite exploits.

Every integral here goes through one adaptive Gauss-Legendre integrator on
numpy arrays, _integrate. The infinite range of the Sato pieces is removed
by the exact substitution u = e^{-s}, never by truncation. The
integrability condition nu(y(x) ^ 1) < inf is checked through the Laplace
exponent nu(1 - e^{-y(x)}) of the one-point entry alpha = 1 at x, which is
finite exactly when the condition holds.
"""

from __future__ import annotations

import contextvars
import functools
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

_GL_ORDER = 20
_QUAD_RTOL = 1e-14
_QUAD_LIMIT = 200  # subintervals of one integral
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


@functools.cache
def _gl_rule():
    # built on first use, so that importing levyid loads no numpy.polynomial
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _gauss_legendre(f, a, b):
    """The Gauss-Legendre rule on each interval [a[i], b[i]], with every
    node of every interval in one call of f."""
    x, w = _gl_rule()
    half = 0.5 * (b - a)
    values = f((np.multiply.outer(half, x) + (a + half)[:, None]).ravel())
    return (values.reshape(values.shape[:-1] + (a.size, x.size)) * w).sum(-1) * half


def _integrate(f, lo, hi):
    """int_lo^hi f(x) dx by adaptive Gauss-Legendre bisection, lo < hi finite.

    f maps a 1-d array of nodes to values of shape (..., nodes), so one
    call integrates a batch of integrands that share their nodes. Each
    interval is ruled whole and in two halves; it is kept when the two
    values agree to _QUAD_RTOL of the running total in every component,
    and otherwise each half is ruled in two in turn. Every node of a level
    goes to f in one call.
    """
    mid = 0.5 * (lo + hi)
    v = _gauss_legendre(f, np.array([lo, lo, mid]), np.array([hi, mid, hi]))
    # halves[..., 2i] and halves[..., 2i + 1] are the halves [a, b] of the
    # open interval i, whose one-rule value is whole[..., i]
    whole, halves = v[..., :1], v[..., 1:]
    a, b = np.array([lo, mid]), np.array([mid, hi])
    done, kept = 0.0, 0
    while True:
        pair = halves[..., 0::2] + halves[..., 1::2]
        total = done + pair.sum(-1)
        split = np.abs(whole - pair) > _QUAD_RTOL * np.abs(total)[..., None]
        if split.ndim > 1:
            split = split.any(tuple(range(split.ndim - 1)))
        if not split.any():
            return total
        done = done + pair[..., ~split].sum(-1)
        kept += split.size - int(split.sum())
        if kept + 2 * int(split.sum()) > _QUAD_LIMIT:
            warnings.warn(f"quadrature reached its {_QUAD_LIMIT}-interval limit on "
                          f"[{lo:g}, {hi:g}]; the value may be inexact",
                          RuntimeWarning, stacklevel=2)
            return done + pair[..., split].sum(-1)
        two = np.repeat(split, 2)
        whole, a, b = halves[..., two], a[two], b[two]
        mid = 0.5 * (a + b)
        a, b = np.stack([a, mid], 1).ravel(), np.stack([mid, b], 1).ravel()
        halves = _gauss_legendre(f, a, b)


def _quad(key, f, lo, hi) -> float:
    """int_lo^hi f by _integrate, for an array-valued integrand f.

    key names the integrand f, so that equal keys mean equal integrands; a
    keyed piece is integrated once per quadrature_pieces() scope.
    """
    pieces = _PIECES.get()
    if pieces is not None and (key, lo, hi) in pieces:
        return pieces[key, lo, hi]
    value = float(_integrate(f, lo, hi))
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
    """Inner jump-size integral int (1 - e^{-c x}) rho(dx) for a driver, at
    each c of an array (or at a float c for the tempered-stable law)."""
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
        # the integrand depends on the driver and the level only; u = e^{-s}
        # takes the piece [lo, hi] in s to [e^{-hi}, e^{-lo}], and [lo, inf)
        # to [0, e^{-lo}]
        total += _quad(
            (spec.bdlp, level),
            lambda u: _driver_one_minus_exp(spec.bdlp, level * u) / u,
            math.exp(-hi), math.exp(-lo),
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
        return _driver_one_minus_exp(spec.z, _matvec(spec.kernel(times - s[:, None]), alphas))

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


def validate_levy_conditions(spec: ProcessSpec, grid: TimeGrid | None = None) -> dict:
    """The Laplace exponent kappa_x(1) = nu(1 - e^{-y(x)}) at each grid point
    (each state for permanental specs), and whether each is finite.

    Since (1 - 1/e)(y ^ 1) <= 1 - e^{-y} <= y ^ 1 for y >= 0, kappa_x(1) is
    finite exactly when the Levy-Khintchine condition nu(y(x) ^ 1) < inf
    holds. Inside a quadrature_pieces() scope the integrals are shared with
    the job's other quadratures."""
    if isinstance(spec, PermanentalSpec):
        from .permanental import green_matrix, marginal_levy_functional

        green = green_matrix(spec)
        states = range(spec.n) if grid is None else [int(p) for p in grid.points]
        # psi(x) is Gamma(beta, scale 2 g(x, x)): kappa_x(1) = beta log(1 + 2 g(x, x))
        values = [spec.beta * marginal_levy_functional(green, 2.0, x) for x in states]
        points = [float(x) for x in states]
    else:
        if grid is None:
            raise ValueError("time-indexed families need a grid of checkpoints")
        points = [float(t) for t in grid.points]
        values = [levy_functional_quadrature(spec, PanelEntry((1.0,), (x,))).value
                  for x in points]
    finite = [math.isfinite(v) for v in values]
    return {"points": points, "values": values, "finite": finite, "pass": all(finite)}
