"""Levy-measure functionals: deterministic quadrature, importance-sampled
Monte Carlo representations, Laplace-exponent checks, integrability checks.

The measure nu acts on nonnegative paths. For a panel entry with weights
alpha_i at times t_i the functional evaluated everywhere here is

    nu(F),   F(y) = 1 - exp(-sum_i alpha_i y(t_i)),

optionally restricted to {y(a) = 0} or {y(a) > 0}.

Every family's nu(F) is a sum over one partition of the jump locations s
in [0, t_max], walked by _pieces: a jump born at s has path shape
x f(t - s), with f the step 1[0, inf) for Poisson, tempered-stable and
Sato (s = e^{-theta/H} for the driver time theta) and the kernel for conv.
A restriction keeps the pieces on which f(a - s) > 0, read from f's
positive intervals rather than from its floating-point values (an interior
zero knot or an underflowing tail does not kill a piece), or the others;
this is the rule the conv decomposition samplers filter jumps by, and the
two restrictions add up to the unrestricted value.

Every integral here goes through one adaptive Gauss-Legendre integrator on
numpy arrays, _integrate. A Sato piece is integrated in u = s^H = e^{-theta},
which maps its infinite range in theta onto a finite one exactly. The
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

import numpy as np

from .core import (
    ConvSpec,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PoissonSpec,
    ProcessSpec,
    SatoSpec,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
    _matvec,
    in_intervals,
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


def _check_restriction(restriction, a):
    if restriction not in _RESTRICTIONS:
        raise ValueError(f"restriction must be one of {_RESTRICTIONS}")
    # NaN is not positive
    if restriction is not None and not (a is not None and a > 0):
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


# the breakpoints and positive intervals of the step f = 1[0, inf), the
# path shape 1[s, inf) of a jump born at s for Poisson, tempered-stable and
# Sato (in s = e^{-theta/H})
_STEP = ((), ((0.0, math.inf),))


def _pieces(times, breakpoints, positive, restriction, a):
    """The pieces (lo, hi, mid) of jump locations s in [0, t_max], in
    increasing s, that a restriction keeps, for a jump shape f with the
    given breakpoints and maximal positive intervals.

    The range is cut at 0, t_max, each panel time t, each t - b for b in
    the breakpoints and, under a restriction, each a - e for an end e of
    the positive intervals; only cuts strictly inside (0, t_max) count. A
    piece is alive at a when a - mid lies in a positive interval, that is
    f(a - s) > 0 across it, the rule the conv decomposition samplers filter
    jumps by: "positive" keeps the alive pieces and "zero" the rest. Each
    a - e is a cut, so the rule is constant on every piece.
    """
    t_max = max(times)
    cuts = {*times, *(t - b for t in times for b in breakpoints)}
    if restriction is not None:
        cuts.update(a - e for iv in positive for e in iv)
    bs = sorted({0.0, t_max, *(c for c in cuts if 0.0 < c < t_max)})
    keep_alive = restriction == "positive"
    for lo, hi in zip(bs[:-1], bs[1:]):
        mid = 0.5 * (lo + hi)
        if restriction is None or in_intervals(a - mid, positive) == keep_alive:
            yield lo, hi, mid


def _driver_one_minus_exp(z, c):
    """Inner jump-size integral int (1 - e^{-c x}) rho(dx) for a driver, at
    each c of an array (or at a float c for the tempered-stable law)."""
    if isinstance(z, JumpLawSpec):
        return z.rate * z.law.one_minus_exp_moment(c)
    return (1.0 + c) ** z.alpha - 1.0


def _u(H, s):
    # u = s^H = e^{-theta}, bit for bit, as theta = (-H) log s
    return math.exp(H * math.log(s)) if s > 0 else 0.0


def levy_functional_quadrature(
    spec: ProcessSpec,
    entry: PanelEntry,
    restriction: str | None = None,
    a: float | None = None,
) -> float:
    """Deterministic evaluation of nu(F) for one panel entry.

    restriction "zero" keeps paths with y(a) = 0, "positive" keeps paths
    with y(a) > 0; None integrates the full measure. Every family walks
    the pieces of _pieces: Poisson and tempered-stable add each piece's
    closed-form mass, Sato and conv integrate each piece.
    """
    _check_restriction(restriction, a)
    times = np.asarray(entry.times)
    alphas = np.asarray(entry.alphas)
    if isinstance(spec, ConvSpec):
        def integrand(s):
            return _driver_one_minus_exp(spec.z, _matvec(spec.kernel(times - s[:, None]), alphas))

        k = spec.kernel
        pieces = _pieces(entry.times, k.breakpoints(), k.positive_intervals(), restriction, a)
        return sum((_quad((spec, entry), integrand, lo, hi) for lo, hi, _ in pieces), 0.0)
    # mass(lo, hi, level): the piece's mass at the exposure level of a jump
    # born in it; Poisson's rate multiplies the sum, for the same last bits
    scale, decreasing = 1.0, False
    if isinstance(spec, PoissonSpec):
        scale = spec.rate

        def mass(lo, hi, level):
            return (hi - lo) * -math.expm1(-level)
    elif isinstance(spec, TemperedStableSpec):
        def mass(lo, hi, level):
            # the inner jump-size integral is exact: int (1 - e^{-Ax})
            # x^{-alpha-1} e^{-x} dx / |Gamma(-alpha)| = (1+A)^alpha - 1
            return (hi - lo) * _driver_one_minus_exp(spec, level)
    elif isinstance(spec, SatoSpec):
        decreasing = True  # summed in decreasing s, the order its last bits depend on

        def mass(lo, hi, level):
            # a Sato jump at s scales by e^{-theta} = s^H; the integrand in u
            # depends on the driver and the level only
            return _quad((spec.bdlp, level),
                         lambda u: _driver_one_minus_exp(spec.bdlp, level * u) / u,
                         _u(spec.H, lo), _u(spec.H, hi))
    else:
        raise ValueError(
            "quadrature covers the time-indexed families; permanental "
            "functionals are sampled in the permanental module"
        )
    total = 0.0
    for lo, hi, mid in sorted(_pieces(entry.times, *_STEP, restriction, a), reverse=decreasing):
        level = float(alphas[times >= mid].sum())
        if level > 0:
            total += mass(lo, hi, level)
    return scale * total


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
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo evaluation of nu(F) at every panel entry through the
    size-biased single-jump representations: the sample means and their
    SEs, as arrays over the panel.

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
    est, se = np.empty(len(panel)), np.empty(len(panel))
    for k, entry in enumerate(panel):
        x = pref * f(np.asarray(entry.times), np.asarray(entry.alphas))
        ess = effective_sample_size(x)
        if 0 < ess < _ESS_FRACTION * n:
            warnings.warn(f"effective sample size {ess:.1f} below {_ESS_FRACTION:.0%} of "
                          f"n={n}; the importance weights are heavy-tailed here",
                          RuntimeWarning, stacklevel=2)
        est[k], se[k] = x.mean(), bootstrap_mean_se(x)
    return est, se


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
    rhs = np.array([levy_functional_quadrature(spec, e) for e in panel])
    rhs_se = np.zeros_like(rhs)
    return build_identity_report(
        "laplace-exponent", panel, lhs, rhs, lhs_se, rhs_se, z_crit, n
    )


def validate_levy_conditions(spec: ProcessSpec, grid: TimeGrid | None = None) -> dict:
    """The Laplace exponent kappa_x(1) = nu(1 - e^{-y(x)}) at each grid point,
    and whether each is finite.

    Since (1 - 1/e)(y ^ 1) <= 1 - e^{-y} <= y ^ 1 for y >= 0, kappa_x(1) is
    finite exactly when the Levy-Khintchine condition nu(y(x) ^ 1) < inf
    holds. Inside a quadrature_pieces() scope the integrals are shared with
    the job's other quadratures."""
    if grid is None:
        raise ValueError("time-indexed families need a grid of checkpoints")
    points = [float(t) for t in grid.points]
    values = [levy_functional_quadrature(spec, PanelEntry((1.0,), (x,))) for x in points]
    finite = [math.isfinite(v) for v in values]
    return {"points": points, "values": values, "finite": finite, "pass": all(finite)}
