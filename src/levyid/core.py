"""Shared domain types: time grids, jump laws, kernels, process specs, panels.

Conventions used throughout the package:

* all processes are nonnegative, start at 0 and have no drift;
* a "jump law" is the jump-size distribution of a compound Poisson
  subordinator, kept separate from its jump rate;
* Laplace functionals are always of the form exp(-sum_i alpha_i y(t_i))
  with alpha_i >= 0 and t_i taken from the working grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_REL_TOL = 1e-9


def _as_float_tuple(xs) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


def _positive(name: str, *values) -> None:
    """Raise unless every value is positive and finite (NaN is neither)."""
    if not all(x > 0 and math.isfinite(x) for x in values):
        raise ValueError(f"{name} must be positive and finite")


def _matvec(matrix, coefs) -> np.ndarray:
    """matrix @ coefs over the last axis, summed one column at a time in
    coefs order.

    Per-path reductions go through this rather than BLAS: threaded BLAS
    splits a long sum by thread count, so its last bits depend on the
    machine, and its idle workers spin after every call.
    """
    matrix = np.asarray(matrix)
    coefs = np.asarray(coefs, dtype=float)
    out = np.zeros(matrix.shape[:-1])
    work = np.empty_like(out)
    for j, c in enumerate(coefs):
        np.multiply(c, matrix[..., j], out=work)
        out += work
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times, all >= 0."""

    points: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _as_float_tuple(self.points))
        if len(self.points) == 0:
            raise ValueError("grid must contain at least one point")
        arr = np.asarray(self.points)
        arr.flags.writeable = False
        # index_of searches this one array; it is not a dataclass field
        object.__setattr__(self, "_points", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid points must be finite")
        if arr[0] < 0:
            raise ValueError("grid points must be nonnegative")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("grid points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, times) -> np.ndarray:
        """Map times to grid indices; raises if any time is not a grid point."""
        pts = self._points
        out = np.empty(len(times), dtype=int)
        for k, t in enumerate(times):
            if not math.isfinite(t):  # the tolerance scales with |t|
                raise ValueError(f"time {t} is not on the grid")
            i = int(np.searchsorted(pts, t))
            hit = -1
            for j in (i - 1, i):
                if 0 <= j < len(pts) and abs(pts[j] - t) <= _REL_TOL * max(1.0, abs(t)):
                    hit = j
            if hit < 0:
                raise ValueError(f"time {t} is not on the grid")
            out[k] = hit
        return out

    def contains(self, t: float) -> bool:
        try:
            self.index_of([t])
            return True
        except ValueError:
            return False


def make_grid(points) -> TimeGrid:
    """Build a TimeGrid, validating order and sign."""
    return TimeGrid(tuple(points))


# ---------- jump laws ----------


@dataclass(frozen=True)
class JumpLaw:
    """Jump-size distribution: exponential, gamma, a point mass, or finite atoms.

    `params` holds the kind-specific parameters; use the constructors below.
    """

    kind: str
    params: tuple

    @staticmethod
    def exponential(mean: float) -> "JumpLaw":
        _positive("exponential mean", mean)
        return JumpLaw("exponential", (float(mean),))

    @staticmethod
    def gamma(shape: float, rate: float) -> "JumpLaw":
        _positive("gamma shape", shape)
        _positive("gamma rate", rate)
        return JumpLaw("gamma", (float(shape), float(rate)))

    @staticmethod
    def constant(value: float) -> "JumpLaw":
        _positive("constant jump value", value)
        return JumpLaw("constant", (float(value),))

    @staticmethod
    def discrete(atoms) -> "JumpLaw":
        """atoms: iterable of (size, probability) with sizes > 0 and probs summing to 1."""
        pairs = tuple((float(x), float(p)) for x, p in atoms)
        if not pairs:
            raise ValueError("discrete law needs at least one atom")
        _positive("atom sizes and probabilities", *(v for pair in pairs for v in pair))
        if abs(sum(p for _, p in pairs) - 1.0) > 1e-9:
            raise ValueError("atom probabilities must sum to 1")
        return JumpLaw("discrete", pairs)

    @property
    def mean(self) -> float:
        if self.kind == "exponential":
            return self.params[0]
        if self.kind == "gamma":
            k, r = self.params
            return k / r
        if self.kind == "constant":
            return self.params[0]
        return sum(x * p for x, p in self.params)

    def one_minus_exp_moment(self, c) -> np.ndarray:
        """E[1 - exp(-c X)] for X with this law, at each c >= 0 of an array.

        Each form keeps its relative accuracy as c -> 0, where the Sato
        quadrature divides it by c.
        """
        c = np.asarray(c, dtype=float)
        if self.kind == "exponential":
            x = c * self.params[0]
            return x / (1.0 + x)
        if self.kind == "gamma":
            k, r = self.params
            return -np.expm1(-k * np.log1p(c / r))
        if self.kind == "constant":
            return -np.expm1(-c * self.params[0])
        xs, ps = zip(*self.params)
        return _matvec(-np.expm1(-np.multiply.outer(c, xs)), ps)


@dataclass(frozen=True)
class JumpLawSpec:
    """Compound Poisson subordinator: jump rate plus jump-size law."""

    rate: float
    law: JumpLaw

    def __post_init__(self):
        _positive("jump rate", self.rate)

    @property
    def kappa(self) -> float:
        """Mean slope E Z_1 = rate * E(jump)."""
        return self.rate * self.law.mean


# ---------- convolution kernels ----------


class Kernel:
    """Nonnegative kernel f on [0, inf), zero on negatives.

    Subclasses provide evaluation, the running integral I(a) = int_0^a f,
    and the maximal intervals of {u >= 0 : f(u) > 0}.
    """

    support_end: float

    def __call__(self, u):
        raise NotImplementedError

    def integral(self, a: float) -> float:
        raise NotImplementedError

    def positive_intervals(self) -> tuple[tuple[float, float], ...]:
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Points where f or its derivative may jump (used to split quadrature)."""
        raise NotImplementedError


def in_intervals(u, intervals):
    """Whether u, a float or an array, lies in one of the closed `intervals`.

    With a kernel's positive_intervals this is f(u) > 0, the rule every
    alive-at-a test uses, decided without f's float value, which underflows
    in an exp-decay tail.
    """
    inside = np.zeros(np.shape(u), bool)
    for lo, hi in intervals:
        inside |= (lo <= u) & (u <= hi)
    return inside


@dataclass(frozen=True)
class ExpDecayKernel(Kernel):
    """f(u) = exp(-decay * u) on [0, inf)."""

    decay: float

    def __post_init__(self):
        _positive("kernel decay", self.decay)
        object.__setattr__(self, "support_end", math.inf)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(u >= 0, np.exp(-self.decay * np.maximum(u, 0.0)), 0.0)
        return out if out.shape else float(out)

    def integral(self, a: float) -> float:
        if a <= 0:
            return 0.0
        return float(-math.expm1(-self.decay * a) / self.decay)

    def positive_intervals(self):
        return ((0.0, math.inf),)

    def breakpoints(self):
        return (0.0,)


@dataclass(frozen=True)
class PowerCutoffKernel(Kernel):
    """f(u) = (1 + u)^(-power) on [0, length], 0 elsewhere."""

    power: float
    length: float

    def __post_init__(self):
        _positive("kernel power", self.power)
        _positive("kernel length", self.length)
        object.__setattr__(self, "support_end", float(self.length))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        inside = (u >= 0) & (u <= self.length)
        out = np.where(inside, (1.0 + np.where(inside, u, 0.0)) ** (-self.power), 0.0)
        return out if out.shape else float(out)

    def integral(self, a: float) -> float:
        b = min(max(a, 0.0), self.length)
        if b <= 0:
            return 0.0
        if abs(self.power - 1.0) < 1e-12:
            return float(math.log1p(b))
        p = self.power
        return float(((1.0 + b) ** (1.0 - p) - 1.0) / (1.0 - p))

    def positive_intervals(self):
        return ((0.0, self.length),)

    def breakpoints(self):
        return (0.0, self.length)


@dataclass(frozen=True)
class TabulatedKernel(Kernel):
    """Piecewise-linear kernel through (knots, values); zero outside the table."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", _as_float_tuple(self.knots))
        object.__setattr__(self, "values", _as_float_tuple(self.values))
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ValueError("need matching knots and values, at least two points")
        k = np.asarray(self.knots)
        if not np.all(np.isfinite(k)) or k[0] < 0 or np.any(np.diff(k) <= 0):
            raise ValueError("kernel knots must be finite, nonnegative and strictly increasing")
        if not all(v >= 0 and math.isfinite(v) for v in self.values):
            raise ValueError("kernel values must be nonnegative and finite")
        object.__setattr__(self, "support_end", float(self.knots[-1]))

    def __call__(self, u):
        # knots[0] >= 0, so every u < 0 falls left of the table and reads 0
        out = np.interp(u, self.knots, self.values, left=0.0, right=0.0)
        return out if out.shape else float(out)

    def _cum(self) -> np.ndarray:
        k = np.asarray(self.knots)
        v = np.asarray(self.values)
        seg = 0.5 * (v[1:] + v[:-1]) * np.diff(k)
        return np.concatenate([[0.0], np.cumsum(seg)])

    def integral(self, a: float) -> float:
        # exact for the piecewise-linear interpolant
        k = np.asarray(self.knots)
        if a <= k[0]:
            return 0.0
        cum = self._cum()
        if a >= k[-1]:
            return float(cum[-1])
        i = int(np.searchsorted(k, a, side="right")) - 1
        f0 = self.values[i]
        f1 = float(self(a))
        return float(cum[i] + 0.5 * (f0 + f1) * (a - k[i]))

    def positive_intervals(self):
        # a segment carries mass unless both endpoint values vanish
        out = []
        lo = None
        for i in range(len(self.knots) - 1):
            if self.values[i] > 0 or self.values[i + 1] > 0:
                if lo is None:
                    lo = self.knots[i]
            else:
                if lo is not None:
                    out.append((lo, self.knots[i]))
                    lo = None
        if lo is not None:
            out.append((lo, self.knots[-1]))
        return tuple(out)

    def breakpoints(self):
        return self.knots


# ---------- process specs ----------


@dataclass(frozen=True)
class PoissonSpec:
    """Standard Poisson counting process with jump rate `rate`."""

    rate: float

    def __post_init__(self):
        _positive("Poisson rate", self.rate)


@dataclass(frozen=True)
class TemperedStableSpec:
    """Tempered stable subordinator normalized so E exp(-u psi(t)) = exp(t (1 - (1+u)^alpha))."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SatoSpec:
    """Self-similar additive process of exponent H built from a compound Poisson
    background driver. With an exponential jump law the sampler's paths are
    exact; with any other it truncates the driver's domain at
    processes.required_cutoff of the sampled times."""

    H: float
    bdlp: JumpLawSpec

    def __post_init__(self):
        _positive("H", self.H)


@dataclass(frozen=True)
class ConvSpec:
    """Moving-average subordinator psi(t) = int_0^t f(t-s) dZ_s.

    The driver Z is a compound Poisson subordinator (exact sampling) or a
    tempered stable subordinator (grid-increment approximation, flagged
    'approximate' in reports).
    """

    kernel: Kernel
    z: Union[JumpLawSpec, TemperedStableSpec]

    def __post_init__(self):
        if not isinstance(self.kernel, Kernel):
            raise ValueError("kernel must be a Kernel instance")
        if not isinstance(self.z, (JumpLawSpec, TemperedStableSpec)):
            raise ValueError("driver must be a JumpLawSpec or TemperedStableSpec")

    @property
    def kappa(self) -> float:
        """Mean slope of the driver."""
        return self.z.kappa if isinstance(self.z, JumpLawSpec) else self.z.alpha

    @property
    def approximate(self) -> bool:
        return isinstance(self.z, TemperedStableSpec)


@dataclass(frozen=True)
class PermanentalSpec:
    """Finite-state permanental process: a symmetric killed chain on
    {0..n-1} (jump rates and killing rates) plus the index beta.

    Transience is required: from every state some positive killing rate
    must be reachable through the jump graph.
    """

    rates: tuple[tuple[float, ...], ...]
    kill: tuple[float, ...]
    beta: float = 1.0

    def __post_init__(self):
        rates = tuple(tuple(float(v) for v in row) for row in self.rates)
        kill = _as_float_tuple(self.kill)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "kill", kill)
        n = len(rates)
        if n == 0 or any(len(row) != n for row in rates):
            raise ValueError("rates must be a square matrix")
        if len(kill) != n:
            raise ValueError("kill vector length must match the state count")
        if self.beta not in (0.5, 1.0):
            raise ValueError("beta must be 1/2 or 1")
        if any(rates[i][i] != 0 for i in range(n)):
            raise ValueError("diagonal jump rates must be zero")
        flat = [v for row in rates for v in row] + list(kill)
        if not all(0 <= v < math.inf for v in flat):  # NaN fails too
            raise ValueError("rates must be nonnegative and finite")
        if any(rates[i][j] != rates[j][i] for i in range(n) for j in range(i)):
            raise ValueError("jump rates must be symmetric")
        # killing must be reachable from every state
        good = {i for i in range(n) if kill[i] > 0}
        frontier = good
        while frontier:
            frontier = {j for j in range(n) if j not in good
                        and any(rates[j][k] > 0 for k in good)}
            good |= frontier
        if len(good) < n:
            raise ValueError("chain is not transient: killing unreachable from some state")

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def rate_matrix(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)

    @property
    def total_rates(self) -> np.ndarray:
        return self.rate_matrix.sum(axis=1) + np.asarray(self.kill)


ProcessSpec = Union[PoissonSpec, TemperedStableSpec, SatoSpec, ConvSpec, PermanentalSpec]


# ---------- functionals and ensembles ----------


@dataclass(frozen=True)
class PanelEntry:
    """One Laplace-functional coordinate: exp(-sum_i alphas[i] * y(times[i]))."""

    alphas: tuple[float, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", _as_float_tuple(self.alphas))
        object.__setattr__(self, "times", _as_float_tuple(self.times))
        if len(self.alphas) != len(self.times) or not self.alphas:
            raise ValueError("alphas and times must be nonempty and of equal length")
        if any(a < 0 or not math.isfinite(a) for a in self.alphas):
            raise ValueError("alphas must be nonnegative and finite")
        if not all(0 <= t < math.inf for t in self.times):  # also rejects NaN
            raise ValueError("times must be nonnegative and finite")

    def scaled(self, factor: float) -> "PanelEntry":
        return PanelEntry(tuple(a * factor for a in self.alphas), self.times)


@dataclass(frozen=True)
class LevyFunctionalPanel:
    """A battery of Laplace-functional coordinates checked jointly."""

    entries: tuple[PanelEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("panel must contain at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rows(self) -> list[dict]:
        """Each entry as a report row of its alphas and times."""
        return [{"alphas": list(e.alphas), "times": list(e.times)} for e in self.entries]


def _nonnegative_finite(x: np.ndarray) -> bool:
    """Every entry of the nonempty float array x is finite and >= 0 (-0.0
    included)."""
    return bool(x.min() >= 0.0 and x.max() < math.inf)


@dataclass
class WeightedEnsemble:
    """Paths on a common grid with nonnegative importance weights."""

    grid: TimeGrid
    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.grid):
            raise ValueError("values must be (n, len(grid))")
        # weights made here are all one: consumers may skip multiplying by them
        self._unit_weights = self.weights is None
        if self._unit_weights:
            self.weights = np.ones(self.values.shape[0])
        self.weights = np.ascontiguousarray(self.weights, dtype=float)
        if self.weights.shape != (self.values.shape[0],):
            raise ValueError("weights must be one per path")
        if self.values.shape[0] == 0:
            raise ValueError("ensemble must contain at least one path")
        # min and max reductions build no boolean temporary; a NaN carries
        # through both and fails the comparisons
        if not self._unit_weights and not _nonnegative_finite(self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if not _nonnegative_finite(self.values):
            raise ValueError("path values must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def mean_function(spec: ProcessSpec, t: float) -> float:
    """E psi(t) for the time-indexed families.

    Permanental specs are state-indexed; their per-state means live in
    the permanental module.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if isinstance(spec, PoissonSpec):
        return spec.rate * t
    if isinstance(spec, TemperedStableSpec):
        return spec.alpha * t
    if isinstance(spec, SatoSpec):
        return spec.bdlp.kappa * t**spec.H
    if isinstance(spec, ConvSpec):
        return spec.kappa * spec.kernel.integral(t)
    raise TypeError("mean_function is defined for the time-indexed families only")
