"""Finite-state permanental processes tied to symmetric killed Markov chains.

Normalization: a permanental vector psi with kernel K and index beta has

    E exp(-1/2 sum_i alpha_i psi(x_i)) = det(I + diag(alpha) K)^(-beta),

so beta = 1/2 is the square of a centered Gaussian vector with covariance K.
The kernel of interest is the Green matrix of a transient chain; then the
decomposition and tilting companions at a state a are both twice the local
time field of the chain started at a and killed at its last visit to a.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    WeightedEnsemble,
    make_grid,
)
from .randkit import RngStream
from .statlab import (
    IdentityReport,
    bootstrap_mean_se,
    build_identity_report,
    weighted_laplace_panel,
)

_MAX_STEPS = 100_000
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class GreenMatrix:
    """Symmetric positive semidefinite kernel with its state count."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel must be square")
        scale = max(1.0, float(np.abs(m).max()))
        if not np.allclose(m, m.T, atol=1e-9 * scale):
            raise ValueError("kernel must be symmetric")
        w = np.linalg.eigvalsh(0.5 * (m + m.T))
        if w.min() < -_PSD_TOL * scale:
            raise ValueError("kernel must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def green_matrix(chain: PermanentalSpec) -> GreenMatrix:
    """Expected sojourn times g(x, y) = E_x[time spent at y], as a matrix.

    The chain's jump rates are symmetric, so the Green matrix is symmetric
    and positive definite.
    """
    m = np.diag(chain.total_rates) - chain.rate_matrix
    try:
        g = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("chain is not transient enough to invert") from exc
    return GreenMatrix(g)


def conditional_kernel(green: GreenMatrix, a: int) -> GreenMatrix:
    """Green function of the chain killed at its first visit to a:
    g_a(x, y) = g(x, y) - g(x, a) g(a, y) / g(a, a). Row and column a vanish."""
    g = green.matrix
    n = green.n
    if not 0 <= a < n:
        raise ValueError("a must be a state index")
    if g[a, a] <= 0:
        raise ValueError("g(a, a) must be positive")
    out = g - np.outer(g[:, a], g[a, :]) / g[a, a]
    out[a, :] = 0.0
    out[:, a] = 0.0
    return GreenMatrix(out)


def _factor(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(matrix)
        scale = max(1.0, float(np.abs(w).max()))
        if w.min() < -1e-8 * scale:
            raise ValueError("kernel is not positive semidefinite") from None
        return v * np.sqrt(np.clip(w, 0.0, None))


def sample_permanental(rng: RngStream, green: GreenMatrix, beta: float, size: int) -> np.ndarray:
    """(size, n) permanental vectors for beta in {1/2, 1}: one or two
    independent squared centered Gaussian fields with covariance `green`."""
    if beta not in (0.5, 1.0):
        raise ValueError("beta must be 1/2 or 1")
    L = _factor(green.matrix)
    gen = rng.generator
    out = (gen.standard_normal((size, green.n)) @ L.T) ** 2
    if beta == 1.0:
        out += (gen.standard_normal((size, green.n)) @ L.T) ** 2
    return out


def _simulate_local_times(rng: RngStream, chain: PermanentalSpec, start: int, n: int):
    """Lockstep simulation of n independent chains from `start`.

    Returns (full, pinned): total sojourn times over the whole lifetime, and
    the snapshot taken at the final departure from `start` (sojourns strictly
    after the last visit are discarded; the last sojourn at `start` counts).
    """
    ns = chain.n
    rates = chain.rate_matrix
    kill = np.asarray(chain.kill)
    total = chain.total_rates
    kill_prob = kill / total
    jump_cum = np.cumsum(
        np.divide(rates, rates.sum(axis=1, keepdims=True),
                  out=np.zeros_like(rates), where=rates.sum(axis=1, keepdims=True) > 0),
        axis=1,
    )
    gen = rng.generator
    state = np.full(n, start, dtype=int)
    alive = np.arange(n)
    full = np.zeros((n, ns))
    pinned = np.zeros((n, ns))
    for _ in range(_MAX_STEPS):
        if alive.size == 0:
            return full, pinned
        s = state[alive]
        dt = gen.standard_exponential(alive.size) / total[s]
        full[alive, s] += dt
        at_start = s == start
        if at_start.any():
            rows = alive[at_start]
            pinned[rows] = full[rows]
        u = gen.random(alive.size)
        dies = u < kill_prob[s]
        survivors = alive[~dies]
        if survivors.size:
            v = (u[~dies] - kill_prob[s[~dies]]) / (1.0 - kill_prob[s[~dies]])
            nxt = (v[:, None] > jump_cum[s[~dies]]).sum(axis=1)
            state[survivors] = nxt
        alive = survivors
    raise RuntimeError("chain simulation exceeded the step budget")


def sample_total_sojourns(rng: RngStream, chain: PermanentalSpec, start: int, size: int) -> np.ndarray:
    """Sojourn times over the full lifetime; E equals the Green row of `start`."""
    full, _ = _simulate_local_times(rng, chain, start, size)
    return full


def sample_local_times(rng: RngStream, chain: PermanentalSpec, a: int, size: int) -> np.ndarray:
    """Local time field of the chain from a killed at its last visit to a."""
    if not 0 <= a < chain.n:
        raise ValueError("a must be a state index")
    _, pinned = _simulate_local_times(rng, chain, a, size)
    return pinned


def _green_array(green) -> np.ndarray:
    """Accept a GreenMatrix or a plain symmetric array."""
    return green.matrix if isinstance(green, GreenMatrix) else np.asarray(green, float)


def permanental_mean(green, beta: float) -> np.ndarray:
    """Per-state means 2 beta g(x, x)."""
    return 2.0 * beta * np.diag(_green_array(green))


def local_time_mean(green, a: int) -> np.ndarray:
    """E of the pinned local time field: g(a, x) g(x, a) / g(a, a)."""
    g = _green_array(green)
    return g[a, :] * g[:, a] / g[a, a]


def default_state_panel(n: int, a: int) -> LevyFunctionalPanel:
    """Singles at every state, a pair through a, and the full vector."""
    entries = [PanelEntry((1.0,), (float(x),)) for x in range(n)]
    if n > 1:
        other = (a + 1) % n
        entries.append(PanelEntry((0.8, 1.2), (float(a), float(other))))
        entries.append(PanelEntry(tuple(0.5 for _ in range(n)), tuple(float(x) for x in range(n))))
    return LevyFunctionalPanel(tuple(entries))


def _state_grid(n: int):
    return make_grid([float(x) for x in range(n)])


def verify_permanental_identity(
    rng: RngStream,
    chain: PermanentalSpec,
    a: int,
    panel: LevyFunctionalPanel | None = None,
    n: int = 100_000,
    z_crit: float = 3.0,
) -> IdentityReport:
    """Index-1 permanental field with the Green kernel against the
    conditional field (kernel killed at a) plus twice the pinned local times.

    Entries use the half convention: exp(-1/2 sum alpha_i psi(x_i)).
    """
    green = green_matrix(chain)
    if panel is None:
        panel = default_state_panel(chain.n, a)
    half = LevyFunctionalPanel(tuple(e.scaled(0.5) for e in panel))
    grid = _state_grid(chain.n)
    lhs_vals = sample_permanental(rng.substream(1), green, 1.0, n)
    cond = sample_permanental(rng.substream(2), conditional_kernel(green, a), 1.0, n)
    local = sample_local_times(rng.substream(3), chain, a, n)
    rhs_vals = cond + 2.0 * local
    lhs_ens = WeightedEnsemble(grid, lhs_vals)
    rhs_ens = WeightedEnsemble(grid, rhs_vals)
    lhs, lhs_se = weighted_laplace_panel(lhs_ens, half)
    rhs, rhs_se = weighted_laplace_panel(rhs_ens, half)
    return build_identity_report(
        "permanental", panel, lhs, rhs, lhs_se, rhs_se, z_crit, n,
        notes={"a": a},
    )


def levy_functional_permanental(
    rng: RngStream,
    chain: PermanentalSpec,
    m_weights,
    entry: PanelEntry,
    n: int,
):
    """Monte Carlo evaluation of the permanental Levy functional

        nu(F) = int E[ F(2 L^a) / sum_x L^a(x) m(x) ] g(a, a) m(da)

    with F(y) = 1 - exp(-1/2 sum alpha_i y(x_i)) and m a positive weight
    vector over states. Replicates with a vanishing denominator would be
    rejected and counted, but cannot occur because L^a(a) > 0.
    """
    from .levymeasure import LevyEstimate

    m = np.asarray(m_weights, dtype=float)
    if m.shape != (chain.n,) or np.any(m < 0) or m.sum() <= 0:
        raise ValueError("m_weights must be nonnegative with positive total")
    green = green_matrix(chain)
    g = green.matrix
    alphas = np.asarray(entry.alphas)
    states = np.asarray(entry.times, dtype=int)
    if np.any(states < 0) or np.any(states >= chain.n):
        raise ValueError("entry times must be state indices")
    gen = rng.substream(1).generator
    probs = m / m.sum()
    starts = gen.choice(chain.n, size=n, p=probs)
    x = np.zeros(n)
    for a in np.unique(starts):
        rows = np.where(starts == a)[0]
        local = sample_local_times(rng.substream(2, int(a)), chain, int(a), rows.size)
        denom = local @ m
        bad = denom <= 0
        if bad.any():
            warnings.warn(f"rejected {int(bad.sum())} replicates with zero denominator",
                          RuntimeWarning, stacklevel=2)
        f = -np.expm1(-0.5 * (2.0 * local[:, states] @ alphas))
        contrib = np.where(bad, 0.0, m.sum() * g[a, a] * f / np.where(bad, 1.0, denom))
        x[rows] = contrib
    se = bootstrap_mean_se(x)
    return LevyEstimate(float(x.mean()), se, "permanental-mc")


def marginal_levy_functional(green, alpha: float, x: int) -> float:
    """Closed form for the single-coordinate functional:
    -log E exp(-alpha psi(x) / 2) = log(1 + alpha g(x, x))."""
    return math.log1p(alpha * _green_array(green)[x, x])
