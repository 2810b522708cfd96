"""Finite-state permanental processes tied to symmetric killed Markov chains.

Normalization: a permanental vector psi with kernel K and index beta has

    E exp(-1/2 sum_i alpha_i psi(x_i)) = det(I + diag(alpha) K)^(-beta),

so beta = 1/2 is the square of a centered Gaussian vector with covariance K.
The kernel of interest is the Green matrix of a transient chain; then the
decomposition and tilting companions at a state a are both twice the local
time field of the chain started at a and killed at its last visit to a.
With beta = 1 the field with kernel K is the conditional one (kernel K_a,
killed at a) plus twice those local times L, so 2 L has the exact transform
det(I + Lambda K_a) / det(I + Lambda K), Lambda = diag(alpha); the identity
check gates 2 L against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    WeightedEnsemble,
    _matvec,
    make_grid,
)
from .randkit import RngStream
from .statlab import (
    Check,
    build_identity_report,
    mean_se,
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

    def field():
        z = gen.standard_normal((size, green.n))
        return np.column_stack([_matvec(z, row) for row in L])  # z @ L.T

    out = field() ** 2
    if beta == 1.0:
        out += field() ** 2
    return out


def _expected_jumps(chain: PermanentalSpec, start: int) -> float:
    """Expected number of sojourns of the chain from `start` before it is
    killed: sum_y g(start, y) total(y), with the Green row solved directly."""
    total = chain.total_rates
    e = np.zeros(chain.n)
    e[start] = 1.0
    try:
        g = np.linalg.solve(np.diag(total) - chain.rate_matrix, e)
    except np.linalg.LinAlgError:
        return math.inf
    return float(np.sum(g * total))


def _step_budget_error(start: int) -> ValueError:
    return ValueError(
        f"the killed chain from state {start} outlives the {_MAX_STEPS}-jump "
        "simulation budget; raise the killing rates ('kill')")


def _simulate_local_times(rng: RngStream, chain: PermanentalSpec, start: int, n: int):
    """Lockstep simulation of n independent chains from `start`.

    Returns the pinned field: the running sojourn totals as they stood at the
    final departure from `start` (sojourns strictly after the last visit are
    discarded; the last sojourn at `start` counts).
    Raises ValueError, naming 'kill', when the chain is expected to jump more
    than _MAX_STEPS times, or when some chain outlives that budget.
    """
    if not _expected_jumps(chain, start) <= _MAX_STEPS:  # also rejects NaN
        raise _step_budget_error(start)
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
    cum_cols = [np.ascontiguousarray(jump_cum[:, k]) for k in range(ns)]
    gen = rng.generator
    full = np.zeros((n, ns))
    pinned = np.zeros((n, ns))
    flat, pflat = full.reshape(-1), pinned.reshape(-1)
    # compacted to the live chains: current state and flat offset of the row
    s = np.full(n, start, dtype=np.intp)
    base = np.arange(0, n * ns, ns, dtype=np.intp)
    for _ in range(_MAX_STEPS):
        if s.size == 0:
            return pinned
        dt = gen.standard_exponential(s.size) / total[s]
        flat[base + s] += dt  # one cell per live row, so no index repeats
        at_start = s == start
        if at_start.any():
            b = base[at_start]
            for k in range(ns):
                idx = b + k
                pflat[idx] = flat[idx]
        u = gen.random(s.size)
        kp = kill_prob[s]
        keep = np.flatnonzero(u >= kp)
        s, base, u, kp = s.take(keep), base.take(keep), u.take(keep), kp.take(keep)
        v = (u - kp) / (1.0 - kp)
        # the next state counts the cumulative jump probabilities below v
        nxt = np.zeros(s.size, dtype=np.intp)
        for col in cum_cols:
            nxt += v > col[s]
        s = nxt
    if s.size:
        raise _step_budget_error(start)
    return pinned  # every chain died on the last allowed step


def sample_local_times(rng: RngStream, chain: PermanentalSpec, a: int, size: int) -> np.ndarray:
    """Local time field of the chain from a killed at its last visit to a."""
    if not 0 <= a < chain.n:
        raise ValueError("a must be a state index")
    return _simulate_local_times(rng, chain, a, size)


def permanental_mean(green: GreenMatrix, beta: float) -> np.ndarray:
    """Per-state means 2 beta g(x, x)."""
    return 2.0 * beta * np.diag(green.matrix)


def local_time_mean(green: GreenMatrix, a: int) -> np.ndarray:
    """E of the pinned local time field: g(a, x) g(x, a) / g(a, a)."""
    g = green.matrix
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
    local: np.ndarray | None = None,
) -> Check:
    """Twice the pinned local times against the exact ratio
    det(I + Lambda K_a) / det(I + Lambda K), which the index-1 field with
    the Green kernel K and the conditional field (kernel K_a, killed at a)
    leave for it.

    Entries use the half convention: exp(-1/2 sum alpha_i psi(x_i)), and
    Lambda is diag(alpha) with an entry's alphas summed per state. The
    (n, states) pinned local times are drawn on rng.substream(3) unless the
    caller passes that draw as `local`. The exact values have SE 0.
    """
    green = green_matrix(chain)
    if panel is None:
        panel = default_state_panel(chain.n, a)
    half = LevyFunctionalPanel(tuple(e.scaled(0.5) for e in panel))
    grid = _state_grid(chain.n)
    if local is None:
        local = sample_local_times(rng.substream(3), chain, a, n)
    est, se = weighted_laplace_panel(WeightedEnsemble(grid, 2.0 * local), half)
    k, k_a = green.matrix, conditional_kernel(green, a).matrix
    eye = np.eye(chain.n)
    exact = []
    for entry in panel:
        lam = np.zeros(chain.n)
        np.add.at(lam, grid.index_of(entry.times), entry.alphas)
        exact.append(np.linalg.det(eye + lam[:, None] * k_a)
                     / np.linalg.det(eye + lam[:, None] * k))
    return build_identity_report(
        "permanental", panel, est, exact, se, np.zeros(len(panel)), z_crit, n,
        notes={"a": a},
    )


def levy_functional_permanental(
    rng: RngStream,
    chain: PermanentalSpec,
    m_weights,
    panel: LevyFunctionalPanel,
    n: int,
):
    """Monte Carlo evaluation of the permanental Levy functional

        nu(F) = int E[ F(2 L^a) / sum_x L^a(x) m(x) ] g(a, a) m(da)

    with F(y) = 1 - exp(-1/2 sum alpha_i y(x_i)) and m a positive weight
    vector over states: the means of the per-row terms and their SEs
    (`statlab.mean_se`), as arrays over the panel.
    The entries share one draw, the n start states on substream 1 and one
    local-time ensemble per start state a on substream (2, a). The
    denominator is at least L^a(a) m(a) > 0, since start states are drawn
    with probability proportional to m.
    """
    m = np.asarray(m_weights, dtype=float)
    if m.shape != (chain.n,) or not np.all(np.isfinite(m) & (m >= 0)) or m.sum() <= 0:
        raise ValueError("m_weights must be finite and nonnegative with positive total")
    entries = []
    for entry in panel:
        times = np.asarray(entry.times, dtype=float)
        if not np.isin(times, np.arange(chain.n)).all():
            raise ValueError("entry times must be state indices")
        entries.append((np.asarray(entry.alphas), times.astype(int)))
    green = green_matrix(chain)
    g = green.matrix
    gen = rng.substream(1).generator
    probs = m / m.sum()
    starts = gen.choice(chain.n, size=n, p=probs)
    x = np.zeros((len(entries), n))
    for a in np.unique(starts):
        rows = np.where(starts == a)[0]
        local = sample_local_times(rng.substream(2, int(a)), chain, int(a), rows.size)
        denom = _matvec(local, m)
        for k, (alphas, states) in enumerate(entries):
            f = -np.expm1(-0.5 * (2.0 * _matvec(local[:, states], alphas)))
            x[k, rows] = m.sum() * g[a, a] * f / denom
    est, se = zip(*map(mean_se, x))
    return np.array(est), np.array(se)


def marginal_levy_functional(green: GreenMatrix, alpha: float, x: int) -> float:
    """Closed form for the single-coordinate functional:
    -log E exp(-alpha psi(x) / 2) = log(1 + alpha g(x, x))."""
    return math.log1p(alpha * green.matrix[x, x])
