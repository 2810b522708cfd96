"""Thinning limits: the tilting companion as the small-intensity limit.

Thin a family's jump measure by delta, size-bias the thinned process at a,
and the law converges to the single-jump companion as delta -> 0. Thinning
scales kappa(alpha) = nu(1 - e^{-<alpha, y>}) by delta and leaves the
companion's law as it is, so every rung of the delta ladder has an exact
Laplace functional, e^{-delta kappa(alpha)} T(alpha) with T the
companion's, and the check gates each rung against it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConvSpec,
    JumpLawSpec,
    LevyFunctionalPanel,
    PoissonSpec,
    ProcessSpec,
    SatoSpec,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
    mean_function,
)
from .identities import companion_values
from .levymeasure import levy_functional_quadrature
from .processes import sample_ensemble, values_at
from .randkit import RngStream
from .statlab import Check, effective_sample_size, weighted_laplace_panel

DEFAULT_DELTAS = (1.0, 0.3, 0.1, 0.03)


def thinned_spec(spec: ProcessSpec, delta: float) -> ProcessSpec:
    """The same family with jump measure scaled by delta.

    Rate-driven families scale their rate; the tempered stable subordinator
    has no rate knob, so thinning is realized by sampling on a delta-scaled
    clock (see thinned_values).
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if isinstance(spec, PoissonSpec):
        return PoissonSpec(spec.rate * delta)
    if isinstance(spec, SatoSpec):
        bd = spec.bdlp
        return SatoSpec(spec.H, JumpLawSpec(bd.rate * delta, bd.law))
    if isinstance(spec, ConvSpec) and isinstance(spec.z, JumpLawSpec):
        return ConvSpec(spec.kernel, JumpLawSpec(spec.z.rate * delta, spec.z.law))
    if isinstance(spec, TemperedStableSpec):
        return spec
    raise TypeError(f"no thinning rule for {type(spec).__name__}")


def thinned_values(
    rng: RngStream, spec: ProcessSpec, delta: float, points, n: int, out=None
) -> np.ndarray:
    """Paths of the delta-thinned family at `points`, written into `out`
    when it is given (values_at allocates the block otherwise)."""
    thin = thinned_spec(spec, delta)
    if isinstance(spec, TemperedStableSpec):
        # exponent scaling: the thinned law at t is the original law at delta*t
        return values_at(rng, thin, delta * np.asarray(points, dtype=float), n, out)
    return values_at(rng, thin, points, n, out)


def verify_thinning_limit(
    rng: RngStream,
    spec: ProcessSpec,
    a: float,
    grid: TimeGrid,
    panel: LevyFunctionalPanel,
    n: int,
    deltas=DEFAULT_DELTAS,
    n_max: int = 2_000_000,
    z_crit: float = 3.0,
) -> Check:
    """Walk the ladder, tilt each thinned ensemble at a, and gate every rung
    against its exact Laplace functional.

    Row (delta, entry) compares the known-normalizer mean of w v, with
    w = psi(a) / (delta E psi(a)), against e^{-delta kappa} T, with kappa
    from `levy_functional_quadrature` and T estimated from n_target =
    min(8n, n_max) companion paths on substream 0 (rung k draws on 1 + k).
    All rows share one family-wise gate.

    Rung k draws n_k = min(n / delta_k, n_max) replicates. Its weights have
    mean one and second moment 1 + nu(y(a)^2) / (delta (E psi(a))^2), so
    until the cap binds its effective sample size is about
    n / (delta + nu(y(a)^2) / (E psi(a))^2): the 1/delta scaling keeps it of
    order n, not near n. For Poisson at lambda a = 1 that is n / (1 + delta),
    about n / 2 at delta = 1. A rung that the cap squeezed (n_k = n_max) and
    whose effective sample size fell below n / 2 is flagged in the notes
    (`ess_collapse_at`); an uncapped rung is not, since its expected ESS
    can sit near n / 2 itself.
    `distances` holds each rung's largest gap to the companion estimate,
    which shrinks as O(delta); it is reported, not gated.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("delta ladder must be non-empty")
    if any(not 0 < d <= 1 for d in deltas):
        raise ValueError("deltas must lie in (0, 1]")
    if any(b_ >= a_ for a_, b_ in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    ia = int(grid.index_of([a])[0])
    mean_a = mean_function(spec, a)
    if mean_a <= 0:
        raise ValueError("E psi(a) must be positive")
    n_target = min(n_max, 8 * n)
    target_vals = sample_ensemble(
        lambda stream, out: companion_values(stream, spec, a, grid.points, len(out), out),
        rng.substream(0), n_target, len(grid),
    )
    t_est, t_se = weighted_laplace_panel(WeightedEnsemble(grid, target_vals), panel)
    kappa = np.array([levy_functional_quadrature(spec, e) for e in panel])
    rows, distances, n_used, esses, collapsed = [], [], [], [], []
    for k, delta in enumerate(deltas):
        n_k = min(n_max, math.ceil(n / delta))
        vals = sample_ensemble(
            lambda stream, out: thinned_values(stream, spec, delta, grid.points, len(out), out),
            rng.substream(1 + k), n_k, len(grid),
        )
        weights = vals[:, ia] / (delta * mean_a)
        if not weights.any():
            raise ValueError(f"no path on the rung delta={delta:g} has psi(a) > 0 at "
                             f"a={a:g}, so none can be tilted; raise 'limit.n'")
        est, se = weighted_laplace_panel(WeightedEnsemble(grid, vals, weights), panel)
        decay = np.exp(-delta * kappa)
        rung = (est, se, decay * t_est, decay * t_se)
        rows += [{"delta": delta, **row, "lhs": le, "lhs_se": ls, "rhs": re, "rhs_se": rs}
                 for row, le, ls, re, rs in zip(panel.rows(), *(x.tolist() for x in rung))]
        distances.append(float(np.max(np.abs(est - t_est))))
        n_used.append(n_k)
        esses.append(effective_sample_size(weights))
        if n_k == n_max and esses[-1] < 0.5 * n:
            collapsed.append(delta)
    notes = {"a": a, "n_target": n_target}
    if collapsed:
        notes["ess_collapse_at"] = collapsed
    fields = {"z_crit": z_crit, "deltas": deltas, "n_used": n_used, "ess": esses,
              "distances": distances}
    sides = ([row[c] for row in rows] for c in ("lhs", "lhs_se", "rhs", "rhs_se"))
    return Check(*sides, z_crit, family_wise=True, rows=rows, fields=fields, notes=notes)
