"""Weighted empirical Laplace functionals, linearized errors, z comparisons.

Standard errors are the delta-method (linearized) errors of the
self-normalized ratio estimator sum(w v) / sum(w) (Owen, Monte Carlo
theory, methods and examples, ch. 9); a plain mean is the unit-weight case.
They are closed-form, so they consume no random draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import LevyFunctionalPanel, PanelEntry, WeightedEnsemble, _matvec


def laplace_values(ensemble: WeightedEnsemble, entry: PanelEntry) -> np.ndarray:
    """Per-path values of exp(-sum_i alphas[i] * path(times[i]))."""
    idx = ensemble.grid.index_of(entry.times)
    return np.exp(-_matvec(ensemble.values[:, idx], entry.alphas))


def weighted_laplace_panel(
    ensemble: WeightedEnsemble, panel: LevyFunctionalPanel, b: int = 500
):
    """Self-normalized estimates and linearized SEs for every panel entry.

    se_k = sqrt(sum_i w_i^2 (v_ik - est_k)^2) / sum_i w_i; fewer than two
    paths give se 0. The estimates are invariant under rescaling all
    weights by a positive constant. `b` is kept from the former bootstrap
    and has no effect.
    """
    w = ensemble.weights
    sw = w.sum()
    if sw <= 0:
        raise ValueError("all ensemble weights are zero")
    est = np.empty(len(panel))
    se = np.zeros(len(panel))
    for k, entry in enumerate(panel):
        v = laplace_values(ensemble, entry)
        est[k] = np.sum(w * v) / sw
        if w.size >= 2:
            r = w * (v - est[k])
            se[k] = math.sqrt(np.sum(r * r)) / sw
    return est, se


def bootstrap_mean_se(x: np.ndarray, b: int = 500) -> float:
    """SE of a plain mean, std(x) / sqrt(n); fewer than two values give 0.

    The name and the ignored `b` are kept from the former bootstrap.
    """
    x = np.asarray(x, float)
    if x.size < 2:
        return 0.0
    return float(x.std() / math.sqrt(x.size))


def compare(lhs: tuple[float, float], rhs: tuple[float, float], z_crit: float = 3.0):
    """z-score of lhs - rhs given (estimate, se) pairs, plus a pass verdict.

    Two exact values (se 0 on both sides) pass only when equal; an unequal
    exact pair is a deterministic mismatch and fails with z = inf.
    """
    le, ls = lhs
    re, rs = rhs
    denom = math.hypot(ls, rs)
    # differences at float-rounding scale carry no statistical information,
    # even when a degenerate SE is equally tiny
    if abs(le - re) <= 1e-12 * max(1.0, abs(le), abs(re)):
        return 0.0, True
    if denom == 0:
        return math.inf, False
    z = (le - re) / denom
    return z, abs(z) <= z_crit


def bonferroni_crit(z_crit: float, k: int) -> float:
    """Critical value so that k simultaneous two-sided tests keep the
    family-wise level of a single test at z_crit.

    The per-test tail probability underflows to 0 for z_crit above about
    38, where the critical value is inf; it reaches 1 only for k = 1 and
    z_crit below about -8.3, where it is -inf."""
    if k < 1:
        raise ValueError("k must be at least 1")
    alpha = math.erfc(z_crit / math.sqrt(2.0))
    p = alpha / (2.0 * k)
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return -math.inf
    return -NormalDist().inv_cdf(p)


def effective_sample_size(weights: np.ndarray) -> float:
    w = np.abs(np.asarray(weights, float))
    s2 = (w**2).sum()
    if s2 == 0:
        return 0.0
    return float(w.sum() ** 2 / s2)


@dataclass
class IdentityReport:
    """Panel-wise two-sided comparison with per-entry and family-wise verdicts."""

    label: str
    panel: LevyFunctionalPanel
    lhs: np.ndarray
    rhs: np.ndarray
    lhs_se: np.ndarray
    rhs_se: np.ndarray
    z: np.ndarray
    entry_pass: list[bool]
    overall_pass: bool
    z_crit: float
    bonferroni_z: float
    n: int
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        entries = []
        for k, e in enumerate(self.panel):
            entries.append(
                {
                    "alphas": list(e.alphas),
                    "times": list(e.times),
                    "lhs": float(self.lhs[k]),
                    "lhs_se": float(self.lhs_se[k]),
                    "rhs": float(self.rhs[k]),
                    "rhs_se": float(self.rhs_se[k]),
                    "z": float(self.z[k]),
                    "pass": bool(self.entry_pass[k]),
                }
            )
        return {
            "label": self.label,
            "entries": entries,
            "z_crit": self.z_crit,
            "bonferroni_z": self.bonferroni_z,
            "n": self.n,
            "pass": bool(self.overall_pass),
            **({"notes": self.notes} if self.notes else {}),
        }


def build_identity_report(
    label: str,
    panel: LevyFunctionalPanel,
    lhs,
    rhs,
    lhs_se,
    rhs_se,
    z_crit: float,
    n: int,
    notes: dict | None = None,
) -> IdentityReport:
    """Assemble per-entry z-scores and the Bonferroni family-wise verdict."""
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    lhs_se, rhs_se = np.asarray(lhs_se, float), np.asarray(rhs_se, float)
    z = np.empty(len(panel))
    entry_pass = []
    for k in range(len(panel)):
        zk, ok = compare((lhs[k], lhs_se[k]), (rhs[k], rhs_se[k]), z_crit)
        z[k] = zk
        entry_pass.append(ok)
    bz = bonferroni_crit(z_crit, len(panel))
    overall = bool(np.all(np.abs(z) <= bz))
    return IdentityReport(
        label, panel, lhs, rhs, lhs_se, rhs_se, z, entry_pass, overall,
        z_crit, bz, n, notes or {},
    )
