"""Weighted empirical Laplace functionals, linearized errors, and the one
z-gated Check every statistical verdict goes through.

Standard errors are the delta-method (linearized) errors of the
self-normalized ratio estimator sum(w v) / sum(w) (Owen, Monte Carlo
theory, methods and examples, ch. 9); a plain mean is the unit-weight case.
They are closed-form, so they consume no random draws.

A Check holds one report block: each row's estimate and target with their
SEs, z-scored by `compare`, and one gate on every |z|. Identity blocks gate
family-wise at the Bonferroni value over their entries; sampled
representations, marginals and moment columns gate each row at the
block's z_crit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import LevyFunctionalPanel, PanelEntry, WeightedEnsemble, _matvec


def laplace_values(
    ensemble: WeightedEnsemble, entry: PanelEntry, out=None, work=None
) -> np.ndarray:
    """Per-path values of exp(-sum_i alphas[i] * path(times[i])).

    `out` and `work` are optional n-buffers; the result is written to `out`.
    """
    idx = ensemble.grid.index_of(entry.times)
    v = _matvec(ensemble.values, entry.alphas, cols=idx, out=out, work=work)
    np.negative(v, out=v)
    return np.exp(v, out=v)


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
    # every entry is evaluated into the same two n-buffers
    v, tmp = np.empty(w.size), np.empty(w.size)
    for k, entry in enumerate(panel):
        laplace_values(ensemble, entry, out=v, work=tmp)
        est[k] = np.sum(np.multiply(w, v, out=tmp)) / sw
        if w.size >= 2:
            np.subtract(v, est[k], out=v)
            r = np.multiply(w, v, out=v)
            se[k] = math.sqrt(np.sum(np.multiply(r, r, out=tmp))) / sw
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
class Check:
    """One z-gated report block.

    Row k compares lhs[k] (an estimate with SE lhs_se[k]) with rhs[k] (its
    target with SE rhs_se[k]) through `compare`. A row passes when
    |z| <= z_crit. The block passes when every |z| is at most `crit`: z_crit
    for a block gated row by row, bonferroni_crit(z_crit, rows) for a
    family-wise one, which also reports it as `bonferroni_z`. `rows` holds
    each row's report fields, listed under `key`; `fields` holds the block's.
    """

    lhs: np.ndarray
    lhs_se: np.ndarray
    rhs: np.ndarray
    rhs_se: np.ndarray
    z_crit: float
    family_wise: bool = False
    rows: list = field(default_factory=list)
    key: str = "entries"
    fields: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        sides = np.broadcast_arrays(*(np.asarray(x, float) for x in
                                      (self.lhs, self.lhs_se, self.rhs, self.rhs_se)))
        self.lhs, self.lhs_se, self.rhs, self.rhs_se = sides
        self.z = np.array([compare((le, ls), (re, rs))[0] for le, ls, re, rs
                           in zip(*(x.tolist() for x in sides))], float)
        self.crit = (bonferroni_crit(self.z_crit, len(self.z)) if self.family_wise
                     else self.z_crit)
        self.entry_pass = [bool(abs(z) <= self.z_crit) for z in self.z]
        self.overall_pass = bool(np.all(np.abs(self.z) <= self.crit))

    def to_dict(self) -> dict:
        rows = [{**row, "z": float(z), "pass": ok}
                for row, z, ok in zip(self.rows, self.z, self.entry_pass)]
        return {
            self.key: rows,
            **self.fields,
            **({"bonferroni_z": self.crit} if self.family_wise else {}),
            "pass": self.overall_pass,
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
) -> Check:
    """The family-wise Check of an identity over a panel: lhs against rhs,
    entry by entry, under one Bonferroni gate."""
    sides = [np.asarray(x, float).tolist() for x in (lhs, lhs_se, rhs, rhs_se)]
    rows = [{**row, "lhs": le, "lhs_se": ls, "rhs": re, "rhs_se": rs}
            for row, le, ls, re, rs in zip(panel.rows(), *sides)]
    return Check(*sides, z_crit, family_wise=True, rows=rows,
                 fields={"label": label, "z_crit": z_crit, "n": n}, notes=notes or {})
