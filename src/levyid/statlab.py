"""Weighted empirical Laplace functionals, the one mean-and-SE rule, and the
one z-gated Check every statistical verdict goes through.

Every identity is a statement about Laplace functionals, so every verdict is
a z-test on the mean of per-row terms. `mean_se` is the one estimator of
that mean and its SE: sum t / n with se = sqrt(sum (t - est)^2) / n, and
optionally a control of known mean regressed out (Owen, Monte Carlo theory,
methods and examples, chs. 8 and 9); terms that are all equal give their
value with se 0. `weighted_laplace_panel` applies it to the terms w v of
every panel entry, for weights of mean exactly one such as the tilting
weights psi(a) / E psi(a); the tilting LHS passes those weights as the
control, with mean 1. The SEs are closed-form, so they consume no
random draws. The panel resolves every entry's grid columns once per call,
reduces each entry in one product pass into one reused n-buffer, reading
each grid column of the column-major ensemble values as one contiguous
vector, and multiplies by the weights only when the ensemble was given
weights.

A Check holds one report block: each row's estimate and target with their
SEs, z-scored by `compare`, and one gate on every |z|. Identity blocks and
the thinning ladder gate family-wise at the Bonferroni value over their
rows; sampled representations, marginals and moment columns gate each row
at the block's z_crit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import LevyFunctionalPanel, PanelEntry, WeightedEnsemble


def _laplace_into(out, work, values, cols, alphas) -> np.ndarray:
    """exp(-sum_i alphas[i] * values[:, cols[i]]) in the n-buffer `out`,
    summed one column at a time in alphas order, with the n-buffer `work`.

    Per-path sums stay off BLAS, whose threads split a long sum by thread
    count (see core._matvec). The first product is written with its
    coefficient negated and the rest are subtracted, so the sum needs neither
    a zeroed buffer nor a negation pass. Path values and alphas are
    nonnegative, so this is the negated sum bit for bit: rounding is
    symmetric in sign, and a zero sum gives exp(-0.0) = exp(0.0) = 1.
    """
    for k, (j, c) in enumerate(zip(cols, alphas)):
        if k == 0:
            np.multiply(values[:, j], -c, out=out)
        else:
            np.subtract(out, np.multiply(values[:, j], c, out=work), out=out)
    return np.exp(out, out=out)


def laplace_values(ensemble: WeightedEnsemble, entry: PanelEntry) -> np.ndarray:
    """Per-path values of exp(-sum_i alphas[i] * path(times[i]))."""
    n = ensemble.n
    return _laplace_into(np.empty(n), np.empty(n), ensemble.values,
                         ensemble.grid.index_of(entry.times), entry.alphas)


def _center(x: np.ndarray, out: np.ndarray) -> float:
    """Mean of x, with x - mean written to `out` (which may be x).

    The values are shifted by x[0] before they are summed, so equal values
    have deviations of exactly 0.
    """
    first = float(x[0])
    np.subtract(x, first, out=out)
    shift = float(np.sum(out)) / out.size
    np.subtract(out, shift, out=out)
    return first + shift


def _centred_control(c, m: float):
    """A control c of known mean m, centred once for every vector of terms on
    its rows: (c - mean c, mean c - m, sum (c - mean c)^2)."""
    c = np.asarray(c, float)
    cc = np.empty(c.size)
    offset = _center(c, cc) - m
    return cc, offset, np.sum(cc * cc)


def _mean_se(t: np.ndarray, control, work: np.ndarray):
    """`mean_se` of the float n-vector t, which is overwritten, with a control
    from `_centred_control` (or None) and the scratch n-buffer `work`."""
    n = t.size
    if control is None:
        first = t[0]
        est = np.sum(t) / n
        if n < 2:
            return est, 0.0
        np.subtract(t, est, out=t)
    else:
        cc, offset, scc = control
        t_mean = _center(t, t)
        beta = np.sum(np.multiply(t, cc, out=work)) / scc if scc > 0 else 0.0
        est = t_mean - beta * offset
        np.subtract(t, np.multiply(cc, beta, out=work), out=t)
    se = math.sqrt(np.sum(np.multiply(t, t, out=work))) / n
    # equal terms are exact: their value with se 0, not sum / n and its
    # rounding noise (the deviations, exact at this se, are then all equal)
    if control is None and se <= 1e-12 * abs(est) and (t == t[0]).all():
        return first, 0.0
    return est, se


def mean_se(t, control=None):
    """The estimate of E t from per-row terms t, and its SE: the one rule
    behind every verdict.

    Without a control, est = sum_i t_i / n and se = sqrt(sum_i (t_i - est)^2)
    / n; fewer than two rows give se 0. With `control` (c, m), a per-row
    vector c of known mean m, the slope b = sum (t - mean t)(c - mean c) /
    sum (c - mean c)^2 (0 for a constant c) is regressed out: est = mean t -
    b (mean c - m) and se = sqrt(sum (t - mean t - b (c - mean c))^2) / n.
    The means with a control are taken after a shift by the first value, so
    equal terms give their value and se exactly 0; without one, terms that
    are all equal give their value and se 0 in place of sum / n and an se
    of rounding noise.
    """
    t = np.array(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("mean_se needs a nonempty vector of terms")
    ctl = None if control is None else _centred_control(*control)
    return _mean_se(t, ctl, np.empty_like(t))


def weighted_laplace_panel(
    ensemble: WeightedEnsemble, panel: LevyFunctionalPanel, b: int = 500, *, control=None
):
    """`mean_se` of the terms t_i = w_i v_i for every panel entry, for weights
    whose mean is known to be one, so the normalizer is n; unit weights give
    the plain mean.

    `control` (c, m) is regressed out of every entry's terms; the tilting LHS
    passes its weights, (w, 1). `b` is kept from the former bootstrap and has
    no effect.
    """
    w = ensemble.weights
    if w.sum() <= 0:
        raise ValueError("all ensemble weights are zero")
    n = w.size
    ctl = None if control is None else _centred_control(*control)
    cols = [ensemble.grid.index_of(entry.times) for entry in panel]
    est, se = np.empty(len(panel)), np.empty(len(panel))
    # every entry is evaluated into the same two n-buffers; unit weights,
    # which the ensemble made itself, multiply nothing
    t, tmp = np.empty(n), np.empty(n)
    for k, entry in enumerate(panel):
        _laplace_into(t, tmp, ensemble.values, cols[k], entry.alphas)
        if not ensemble._unit_weights:
            np.multiply(w, t, out=t)
        est[k], se[k] = _mean_se(t, ctl, tmp)
    return est, se


def bootstrap_mean_se(x: np.ndarray, b: int = 500) -> float:
    """The SE of `mean_se`; the name and the ignored `b` are kept from the
    former bootstrap."""
    return mean_se(x)[1]


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
