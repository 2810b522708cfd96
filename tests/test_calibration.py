"""Calibration of the linearized standard errors across seeds.

When an identity holds, its z-scores must behave like standard normals.
Over SEEDS independent seeds at N = 20k, for tilting (tempered-stable),
decomposition (Poisson) and the final rung of the thinning ladder, and at
DECOMP_N = 5k for tilting on the Poisson, self-similar and moving-average
families and for the decomposition on the tempered-stable and self-similar
families:

- each entry's |z| > 3 rate and the family-wise (Bonferroni) fail rate stay
  within binomial error of their nominal levels;
- each entry's z variance stays within chi-square error of 1;
- on the first BOOT_SEEDS seeds the SEs of every estimate agree with a
  reference percentile bootstrap of the same estimator, computed on the same
  ensembles: the known-normalizer mean's (a plain mean for unit weights),
  or, for the tilting LHS, the control-variate estimator's with its slope
  refitted in every resample.

The whole thinning ladder, every rung and entry against its exact law under
one family-wise gate, is scanned over the same seeds on the desk limit jobs'
panel, for Poisson and tempered-stable processes at limit.n = 100 (the
default) and 1000: the family-wise fail rate and each row's z variance stay
within binomial and chi-square error of their nominal values.

The permanental job's Levy marginals, which share one draw across states,
are scanned over the same seeds at their own small size, PERM_N rows, on the
desk's 2- and 3-state chains: each state's z mean and variance stay within
normal and chi-square error of 0 and 1. So are the levy-check job's sampled
representations, which share one draw across panel entries, on the desk's
four levy-check specs at LEVY_N rows, against quadrature.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import levyid.identities as identities
from levyid.cli import default_panel, parse_process
from levyid.core import (
    ConvSpec,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    WeightedEnsemble,
    make_grid,
)
from levyid.levymeasure import levy_functional_mc, levy_functional_quadrature
from levyid.limits import DEFAULT_DELTAS, thinned_values, verify_thinning_limit
from levyid.permanental import (
    green_matrix,
    levy_functional_permanental,
    marginal_levy_functional,
)
from levyid.processes import sample_ensemble
from levyid.randkit import RngStream
from levyid.statlab import bonferroni_crit, laplace_values, weighted_laplace_panel

GRID = make_grid([0.5, 1.0, 1.5, 2.0])
PANEL = default_panel(GRID.points)
A = 1.0
N = 20_000
SEEDS = 200
BOOT_SEEDS = 4
Z_CRIT = 3.0
P_ENTRY = math.erfc(Z_CRIT / math.sqrt(2.0))  # nominal P(|z| > 3)
# Bonferroni keeps the family-wise level at or below the single-test one:
# at most 3 binomial SDs above SEEDS * P_ENTRY, plus one for rounding
MAX_FAILS = SEEDS * P_ENTRY + 3.0 * math.sqrt(SEEDS * P_ENTRY * (1.0 - P_ENTRY)) + 1.0
# the sample variance of SEEDS standard normals has SD sqrt(2 / (SEEDS - 1))
VAR_TOL = 3.0 * math.sqrt(2.0 / (SEEDS - 1))
PERM_N = 2_000
LEVY_N = 5_000
DECOMP_N = 5_000


def _resampled_sums(x, b, seed, chunk=50):
    """Column sums of the rows of x over b resamples of its rows, drawn with
    replacement: a (b, columns) array."""
    gen = np.random.default_rng(seed)
    n = len(x)
    sums = []
    for _ in range(b // chunk):
        idx = gen.integers(0, n, (chunk, n)) + n * np.arange(chunk)[:, None]
        counts = np.bincount(idx.ravel(), minlength=chunk * n).reshape(chunk, n)
        sums.append(counts @ x)
    return np.concatenate(sums)


def _half_width(estimates):
    """Half-width of the central 68.27% of resampled estimates, per column."""
    lo, hi = np.percentile(estimates, [15.865525393145708, 84.13447460685429], axis=0)
    return 0.5 * (hi - lo)


def reference_bootstrap_se(ens, panel, b=500, seed=0):
    """Percentile bootstrap SE of the known-normalizer means sum(w v) / n."""
    t = np.column_stack([ens.weights * laplace_values(ens, e) for e in panel])
    return _half_width(_resampled_sums(t, b, seed) / len(t))


def reference_cv_bootstrap_se(ens, panel, b=500, seed=0):
    """Percentile bootstrap SE of the control-variate estimates, whose slope
    is refitted in every resample from its moments."""
    w, k = ens.weights, len(panel)
    t = np.column_stack([w * laplace_values(ens, e) for e in panel])
    m = _resampled_sums(np.column_stack([w, w * w, t, t * w[:, None]]), b, seed) / w.size
    w_mean, ww = m[:, :1], m[:, 1:2]
    t_mean, tw = m[:, 2:2 + k], m[:, 2 + k:]
    beta = (tw - t_mean * w_mean) / (ww - w_mean**2)
    return _half_width(t_mean - beta * (w_mean - 1.0))


# the reference bootstrap of each side an identity check estimates, by
# whether it passes weighted_laplace_panel a control (the tilting LHS does)
REFERENCES = {False: reference_bootstrap_se, True: reference_cv_bootstrap_se}


def _exposure_integral(entry, hi, g):
    """int_0^hi g(A(s)) ds with A(s) the sum of the alphas whose time is >= s."""
    cuts = sorted({0.0, hi, *(min(t, hi) for t in entry.times)})
    total = 0.0
    for lo, up in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + up)
        total += (up - lo) * g(sum(al for al, t in zip(entry.alphas, entry.times) if t >= mid))
    return total


def _tilted_thinned_poisson(entry, rate, a):
    """Exact Laplace functional of a rate-`rate` Poisson path size-biased at
    a: the path plus one unit jump at a uniform time in [0, a]."""
    path = math.exp(-rate * _exposure_integral(entry, max(entry.times), lambda x: -math.expm1(-x)))
    jump = _exposure_integral(entry, a, lambda x: math.exp(-x)) / a
    return path * jump


def _capture(real, captured):
    def capture(ens, panel, *args, control=None, **kwargs):
        estimator = functools.partial(real, control=control)
        captured.append((estimator, REFERENCES[control is not None], ens))
        return estimator(ens, panel, *args, **kwargs)

    return capture


def _identity_scan(verifier, spec, n=N):
    # on the first BOOT_SEEDS seeds, each side's ensemble is kept with the
    # estimator the verifier gave it and that estimator's reference bootstrap
    zs, fails, captured = [], 0, []
    for s in range(SEEDS):
        with pytest.MonkeyPatch.context() as mp:
            if s < BOOT_SEEDS:
                mp.setattr(identities, "weighted_laplace_panel",
                           _capture(identities.weighted_laplace_panel, captured))
            report = verifier(RngStream(s), spec, A, GRID, PANEL, n, z_crit=Z_CRIT)
        zs.append(report.z)
        fails += not report.overall_pass
    assert len(captured) == 2 * BOOT_SEEDS, "an identity side's estimator went uncaptured"
    controlled = sum(ref is reference_cv_bootstrap_se for _, ref, _ in captured)
    assert controlled == (BOOT_SEEDS if verifier is identities.verify_tilting_identity else 0)
    return np.array(zs), fails, captured


def _rung_scan():
    # the final rung of the ladder, weighted as verify_thinning_limit does;
    # its law is the thinned path plus the companion, known in closed form
    spec, delta = PoissonSpec(1.0), DEFAULT_DELTAS[-1]
    ia = int(GRID.index_of([A])[0])
    truth = np.array([_tilted_thinned_poisson(e, spec.rate * delta, A) for e in PANEL])
    bz = bonferroni_crit(Z_CRIT, len(PANEL))
    zs, fails, captured = [], 0, []
    for s in range(SEEDS):
        vals = sample_ensemble(
            lambda stream, out: thinned_values(stream, spec, delta, GRID.points, len(out), out),
            RngStream(s), N, len(GRID),
        )
        ens = WeightedEnsemble(GRID, vals, vals[:, ia] / (delta * spec.rate * A))
        est, se = weighted_laplace_panel(ens, PANEL)
        z = (est - truth) / se
        zs.append(z)
        fails += bool(np.any(np.abs(z) > bz))
        if s < BOOT_SEEDS:
            captured.append((weighted_laplace_panel, reference_bootstrap_se, ens))
    return np.array(zs), fails, captured


# the desk suite's self-similar and moving-average tilting processes
DESK_SATO = SatoSpec(0.5, JumpLawSpec(1.0, JumpLaw.exponential(1.0)))
DESK_CONV = ConvSpec(TabulatedKernel((0.0, 1.0), (1.0, 1.0)),
                     JumpLawSpec(1.0, JumpLaw.exponential(1.0)))

SCANS = {
    "tilting": lambda: _identity_scan(identities.verify_tilting_identity,
                                      TemperedStableSpec(0.5)),
    "tilting-poisson": lambda: _identity_scan(identities.verify_tilting_identity,
                                              PoissonSpec(1.0), DECOMP_N),
    "tilting-sato": lambda: _identity_scan(identities.verify_tilting_identity,
                                           DESK_SATO, DECOMP_N),
    "tilting-conv": lambda: _identity_scan(identities.verify_tilting_identity,
                                           DESK_CONV, DECOMP_N),
    "decomposition": lambda: _identity_scan(identities.verify_decomposition_identity,
                                            PoissonSpec(1.0)),
    "decomposition-tempered-stable": lambda: _identity_scan(
        identities.verify_decomposition_identity, TemperedStableSpec(0.5), DECOMP_N),
    "decomposition-sato": lambda: _identity_scan(
        identities.verify_decomposition_identity, DESK_SATO, DECOMP_N),
    "final-rung": _rung_scan,
}


@pytest.fixture(scope="module", params=list(SCANS))
def scan(request):
    return SCANS[request.param]()


def _within_binomial_error(count, trials, p):
    """count lies within 3 binomial SDs of trials * p, plus one for rounding
    to an integer count."""
    return abs(count - trials * p) <= 3.0 * math.sqrt(trials * p * (1.0 - p)) + 1.0


def test_entry_exceedance_rate(scan):
    # entries of one panel share paths, so each entry is its own binomial
    # over independent seeds
    zs, _, _ = scan
    for k in range(zs.shape[1]):
        count = int(np.sum(np.abs(zs[:, k]) > Z_CRIT))
        assert _within_binomial_error(count, SEEDS, P_ENTRY), (k, count)


def test_familywise_fail_rate(scan):
    _, fails, _ = scan
    assert fails <= MAX_FAILS


def test_z_variance_near_one(scan):
    zs, _, _ = scan
    var = zs.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 1.0) <= VAR_TOL), var


def test_matches_reference_bootstrap(scan):
    # per entry within the B = 500 bootstrap's own noise (about 5%); the
    # geometric mean within the percentile-vs-SD gap on skewed ratios
    _, _, captured = scan
    ratios = np.array([
        estimator(ens, PANEL)[1] / reference(ens, PANEL, seed=i)
        for i, (estimator, reference, ens) in enumerate(captured)
    ])
    assert np.all((0.85 < ratios) & (ratios < 1.15)), ratios
    assert 0.95 < math.exp(np.log(ratios).mean()) < 1.05


# the desk limit jobs' panel, at the default limit.n and ten times it
LADDER_PANEL = LevyFunctionalPanel((PanelEntry((1.0,), (1.0,)),
                                    PanelEntry((0.5, 0.5), (0.5, 2.0))))
LADDERS = {f"{name}-{n}": (spec, n)
           for name, spec in (("poisson", PoissonSpec(1.0)),
                              ("tempered-stable", TemperedStableSpec(0.5)))
           for n in (100, 1000)}


@pytest.fixture(scope="module", params=list(LADDERS))
def ladder_scan(request):
    # rows are rungs x entries, each against e^{-delta kappa} T
    spec, n = LADDERS[request.param]
    reports = [verify_thinning_limit(RngStream(s), spec, A, GRID, LADDER_PANEL, n, z_crit=Z_CRIT)
               for s in range(SEEDS)]
    return np.array([r.z for r in reports]), sum(not r.overall_pass for r in reports)


def test_ladder_familywise_fail_rate(ladder_scan):
    _, fails = ladder_scan
    assert fails <= MAX_FAILS


def test_ladder_z_variance_near_one(ladder_scan):
    zs, _ = ladder_scan
    var = zs.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 1.0) <= VAR_TOL), var


# the desk suite's 2- and 3-state permanental chains
PERM_CHAINS = {
    "2-state": PermanentalSpec(((0.0, 1.0), (1.0, 0.0)), (0.7, 0.4)),
    "3-state": PermanentalSpec(((0.0, 0.6, 0.2), (0.6, 0.0, 0.5), (0.2, 0.5, 0.0)),
                               (0.4, 0.0, 0.9)),
}


@pytest.fixture(scope="module", params=list(PERM_CHAINS))
def marginal_scan(request):
    # every state's marginal from one draw per seed, on the stream the
    # permanental job gives them, against log(1 + g(x, x))
    chain = PERM_CHAINS[request.param]
    green = green_matrix(chain)
    truth = np.array([marginal_levy_functional(green, 1.0, x) for x in range(chain.n)])
    panel = LevyFunctionalPanel(tuple(PanelEntry((1.0,), (float(x),)) for x in range(chain.n)))
    zs = []
    for s in range(SEEDS):
        est, se = levy_functional_permanental(RngStream(s).substream(2, 0), chain,
                                              np.ones(chain.n), panel, PERM_N)
        zs.append((est - truth) / se)
    return np.array(zs)


def test_marginal_z_mean_near_zero(marginal_scan):
    # the mean of SEEDS standard normals has SD 1 / sqrt(SEEDS)
    mean = marginal_scan.mean(axis=0)
    assert np.all(np.abs(mean) <= 3.0 / math.sqrt(SEEDS)), mean


def test_marginal_z_variance_near_one(marginal_scan):
    var = marginal_scan.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 1.0) <= VAR_TOL), var


# the desk suite's four levy-check jobs
DESK_LEVY = {job["name"]: job["config"] for job in json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "suite_desk.json").read_text())["jobs"]
    if job["command"] == "levy-check"}


@pytest.fixture(scope="module", params=list(DESK_LEVY))
def representation_scan(request):
    # every entry's representation from one draw per seed, on the stream the
    # levy-check job gives them, against the quadrature of nu(F)
    cfg = DESK_LEVY[request.param]
    spec, panel = parse_process(cfg["process"]), default_panel(cfg["grid"])
    truth = np.array([levy_functional_quadrature(spec, e) for e in panel])
    zs = []
    for s in range(SEEDS):
        est, se = levy_functional_mc(RngStream(s).substream(10, 0), spec, panel, LEVY_N)
        zs.append((est - truth) / se)
    return np.array(zs)


def test_representation_z_mean_near_zero(representation_scan):
    mean = representation_scan.mean(axis=0)
    assert np.all(np.abs(mean) <= 3.0 / math.sqrt(SEEDS)), mean


def test_representation_z_variance_near_one(representation_scan):
    var = representation_scan.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 1.0) <= VAR_TOL), var
