"""Desk-scale acceptance battery.

One test per shipped acceptance criterion. Each prints a single PASS/FAIL
line that survives pytest's capture, then asserts the stated tolerance and,
where one applies, the runtime budget. Oracle values are closed forms
derived in comments next to their use; nothing here is tuned to the sampler.
"""

import math
import time
from pathlib import Path

import numpy as np

from levyid import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    RngStream,
    SatoSpec,
    TemperedStableSpec,
    green_matrix,
    laplace_exponent_check,
    levy_functional_mc,
    levy_functional_quadrature,
    make_grid,
    sample_local_times,
    sample_paths,
    verify_decomposition_identity,
    verify_permanental_identity,
    verify_thinning_limit,
    verify_tilting_identity,
)
from levyid.cli import main
from levyid.permanental import local_time_mean

from conftest import report_diff

REPO = Path(__file__).resolve().parents[1]

FAMILIES = (
    ("poisson", PoissonSpec(rate=1.0)),
    ("tempered-stable", TemperedStableSpec(alpha=0.5)),
    ("self-similar", SatoSpec(H=0.5, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
    ("moving-average", ConvSpec(kernel=ExpDecayKernel(1.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
)


def _stamp(capsys, label, ok, elapsed=None):
    note = "" if elapsed is None else f"  [{elapsed:.1f}s]"
    with capsys.disabled():
        print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}{note}")


def _mean_se(x):
    x = np.asarray(x, float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def test_01_tilting_exact_oracle(capsys):
    t0 = time.perf_counter()
    panel = LevyFunctionalPanel((PanelEntry(alphas=(1.0,), times=(1.0,)),))
    rep = verify_tilting_identity(
        RngStream(801), PoissonSpec(rate=1.0), 1.0, make_grid([1.0]), panel,
        n=200_000,
    )
    # size-biased unit Poisson at t = 1: E[N e^{-N}] / E[N] = e^{1/e - 2}
    want = math.exp(math.exp(-1.0) - 2.0)
    ok = (
        rep.overall_pass
        and abs(rep.lhs[0] - want) <= 3.0 * rep.lhs_se[0]
        and abs(rep.rhs[0] - want) <= 3.0 * rep.rhs_se[0]
    )
    dt = time.perf_counter() - t0
    _stamp(capsys, "01 tilting exact oracle", ok and dt < 10.0, dt)
    assert ok, rep.to_dict()
    assert dt < 10.0


def test_02_decomposition_closed_form(capsys):
    t0 = time.perf_counter()
    panel = LevyFunctionalPanel((
        PanelEntry(alphas=(1.0,), times=(0.5,)),
        PanelEntry(alphas=(1.0,), times=(1.5,)),
    ))
    rep = verify_decomposition_identity(
        RngStream(802), PoissonSpec(rate=1.0), 1.0, make_grid([0.5, 1.0, 1.5]),
        panel, n=150_000,
    )
    ok = rep.overall_pass
    for k, e in enumerate(panel):
        # unit-rate counting marginal: E e^{-alpha N(t)} = exp(-t (1 - e^{-alpha}));
        # hidden + visible is sampled, and its target is this exact value
        want = math.exp(-e.times[0] * (1.0 - math.exp(-e.alphas[0])))
        ok = ok and abs(rep.lhs[k] - want) <= 3.0 * rep.lhs_se[k]
        ok = ok and math.isclose(rep.rhs[k], want, rel_tol=1e-12) and rep.rhs_se[k] == 0.0
    dt = time.perf_counter() - t0
    _stamp(capsys, "02 decomposition closed form", ok and dt < 20.0, dt)
    assert ok, rep.to_dict()
    assert dt < 20.0


def test_03_laplace_exponent_all_families(capsys):
    t0 = time.perf_counter()
    panel = LevyFunctionalPanel((
        PanelEntry(alphas=(1.0,), times=(0.5,)),
        PanelEntry(alphas=(1.0,), times=(1.0,)),
        PanelEntry(alphas=(0.5,), times=(2.0,)),
        PanelEntry(alphas=(2.0,), times=(0.75,)),
        PanelEntry(alphas=(1.0, 0.5), times=(0.5, 1.5)),
        PanelEntry(alphas=(0.5, 0.5), times=(1.0, 2.0)),
    ))
    ok, worst = True, 0.0
    for i, (name, spec) in enumerate(FAMILIES):
        rep = laplace_exponent_check(
            RngStream(803, i), spec, panel, n=100_000, z_crit=4.0
        )
        worst = max(worst, float(np.max(np.abs(rep.z))))
        ok = ok and bool(np.all(np.abs(rep.z) <= 4.0))
    dt = time.perf_counter() - t0
    _stamp(capsys, "03 exponent vs jump-measure quadrature", ok and dt < 120.0, dt)
    assert ok, worst
    assert dt < 120.0


def test_04_sampled_representations_match_quadrature(capsys):
    panel = LevyFunctionalPanel((PanelEntry(alphas=(0.8, 1.0), times=(0.5, 1.5)),))
    ok = True
    for i, (name, spec) in enumerate(FAMILIES):
        want = levy_functional_quadrature(spec, panel.entries[0])
        (est,), (se,) = levy_functional_mc(RngStream(804, i), spec, panel, n=150_000)
        ok = ok and abs(est - want) <= 4.0 * se
    # the location mixer is auxiliary: mean-1 and mean-5 mixing laws must agree
    (e1,), (se1,) = levy_functional_mc(
        RngStream(805, 0), PoissonSpec(rate=1.0), panel, n=150_000, mixing_mean=1.0
    )
    (e5,), (se5,) = levy_functional_mc(
        RngStream(805, 1), PoissonSpec(rate=1.0), panel, n=150_000, mixing_mean=5.0
    )
    ok = ok and abs(e1 - e5) <= 4.0 * math.hypot(se1, se5)
    _stamp(capsys, "04 sampled jump-measure representations", ok)
    assert ok


def test_05_restriction_split_additivity(capsys):
    entry = PanelEntry(alphas=(0.8, 1.0), times=(0.5, 1.5))
    ok = True
    for name, spec in FAMILIES:
        full = levy_functional_quadrature(spec, entry)
        for a in (0.5, 1.0, 2.0):
            zero = levy_functional_quadrature(spec, entry, restriction="zero", a=a)
            pos = levy_functional_quadrature(spec, entry, restriction="positive", a=a)
            ok = ok and abs(zero + pos - full) <= 1e-8
    _stamp(capsys, "05 restriction split additivity", ok)
    assert ok


def test_06_tempered_stable_marginal(capsys):
    alpha = 0.5
    draws = sample_paths(
        RngStream(806), TemperedStableSpec(alpha=alpha), make_grid([1.0]), 200_000
    )[:, 0]
    lp, lp_se = _mean_se(np.exp(-draws))
    m, m_se = _mean_se(draws)
    # unit-time transform at u = 1 is exp(1 - 2^alpha); the mean is alpha
    ok = abs(lp - math.exp(1.0 - 2.0**alpha)) <= 3.0 * lp_se
    ok = ok and abs(m - alpha) <= 3.0 * m_se
    _stamp(capsys, "06 tempered-stable marginal", ok)
    assert ok, (lp, m)


def test_07_self_similar_scaling(capsys):
    t, n = 0.75, 150_000
    ok = True
    for j, h in enumerate((0.5, 1.0)):
        spec = SatoSpec(H=h, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        at_2t = sample_paths(RngStream(807, 2 * j), spec, make_grid([2.0 * t]), n)[:, 0]
        scaled = (2.0**h) * sample_paths(RngStream(807, 2 * j + 1), spec, make_grid([t]), n)[:, 0]
        for u in (0.5, 1.0):
            la, sa = _mean_se(np.exp(-u * at_2t))
            lb, sb = _mean_se(np.exp(-u * scaled))
            ok = ok and abs(la - lb) <= 3.0 * math.hypot(sa, sb)
    _stamp(capsys, "07 self-similar scaling", ok)
    assert ok


def test_08_permanental_battery(capsys):
    t0 = time.perf_counter()
    chains = (
        PermanentalSpec(rates=((0.0,),), kill=(2.0,)),
        PermanentalSpec(rates=((0.0, 1.0), (1.0, 0.0)), kill=(0.5, 0.25)),
        PermanentalSpec(
            rates=((0.0, 1.0, 0.5), (1.0, 0.0, 1.0), (0.5, 1.0, 0.0)),
            kill=(0.25, 0.5, 0.75),
        ),
    )
    ok = True
    for i, chain in enumerate(chains):
        rep = verify_permanental_identity(RngStream(808, i), chain, 0, n=200_000)
        ok = ok and bool(np.all(np.abs(rep.z) <= 3.0))
        # pinned sojourn means: E L(x) = g(0, x) g(x, 0) / g(0, 0)
        want = local_time_mean(green_matrix(chain), 0)
        pinned = sample_local_times(RngStream(809, i), chain, 0, 200_000)
        for y in range(chain.n):
            m, se = _mean_se(pinned[:, y])
            ok = ok and abs(m - want[y]) <= 3.0 * se
    dt = time.perf_counter() - t0
    _stamp(capsys, "08 permanental battery", ok and dt < 120.0, dt)
    assert ok
    assert dt < 120.0


def test_09_thinning_limit(capsys):
    grid = make_grid([0.5, 1.0, 2.0])
    panel = LevyFunctionalPanel((
        PanelEntry(alphas=(1.0,), times=(1.0,)),
        PanelEntry(alphas=(0.5, 0.5), times=(0.5, 2.0)),
    ))
    ok = True
    for name, spec, seed in (
        ("poisson", PoissonSpec(rate=1.0), 700),
        ("tempered-stable", TemperedStableSpec(alpha=0.5), 706),
    ):
        # every rung against its exact law e^{-delta kappa} T, and the gap to
        # the companion shrinking from the first rung to the last
        rep = verify_thinning_limit(RngStream(seed), spec, 1.0, grid, panel, n=100)
        assert tuple(rep.fields["deltas"]) == (1.0, 0.3, 0.1, 0.03)
        dist = rep.fields["distances"]
        ok = ok and rep.overall_pass and dist[-1] < dist[0]
    _stamp(capsys, "09 thinning-limit convergence", ok)
    assert ok


def test_10_suite_determinism(tmp_path, capsys):
    cfg = str(REPO / "configs" / "suite_smoke.json")
    outs = [tmp_path / f"suite{k}.json" for k in range(2)]
    codes = [main(["suite", "--config", cfg, "--out", str(out)]) for out in outs]
    drift = report_diff(*outs)
    ok = codes == [0, 0] and drift == ""
    _stamp(capsys, "10 repeated-run determinism", ok)
    assert ok, drift
