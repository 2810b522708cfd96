import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from levyid import cli
from levyid.core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    PowerCutoffKernel,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    make_grid,
)
from levyid.levymeasure import (
    laplace_exponent_check,
    levy_functional_mc,
    levy_functional_quadrature,
    validate_levy_conditions,
)
from levyid.randkit import RngStream

E1 = PanelEntry(alphas=(1.0,), times=(1.0,))


class TestQuadratureOracles:
    def test_poisson_single_time(self):
        # nu charges unit steps born at rate lambda: nu(F) = lambda t (1 - e^{-alpha})
        est = levy_functional_quadrature(PoissonSpec(rate=2.0), E1)
        assert est == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-10)

    def test_poisson_two_times(self):
        # birth before t1 contributes both coordinates, between t1 and t2 only one
        entry = PanelEntry(alphas=(0.5, 1.0), times=(1.0, 2.0))
        want = 1.0 * (1.0 - math.exp(-1.5)) + 1.0 * (1.0 - math.exp(-1.0))
        est = levy_functional_quadrature(PoissonSpec(rate=1.0), entry)
        assert est == pytest.approx(want, rel=1e-10)

    def test_ts_matches_laplace_exponent(self):
        # nu(1 - e^{-u y(t)}) = ((1+u)^alpha - 1) t
        for al in (0.3, 0.5, 0.8):
            for u, t in ((1.0, 1.0), (2.0, 0.5)):
                entry = PanelEntry(alphas=(u,), times=(t,))
                est = levy_functional_quadrature(TemperedStableSpec(al), entry)
                assert est == pytest.approx(((1 + u) ** al - 1) * t, rel=1e-8)

    def test_sato_h1_exp_driver(self):
        # H = 1 with Exp(1) jumps at unit rate: -log E e^{-u psi(t)} = log(1 + ut)
        spec = SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        est = levy_functional_quadrature(spec, E1)
        assert est == pytest.approx(math.log(2.0), rel=1e-8)

    def test_conv_indicator_unit_jumps(self):
        # f = 1_[0,2], constant jumps of size 1 at unit rate, t = 1:
        # every jump born in [0, 1] contributes 1 - e^{-1}
        spec = ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                        z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)))
        est = levy_functional_quadrature(spec, E1)
        assert est == pytest.approx(1.0 - math.exp(-1.0), rel=1e-8)

    def test_permanental_spec_rejected(self):
        spec = PermanentalSpec(rates=((0.0,),), kill=(1.0,), beta=1.0)
        with pytest.raises(ValueError, match="permanental"):
            levy_functional_quadrature(spec, E1)


class TestRestrictions:
    @pytest.mark.parametrize(
        "spec",
        [
            PoissonSpec(rate=1.0),
            TemperedStableSpec(alpha=0.5),
            SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0))),
            ConvSpec(kernel=ExpDecayKernel(1.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0))),
        ],
        ids=["poisson", "ts", "sato", "conv"],
    )
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_split_additivity(self, spec, a):
        entry = PanelEntry(alphas=(0.7, 1.3), times=(0.5, 2.0))
        full = levy_functional_quadrature(spec, entry)
        zero = levy_functional_quadrature(spec, entry, "zero", a)
        pos = levy_functional_quadrature(spec, entry, "positive", a)
        assert zero + pos == pytest.approx(full, abs=1e-8)
        assert zero >= -1e-12 and pos >= -1e-12

    @given(a=st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=20)
    def test_split_additivity_over_pin_location(self, a):
        entry = PanelEntry(alphas=(1.0,), times=(1.5,))
        spec = TemperedStableSpec(alpha=0.6)
        full = levy_functional_quadrature(spec, entry)
        zero = levy_functional_quadrature(spec, entry, "zero", a)
        pos = levy_functional_quadrature(spec, entry, "positive", a)
        assert zero + pos == pytest.approx(full, abs=1e-8)

    def test_poisson_restricted_positive_mass(self):
        # paths with y(a) > 0 are those born at or before a
        spec = PoissonSpec(rate=2.0)
        entry = PanelEntry(alphas=(1.0,), times=(3.0,))
        pos = levy_functional_quadrature(spec, entry, "positive", 1.0)
        assert pos == pytest.approx(2.0 * 1.0 * (1.0 - math.exp(-1.0)), rel=1e-10)

    @pytest.mark.parametrize("spec", [
        PoissonSpec(rate=1.0),
        TemperedStableSpec(alpha=0.5),
        SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0))),
        ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                 z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0))),
    ], ids=["poisson", "ts", "sato", "conv"])
    def test_nan_pin_rejected(self, spec):
        # NaN <= 0 is false, so a NaN pin once read as a split whose two
        # restrictions did not add up to nu(F)
        entry = PanelEntry(alphas=(1.0,), times=(2.0,))
        for r in ("zero", "positive"):
            with pytest.raises(ValueError, match="pin"):
                levy_functional_quadrature(spec, entry, r, math.nan)

    def test_bad_restriction_rejected(self):
        with pytest.raises(ValueError):
            levy_functional_quadrature(PoissonSpec(rate=1.0), E1, "negative", 1.0)
        with pytest.raises(ValueError):
            levy_functional_quadrature(PoissonSpec(rate=1.0), E1, "zero", None)


def _one(entry):
    return LevyFunctionalPanel((entry,))


class TestMonteCarloRepresentations:
    CASES = [
        ("poisson", PoissonSpec(rate=1.0)),
        ("ts", TemperedStableSpec(alpha=0.5)),
        ("sato", SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
        ("conv", ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                          z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
    ]

    @pytest.mark.parametrize("idx,name,spec", [(i, n, s) for i, (n, s) in enumerate(CASES)],
                             ids=[c[0] for c in CASES])
    def test_matches_quadrature(self, idx, name, spec):
        entry = PanelEntry(alphas=(0.8, 1.0), times=(0.5, 1.5))
        want = levy_functional_quadrature(spec, entry)
        (est,), (se,) = levy_functional_mc(RngStream(300, idx), spec, _one(entry), n=150_000)
        assert se > 0
        assert abs(est - want) <= 4 * se, (name, est, want, se)

    def test_poisson_mixing_law_invariance(self):
        # the location mixer is auxiliary: any positive mean gives the same nu(F)
        spec = PoissonSpec(rate=1.0)
        panel = _one(PanelEntry(alphas=(1.0,), times=(1.0,)))
        (e1,), (se1,) = levy_functional_mc(RngStream(301), spec, panel, n=150_000,
                                           mixing_mean=1.0)
        (e5,), (se5,) = levy_functional_mc(RngStream(302), spec, panel, n=150_000,
                                           mixing_mean=5.0)
        assert abs(e1 - e5) <= 4 * math.hypot(se1, se5)

    def test_conv_theta_invariance(self):
        spec = ConvSpec(kernel=ExpDecayKernel(1.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        (a,), (sa,) = levy_functional_mc(RngStream(303), spec, _one(E1), n=100_000, theta=1.0)
        (b,), (sb,) = levy_functional_mc(RngStream(304), spec, _one(E1), n=100_000, theta=2.0)
        assert abs(a - b) <= 4 * math.hypot(sa, sb)

    def test_ess_warning_on_heavy_weights(self):
        # an extreme mixing mean concentrates nearly all weight in few draws
        spec = PoissonSpec(rate=1.0)
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            levy_functional_mc(RngStream(305), spec, _one(E1), n=50_000, mixing_mean=3000.0)

    def test_rejects_bad_args(self):
        # before any draw: the stream raises on its first use
        class NoDraws(RngStream):
            def substream(self, *tags):
                raise AssertionError("drew before checking its arguments")

        for kwargs in ({"n": 0}, {"n": 10, "mixing_mean": 0.0}, {"n": 10, "theta": -1.0},
                       {"n": 10, "mixing_mean": math.nan}, {"n": 10, "mixing_mean": math.inf},
                       {"n": 10, "theta": math.nan}, {"n": 10, "theta": math.inf}):
            with pytest.raises(ValueError):
                levy_functional_mc(NoDraws(306), PoissonSpec(rate=1.0), _one(E1), **kwargs)

    def test_deterministic(self):
        a = levy_functional_mc(RngStream(308), TemperedStableSpec(0.5), _one(E1), n=5000)
        b = levy_functional_mc(RngStream(308), TemperedStableSpec(0.5), _one(E1), n=5000)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestLaplaceExponentCheck:
    @pytest.mark.parametrize("idx,name,spec", [(i, n, s) for i, (n, s) in enumerate(TestMonteCarloRepresentations.CASES)],
                             ids=[c[0] for c in TestMonteCarloRepresentations.CASES])
    def test_families_pass(self, idx, name, spec):
        panel = LevyFunctionalPanel(
            (
                PanelEntry(alphas=(1.0,), times=(1.0,)),
                PanelEntry(alphas=(0.5, 1.5), times=(0.5, 2.0)),
            )
        )
        rep = laplace_exponent_check(RngStream(310, idx), spec, panel, n=60_000)
        assert rep.overall_pass, rep.to_dict()
        assert np.all(rep.rhs_se == 0)


class TestLevyConditions:
    """The block holds kappa_x(1) = nu(1 - e^{-y(x)}), finite exactly when
    nu(y(x) ^ 1) is."""

    def test_poisson_linear_in_t(self):
        rep = validate_levy_conditions(PoissonSpec(rate=2.0), make_grid([0.5, 1.0]))
        assert rep["pass"] and all(rep["finite"])
        # kappa_x(1) = lambda x (1 - 1/e)
        assert rep["values"][0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert rep["values"][1] == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-14)

    def test_all_families_finite(self):
        grid = make_grid([0.5, 1.0, 2.0])
        for _, spec in TestMonteCarloRepresentations.CASES:
            rep = validate_levy_conditions(spec, grid)
            assert rep["pass"], type(spec).__name__
            assert all(v >= 0 and math.isfinite(v) for v in rep["values"])

    def test_time_indexed_needs_grid(self):
        with pytest.raises(ValueError, match="grid"):
            validate_levy_conditions(PoissonSpec(rate=1.0))

    def test_to_dict(self):
        rep = validate_levy_conditions(PoissonSpec(rate=1.0), make_grid([1.0]))
        assert set(rep) == {"points", "values", "finite", "pass"}


# ---------- accuracy of the integrator against independent references ----------

QUAD_RTOL = 1e-12
REPO = Path(__file__).resolve().parents[1]


def _scipy_quad(f, lo, hi, points=()):
    """int_lo^hi f by scipy's quad at 1e-14, split at the points inside."""
    cuts = sorted({lo, hi, *(p for p in points if lo < p < hi)})
    with warnings.catch_warnings():
        # at 1e-14 quad reports the roundoff floor it reaches
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return sum(scipy.integrate.quad(f, l, r, epsabs=1e-14, epsrel=1e-14, limit=500)[0]
                   for l, r in zip(cuts[:-1], cuts[1:]))


def _one_minus_exp_closed(law, c):
    """E[1 - exp(-c X)], written out for each law."""
    if law.kind == "exponential":
        return 1.0 - 1.0 / (1.0 + c * law.params[0])
    if law.kind == "gamma":
        k, r = law.params
        return 1.0 - (1.0 + c / r) ** -k
    if law.kind == "constant":
        return 1.0 - math.exp(-c * law.params[0])
    return sum(p * (1.0 - math.exp(-c * x)) for x, p in law.params)


def _expect_min_closed(law, c):
    """E[min(c X, 1)], from scipy's regularized incomplete gamma for gamma laws."""
    if c <= 0:
        return 0.0
    if law.kind == "exponential":
        m = law.params[0]
        return c * m * -math.expm1(-1.0 / (c * m))
    if law.kind == "gamma":
        k, r = law.params
        return c * (k / r) * special.gammainc(k + 1.0, r / c) + special.gammaincc(k, r / c)
    if law.kind == "constant":
        return min(c * law.params[0], 1.0)
    return sum(p * min(c * x, 1.0) for x, p in law.params)


def _ts_expect_min_closed(alpha, c):
    """int min(c v, 1) v^{-alpha-1} e^{-v} dv / |Gamma(-alpha)|: the head is a
    regularized lower incomplete gamma, the tail Gamma(-alpha, u) by parts."""
    if c <= 0:
        return 0.0
    s, u = 1.0 - alpha, 1.0 / c
    return (alpha * c * special.gammainc(s, u)
            + u**-alpha * math.exp(-u) / special.gamma(s) - special.gammaincc(s, u))


def _driver(z, c, moment):
    if isinstance(z, JumpLawSpec):
        return z.rate * moment(z.law, c)
    if moment is _one_minus_exp_closed:
        return (1.0 + c) ** z.alpha - 1.0
    return _ts_expect_min_closed(z.alpha, c)


def _nu_reference(spec, entry, restriction=None, a=None):
    """nu(F) as one integral over the jump location s, integrand built
    pointwise from the path shape, split at every jump of its level."""
    times, alphas = np.asarray(entry.times), np.asarray(entry.alphas)
    keep = {None: lambda s: True}
    if isinstance(spec, SatoSpec):
        # a jump at location s reaches y(t) for s >= -H log t, scaled by e^{-s}
        theta = -spec.H * np.log(times)
        theta_a = None if a is None else -spec.H * math.log(a)
        keep.update(positive=lambda s: s >= theta_a, zero=lambda s: s < theta_a)

        def f(s):
            level = float(alphas[theta <= s].sum()) * math.exp(-s)
            return spec.bdlp.rate * _one_minus_exp_closed(spec.bdlp.law, level)

        points = [*theta] + ([] if a is None else [theta_a])
        lo, hi = min(points), math.inf
    elif isinstance(spec, ConvSpec):
        kern = spec.kernel
        # alive: a - s in the set {f > 0}, which float f(a - s) misreads
        # where it underflows

        def alive(s):
            return any(lo <= a - s <= hi for lo, hi in kern.positive_intervals())

        keep.update(positive=alive, zero=lambda s: not alive(s))

        def f(s):
            return _driver(spec.z, float(alphas @ kern(times - s)), _one_minus_exp_closed)

        ends = [*times] + ([] if a is None else [a])
        points = ends + [t - b for t in ends for b in kern.breakpoints()]
        lo, hi = 0.0, float(times.max())
    else:
        # Poisson and tempered stable: unit-rate locations s, shape 1[t >= s]
        keep.update(positive=lambda s: s <= a, zero=lambda s: s > a)

        def f(s):
            level = float(alphas[times >= s].sum())
            if isinstance(spec, PoissonSpec):
                return spec.rate * -math.expm1(-level)
            return (1.0 + level) ** spec.alpha - 1.0

        points = [*times] + ([] if a is None else [a])
        lo, hi = 0.0, float(times.max())
    return _scipy_quad(lambda s: f(s) if keep[restriction](s) else 0.0, lo, hi, points)


def _levy_specs():
    """Each desk and smoke levy-check job's process, with its panel."""
    out = {}
    for suite in ("suite_desk.json", "suite_smoke.json"):
        for job in json.loads((REPO / "configs" / suite).read_text())["jobs"]:
            if job["command"] == "levy-check":
                cfg = job["config"]
                out[f"{suite[6:-5]}-{job['name']}"] = (cli.parse_process(cfg["process"]),
                                                       cfg["grid"])
    return out


LEVY_SPECS = _levy_specs()
EXP1 = JumpLawSpec(rate=1.3, law=JumpLaw.exponential(0.8))
# every kernel kind, and gamma, constant, discrete and tempered-stable drivers
OTHER_SPECS = {
    "conv-exp-decay": ConvSpec(ExpDecayKernel(0.9), EXP1),
    "conv-power-cutoff": ConvSpec(PowerCutoffKernel(1.5, 1.2), EXP1),
    "conv-tabulated": ConvSpec(TabulatedKernel((0.0, 0.4, 0.9, 1.6), (1.0, 0.2, 0.6, 0.0)),
                               JumpLawSpec(0.7, JumpLaw.gamma(0.5, 2.0))),
    "conv-indicator-ts": ConvSpec(TabulatedKernel((0.0, 1.2), (1.0, 1.0)), TemperedStableSpec(0.3)),
    "conv-exp-decay-ts": ConvSpec(ExpDecayKernel(0.6), TemperedStableSpec(0.7)),
    "conv-constant": ConvSpec(ExpDecayKernel(0.9), JumpLawSpec(1.0, JumpLaw.constant(1.7))),
    # a kernel alive on two separate runs, which a pin past 1.5 sees as two
    # alive runs of jump locations, and one that starts dead
    "conv-two-runs": ConvSpec(TabulatedKernel((0.0, 1.0, 1.5, 2.0, 3.0),
                                              (1.0, 0.0, 0.0, 1.0, 0.0)), EXP1),
    "conv-starts-dead": ConvSpec(TabulatedKernel((0.2, 0.7, 1.9), (0.0, 2.0, 0.5)),
                                 JumpLawSpec(0.7, JumpLaw.gamma(0.5, 2.0))),
    # an interior zero knot: at a = 1.5 the single time 2 makes a piece
    # [0, 1] whose midpoint has f(a - s) = f(1) = 0, though f > 0 on the rest
    "conv-zero-knot": ConvSpec(TabulatedKernel((0.0, 1.0, 2.0), (1.0, 0.0, 1.0)), EXP1),
    "sato-gamma-0.5": SatoSpec(0.8, JumpLawSpec(1.3, JumpLaw.gamma(0.5, 1.5))),
    "sato-gamma-2": SatoSpec(1.4, JumpLawSpec(0.6, JumpLaw.gamma(2.0, 0.7))),
    "sato-constant": SatoSpec(0.7, JumpLawSpec(1.0, JumpLaw.constant(1.7))),
    "sato-discrete": SatoSpec(1.2, JumpLawSpec(2.0, JumpLaw.discrete(((0.5, 0.3), (2.0, 0.7))))),
}
ALL_SPECS = {**{k: v[0] for k, v in LEVY_SPECS.items()}, **OTHER_SPECS}
GRID = (0.5, 1.0, 1.5, 2.0)


def _assert_close(got, want):
    assert abs(got - want) <= QUAD_RTOL * abs(want), (got, want)


def _assert_sandwich(kappa, nu_min):
    """(1 - 1/e)(y ^ 1) <= 1 - e^{-y} <= y ^ 1 for y >= 0, so
    kappa_x(1) <= nu(y(x) ^ 1) <= kappa_x(1) / (1 - 1/e)."""
    slack = 1.0 + QUAD_RTOL
    assert kappa <= nu_min * slack and nu_min <= kappa / -math.expm1(-1.0) * slack, (
        kappa, nu_min)


class TestQuadratureAccuracy:
    @pytest.mark.parametrize("name", LEVY_SPECS)
    @pytest.mark.parametrize("a", (None, 0.5, 1.0, 2.0))
    def test_levy_check_entries(self, name, a):
        spec, grid = LEVY_SPECS[name]
        for entry in cli.default_panel(grid):
            for r in ((None,) if a is None else ("zero", "positive")):
                _assert_close(levy_functional_quadrature(spec, entry, r, a),
                              _nu_reference(spec, entry, r, a))

    @pytest.mark.parametrize("name", OTHER_SPECS)
    @pytest.mark.parametrize("a", (None, 0.7, 1.5, 2.5))
    def test_kernels_and_laws(self, name, a):
        spec = OTHER_SPECS[name]
        for entry in cli.default_panel(GRID):
            for r in ((None,) if a is None else ("zero", "positive")):
                _assert_close(levy_functional_quadrature(spec, entry, r, a),
                              _nu_reference(spec, entry, r, a))

    @pytest.mark.parametrize("restriction", ("zero", "positive"))
    def test_underflowing_kernel_stays_alive(self, restriction):
        # f(a - s) = e^{-400 (2.5 - s)} reads 0.0 for s < 0.64, where f > 0:
        # those jumps are alive at a, and they carry the mass near each t
        spec = ConvSpec(ExpDecayKernel(400.0), EXP1)
        for entry in cli.default_panel(GRID):
            _assert_close(levy_functional_quadrature(spec, entry, restriction, 2.5),
                          _nu_reference(spec, entry, restriction, 2.5))

    @pytest.mark.parametrize("H", (0.5, 1.0, 1.7))
    def test_sato_exponential_closed_form(self, H):
        # each piece [lo, hi) at level l integrates to
        # rate (log(1 + l m e^{-lo}) - log(1 + l m e^{-hi})); a single time t
        # is the one piece [-H log t, inf) at level alpha, u = t^H
        spec = SatoSpec(H, EXP1)
        m = EXP1.law.mean
        for alpha, t in ((1.0, 1.0), (0.3, 0.2), (4.0, 3.0)):
            want = EXP1.rate * math.log1p(alpha * m * t**H)
            _assert_close(levy_functional_quadrature(spec, PanelEntry((alpha,), (t,))),
                          want)
        entry = PanelEntry((0.7, 0.9, 0.4), (0.5, 1.5, 2.0))
        theta = [-H * math.log(t) for t in entry.times]
        bounds = sorted(theta) + [math.inf]
        want = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            level = sum(al for al, th in zip(entry.alphas, theta) if th <= lo)
            want += EXP1.rate * (math.log1p(level * m * math.exp(-lo))
                                 - math.log1p(level * m * math.exp(-hi)))
        _assert_close(levy_functional_quadrature(spec, entry), want)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 0.7))
    def test_tempered_stable_conditions(self, alpha):
        rep = validate_levy_conditions(TemperedStableSpec(alpha), make_grid(GRID))
        for x, got in zip(GRID, rep["values"]):
            _assert_close(got, x * (2.0**alpha - 1.0))
            _assert_sandwich(got, x * _ts_expect_min_closed(alpha, 1.0))

    @pytest.mark.parametrize("name", ["desk-sato-levy", "desk-conv-levy", *OTHER_SPECS])
    def test_sato_and_conv_conditions(self, name):
        spec = ALL_SPECS[name]
        rep = validate_levy_conditions(spec, make_grid(GRID))
        for x, got in zip(GRID, rep["values"]):
            _assert_close(got, _nu_reference(spec, PanelEntry((1.0,), (x,))))
            if isinstance(spec, SatoSpec):
                law = spec.bdlp.law
                if law.kind == "exponential":
                    _assert_close(got, spec.bdlp.rate * math.log1p(law.params[0] * x**spec.H))
                # c = e^{-s} x_j crosses 1 at s = log x_j for a law's atom sizes
                kinks = ([law.params[0]] if law.kind == "constant"
                         else [v for v, _ in law.params] if law.kind == "discrete" else [])
                nu_min = spec.bdlp.rate * _scipy_quad(
                    lambda s: _expect_min_closed(law, math.exp(-s)), -spec.H * math.log(x),
                    math.inf, [math.log(v) for v in kinks])
            else:
                kern, z = spec.kernel, spec.z
                points = [x - b for b in kern.breakpoints()]
                if isinstance(z, JumpLawSpec) and z.law.kind == "constant":
                    # the exp-decay response e^{-d (x - s)} times x_0 crosses 1
                    points.append(x - math.log(z.law.params[0]) / kern.decay)
                nu_min = _scipy_quad(lambda s: _driver(z, float(kern(x - s)), _expect_min_closed),
                                     max(0.0, x - kern.support_end), x, points)
            _assert_sandwich(got, nu_min)
