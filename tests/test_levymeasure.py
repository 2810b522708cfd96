import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyid.core import (
    ConvSpec,
    ExpDecayKernel,
    IndicatorKernel,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    SatoSpec,
    TemperedStableSpec,
    make_grid,
)
from levyid.levymeasure import (
    conv_active_intervals,
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
        assert est.se == 0.0
        assert est.value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-10)

    def test_poisson_two_times(self):
        # birth before t1 contributes both coordinates, between t1 and t2 only one
        entry = PanelEntry(alphas=(0.5, 1.0), times=(1.0, 2.0))
        want = 1.0 * (1.0 - math.exp(-1.5)) + 1.0 * (1.0 - math.exp(-1.0))
        est = levy_functional_quadrature(PoissonSpec(rate=1.0), entry)
        assert est.value == pytest.approx(want, rel=1e-10)

    def test_ts_matches_laplace_exponent(self):
        # nu(1 - e^{-u y(t)}) = ((1+u)^alpha - 1) t
        for al in (0.3, 0.5, 0.8):
            for u, t in ((1.0, 1.0), (2.0, 0.5)):
                entry = PanelEntry(alphas=(u,), times=(t,))
                est = levy_functional_quadrature(TemperedStableSpec(al), entry)
                assert est.value == pytest.approx(((1 + u) ** al - 1) * t, rel=1e-8)

    def test_sato_h1_exp_driver(self):
        # H = 1 with Exp(1) jumps at unit rate: -log E e^{-u psi(t)} = log(1 + ut)
        spec = SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        est = levy_functional_quadrature(spec, E1)
        assert est.value == pytest.approx(math.log(2.0), rel=1e-8)

    def test_conv_indicator_unit_jumps(self):
        # f = 1_[0,2], constant jumps of size 1 at unit rate, t = 1:
        # every jump born in [0, 1] contributes 1 - e^{-1}
        spec = ConvSpec(kernel=IndicatorKernel(2.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)))
        est = levy_functional_quadrature(spec, E1)
        assert est.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-8)

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
        full = levy_functional_quadrature(spec, entry).value
        zero = levy_functional_quadrature(spec, entry, "zero", a).value
        pos = levy_functional_quadrature(spec, entry, "positive", a).value
        assert zero + pos == pytest.approx(full, abs=1e-8)
        assert zero >= -1e-12 and pos >= -1e-12

    @given(a=st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=20)
    def test_split_additivity_over_pin_location(self, a):
        entry = PanelEntry(alphas=(1.0,), times=(1.5,))
        spec = TemperedStableSpec(alpha=0.6)
        full = levy_functional_quadrature(spec, entry).value
        zero = levy_functional_quadrature(spec, entry, "zero", a).value
        pos = levy_functional_quadrature(spec, entry, "positive", a).value
        assert zero + pos == pytest.approx(full, abs=1e-8)

    def test_poisson_restricted_positive_mass(self):
        # paths with y(a) > 0 are those born at or before a
        spec = PoissonSpec(rate=2.0)
        entry = PanelEntry(alphas=(1.0,), times=(3.0,))
        pos = levy_functional_quadrature(spec, entry, "positive", 1.0).value
        assert pos == pytest.approx(2.0 * 1.0 * (1.0 - math.exp(-1.0)), rel=1e-10)

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
        ("conv", ConvSpec(kernel=IndicatorKernel(2.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
    ]

    @pytest.mark.parametrize("idx,name,spec", [(i, n, s) for i, (n, s) in enumerate(CASES)],
                             ids=[c[0] for c in CASES])
    def test_matches_quadrature(self, idx, name, spec):
        entry = PanelEntry(alphas=(0.8, 1.0), times=(0.5, 1.5))
        want = levy_functional_quadrature(spec, entry).value
        (est,) = levy_functional_mc(RngStream(300, idx), spec, _one(entry), n=150_000)
        assert est.se > 0
        assert abs(est.value - want) <= 4 * est.se, (name, est.value, want, est.se)

    def test_poisson_mixing_law_invariance(self):
        # the location mixer is auxiliary: any positive mean gives the same nu(F)
        spec = PoissonSpec(rate=1.0)
        panel = _one(PanelEntry(alphas=(1.0,), times=(1.0,)))
        (e1,) = levy_functional_mc(RngStream(301), spec, panel, n=150_000, mixing_mean=1.0)
        (e5,) = levy_functional_mc(RngStream(302), spec, panel, n=150_000, mixing_mean=5.0)
        se = math.hypot(e1.se, e5.se)
        assert abs(e1.value - e5.value) <= 4 * se

    def test_conv_theta_invariance(self):
        spec = ConvSpec(kernel=ExpDecayKernel(1.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        (a,) = levy_functional_mc(RngStream(303), spec, _one(E1), n=100_000, theta=1.0)
        (b,) = levy_functional_mc(RngStream(304), spec, _one(E1), n=100_000, theta=2.0)
        assert abs(a.value - b.value) <= 4 * math.hypot(a.se, b.se)

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

        for kwargs in ({"n": 0}, {"n": 10, "mixing_mean": 0.0}, {"n": 10, "theta": -1.0}):
            with pytest.raises(ValueError):
                levy_functional_mc(NoDraws(306), PoissonSpec(rate=1.0), _one(E1), **kwargs)

    def test_deterministic(self):
        a = levy_functional_mc(RngStream(308), TemperedStableSpec(0.5), _one(E1), n=5000)
        b = levy_functional_mc(RngStream(308), TemperedStableSpec(0.5), _one(E1), n=5000)
        assert [(e.value, e.se) for e in a] == [(e.value, e.se) for e in b]


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


class TestConvActiveIntervals:
    def test_indicator_reach(self):
        spec = ConvSpec(kernel=IndicatorKernel(2.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)))
        ivs = conv_active_intervals(spec, 1.0)
        # births s in [0, a] with f(a - s) > 0; the reach 2 covers all of [0, 1]
        assert len(ivs) == 1
        lo, hi = ivs[0]
        assert lo == pytest.approx(0.0) and hi == pytest.approx(1.0)

    def test_gap_kernel_splits(self):
        from levyid.core import TabulatedKernel

        kern = TabulatedKernel(knots=(0.0, 1.0, 1.5, 2.0, 3.0), values=(1.0, 0.0, 0.0, 1.0, 0.0))
        spec = ConvSpec(kernel=kern, z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)))
        ivs = conv_active_intervals(spec, 3.0)
        assert len(ivs) == 2


class TestLevyConditions:
    def test_poisson_linear_in_t(self):
        rep = validate_levy_conditions(PoissonSpec(rate=2.0), make_grid([0.5, 1.0]))
        assert rep.ok and all(rep.finite)
        assert rep.values[0] == pytest.approx(1.0)
        assert rep.values[1] == pytest.approx(2.0)

    def test_all_families_finite(self):
        grid = make_grid([0.5, 1.0, 2.0])
        for _, spec in TestMonteCarloRepresentations.CASES:
            rep = validate_levy_conditions(spec, grid)
            assert rep.ok, type(spec).__name__
            assert all(v >= 0 and math.isfinite(v) for v in rep.values)

    def test_permanental_needs_no_grid(self):
        spec = PermanentalSpec(rates=((0.0, 0.5), (0.5, 0.0)), kill=(0.3, 0.1), beta=1.0)
        rep = validate_levy_conditions(spec)
        assert rep.ok and len(rep.points) == 2

    def test_time_indexed_needs_grid(self):
        with pytest.raises(ValueError, match="grid"):
            validate_levy_conditions(PoissonSpec(rate=1.0))

    def test_to_dict(self):
        rep = validate_levy_conditions(PoissonSpec(rate=1.0), make_grid([1.0]))
        d = rep.to_dict()
        assert set(d) == {"points", "values", "finite", "pass"}
