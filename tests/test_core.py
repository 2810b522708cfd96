import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    WeightedEnsemble,
    _matvec,
    make_grid,
    mean_function,
)
from levyid.identities import _kernel_reach
from levyid.randkit import RngStream


class TestTimeGrid:
    def test_valid(self):
        g = make_grid([0.5, 1.0, 2.0])
        assert len(g.points) == 3
        assert g.t_max == 2.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_grid([1.0, 0.5])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_grid([1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_grid([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_grid([-1.0, 1.0])

    def test_index_of(self):
        g = make_grid([0.5, 1.0, 2.0])
        assert list(g.index_of([2.0, 0.5])) == [2, 0]
        with pytest.raises(ValueError):
            g.index_of([0.7])

    def test_contains(self):
        g = make_grid([0.5, 1.0])
        assert g.contains(1.0) and not g.contains(0.75)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_time_is_not_on_the_grid(self, t):
        # the match tolerance scales with |t|, so an infinite time would
        # otherwise match the last grid point
        g = make_grid([0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="not on the grid"):
            g.index_of([t])
        assert not g.contains(t)

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8, unique=True))
    def test_any_sorted_positive_points_accepted(self, pts):
        g = make_grid(sorted(pts))
        assert g.index_of(sorted(pts)).tolist() == list(range(len(pts)))


class TestJumpLaw:
    def test_exponential_moments(self):
        law = JumpLaw.exponential(2.0)
        assert law.mean == 2.0
        # E[1 - e^{-cX}] = c m / (1 + c m) for X ~ Exp(mean m)
        c = 0.7
        assert law.one_minus_exp_moment(c) == pytest.approx(c * 2 / (1 + c * 2))

    def test_gamma_moments(self):
        law = JumpLaw.gamma(2.0, 3.0)
        assert law.mean == pytest.approx(2.0 / 3.0)
        # E[1 - e^{-cX}] = 1 - (r / (r + c))^k for X ~ Gamma(k, r)
        c = 1.3
        assert law.one_minus_exp_moment(c) == pytest.approx(1 - (3 / (3 + c)) ** 2)

    def test_constant_moments(self):
        law = JumpLaw.constant(0.8)
        assert law.mean == 0.8
        assert law.one_minus_exp_moment(1.0) == pytest.approx(1 - math.exp(-0.8))

    def test_discrete_moments(self):
        law = JumpLaw.discrete(((1.0, 0.25), (2.0, 0.75)))
        assert law.mean == pytest.approx(1.75)
        want = 0.25 * (1 - math.exp(-1)) + 0.75 * (1 - math.exp(-2))
        assert law.one_minus_exp_moment(1.0) == pytest.approx(want)

    def test_discrete_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            JumpLaw.discrete(((1.0, 0.5), (2.0, 0.2)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            JumpLaw.exponential(0.0)
        with pytest.raises(ValueError):
            JumpLaw.constant(-1.0)

    @given(st.floats(0.01, 20.0))
    def test_one_minus_exp_moment_in_unit_interval(self, c):
        for law in (JumpLaw.exponential(1.3), JumpLaw.gamma(0.5, 2.0),
                    JumpLaw.constant(0.4), JumpLaw.discrete(((0.5, 0.5), (3.0, 0.5)))):
            v = float(law.one_minus_exp_moment(c))
            assert 0.0 < v < 1.0


class TestMatvec:
    """The fixed-order product that stands in for BLAS on per-path arrays."""

    @pytest.mark.parametrize("dtype", [float, bool])
    def test_matches_matmul(self, dtype):
        gen = np.random.default_rng(5)
        matrix = gen.random((5_000, 7))
        if dtype is bool:
            matrix = matrix < 0.5
        coefs = gen.random(7)
        want = matrix @ coefs
        got = _matvec(matrix, coefs)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_contracts_the_last_axis(self):
        matrix = np.random.default_rng(6).random((3, 4, 5))
        coefs = np.arange(1.0, 6.0)
        np.testing.assert_allclose(_matvec(matrix, coefs), matrix @ coefs, rtol=1e-12)

    def test_empty_coefs_give_zeros(self):
        out = _matvec(np.empty((4, 0)), [])
        assert out.shape == (4,)
        assert not out.any()


class TestKernels:
    def test_indicator(self):
        k = TabulatedKernel((0.0, 1.5), (1.0, 1.0))
        assert k(np.array([0.0, 1.0, 1.6])).tolist() == [1.0, 1.0, 0.0]
        assert k.integral(1.0) == 1.0
        assert k.integral(4.0) == 1.5
        assert k.positive_intervals() == ((0.0, 1.5),)

    # the indicator of [0, L] is the flat two-knot table: held bit for bit
    # to the indicator's closed forms and to its uniform reach draw
    @pytest.mark.parametrize("length", [0.3, 2.0 / 3.0, 1.0, 1.5, 7.25])
    def test_flat_two_knot_table_is_the_indicator(self, length):
        k = TabulatedKernel((0.0, length), (1.0, 1.0))
        inside = [0.0, np.nextafter(0.0, 1.0), 0.5 * length, np.nextafter(length, 0.0), length]
        outside = [-np.inf, -1.0, np.nextafter(0.0, -1.0), np.nextafter(length, np.inf),
                   length + 1.0, np.inf]
        assert k(np.array(inside)).tolist() == [1.0] * len(inside)
        assert k(np.array(outside)).tolist() == [0.0] * len(outside)
        assert [k(u) for u in inside + outside] == [1.0] * len(inside) + [0.0] * len(outside)
        for a in (-1.0, 0.0, 0.25 * length, np.nextafter(length, 0.0), length, 3.0 * length):
            assert k.integral(a) == min(max(a, 0.0), length)
        assert k.positive_intervals() == ((0.0, length),)
        assert k.breakpoints() == (0.0, length) and k.support_end == length
        for a in (0.5 * length, length, 2.5 * length):
            got, want = RngStream(3).generator, RngStream(3).generator
            assert (_kernel_reach(got, k, a, 1000).tobytes()
                    == want.uniform(0.0, min(a, length), 1000).tobytes())
            assert got.random() == want.random()  # the same draws were used

    def test_exp_decay(self):
        k = ExpDecayKernel(2.0)
        assert k(np.array([0.5]))[0] == pytest.approx(math.exp(-1.0))
        assert k.integral(3.0) == pytest.approx((1 - math.exp(-6.0)) / 2.0)
        assert k.positive_intervals() == ((0.0, math.inf),)

    def test_power_cutoff(self):
        k = PowerCutoffKernel(2.0, 2.0)
        assert k(np.array([1.0]))[0] == pytest.approx(0.25)
        # integral of (1+s)^-2 on [0, 2] = 2/3
        assert k.integral(2.0) == pytest.approx(2.0 / 3.0)
        assert k.integral(5.0) == pytest.approx(2.0 / 3.0)

    def test_tabulated_interpolates_and_integrates(self):
        k = TabulatedKernel((0.0, 1.0, 2.0), (1.0, 0.5, 0.0))
        assert k(np.array([0.5]))[0] == pytest.approx(0.75)
        assert k(np.array([3.0]))[0] == 0.0
        # trapezoid of the two segments
        assert k.integral(2.0) == pytest.approx(0.75 + 0.25)
        assert k.integral(1.0) == pytest.approx(0.75)

    def test_tabulated_positive_intervals_skip_zero_segments(self):
        k = TabulatedKernel((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 1.0))
        ivals = k.positive_intervals()
        assert ivals == ((0.0, 1.0), (2.0, 3.0))

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_integral_additive(self, t1, t2):
        lo, hi = sorted((t1, t2))
        for k in (TabulatedKernel((0.0, 1.0), (1.0, 1.0)), ExpDecayKernel(0.7),
                  PowerCutoffKernel(1.5, 2.0)):
            whole = k.integral(hi)
            assert whole == pytest.approx(k.integral(lo) + (whole - k.integral(lo)))
            assert k.integral(lo) <= whole + 1e-12


class TestSpecs:
    def test_poisson_requires_positive_rate(self):
        with pytest.raises(ValueError):
            PoissonSpec(0.0)

    def test_ts_alpha_in_unit_interval(self):
        with pytest.raises(ValueError):
            TemperedStableSpec(1.0)
        with pytest.raises(ValueError):
            TemperedStableSpec(0.0)

    def test_sato_requires_positive_H(self):
        with pytest.raises(ValueError):
            SatoSpec(0.0, JumpLawSpec(1.0, JumpLaw.exponential(1.0)))

    def test_jump_law_spec_kappa(self):
        z = JumpLawSpec(2.0, JumpLaw.exponential(1.5))
        assert z.kappa == pytest.approx(3.0)

    def test_conv_kappa_for_ts_driver(self):
        spec = ConvSpec(TabulatedKernel((0.0, 1.0), (1.0, 1.0)), TemperedStableSpec(0.5))
        assert spec.kappa == pytest.approx(0.5)
        assert spec.approximate

    def test_conv_exact_for_compound_driver(self):
        spec = ConvSpec(TabulatedKernel((0.0, 1.0), (1.0, 1.0)),
                        JumpLawSpec(1.0, JumpLaw.exponential(1.0)))
        assert not spec.approximate

    def test_permanental_validation(self):
        with pytest.raises(ValueError):
            PermanentalSpec(((0.0, 1.0),), (1.0,), 1.0)  # not square
        with pytest.raises(ValueError):
            PermanentalSpec(((0.0,),), (1.0,), 0.75)  # beta not in {1/2, 1}


class TestMeanFunction:
    def test_poisson(self):
        assert mean_function(PoissonSpec(2.0), 3.0) == pytest.approx(6.0)

    def test_tempered_stable(self):
        assert mean_function(TemperedStableSpec(0.5), 1.0) == pytest.approx(0.5)

    def test_sato(self):
        spec = SatoSpec(1.0, JumpLawSpec(1.0, JumpLaw.exponential(1.0)))
        assert mean_function(spec, 2.0) == pytest.approx(2.0)

    def test_conv(self):
        spec = ConvSpec(TabulatedKernel((0.0, 1.0), (1.0, 1.0)),
                        JumpLawSpec(1.0, JumpLaw.exponential(1.0)))
        assert mean_function(spec, 2.0) == pytest.approx(1.0)
        assert mean_function(spec, 0.5) == pytest.approx(0.5)

    def test_permanental_not_time_indexed(self):
        spec = PermanentalSpec(((0.0,),), (1.0,), 1.0)
        with pytest.raises(TypeError):
            mean_function(spec, 1.0)

    @given(st.floats(0.1, 4.0), st.floats(0.2, 3.0))
    def test_sato_self_similar_scaling(self, t, c):
        spec = SatoSpec(0.7, JumpLawSpec(1.0, JumpLaw.exponential(1.0)))
        lhs = mean_function(spec, c * t)
        rhs = c**0.7 * mean_function(spec, t)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPanel:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            PanelEntry((1.0, 2.0), (1.0,))  # length mismatch
        with pytest.raises(ValueError):
            PanelEntry((-1.0,), (1.0,))  # negative coefficient

    @pytest.mark.parametrize("times", [(math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
                                       (-0.5, 1.0)])
    def test_entry_rejects_times_off_the_half_line(self, times):
        # a NaN time passed `t < 0`, and quadrature then read 0.0 at (nan, 1)
        # and 0.632 at (1, nan)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            PanelEntry((1.0, 1.0), times)

    def test_scaled(self):
        e = PanelEntry((1.0, 2.0), (0.5, 1.0)).scaled(0.5)
        assert e.alphas == (0.5, 1.0)
        assert e.times == (0.5, 1.0)

    def test_panel_iterates(self):
        p = LevyFunctionalPanel((PanelEntry((1.0,), (1.0,)),))
        assert len(p) == 1
        assert [e.alphas for e in p] == [(1.0,)]

    def test_panel_rejects_empty(self):
        with pytest.raises(ValueError):
            LevyFunctionalPanel(())


class TestWeightedEnsemble:
    def test_defaults_to_unit_weights(self, grid):
        vals = np.zeros((3, 4))
        ens = WeightedEnsemble(grid, vals)
        assert ens.n == 3
        assert np.all(ens.weights == 1.0)

    def test_rejects_negative_values(self, grid):
        with pytest.raises(ValueError):
            WeightedEnsemble(grid, -np.ones((2, 4)))

    def test_rejects_weight_length_mismatch(self, grid):
        with pytest.raises(ValueError):
            WeightedEnsemble(grid, np.zeros((2, 4)), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, grid, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedEnsemble(grid, np.zeros((2, 4)), np.array([1.0, bad]))

    # every cell of a 3 x 4 matrix, so a check that reads only some rows or
    # columns, or a reduction that drops a NaN, shows
    @pytest.mark.parametrize("cell", [(i, j) for i in range(3) for j in range(4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -2.0])
    def test_rejects_one_bad_value(self, grid, cell, bad):
        vals = np.ones((3, 4))
        vals[cell] = bad
        with pytest.raises(ValueError, match="^path values must be finite and nonnegative$"):
            WeightedEnsemble(grid, vals)
        with pytest.raises(ValueError, match="^path values must be finite and nonnegative$"):
            WeightedEnsemble(grid, vals, np.ones(3))

    @pytest.mark.parametrize("row", range(3))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -2.0])
    def test_rejects_one_bad_weight(self, grid, row, bad):
        w = np.ones(3)
        w[row] = bad
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            WeightedEnsemble(grid, np.ones((3, 4)), w)

    def test_accepts_negative_zero(self, grid):
        vals = np.full((3, 4), -0.0)
        ens = WeightedEnsemble(grid, vals, np.full(3, -0.0))
        assert np.array_equal(ens.values, vals) and np.signbit(ens.values).all()
        WeightedEnsemble(grid, vals)
