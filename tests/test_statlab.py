import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import levyid
from levyid.core import LevyFunctionalPanel, PanelEntry, TimeGrid, WeightedEnsemble
from levyid.statlab import (
    Check,
    bonferroni_crit,
    bootstrap_mean_se,
    build_identity_report,
    compare,
    effective_sample_size,
    laplace_values,
    mean_se,
    weighted_laplace_panel,
)


def _ensemble(seed=5, n=4000, weights=None):
    grid = TimeGrid((0.5, 1.0, 2.0))
    gen = np.random.default_rng(seed)
    incs = gen.exponential(0.3, size=(n, 3))
    vals = np.cumsum(incs, axis=1)
    w = np.ones(n) if weights is None else weights
    return WeightedEnsemble(grid=grid, values=vals, weights=w)


def _single_entry(ens, entry):
    est, se = weighted_laplace_panel(ens, LevyFunctionalPanel((entry,)))
    return est[0], se[0]


class TestLaplaceValues:
    def test_matches_direct_computation(self):
        ens = _ensemble(n=50)
        entry = PanelEntry(alphas=(0.5, 2.0), times=(0.5, 2.0))
        got = laplace_values(ens, entry)
        want = np.exp(-(0.5 * ens.values[:, 0] + 2.0 * ens.values[:, 2]))
        assert np.allclose(got, want)

    def test_zero_alpha_gives_one(self):
        ens = _ensemble(n=20)
        entry = PanelEntry(alphas=(0.0,), times=(1.0,))
        assert np.allclose(laplace_values(ens, entry), 1.0)


class TestWeightedLaplace:
    def test_unit_weights_reduce_to_mean(self):
        ens = _ensemble()
        entry = PanelEntry(alphas=(1.0,), times=(1.0,))
        est, se = _single_entry(ens, entry)
        direct = laplace_values(ens, entry).mean()
        assert est == pytest.approx(direct, abs=1e-14)
        assert 0 < se < 0.05

    def test_weighted_terms_over_n(self):
        # the known normalizer: the mean of w v over n, not over sum(w)
        ens = _ensemble(weights=np.linspace(0.0, 2.0, 4000))
        entry = PanelEntry(alphas=(1.0,), times=(2.0,))
        t = ens.weights * laplace_values(ens, entry)
        est, se = _single_entry(ens, entry)
        assert est == pytest.approx(t.mean(), rel=1e-12)
        assert se == pytest.approx(t.std() / math.sqrt(t.size), rel=1e-12)

    def test_rejects_zero_weights(self):
        ens = _ensemble(n=10, weights=np.zeros(10))
        entry = PanelEntry(alphas=(1.0,), times=(1.0,))
        with pytest.raises(ValueError, match="weights"):
            _single_entry(ens, entry)

    def test_panel_shares_resamples(self):
        ens = _ensemble()
        panel = LevyFunctionalPanel(
            (
                PanelEntry(alphas=(1.0,), times=(1.0,)),
                PanelEntry(alphas=(1.0,), times=(1.0,)),
            )
        )
        est, se = weighted_laplace_panel(ens, panel)
        # identical entries must get identical estimates and SEs
        assert est[0] == est[1]
        assert se[0] == se[1]

    def test_bootstrap_se_tracks_truth(self):
        # SE of a mean of n iid values is close to std/sqrt(n)
        ens = _ensemble(n=20_000)
        entry = PanelEntry(alphas=(1.0,), times=(0.5,))
        vals = laplace_values(ens, entry)
        want = vals.std() / math.sqrt(vals.size)
        _, se = _single_entry(ens, entry)
        assert 0.6 * want < se < 1.6 * want


def _weight_control_panel(ens, panel):
    # the tilting LHS: the weights regressed out as a control of mean one
    return weighted_laplace_panel(ens, panel, control=(ens.weights, 1.0))


class TestControlVariate:
    PANEL = LevyFunctionalPanel((PanelEntry((1.0,), (1.0,)), PanelEntry((0.5, 1.0), (0.5, 2.0))))

    def test_rejects_zero_weights(self):
        ens = _ensemble(n=10, weights=np.zeros(10))
        with pytest.raises(ValueError, match="^all ensemble weights are zero$"):
            _weight_control_panel(ens, self.PANEL)

    def test_single_path_has_zero_se(self):
        ens = _ensemble(n=1, weights=np.array([1.7]))
        est, se = _weight_control_panel(ens, self.PANEL)
        want = [1.7 * laplace_values(ens, e)[0] for e in self.PANEL]
        assert np.array_equal(est, want)
        assert np.array_equal(se, np.zeros(2))

    @pytest.mark.parametrize("c", [1.0, 0.1, 3.0])
    def test_constant_weights_fit_no_slope(self, c):
        # the slope is 0, so the estimate is the plain mean of the terms and
        # the SE their population SD over sqrt(n)
        ens = _ensemble(weights=np.full(4000, c))
        est, se = _weight_control_panel(ens, self.PANEL)
        for k, entry in enumerate(self.PANEL):
            t = c * laplace_values(ens, entry)
            assert est[k] == pytest.approx(t.mean(), rel=1e-13)
            assert se[k] == pytest.approx(t.std() / math.sqrt(t.size), rel=1e-10)

    def test_equal_terms_have_zero_se(self):
        ens = _ensemble(n=999, weights=np.full(999, 0.1))
        est, se = _weight_control_panel(ens, LevyFunctionalPanel((PanelEntry((0.0,), (1.0,)),)))
        assert est[0] == 0.1 and se[0] == 0.0

    def test_control_variate_itself_is_exact(self):
        # at alpha = 0 the terms are the weights, whose mean is known to be 1
        w = np.random.default_rng(3).exponential(1.0, 5000)
        ens = _ensemble(n=5000, weights=w)
        est, se = _weight_control_panel(ens, LevyFunctionalPanel((PanelEntry((0.0,), (1.0,)),)))
        assert est[0] == pytest.approx(1.0, abs=1e-14) and se[0] == 0.0

    def test_tilted_estimate_and_se(self):
        # weights psi(1) / E psi(1) on exponential increments of mean 0.3:
        # E[psi(1) e^{-psi(1)}] / E psi(1) = (1 + 0.3)^{-3}, as psi(1) is
        # Gamma(2, 0.3); the SE follows the regression residual's SD
        ens = _ensemble(n=40_000)
        ens = WeightedEnsemble(ens.grid, ens.values, ens.values[:, 1] / 0.6)
        entry = PanelEntry((1.0,), (1.0,))
        est, se = _weight_control_panel(ens, LevyFunctionalPanel((entry,)))
        t, w = ens.weights * laplace_values(ens, entry), ens.weights
        beta = np.cov(t, w, bias=True)[0, 1] / w.var()
        resid = t - beta * w
        assert se[0] == pytest.approx(resid.std() / math.sqrt(t.size), rel=1e-9)
        assert abs(est[0] - 1.3**-3) < 4.0 * se[0]


class TestBootstrapMeanSe:
    def test_matches_classical_rate(self):
        gen = np.random.default_rng(11)
        x = gen.normal(0.0, 2.0, size=10_000)
        se = bootstrap_mean_se(x)
        want = x.std() / math.sqrt(x.size)
        assert 0.7 * want < se < 1.4 * want

    def test_deterministic_with_default_stream(self):
        x = np.arange(100, dtype=float)
        assert bootstrap_mean_se(x) == bootstrap_mean_se(x)

    def test_is_the_se_of_mean_se(self):
        x = np.random.default_rng(12).exponential(1.0, 999)
        assert bootstrap_mean_se(x) == mean_se(x)[1]


def _plain_ref(t):
    # the former known-normalizer panel's operations on one entry's terms
    n = t.size
    est = np.sum(t) / n
    if n < 2:
        return est, 0.0
    r = t - est
    return est, math.sqrt(np.sum(r * r)) / n


def _centered_ref(x):
    # the mean after a shift by the first value, and the deviations from it
    shift = float(np.sum(x - float(x[0]))) / x.size
    return float(x[0]) + shift, (x - float(x[0])) - shift


def _cv_ref(t, w):
    # the former control-variate panel's operations on one entry's terms,
    # with the weights as the control of mean one
    w_mean, wc = _centered_ref(w)
    sww = np.sum(wc * wc)
    t_mean, tc = _centered_ref(t)
    beta = np.sum(tc * wc) / sww if sww > 0 else 0.0
    r = tc - wc * beta
    return t_mean - beta * (w_mean - 1.0), math.sqrt(np.sum(r * r)) / t.size


WEIGHTS = {
    "unit": lambda vals: np.ones(len(vals)),
    "tilted": lambda vals: vals[:, 1] / 0.6,
    "constant": lambda vals: np.full(len(vals), 0.7),
}


class TestMeanSe:
    ENTRY = PanelEntry((0.5, 1.0), (0.5, 2.0))

    def _terms(self, kind, n=4001):
        ens = _ensemble(n=n)
        w = WEIGHTS[kind](ens.values)
        return w * laplace_values(ens, self.ENTRY), w

    # several sizes, since one size can round a wrong formula to the same bits
    SIZES = (3, 17, 1000, 4001)

    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_plain_keeps_the_panel_bits(self, kind):
        for n in self.SIZES:
            t, _ = self._terms(kind, n)
            est, se = mean_se(t)
            ref_est, ref_se = _plain_ref(t)
            assert est == ref_est and se == ref_se and se > 0, n

    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_control_keeps_the_control_variate_bits(self, kind):
        for n in self.SIZES:
            t, w = self._terms(kind, n)
            est, se = mean_se(t, (w, 1.0))
            ref_est, ref_se = _cv_ref(t, w)
            assert est == ref_est and se == ref_se and se > 0, n

    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_panel_is_mean_se_per_entry(self, kind):
        ens = _ensemble(n=3001)
        ens = WeightedEnsemble(ens.grid, ens.values, WEIGHTS[kind](ens.values))
        panel = LevyFunctionalPanel((PanelEntry((1.0,), (1.0,)), self.ENTRY))
        for control in (None, (ens.weights, 1.0)):
            est, se = weighted_laplace_panel(ens, panel, control=control)
            want = [mean_se(ens.weights * laplace_values(ens, e), control) for e in panel]
            assert np.array_equal(np.column_stack([est, se]), np.array(want))

    @pytest.mark.parametrize("control", [None, (np.array([1.3]), 1.0)])
    def test_one_row_has_zero_se(self, control):
        est, se = mean_se(np.array([0.42]), control)
        assert est == 0.42 and se == 0.0

    def test_constant_terms_with_a_control_have_zero_se(self):
        w = np.random.default_rng(4).exponential(1.0, 777)
        est, se = mean_se(np.full(777, 0.1), (w, 1.0))
        assert est == 0.1 and se == 0.0

    @pytest.mark.parametrize("control", [False, True], ids=["plain", "control"])
    @pytest.mark.parametrize("n", [5_000, 60_000])
    def test_equal_terms_are_exact(self, n, control):
        # at n = 60k, sum / n of these terms misses their value in the last
        # bit; the estimate is the value itself, with se exactly 0
        v = math.exp(-1.0)
        ctl = (np.random.default_rng(6).exponential(1.0, n), 1.0) if control else None
        est, se = mean_se(np.full(n, v), ctl)
        assert est == v and se == 0.0

    def test_unequal_terms_keep_the_plain_bits(self):
        # random terms, and equal terms but one, off by a visible gap, by a
        # gap whose se is at rounding level, and by one ulp
        v = math.exp(-1.0)
        cases = [self._terms(kind)[0] for kind in WEIGHTS]
        for odd in (v * (1 + 1e-3), v * (1 + 1e-9), np.nextafter(v, 1.0)):
            t = np.full(60_000, v)
            t[123] = odd
            cases.append(t)
        for t in cases:
            est, se = mean_se(t)
            assert est == np.sum(t) / t.size
            assert se == math.sqrt(np.sum((t - est) ** 2)) / t.size and se > 0

    def test_leaves_its_inputs(self):
        t, w = self._terms("tilted", n=50)
        t0, w0 = t.copy(), w.copy()
        mean_se(t, (w, 1.0))
        mean_se(t)
        assert np.array_equal(t, t0) and np.array_equal(w, w0)

    @pytest.mark.parametrize("t", [np.empty(0), np.ones((3, 2))], ids=["empty", "matrix"])
    def test_rejects_anything_but_a_nonempty_vector(self, t):
        with pytest.raises(ValueError, match="nonempty vector"):
            mean_se(t)


PACKAGE = Path(levyid.__file__).resolve().parent
SECOND_RULES = {"mean", "std", "var"}


class _SecondRules(ast.NodeVisitor):
    """Calls that would compute a mean or an SE beside `statlab.mean_se`:
    x.mean(), np.std(x), x.var(), and any call passing ddof."""

    def __init__(self, module):
        self.module, self.found = module, []

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in SECOND_RULES:
            self.found.append((self.module, node.lineno, f.attr))
        if any(k.arg == "ddof" for k in node.keywords):
            self.found.append((self.module, node.lineno, "ddof"))
        self.generic_visit(node)


def test_every_mean_and_se_goes_through_mean_se():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _SecondRules(path.name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    assert found == []


class TestCompare:
    def test_clear_pass(self):
        z, ok = compare((1.0, 0.1), (1.05, 0.1))
        assert ok and abs(z) < 1.0

    def test_clear_fail(self):
        z, ok = compare((1.0, 0.01), (2.0, 0.01))
        assert not ok and abs(z) > 10

    def test_exact_equal_passes(self):
        z, ok = compare((0.25, 0.0), (0.25, 0.0))
        assert ok and z == 0.0

    def test_exact_unequal_fails_inf(self):
        z, ok = compare((0.25, 0.0), (0.35, 0.0))
        assert not ok and z == math.inf

    def test_float_rounding_noise_is_zero(self):
        # ulp-level disagreement with degenerate SEs must not explode
        a = 1.0 / 3.0
        b = a + 1e-16
        z, ok = compare((a, 0.0), (b, 5e-17))
        assert ok and z == 0.0

    def test_z_sign(self):
        z, _ = compare((2.0, 0.5), (1.0, 0.5))
        assert z > 0
        z, _ = compare((1.0, 0.5), (2.0, 0.5))
        assert z < 0


class TestBonferroni:
    def test_single_test_unchanged(self):
        assert bonferroni_crit(3.0, 1) == pytest.approx(3.0, abs=1e-10)

    def test_monotone_in_k(self):
        vals = [bonferroni_crit(3.0, k) for k in (1, 2, 6, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            bonferroni_crit(3.0, 0)

    def test_matches_scipy_formula(self):
        # the former scipy form of the same gate, to within 16 ulp
        from scipy.special import ndtr, ndtri

        for z in (0.1, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0, 7.5, 10.0, 20.0, 30.0, 37.5):
            for k in (1, 2, 3, 6, 10, 20, 100, 1000, 10_000):
                ref = float(-ndtri(2.0 * ndtr(-z) / (2.0 * k)))
                assert abs(bonferroni_crit(z, k) - ref) <= 16 * math.ulp(ref), (z, k)

    def test_tail_limits_give_inf(self):
        assert bonferroni_crit(50.0, 1) == math.inf
        assert bonferroni_crit(50.0, 6) == math.inf
        assert bonferroni_crit(-50.0, 1) == -math.inf


class TestEffectiveSampleSize:
    def test_uniform_weights_full_size(self):
        assert effective_sample_size(np.ones(500)) == pytest.approx(500.0)

    def test_single_atom_is_one(self):
        w = np.zeros(100)
        w[3] = 7.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_zero_weights(self):
        assert effective_sample_size(np.zeros(10)) == 0.0

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=40))
    def test_bounded_by_n(self, ws):
        ess = effective_sample_size(np.array(ws))
        assert 1.0 - 1e-9 <= ess <= len(ws) + 1e-9


class TestIdentityReport:
    def _report(self, lhs, rhs, se=0.01):
        panel = LevyFunctionalPanel(
            (
                PanelEntry(alphas=(1.0,), times=(1.0,)),
                PanelEntry(alphas=(0.5,), times=(2.0,)),
            )
        )
        k = len(panel)
        return build_identity_report(
            "test", panel, lhs, rhs, [se] * k, [se] * k, z_crit=3.0, n=1000
        )

    def test_pass_verdict(self):
        rep = self._report([0.5, 0.4], [0.505, 0.395])
        assert rep.overall_pass
        assert all(rep.entry_pass)

    def test_fail_verdict(self):
        rep = self._report([0.5, 0.4], [0.9, 0.4])
        assert not rep.overall_pass
        assert rep.entry_pass == [False, True]

    def test_bonferroni_wider_than_entry(self):
        rep = self._report([0.5, 0.4], [0.5, 0.4])
        assert rep.crit > rep.z_crit
        assert rep.to_dict()["bonferroni_z"] == rep.crit

    def test_to_dict_shape(self):
        rep = self._report([0.5, 0.4], [0.5, 0.4])
        d = rep.to_dict()
        assert d["label"] == "test"
        assert d["pass"] is True
        assert len(d["entries"]) == 2
        e = d["entries"][0]
        assert set(e) == {"alphas", "times", "lhs", "lhs_se", "rhs", "rhs_se", "z", "pass"}

    def test_notes_only_when_present(self):
        rep = self._report([0.5, 0.4], [0.5, 0.4])
        assert "notes" not in rep.to_dict()
        rep.notes["ess"] = 12.0
        assert rep.to_dict()["notes"] == {"ess": 12.0}

    def test_is_dataclass_with_arrays(self):
        rep = self._report([0.5, 0.4], [0.5, 0.4])
        assert isinstance(rep, Check)
        assert isinstance(rep.z, np.ndarray)
