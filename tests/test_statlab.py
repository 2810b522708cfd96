import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levyid.core import LevyFunctionalPanel, PanelEntry, TimeGrid, WeightedEnsemble
from levyid.statlab import (
    Check,
    bonferroni_crit,
    bootstrap_mean_se,
    build_identity_report,
    compare,
    effective_sample_size,
    laplace_values,
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

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_estimate_invariant_under_weight_scale(self, c):
        ens = _ensemble()
        scaled = WeightedEnsemble(
            grid=ens.grid, values=ens.values, weights=c * ens.weights
        )
        entry = PanelEntry(alphas=(1.0,), times=(2.0,))
        e1, _ = _single_entry(ens, entry)
        e2, _ = _single_entry(scaled, entry)
        assert e1 == pytest.approx(e2, rel=1e-12)

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
