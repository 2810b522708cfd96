import json
import math
from pathlib import Path

import numpy as np
import pytest

from levyid import cli
from levyid.core import (
    ConvSpec,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PoissonSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    make_grid,
    mean_function,
)
from levyid.limits import (
    DEFAULT_DELTAS,
    thinned_spec,
    thinned_values,
    verify_thinning_limit,
)
from levyid.levymeasure import levy_functional_quadrature
from levyid.randkit import RngStream
from levyid.statlab import bonferroni_crit

GRID = make_grid([0.5, 1.0, 2.0])
PANEL = LevyFunctionalPanel(
    (
        PanelEntry(alphas=(1.0,), times=(1.0,)),
        PanelEntry(alphas=(0.6,), times=(2.0,)),
    )
)


class TestThinnedSpec:
    def test_poisson_rate_scales(self):
        thin = thinned_spec(PoissonSpec(rate=2.0), 0.25)
        assert thin.rate == pytest.approx(0.5)

    def test_sato_driver_rate_scales(self):
        spec = SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=2.0, law=JumpLaw.exponential(1.0)))
        thin = thinned_spec(spec, 0.1)
        assert thin.bdlp.rate == pytest.approx(0.2)
        assert thin.H == spec.H

    def test_conv_driver_rate_scales(self):
        spec = ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                        z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)))
        thin = thinned_spec(spec, 0.5)
        assert thin.z.rate == pytest.approx(0.5)

    def test_ts_spec_unchanged(self):
        spec = TemperedStableSpec(alpha=0.5)
        assert thinned_spec(spec, 0.3) is spec

    def test_rejects_bad_delta(self):
        for d in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                thinned_spec(PoissonSpec(rate=1.0), d)

    def test_rejects_nan_delta(self):
        # NaN fails every comparison, so it must not slip past the range test
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\]$"):
            thinned_spec(TemperedStableSpec(0.5), math.nan)

    def test_delta_one_identity(self):
        thin = thinned_spec(PoissonSpec(rate=2.0), 1.0)
        assert thin.rate == pytest.approx(2.0)


class TestThinnedValues:
    def test_poisson_mean_scales(self, rng):
        vals = thinned_values(rng.substream(0), PoissonSpec(rate=1.0), 0.2, [2.0], 100_000)
        se = vals.std() / math.sqrt(vals.size) + 1e-12
        assert abs(vals.mean() - 0.4) <= 4 * se
        assert 0.2 * mean_function(PoissonSpec(rate=1.0), 2.0) == pytest.approx(0.4)

    def test_ts_clock_scaling(self, rng):
        # the delta-thinned subordinator at t has the original law at delta t:
        # mean delta alpha t and Laplace exp(delta t (1 - (1+u)^alpha))
        al, d, t = 0.5, 0.1, 1.0
        vals = thinned_values(rng.substream(1), TemperedStableSpec(al), d, [t], 200_000)[:, 0]
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - d * al * t) <= 4 * se
        lap = np.exp(-vals)
        se_l = lap.std() / math.sqrt(lap.size)
        want = math.exp(d * t * (1.0 - 2.0**al))
        assert abs(lap.mean() - want) <= 4 * se_l

    def test_thinned_single_path(self, rng):
        p = thinned_values(rng.substream(2), PoissonSpec(rate=1.0), 0.5, GRID.points, 1)[0]
        assert len(p) == len(GRID)
        assert all(b >= a for a, b in zip(p, p[1:]))


class TestVerifyThinningLimit:
    def test_poisson_converges(self):
        rep = verify_thinning_limit(
            RngStream(500), PoissonSpec(rate=1.0), 1.0, GRID, PANEL, n=100
        )
        assert rep.overall_pass, rep.to_dict()
        dist = rep.fields["distances"]
        assert len(dist) == len(DEFAULT_DELTAS)
        # the first rung's gap to the companion is the full tilted-vs-companion
        # discrepancy and must dominate the final one decisively
        k = len(PANEL)
        assert dist[0] - dist[-1] > 3 * math.hypot(max(rep.lhs_se[:k]), max(rep.lhs_se[-k:]))

    def test_ts_converges(self):
        rep = verify_thinning_limit(
            RngStream(501), TemperedStableSpec(alpha=0.5), 1.0, GRID, PANEL, n=100
        )
        assert rep.overall_pass, rep.to_dict()

    def test_each_rung_targets_its_exact_law(self):
        # rung delta's target is e^{-delta kappa} times one companion estimate
        spec = PoissonSpec(rate=1.0)
        rep = verify_thinning_limit(RngStream(500), spec, 1.0, GRID, PANEL, n=100)
        kappa = np.array([levy_functional_quadrature(spec, e) for e in PANEL])
        decay = np.exp(-np.outer(DEFAULT_DELTAS, kappa)).ravel()
        for side in (rep.rhs, rep.rhs_se):
            companion = (side / decay).reshape(len(DEFAULT_DELTAS), len(PANEL))
            assert np.allclose(companion, companion[0], rtol=1e-14, atol=0)
        assert [row["delta"] for row in rep.rows] == np.repeat(DEFAULT_DELTAS, 2).tolist()
        # one family-wise gate over every rung and entry
        assert rep.crit == bonferroni_crit(3.0, len(DEFAULT_DELTAS) * len(PANEL))

    def test_rung_sizes_autoscale(self):
        rep = verify_thinning_limit(
            RngStream(502), PoissonSpec(rate=1.0), 1.0, GRID, PANEL,
            n=100, deltas=(1.0, 0.25)
        )
        assert rep.fields["n_used"] == [100, 400]
        # effective sample size stays near the base on both rungs
        assert all(30 < e < 250 for e in rep.fields["ess"])

    def test_report_shapes(self):
        rep = verify_thinning_limit(
            RngStream(502), PoissonSpec(rate=1.0), 1.0, GRID, PANEL,
            n=100, deltas=(1.0, 0.5)
        )
        d = rep.to_dict()
        assert d["deltas"] == [1.0, 0.5]
        assert len(d["n_used"]) == 2 and len(d["ess"]) == 2 and len(d["distances"]) == 2
        assert all(e > 0 for e in d["ess"])
        assert {"entries", "deltas", "n_used", "distances", "ess", "z_crit",
                "bonferroni_z", "pass", "notes"} == set(d)
        assert len(d["entries"]) == 2 * len(PANEL)
        assert {"delta", "alphas", "times", "lhs", "lhs_se", "rhs", "rhs_se", "z",
                "pass"} == set(d["entries"][0])
        assert {"a", "n_target"} <= set(d["notes"])

    def test_cap_collapse_is_flagged(self):
        rep = verify_thinning_limit(
            RngStream(507), PoissonSpec(rate=1.0), 1.0, GRID, PANEL,
            n=100, deltas=(1.0, 0.02), n_max=200
        )
        # the cap squeezes the last rung to 200 draws, so its ESS collapses
        assert rep.fields["n_used"] == [100, 200]
        assert 0.02 in rep.notes["ess_collapse_at"]

    def test_uncapped_rung_is_not_flagged(self):
        # the desk ts-limit job's delta = 1 rung has an ESS near n / 2 by
        # design (48 of 100 at its suite seed), with n_max far from binding
        desk = json.loads((Path(__file__).resolve().parents[1]
                           / "configs" / "suite_desk.json").read_text())
        j, job = next((j, job) for j, job in enumerate(desk["jobs"])
                      if job["name"] == "ts-limit")
        _, results, ok, _ = cli._cmd_limit(job["config"], desk["seed"] + j + 1)
        assert ok
        assert results["ess"][0] < 0.5 * results["n_used"][0] < results["n_used"][-1]
        assert "ess_collapse_at" not in results["notes"]

    def test_rejects_bad_ladder(self):
        for bad in [(0.5, 1.5), (), (0.3, 0.3), (0.1, 0.5)]:
            with pytest.raises(ValueError):
                verify_thinning_limit(
                    RngStream(503), PoissonSpec(rate=1.0), 1.0, GRID, PANEL,
                    n=100, deltas=bad
                )

    def test_rejects_nan_delta(self):
        with pytest.raises(ValueError, match=r"^deltas must lie in \(0, 1\]$"):
            verify_thinning_limit(
                RngStream(503), PoissonSpec(rate=1.0), 1.0, GRID, PANEL,
                n=100, deltas=(1.0, math.nan)
            )

    def test_rejects_tilt_off_grid(self):
        with pytest.raises(ValueError):
            verify_thinning_limit(
                RngStream(505), PoissonSpec(rate=1.0), 0.77, GRID, PANEL, n=100
            )

    def test_deterministic(self):
        r1 = verify_thinning_limit(
            RngStream(506), PoissonSpec(rate=1.0), 1.0, GRID, PANEL, n=100
        )
        r2 = verify_thinning_limit(
            RngStream(506), PoissonSpec(rate=1.0), 1.0, GRID, PANEL, n=100
        )
        assert r1.fields["distances"] == r2.fields["distances"]
        assert np.array_equal(r1.z, r2.z)

    def test_companion_target_self_consistent(self):
        # two independent draws of the companion panel agree within noise
        from levyid.identities import companion_values
        from levyid.processes import sample_ensemble
        from levyid.statlab import weighted_laplace_panel
        from levyid.core import WeightedEnsemble

        spec = PoissonSpec(rate=1.0)
        ests = []
        for seed in (508, 509):
            vals = sample_ensemble(
                lambda stream, out: companion_values(stream, spec, 1.0, GRID.points, len(out),
                                                     out),
                RngStream(seed), 20_000, len(GRID),
            )
            est, se = weighted_laplace_panel(WeightedEnsemble(GRID, vals), PANEL)
            ests.append((est, se))
        (e1, s1), (e2, s2) = ests
        assert all(abs(a - b) <= 3 * math.hypot(x, y)
                   for a, b, x, y in zip(e1, e2, s1, s2))
