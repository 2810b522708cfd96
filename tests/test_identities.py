import json
import math
from pathlib import Path

import numpy as np
import pytest

from levyid import cli, core, identities, processes
from levyid.core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PoissonSpec,
    PowerCutoffKernel,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
)
from levyid.identities import (
    _kernel_reach,
    companion_values,
    hidden_values,
    tilted_ensemble,
    verify_decomposition_identity,
    verify_tilting_identity,
    visible_values,
)
from levyid.levymeasure import levy_functional_quadrature
from levyid.processes import values_at
from levyid.randkit import RngStream
from levyid.statlab import Check, weighted_laplace_panel

GRID = TimeGrid((0.5, 1.0, 1.5, 2.0))
PANEL = LevyFunctionalPanel(
    (
        PanelEntry(alphas=(1.0,), times=(1.0,)),
        PanelEntry(alphas=(0.5, 0.8), times=(0.5, 2.0)),
    )
)


class TestTiltedEnsemble:
    def test_weights_mean_one(self, rng):
        ens = tilted_ensemble(rng.substream(0), PoissonSpec(rate=1.0), 1.0, GRID, 100_000)
        se = ens.weights.std() / math.sqrt(ens.weights.size)
        assert abs(ens.weights.mean() - 1.0) <= 4 * se

    def test_tilted_mean_is_second_moment_ratio(self, rng):
        # E[N w] with w = N / E N equals E N^2 / E N = 2 for Poisson(1) at t = a = 1
        ens = tilted_ensemble(rng.substream(1), PoissonSpec(rate=1.0), 1.0, GRID, 200_000)
        ia = GRID.index_of([1.0])[0]
        x = ens.values[:, ia] * ens.weights
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - 2.0) <= 4 * se

    def test_rejects_tilt_point_off_grid(self, rng):
        with pytest.raises(ValueError):
            tilted_ensemble(rng.substream(2), PoissonSpec(rate=1.0), 0.77, GRID, 100)


class TestCompanionStructure:
    def test_poisson_companion_is_unit_step(self, rng):
        # one jump of size 1 at a uniform location in [0, a]
        vals = companion_values(rng.substream(3), PoissonSpec(rate=2.0), 1.0, GRID.points, 20_000)
        assert set(np.unique(vals)) <= {0.0, 1.0}
        assert np.all(np.diff(vals, axis=1) >= 0)
        assert np.all(vals[:, GRID.index_of([1.0])[0] :] == 1.0)
        # jump location uniform on [0, a]: value at a/2 is Bernoulli(1/2)
        frac = vals[:, GRID.index_of([0.5])[0]].mean()
        assert abs(frac - 0.5) <= 4 * math.sqrt(0.25 / vals.shape[0])

    def test_ts_companion_height(self, rng):
        # single jump of Gamma(1 - alpha, 1) size; at t >= a the step is complete
        al = 0.5
        vals = companion_values(
            rng.substream(4), TemperedStableSpec(al), 1.0, GRID.points, 100_000
        )
        h = vals[:, GRID.index_of([2.0])[0]]
        se = h.std() / math.sqrt(h.size)
        assert abs(h.mean() - (1 - al)) <= 4 * se
        assert np.all(h > 0)

    def test_sato_companion_scaling(self, rng):
        spec = SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        vals = companion_values(rng.substream(5), spec, 1.0, GRID.points, 50_000)
        assert np.all(np.diff(vals, axis=1) >= 0)
        h = vals[:, GRID.index_of([2.0])[0]]
        # height a^H U V with V size-biased Exp(1), so E = 1 * (1/2) * 2 = 1
        se = h.std() / math.sqrt(h.size)
        assert abs(h.mean() - 1.0) <= 4 * se

    def test_conv_companion_single_bump(self, rng):
        spec = ConvSpec(
            kernel=TabulatedKernel((0.0, 0.75), (1.0, 1.0)),
            z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)),
        )
        vals = companion_values(rng.substream(6), spec, 1.0, GRID.points, 20_000)
        assert np.all(vals >= 0)
        # bump location R has density f / I(a) on [0, a], so f(R) > 0 a.s.
        # and the value at the tilt point is the size-biased jump V, here
        # Gamma(2, 1) with mean 2
        at_a = vals[:, GRID.index_of([1.0])[0]]
        assert np.all(at_a > 0)
        se = at_a.std() / math.sqrt(at_a.size)
        assert abs(at_a.mean() - 2.0) <= 4 * se
        # indicator of reach 0.75: at t = 2 the argument 1 + R exceeds the
        # cutoff for every R >= 0; at t = 0.5 it lands inside iff R >= 1/2
        assert np.all(vals[:, GRID.index_of([2.0])[0]] == 0.0)
        pos = (vals[:, GRID.index_of([0.5])[0]] > 0).mean()
        want = 1.0 / 3.0
        assert abs(pos - want) <= 4 * math.sqrt(want * (1 - want) / vals.shape[0])


class TestComponentStructure:
    def test_hidden_zero_before_pin_poisson(self, rng):
        hid = hidden_values(rng.substream(7), PoissonSpec(rate=1.0), 1.0, GRID.points, 5000)
        upto = GRID.index_of([1.0])[0]
        assert np.all(hid[:, : upto + 1] == 0.0)
        assert np.any(hid[:, -1] > 0)

    def test_visible_flat_after_pin_poisson(self, rng):
        vis = visible_values(rng.substream(8), PoissonSpec(rate=1.0), 1.0, GRID.points, 5000)
        ia = GRID.index_of([1.0])[0]
        assert np.all(vis[:, ia:] == vis[:, ia][:, None])

    def test_hidden_plus_visible_nonnegative_monotone_ts(self, rng):
        hid = hidden_values(rng.substream(9), TemperedStableSpec(0.5), 1.0, GRID.points, 3000)
        vis = visible_values(rng.substream(10), TemperedStableSpec(0.5), 1.0, GRID.points, 3000)
        assert np.all(np.diff(hid + vis, axis=1) >= 0)

    def test_path_helpers(self, rng):
        spec = PoissonSpec(rate=1.0)
        for fn in (companion_values, visible_values, hidden_values):
            p = fn(rng.substream(11), spec, 1.0, GRID.points, 1)
            assert p.shape == (1, len(GRID))


@pytest.mark.parametrize("z", [JumpLawSpec(rate=2.0, law=JumpLaw.exponential(1.0)),
                               TemperedStableSpec(0.5)], ids=["jump", "tempered-stable"])
def test_conv_alive_where_kernel_underflows(z):
    # e^{-400 u} reads 0.0 past u = 1.87, yet f > 0 on all of [0, inf): at
    # a = 2.5 every jump born by a is alive, so the hidden part is exactly 0
    # up to a and the two parts add up to the whole path
    spec, a, pts = ConvSpec(ExpDecayKernel(400.0), z), 2.5, (0.5, 1.0, 2.5, 3.0)
    assert spec.kernel(2.0) == 0.0
    hid = hidden_values(RngStream(34), spec, a, pts, 2000)
    vis = visible_values(RngStream(34), spec, a, pts, 2000)
    assert np.all(hid[:, :3] == 0.0) and np.any(hid[:, 3] > 0)
    np.testing.assert_allclose(hid + vis, values_at(RngStream(34), spec, pts, 2000),
                               rtol=1e-12, atol=0)


SATO_H08 = SatoSpec(H=0.8, bdlp=JumpLawSpec(rate=1.5, law=JumpLaw.gamma(2.0, 1.5)))


class TestHiddenBirthsAfterPin:
    @pytest.mark.parametrize("spec", [PoissonSpec(rate=1.3), TemperedStableSpec(0.6), SATO_H08],
                             ids=["poisson", "tempered-stable", "sato"])
    def test_exactly_zero_up_to_pin(self, spec):
        pts = (0.0, 0.25, 1.0, 1.5, 0.5, 2.0)
        hid = hidden_values(RngStream(31), spec, 1.0, pts, 4000)
        assert np.all(hid[:, [0, 1, 2, 4]] == 0.0)
        assert np.all(hid[:, 5] >= hid[:, 3]) and np.any(hid[:, 5] > 0)

    @pytest.mark.parametrize("a", [1.0, 1.5])
    def test_sato_draws_only_the_locations_born_after_pin(self, monkeypatch, a):
        # a jump at location s is born at exp(-s / H): after a exactly when
        # s < -H log a, and by t_max = 2 exactly when s >= -H log 2
        windows = []
        real = processes._jump_set

        def spy(rng, driver, lo, hi, n):
            windows.append((lo, hi))
            return real(rng, driver, lo, hi, n)

        monkeypatch.setattr(processes, "_jump_set", spy)
        hidden_values(RngStream(32), SATO_H08, a, GRID.points, 500)
        assert windows == [(pytest.approx(-0.8 * math.log(2.0)),
                            pytest.approx(-0.8 * math.log(a)))]

    @pytest.mark.parametrize("a", [2.0, 3.0])
    def test_sato_draws_nothing_from_pin_past_last_time(self, monkeypatch, a):
        monkeypatch.setattr(processes, "_jump_set", None)  # any call raises
        hid = hidden_values(RngStream(33), SATO_H08, a, GRID.points, 500)
        assert np.array_equal(hid, np.zeros((500, len(GRID))))


class TestPowerCutoffReach:
    @pytest.mark.parametrize("power", [0.5, 1.0, 3.0])
    def test_matches_cdf(self, power):
        # density (1 + u)^(-p) on [0, b], b = min(a, length): its CDF is the
        # kernel's own integral over [0, u], normalized
        kernel, a, n = PowerCutoffKernel(power=power, length=1.5), 2.0, 40_000
        reach = _kernel_reach(np.random.default_rng(7), kernel, a, n)
        assert np.all((reach >= 0.0) & (reach <= 1.5))
        for u in (0.05, 0.2, 0.5, 0.9, 1.3):
            cdf = kernel.integral(u) / kernel.integral(a)
            got = np.mean(reach <= u)
            assert abs(got - cdf) <= 4.0 * math.sqrt(cdf * (1.0 - cdf) / n), (u, got, cdf)

    def test_large_power_draws_at_once(self):
        # nearly all mass sits within a few 1/p of 0; a rejection sampler
        # from a uniform envelope would almost never accept
        reach = _kernel_reach(np.random.default_rng(8), PowerCutoffKernel(1e7, 1.0), 1.0, 10_000)
        assert np.all((reach >= 0.0) & (reach <= 1.0))
        assert abs(reach.mean() * 1e7 - 1.0) < 0.1


def _spec_cases():
    cases = [
        ("poisson", PoissonSpec(rate=1.0)),
        ("ts", TemperedStableSpec(alpha=0.5)),
        ("sato-h1", SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
        ("sato-h05", SatoSpec(H=0.5, bdlp=JumpLawSpec(rate=2.0, law=JumpLaw.gamma(1.5, 2.0)))),
        ("conv-ind", ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                              z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))),
        ("conv-exp", ConvSpec(kernel=ExpDecayKernel(1.0), z=JumpLawSpec(rate=1.5, law=JumpLaw.gamma(0.7, 1.0)))),
        ("conv-pow", ConvSpec(kernel=PowerCutoffKernel(power=0.5, length=3.0), z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(0.8)))),
        ("conv-tab", ConvSpec(
            kernel=TabulatedKernel(knots=(0.0, 1.0, 2.0, 3.0), values=(1.0, 0.5, 0.25, 0.0)),
            z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(0.5)),
        )),
    ]
    return [(i, name, spec) for i, (name, spec) in enumerate(cases)]


@pytest.mark.parametrize("idx,name,spec", _spec_cases(), ids=[c[1] for c in _spec_cases()])
class TestVerifiersAcrossFamilies:
    def test_tilting(self, idx, name, spec):
        rep = verify_tilting_identity(
            RngStream(101, idx), spec, 1.0, GRID, PANEL, n=40_000
        )
        assert rep.overall_pass, rep.to_dict()

    def test_decomposition(self, idx, name, spec):
        rep = verify_decomposition_identity(
            RngStream(102, idx), spec, 1.0, GRID, PANEL, n=40_000
        )
        assert rep.overall_pass, rep.to_dict()


class TestReportContents:
    def test_tilting_report_fields(self):
        rep = verify_tilting_identity(
            RngStream(103), PoissonSpec(rate=1.0), 1.0, GRID, PANEL, n=10_000
        )
        assert rep.fields["label"] == "tilting"
        assert rep.fields["n"] == 10_000
        assert len(rep.z) == len(PANEL)
        assert np.all(np.isfinite(rep.z))

    def test_tilting_notes_describe_the_weights(self):
        # the LHS is drawn on substream 1, as tilted_ensemble would draw it
        spec, n = TemperedStableSpec(0.5), 4000
        rep = verify_tilting_identity(RngStream(106), spec, 1.0, GRID, PANEL, n)
        w = tilted_ensemble(RngStream(106).substream(1), spec, 1.0, GRID, n).weights
        assert rep.notes == {"lhs_estimator": "control-variate",
                             "lhs_ess": pytest.approx(w.sum() ** 2 / (w**2).sum(), rel=1e-12),
                             "lhs_max_weight_share": pytest.approx(w.max() / w.sum(),
                                                                   rel=1e-12),
                             "rhs_estimator": "exact-kappa-times-companion"}
        assert 0 < rep.notes["lhs_ess"] < n
        assert rep.to_dict()["notes"] == rep.notes

    def test_decomposition_rejects_pin_off_grid(self):
        with pytest.raises(ValueError):
            verify_decomposition_identity(
                RngStream(104), PoissonSpec(rate=1.0), 0.3, GRID, PANEL, n=100
            )

    def test_deterministic_given_stream(self):
        r1 = verify_tilting_identity(
            RngStream(105), TemperedStableSpec(0.5), 1.0, GRID, PANEL, n=5000
        )
        r2 = verify_tilting_identity(
            RngStream(105), TemperedStableSpec(0.5), 1.0, GRID, PANEL, n=5000
        )
        assert np.array_equal(r1.lhs, r2.lhs)
        assert np.array_equal(r1.z, r2.z)


def _desk_decompositions():
    suite = json.loads((Path(__file__).resolve().parents[1]
                        / "configs" / "suite_desk.json").read_text())
    return {job["name"]: job["config"] for job in suite["jobs"]
            if job["name"].endswith("-decomposition")}


DESK_DECOMPOSITIONS = _desk_decompositions()


def _restricted_check(idx, name, n=200_000):
    """The hidden and visible parts' sample Laplace functionals against
    exp(-nu_zero(F)) and exp(-nu_positive(F)) from the restricted quadrature,
    for every entry of the default panel: 12 rows under one Bonferroni gate."""
    cfg = DESK_DECOMPOSITIONS[name]
    spec, grid = cli.parse_process(cfg["process"]), core.make_grid(cfg["grid"])
    a = cfg["identity"]["a"]
    panel = cli.default_panel(grid.points)
    est, se, exact = [], [], []
    for tag, (draw, restriction) in enumerate(
            [(hidden_values, "zero"), (visible_values, "positive")]):
        values = draw(RngStream(107, idx).substream(tag), spec, a, grid.points, n)
        m, s = weighted_laplace_panel(WeightedEnsemble(grid, values), panel)
        est += m.tolist()
        se += s.tolist()
        exact += [math.exp(-levy_functional_quadrature(spec, e, restriction, a))
                  for e in panel]
    return Check(est, se, exact, 0.0, 3.0, family_wise=True)


@pytest.mark.parametrize("idx,name", enumerate(DESK_DECOMPOSITIONS),
                         ids=list(DESK_DECOMPOSITIONS))
def test_hidden_and_visible_match_the_restricted_quadrature(idx, name):
    check = _restricted_check(idx, name)
    assert len(check.z) == 12 and check.crit == pytest.approx(3.69, abs=0.01)
    assert check.overall_pass, check.z


def test_swapped_conv_jump_filters_fail_the_restricted_quadrature(monkeypatch):
    # the hidden part keeps the jumps alive at a and the visible part the
    # others; their sum keeps its law, so only the restricted values see it
    monkeypatch.setattr(identities, "in_intervals",
                        lambda x, intervals: ~core.in_intervals(x, intervals))
    idx = list(DESK_DECOMPOSITIONS).index("conv-decomposition")
    check = _restricted_check(idx, "conv-decomposition")
    assert not check.overall_pass
    assert np.abs(check.z).max() > 10.0
